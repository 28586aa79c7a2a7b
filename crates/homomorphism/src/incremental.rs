//! Incremental core maintenance: re-coring an instance that was a core
//! before a batch of atoms was inserted, without re-probing every
//! variable. This is the core chase's only maintainer; its reference, in
//! tests and in experiment E7, is the from-scratch [`crate::core_of`]
//! after every step.
//!
//! The fold prober defined here, `FoldSearch`, is the crate's only
//! retraction search: `core_of`, `is_core`, the frugal chase's
//! `fold_variables` and the pivot certificate run on it too.
//!
//! ## The pivot certificate
//!
//! Let `I` be a finite core and `J = I ∪ A` for a batch `A` of inserted
//! atoms (`A ∩ I = ∅`). A variable of `I` is *old*; the other variables
//! of `A` are its *fresh nulls*.
//!
//! 1. **Pivot lemma.** If a retraction `h` of `J` moves an old variable,
//!    then `h` maps some atom `β ∈ I` onto an atom `α ∈ A`. Otherwise
//!    `h` restricted to `I` is an endomorphism of the core `I`, hence an
//!    automorphism, and an idempotent automorphism is the identity. The
//!    pairs `(β, α)` with `β` unifiable onto `α` are the *pivots*, and
//!    [`pivot_certificate`] runs one fold search per pivot with its root
//!    forced to `β ↦ α` and no variable required to vanish. If every
//!    pivot search fails conclusively, no old variable is eliminable.
//! 2. **Exactness.** A successful pivot search is a retraction that moves
//!    a variable of `β`, and an idempotent map eliminates every variable
//!    it moves, so some old variable is eliminable. The certificate holds
//!    exactly when no old variable is.
//! 3. **Eliminability only shrinks.** If `x` survives a fold `r` (a
//!    retraction of the current instance) and is eliminable afterwards
//!    via `h`, then `h ∘ r` eliminates `x` before the fold too. So one
//!    serial pass over the candidates reaches the core: a probe that
//!    conclusively fails never needs repeating, and variables the
//!    certificate rules out never need probing.
//!
//! ## The truncation guard
//!
//! The lemma needs `I` to be a core. A phase cut by its budget (a node
//! limit, a deadline or a cancel) leaves a sound retract that may not be
//! one, so [`incremental_core`] certifies only when the caller says the
//! previous phase was conclusive. A certified phase probes the fresh
//! nulls; any other phase probes every variable, so every conclusive
//! phase ends at a core.

use std::collections::BTreeSet;

use chase_atoms::{Atom, AtomId, AtomSet, IdBits, Substitution, Term, VarId};

use crate::budget::{MatchStats, SearchBudget, SearchOutcome};
use crate::core_impl::fold_variables;

/// Can `beta` be mapped onto `alpha` by some per-atom variable
/// assignment? (Constants must coincide; repeated variables must receive
/// one image.) Every pivot passes this cheap syntactic test.
fn unifiable_onto(beta: &Atom, alpha: &Atom) -> bool {
    let (b, a) = (beta.args(), alpha.args());
    beta.pred() == alpha.pred()
        && b.len() == a.len()
        && (0..b.len()).all(|i| match b[i] {
            Term::Const(_) => b[i] == a[i],
            // The first occurrence of a repeated variable fixes its image.
            Term::Var(_) => (0..i).all(|j| b[j] != b[i] || a[j] == a[i]),
        })
}

/// The result of one budgeted fold probe: a witnessing retraction if one
/// was found, plus the search outcome. A probe with `retraction == None`
/// and `outcome.truncated == true` is **inconclusive** — the variable may
/// or may not be eliminable.
#[derive(Default)]
pub(crate) struct FoldProbe {
    /// A retraction of the probed atomset avoiding the probed variable.
    pub(crate) retraction: Option<Substitution>,
    /// Work done and whether the budget cut the search short.
    pub(crate) outcome: SearchOutcome,
}

/// The moved-closure fold prober — the crate's only retraction search.
///
/// A partial substitution `p` extended by the identity is a retraction of
/// `J` iff (a) every term in its image is a fixpoint and (b) every atom
/// containing a *moved* variable maps into `J` — atoms touching only
/// unbound variables map to themselves and need no work. So a probe for
/// variable `x` never has to assign the untouched part of the instance:
/// it binds `x`, then confirms exactly the atoms its moved variables
/// drag in, transitively. This is both
///
/// * **sound** — a completed search *is* a retraction eliminating `x`
///   (all dragged-in atoms confirmed, image fixpoints pinned, `x`
///   forbidden from the image), and
/// * **complete** — if a retraction `r` of `J` eliminates `x`, then
///   restricting `r` to the moved variables var-connected to `x` through
///   atoms containing moved variables (identity elsewhere) is still a
///   retraction eliminating `x`: any atom's moved variables are either
///   all inside that component or all outside, so the restriction stays
///   a homomorphism. The search explores exactly such restrictions. The
///   restriction moves no variable `r` does not move, so a movable set
///   loses nothing either.
///
/// A probe never assigns the rest of the instance, so its cost is a
/// function of the fold's locality rather than the instance size — the
/// point of maintaining the core incrementally.
///
/// ## Per-node work
///
/// A node pays for what its binding adds, not for the whole closure:
///
/// * the **dragged-in frontier** lists each atom containing a moved
///   variable once — a variable's star is appended when it starts to
///   move, deduplicated through a bitset;
/// * a frontier atom whose image is fully determined and present is
///   marked **done** and skipped for the rest of the branch;
/// * each atom's candidate count is memoised until one of its positions
///   becomes determined;
/// * bindings live in a dense table indexed by [`VarId::raw`];
/// * all of these are undone by truncating their trails back to the
///   [`Mark`] taken when a node was entered.
///
/// The pending atom is the one with the fewest candidates; ties go to
/// the smallest key *(smallest moved variable in the atom, `AtomId`)*,
/// which is the order in which a scan over the movers' stars meets the
/// atoms. The depth-first search runs on an explicit frame stack, so
/// deep closures never grow the thread's stack.
pub(crate) struct FoldSearch<'a> {
    instance: &'a AtomSet,
    budget: &'a SearchBudget,
    /// The variables a retraction may move (`None`: every variable);
    /// all others are fixed.
    movable: Option<&'a [VarId]>,
    /// The variable being eliminated, as a term: it may not appear in
    /// the image, so it must move (`None` in a pivot search).
    forbidden: Option<Term>,
    /// Partial assignment, indexed by [`VarId::raw`].
    bind: Vec<Option<Term>>,
    /// Bound variables in binding order (the binding trail).
    bound: Vec<VarId>,
    /// Atoms containing a moved variable, in the order they were dragged
    /// in (the frontier trail), and their membership bits.
    frontier: Vec<AtomId>,
    in_frontier: IdBits,
    /// Frontier atoms already confirmed on this branch, and their trail.
    done: IdBits,
    done_trail: Vec<AtomId>,
    /// Per-atom candidate count with the number of determined positions
    /// it was computed at, indexed by `AtomId::raw`. Determined positions
    /// only accumulate along a branch, so an unchanged number means an
    /// unchanged count. The trail keeps overwritten entries for undo.
    counts: Vec<Option<(usize, usize)>>,
    count_trail: Vec<(AtomId, Option<(usize, usize)>)>,
    /// The open nodes of the depth-first search, root first.
    frames: Vec<Frame<'a>>,
    /// Candidate buffers of popped frames, reused by the next push.
    spare: Vec<Vec<AtomId>>,
    /// Determined `(position, image)` pairs of the atom being ranked.
    positions: Vec<(usize, Term)>,
    /// Scratch bitset for positional-posting intersection
    /// ([`AtomSet::matching_ids`] leaves it clean).
    scratch: IdBits,
    /// Id buffer for candidate counts that need an intersection.
    count_buf: Vec<AtomId>,
    nodes: usize,
    truncated: bool,
}

/// Trail lengths to rewind to: the search state on entry to a node.
#[derive(Clone, Copy, Default)]
struct Mark {
    bound: usize,
    frontier: usize,
    done: usize,
    counts: usize,
}

/// One open node: the pending atom, its candidate images and the next
/// one to try.
struct Frame<'a> {
    pending: &'a Atom,
    cands: Vec<AtomId>,
    next: usize,
    mark: Mark,
}

impl<'a> FoldSearch<'a> {
    /// A prober over `instance` whose retractions move only variables of
    /// `movable` (`None`: any variable).
    pub(crate) fn new(
        instance: &'a AtomSet,
        budget: &'a SearchBudget,
        movable: Option<&'a [VarId]>,
    ) -> Self {
        let mut in_frontier = IdBits::new();
        in_frontier.ensure(instance.arena_len());
        let mut done = IdBits::new();
        done.ensure(instance.arena_len());
        FoldSearch {
            instance,
            budget,
            movable,
            forbidden: None,
            bind: Vec::new(),
            bound: Vec::new(),
            frontier: Vec::new(),
            in_frontier,
            done,
            done_trail: Vec::new(),
            counts: vec![None; instance.arena_len()],
            count_trail: Vec::new(),
            frames: Vec::new(),
            spare: Vec::new(),
            positions: Vec::new(),
            scratch: IdBits::new(),
            count_buf: Vec::new(),
            nodes: 0,
            truncated: false,
        }
    }

    fn mark(&self) -> Mark {
        Mark {
            bound: self.bound.len(),
            frontier: self.frontier.len(),
            done: self.done_trail.len(),
            counts: self.count_trail.len(),
        }
    }

    fn rewind(&mut self, to: Mark) {
        for v in self.bound.drain(to.bound..) {
            self.bind[v.raw() as usize] = None;
        }
        for id in self.frontier.drain(to.frontier..) {
            self.in_frontier.remove(id.raw());
        }
        for id in self.done_trail.drain(to.done..) {
            self.done.remove(id.raw());
        }
        for (id, old) in self.count_trail.drain(to.counts..).rev() {
            self.counts[id.raw() as usize] = old;
        }
    }

    fn image(&self, t: Term) -> Option<Term> {
        match t {
            Term::Const(_) => Some(t),
            Term::Var(v) => self.bind.get(v.raw() as usize).copied().flatten(),
        }
    }

    /// Binds `v ↦ t`, pinning `t` as a fixpoint when it is a variable
    /// and dragging in `v`'s star when `v` moves.
    fn try_bind(&mut self, v: VarId, t: Term) -> bool {
        if Some(t) == self.forbidden {
            return false; // x may not occur in the image
        }
        let slot = v.raw() as usize;
        if slot >= self.bind.len() {
            self.bind.resize(slot + 1, None);
        }
        if let Some(existing) = self.bind[slot] {
            return existing == t;
        }
        if t != Term::Var(v) && self.movable.is_some_and(|m| !m.contains(&v)) {
            return false; // a fixed variable may only map to itself
        }
        self.bind[slot] = Some(t);
        self.bound.push(v);
        if t == Term::Var(v) {
            return true; // pinned fixpoint: its atoms ride on movers
        }
        for id in self.instance.ids_with_term(Term::Var(v)) {
            if !self.in_frontier.contains(id.raw()) {
                self.in_frontier.insert(id.raw());
                self.frontier.push(id);
            }
        }
        match t {
            Term::Var(u) => self.try_bind(u, t),
            Term::Const(_) => true,
        }
    }

    /// Fully binds `beta ↦ gamma` positionally.
    fn unify(&mut self, beta: &Atom, gamma: &Atom) -> bool {
        for (&b, &g) in beta.args().iter().zip(gamma.args()) {
            match b {
                Term::Const(_) => {
                    if b != g {
                        return false;
                    }
                }
                Term::Var(v) => {
                    if !self.try_bind(v, g) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Fills [`FoldSearch::positions`] with `beta`'s determined
    /// positions; returns whether every position is determined.
    fn determine(&mut self, beta: &Atom) -> bool {
        self.positions.clear();
        for (pos, &t) in beta.args().iter().enumerate() {
            if let Some(img) = self.image(t) {
                self.positions.push((pos, img));
            }
        }
        self.positions.len() == beta.arity()
    }

    /// The exact candidate images of `beta` under the current binding:
    /// the intersection of the instance's positional postings over its
    /// determined positions — the same [`AtomSet::matching_ids`] API the
    /// general matcher enumerates through, so the prober cannot drift
    /// from its semantics.
    fn candidates(&mut self, beta: &Atom, out: &mut Vec<AtomId>) {
        self.determine(beta);
        self.instance.matching_ids(
            beta.pred(),
            beta.arity(),
            &self.positions,
            &mut self.scratch,
            out,
        );
    }

    /// Exact candidate count for `beta` once [`FoldSearch::determine`]
    /// has run, without materialising the list when ≤ 1 position is
    /// determined. For a fully determined atom it is 1 if its image is
    /// present and 0 otherwise.
    fn count_matches(&mut self, beta: &Atom) -> usize {
        if self.positions.len() >= 2 {
            self.instance.matching_ids(
                beta.pred(),
                beta.arity(),
                &self.positions,
                &mut self.scratch,
                &mut self.count_buf,
            );
            self.count_buf.len()
        } else {
            self.instance
                .matching_count(beta.pred(), beta.arity(), &self.positions)
        }
    }

    /// [`FoldSearch::count_matches`] through the per-atom memo: no
    /// position determined since the last count means the same count.
    fn candidate_count(&mut self, id: AtomId, beta: &Atom) -> usize {
        let slot = id.raw() as usize;
        let determined = self.positions.len();
        if let Some((at, count)) = self.counts[slot] {
            if at == determined {
                return count;
            }
        }
        let count = self.count_matches(beta);
        self.count_trail.push((id, self.counts[slot]));
        self.counts[slot] = Some((determined, count));
        count
    }

    /// The smallest moved variable of a frontier atom: the first key of
    /// the pending-atom tie-break.
    fn first_mover(&self, beta: &Atom) -> VarId {
        beta.vars()
            .filter(|&v| self.image(Term::Var(v)).is_some_and(|t| t != Term::Var(v)))
            .min()
            .expect("frontier atoms contain a moved variable")
    }

    /// Picks the frontier atom to extend the fold through next — the
    /// smallest key *(candidate count, smallest moved variable,
    /// `AtomId`)* — marking the newly confirmed ones done. `Err(())`
    /// signals a dead branch (a fully bound atom whose image is missing,
    /// or an atom with no candidate); `Ok(None)` a complete fold.
    fn select_pending(&mut self) -> Result<Option<&'a Atom>, ()> {
        let instance = self.instance;
        let mut best: Option<(usize, VarId, AtomId)> = None;
        for i in 0..self.frontier.len() {
            let id = self.frontier[i];
            if self.done.contains(id.raw()) {
                continue;
            }
            let beta = instance.get(id).expect("frontier holds live ids");
            if self.determine(beta) {
                if self.count_matches(beta) == 0 {
                    return Err(()); // its image is missing
                }
                self.done.insert(id.raw());
                self.done_trail.push(id);
                continue;
            }
            let est = self.candidate_count(id, beta);
            if est == 0 {
                return Err(());
            }
            let key = (est, self.first_mover(beta), id);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        Ok(best.map(|(_, _, id)| instance.get(id).expect("frontier holds live ids")))
    }

    /// Probes whether `x` can be folded away: a retraction of the
    /// instance whose image avoids `x`, searched over the moved closure
    /// of `x` only. A truncated miss is inconclusive.
    pub(crate) fn probe(&mut self, x: VarId) -> FoldProbe {
        let instance = self.instance;
        // Root the search at the most constrained atom containing x.
        let Some(beta0) = instance
            .with_term(Term::Var(x))
            .min_by_key(|beta| instance.matching_count(beta.pred(), beta.arity(), &[]))
        else {
            return FoldProbe::default();
        };
        self.search(Some(Term::Var(x)), beta0, None)
    }

    /// Searches for a retraction that maps `beta` onto the atom `alpha`
    /// (a pivot of the certificate). No variable has to vanish, but one
    /// of `beta` moves whenever `alpha` differs from `beta`.
    fn probe_pivot(&mut self, beta: &'a Atom, alpha: AtomId) -> FoldProbe {
        self.search(None, beta, Some(alpha))
    }

    /// Runs one search from a root frame on `root`, whose candidates are
    /// `image` alone or, when `None`, every atom it matches.
    fn search(
        &mut self,
        forbidden: Option<Term>,
        root: &'a Atom,
        image: Option<AtomId>,
    ) -> FoldProbe {
        if self.budget.interrupted() {
            return FoldProbe {
                retraction: None,
                outcome: SearchOutcome {
                    truncated: true,
                    nodes: 0,
                },
            };
        }
        self.rewind(Mark::default());
        self.forbidden = forbidden;
        self.nodes = 0;
        self.truncated = false;
        // Root candidates through the positional index: the empty bind
        // still pins the root's constant positions, so this is already
        // narrower than a predicate scan. In a probe of x, unifying the
        // root with a candidate binds x; a candidate keeping x in place
        // is rejected by try_bind.
        let mut roots = self.spare.pop().unwrap_or_default();
        match image {
            Some(id) => {
                roots.clear();
                roots.push(id);
            }
            None => self.candidates(root, &mut roots),
        }
        self.frames.push(Frame {
            pending: root,
            cands: roots,
            next: 0,
            mark: Mark::default(),
        });
        let retraction = self.solve().then(|| {
            Substitution::from_pairs(self.bound.iter().map(|&v| {
                (
                    v,
                    self.bind[v.raw() as usize].expect("trailed vars are bound"),
                )
            }))
            .normalized()
        });
        while let Some(frame) = self.frames.pop() {
            self.spare.push(frame.cands);
        }
        FoldProbe {
            retraction,
            outcome: SearchOutcome {
                truncated: self.truncated,
                nodes: self.nodes,
            },
        }
    }

    /// Depth-first completion of the open frames. Returns `true` with the
    /// fold left bound, or `false` when the tree is exhausted or the
    /// budget cut it (`truncated`).
    fn solve(&mut self) -> bool {
        while let Some(frame) = self.frames.last_mut() {
            let (pending, mark) = (frame.pending, frame.mark);
            let Some(&cand) = frame.cands.get(frame.next) else {
                let exhausted = self.frames.pop().expect("non-empty stack");
                self.spare.push(exhausted.cands);
                continue;
            };
            frame.next += 1;
            // Undo the previous candidate of this node.
            self.rewind(mark);
            self.nodes += 1;
            if self.budget.exhausted_at(self.nodes) {
                self.truncated = true;
                return false;
            }
            let gamma = self
                .instance
                .get(cand)
                .expect("matching_ids returned dead id");
            if !self.unify(pending, gamma) {
                continue;
            }
            match self.select_pending() {
                Err(()) => {}
                Ok(None) => return true,
                Ok(Some(beta)) => {
                    let mut cands = self.spare.pop().unwrap_or_default();
                    self.candidates(beta, &mut cands);
                    let mark = self.mark();
                    self.frames.push(Frame {
                        pending: beta,
                        cands,
                        next: 0,
                        mark,
                    });
                }
            }
        }
        false
    }
}

/// The ids of `added` in `instance` (atoms it lacks are skipped).
fn inserted_ids(instance: &AtomSet, added: &[Atom]) -> IdBits {
    let mut ids = IdBits::new();
    ids.ensure(instance.arena_len());
    for id in added.iter().filter_map(|alpha| instance.id_of(alpha)) {
        ids.insert(id.raw());
    }
    ids
}

/// The pivot certificate: does no variable of `I = instance \ added`
/// fold in `instance`?
///
/// Runs one fold search per pivot `(β, α)`, `β ∈ I` unifiable onto
/// `α ∈ added`, with `β ↦ α` forced, and stops at the first one that
/// succeeds or is cut by the budget. Returns whether every pivot search
/// failed conclusively, with the searches' nodes (and their truncation
/// flag) in the stats; pivot searches are not counted as fold
/// candidates. When `I` is a core, the certificate holds exactly when
/// no variable of `I` is eliminable in `instance` (module docs).
pub fn pivot_certificate(
    instance: &AtomSet,
    added: &[Atom],
    budget: &SearchBudget,
) -> (bool, MatchStats) {
    let inserted = inserted_ids(instance, added);
    let mut stats = MatchStats::default();
    let mut search = FoldSearch::new(instance, budget, None);
    let (mut scratch, mut sig) = (IdBits::new(), Vec::new());
    for alpha in added {
        let Some(alpha_id) = instance.id_of(alpha) else {
            continue;
        };
        instance.matching_ids(alpha.pred(), alpha.arity(), &[], &mut scratch, &mut sig);
        for &beta_id in &sig {
            let beta = instance
                .get(beta_id)
                .expect("matching_ids returned dead id");
            if inserted.contains(beta_id.raw()) || !unifiable_onto(beta, alpha) {
                continue;
            }
            let probe = search.probe_pivot(beta, alpha_id);
            stats.nodes += probe.outcome.nodes;
            stats.truncated |= probe.outcome.truncated;
            if probe.retraction.is_some() || probe.outcome.truncated {
                return (false, stats);
            }
        }
    }
    (true, stats)
}

/// Re-cores `instance = I ∪ added` in place, where `added` holds the
/// atoms inserted since `instance` was last simplified, and returns the
/// composed retraction with the phase's counters.
///
/// * `base_is_core` — whether `I` is a core (the previous phase, or
///   `σ₀`, was not truncated). Only then is the [`pivot_certificate`]
///   tried; when it holds, only the fresh nulls of `added` are probed.
///   Otherwise every variable is.
/// * `budget` — polled between and *inside* probes. A probe cut by the
///   node limit leaves its variable unresolved; a deadline or cancel
///   ends the phase. Either way the result is a sound retract flagged
///   `truncated`, possibly not a core.
pub fn incremental_core(
    instance: &mut AtomSet,
    added: &[Atom],
    budget: &SearchBudget,
    base_is_core: bool,
) -> (Substitution, MatchStats) {
    #[cfg(debug_assertions)]
    let before = instance.clone();
    let mut stats = MatchStats::default();
    let certified = base_is_core && {
        let (holds, pivots) = pivot_certificate(instance, added, budget);
        stats.nodes += pivots.nodes;
        holds
    };
    let candidates: BTreeSet<VarId> = if certified {
        let inserted = inserted_ids(instance, added);
        added
            .iter()
            .flat_map(Atom::vars)
            .filter(|&v| {
                instance
                    .ids_with_term(Term::Var(v))
                    .all(|id| inserted.contains(id.raw()))
            })
            .collect()
    } else {
        instance.vars()
    };
    let (total, probes) = fold_variables(instance, candidates, None, budget);
    stats.merge(probes);
    #[cfg(debug_assertions)]
    {
        assert!(total.is_retraction_of(&before));
        assert_eq!(total.apply_set(&before), *instance);
        assert!(
            stats.truncated || crate::core_impl::is_core(instance),
            "a conclusive phase must reach the core"
        );
    }
    (total, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_impl::{core_of, is_core};
    use crate::iso::isomorphism;
    use chase_atoms::{ConstId, PredId};

    fn p(i: u32) -> PredId {
        PredId::from_raw(i)
    }

    fn v(i: u32) -> Term {
        Term::Var(VarId::from_raw(i))
    }

    fn c(i: u32) -> Term {
        Term::Const(ConstId::from_raw(i))
    }

    fn atom(pr: u32, args: &[Term]) -> Atom {
        Atom::new(p(pr), args.to_vec())
    }

    fn set(atoms: &[Atom]) -> AtomSet {
        atoms.iter().cloned().collect()
    }

    #[test]
    fn unifiable_onto_respects_constants_and_repeats() {
        let alpha = atom(0, &[c(0), c(1)]);
        assert!(unifiable_onto(&atom(0, &[v(5), c(1)]), &alpha));
        assert!(unifiable_onto(&atom(0, &[v(5), v(6)]), &alpha));
        assert!(!unifiable_onto(&atom(0, &[c(2), c(1)]), &alpha));
        // Repeated variable cannot take two images.
        assert!(!unifiable_onto(&atom(0, &[v(5), v(5)]), &alpha));
        assert!(unifiable_onto(
            &atom(0, &[v(5), v(5)]),
            &atom(0, &[c(0), c(0)])
        ));
        assert!(!unifiable_onto(&atom(1, &[c(0), c(1)]), &alpha));
    }

    /// Inserts `added` into `base` and runs the maintainer on the result
    /// in place, certifying when `base_is_core`.
    fn recore(
        base: &AtomSet,
        added: &[Atom],
        budget: &SearchBudget,
        base_is_core: bool,
    ) -> (AtomSet, Substitution, MatchStats) {
        let mut j = base.clone();
        for a in added {
            j.insert(a.clone());
        }
        let (sigma, stats) = incremental_core(&mut j, added, budget, base_is_core);
        (j, sigma, stats)
    }

    #[test]
    fn fresh_null_folds_back_onto_existing_structure() {
        // Core {r(a,b)}; add r(a,z) with fresh null z — z folds onto b.
        let core = set(&[atom(0, &[c(0), c(1)])]);
        assert!(is_core(&core));
        let added = vec![atom(0, &[c(0), v(7)])];
        let (res, sigma, stats) = recore(&core, &added, &SearchBudget::default(), true);
        assert_eq!(res, core);
        assert_eq!(sigma.apply_atom(&added[0]), atom(0, &[c(0), c(1)]));
        assert!(!stats.truncated);
        assert_eq!(stats.candidates, 1, "only the fresh null is probed");
    }

    #[test]
    fn old_variable_folds_when_new_atoms_enable_it() {
        // Core I = {p(a,x)} (x cannot fold). Adding the ground atom
        // p(a,b) makes the *old* variable x eliminable: the pivot
        // p(a,x) ↦ p(a,b) succeeds, so the phase is not certified and
        // every variable is probed.
        let i = set(&[atom(0, &[c(0), v(3)])]);
        assert!(is_core(&i));
        let added = vec![atom(0, &[c(0), c(1)])];
        let j = set(&[atom(0, &[c(0), v(3)]), added[0].clone()]);
        assert!(!pivot_certificate(&j, &added, &SearchBudget::default()).0);
        let (res, _, _) = recore(&i, &added, &SearchBudget::default(), true);
        assert_eq!(res, set(&[atom(0, &[c(0), c(1)])]));
        assert!(is_core(&res));
    }

    #[test]
    fn co_movement_folds_variables_outside_the_pivot() {
        // I = {q(x,w), q(z,w'), p(w,a), p(w',b)} is a core. Adding
        // p(w',a) lets w fold (w↦w'), which forces x↦z along — x is in no
        // pivot, but the fold carries it.
        let i = set(&[
            atom(1, &[v(0), v(1)]), // q(x, w)
            atom(1, &[v(2), v(3)]), // q(z, w')
            atom(0, &[v(1), c(0)]), // p(w, a)
            atom(0, &[v(3), c(1)]), // p(w', b)
        ]);
        assert!(is_core(&i));
        let added = vec![atom(0, &[v(3), c(0)])]; // p(w', a)
        let (res, _, _) = recore(&i, &added, &SearchBudget::default(), true);
        let mut j = i.clone();
        j.insert(added[0].clone());
        assert!(isomorphism(&res, &core_of(&j).core).is_some());
        assert!(is_core(&res));
        assert!(!j.is_subset_of(&res), "something folded");
    }

    #[test]
    fn disjoint_edge_folds_onto_added_loop() {
        // I = {e(x1,x2)} core; adding e(y,y) (fresh null y) makes x1,x2
        // fold onto y through the pivot e(x1,x2) ↦ e(y,y).
        let i = set(&[atom(0, &[v(0), v(1)])]);
        let added = vec![atom(0, &[v(9), v(9)])];
        let (res, _, _) = recore(&i, &added, &SearchBudget::default(), true);
        assert_eq!(res, set(&[atom(0, &[v(9), v(9)])]));
    }

    #[test]
    fn uncertified_phase_recores_a_non_core_base() {
        // The base {e(x,y), e(y,y)} is no core (x folds onto y), and no
        // pivot reaches x: the certificate holds although x is
        // eliminable. With the guard off, every variable is probed.
        let base = set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(1)])]);
        assert!(!is_core(&base));
        let added = vec![atom(1, &[v(1), v(5)])];
        let mut j = base.clone();
        j.insert(added[0].clone());
        assert!(pivot_certificate(&j, &added, &SearchBudget::default()).0);
        let (res, _, _) = recore(&base, &added, &SearchBudget::default(), false);
        assert!(is_core(&res));
        assert!(!res.mentions(v(0)));
    }

    #[test]
    fn truncated_budget_returns_sound_retract() {
        let mut added = Vec::new();
        for k in 0..4u32 {
            added.push(atom(0, &[c(0), v(10 + k)]));
        }
        let expired = SearchBudget::default()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let core = set(&[atom(0, &[c(0), c(1)])]);
        let (res, sigma, stats) = recore(&core, &added, &expired, true);
        assert!(stats.truncated);
        assert_eq!(res.len(), 5, "no time to fold anything");
        assert!(sigma.is_empty());
    }

    #[test]
    fn empty_addition_is_a_no_op() {
        let core = set(&[atom(0, &[v(0), v(1)])]);
        let (res, sigma, stats) = recore(&core, &[], &SearchBudget::default(), true);
        assert_eq!(res, core);
        assert!(sigma.is_empty());
        assert_eq!(stats, MatchStats::default());
    }
}
