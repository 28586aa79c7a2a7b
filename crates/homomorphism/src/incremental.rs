//! Incremental core maintenance: re-coring an instance that was a core
//! before a batch of atoms was added, without re-probing every variable.
//! This is the core chase's only maintainer; its reference, in tests
//! and in experiment E7, is the from-scratch [`crate::core_of`] after
//! every step.
//!
//! The fold prober defined here, `FoldSearch`, is the crate's only
//! retraction search: `core_of`, `is_core` and the frugal chase's
//! `fold_variables` run on it too.
//!
//! ## The dirty-region invariant
//!
//! Let `I` be a core and `J = I ∪ A` for a batch of added atoms `A` (the
//! head images of one or more trigger applications). Two facts make an
//! incremental recomputation sound and fast:
//!
//! 1. **Only the dirty region can fold.** If `h` is a proper retraction
//!    of `J` with moved set `M`, then some atom containing a variable of
//!    `M` either lies in `A` or is mapped by `h` onto an atom of `A` —
//!    otherwise restricting `h` to `I` would contradict `I` being a core.
//!    Either way that atom *matches onto* an atom of `A` pointwise, so at
//!    least one eliminable variable occurs in an atom unifiable onto `A`.
//!    Seeding the candidate set with the variables of all such atoms
//!    (every atom of `A` unifies onto itself, so the seed holds `A`'s
//!    fresh nulls too) therefore finds a fold whenever one exists; when a
//!    fold lands, the same argument applies to its changed image atoms,
//!    which is the transitive expansion below.
//! 2. **Eliminability only shrinks.** If `x` survives a fold `r` (a
//!    retraction of the current instance) and is eliminable afterwards
//!    via `h`, then `h ∘ r` eliminates `x` before the fold too. So a
//!    probe that *conclusively* fails never needs to be repeated — the
//!    `failed` set below is sound, and each variable is probed at most
//!    once per maintenance phase.
//!
//! ## Parallel probing
//!
//! Candidates in a batch are probed concurrently with
//! [`std::thread::scope`]: the first probe to find a retraction raises a
//! shared atomic flag (first-hit-wins) that truncates its siblings
//! through their [`SearchBudget`]. Only the winning retraction is
//! applied, so the *result* is deterministic up to isomorphism (the core
//! is unique up to isomorphism) regardless of thread interleaving;
//! counters such as nodes explored may vary between runs.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use chase_atoms::{Atom, AtomId, AtomSet, IdBits, Substitution, Term, VarId};

use crate::budget::{MatchStats, SearchBudget, SearchOutcome};
use crate::core_impl::CoreResult;

/// Can `beta` be mapped onto `alpha` by some per-atom variable
/// assignment? (Constants must coincide; repeated variables must receive
/// one image.) This is the cheap syntactic test behind the dirty region:
/// any atom an endomorphism maps onto `alpha` necessarily passes it.
fn unifiable_onto(beta: &Atom, alpha: &Atom) -> bool {
    if beta.pred() != alpha.pred() || beta.arity() != alpha.arity() {
        return false;
    }
    let mut map: HashMap<VarId, Term> = HashMap::new();
    for (&b, &a) in beta.args().iter().zip(alpha.args()) {
        match b {
            Term::Const(_) => {
                if b != a {
                    return false;
                }
            }
            Term::Var(v) => match map.get(&v) {
                Some(&img) => {
                    if img != a {
                        return false;
                    }
                }
                None => {
                    map.insert(v, a);
                }
            },
        }
    }
    true
}

fn atom_vars(atom: &Atom, out: &mut BTreeSet<VarId>) {
    for &t in atom.args() {
        if let Term::Var(v) = t {
            out.insert(v);
        }
    }
}

/// The variables of every atom of `instance` unifiable onto some atom of
/// `anchors` (including the anchors' own variables — each atom unifies
/// onto itself).
fn dirty_vars(instance: &AtomSet, anchors: &[Atom]) -> BTreeSet<VarId> {
    let mut dirty = BTreeSet::new();
    for alpha in anchors {
        atom_vars(alpha, &mut dirty);
        for beta in instance.with_sig(alpha.pred(), alpha.arity()) {
            if unifiable_onto(beta, alpha) {
                atom_vars(beta, &mut dirty);
            }
        }
    }
    dirty
}

/// The result of one budgeted fold probe: a witnessing retraction if one
/// was found, plus the search outcome. A probe with `retraction == None`
/// and `outcome.truncated == true` is **inconclusive** — the variable may
/// or may not be eliminable.
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
    /// The variable being eliminated: must move, may not appear in the
    /// image.
    x: VarId,
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
            x: VarId::from_raw(0),
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
        if t == Term::Var(self.x) {
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
        self.x = x;
        self.nodes = 0;
        self.truncated = false;
        let instance = self.instance;
        // Root the search at the most constrained atom containing x.
        let Some(beta0) = instance
            .with_term(Term::Var(x))
            .min_by_key(|beta| instance.matching_count(beta.pred(), beta.arity(), &[]))
        else {
            return FoldProbe {
                retraction: None,
                outcome: SearchOutcome::default(),
            };
        };
        // Root candidates through the positional index: the empty bind
        // still pins beta0's constant positions, so this is already
        // narrower than a predicate scan. Unifying beta0 with a candidate
        // binds x; a candidate keeping x in place is rejected by
        // try_bind.
        let mut roots = self.spare.pop().unwrap_or_default();
        self.candidates(beta0, &mut roots);
        self.frames.push(Frame {
            pending: beta0,
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

/// What a worker concluded about the candidates it probed.
struct WorkerReport {
    stats: MatchStats,
    /// Probed exhaustively, no retraction: never probe again this phase.
    failed: Vec<VarId>,
    /// Not conclusively probed (lost the first-hit race or was cut by the
    /// winner's flag): back on the worklist.
    retry: Vec<VarId>,
}

/// Probes `batch` for eliminability, in parallel when `threads > 1`.
/// Returns the first-found fold (if any) and the per-worker reports.
fn probe_batch(
    current: &AtomSet,
    batch: &[VarId],
    budget: &SearchBudget,
    threads: usize,
) -> (Option<Substitution>, Vec<WorkerReport>) {
    let winner: Mutex<Option<Substitution>> = Mutex::new(None);
    let stop = Arc::new(AtomicBool::new(false));
    let probe_budget = budget.clone().with_cancel(Arc::clone(&stop));
    let workers = threads.max(1).min(batch.len().max(1));
    let run_worker = |chunk: &[VarId]| -> WorkerReport {
        let mut report = WorkerReport {
            stats: MatchStats::default(),
            failed: Vec::new(),
            retry: Vec::new(),
        };
        let mut search = FoldSearch::new(current, &probe_budget, None);
        for (i, &x) in chunk.iter().enumerate() {
            if stop.load(Ordering::Acquire) {
                report.retry.extend_from_slice(&chunk[i..]);
                break;
            }
            let probe = search.probe(x);
            report.stats.absorb(probe.outcome);
            match probe.retraction {
                Some(r) => {
                    let mut w = winner.lock().expect("winner lock poisoned");
                    if w.is_none() {
                        *w = Some(r);
                    }
                    stop.store(true, Ordering::Release);
                    // Whether this probe won or lost the race, only one
                    // fold is applied per batch; x may still be foldable
                    // against the updated instance, so it goes back on
                    // the worklist.
                    report.retry.push(x);
                }
                None if !probe.outcome.truncated => report.failed.push(x),
                None => {
                    // Truncated miss: inconclusive. Retry only if the cut
                    // came from a sibling's win — a caller-budget cut is
                    // surfaced via the truncation flag instead (avoiding
                    // a livelock under a caller node limit).
                    if stop.load(Ordering::Acquire) && !budget.interrupted() {
                        report.stats.truncated = false;
                        report.retry.push(x);
                    }
                }
            }
        }
        report
    };
    let reports = if workers <= 1 {
        vec![run_worker(batch)]
    } else {
        // Round-robin split keeps low-numbered (old, rarely foldable)
        // and high-numbered (fresh, often foldable) variables spread
        // across workers.
        let chunks: Vec<Vec<VarId>> = (0..workers)
            .map(|w| batch.iter().copied().skip(w).step_by(workers).collect())
            .collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| s.spawn(|| run_worker(chunk)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe worker panicked"))
                .collect()
        })
    };
    (winner.into_inner().expect("winner lock poisoned"), reports)
}

/// Re-cores `instance = known-core ∪ added` by probing only the dirty
/// region, expanding it transitively as folds land.
///
/// * `instance` — the full current instance;
/// * `added` — the atoms added since the instance was last a core (the
///   head images of the applications in between, which hold every null
///   they minted; over-approximating is harmless, it only enlarges the
///   candidate set);
/// * `budget` — deadline/cancel polled between and *inside* probes; on a
///   cut the result is a sound retract flagged `truncated`, not a core;
/// * `threads` — max concurrent probes (1 = sequential, deterministic).
pub fn incremental_core(
    instance: &AtomSet,
    added: &[Atom],
    budget: &SearchBudget,
    threads: usize,
) -> (CoreResult, MatchStats) {
    let mut current = instance.clone();
    let mut total = Substitution::new();
    let mut stats = MatchStats::default();
    let mut failed: HashSet<VarId> = HashSet::new();

    let mut worklist = dirty_vars(&current, added);

    loop {
        if budget.interrupted() {
            stats.truncated = true;
            break;
        }
        let batch: Vec<VarId> = worklist
            .iter()
            .copied()
            .filter(|&x| !failed.contains(&x) && current.mentions(Term::Var(x)))
            .collect();
        worklist.clear();
        if batch.is_empty() {
            break;
        }
        let (fold, reports) = probe_batch(&current, &batch, budget, threads);
        for report in reports {
            stats.merge(report.stats);
            failed.extend(report.failed);
            worklist.extend(report.retry);
        }
        if let Some(r) = fold {
            // Transitive expansion: the fold's changed images are the new
            // anchors — exactly the `A` of the invariant, one level up.
            let changed: Vec<Atom> = current
                .iter()
                .filter_map(|beta| {
                    let gamma = r.apply_atom(beta);
                    (gamma != *beta).then_some(gamma)
                })
                .collect();
            // In place: a fold moves O(1) atoms out of a large instance,
            // so rebuilding the whole set (and its positional indexes)
            // per retraction would dominate. Removals may auto-compact
            // the arena; no AtomIds are held across this point.
            current.apply_in_place(&r);
            total = total.then(&r);
            worklist.extend(dirty_vars(&current, &changed));
        }
    }
    debug_assert!(total.is_retraction_of(instance));
    debug_assert_eq!(total.apply_set(instance), current);
    debug_assert!(
        stats.truncated || crate::core_impl::is_core(&current),
        "dirty-region maintenance must reach the core when not truncated"
    );
    (
        CoreResult {
            core: current,
            retraction: total,
        },
        stats,
    )
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

    #[test]
    fn fresh_null_folds_back_onto_existing_structure() {
        // Core {r(a,b)}; add r(a,z) with fresh null z — z folds onto b.
        let core = set(&[atom(0, &[c(0), c(1)])]);
        assert!(is_core(&core));
        let added = vec![atom(0, &[c(0), v(7)])];
        let mut j = core.clone();
        j.insert(added[0].clone());
        let (res, stats) = incremental_core(&j, &added, &SearchBudget::default(), 1);
        assert_eq!(res.core, core);
        assert!(res.retraction.is_retraction_of(&j));
        assert!(!stats.truncated);
        assert!(stats.candidates >= 1);
    }

    #[test]
    fn old_variable_folds_when_new_atoms_enable_it() {
        // Core I = {p(a,x)} (x cannot fold). Adding the ground atom
        // p(a,b) makes the *old* variable x eliminable — the dirty region
        // must pick it up even though x is neither fresh nor in the new
        // atom (p(a,x) is unifiable onto p(a,b)).
        let i = set(&[atom(0, &[c(0), v(3)])]);
        assert!(is_core(&i));
        let added = vec![atom(0, &[c(0), c(1)])];
        let mut j = i.clone();
        j.insert(added[0].clone());
        let (res, _) = incremental_core(&j, &added, &SearchBudget::default(), 1);
        assert_eq!(res.core, set(&[atom(0, &[c(0), c(1)])]));
        assert!(is_core(&res.core));
    }

    #[test]
    fn co_movement_folds_variables_outside_the_seed() {
        // I = {q(x,w), q(z,w'), p(w,a), p(w',b)} is a core. Adding
        // p(w',a) lets w fold (w↦w'), which forces x↦z along — x is
        // nowhere near the added atom, but the fold carries it.
        let i = set(&[
            atom(1, &[v(0), v(1)]), // q(x, w)
            atom(1, &[v(2), v(3)]), // q(z, w')
            atom(0, &[v(1), c(0)]), // p(w, a)
            atom(0, &[v(3), c(1)]), // p(w', b)
        ]);
        assert!(is_core(&i));
        let added = vec![atom(0, &[v(3), c(0)])]; // p(w', a)
        let mut j = i.clone();
        j.insert(added[0].clone());
        let (res, _) = incremental_core(&j, &added, &SearchBudget::default(), 1);
        let full = core_of(&j);
        assert!(isomorphism(&res.core, &full.core).is_some());
        assert!(is_core(&res.core));
        assert!(!j.is_subset_of(&res.core), "something folded");
    }

    #[test]
    fn disjoint_edge_folds_onto_added_loop() {
        // I = {e(x1,x2)} core; adding e(y,y) (fresh null y) makes x1,x2
        // fold onto y — candidates found via unifiable-onto, not
        // membership in the new atom.
        let i = set(&[atom(0, &[v(0), v(1)])]);
        let added = vec![atom(0, &[v(9), v(9)])];
        let mut j = i.clone();
        j.insert(added[0].clone());
        let (res, _) = incremental_core(&j, &added, &SearchBudget::default(), 1);
        assert_eq!(res.core, set(&[atom(0, &[v(9), v(9)])]));
    }

    #[test]
    fn parallel_probing_matches_sequential_up_to_iso() {
        // Many interchangeable fresh nulls: parallel and sequential
        // maintenance must land on isomorphic cores.
        let mut j = set(&[atom(0, &[c(0), c(1)])]);
        let mut added = Vec::new();
        for k in 0..8u32 {
            let a = atom(0, &[c(0), v(10 + k)]);
            j.insert(a.clone());
            added.push(a);
        }
        let (seq, _) = incremental_core(&j, &added, &SearchBudget::default(), 1);
        let (par, _) = incremental_core(&j, &added, &SearchBudget::default(), 4);
        assert!(isomorphism(&seq.core, &par.core).is_some());
        assert!(is_core(&par.core));
        assert_eq!(par.core, set(&[atom(0, &[c(0), c(1)])]));
    }

    #[test]
    fn truncated_budget_returns_sound_retract() {
        let mut j = set(&[atom(0, &[c(0), c(1)])]);
        let mut added = Vec::new();
        for k in 0..4u32 {
            let a = atom(0, &[c(0), v(10 + k)]);
            j.insert(a.clone());
            added.push(a);
        }
        let expired = SearchBudget::default()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let (res, stats) = incremental_core(&j, &added, &expired, 1);
        assert!(stats.truncated);
        assert_eq!(res.core, j, "no time to fold anything");
        assert!(res.retraction.is_retraction_of(&j));
    }

    #[test]
    fn empty_addition_is_a_no_op() {
        let core = set(&[atom(0, &[v(0), v(1)])]);
        let (res, _) = incremental_core(&core, &[], &SearchBudget::default(), 4);
        assert_eq!(res.core, core);
        assert!(res.retraction.is_empty());
    }
}
