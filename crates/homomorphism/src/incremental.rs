//! The crate's one homomorphism search, and incremental core maintenance
//! on top of it.
//!
//! [`Kernel`] is a depth-first search for a substitution mapping pending
//! pattern atoms into a target atomset. Two front ends drive it; they
//! differ only in their inputs and in the constraints a binding must
//! meet:
//!
//! * **enumerate homomorphisms** of a fixed pattern (`matcher.rs`): the
//!   pattern is renamed onto dense variables, every pattern atom must be
//!   matched, and bindings respect `injective_vars` and `const_only`;
//! * **search a moved closure** (here): the pattern is the target
//!   itself, only the atoms dragged in by moved variables must be
//!   matched, and bindings respect a movable set, fixpoint pins and a
//!   forbidden image. This is the fold probe behind `core_of`,
//!   `is_core`, the frugal chase's `fold_variables` and the pivot
//!   certificate below.
//!
//! Incremental core maintenance re-cores an instance that was a core
//! before a batch of atoms was inserted, without re-probing every
//! variable. It is the core chase's only maintainer; its reference, in
//! tests and in experiment E7, is the from-scratch [`crate::core_of`]
//! after every step.
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

use std::cell::Cell;
use std::collections::BTreeSet;

use chase_atoms::{Atom, AtomId, AtomSet, IdBits, PredId, Substitution, Term, VarId};

use crate::budget::{MatchStats, SearchBudget, SearchOutcome};
use crate::core_impl::fold_variables;
use crate::matcher::Compiled;

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

/// A front end: what the search maps, and the constraints a new binding
/// must meet.
pub(crate) enum Front<'a> {
    /// Homomorphisms of a fixed `pattern` (renamed by the matcher):
    /// variables of `const_only` (original ids) map to constants, and
    /// with `injective`, variables map to distinct variables.
    Match {
        pattern: &'a Compiled,
        injective: bool,
        const_only: &'a BTreeSet<VarId>,
    },
    /// Retractions of the target that move only variables of `movable`
    /// (`None`: any variable), pin every image as a fixpoint and never
    /// bind to `forbidden` (the variable a probe eliminates).
    Fold {
        movable: Option<&'a [VarId]>,
        forbidden: Option<Term>,
    },
}

/// The homomorphism search kernel, shared by both front ends.
///
/// ## The moved closure
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
/// point of maintaining the core incrementally. A match drags in the
/// star of every bound variable; the pattern atoms no binding has
/// reached yet wait in a queue ranked once, by their constants alone.
///
/// ## Per-node work
///
/// A node pays for what its binding adds, not for the whole pattern:
///
/// * the **dragged-in frontier** lists each atom containing a bound
///   (in a fold: moved) variable once — a variable's star is appended
///   when it is bound;
/// * the atom a node matched is marked **done**, and so is, in a fold,
///   any frontier atom whose image is fully determined and present; done
///   atoms are skipped for the rest of the branch, and a done prefix of
///   the frontier is not scanned at all;
/// * each atom's candidate count is memoised until one of its positions
///   becomes determined;
/// * bindings live in a dense table indexed by [`VarId::raw`];
/// * all of these are undone by popping one trail back to the [`Mark`]
///   taken when a node was entered.
///
/// The pending atom is the one with the fewest candidates, tried in
/// ascending `AtomId` order. In a fold, ties go to the smallest key
/// *(smallest moved variable in the atom, `AtomId`)*, which is the order
/// in which a scan over the movers' stars meets the atoms; in a match,
/// to the smallest `AtomId`, which is pattern order. The depth-first
/// search runs on an explicit frame stack, so deep patterns never grow
/// the thread's stack.
pub(crate) struct Kernel<'a> {
    target: &'a AtomSet,
    budget: &'a SearchBudget,
    front: Front<'a>,
    b: Buffers,
    /// Trials so far, and whether the budget cut the search short.
    pub(crate) outcome: SearchOutcome,
}

thread_local! {
    /// The buffers of the last kernel dropped on this thread, clean: a
    /// chase runs thousands of small matches, and reusing them spares
    /// each one its allocations.
    static POOL: Cell<Buffers> = Cell::default();
}

/// The kernel's search state, all of it undone on backtracking.
#[derive(Default)]
struct Buffers {
    /// Partial assignment, indexed by [`VarId::raw`].
    bind: Vec<Option<Term>>,
    /// Per-atom state, indexed by `AtomId::raw`.
    atoms: Vec<AtomState>,
    /// What to undo, newest last.
    trail: Vec<Undo>,
    /// Atoms containing a bound variable, in the order they were dragged
    /// in, and the index before which every one is done.
    frontier: Vec<AtomId>,
    live: usize,
    /// Pattern atoms no binding has reached, by (count, `AtomId`), and
    /// the index of the first one that may still be untouched.
    untouched: Vec<(u32, AtomId)>,
    next_untouched: usize,
    /// The open nodes of the depth-first search, root first.
    frames: Vec<Frame>,
    /// Candidate buffers of popped frames, reused by the next push.
    spare: Vec<Vec<AtomId>>,
    /// Determined `(position, image)` pairs of the atom being ranked.
    positions: Vec<(usize, Term)>,
    /// Scratch bitset for positional-posting intersection
    /// ([`AtomSet::matching_ids`] leaves it clean).
    scratch: IdBits,
    /// Id buffer for candidate counts that need an intersection.
    count_buf: Vec<AtomId>,
    /// The images taken by injective bindings.
    used: BTreeSet<Term>,
}

/// The search state of one atom.
#[derive(Clone, Copy, Default)]
struct AtomState {
    /// On the frontier.
    dragged: bool,
    /// Matched or confirmed on this branch.
    done: bool,
    /// Candidate count with the number of determined positions it was
    /// computed at. Determined positions only accumulate along a branch,
    /// so an unchanged number means an unchanged count.
    count: Option<(u32, u32)>,
}

/// One change to undo on backtracking.
#[derive(Clone, Copy)]
enum Undo {
    Bind(VarId),
    /// An image taken by an injective binding.
    Image(Term),
    Done(AtomId),
    Count(AtomId, Option<(u32, u32)>),
}

/// Trail lengths and cursors to rewind to: the search state on entry to
/// a node.
#[derive(Clone, Copy, Default)]
struct Mark {
    trail: usize,
    frontier: usize,
    live: usize,
    next_untouched: usize,
}

/// One open node: the pending atom, its candidate images and the next
/// one to try.
struct Frame {
    pending: AtomId,
    cands: Vec<AtomId>,
    next: usize,
    mark: Mark,
}

impl<'a> Kernel<'a> {
    /// A search driven by `front` into `target`, over pattern atoms with
    /// ids below `atoms`.
    pub(crate) fn new(
        target: &'a AtomSet,
        budget: &'a SearchBudget,
        front: Front<'a>,
        atoms: usize,
    ) -> Self {
        let mut b = POOL.take();
        b.atoms.truncate(atoms);
        b.atoms.resize(atoms, AtomState::default());
        Kernel {
            target,
            budget,
            front,
            b,
            outcome: SearchOutcome::default(),
        }
    }

    /// A fold prober over `instance` whose retractions move only
    /// variables of `movable` (`None`: any variable).
    pub(crate) fn fold(
        instance: &'a AtomSet,
        budget: &'a SearchBudget,
        movable: Option<&'a [VarId]>,
    ) -> Self {
        let forbidden = None;
        let front = Front::Fold { movable, forbidden };
        Kernel::new(instance, budget, front, instance.arena_len())
    }

    fn mark(&self) -> Mark {
        Mark {
            trail: self.b.trail.len(),
            frontier: self.b.frontier.len(),
            live: self.b.live,
            next_untouched: self.b.next_untouched,
        }
    }

    /// Empties the search state.
    fn reset(&mut self) {
        self.rewind(Mark::default());
        let frames = self.b.frames.drain(..);
        self.b.spare.extend(frames.map(|frame| frame.cands));
        self.b.untouched.clear();
    }

    /// The current bindings of the pattern's variables.
    pub(crate) fn bindings(&self) -> impl Iterator<Item = (VarId, Term)> + '_ {
        self.b.trail.iter().filter_map(|u| match *u {
            Undo::Bind(v) => Some((v, self.image(Term::Var(v))?)),
            _ => None,
        })
    }

    fn rewind(&mut self, to: Mark) {
        for undo in self.b.trail.drain(to.trail..).rev() {
            match undo {
                Undo::Bind(v) => self.b.bind[v.raw() as usize] = None,
                Undo::Image(t) => _ = self.b.used.remove(&t),
                Undo::Done(id) => self.b.atoms[id.raw() as usize].done = false,
                Undo::Count(id, old) => self.b.atoms[id.raw() as usize].count = old,
            }
        }
        for id in self.b.frontier.drain(to.frontier..) {
            self.b.atoms[id.raw() as usize].dragged = false;
        }
        self.b.live = to.live;
        self.b.next_untouched = to.next_untouched;
    }

    pub(crate) fn image(&self, t: Term) -> Option<Term> {
        match t {
            Term::Const(_) => Some(t),
            Term::Var(v) => self.b.bind.get(v.raw() as usize).copied().flatten(),
        }
    }

    /// The predicate and arguments of pattern atom `id`.
    fn atom(&self, id: AtomId) -> (PredId, &'a [Term]) {
        match self.front {
            Front::Match { pattern, .. } => pattern.atom(id),
            Front::Fold { .. } => {
                let atom = self.target.get(id).expect("pattern ids are live");
                (atom.pred(), atom.args())
            }
        }
    }

    /// Adds an atom to the frontier unless it is there already.
    fn drag(&mut self, id: AtomId) {
        let state = &mut self.b.atoms[id.raw() as usize];
        if !state.dragged {
            state.dragged = true;
            self.b.frontier.push(id);
        }
    }

    fn mark_done(&mut self, id: AtomId) {
        self.b.atoms[id.raw() as usize].done = true;
        self.b.trail.push(Undo::Done(id));
    }

    /// Binds `v ↦ t` under the front end's constraints, dragging in `v`'s
    /// star. In a fold, a variable image is pinned as a fixpoint, and a
    /// pinned variable drags nothing in: its atoms ride on movers.
    pub(crate) fn try_bind(&mut self, v: VarId, t: Term) -> bool {
        let slot = v.raw() as usize;
        if slot >= self.b.bind.len() {
            self.b.bind.resize(slot + 1, None);
        }
        if let Some(existing) = self.b.bind[slot] {
            return existing == t;
        }
        let moves = match self.front {
            Front::Match {
                pattern,
                injective,
                const_only,
            } => {
                if t.is_var() && const_only.contains(&pattern.vars[slot]) {
                    return false;
                }
                // Injectivity covers identity bindings too: `u ↦ u`
                // after `w ↦ u` would give `u` two preimages.
                if injective {
                    if !t.is_var() || !self.b.used.insert(t) {
                        return false;
                    }
                    self.b.trail.push(Undo::Image(t));
                }
                true
            }
            Front::Fold { movable, forbidden } => {
                if Some(t) == forbidden {
                    return false; // x may not occur in the image
                }
                if t != Term::Var(v) && movable.is_some_and(|m| !m.contains(&v)) {
                    return false; // a fixed variable may only map to itself
                }
                t != Term::Var(v)
            }
        };
        self.b.bind[slot] = Some(t);
        self.b.trail.push(Undo::Bind(v));
        if !moves {
            return true;
        }
        match self.front {
            Front::Match { pattern, .. } => pattern.star(v).for_each(|id| self.drag(id)),
            Front::Fold { .. } => {
                let target = self.target;
                target
                    .ids_with_term(Term::Var(v))
                    .for_each(|id| self.drag(id));
                if let Term::Var(u) = t {
                    return self.try_bind(u, t);
                }
            }
        }
        true
    }

    /// Fully binds `beta ↦ gamma` positionally.
    fn unify(&mut self, beta: &[Term], gamma: &Atom) -> bool {
        beta.iter().zip(gamma.args()).all(|(&b, &g)| match b {
            Term::Const(_) => b == g,
            Term::Var(v) => self.try_bind(v, g),
        })
    }

    /// Fills the positions buffer with `beta`'s determined positions;
    /// returns whether every position is determined.
    fn determine(&mut self, beta: &[Term]) -> bool {
        self.b.positions.clear();
        for (pos, &t) in beta.iter().enumerate() {
            if let Some(img) = self.image(t) {
                self.b.positions.push((pos, img));
            }
        }
        self.b.positions.len() == beta.len()
    }

    /// The exact candidate images of `beta` under the current binding:
    /// the intersection of the target's positional postings over its
    /// determined positions, in ascending `AtomId` order.
    fn candidates(&mut self, (pred, beta): (PredId, &[Term]), out: &mut Vec<AtomId>) {
        self.determine(beta);
        self.target.matching_ids(
            pred,
            beta.len(),
            &self.b.positions,
            &mut self.b.scratch,
            out,
        );
    }

    /// Exact candidate count for `beta` once [`Kernel::determine`] has
    /// run, without materialising the list when ≤ 1 position is
    /// determined. For a fully determined atom it is 1 if its image is
    /// present and 0 otherwise.
    fn count_matches(&mut self, pred: PredId, arity: usize) -> u32 {
        let count = if self.b.positions.len() >= 2 {
            self.target.matching_ids(
                pred,
                arity,
                &self.b.positions,
                &mut self.b.scratch,
                &mut self.b.count_buf,
            );
            self.b.count_buf.len()
        } else {
            self.target.matching_count(pred, arity, &self.b.positions)
        };
        count as u32
    }

    /// [`Kernel::count_matches`] through the per-atom memo: no position
    /// determined since the last count means the same count.
    fn candidate_count(&mut self, id: AtomId, pred: PredId, arity: usize) -> u32 {
        let determined = self.b.positions.len() as u32;
        let old = self.b.atoms[id.raw() as usize].count;
        if let Some((at, count)) = old {
            if at == determined {
                return count;
            }
        }
        let count = self.count_matches(pred, arity);
        self.b.trail.push(Undo::Count(id, old));
        self.b.atoms[id.raw() as usize].count = Some((determined, count));
        count
    }

    /// The middle key of the pending-atom order: in a fold, the smallest
    /// moved variable of a frontier atom; in a match, nothing.
    fn tie(&self, beta: &[Term]) -> VarId {
        match self.front {
            Front::Match { .. } => VarId::from_raw(0),
            Front::Fold { .. } => beta
                .iter()
                .filter_map(|t| t.as_var())
                .filter(|&v| self.image(Term::Var(v)).is_some_and(|t| t != Term::Var(v)))
                .min()
                .expect("frontier atoms contain a moved variable"),
        }
    }

    /// Puts the ground pattern atoms on the frontier, so the root
    /// resolves every determined atom by lookup, and queues the atoms no
    /// binding has reached yet, ranked by the candidate count their
    /// constants allow.
    pub(crate) fn queue_untouched(&mut self) {
        for raw in 0..self.b.atoms.len() as u32 {
            let id = AtomId::from_raw(raw);
            let (pred, beta) = self.atom(id);
            if beta.iter().all(|t| t.is_const()) {
                self.drag(id);
            } else if !self.b.atoms[raw as usize].dragged {
                self.determine(beta);
                let count = self.count_matches(pred, beta.len());
                self.b.untouched.push((count, id));
            }
        }
        self.b.untouched.sort_unstable();
    }

    /// Picks the atom to extend the search through next — the smallest
    /// key *(candidate count, tie, `AtomId`)*. With `confirm`, fully
    /// determined frontier atoms are checked and marked done instead of
    /// ranked (each then costs no trial). `Err(())` signals a dead branch
    /// (an atom with no candidate); `Ok(None)` a complete search.
    fn select_pending(&mut self, confirm: bool) -> Result<Option<AtomId>, ()> {
        let mut best: Option<(u32, VarId, AtomId)> = None;
        for i in self.b.live..self.b.frontier.len() {
            let id = self.b.frontier[i];
            if self.b.atoms[id.raw() as usize].done {
                // Skip a done prefix from the next scan on.
                self.b.live += usize::from(i == self.b.live);
                continue;
            }
            let (pred, beta) = self.atom(id);
            if self.determine(beta) && confirm {
                let image: Box<[Term]> = self.b.positions.iter().map(|&(_, t)| t).collect();
                if !self.target.contains(&Atom::new(pred, image)) {
                    return Err(()); // its image is missing
                }
                self.mark_done(id);
                continue;
            }
            let est = self.candidate_count(id, pred, beta.len());
            if est == 0 {
                return Err(());
            }
            let key = (est, self.tie(beta), id);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        while let Some(&(count, id)) = self.b.untouched.get(self.b.next_untouched) {
            if self.b.atoms[id.raw() as usize].dragged {
                self.b.next_untouched += 1;
                continue;
            }
            // A count of 0 ranks first and opens a frame with nothing to try.
            let key = (count, VarId::from_raw(0), id);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
            break;
        }
        Ok(best.map(|(_, _, id)| id))
    }

    /// Opens a frame on `pending`, whose candidates are `image` alone or,
    /// when `None`, every atom it matches under the current binding.
    fn push(&mut self, pending: AtomId, image: Option<AtomId>) {
        let mut cands = self.b.spare.pop().unwrap_or_default();
        cands.clear();
        cands.extend(image);
        if image.is_none() {
            self.candidates(self.atom(pending), &mut cands);
        }
        let mark = self.mark();
        self.b.frames.push(Frame {
            pending,
            cands,
            next: 0,
            mark,
        });
    }

    /// Selects the next pending atom and opens its frame. Returns `true`
    /// when nothing is pending: the search is complete.
    pub(crate) fn descend(&mut self, confirm: bool) -> bool {
        match self.select_pending(confirm) {
            Err(()) => false,
            Ok(None) => true,
            Ok(Some(id)) => {
                self.push(id, None);
                false
            }
        }
    }

    /// Depth-first completion of the open frames. Returns `true` with a
    /// complete binding — call again for the next one — or `false` when
    /// the tree is exhausted or the budget cut it (`truncated`).
    pub(crate) fn solve(&mut self) -> bool {
        let confirm = matches!(self.front, Front::Fold { .. });
        while let Some(frame) = self.b.frames.last_mut() {
            let (pending, mark) = (frame.pending, frame.mark);
            let Some(&cand) = frame.cands.get(frame.next) else {
                let exhausted = self.b.frames.pop().expect("non-empty stack");
                self.b.spare.push(exhausted.cands);
                continue;
            };
            frame.next += 1;
            // Undo the previous candidate of this node.
            self.rewind(mark);
            self.outcome.nodes += 1;
            if self.budget.exhausted_at(self.outcome.nodes) {
                self.outcome.truncated = true;
                return false;
            }
            let gamma = self
                .target
                .get(cand)
                .expect("matching_ids returned dead id");
            if self.unify(self.atom(pending).1, gamma) {
                self.mark_done(pending);
                if self.descend(confirm) {
                    return true;
                }
            }
        }
        false
    }

    /// Probes whether `x` can be folded away: a retraction of the
    /// instance whose image avoids `x`, searched over the moved closure
    /// of `x` only. A truncated miss is inconclusive.
    pub(crate) fn probe(&mut self, x: VarId) -> (Option<Substitution>, SearchOutcome) {
        let instance = self.target;
        // Root the search at the most constrained atom containing x.
        let Some(root) = instance.ids_with_term(Term::Var(x)).min_by_key(|&id| {
            let beta = instance.get(id).expect("posted ids are live");
            instance.matching_count(beta.pred(), beta.arity(), &[])
        }) else {
            return (None, SearchOutcome::default());
        };
        self.search(Some(Term::Var(x)), root, None)
    }

    /// Runs one fold search from a root frame on `root`, whose candidates
    /// are `image` alone or, when `None`, every atom it matches. With
    /// `image` the root is a pivot `(β, α)` of the certificate: no
    /// variable has to vanish, but one of `β` moves whenever `α ≠ β`.
    /// Returns a retraction, if one is found, and the search's outcome.
    fn search(
        &mut self,
        forbidden: Option<Term>,
        root: AtomId,
        image: Option<AtomId>,
    ) -> (Option<Substitution>, SearchOutcome) {
        if self.budget.interrupted() {
            return (None, SearchOutcome::interrupted());
        }
        self.reset();
        if let Front::Fold { forbidden: f, .. } = &mut self.front {
            *f = forbidden;
        }
        self.outcome = SearchOutcome::default();
        // Root candidates through the positional index: the empty bind
        // still pins the root's constant positions, so this is already
        // narrower than a predicate scan. In a probe of x, unifying the
        // root with a candidate binds x; a candidate keeping x in place
        // is rejected by try_bind.
        self.push(root, image);
        let retraction = self
            .solve()
            .then(|| Substitution::from_pairs(self.bindings()).normalized());
        (retraction, self.outcome)
    }
}

impl Drop for Kernel<'_> {
    /// Returns the buffers to the pool, clean (unless the thread is
    /// exiting and its pool is gone).
    fn drop(&mut self) {
        self.reset();
        _ = POOL.try_with(|pool| pool.set(std::mem::take(&mut self.b)));
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
    let mut search = Kernel::fold(instance, budget, None);
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
            let (retraction, outcome) = search.search(None, beta_id, Some(alpha_id));
            stats.nodes += outcome.nodes;
            stats.truncated |= outcome.truncated;
            if retraction.is_some() || outcome.truncated {
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
