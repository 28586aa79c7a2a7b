//! Retraction search and core computation.
//!
//! A finite atomset `A` is a **core** if its only retraction is the
//! identity. Every finite atomset has a retract that is a core, unique up
//! to isomorphism (the paper, Section 2). We compute it by repeatedly
//! *folding away* single variables: a variable `x` can be folded iff some
//! retraction of `A` avoids `x` (see the crate docs for why restricting the
//! search to retractions is complete).

use chase_atoms::{AtomSet, Substitution, Term, VarId};

use crate::budget::{MatchStats, SearchBudget};
use crate::incremental::Kernel;

/// The result of [`core_of`]: the core together with the retraction that
/// witnesses it.
#[derive(Clone, Debug)]
pub struct CoreResult {
    /// The core retract of the input atomset.
    pub core: AtomSet,
    /// A retraction `σ` of the input with `σ(input) = core` and `σ`
    /// restricted to `terms(core)` the identity.
    pub retraction: Substitution,
}

/// Searches for a retraction of `a` whose image avoids the variable `x`.
///
/// Returns `None` iff *no endomorphism* of `a` avoids `x` (not merely no
/// retraction — see the completeness argument in the crate docs).
pub fn find_retraction_eliminating(a: &AtomSet, x: VarId) -> Option<Substitution> {
    Kernel::fold(a, &SearchBudget::default(), None).probe(x).0
}

/// Folds away, in order, each of `candidates` that some retraction of
/// `instance` moving only variables of `movable` (`None`: any variable)
/// eliminates, retracting `instance` in place. Returns the composed
/// retraction and the probes' counters.
///
/// A fold moves only variables of the instance it retracts, and a moved
/// variable leaves the instance, so successive folds have disjoint
/// domains: their composition resolves each binding once, latest fold
/// first, instead of rebuilding the running total per fold.
///
/// One pass suffices: eliminability only shrinks under retraction (see
/// the `incremental` module docs), so a candidate whose probe failed
/// conclusively never folds later. The budget is polled between probes
/// and inside each. A probe cut by the node limit leaves its candidate
/// unresolved and the pass goes on; an expired deadline or a cancel ends
/// the pass. Either way `truncated` is set and the result is a sound
/// retract, possibly not a core.
///
/// With `candidates` and `movable` the nulls minted by one rule
/// application, this is the simplification step of the *frugal* chase
/// (Konstantinidis & Ambite, PVLDB 2014; the paper's \[15\]): every
/// older variable stays fixed, so the engine never pays for a full core
/// computation.
pub fn fold_variables(
    instance: &mut AtomSet,
    candidates: impl IntoIterator<Item = VarId>,
    movable: Option<&[VarId]>,
    budget: &SearchBudget,
) -> (Substitution, MatchStats) {
    let mut folds = Vec::new();
    let mut stats = MatchStats::default();
    let mut candidates = candidates.into_iter();
    while let Some(r) = next_fold(instance, &mut candidates, movable, budget, &mut stats) {
        instance.apply_in_place(&r);
        folds.push(r);
    }
    let mut total = Substitution::new();
    for (v, t) in folds.iter().rev().flat_map(Substitution::iter) {
        total.bind(v, t.as_var().and_then(|u| total.get(u)).unwrap_or(t));
    }
    (total, stats)
}

/// Probes `candidates` in order until one folds, on one prober: the
/// instance does not change between misses.
fn next_fold(
    instance: &AtomSet,
    candidates: &mut impl Iterator<Item = VarId>,
    movable: Option<&[VarId]>,
    budget: &SearchBudget,
    stats: &mut MatchStats,
) -> Option<Substitution> {
    let mut search = Kernel::fold(instance, budget, movable);
    for x in candidates {
        if budget.interrupted() {
            stats.truncated = true;
            return None;
        }
        if !instance.mentions(Term::Var(x)) {
            continue; // already folded away by an earlier retraction
        }
        let (retraction, outcome) = search.probe(x);
        stats.absorb(outcome);
        if retraction.is_some() {
            return retraction;
        }
    }
    None
}

/// Finds a proper (non-identity) retraction of `a`, if one exists.
///
/// Any proper retraction moves at least one variable out of the image, so
/// it suffices to try to eliminate each variable in turn.
pub fn find_proper_retraction(a: &AtomSet) -> Option<Substitution> {
    let budget = SearchBudget::default();
    let mut search = Kernel::fold(a, &budget, None);
    a.vars().into_iter().find_map(|x| search.probe(x).0)
}

/// Is `a` a core (its only retraction is the identity)?
pub fn is_core(a: &AtomSet) -> bool {
    find_proper_retraction(a).is_none()
}

/// Computes the core of `a` and a witnessing retraction.
///
/// Strategy: one [`fold_variables`] pass over the variables of `a`. Each
/// successful fold applies a retraction and composes it into the running
/// total; because retractions compose (and the image only shrinks), the
/// total is itself a retraction of the original input.
pub fn core_of(a: &AtomSet) -> CoreResult {
    let (res, _) = core_of_budgeted(a, &SearchBudget::default());
    res
}

/// [`core_of`] under a [`SearchBudget`]: the budget is polled between
/// folds *and* inside each retraction search. When it trips, the
/// computation stops early and returns the (sound but possibly non-core)
/// retract reached so far, with `truncated` set in the stats.
pub fn core_of_budgeted(a: &AtomSet, budget: &SearchBudget) -> (CoreResult, MatchStats) {
    let mut core = a.clone();
    let (retraction, stats) = fold_variables(&mut core, a.vars(), None, budget);
    debug_assert!(retraction.is_retraction_of(a));
    debug_assert_eq!(retraction.apply_set(a), core);
    debug_assert!(
        stats.truncated || is_core(&core),
        "one pass reaches the core"
    );
    (CoreResult { core, retraction }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iso::isomorphism;
    use chase_atoms::{Atom, ConstId, PredId};

    fn p(i: u32) -> PredId {
        PredId::from_raw(i)
    }

    fn v(i: u32) -> Term {
        Term::Var(VarId::from_raw(i))
    }

    fn vid(i: u32) -> VarId {
        VarId::from_raw(i)
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
    fn loop_with_pendant_edge_folds_to_loop() {
        // {r(0,1), r(1,1)} — core is {r(1,1)}.
        let a = set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(1)])]);
        let res = core_of(&a);
        assert_eq!(res.core, set(&[atom(0, &[v(1), v(1)])]));
        assert!(res.retraction.is_retraction_of(&a));
        assert!(is_core(&res.core));
        assert!(!is_core(&a));
    }

    #[test]
    fn long_path_into_loop_folds_entirely() {
        // path 0→1→2→3 plus loop on 3: core is the loop alone.
        let a = set(&[
            atom(0, &[v(0), v(1)]),
            atom(0, &[v(1), v(2)]),
            atom(0, &[v(2), v(3)]),
            atom(0, &[v(3), v(3)]),
        ]);
        let res = core_of(&a);
        assert_eq!(res.core, set(&[atom(0, &[v(3), v(3)])]));
    }

    #[test]
    fn ground_atoms_are_their_own_core() {
        let a = set(&[atom(0, &[c(0), c(1)]), atom(0, &[c(1), c(0)])]);
        let res = core_of(&a);
        assert_eq!(res.core, a);
        assert!(res.retraction.is_empty());
        assert!(is_core(&a));
    }

    #[test]
    fn directed_path_is_a_core() {
        // A directed 3-path with distinct variables has no proper
        // retraction (no loops, no shortcuts).
        let a = set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(2)])]);
        assert!(is_core(&a));
        let res = core_of(&a);
        assert_eq!(res.core, a);
    }

    #[test]
    fn parallel_redundant_paths_fold() {
        // Two parallel 2-paths from a to b (through vars 0 and 1) — one is
        // redundant; the core keeps exactly one middle vertex.
        let a = set(&[
            atom(0, &[c(0), v(0)]),
            atom(0, &[v(0), c(1)]),
            atom(0, &[c(0), v(1)]),
            atom(0, &[v(1), c(1)]),
        ]);
        let res = core_of(&a);
        assert_eq!(res.core.len(), 2);
        assert_eq!(res.core.vars().len(), 1);
        assert!(is_core(&res.core));
    }

    #[test]
    fn core_is_idempotent_up_to_iso() {
        let a = set(&[
            atom(0, &[v(0), v(1)]),
            atom(0, &[v(1), v(2)]),
            atom(0, &[v(2), v(2)]),
            atom(1, &[v(0)]),
        ]);
        let once = core_of(&a);
        let twice = core_of(&once.core);
        assert!(isomorphism(&once.core, &twice.core).is_some());
        assert_eq!(once.core, twice.core, "already-core input is unchanged");
    }

    #[test]
    fn cycle_pair_folds_to_single_cycle() {
        // Two disjoint directed 2-cycles over variables fold to one.
        let a = set(&[
            atom(0, &[v(0), v(1)]),
            atom(0, &[v(1), v(0)]),
            atom(0, &[v(2), v(3)]),
            atom(0, &[v(3), v(2)]),
        ]);
        let res = core_of(&a);
        assert_eq!(res.core.len(), 2);
        assert_eq!(res.core.vars().len(), 2);
    }

    #[test]
    fn odd_cycle_is_core() {
        // Directed 3-cycle (no loops): it is a core.
        let a = set(&[
            atom(0, &[v(0), v(1)]),
            atom(0, &[v(1), v(2)]),
            atom(0, &[v(2), v(0)]),
        ]);
        assert!(is_core(&a));
    }

    #[test]
    fn eliminating_unmentioned_variable_fails_fast() {
        let a = set(&[atom(0, &[v(0)])]);
        assert!(find_retraction_eliminating(&a, vid(99)).is_none());
    }

    #[test]
    fn constants_anchor_folding() {
        // {r(a, 0), r(a, a)}: 0 folds onto the constant a.
        let a = set(&[atom(0, &[c(0), v(0)]), atom(0, &[c(0), c(0)])]);
        let res = core_of(&a);
        assert_eq!(res.core, set(&[atom(0, &[c(0), c(0)])]));
        assert_eq!(res.retraction.get(vid(0)), Some(c(0)));
    }

    /// The frugal shape: fold `x` moving only `movable`.
    fn fold_within(a: &AtomSet, x: u32, movable: &[u32]) -> Substitution {
        let movable: Vec<VarId> = movable.iter().copied().map(vid).collect();
        let mut inst = a.clone();
        let (r, stats) = fold_variables(
            &mut inst,
            [vid(x)],
            Some(&movable),
            &SearchBudget::default(),
        );
        assert!(!stats.truncated);
        r
    }

    #[test]
    fn restricted_retraction_only_moves_movable_vars() {
        // {r(0,1), r(0,2)}: 1 and 2 are interchangeable. With 0 and 1
        // fixed, 2 still folds onto 1; with 0 and 2 fixed, 1 folds onto 2.
        let a = set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(0), v(2)])]);
        let fold2 = fold_within(&a, 2, &[2]);
        assert_eq!(fold2.get(vid(2)), Some(v(1)));
        assert!(fold2.is_retraction_of(&a));
        let fold1 = fold_within(&a, 1, &[1]);
        assert_eq!(fold1.get(vid(1)), Some(v(2)));
        // A variable outside the movable set never moves.
        assert!(fold_within(&a, 1, &[2]).is_empty());
        // {r(0,1), s(1), r(2,3), s(3), t(3)}: 1 folds onto 3 only if 0
        // moves to 2 along with it.
        let a = set(&[
            atom(0, &[v(0), v(1)]),
            atom(1, &[v(1)]),
            atom(0, &[v(2), v(3)]),
            atom(1, &[v(3)]),
            atom(2, &[v(3)]),
        ]);
        assert_eq!(fold_within(&a, 1, &[0, 1]).get(vid(0)), Some(v(2)));
        assert!(fold_within(&a, 1, &[1]).is_empty());
    }

    #[test]
    fn restricted_retraction_respects_impossible_cases() {
        // Path r(0,1), r(1,2): a core; nothing folds, restricted or not.
        let a = set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(2)])]);
        for x in [0u32, 1, 2] {
            assert!(fold_within(&a, x, &[0, 1, 2]).is_empty());
        }
        // {r(0,0)}: 0 can only map to itself.
        assert!(find_retraction_eliminating(&set(&[atom(0, &[v(0), v(0)])]), vid(0)).is_none());
    }

    #[test]
    fn retraction_witness_maps_input_onto_core() {
        let a = set(&[
            atom(0, &[v(0), v(1)]),
            atom(0, &[v(1), v(2)]),
            atom(0, &[v(2), v(2)]),
        ]);
        let res = core_of(&a);
        assert_eq!(res.retraction.apply_set(&a), res.core);
        assert!(res
            .retraction
            .is_identity_on(res.core.terms().into_iter().collect::<Vec<_>>()));
    }
}
