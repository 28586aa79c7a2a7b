//! Retraction search and core computation.
//!
//! A finite atomset `A` is a **core** if its only retraction is the
//! identity. Every finite atomset has a retract that is a core, unique up
//! to isomorphism (the paper, Section 2). We compute it by repeatedly
//! *folding away* single variables: a variable `x` can be folded iff some
//! retraction of `A` avoids `x` (see the crate docs for why restricting the
//! search to retractions is complete).

use std::ops::ControlFlow;

use chase_atoms::{AtomSet, Substitution, Term, VarId};

use crate::budget::{MatchStats, SearchBudget, SearchOutcome};
use crate::matcher::{for_each_homomorphism_budgeted, MatchConfig};

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

/// The result of one budgeted fold probe: a witnessing retraction if one
/// was found, plus the search outcome. A probe with `retraction == None`
/// and `outcome.truncated == true` is **inconclusive** — the variable may
/// or may not be eliminable.
#[derive(Clone, Debug)]
pub struct FoldProbe {
    /// A retraction of the probed atomset avoiding the probed variable.
    pub retraction: Option<Substitution>,
    /// Work done and whether the budget cut the search short.
    pub outcome: SearchOutcome,
}

/// Searches for a retraction of `a` whose image avoids the variable `x`.
///
/// Returns `None` iff *no endomorphism* of `a` avoids `x` (not merely no
/// retraction — see the completeness argument in the crate docs).
pub fn find_retraction_eliminating(a: &AtomSet, x: VarId) -> Option<Substitution> {
    find_retraction_eliminating_budgeted(a, x, &SearchBudget::default()).retraction
}

/// [`find_retraction_eliminating`] under a [`SearchBudget`]: the deadline
/// and cancel flags are polled inside the backtracking loop, so a single
/// expensive probe stops within a poll interval of the budget.
pub fn find_retraction_eliminating_budgeted(
    a: &AtomSet,
    x: VarId,
    budget: &SearchBudget,
) -> FoldProbe {
    find_retraction_eliminating_frozen_budgeted(a, x, [], budget)
}

/// Like [`find_retraction_eliminating`], but every variable in `frozen`
/// is pinned to itself — only the remaining variables may move.
///
/// This is the simplification step of the *frugal* chase (Konstantinidis
/// & Ambite, PVLDB 2014; the paper's [15]): after a rule application only
/// the freshly minted nulls are candidates for folding, so the engine
/// never pays for a full core computation.
pub fn find_retraction_eliminating_frozen(
    a: &AtomSet,
    x: VarId,
    frozen: impl IntoIterator<Item = VarId>,
) -> Option<Substitution> {
    find_retraction_eliminating_frozen_budgeted(a, x, frozen, &SearchBudget::default()).retraction
}

/// [`find_retraction_eliminating_frozen`] under a [`SearchBudget`].
pub fn find_retraction_eliminating_frozen_budgeted(
    a: &AtomSet,
    x: VarId,
    frozen: impl IntoIterator<Item = VarId>,
    budget: &SearchBudget,
) -> FoldProbe {
    if !a.mentions(Term::Var(x)) {
        return FoldProbe {
            retraction: None,
            outcome: SearchOutcome::default(),
        };
    }
    let seed = Substitution::from_pairs(
        frozen
            .into_iter()
            .filter(|&v| v != x)
            .map(|v| (v, Term::Var(v))),
    );
    let cfg = MatchConfig {
        retraction: true,
        forbidden_images: [Term::Var(x)].into_iter().collect(),
        must_move: [x].into_iter().collect(),
        ..MatchConfig::default()
    };
    let mut found = None;
    let outcome = for_each_homomorphism_budgeted(a, a, &seed, &cfg, budget, |sub| {
        found = Some(sub.normalized());
        ControlFlow::Break(())
    });
    FoldProbe {
        retraction: found,
        outcome,
    }
}

/// Finds a proper (non-identity) retraction of `a`, if one exists.
///
/// Any proper retraction moves at least one variable out of the image, so
/// it suffices to try to eliminate each variable in turn.
pub fn find_proper_retraction(a: &AtomSet) -> Option<Substitution> {
    for x in a.vars() {
        if let Some(r) = find_retraction_eliminating(a, x) {
            return Some(r);
        }
    }
    None
}

/// Is `a` a core (its only retraction is the identity)?
pub fn is_core(a: &AtomSet) -> bool {
    find_proper_retraction(a).is_none()
}

/// Computes the core of `a` and a witnessing retraction.
///
/// Strategy: repeatedly fold single variables until none can be
/// eliminated. Each successful fold applies a retraction and composes it
/// into the running total; because retractions compose (and the image only
/// shrinks), the total is itself a retraction of the original input.
pub fn core_of(a: &AtomSet) -> CoreResult {
    let (res, _) = core_of_budgeted(a, &SearchBudget::default());
    res
}

/// [`core_of`] under a [`SearchBudget`]: the budget is polled between
/// folds *and* inside each retraction search. When it trips, the
/// computation stops early and returns the (sound but possibly non-core)
/// retract reached so far, with `truncated` set in the stats.
pub fn core_of_budgeted(a: &AtomSet, budget: &SearchBudget) -> (CoreResult, MatchStats) {
    let mut current = a.clone();
    let mut total = Substitution::new();
    let mut agg = MatchStats::default();
    'fold: loop {
        let mut progress = false;
        // Snapshot the variable set; folds may remove several at once.
        let vars: Vec<VarId> = current.vars().into_iter().collect();
        for x in vars {
            if agg.truncated || budget.interrupted() {
                agg.truncated = true;
                break 'fold;
            }
            if !current.mentions(Term::Var(x)) {
                continue; // already folded away by an earlier retraction
            }
            let probe = find_retraction_eliminating_budgeted(&current, x, budget);
            agg.absorb(probe.outcome);
            if let Some(r) = probe.retraction {
                current.apply_in_place(&r);
                total = total.then(&r);
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    debug_assert!(total.is_retraction_of(a));
    debug_assert_eq!(total.apply_set(a), current);
    (
        CoreResult {
            core: current,
            retraction: total,
        },
        agg,
    )
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

    #[test]
    fn frozen_retraction_only_moves_unfrozen_vars() {
        // {r(0,1), r(0,2)}: 1 and 2 are interchangeable. Freezing 1 and 0
        // still lets 2 fold onto 1; freezing 2 and 0 lets 1 fold onto 2.
        let a = set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(0), v(2)])]);
        let fold2 = find_retraction_eliminating_frozen(&a, vid(2), [vid(0), vid(1)])
            .expect("2 folds onto 1");
        assert_eq!(fold2.get(vid(2)), Some(v(1)));
        assert!(fold2.is_retraction_of(&a));

        // Freezing everything except 0 blocks folding 1.
        assert!(
            find_retraction_eliminating_frozen(&a, vid(1), [vid(0)]).is_some(),
            "1 can fold onto 2 when 2 is free"
        );
        // But 1 cannot fold if its only fold target is itself... freeze 2:
        // 1 must map to 2 — allowed, since only frozen vars are pinned.
        let fold1 = find_retraction_eliminating_frozen(&a, vid(1), [vid(0), vid(2)])
            .expect("1 folds onto the frozen-but-stationary 2");
        assert_eq!(fold1.get(vid(1)), Some(v(2)));
    }

    #[test]
    fn frozen_retraction_respects_impossible_cases() {
        // Path r(0,1), r(1,2): a core; nothing folds, frozen or not.
        let a = set(&[atom(0, &[v(0), v(1)]), atom(0, &[v(1), v(2)])]);
        for x in [0u32, 1, 2] {
            assert!(find_retraction_eliminating_frozen(&a, vid(x), []).is_none());
        }
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
