//! Integration tests for the robust aggregation machinery across crates:
//! the Section 8 worked example end-to-end, custom rank orders, and the
//! comparison between natural and robust aggregation.

use treechase::engine::aggregation::natural_aggregation;
use treechase::engine::robust::{robust_renaming, RobustSequence};
use treechase::kbs::Staircase;
use treechase::prelude::*;

/// The Section 8 worked example: along the staircase core chase the
/// robust renaming keeps per-height names stable, so the robust
/// aggregation converges to the infinite column while the natural
/// aggregation reconstructs the grid-laden I^h.
#[test]
fn staircase_natural_vs_robust_aggregation() {
    let mut s = Staircase::new();
    let steps = 4;
    let d = s.scripted_core_chase(steps);

    let natural = natural_aggregation(&d);
    let lab = s.grid_labeling(1);
    assert!(
        contains_grid(&natural, &lab),
        "natural aggregation contains grids"
    );

    let rs = RobustSequence::build(&d);
    let robust = rs.aggregation_prefix(2 * (steps as usize - 1) + 3);
    assert_eq!(treewidth(&robust), 1, "robust aggregation is a column");
    assert!(
        treewidth_bounds(&natural).upper >= 2,
        "natural aggregation exceeds the chase bound"
    );
    // Both are universal *for CQ answering* (Prop 1.3 / Prop 9): any CQ
    // mapping into the robust prefix maps into the natural aggregation.
    assert!(maps_to(&robust, &natural));
}

/// The per-height stable names of the worked example: after the first
/// fold the bottom variable keeps the original `X0_0` name.
#[test]
fn first_fold_preserves_oldest_names() {
    let mut s = Staircase::new();
    let d = s.scripted_core_chase(1);
    let rs = RobustSequence::build(&d);
    let g_last = rs.sets.last().unwrap();
    // G_last ≅ C_1 and its bottom variable must be the original X0_0 (the
    // rank-smallest name ever used at height 0).
    let x00 = s.x(0, 0);
    assert!(
        g_last.mentions(x00),
        "stable name X0_0 must survive the fold; G = {g_last:?}"
    );
}

/// A custom (reversed) rank changes which names survive folds.
#[test]
fn custom_rank_reverses_survivors() {
    let mut s = Staircase::new();
    let d = s.scripted_core_chase(1);
    let newest_first = |v: VarId| u64::MAX - u64::from(v.raw());
    let rs = RobustSequence::build_with_rank(&d, &newest_first);
    assert_eq!(rs.verify_invariants(&d), Ok(()));
    let g_last = rs.sets.last().unwrap();
    let x00 = s.x(0, 0);
    // Under newest-first rank the old name is *not* kept.
    assert!(!g_last.mentions(x00));
}

/// Robust renaming on a hand-made retraction agrees with Definition 14.
#[test]
fn renaming_matches_definition_14() {
    let mut vocab = Vocabulary::new();
    let r = vocab.pred("r", 2);
    let v0 = Term::Var(vocab.fresh_var());
    let v1 = Term::Var(vocab.fresh_var());
    let v2 = Term::Var(vocab.fresh_var());
    let a: AtomSet = [
        Atom::new(r, vec![v0, v2]),
        Atom::new(r, vec![v1, v2]),
        Atom::new(r, vec![v2, v2]),
    ]
    .into_iter()
    .collect();
    // σ folds v0 and v1 onto v2.
    let sigma = Substitution::from_pairs([(v0.as_var().unwrap(), v2), (v1.as_var().unwrap(), v2)]);
    assert!(sigma.is_retraction_of(&a));
    let rho = robust_renaming(&a, &sigma, &treechase::engine::robust::default_rank);
    // σ⁻¹(v2) = {v0, v1, v2}; rank-min is v0.
    assert_eq!(rho.apply_term(v2), v0);
}

/// Robust aggregation of a *monotonic* derivation equals its natural
/// aggregation horizon (no folds ⇒ nothing transient).
#[test]
fn monotonic_robust_equals_natural() {
    let mut s = Staircase::new();
    let d = s.scripted_restricted_chase(3);
    let rs = RobustSequence::build(&d);
    assert_eq!(rs.len(), d.len());
    d.replay(|e| assert_eq!(&rs.sets[e.index], e.instance));
    assert_eq!(rs.aggregation_prefix(0), natural_aggregation(&d));
}
