//! Cross-crate treewidth integration: exact vs heuristic agreement on
//! the paper's structures, pathwidth comparisons, and grid-based lower
//! bounds (Facts 1 and 2).

use treechase::engine::boundedness::treewidth_profile;
use treechase::kbs::grids::{best_grid_lower_bound, labeled_grid};
use treechase::kbs::{Elevator, Staircase};
use treechase::prelude::*;
use treechase::treewidth::{
    decomposition_from_order, exact_pathwidth, exact_treewidth, min_degree_decomposition,
    min_fill_decomposition, Graph,
};

/// The quadratic greedy elimination the crate's kernel replaced.
#[path = "../crates/treewidth/src/oracle.rs"]
mod oracle;

#[test]
fn staircase_structures_have_expected_widths() {
    let mut s = Staircase::new();
    for k in 1..=4 {
        assert_eq!(exact_treewidth(&s.step_rect(k)), 2, "tw(S_{k})");
        assert_eq!(exact_treewidth(&s.column(k)), 1, "tw(C_{k})");
    }
    let col = s.infinite_column_prefix(12);
    assert_eq!(exact_treewidth(&col), 1);
    assert_eq!(exact_pathwidth(&col), 1);
}

#[test]
fn elevator_spine_and_cabin_widths() {
    let mut e = Elevator::new();
    assert_eq!(exact_treewidth(&e.spine_prefix(8)), 1);
    // The cabin of size 3 contains a 2×2 grid: tw ≥ 2 certified both by
    // the grid and by the decomposition sandwich.
    let cabin = e.cabin(3);
    let b = treewidth_bounds(&cabin);
    assert!(b.lower >= 2 || contains_grid(&cabin, &e.cabin_grid_labeling(3)));
    assert!(b.upper >= 2);
}

#[test]
fn heuristics_agree_with_exact_on_small_structures() {
    let mut vocab = Vocabulary::new();
    for n in 2..=4usize {
        let (grid, _) = labeled_grid(&mut vocab, n);
        let exact = exact_treewidth(&grid);
        assert_eq!(exact, n);
        let d1 = min_degree_decomposition(&grid);
        let d2 = min_fill_decomposition(&grid);
        assert!(d1.validate(&grid).is_ok());
        assert!(d2.validate(&grid).is_ok());
        assert!(d1.width() >= exact && d2.width() >= exact);
        // Min-fill is exact on small grids.
        assert_eq!(d2.width(), exact, "min-fill on {n}×{n}");
    }
}

#[test]
fn grid_search_matches_known_content() {
    // The staircase prefix P_{2n} contains exactly the grids the paper's
    // proof constructs; the directional search must find (at least) side
    // n there.
    let mut s = Staircase::new();
    let n = 2u32;
    let prefix = s.universal_prefix(2 * n + 1);
    let h = s.vocab.lookup_pred("h").unwrap();
    let v = s.vocab.lookup_pred("v").unwrap();
    let found = best_grid_lower_bound(&prefix, 4, h, v).side;
    assert!(found >= n as usize, "found only {found}");
    // Fact 2 cross-check: the exact treewidth of the prefix is ≥ found.
    let b = treewidth_bounds(&prefix);
    assert!(b.upper >= found);
}

#[test]
fn fact1_monotonicity_on_chase_prefixes() {
    // tw(F_i) ≤ tw(D*) along a monotonic chase (Fact 1) — certified via
    // lower(F_i) ≤ upper(D*).
    let mut s = Staircase::new();
    let d = s.scripted_restricted_chase(3);
    let agg = treechase::engine::aggregation::natural_aggregation(&d);
    let agg_ub = treewidth_bounds(&agg).upper;
    d.replay(|e| assert!(treewidth_bounds(e.instance).lower <= agg_ub));
}

#[test]
fn pathwidth_dominates_treewidth_on_paper_structures() {
    let mut s = Staircase::new();
    for k in 1..=3 {
        let step = s.step_rect(k);
        assert!(exact_pathwidth(&step) >= exact_treewidth(&step));
    }
}

#[test]
fn decompositions_of_chase_elements_validate() {
    // Every certified bound in the experiments rests on validated
    // decompositions; spot-check on real chase elements.
    let kb = KnowledgeBase::elevator();
    let res = kb.chase(
        &ChaseConfig::variant(ChaseVariant::Core)
            .with_scheduler(SchedulerKind::DatalogFirst)
            .with_max_applications(30),
    );
    res.derivation.replay(|e| {
        let td = min_fill_decomposition(e.instance);
        assert!(td.validate(e.instance).is_ok());
    });
}

#[test]
fn gate_probe_profiles_match_the_quadratic_oracle() {
    // The admission gate's probes: 120 `DatalogFirst` applications of the
    // restricted and the core chase. Every bound must equal the one read
    // off the oracle's orders through materialised decompositions.
    for kb in [KnowledgeBase::staircase(), KnowledgeBase::elevator()] {
        for variant in [ChaseVariant::Restricted, ChaseVariant::Core] {
            let res = kb.chase(
                &ChaseConfig::variant(variant)
                    .with_scheduler(SchedulerKind::DatalogFirst)
                    .with_max_applications(120),
            );
            let mut reference = Vec::new();
            res.derivation.replay(|e| {
                let g = Graph::primal(e.instance);
                let width = |order: Vec<usize>| decomposition_from_order(&g, &order).width();
                reference.push(TwBounds {
                    lower: oracle::degeneracy(g.adjacency()),
                    upper: width(oracle::min_degree_order(g.adjacency()))
                        .min(width(oracle::min_fill_order(g.adjacency()))),
                });
            });
            assert_eq!(reference.len(), 121, "{variant:?}");
            assert_eq!(treewidth_profile(&res.derivation), reference, "{variant:?}");
        }
    }
}
