//! Cross-crate integration tests tracking the paper's propositions at
//! small scale. The experiment binaries (`crates/bench/src/bin/e*.rs`)
//! run the same checks at larger horizons; these keep them under
//! `cargo test`.

use treechase::engine::aggregation::natural_aggregation;
use treechase::engine::boundedness::treewidth_profile;
use treechase::engine::robust::RobustSequence;
use treechase::engine::{is_model_of_rules, run_chase};
use treechase::kbs::{queries, Elevator, Staircase};
use treechase::prelude::*;

/// Proposition 1: every chase element maps into every model
/// (universality), here tested against the analytic models.
#[test]
fn prop1_chase_elements_are_universal() {
    let mut s = Staircase::new();
    let d = s.scripted_core_chase(3);
    let model_prefix = s.universal_prefix(8);
    assert!(d.all_instances_map_into(&model_prefix));
    let column = s.infinite_column_prefix(10);
    assert!(d.all_instances_map_into(&column));
}

/// Proposition 3/4: restricted chase builds I^h; core chase stays at
/// treewidth ≤ 2 and ends on a core column.
#[test]
fn prop3_and_4_staircase_chases() {
    let mut s = Staircase::new();
    let dr = s.scripted_restricted_chase(3);
    assert_eq!(dr.validate(), Ok(()));
    assert_eq!(natural_aggregation(&dr), s.universal_prefix(3));

    let dc = s.scripted_core_chase(3);
    assert_eq!(dc.validate(), Ok(()));
    assert!(treewidth_profile(&dc).iter().all(|b| b.upper <= 2));
    assert!(is_core(dc.last_instance()));
}

/// Proposition 5 mechanism: the aggregation contains grids, and grids
/// force treewidth (Fact 2 + exact solver cross-check at n = 2).
#[test]
fn prop5_grids_force_treewidth() {
    let mut s = Staircase::new();
    let agg = natural_aggregation(&s.scripted_restricted_chase(5));
    let lab = s.grid_labeling(2);
    assert!(contains_grid(&agg, &lab));
    // The 2×2 grid sub-instance has treewidth ≥ 2:
    assert!(treewidth_bounds(&agg).upper >= 2);
}

/// Proposition 7: the spine is a treewidth-1 universal model inside I^v.
#[test]
fn prop7_spine() {
    let mut e = Elevator::new();
    let spine = e.spine_prefix(5);
    assert_eq!(treewidth(&spine), 1);
    assert!(spine.is_subset_of(&e.universal_prefix(5)));
    assert!(maps_to(&e.facts, &spine));
}

/// Proposition 8.1/8.2: cabins are cores containing grids.
#[test]
fn prop8_cabins() {
    let mut e = Elevator::new();
    for n in [2u32, 3] {
        let cabin = e.cabin(n);
        assert!(is_core(&cabin), "cabin {n}");
        assert!(contains_grid(&cabin, &e.cabin_grid_labeling(n)));
    }
}

/// Propositions 10–12 on the staircase core chase: invariants, settling,
/// model-ness and treewidth preservation of the robust aggregation.
#[test]
fn prop10_to_12_robust_aggregation() {
    let mut s = Staircase::new();
    let d = s.scripted_core_chase(4);
    let rs = RobustSequence::build(&d);
    assert_eq!(rs.verify_invariants(&d), Ok(()));

    // Settling: at most one renaming per variable in this construction.
    for start in 0..rs.len() - 1 {
        for var in rs.sets[start].vars() {
            let tr = rs.trace_var(start, var);
            let changes = tr.images.windows(2).filter(|w| w[0] != w[1]).count();
            assert!(changes <= 1, "variable renamed {changes} times");
        }
    }

    let dsq = rs.aggregation_prefix(2 * 3 + 3);
    assert!(maps_to(d.initial(), &dsq), "D^⊛ is a model of F");
    assert_eq!(treewidth(&dsq), 1, "tw(D^⊛) ≤ recurring bound");
    // Finitely universal proxy: D^⊛ maps into the universal chase element.
    assert!(maps_to(&dsq, d.last_instance()));
}

/// Proposition 9: the finitely universal models answer exactly the
/// entailed CQs.
#[test]
fn prop9_finitely_universal_models_answer_cqs() {
    let mut s = Staircase::new();
    let ih = s.universal_prefix(8);
    let itilde = s.infinite_column_prefix(10);
    let mut vocab = s.vocab.clone();
    for gt in queries::staircase_queries(&mut vocab) {
        assert_eq!(maps_to(&gt.query, &ih), gt.entailed, "{} in I^h", gt.name);
        assert_eq!(
            maps_to(&gt.query, &itilde),
            gt.entailed,
            "{} in Ĩ^h",
            gt.name
        );
    }
}

/// Proposition 13 witnesses behave as claimed (finite-horizon evidence).
#[test]
fn prop13_witness_separation() {
    // bts ∖ fes: diverges at treewidth ≤ 1.
    let w = treechase::kbs::witnesses::bts_not_fes();
    let mut vocab = w.vocab.clone();
    let cfg = ChaseConfig::variant(ChaseVariant::Core).with_max_applications(15);
    let res = run_chase(&mut vocab, &w.facts, &w.rules, &cfg);
    assert!(!res.outcome.terminated());
    assert!(treewidth_profile(&res.derivation)
        .iter()
        .all(|b| b.upper <= 1));

    // fes ∖ bts: the core chase terminates.
    let w = treechase::kbs::witnesses::fes_not_bts();
    let mut vocab = w.vocab.clone();
    let cfg = ChaseConfig::variant(ChaseVariant::Core).with_max_applications(400);
    let res = run_chase(&mut vocab, &w.facts, &w.rules, &cfg);
    assert!(res.outcome.terminated());
    assert!(is_core(&res.final_instance));
    assert!(is_model_of_rules(&w.rules, &res.final_instance));
}

/// Theorem 2 in action: CQ entailment over the staircase (a core-bts KB)
/// decided by the twin procedure, agreeing with ground truth.
#[test]
fn thm2_decidability_on_core_bts_kb() {
    let kb = KnowledgeBase::staircase();
    let mut vocab = kb.vocab.clone();
    let cfg = DecideConfig {
        max_applications: 120,
        max_atoms: 20_000,
        core_max_applications: 30,
    };
    for gt in queries::staircase_queries(&mut vocab) {
        let out = decide(&kb, &gt.query, &cfg);
        let answer = matches!(out, DecideOutcome::Entailed { .. });
        assert_eq!(answer, gt.entailed, "query {}", gt.name);
        if gt.entailed {
            assert!(
                matches!(out, DecideOutcome::Entailed { .. }),
                "positives must be certified ({})",
                gt.name
            );
        }
    }
}

/// Theorem 1's procedure dovetails its two chases in a fixed order (one
/// core application, then one restricted), so which run certifies, and
/// after how many applications, depends only on the input.
#[test]
fn thm1_dovetail_order_fixes_the_certifying_run() {
    let cfg = DecideConfig {
        max_applications: 150,
        max_atoms: 20_000,
        core_max_applications: 30,
    };
    let decided = |kb: &KnowledgeBase,
                   suite: fn(&mut Vocabulary) -> Vec<queries::GroundTruthQuery>,
                   name: &str| {
        let mut vocab = kb.vocab.clone();
        let gt = suite(&mut vocab).into_iter().find(|gt| gt.name == name);
        decide(kb, &gt.expect(name).query, &cfg)
    };
    let (staircase, elevator) = (KnowledgeBase::staircase(), KnowledgeBase::elevator());
    assert_eq!(
        decided(&staircase, queries::staircase_queries, "v-path-3"),
        DecideOutcome::Entailed {
            by: ChaseVariant::Core,
            applications: 12
        }
    );
    assert_eq!(
        decided(&elevator, queries::elevator_queries, "h-path-3"),
        DecideOutcome::Entailed {
            by: ChaseVariant::Restricted,
            applications: 80
        }
    );
    assert_eq!(
        decided(&elevator, queries::elevator_queries, "v-loop-f"),
        DecideOutcome::Entailed {
            by: ChaseVariant::Core,
            applications: 6
        }
    );
}
