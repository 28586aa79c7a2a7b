//! Cross-variant chase semantics: confluence on datalog, variant
//! ordering on null production, fairness, and budget behavior.

use treechase::prelude::*;

fn kb(src: &str) -> KnowledgeBase {
    KnowledgeBase::from_text(src).unwrap()
}

#[test]
fn oblivious_produces_at_least_semi_oblivious_at_least_restricted() {
    // r(X,Y) → ∃Z. s(Y,Z) on a fan-in instance: oblivious makes one null
    // per trigger, semi-oblivious one per frontier class, restricted one
    // per unsatisfied class.
    let k = kb("r(a, c). r(b, c). r(d, e). R: r(X, Y) -> s(Y, Z).");
    let count = |variant| {
        let res = k.chase(&ChaseConfig::variant(variant));
        assert!(res.outcome.terminated());
        res.stats.applications
    };
    let obl = count(ChaseVariant::Oblivious);
    let semi = count(ChaseVariant::SemiOblivious);
    let rest = count(ChaseVariant::Restricted);
    assert_eq!(obl, 3, "one application per trigger");
    assert_eq!(semi, 2, "one application per frontier class");
    assert_eq!(rest, 2, "no satisfaction shortcuts here");
    assert!(obl >= semi && semi >= rest);
}

#[test]
fn restricted_skips_satisfied_triggers_where_semi_oblivious_fires() {
    // Head already satisfied for one trigger.
    let k = kb("r(a, b). s(b, w). R: r(X, Y) -> s(Y, Z).");
    let semi = k.chase(&ChaseConfig::variant(ChaseVariant::SemiOblivious));
    let rest = k.chase(&ChaseConfig::variant(ChaseVariant::Restricted));
    assert_eq!(semi.stats.applications, 1);
    assert_eq!(rest.stats.applications, 0);
}

#[test]
fn all_variants_entail_same_cqs_on_terminating_kb() {
    let mut k = kb("r(a, b). r(b, a). R: r(X, Y) -> s(Y, Z). T: s(X, Y) -> t(X).");
    let queries = ["t(a)", "t(b)", "s(a, W)", "t(W), s(W, V)"];
    for q in queries {
        let query = k.parse_query(q).unwrap();
        let mut answers = Vec::new();
        for variant in [
            ChaseVariant::Oblivious,
            ChaseVariant::SemiOblivious,
            ChaseVariant::Restricted,
            ChaseVariant::Core,
        ] {
            let res = k.chase(&ChaseConfig::variant(variant));
            assert!(res.outcome.terminated());
            answers.push(maps_to(&query, &res.final_instance));
        }
        assert!(
            answers.windows(2).all(|w| w[0] == w[1]),
            "variants disagree on {q}: {answers:?}"
        );
    }
}

#[test]
fn core_chase_final_is_always_core() {
    for src in [
        "r(a, b). r(b, c). T: r(X, Y), r(Y, Z) -> r(X, Z).",
        "p(a). R: p(X) -> e(X, Y), e(Y, X).",
        "r(a, a). r(a, b). R: r(X, Y) -> r(Y, Z).",
    ] {
        let k = kb(src);
        let res = k.chase(&ChaseConfig::variant(ChaseVariant::Core).with_max_applications(100));
        if res.outcome.terminated() {
            assert!(is_core(&res.final_instance), "{src}");
        }
    }
}

#[test]
fn fairness_no_rule_starves() {
    // Two independent growing chains; fairness means both grow.
    let k = kb("p(a). q(b). P: p(X) -> e(X, Y), p(Y). Q: q(X) -> f(X, Y), q(Y).");
    let res = k.chase(&ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(20));
    let e_pred = k.vocab.lookup_pred("e").unwrap();
    let f_pred = k.vocab.lookup_pred("f").unwrap();
    let e_count = res.final_instance.pred_count(e_pred);
    let f_count = res.final_instance.pred_count(f_pred);
    assert!(e_count >= 5 && f_count >= 5, "e={e_count} f={f_count}");
}

#[test]
fn atom_budget_stops_the_chase() {
    let k = kb("p(a). P: p(X) -> e(X, Y), p(Y).");
    let res = k.chase(
        &ChaseConfig::variant(ChaseVariant::Restricted)
            .with_max_atoms(10)
            .with_max_applications(10_000),
    );
    assert_eq!(res.outcome, ChaseOutcome::AtomBudgetExhausted);
    assert!(res.final_instance.len() <= 12);
}

#[test]
fn datalog_first_scheduler_prioritizes_datalog() {
    // One datalog rule and one existential rule both applicable; under
    // DatalogFirst the first application must be the datalog one.
    let k = kb("r(a, b). D: r(X, Y) -> r2(Y, X). E: r(X, Y) -> s(Y, Z).");
    let res = {
        let mut vocab = k.vocab.clone();
        treechase::engine::run_chase(
            &mut vocab,
            &k.facts,
            &k.rules,
            &ChaseConfig::variant(ChaseVariant::Restricted)
                .with_scheduler(SchedulerKind::DatalogFirst),
        )
    };
    let d = res.derivation;
    let first = &d.steps()[0].trigger;
    assert_eq!(d.rules().get(first.rule).name(), "D");
}

#[test]
fn recorded_derivations_validate_for_restricted_and_core() {
    for variant in [ChaseVariant::Restricted, ChaseVariant::Core] {
        let k = kb("r(a, b). R: r(X, Y) -> r(Y, Z).");
        let res = k.chase(&ChaseConfig::variant(variant).with_max_applications(8));
        assert_eq!(res.derivation.validate(), Ok(()), "{variant:?}");
    }
}

/// Differential regression for the semi-naive/retraction interplay
/// (`crates/engine/src/chase.rs`, discovery from the delta across
/// retractions): a KB whose core fold retracts an atom that had both
/// *fired* a rule and *satisfied* another trigger. R2 fires on
/// `r(a, n1)` and creates the very witness `r(a, n2), g(n2)` that the
/// core then folds `n1` into — after the fold, the applied-trigger
/// memory and satisfaction state both reference a retracted atom. A
/// discovery step that mishandled the retraction would either re-fire
/// R2 into duplicate nulls or miss the datalog tail (R3, R4) behind the
/// fold; the delta-seeded discovery must do neither. Restricted and core
/// chase must agree up to core isomorphism (universal models have a
/// unique core), and the tail facts must be derived exactly once.
#[test]
fn core_fold_invalidating_satisfied_trigger_matches_restricted_core() {
    use treechase::homomorphism::{core_of, is_core, isomorphism};

    let src = "p(a).\n\
               R1: p(X) -> r(X, Y).\n\
               R2: r(X, Y) -> r(X, Z), g(Z).\n\
               R3: g(Z) -> h(Z).\n\
               R4: h(Z), p(X) -> k(X).\n";
    let k = kb(src);

    let rest = k.chase(&ChaseConfig::variant(ChaseVariant::Restricted));
    assert!(rest.outcome.terminated(), "{:?}", rest.outcome);
    let core = k.chase(&ChaseConfig::variant(ChaseVariant::Core));
    assert!(core.outcome.terminated(), "{:?}", core.outcome);

    // The core run actually folded something — the scenario under test
    // happened — and ended on a genuine core.
    assert!(
        core.stats.retractions > 0,
        "no fold occurred: the scenario is vacuous"
    );
    assert!(is_core(&core.final_instance));

    // Differential: the restricted run's core is the core run's result,
    // up to isomorphism.
    let folded = core_of(&rest.final_instance).core;
    assert!(
        isomorphism(&folded, &core.final_instance).is_some(),
        "restricted core ({} atoms) != core chase result ({} atoms)",
        folded.len(),
        core.final_instance.len()
    );

    // The datalog tail behind the fold fired exactly once per variant:
    // one h-null and k(a), no duplicates from re-fired triggers.
    let mut k_query = kb(src);
    for (probe, want) in [("k(a)", true), ("g(V), h(V)", true)] {
        let q = k_query.parse_query(probe).unwrap();
        for res in [&rest, &core] {
            assert!(
                treechase::homomorphism::maps_to(&q, &res.final_instance) == want,
                "{probe} on {:?}",
                res.outcome
            );
        }
    }
}

/// Paper Defs. 1–2: every derivation step has a homomorphism
/// `F_i → F_{i+1}` fixing constants (an application is an inclusion, a
/// simplification the retraction `σ_i`), so a boolean CQ entailed at
/// `F_i` stays entailed at every later `F_j` — core retractions
/// included. This is what lets live queries read the newest snapshot.
/// The staircase run retracts; the elevator's core chase retracts
/// nothing within 120 applications under any scheduler, so it checks
/// the application-only case.
#[test]
fn boolean_entailment_persists_along_core_derivations_with_retractions() {
    use treechase::homomorphism::maps_to;
    use treechase::kbs::queries::{elevator_queries, staircase_queries};
    type Suite =
        fn(&mut treechase::atoms::Vocabulary) -> Vec<treechase::kbs::queries::GroundTruthQuery>;
    let cases: [(&str, KnowledgeBase, Suite, bool); 2] = [
        (
            "staircase",
            KnowledgeBase::staircase(),
            staircase_queries,
            true,
        ),
        (
            "elevator",
            KnowledgeBase::elevator(),
            elevator_queries,
            false,
        ),
    ];
    for (name, k, suite, must_retract) in cases {
        let res = k.chase(&ChaseConfig::variant(ChaseVariant::Core).with_max_applications(60));
        assert!(
            res.stats.retractions > 0 || !must_retract,
            "{name}: the run must retract"
        );
        let queries = suite(&mut k.vocab.clone());
        let mut first_entailed: Vec<Option<usize>> = vec![None; queries.len()];
        let mut elements = 0;
        res.derivation.replay(|e| {
            elements += 1;
            for (q, first) in queries.iter().zip(&mut first_entailed) {
                let holds = maps_to(&q.query, e.instance);
                match *first {
                    Some(i) => assert!(
                        holds,
                        "{name}: `{}` entailed at F_{i} but not at F_{}",
                        q.name, e.index
                    ),
                    None if holds => *first = Some(e.index),
                    None => {}
                }
            }
        });
        assert_eq!(elements, res.stats.applications + 1, "{name}");
        assert!(
            first_entailed.iter().any(|f| f.is_some_and(|i| i > 0)),
            "{name}: no query became entailed mid-derivation"
        );
    }
}
