//! Randomized property tests over the core data structures and
//! invariants: substitution algebra, homomorphism/core laws, treewidth
//! monotonicity, decomposition validity, and chase universality.
//!
//! Cases are generated with the engine's deterministic [`SplitMix64`]
//! generator (fixed seeds), so every run exercises the same inputs —
//! failures are reproducible without a shrinker.

use treechase::atoms::{Atom, AtomSet, PredId, Substitution, Term, VarId};
use treechase::engine::prng::SplitMix64;
use treechase::homomorphism::{core_of, hom_equivalent, is_core, isomorphism, maps_to};
use treechase::treewidth::{min_degree_decomposition, min_fill_decomposition, treewidth_bounds};

fn random_term(rng: &mut SplitMix64, vars: u32) -> Term {
    Term::Var(VarId::from_raw(rng.gen_range(vars as usize) as u32))
}

fn random_atom(rng: &mut SplitMix64, preds: u32, vars: u32) -> Atom {
    Atom::new(
        PredId::from_raw(rng.gen_range(preds as usize) as u32),
        vec![random_term(rng, vars), random_term(rng, vars)],
    )
}

fn random_atomset(rng: &mut SplitMix64, max_atoms: usize) -> AtomSet {
    let n = 1 + rng.gen_range(max_atoms.max(2) - 1);
    (0..n).map(|_| random_atom(rng, 2, 8)).collect()
}

fn random_substitution(rng: &mut SplitMix64, vars: u32) -> Substitution {
    let n = rng.gen_range(6);
    Substitution::from_pairs((0..n).map(|_| {
        (
            VarId::from_raw(rng.gen_range(vars as usize) as u32),
            random_term(rng, vars),
        )
    }))
}

/// Substitution composition is function composition, and associative.
#[test]
fn substitution_composition_laws() {
    let mut rng = SplitMix64::new(0xC0FFEE);
    for _ in 0..64 {
        let s = random_substitution(&mut rng, 8);
        let t = random_substitution(&mut rng, 8);
        let u = random_substitution(&mut rng, 8);
        for v in 0..8u32 {
            let term = Term::Var(VarId::from_raw(v));
            let c = s.then(&t);
            assert_eq!(c.apply_term(term), t.apply_term(s.apply_term(term)));
            let left = s.then(&t).then(&u);
            let right = s.then(&t.then(&u));
            assert_eq!(left.apply_term(term), right.apply_term(term));
        }
    }
}

/// Applying a substitution never grows an atomset.
#[test]
fn apply_never_grows() {
    let mut rng = SplitMix64::new(2);
    for _ in 0..64 {
        let a = random_atomset(&mut rng, 12);
        let s = random_substitution(&mut rng, 8);
        assert!(s.apply_set(&a).len() <= a.len());
    }
}

/// The core is hom-equivalent to the input, is itself a core, and the
/// witnessing retraction really is one. Idempotent up to isomorphism.
#[test]
fn core_laws() {
    let mut rng = SplitMix64::new(3);
    for _ in 0..48 {
        let a = random_atomset(&mut rng, 10);
        let res = core_of(&a);
        assert!(hom_equivalent(&a, &res.core));
        assert!(is_core(&res.core));
        assert!(res.retraction.is_retraction_of(&a));
        assert_eq!(res.retraction.apply_set(&a), res.core);
        let twice = core_of(&res.core);
        assert!(isomorphism(&res.core, &twice.core).is_some());
    }
}

/// Homomorphic images preserve CQ satisfaction: if q maps to a and a
/// maps to b then q maps to b (composition closure).
#[test]
fn hom_composition_closure() {
    let mut rng = SplitMix64::new(4);
    for _ in 0..64 {
        let q = random_atomset(&mut rng, 4);
        let a = random_atomset(&mut rng, 8);
        let b = random_atomset(&mut rng, 8);
        if maps_to(&q, &a) && maps_to(&a, &b) {
            assert!(maps_to(&q, &b));
        }
    }
}

/// Subsets have smaller-or-equal treewidth (Fact 1), certified via
/// upper/lower bound sandwiches.
#[test]
fn treewidth_monotone_under_subset() {
    let mut rng = SplitMix64::new(5);
    for _ in 0..48 {
        let a = random_atomset(&mut rng, 12);
        let keep = 1 + rng.gen_range(a.len());
        let atoms: Vec<Atom> = a.iter().cloned().collect();
        let sub: AtomSet = atoms.into_iter().take(keep).collect();
        let b_sub = treewidth_bounds(&sub);
        let b_all = treewidth_bounds(&a);
        // Certified direction only: lower(sub) cannot exceed upper(all).
        assert!(b_sub.lower <= b_all.upper);
    }
}

/// Both elimination heuristics always produce decompositions that
/// validate against the instance.
#[test]
fn heuristic_decompositions_validate() {
    let mut rng = SplitMix64::new(6);
    for _ in 0..48 {
        let a = random_atomset(&mut rng, 14);
        let d1 = min_degree_decomposition(&a);
        let d2 = min_fill_decomposition(&a);
        assert!(d1.validate(&a).is_ok());
        assert!(d2.validate(&a).is_ok());
        assert!(treewidth_bounds(&a).lower <= d1.width());
        assert!(treewidth_bounds(&a).lower <= d2.width());
    }
}

/// Isomorphic rename invariance: renaming all variables injectively
/// yields an isomorphic atomset with identical treewidth bounds.
#[test]
fn rename_invariance() {
    let mut rng = SplitMix64::new(7);
    for _ in 0..48 {
        let a = random_atomset(&mut rng, 10);
        let offset = 100 + rng.gen_range(100) as u32;
        let rename = Substitution::from_pairs(
            a.vars()
                .into_iter()
                .map(|v| (v, Term::Var(VarId::from_raw(v.raw() + offset)))),
        );
        let b = rename.apply_set(&a);
        assert!(isomorphism(&a, &b).is_some());
        assert_eq!(treewidth_bounds(&a), treewidth_bounds(&b));
        assert_eq!(is_core(&a), is_core(&b));
    }
}

mod chase_properties {
    use super::*;
    use treechase::engine::{run_chase, ChaseConfig, ChaseVariant, Rule, RuleSet, SchedulerKind};
    use treechase::prelude::Vocabulary;

    // Single-body-atom rules r_p(X,Y) → h_p(Y, Z or X).
    fn random_rule(rng: &mut SplitMix64) -> Rule {
        let bp = rng.gen_range(2) as u32;
        let hp = rng.gen_range(2) as u32;
        let existential = rng.gen_bool();
        let x = Term::Var(VarId::from_raw(1000));
        let y = Term::Var(VarId::from_raw(1001));
        let z = Term::Var(VarId::from_raw(1002));
        let body: AtomSet = [Atom::new(PredId::from_raw(bp), vec![x, y])]
            .into_iter()
            .collect();
        let head: AtomSet = if existential {
            [Atom::new(PredId::from_raw(hp), vec![y, z])]
                .into_iter()
                .collect()
        } else {
            [Atom::new(PredId::from_raw(hp), vec![y, x])]
                .into_iter()
                .collect()
        };
        Rule::new("r", body, head).expect("nonempty")
    }

    fn random_ruleset(rng: &mut SplitMix64) -> RuleSet {
        let n = 1 + rng.gen_range(2);
        (0..n).map(|_| random_rule(rng)).collect()
    }

    /// Prop 1 shape: every recorded chase element of a fair chase maps
    /// into the final element *when the chase terminates* (the final
    /// element is then a universal model).
    #[test]
    fn terminated_chase_elements_map_into_final() {
        let mut rng = SplitMix64::new(8);
        for case in 0..24u64 {
            let facts = random_atomset(&mut rng, 6);
            let ruleset = random_ruleset(&mut rng);
            let mut vocab = Vocabulary::new();
            let cfg = ChaseConfig::variant(ChaseVariant::Core)
                .with_scheduler(SchedulerKind::Random(case))
                .with_max_applications(40)
                .with_max_atoms(500);
            let res = run_chase(&mut vocab, &facts, &ruleset, &cfg);
            if res.outcome.terminated() {
                assert!(res.derivation.all_instances_map_into(&res.final_instance));
                assert!(is_core(&res.final_instance));
            }
        }
    }

    /// Every variant under a random scheduler. Debug builds assert, at
    /// each dequeue and each satisfaction check, that a trigger carried
    /// through the round's simplifications (Def. 2) is still a trigger;
    /// the variants that check satisfaction record Definition 1
    /// derivations.
    #[test]
    fn every_variant_chases_random_rulesets() {
        let mut rng = SplitMix64::new(10);
        for case in 0..24u64 {
            let facts = random_atomset(&mut rng, 6);
            let ruleset = random_ruleset(&mut rng);
            for variant in [
                ChaseVariant::Oblivious,
                ChaseVariant::SemiOblivious,
                ChaseVariant::Restricted,
                ChaseVariant::Frugal,
                ChaseVariant::Core,
            ] {
                let mut vocab = Vocabulary::new();
                let cfg = ChaseConfig::variant(variant)
                    .with_scheduler(SchedulerKind::Random(case))
                    .with_max_applications(40)
                    .with_max_atoms(500);
                let res = run_chase(&mut vocab, &facts, &ruleset, &cfg);
                if !matches!(
                    variant,
                    ChaseVariant::Oblivious | ChaseVariant::SemiOblivious
                ) {
                    assert_eq!(
                        res.derivation.validate(),
                        Ok(()),
                        "{variant:?}, case {case}"
                    );
                }
            }
        }
    }

    /// Restricted and core chase entail the same CQs on whatever
    /// horizon both reach (they share the universal aggregation).
    #[test]
    fn variants_agree_on_query_membership() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..24 {
            let facts = random_atomset(&mut rng, 5);
            let ruleset = random_ruleset(&mut rng);
            let q = random_atomset(&mut rng, 3);
            let run = |variant| {
                let mut vocab = Vocabulary::new();
                run_chase(
                    &mut vocab,
                    &facts,
                    &ruleset,
                    &ChaseConfig::variant(variant).with_max_applications(60),
                )
            };
            let r = run(ChaseVariant::Restricted);
            let c = run(ChaseVariant::Core);
            if r.outcome.terminated() && c.outcome.terminated() {
                assert_eq!(
                    maps_to(&q, &r.final_instance),
                    maps_to(&q, &c.final_instance)
                );
            }
        }
    }
}
