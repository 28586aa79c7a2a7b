//! Property tests for the incremental core maintainer: on seeded random
//! inputs the pivot-certified maintainer must agree with the from-scratch
//! [`core_of`] up to isomorphism (cores are unique up to iso), both on
//! single core-∪-inserted instances and along whole chase trajectories.
//!
//! Cases are generated with the engine's deterministic [`SplitMix64`]
//! generator (fixed seeds), so failures are reproducible without a
//! shrinker.

use treechase::atoms::{Atom, AtomSet, PredId, Term, VarId};
use treechase::engine::prng::SplitMix64;
use treechase::homomorphism::{core_of, incremental_core, is_core, isomorphism, SearchBudget};

/// Draws a random binary atom over `vars` variables and `preds`
/// predicates.
fn random_atom(rng: &mut SplitMix64, preds: u32, vars: u32) -> Atom {
    let t = |rng: &mut SplitMix64| Term::Var(VarId::from_raw(rng.gen_range(vars as usize) as u32));
    Atom::new(
        PredId::from_raw(rng.gen_range(preds as usize) as u32),
        vec![t(rng), t(rng)],
    )
}

fn random_atomset(rng: &mut SplitMix64, max_atoms: usize, vars: u32) -> AtomSet {
    let n = 1 + rng.gen_range(max_atoms.max(2) - 1);
    (0..n).map(|_| random_atom(rng, 2, vars)).collect()
}

/// One random "core maintenance step": a cored base plus a batch of
/// inserted atoms that may touch base terms and fresh nulls alike. Only
/// atoms the base lacks count as inserted, as in the engine.
fn random_step(seed: u64) -> (AtomSet, Vec<Atom>) {
    let mut rng = SplitMix64::new(seed);
    let base = core_of(&random_atomset(&mut rng, 8, 6)).core;
    // Added atoms draw from a widened pool (0..10): ids 6..10 are fresh
    // nulls that the base cannot mention, the rest alias base variables.
    let n_added = 1 + rng.gen_range(4);
    let mut added: Vec<Atom> = Vec::new();
    for _ in 0..n_added {
        let a = random_atom(&mut rng, 2, 10);
        if !base.contains(&a) && !added.contains(&a) {
            added.push(a);
        }
    }
    (base, added)
}

/// The incremental maintainer reaches the same core (up to isomorphism)
/// as the from-scratch algorithm on ≥200 random core-∪-added instances,
/// and its witness really is a retraction onto that core.
#[test]
fn incremental_matches_core_of_on_random_instances() {
    for seed in 0..220u64 {
        let (base, added) = random_step(seed);
        let mut full = base.clone();
        for a in &added {
            full.insert(a.clone());
        }
        let mut inc = full.clone();
        let (sigma, inc_stats) =
            incremental_core(&mut inc, &added, &SearchBudget::unlimited(), true);
        let scratch = core_of(&full);
        assert!(
            !inc_stats.truncated,
            "seed {seed}: unlimited budget truncated"
        );
        assert!(
            isomorphism(&inc, &scratch.core).is_some(),
            "seed {seed}: incremental core not isomorphic to core_of\n  full: {full:?}\n  inc: {inc:?}\n  scratch: {:?}",
            scratch.core
        );
        assert!(is_core(&inc), "seed {seed}: result is not a core");
        assert!(sigma.is_retraction_of(&full));
        assert_eq!(sigma.apply_set(&full), inc);
    }
}

mod trajectories {
    use super::*;
    use treechase::engine::{run_chase, ChaseConfig, ChaseVariant, Rule, RuleSet};
    use treechase::prelude::Vocabulary;

    // Single-body-atom rules r_p(X,Y) → h_p(Y, Z or X), as in the
    // chase properties suite.
    fn random_rule(rng: &mut SplitMix64) -> Rule {
        let bp = rng.gen_range(2) as u32;
        let hp = rng.gen_range(2) as u32;
        let x = Term::Var(VarId::from_raw(1000));
        let y = Term::Var(VarId::from_raw(1001));
        let z = Term::Var(VarId::from_raw(1002));
        let body: AtomSet = [Atom::new(PredId::from_raw(bp), vec![x, y])]
            .into_iter()
            .collect();
        let head: AtomSet = if rng.gen_bool() {
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

    /// Every element of a core chase derivation is the core of its
    /// pre-simplification instance: replaying the maintainer's log, each
    /// `F_i` is a core isomorphic to the from-scratch `core_of(A_i)` —
    /// the reference the maintainer replaces, checked step by step.
    #[test]
    fn every_core_chase_step_matches_the_from_scratch_core() {
        let mut rng = SplitMix64::new(0xD1247);
        let mut steps = 0usize;
        for case in 0..48u64 {
            let facts = random_atomset(&mut rng, 6, 8);
            let n_rules = 1 + rng.gen_range(2);
            let ruleset: RuleSet = (0..n_rules).map(|_| random_rule(&mut rng)).collect();
            let res = run_chase(
                &mut Vocabulary::new(),
                &facts,
                &ruleset,
                &ChaseConfig::variant(ChaseVariant::Core)
                    .with_max_applications(40)
                    .with_max_atoms(500),
            );
            res.derivation.replay(|e| {
                assert!(is_core(e.instance), "case {case}, step {}", e.index);
                assert!(
                    isomorphism(e.instance, &core_of(e.pre).core).is_some(),
                    "case {case}, step {}: maintainer diverged from core_of",
                    e.index
                );
                steps += usize::from(e.index > 0);
            });
        }
        // The generator must actually exercise the property, not skip it.
        assert!(steps >= 480, "only {steps} steps replayed");
    }
}

/// Pins the incremental maintainer's search tree on the paper's staircase
/// `K_h`: probing is serial, so the pivot searches, the probe order and
/// with them every node count are a pure function of the input. A change
/// to the fold search that explores a different tree (a different
/// pending-atom choice or candidate order) moves these counters even
/// when the cores agree. The match counters pin semi-naive trigger
/// discovery: a return to re-scanning the instance every round moves
/// them by an order of magnitude.
#[test]
fn staircase_core_chase_explores_a_pinned_search_tree() {
    use treechase::engine::{ChaseConfig, ChaseVariant};
    use treechase::prelude::KnowledgeBase;
    let res = KnowledgeBase::staircase()
        .chase(&ChaseConfig::variant(ChaseVariant::Core).with_max_applications(300));
    assert_eq!(res.stats.applications, 300);
    assert_eq!(res.stats.match_nodes, 138_195);
    assert_eq!(res.stats.fold_candidates, 2_227);
    assert_eq!(res.stats.retractions, 91);
    assert_eq!(res.stats.core_truncations, 0);
    // Semi-naive discovery: a full re-scan per round took 42 595 trials
    // in 9 491 searches over the same 210 rounds.
    let discovery = (
        res.stats.match_trials,
        res.stats.match_searches,
        res.stats.rounds,
    );
    assert_eq!(discovery, (1_589, 2_036, 210));
}

/// The same pins for the admission gate's probe shape: the staircase and
/// the elevator `K_v` core chases under `DatalogFirst` at 120
/// applications.
#[test]
fn gate_shaped_core_chases_explore_pinned_search_trees() {
    use treechase::engine::{ChaseConfig, ChaseVariant, SchedulerKind};
    use treechase::prelude::KnowledgeBase;
    let cfg = ChaseConfig::variant(ChaseVariant::Core)
        .with_scheduler(SchedulerKind::DatalogFirst)
        .with_max_applications(120);
    // The last three columns are the discovery counters: match trials,
    // match searches and rounds. A full re-scan per round took 18 475 /
    // 4 274 / 120 (staircase) and 2 366 / 960 / 16 (elevator).
    for (name, kb, nodes, candidates, retractions, discovery) in [
        (
            "staircase",
            KnowledgeBase::staircase(),
            6_078,
            151,
            10,
            (1_090, 1_195, 120),
        ),
        (
            "elevator",
            KnowledgeBase::elevator(),
            11_356,
            90,
            0,
            (164, 1_038, 16),
        ),
    ] {
        let res = kb.chase(&cfg);
        let got = (
            res.stats.applications,
            res.stats.match_nodes,
            res.stats.fold_candidates,
            res.stats.retractions,
            res.stats.core_truncations,
        );
        assert_eq!(got, (120, nodes, candidates, retractions, 0), "{name}");
        let got = (
            res.stats.match_trials,
            res.stats.match_searches,
            res.stats.rounds,
        );
        assert_eq!(got, discovery, "{name}");
    }
}
