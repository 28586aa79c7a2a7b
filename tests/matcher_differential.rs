//! Matcher regression suite for the positional-index candidate pruner:
//!
//! * a differential property test — the indexed matcher and the
//!   pre-index naive scan enumerate exactly the same homomorphism sets
//!   over hundreds of random pattern/target pairs, across retraction
//!   mode, injective mode, constant-only variables and budget
//!   truncation;
//! * chase determinism — the same KB chased twice produces
//!   byte-identical derivation logs (the matcher's candidate order and
//!   atom selection are fully deterministic);
//! * auto-compaction transparency — a retraction-heavy core chase that
//!   compacts its arena mid-run lands on the same result as a run with
//!   compaction disabled.

use std::ops::ControlFlow;

use treechase::atoms::{Atom, AtomSet, ConstId, PredId, Substitution, Term, VarId};
use treechase::engine::prng::SplitMix64;
use treechase::engine::{ChaseConfig, ChaseVariant, MatchStrategy};
use treechase::homomorphism::{for_each_homomorphism, isomorphism, MatchConfig};
use treechase::prelude::*;

fn random_term(rng: &mut SplitMix64, vars: u32, consts: u32) -> Term {
    if consts == 0 || rng.gen_bool() {
        Term::Var(VarId::from_raw(rng.gen_range(vars as usize) as u32))
    } else {
        Term::Const(ConstId::from_raw(rng.gen_range(consts as usize) as u32))
    }
}

fn random_atom(rng: &mut SplitMix64, preds: u32, vars: u32, consts: u32) -> Atom {
    let arity = 1 + rng.gen_range(2);
    Atom::new(
        PredId::from_raw(rng.gen_range(preds as usize) as u32),
        (0..arity)
            .map(|_| random_term(rng, vars, consts))
            .collect::<Vec<_>>(),
    )
}

fn random_atomset(rng: &mut SplitMix64, max_atoms: usize, vars: u32, consts: u32) -> AtomSet {
    let n = 1 + rng.gen_range(max_atoms.max(2) - 1);
    (0..n).map(|_| random_atom(rng, 3, vars, consts)).collect()
}

/// Every homomorphism found under `cfg`, as a canonically sorted list of
/// binding vectors, plus whether the enumeration was truncated.
fn enumerate(
    pattern: &AtomSet,
    target: &AtomSet,
    cfg: &MatchConfig,
) -> (Vec<Vec<(VarId, Term)>>, bool) {
    let mut found = Vec::new();
    let outcome = for_each_homomorphism(pattern, target, &Substitution::new(), cfg, |sub| {
        found.push(sub.iter().collect::<Vec<_>>());
        ControlFlow::Continue(())
    });
    found.sort();
    (found, outcome.truncated)
}

/// The tentpole invariant: positional-index pruning never changes which
/// homomorphisms exist. Exercised over ~200 random pattern/target pairs
/// in plain mode and ~100 each in injective and retraction modes.
#[test]
fn indexed_matcher_equals_naive_scan_on_random_pairs() {
    let mut rng = SplitMix64::new(0x9E37);
    for case in 0..200 {
        let pattern = random_atomset(&mut rng, 4, 4, 3);
        let target = random_atomset(&mut rng, 10, 3, 3);
        let naive = MatchConfig {
            naive_scan: true,
            ..MatchConfig::default()
        };
        let (hi, ti) = enumerate(&pattern, &target, &MatchConfig::default());
        let (hn, tn) = enumerate(&pattern, &target, &naive);
        assert!(!ti && !tn, "unbudgeted searches never truncate");
        assert_eq!(
            hi, hn,
            "case {case}: hom sets differ\n{pattern:?}\n{target:?}"
        );
    }
}

#[test]
fn indexed_matcher_equals_naive_scan_injective_mode() {
    let mut rng = SplitMix64::new(0xA5A5);
    for case in 0..100 {
        // Variable-only targets so injective variable→variable maps exist.
        let pattern = random_atomset(&mut rng, 4, 4, 0);
        let target = random_atomset(&mut rng, 8, 4, 0);
        let base = MatchConfig {
            injective_vars: true,
            ..MatchConfig::default()
        };
        let naive = MatchConfig {
            naive_scan: true,
            ..base.clone()
        };
        let (hi, _) = enumerate(&pattern, &target, &base);
        let (hn, _) = enumerate(&pattern, &target, &naive);
        assert_eq!(hi, hn, "injective case {case} differs");
    }
}

#[test]
fn indexed_matcher_equals_naive_scan_retraction_mode() {
    let mut rng = SplitMix64::new(0x5EED);
    for case in 0..100 {
        // Retraction mode maps an atomset into itself under fixpoint
        // constraints — the core-computation workload.
        let a = random_atomset(&mut rng, 8, 4, 2);
        let base = MatchConfig {
            retraction: true,
            ..MatchConfig::default()
        };
        let naive = MatchConfig {
            naive_scan: true,
            ..base.clone()
        };
        let (hi, _) = enumerate(&a, &a, &base);
        let (hn, _) = enumerate(&a, &a, &naive);
        assert_eq!(hi, hn, "retraction case {case} differs");
    }
}

/// `const_only` prunes branches that bind an answer variable to a null.
/// Over random answer-variable sets, both strategies enumerate the same
/// set, and it is exactly the unconstrained set filtered to constant
/// images of those variables.
#[test]
fn const_only_equals_filtered_enumeration() {
    let mut rng = SplitMix64::new(0xC0_57);
    for case in 0..200 {
        let pattern = random_atomset(&mut rng, 4, 4, 3);
        let target = random_atomset(&mut rng, 10, 3, 3);
        let answer: std::collections::BTreeSet<VarId> = (0..4)
            .filter(|_| rng.gen_bool())
            .map(VarId::from_raw)
            .collect();
        let base = MatchConfig {
            const_only: answer.clone(),
            ..MatchConfig::default()
        };
        let naive = MatchConfig {
            naive_scan: true,
            ..base.clone()
        };
        let (hi, _) = enumerate(&pattern, &target, &base);
        let (hn, _) = enumerate(&pattern, &target, &naive);
        assert_eq!(hi, hn, "const-only case {case}: strategies differ");
        let (all, _) = enumerate(&pattern, &target, &MatchConfig::default());
        let filtered: Vec<_> = all
            .into_iter()
            .filter(|pairs| {
                pairs
                    .iter()
                    .all(|(v, t)| !answer.contains(v) || t.is_const())
            })
            .collect();
        assert_eq!(
            hi, filtered,
            "const-only case {case}: not the filtered set\n{pattern:?}\n{target:?}\n{answer:?}"
        );
    }
}

/// Budgeted runs may truncate at different points (the strategies visit
/// different node counts), but agreement is restored whenever *neither*
/// side truncated, and every reported homomorphism must be genuine.
#[test]
fn budget_truncation_stays_sound() {
    let mut rng = SplitMix64::new(0xB0D9);
    for _ in 0..100 {
        let pattern = random_atomset(&mut rng, 4, 4, 2);
        let target = random_atomset(&mut rng, 10, 3, 3);
        let limit = 1 + rng.gen_range(12);
        let base = MatchConfig {
            node_limit: Some(limit),
            ..MatchConfig::default()
        };
        let naive = MatchConfig {
            naive_scan: true,
            ..base.clone()
        };
        let (hi, ti) = enumerate(&pattern, &target, &base);
        let (hn, tn) = enumerate(&pattern, &target, &naive);
        for subs in [&hi, &hn] {
            for pairs in subs {
                let sub = Substitution::from_pairs(pairs.iter().copied());
                assert!(
                    sub.is_homomorphism(&pattern, &target),
                    "budgeted search reported a non-homomorphism"
                );
            }
        }
        if !ti && !tn {
            assert_eq!(hi, hn, "untruncated budgeted runs must agree");
        }
    }
}

/// One line per derivation step — triggers, safe substitutions and
/// simplifications all rendered, then every replayed instance. Any
/// nondeterminism in match order, trigger scheduling or retraction choice
/// shows up as a byte difference.
fn derivation_log(res: &treechase::engine::ChaseResult) -> String {
    let mut log = String::new();
    for step in res.derivation.steps() {
        log.push_str(&format!("{step:?}\n"));
    }
    res.derivation
        .replay(|e| log.push_str(&format!("{:?}\n", e.instance.sorted_atoms())));
    log
}

#[test]
fn restricted_chase_log_is_byte_identical_across_runs() {
    let kb = KnowledgeBase::staircase();
    let cfg = ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(80);
    let a = kb.chase(&cfg);
    let b = kb.chase(&cfg);
    assert_eq!(derivation_log(&a), derivation_log(&b));
    assert_eq!(a.final_instance, b.final_instance);
}

#[test]
fn core_chase_log_is_byte_identical_with_single_probe_thread() {
    // Parallel core probing is made deterministic by pinning one probe
    // thread; everything else (matching, scheduling) must already be.
    let kb = KnowledgeBase::elevator();
    let cfg = ChaseConfig::variant(ChaseVariant::Core)
        .with_max_applications(40)
        .with_probe_threads(1);
    let a = kb.chase(&cfg);
    let b = kb.chase(&cfg);
    assert_eq!(derivation_log(&a), derivation_log(&b));
}

#[test]
fn naive_and_indexed_strategies_chase_identically() {
    for variant in [ChaseVariant::Restricted, ChaseVariant::Core] {
        let kb = KnowledgeBase::staircase();
        let cfg = |s| {
            ChaseConfig::variant(variant)
                .with_max_applications(60)
                .with_probe_threads(1)
                .with_match_strategy(s)
        };
        let a = kb.chase(&cfg(MatchStrategy::Indexed));
        let b = kb.chase(&cfg(MatchStrategy::NaiveScan));
        assert_eq!(
            a.final_instance, b.final_instance,
            "{variant:?}: match strategy changed the chase result"
        );
    }
}

/// A retraction-heavy core chase drives the arena past the compaction
/// threshold mid-run; with compaction disabled the same chase must land
/// on an isomorphic instance (compaction renumbers `AtomId`s, so only
/// set-level results are comparable).
#[test]
fn mid_chase_compaction_is_transparent() {
    let kb = KnowledgeBase::staircase();
    let cfg = ChaseConfig::variant(ChaseVariant::Core)
        .with_max_applications(120)
        .with_probe_threads(1);

    let compacted = kb.chase(&cfg);

    let mut frozen_kb = KnowledgeBase::staircase();
    frozen_kb.facts.set_auto_compact(false);
    let frozen = frozen_kb.chase(&cfg);

    assert!(
        compacted.final_instance.compactions() > 0,
        "workload too small: auto-compaction never fired (arena {} slots, {} live)",
        compacted.final_instance.arena_len(),
        compacted.final_instance.len(),
    );
    assert_eq!(
        frozen.final_instance.compactions(),
        0,
        "set_auto_compact(false) must survive the whole chase"
    );
    assert!(
        isomorphism(&compacted.final_instance, &frozen.final_instance).is_some(),
        "compaction changed the chase result"
    );
}
