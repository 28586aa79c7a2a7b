//! Matcher regression suite:
//!
//! * a differential property test — the matcher and an independent
//!   brute-force enumerator (every map from the pattern's variables to
//!   the target's terms, filtered) agree on the homomorphism set over
//!   hundreds of random pattern/target pairs, across retraction mode,
//!   injective mode, constant-only variables and budget truncation;
//! * chase determinism — the same KB chased twice produces
//!   byte-identical derivation logs (the matcher's candidate order and
//!   atom selection are fully deterministic);
//! * auto-compaction transparency — a retraction-heavy core chase that
//!   compacts its arena mid-run lands on the same result as a run with
//!   compaction disabled.

use std::collections::BTreeSet;
use std::ops::ControlFlow;

use treechase::atoms::{Atom, AtomSet, ConstId, PredId, Substitution, Term, VarId};
use treechase::engine::prng::SplitMix64;
use treechase::engine::{ChaseConfig, ChaseVariant};
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

type Homs = Vec<Vec<(VarId, Term)>>;

/// Every homomorphism found under `cfg`, as a canonically sorted list of
/// binding vectors, plus whether the enumeration was truncated.
fn enumerate(pattern: &AtomSet, target: &AtomSet, cfg: &MatchConfig) -> (Homs, bool) {
    let mut found = Vec::new();
    let outcome = for_each_homomorphism(pattern, target, &Substitution::new(), cfg, |sub| {
        found.push(sub.iter().collect::<Vec<_>>());
        ControlFlow::Continue(())
    });
    found.sort();
    (found, outcome.truncated)
}

/// Does `sub` meet every constraint of `cfg` (the node limit aside)?
fn meets_constraints(sub: &Substitution, cfg: &MatchConfig) -> bool {
    let violates = |(v, t): (VarId, Term)| {
        cfg.forbidden_images.contains(&t)
            || (cfg.must_move.contains(&v) && t == Term::Var(v))
            || (cfg.const_only.contains(&v) && t.is_var())
            || (cfg.injective_vars && !t.is_var())
            || (cfg.retraction && t.as_var().is_some_and(|u| sub.get(u) != Some(t)))
    };
    let images: BTreeSet<Term> = sub.iter().map(|(_, t)| t).collect();
    !sub.iter().any(violates) && (!cfg.injective_vars || images.len() == sub.len())
}

/// The reference enumeration, sharing no code with the matcher: tries
/// every map from the pattern's variables to the target's terms and
/// keeps those with `π(pattern) ⊆ target` that meet every constraint of
/// `cfg`. In retraction mode an image variable outside the pattern is
/// bound to itself, the fixpoint the matcher's retraction rule forces.
fn brute_force(pattern: &AtomSet, target: &AtomSet, cfg: &MatchConfig) -> Homs {
    let vars: Vec<VarId> = pattern.vars().into_iter().collect();
    let terms: Vec<Term> = target.terms().into_iter().collect();
    let mut found = Vec::new();
    let mut choice = vec![0usize; vars.len()];
    if !vars.is_empty() && terms.is_empty() {
        return found;
    }
    loop {
        let mut sub =
            Substitution::from_pairs(vars.iter().zip(&choice).map(|(&v, &i)| (v, terms[i])));
        if cfg.retraction {
            let fixed: Vec<VarId> = sub.iter().filter_map(|(_, t)| t.as_var()).collect();
            for u in fixed {
                if sub.get(u).is_none() {
                    sub.bind(u, Term::Var(u));
                }
            }
        }
        if sub.is_homomorphism(pattern, target) && meets_constraints(&sub, cfg) {
            found.push(sub.iter().collect());
        }
        // Advance the odometer; stop after the last map.
        let Some(pos) = choice.iter().rposition(|&i| i + 1 < terms.len()) else {
            break;
        };
        choice[pos] += 1;
        choice[pos + 1..].fill(0);
    }
    found.sort();
    found
}

/// The matcher enumerates exactly the brute-force homomorphism set.
/// Exercised over 200 random pattern/target pairs in plain mode and 100
/// each in injective and retraction modes.
#[test]
fn matcher_equals_brute_force_on_random_pairs() {
    let mut rng = SplitMix64::new(0x9E37);
    for case in 0..200 {
        let pattern = random_atomset(&mut rng, 4, 4, 3);
        let target = random_atomset(&mut rng, 10, 3, 3);
        let cfg = MatchConfig::default();
        let (got, truncated) = enumerate(&pattern, &target, &cfg);
        assert!(!truncated, "unbudgeted searches never truncate");
        assert_eq!(
            got,
            brute_force(&pattern, &target, &cfg),
            "case {case}: hom sets differ\n{pattern:?}\n{target:?}"
        );
    }
}

#[test]
fn matcher_equals_brute_force_injective_mode() {
    let mut rng = SplitMix64::new(0xA5A5);
    for case in 0..100 {
        // Variable-only targets so injective variable→variable maps exist.
        let pattern = random_atomset(&mut rng, 4, 4, 0);
        let target = random_atomset(&mut rng, 8, 4, 0);
        let cfg = MatchConfig {
            injective_vars: true,
            ..MatchConfig::default()
        };
        let (got, _) = enumerate(&pattern, &target, &cfg);
        assert_eq!(
            got,
            brute_force(&pattern, &target, &cfg),
            "injective case {case} differs\n{pattern:?}\n{target:?}"
        );
    }
}

#[test]
fn matcher_equals_brute_force_retraction_mode() {
    let mut rng = SplitMix64::new(0x5EED);
    for case in 0..100 {
        // Retraction mode maps an atomset into itself under fixpoint
        // constraints — the core-computation workload. Every other case
        // also asks, like a core fold, for a retraction eliminating the
        // smallest variable.
        let a = random_atomset(&mut rng, 8, 4, 2);
        let mut cfg = MatchConfig {
            retraction: true,
            ..MatchConfig::default()
        };
        if let Some(x) = a.vars().first().filter(|_| case % 2 == 1) {
            cfg.must_move.insert(*x);
            cfg.forbidden_images.insert(Term::Var(*x));
        }
        let (got, _) = enumerate(&a, &a, &cfg);
        assert_eq!(
            got,
            brute_force(&a, &a, &cfg),
            "retraction case {case} differs\n{a:?}"
        );
    }
}

/// `const_only` prunes branches that bind an answer variable to a null.
/// Over random answer-variable sets, the matcher enumerates the
/// brute-force set, and it is exactly the unconstrained set filtered to
/// constant images of those variables.
#[test]
fn const_only_equals_filtered_enumeration() {
    let mut rng = SplitMix64::new(0xC0_57);
    for case in 0..200 {
        let pattern = random_atomset(&mut rng, 4, 4, 3);
        let target = random_atomset(&mut rng, 10, 3, 3);
        let answer: BTreeSet<VarId> = (0..4)
            .filter(|_| rng.gen_bool())
            .map(VarId::from_raw)
            .collect();
        let cfg = MatchConfig {
            const_only: answer.clone(),
            ..MatchConfig::default()
        };
        let (got, _) = enumerate(&pattern, &target, &cfg);
        assert_eq!(
            got,
            brute_force(&pattern, &target, &cfg),
            "const-only case {case}: differs from brute force"
        );
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
            got, filtered,
            "const-only case {case}: not the filtered set\n{pattern:?}\n{target:?}\n{answer:?}"
        );
    }
}

/// A budgeted run may stop early, but everything it reports is in the
/// brute-force set, and an untruncated run reports all of it.
#[test]
fn budget_truncation_stays_sound() {
    let mut rng = SplitMix64::new(0xB0D9);
    for case in 0..100 {
        let pattern = random_atomset(&mut rng, 4, 4, 2);
        let target = random_atomset(&mut rng, 10, 3, 3);
        let limit = 1 + rng.gen_range(12);
        let cfg = MatchConfig {
            node_limit: Some(limit),
            ..MatchConfig::default()
        };
        let (got, truncated) = enumerate(&pattern, &target, &cfg);
        let want = brute_force(&pattern, &target, &cfg);
        assert!(
            got.iter().all(|h| want.contains(h)),
            "budgeted case {case} reported a non-homomorphism"
        );
        if !truncated {
            assert_eq!(got, want, "untruncated budgeted case {case} differs");
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
