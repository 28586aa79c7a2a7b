//! Matcher regression suite:
//!
//! * a differential property test — the matcher and an independent
//!   brute-force enumerator (every map from the pattern's variables to
//!   the target's terms, filtered) agree on the homomorphism set over
//!   hundreds of random pattern/target pairs, across injective mode,
//!   constant-only variables, budget truncation and seeds (consistent,
//!   contradictory, and binding variables outside the pattern);
//! * order digests — FNV-1a digests of the matcher's enumeration order and
//!   of the fold search's first folds, recorded once, so a change to
//!   either order contract fails loudly;
//! * a composition check — `fold_variables` composes its folds exactly as
//!   the sequential `Substitution::then` fold does;
//! * a fold-probe differential — the crate's retraction search agrees
//!   with the same enumerator, restricted to retractions, on every
//!   variable of a thousand random atomsets, half of them with only a
//!   random subset of the variables allowed to move;
//! * a pivot-certificate differential — on random `core ∪ inserted`
//!   instances the incremental maintainer's certificate holds exactly
//!   when the enumerator finds no retraction eliminating an old
//!   variable;
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
use treechase::homomorphism::{
    core_of, find_retraction_eliminating, fold_variables, for_each_homomorphism_budgeted,
    isomorphism, pivot_certificate, MatchConfig, SearchBudget, SearchOutcome,
};
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

fn random_atomset(
    rng: &mut SplitMix64,
    preds: u32,
    max_atoms: usize,
    vars: u32,
    consts: u32,
) -> AtomSet {
    let n = 1 + rng.gen_range(max_atoms.max(2) - 1);
    (0..n)
        .map(|_| random_atom(rng, preds, vars, consts))
        .collect()
}

type Homs = Vec<Vec<(VarId, Term)>>;

/// Every homomorphism found under `cfg`, as a canonically sorted list of
/// binding vectors, plus whether the enumeration was truncated.
fn enumerate(pattern: &AtomSet, target: &AtomSet, cfg: &MatchConfig) -> (Homs, bool) {
    enumerate_budgeted(pattern, target, cfg, &SearchBudget::default())
}

/// [`enumerate`] under `budget`.
fn enumerate_budgeted(
    pattern: &AtomSet,
    target: &AtomSet,
    cfg: &MatchConfig,
    budget: &SearchBudget,
) -> (Homs, bool) {
    let (mut found, outcome) = enumerate_seeded(pattern, target, &Substitution::new(), cfg, budget);
    found.sort();
    (found, outcome.truncated)
}

/// Every homomorphism extending `seed`, in the order the matcher
/// reports them, with the search's outcome.
fn enumerate_seeded(
    pattern: &AtomSet,
    target: &AtomSet,
    seed: &Substitution,
    cfg: &MatchConfig,
    budget: &SearchBudget,
) -> (Homs, SearchOutcome) {
    let mut found = Vec::new();
    let outcome = for_each_homomorphism_budgeted(pattern, target, seed, cfg, budget, |sub| {
        found.push(sub.iter().collect::<Vec<_>>());
        ControlFlow::Continue(())
    });
    (found, outcome)
}

/// Does `sub` meet every constraint of `cfg`?
fn meets_constraints(sub: &Substitution, cfg: &MatchConfig) -> bool {
    let violates = |(v, t): (VarId, Term)| {
        (cfg.const_only.contains(&v) && t.is_var()) || (cfg.injective_vars && !t.is_var())
    };
    let images: BTreeSet<Term> = sub.iter().map(|(_, t)| t).collect();
    !sub.iter().any(violates) && (!cfg.injective_vars || images.len() == sub.len())
}

/// The reference enumeration, sharing no code with the matcher or the
/// fold search: tries every map from the pattern's variables to the
/// target's terms and keeps those with `π(pattern) ⊆ target` that meet
/// every constraint of `cfg`.
fn brute_force(pattern: &AtomSet, target: &AtomSet, cfg: &MatchConfig) -> Homs {
    let vars: Vec<VarId> = pattern.vars().into_iter().collect();
    let terms: Vec<Term> = target.terms().into_iter().collect();
    let mut found = Vec::new();
    let mut choice = vec![0usize; vars.len()];
    if !vars.is_empty() && terms.is_empty() {
        return found;
    }
    loop {
        let sub = Substitution::from_pairs(vars.iter().zip(&choice).map(|(&v, &i)| (v, terms[i])));
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
/// in injective mode.
#[test]
fn matcher_equals_brute_force_on_random_pairs() {
    let mut rng = SplitMix64::new(0x9E37);
    for case in 0..200 {
        let pattern = random_atomset(&mut rng, 3, 4, 4, 3);
        let target = random_atomset(&mut rng, 3, 10, 3, 3);
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
        let pattern = random_atomset(&mut rng, 3, 4, 4, 0);
        let target = random_atomset(&mut rng, 3, 8, 4, 0);
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

/// Is the endomorphism `r` of `a` a retraction (every image variable a
/// fixpoint; unbound variables are fixed) whose image avoids `x` and
/// that moves only variables of `movable` (`None`: any)?
fn is_fold(r: &Substitution, a: &AtomSet, x: VarId, movable: Option<&[VarId]>) -> bool {
    let image = |v: VarId| r.get(v).unwrap_or(Term::Var(v));
    a.vars().into_iter().all(|v| {
        let t = image(v);
        t != Term::Var(x)
            && t.as_var().is_none_or(|u| image(u) == t)
            && (t == Term::Var(v) || movable.is_none_or(|m| m.contains(&v)))
    }) && r.is_homomorphism(a, a)
}

/// The fold probe behind `core_of`, `is_core`, the frugal chase and the
/// incremental maintainer, against the brute-force enumerator. The
/// inputs are 1 000 random one-predicate atomsets (one predicate makes
/// atoms overlap, so folds and chains of bindings are common), every
/// other one with a random subset of its variables allowed to move. On
/// every variable `x`, a found retraction must be a fold of `x` (image
/// avoids `x`, only movable variables move), and an untruncated miss
/// means that no map of the variables to the terms is one.
#[test]
fn fold_probe_equals_brute_force_retraction_search() {
    let mut rng = SplitMix64::new(0x5EED);
    let budget = SearchBudget::default();
    let (mut folds, mut misses) = (0usize, 0usize);
    for case in 0..1000 {
        let a = random_atomset(&mut rng, 1, 8, 4, 2);
        let vars: Vec<VarId> = a.vars().into_iter().collect();
        let movable: Option<Vec<VarId>> =
            (case % 2 == 1).then(|| vars.iter().copied().filter(|_| rng.gen_bool()).collect());
        let movable = movable.as_deref();
        // Every endomorphism, as a map of all of a's variables.
        let endos = brute_force(&a, &a, &MatchConfig::default());
        for &x in &vars {
            let (found, truncated) = match movable {
                None => (find_retraction_eliminating(&a, x), false),
                Some(m) => {
                    let (r, stats) = fold_variables(&mut a.clone(), [x], Some(m), &budget);
                    ((!r.is_empty()).then_some(r), stats.truncated)
                }
            };
            match found {
                Some(r) => {
                    assert!(
                        is_fold(&r, &a, x, movable),
                        "case {case}, {x:?}: {r:?} is no fold within {movable:?} of {a:?}"
                    );
                    folds += 1;
                }
                None if !truncated => {
                    let witness = endos.iter().find(|pairs| {
                        is_fold(
                            &Substitution::from_pairs(pairs.iter().copied()),
                            &a,
                            x,
                            movable,
                        )
                    });
                    assert!(
                        witness.is_none(),
                        "case {case}, {x:?}: probe missed {witness:?} within {movable:?} of {a:?}"
                    );
                    misses += 1;
                }
                None => panic!("case {case}: an unbudgeted probe truncated"),
            }
        }
    }
    // Both verdicts must actually be exercised.
    assert!(
        folds >= 200 && misses >= 200,
        "{folds} folds, {misses} misses"
    );
}

/// The incremental maintainer's pivot certificate against the
/// brute-force enumerator, in both directions. Each case cores a random
/// one-predicate atomset with constants and repeated variables into `I`,
/// then inserts up to three atoms that may mention `I`'s variables,
/// fresh nulls (ids 3 and 4) and constants. The certificate must hold
/// exactly when no retraction of `I ∪ inserted` eliminates a variable of
/// `I`.
#[test]
fn pivot_certificate_is_exact() {
    let mut rng = SplitMix64::new(0x9170);
    let budget = SearchBudget::default();
    let (mut holds, mut fails) = (0usize, 0usize);
    for case in 0..800 {
        let core = core_of(&random_atomset(&mut rng, 1, 5, 3, 2)).core;
        let mut j = core.clone();
        let mut inserted = Vec::new();
        for _ in 0..1 + rng.gen_range(3) {
            let a = random_atom(&mut rng, 1, 5, 2);
            if j.insert(a.clone()) {
                inserted.push(a);
            }
        }
        let (certified, stats) = pivot_certificate(&j, &inserted, &budget);
        assert!(
            !stats.truncated,
            "case {case}: an unbudgeted pivot truncated"
        );
        let endos = brute_force(&j, &j, &MatchConfig::default());
        let old_folds = core.vars().into_iter().any(|x| {
            endos.iter().any(|pairs| {
                is_fold(
                    &Substitution::from_pairs(pairs.iter().copied()),
                    &j,
                    x,
                    None,
                )
            })
        });
        assert_eq!(
            certified, !old_folds,
            "case {case}: certificate {certified} but an old variable folds: {old_folds}\n\
             core {core:?}\ninserted {inserted:?}"
        );
        if certified {
            holds += 1;
        } else {
            fails += 1;
        }
    }
    // Both verdicts must actually be exercised.
    assert!(holds >= 150 && fails >= 150, "{holds} hold, {fails} fail");
}

/// `const_only` prunes branches that bind an answer variable to a null.
/// Over random answer-variable sets, the matcher enumerates the
/// brute-force set, and it is exactly the unconstrained set filtered to
/// constant images of those variables.
#[test]
fn const_only_equals_filtered_enumeration() {
    let mut rng = SplitMix64::new(0xC0_57);
    for case in 0..200 {
        let pattern = random_atomset(&mut rng, 3, 4, 4, 3);
        let target = random_atomset(&mut rng, 3, 10, 3, 3);
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
        let pattern = random_atomset(&mut rng, 3, 4, 4, 2);
        let target = random_atomset(&mut rng, 3, 10, 3, 3);
        let limit = 1 + rng.gen_range(12);
        let cfg = MatchConfig::default();
        let budget = SearchBudget::unlimited().with_node_limit(limit);
        let (got, truncated) = enumerate_budgeted(&pattern, &target, &cfg, &budget);
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

/// FNV-1a over 64 bits: a digest of an ordered stream of words, shared
/// with nothing the searches use.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    fn word(&mut self, w: u32) {
        w.to_le_bytes().into_iter().for_each(|b| self.byte(b));
    }

    fn term(&mut self, t: Term) {
        match t {
            Term::Var(v) => {
                self.byte(b'v');
                self.word(v.raw());
            }
            Term::Const(c) => {
                self.byte(b'c');
                self.word(c.raw());
            }
        }
    }

    fn bindings(&mut self, pairs: impl IntoIterator<Item = (VarId, Term)>) {
        self.byte(b'{');
        for (v, t) in pairs {
            self.word(v.raw());
            self.term(t);
        }
        self.byte(b'}');
    }
}

/// The order contract of the match front end: the unsorted sequence of
/// reported homomorphisms over the three random corpora above (plain,
/// injective, const-only), digested. Candidates go in ascending
/// `AtomId` order and the most constrained pattern atom goes first, ties
/// broken by pattern order; any change to that order changes a digest.
#[test]
fn matcher_enumeration_order_is_pinned() {
    let budget = SearchBudget::default();
    let seeded = |pattern: &AtomSet, target: &AtomSet, cfg: &MatchConfig, fnv: &mut Fnv| {
        let (homs, _) = enumerate_seeded(pattern, target, &Substitution::new(), cfg, &budget);
        fnv.byte(b'[');
        homs.into_iter().for_each(|h| fnv.bindings(h));
        fnv.byte(b']');
    };
    let mut plain = Fnv::new();
    let mut rng = SplitMix64::new(0x9E37);
    for _ in 0..200 {
        let pattern = random_atomset(&mut rng, 3, 4, 4, 3);
        let target = random_atomset(&mut rng, 3, 10, 3, 3);
        seeded(&pattern, &target, &MatchConfig::default(), &mut plain);
    }
    let mut injective = Fnv::new();
    let mut rng = SplitMix64::new(0xA5A5);
    for _ in 0..100 {
        let pattern = random_atomset(&mut rng, 3, 4, 4, 0);
        let target = random_atomset(&mut rng, 3, 8, 4, 0);
        let cfg = MatchConfig {
            injective_vars: true,
            ..MatchConfig::default()
        };
        seeded(&pattern, &target, &cfg, &mut injective);
    }
    let mut const_only = Fnv::new();
    let mut rng = SplitMix64::new(0xC0_57);
    for _ in 0..200 {
        let pattern = random_atomset(&mut rng, 3, 4, 4, 3);
        let target = random_atomset(&mut rng, 3, 10, 3, 3);
        let cfg = MatchConfig {
            const_only: (0..4)
                .filter(|_| rng.gen_bool())
                .map(VarId::from_raw)
                .collect(),
            ..MatchConfig::default()
        };
        seeded(&pattern, &target, &cfg, &mut const_only);
    }
    assert_eq!(
        [plain.0, injective.0, const_only.0],
        [
            0xa19b_5232_2d97_eebb,
            0x9b42_fb3d_093e_b042,
            0xca5f_3829_9795_e884
        ],
        "enumeration order changed"
    );
}

/// The order contract of the fold front end: on the fold corpus of
/// `fold_probe_equals_brute_force_retraction_search`, the retraction
/// each probe finds first (or its miss), digested — for every variable
/// without a movable set, and through `fold_variables` with it.
#[test]
fn fold_search_results_are_pinned() {
    let mut rng = SplitMix64::new(0x5EED);
    let budget = SearchBudget::default();
    let (mut free, mut within) = (Fnv::new(), Fnv::new());
    for case in 0..1000 {
        let a = random_atomset(&mut rng, 1, 8, 4, 2);
        let vars: Vec<VarId> = a.vars().into_iter().collect();
        let movable: Option<Vec<VarId>> =
            (case % 2 == 1).then(|| vars.iter().copied().filter(|_| rng.gen_bool()).collect());
        for &x in &vars {
            match find_retraction_eliminating(&a, x) {
                Some(r) => free.bindings(r.iter()),
                None => free.byte(b'-'),
            }
            if let Some(m) = &movable {
                let (r, _) = fold_variables(&mut a.clone(), [x], Some(m), &budget);
                within.bindings(r.iter());
            }
        }
    }
    assert_eq!(
        [free.0, within.0],
        [0xf1fb_f400_bcde_08ec, 0x0445_ea48_fb45_42e8],
        "first folds changed"
    );
}

/// The seeded searches the engine runs (semi-naive discovery seeds the
/// new atom, satisfaction seeds `π`) against the brute-force
/// enumerator filtered by agreement with the seed, on three kinds of
/// seed: consistent ones (restrictions of a homomorphism, so one
/// extension exists), contradictory ones (one pattern atom fully
/// determined onto a missing image, which must refute without a trial)
/// and ones that also bind variables outside the pattern (reported
/// alongside the pattern's). Plain, injective and const-only modes.
#[test]
fn seeded_matcher_equals_filtered_brute_force() {
    let mut rng = SplitMix64::new(0x5EED_0001);
    let budget = SearchBudget::default();
    let (mut extended, mut refuted) = (0usize, 0usize);
    for case in 0..1500 {
        let injective = case % 3 == 1;
        let consts = if injective { 0 } else { 3 };
        let pattern = random_atomset(&mut rng, 2, 4, 4, consts);
        let target = random_atomset(&mut rng, 2, 10, 3, consts);
        let cfg = MatchConfig {
            injective_vars: injective,
            const_only: if case % 3 == 2 {
                (0..4)
                    .filter(|_| rng.gen_bool())
                    .map(VarId::from_raw)
                    .collect()
            } else {
                BTreeSet::new()
            },
        };
        let all = brute_force(&pattern, &target, &cfg);
        let terms: Vec<Term> = target.terms().into_iter().collect();
        let pick = |rng: &mut SplitMix64| terms[rng.gen_range(terms.len())];
        let pattern_atoms: Vec<&Atom> = pattern.iter().collect();
        let mut seed = Substitution::new();
        let kind = rng.gen_range(3);
        match kind {
            // Contradictory: one atom's variables all bound, image missing.
            1 => {
                let atom = pattern_atoms[rng.gen_range(pattern_atoms.len())];
                for v in atom.vars() {
                    seed.bind(v, pick(&mut rng));
                }
                if target.contains(&seed.apply_atom(atom)) {
                    continue;
                }
            }
            // Consistent, possibly with variables outside the pattern.
            _ => {
                if let Some(h) = (!all.is_empty()).then(|| &all[rng.gen_range(all.len())]) {
                    for &(v, t) in h {
                        if rng.gen_bool() {
                            seed.bind(v, t);
                        }
                    }
                }
                if kind == 2 {
                    for k in 0..1 + rng.gen_range(2) as u32 {
                        seed.bind(VarId::from_raw(10 + k), pick(&mut rng));
                    }
                }
            }
        }
        let (mut got, outcome) = enumerate_seeded(&pattern, &target, &seed, &cfg, &budget);
        got.sort();
        let pattern_vars = pattern.vars();
        let mut want: Homs = all
            .iter()
            .filter(|h| h.iter().all(|&(v, t)| seed.get(v).is_none_or(|s| s == t)))
            .map(|h| {
                let mut sub = Substitution::from_pairs(h.iter().copied());
                for (v, t) in seed.iter().filter(|(v, _)| !pattern_vars.contains(v)) {
                    sub.bind(v, t);
                }
                sub
            })
            .filter(|sub| meets_constraints(sub, &cfg))
            .map(|sub| sub.iter().collect())
            .collect();
        want.sort();
        assert!(
            !outcome.truncated,
            "case {case}: unbudgeted search truncated"
        );
        assert_eq!(
            got, want,
            "case {case} (seed kind {kind}): {seed:?}\n{pattern:?}\n{target:?}\n{cfg:?}"
        );
        if kind == 1 {
            assert_eq!(outcome.nodes, 0, "case {case}: refutation cost trials");
            refuted += 1;
        } else if !got.is_empty() {
            extended += 1;
        }
    }
    assert!(
        extended >= 120 && refuted >= 120,
        "{extended} extended, {refuted} refuted"
    );
}

/// `fold_variables` composes its folds into one retraction. On random
/// atomsets, with and without a movable set, the composition equals the
/// sequential `Substitution::then` fold of one-candidate passes, and
/// both passes end on the same instance.
#[test]
fn fold_composition_equals_sequential_then() {
    let mut rng = SplitMix64::new(0xF01D);
    let budget = SearchBudget::default();
    let mut multi = 0usize;
    for case in 0..400 {
        let a = random_atomset(&mut rng, 1, 12, 8, 2);
        let vars: Vec<VarId> = a.vars().into_iter().collect();
        let movable: Option<Vec<VarId>> =
            (case % 2 == 1).then(|| vars.iter().copied().filter(|_| rng.gen_bool()).collect());
        let mut once = a.clone();
        let (total, _) =
            fold_variables(&mut once, vars.iter().copied(), movable.as_deref(), &budget);
        let mut stepwise = a.clone();
        let mut reference = Substitution::new();
        let mut folds = 0;
        for &x in &vars {
            let (r, _) = fold_variables(&mut stepwise, [x], movable.as_deref(), &budget);
            folds += usize::from(!r.is_empty());
            reference = reference.then(&r);
        }
        assert_eq!(total, reference, "case {case}: {a:?}");
        assert_eq!(once, stepwise, "case {case}");
        multi += usize::from(folds >= 2);
    }
    assert!(multi >= 50, "{multi} cases compose two or more folds");
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
fn core_chase_log_is_byte_identical_across_runs() {
    // Fold probing is serial, so the core chase is as deterministic as
    // matching and scheduling.
    let kb = KnowledgeBase::elevator();
    let cfg = ChaseConfig::variant(ChaseVariant::Core).with_max_applications(40);
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
    let cfg = ChaseConfig::variant(ChaseVariant::Core).with_max_applications(120);

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
