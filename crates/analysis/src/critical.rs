//! The critical-instance termination test (Marnette, PODS 2009 — the
//! paper's [17]).
//!
//! For the **semi-oblivious** chase, termination on the *critical
//! instance* — the instance containing every atom `p(∗, …, ∗)` over a
//! single fresh constant `∗` — implies termination on *every* instance.
//! Intuition: every instance maps homomorphically into the critical
//! instance (send all terms to `∗`), and semi-oblivious chase steps are
//! preserved under such homomorphisms, so a diverging chase anywhere
//! yields a diverging chase on the critical instance.
//!
//! Termination of the semi-oblivious chase on all instances gives a
//! finite universal model for every fact base, i.e. certified **fes**
//! membership — a *dynamic but complete-for-all-instances* certificate,
//! strictly stronger than the per-instance probes in
//! `chase_core::classes` and incomparable to weak/joint acyclicity.
//!
//! [`CriticalChase`] is the one Skolem chase of the critical instance
//! that both the MFA test ([`crate::mfa`]) and the k-boundedness rank
//! analysis ([`crate::kbounded`]) read. It is the engine's own
//! semi-oblivious chase: a [`ChaseRun`] under the deterministic
//! scheduler, which this module only steps and observes, so the
//! certificates and the engine's semi-oblivious runs come from one
//! implementation.

use std::collections::{BTreeSet, HashMap};
use std::ops::ControlFlow;

use chase_atoms::{Atom, AtomSet, ConstId, PredId, Term, VarId, Vocabulary};
use chase_engine::{ChaseConfig, ChaseOutcome, ChaseRun, ChaseVariant, RuleId, RuleSet};
use chase_homomorphism::SearchBudget;

/// The critical instance of a ruleset: every atom `p(c₁, …, cₖ)` over
/// the constants occurring in the rules plus one fresh constant `∗`,
/// for each predicate occurring in the rules.
///
/// Including the rules' own constants is essential for soundness: a
/// rule body like `ok(a), …` never matches an all-`∗` instance, so
/// omitting `a` would certify termination for rulesets that diverge on
/// any fact base containing `ok(a)`.
///
/// The instance has `Σ_p |consts|^arity(p)` atoms — exponential in the
/// worst predicate arity — so anything on a latency-sensitive path must
/// use [`critical_instance_capped`], which refuses to materialize past
/// a caller-chosen ceiling.
pub fn critical_instance(vocab: &mut Vocabulary, rules: &RuleSet) -> AtomSet {
    critical_instance_capped(vocab, rules, usize::MAX).unwrap_or_default()
}

/// [`critical_instance`] with an atom ceiling: returns `None` — without
/// doing the exponential work — when the instance would exceed
/// `max_atoms`. A single rule mentioning a few constants in a
/// high-arity predicate (say `p/8` over 9 constants) describes ~43M
/// atoms; callers under a [`SearchBudget`] must bail out instead of
/// stalling on construction.
pub fn critical_instance_capped(
    vocab: &mut Vocabulary,
    rules: &RuleSet,
    max_atoms: usize,
) -> Option<AtomSet> {
    let (preds, mut consts) = critical_signature(rules, max_atoms)?;
    // Mint a star id distinct from every rule constant. The rules' ids
    // come from the kb's vocabulary; when the caller hands us a fresh
    // one, the first interned names may collide id-wise with rule
    // constants, so keep minting until the id is genuinely new.
    let mut star = vocab.constant("critical_star");
    let mut n = 0usize;
    while consts.contains(&star) {
        n += 1;
        star = vocab.constant(&format!("critical_star_{n}"));
    }
    consts.insert(star);
    let consts: Vec<Term> = consts.into_iter().map(Term::Const).collect();
    let mut out = AtomSet::new();
    for (p, arity) in preds {
        for_each_tuple(&consts, arity, |terms| {
            out.insert(Atom::new(p, terms));
        });
    }
    Some(out)
}

/// The predicates (with arities) and the constants of a ruleset.
type Signature = (BTreeSet<(PredId, usize)>, BTreeSet<ConstId>);

/// The predicates (with arities) and the constants occurring in `rules`,
/// provided the critical instance over them — `Σ_p |consts|^arity(p)`
/// atoms, counting the star — has at most `max_atoms` atoms. The count
/// uses checked arithmetic (overflow is over the cap) and materializes
/// nothing.
pub(crate) fn critical_signature(rules: &RuleSet, max_atoms: usize) -> Option<Signature> {
    let mut preds = BTreeSet::new();
    let mut consts = BTreeSet::new();
    for (_, rule) in rules.iter() {
        for atom in rule.body().iter().chain(rule.head().iter()) {
            preds.insert((atom.pred(), atom.arity()));
            for t in atom.terms() {
                if let Term::Const(c) = t {
                    consts.insert(c);
                }
            }
        }
    }
    let base = consts.len() as u128 + 1;
    let mut total: u128 = 0;
    for &(_, arity) in &preds {
        total = u32::try_from(arity)
            .ok()
            .and_then(|a| base.checked_pow(a))
            .and_then(|t| total.checked_add(t))
            .filter(|&t| t <= max_atoms as u128)?;
    }
    Some((preds, consts))
}

/// Calls `f` on every `arity`-tuple over `labels`, counting in base
/// `labels.len()`.
pub(crate) fn for_each_tuple<T: Copy>(labels: &[T], arity: usize, mut f: impl FnMut(Vec<T>)) {
    let mut tuple = vec![0usize; arity];
    loop {
        f(tuple.iter().map(|&i| labels[i]).collect());
        let Some(pos) = (0..arity).rev().find(|&i| tuple[i] + 1 < labels.len()) else {
            return;
        };
        tuple[pos] += 1;
        for slot in tuple.iter_mut().skip(pos + 1) {
            *slot = 0;
        }
    }
}

/// Outcome of the critical-instance test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CriticalOutcome {
    /// The semi-oblivious chase terminated on the critical instance:
    /// **every** instance has a terminating (semi-oblivious, hence also
    /// core) chase — certified fes.
    TerminatesEverywhere {
        /// Applications used on the critical instance.
        applications: usize,
    },
    /// The budget ran out — no certificate either way (the test is only
    /// a semi-decision procedure).
    BudgetExhausted,
}

/// Applications the critical-instance tests allow when the budget
/// carries no node limit.
pub(crate) fn application_limit(budget: &SearchBudget) -> usize {
    budget.node_limit.unwrap_or(10_000)
}

/// Atom ceiling the tests grant the chase (and hence the critical
/// instance itself), derived from the application budget.
pub(crate) fn atom_cap(applications: usize) -> usize {
    applications.saturating_mul(8).max(1_000)
}

/// A Skolem symbol: one existential variable of one rule.
type Symbol = (RuleId, usize);

/// A fired application's identity: the semi-oblivious frontier key.
type FrontierKey = (RuleId, Vec<(VarId, Term)>);

/// The semi-oblivious (Skolem) chase of the critical instance: a
/// [`ChaseRun`] firing each round's unfired frontier keys in (rule, π)
/// order. Its discovery is semi-naive, so n applications visit O(n)
/// triggers.
#[derive(Default)]
pub(crate) struct CriticalChase {
    /// Atoms of the critical instance the run started from.
    pub critical_atoms: usize,
    /// The instance the run saturated at (empty when it did not).
    pub instance: AtomSet,
    /// Head images of every fired frontier key.
    pub outputs: HashMap<FrontierKey, Vec<Atom>>,
    /// Trigger applications performed.
    pub applications: usize,
    /// Did a round find no unfired frontier key?
    pub saturated: bool,
    /// The first null whose Skolem term tree holds its own symbol: the
    /// rule that minted it and the nesting depth at which it closed.
    pub cycle: Option<(RuleId, usize)>,
}

impl CriticalChase {
    /// Chases the critical instance under `budget` for at most `limit`
    /// applications, and past the first cyclic term for at most
    /// `cycle_slice` (none, when the run is already past it). `None`,
    /// without building it, when the critical instance exceeds
    /// [`atom_cap`] of `limit`.
    pub(crate) fn run(
        rules: &RuleSet,
        budget: &SearchBudget,
        mut limit: usize,
        cycle_slice: usize,
    ) -> Option<Self> {
        let mut vocab = Vocabulary::new();
        let critical = critical_instance_capped(&mut vocab, rules, atom_cap(limit))?;
        // Deterministic scheduler. The node limit bounds retraction
        // searches, which this variant never runs; the chase polls the
        // deadline and cancel flags.
        let cfg = ChaseConfig::variant(ChaseVariant::SemiOblivious)
            .with_max_applications(usize::MAX)
            .with_max_atoms(usize::MAX)
            .with_search_budget(budget.clone());
        let mut run = CriticalChase {
            critical_atoms: critical.len(),
            ..CriticalChase::default()
        };
        // Per null: the Skolem symbols of its term tree and its depth.
        let mut symbols: HashMap<Term, (BTreeSet<Symbol>, usize)> = HashMap::new();
        let mut chase = ChaseRun::new(&mut vocab, &critical, rules, &cfg, None);
        let outcome = loop {
            if let Some(outcome) = chase.step(|_| ControlFlow::Continue(())) {
                break Some(outcome);
            }
            // An application past the limit proves an unfired frontier
            // key remained: the run stops unsaturated.
            if run.applications >= limit {
                break None;
            }
            run.applications += 1;
            let step = chase.last_step().expect("a step applied a trigger");
            let (tr, pi_safe) = (&step.trigger, &step.pi_safe);
            let rule = rules.get(tr.rule);
            let out = rule.head().iter().map(|a| pi_safe.apply_atom(a)).collect();
            run.outputs.insert(tr.frontier_key(rules), out);
            if run.cycle.is_some() {
                continue; // only the first cyclic term is read
            }
            // Symbols below this application: everything in the term
            // trees of the nulls in the frontier image.
            let mut below: BTreeSet<Symbol> = BTreeSet::new();
            let mut depth = 1usize;
            for &x in rule.frontier_vars() {
                if let Some((syms, d)) = symbols.get(&tr.pi.apply_term(Term::Var(x))) {
                    below.extend(syms.iter().copied());
                    depth = depth.max(d + 1);
                }
            }
            // π_safe binds the existentials, in variable order, to the
            // application's fresh nulls.
            let nulls = pi_safe
                .iter()
                .filter(|(z, _)| rule.existential_vars().contains(z));
            for (j, (_, null)) in nulls.enumerate() {
                if below.contains(&(tr.rule, j)) {
                    run.cycle = Some((tr.rule, depth));
                    limit = limit.min(run.applications.max(cycle_slice));
                    break;
                }
                let mut syms = below.clone();
                syms.insert((tr.rule, j));
                symbols.insert(null, (syms, depth));
            }
        };
        run.saturated = outcome.is_some_and(ChaseOutcome::terminated);
        if run.saturated {
            run.instance = chase.instance().clone();
        }
        Some(run)
    }
}

/// Runs the Marnette test on the one Skolem chase of the critical
/// instance (the run MFA and k-boundedness read) under the shared
/// [`SearchBudget`]: its node limit caps chase applications, and its
/// deadline and cancel flags cut the run cooperatively — so a service
/// can abort an admission-time analysis exactly like any other search.
/// The test certifies termination exactly when that run saturates.
///
/// The critical instance itself is built under an atom ceiling derived
/// from the application limit: a ruleset whose critical instance would
/// already blow past it (high predicate arity over several constants)
/// returns [`CriticalOutcome::BudgetExhausted`] immediately instead of
/// stalling the caller on construction.
#[must_use]
pub fn critical_instance_test(rules: &RuleSet, budget: &SearchBudget) -> CriticalOutcome {
    match CriticalChase::run(rules, budget, application_limit(budget), usize::MAX) {
        Some(run) if run.saturated => CriticalOutcome::TerminatesEverywhere {
            applications: run.applications,
        },
        _ => CriticalOutcome::BudgetExhausted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_parser::parse_program;

    fn rules(src: &str) -> RuleSet {
        parse_program(src).expect("parses").rules
    }

    fn budget(n: usize) -> SearchBudget {
        SearchBudget::unlimited().with_node_limit(n)
    }

    #[test]
    fn critical_instance_shape() {
        let rs = rules("R: r(X, Y) -> s(Y, Z). S: s(X, Y) -> t(X).");
        let mut vocab = Vocabulary::new();
        let ci = critical_instance(&mut vocab, &rs);
        assert_eq!(ci.len(), 3, "one atom per predicate");
        assert!(ci.vars().is_empty(), "fully ground");
        assert_eq!(ci.constants().len(), 1);
    }

    #[test]
    fn critical_instance_includes_rule_constants() {
        // `ok(a)` never matches an all-∗ instance; without `a` in the
        // critical instance the diverging recursion below would be
        // (unsoundly) certified as terminating.
        let rs = rules("R: ok(a), r(X, Y) -> r(Y, Z).");
        let mut vocab = Vocabulary::new();
        let ci = critical_instance(&mut vocab, &rs);
        // ok/1 over {∗, a} = 2 atoms; r/2 over {∗, a}² = 4 atoms.
        assert_eq!(ci.len(), 6);
        assert_eq!(ci.constants().len(), 2);
        assert_eq!(
            critical_instance_test(&rs, &budget(100)),
            CriticalOutcome::BudgetExhausted
        );
    }

    #[test]
    fn weakly_acyclic_ruleset_passes() {
        let rs = rules("R: r(X, Y) -> s(Y, Z). S: s(X, Y) -> t(X).");
        assert!(matches!(
            critical_instance_test(&rs, &budget(200)),
            CriticalOutcome::TerminatesEverywhere { .. }
        ));
    }

    #[test]
    fn datalog_passes() {
        let rs = rules("T: r(X, Y), r(Y, Z) -> r(X, Z).");
        assert!(matches!(
            critical_instance_test(&rs, &budget(200)),
            CriticalOutcome::TerminatesEverywhere { .. }
        ));
    }

    #[test]
    fn diverging_ruleset_exhausts_budget() {
        // r(X,Y) → ∃Z. r(Y,Z) diverges under the semi-oblivious chase on
        // the critical instance (each fresh null spawns a new frontier
        // class).
        let rs = rules("R: r(X, Y) -> r(Y, Z).");
        assert_eq!(
            critical_instance_test(&rs, &budget(100)),
            CriticalOutcome::BudgetExhausted
        );
    }

    #[test]
    fn high_arity_blowup_is_rejected_not_materialized() {
        // p/8 over 8 rule constants + ∗ describes 9^8 ≈ 43M atoms; the
        // capped constructor must refuse without enumerating, and the
        // budgeted test must come back immediately as inconclusive.
        let rs = rules("R: p(a, b, c, d, e, f, g, h) -> q(Z).");
        let mut vocab = Vocabulary::new();
        let started = std::time::Instant::now();
        assert_eq!(critical_instance_capped(&mut vocab, &rs, 100_000), None);
        assert_eq!(
            critical_instance_test(&rs, &budget(1_000)),
            CriticalOutcome::BudgetExhausted
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "cap check must not enumerate the instance"
        );
        // The count is exact, not a heuristic: a 6-atom instance (ok/1
        // over {∗,a} plus r/2 over {∗,a}²) builds at cap 6 and refuses
        // at cap 5.
        let small = rules("R: ok(a), r(X, Y) -> r(Y, Z).");
        let mut vocab = Vocabulary::new();
        assert_eq!(critical_instance_capped(&mut vocab, &small, 5), None);
        assert_eq!(
            critical_instance_capped(&mut vocab, &small, 6).map(|ci| ci.len()),
            Some(6)
        );
    }

    #[test]
    fn chase_continues_past_a_cycle_only_for_its_slice() {
        // The second application nests R's symbol inside itself.
        let rs = rules("R: r(X, Y) -> r(Y, Z).");
        let b = SearchBudget::unlimited();
        let stopped = CriticalChase::run(&rs, &b, 1_000, 0).expect("fits");
        assert_eq!(stopped.applications, 2);
        assert_eq!(stopped.cycle, Some((0, 2)));
        let sliced = CriticalChase::run(&rs, &b, 1_000, 40).expect("fits");
        assert_eq!(sliced.applications, 40);
        assert!(!sliced.saturated);
        assert_eq!(sliced.outputs.len(), 40, "one head image per fired key");
        // A slice never stretches the run past its own limit.
        let capped = CriticalChase::run(&rs, &b, 30, 40).expect("fits");
        assert_eq!(capped.applications, 30);
    }

    #[test]
    fn saturation_at_exactly_the_limit_counts() {
        // Round 1 fires R and S on the critical instance; round 2 meets
        // S again on R's output `s(∗, n)`, whose frontier key `X = ∗`
        // has fired. Two applications saturate the run.
        let rs = rules("R: r(X, Y) -> s(Y, Z). S: s(X, Y) -> t(X).");
        let b = SearchBudget::unlimited();
        let run = CriticalChase::run(&rs, &b, 2, usize::MAX).expect("fits");
        assert!(run.saturated);
        assert_eq!(run.applications, 2);
        assert_eq!(run.outputs.len(), 2);
        let run = CriticalChase::run(&rs, &b, 1, usize::MAX).expect("fits");
        assert!(!run.saturated, "S's key was still unfired");
        assert_eq!(run.applications, 1);
        assert_eq!(run.outputs.len(), 1);
    }

    #[test]
    fn critical_test_catches_termination_beyond_acyclicity() {
        // The join-blocker pattern:
        //   R1: p(X), ok(X) → ∃Z. q(X, Z)
        //   R2: q(X, Z) → p(Z)
        // Position flow: special (p,1) → (q,2), regular (q,2) → (p,1) —
        // a cycle through a special edge ⇒ not weakly acyclic. Yet no
        // rule ever creates an `ok` fact, so invented nulls can never
        // re-fire R1: the semi-oblivious chase terminates on every
        // instance, and the critical test certifies it.
        let rs = rules("R1: p(X), ok(X) -> q(X, Z). R2: q(X, Z) -> p(Z).");
        assert!(!crate::acyclicity::weakly_acyclic(&rs));
        assert!(matches!(
            critical_instance_test(&rs, &budget(100)),
            CriticalOutcome::TerminatesEverywhere { .. }
        ));

        // Variant that defeats joint acyclicity too: route the null back
        // through q's *other* column so Pos(Z) reaches every body
        // position of X, yet the join still never fires on invented
        // values because q-facts pair nulls with the old constant only…
        // p(X), q(X, X) → ∃Z. p(Z), q(Z, X): Pos(Z) = {(p,1), (q,1)};
        // X's body positions {(p,1), (q,1), (q,2)} ⊄ Pos(Z) ⇒ JA holds.
        // Keep the first (JA-certified) ruleset as the headline check and
        // assert the critical test handles a non-JA diverging case
        // correctly as well:
        let diverging = rules("R: p(X) -> e(X, Z), p(Z).");
        assert!(!crate::acyclicity::jointly_acyclic(&diverging));
        assert_eq!(
            critical_instance_test(&diverging, &budget(60)),
            CriticalOutcome::BudgetExhausted
        );
    }
}
