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

use chase_atoms::{Atom, AtomSet, Term, Vocabulary};
use chase_engine::{run_chase_controlled, ChaseConfig, ChaseVariant, RuleSet};
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
    let mut preds = std::collections::BTreeSet::new();
    let mut consts = std::collections::BTreeSet::new();
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
    // Size check before any materialization: Σ_p |consts|^arity(p),
    // with overflow treated as "over the cap". +1 for the star below.
    let base = consts.len() as u128 + 1;
    let mut total: u128 = 0;
    for &(_, arity) in &preds {
        let tuples = u32::try_from(arity)
            .ok()
            .and_then(|a| base.checked_pow(a))
            .and_then(|t| total.checked_add(t));
        match tuples {
            Some(t) if t <= max_atoms as u128 => total = t,
            _ => return None,
        }
    }
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
        // All `|consts|^arity` tuples, counted in base `|consts|`.
        let mut tuple = vec![0usize; arity];
        loop {
            out.insert(Atom::new(
                p,
                tuple.iter().map(|&i| consts[i]).collect::<Vec<_>>(),
            ));
            let Some(pos) = (0..arity).rev().find(|&i| tuple[i] + 1 < consts.len()) else {
                break;
            };
            tuple[pos] += 1;
            for slot in tuple.iter_mut().skip(pos + 1) {
                *slot = 0;
            }
        }
    }
    Some(out)
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

/// Applications allowed when the budget carries no node limit.
const DEFAULT_APPLICATIONS: usize = 10_000;

/// Atom ceiling the tests grant the chase (and hence the critical
/// instance itself), derived from the application budget.
pub(crate) fn atom_cap(applications: usize) -> usize {
    applications.saturating_mul(8).max(1_000)
}

/// Runs the Marnette test under the shared [`SearchBudget`]: its node
/// limit caps chase applications, and its deadline and cancel flags cut
/// the run cooperatively — so a service can abort an admission-time
/// analysis exactly like any other search.
///
/// The critical instance itself is built under the same ceiling as the
/// chase's atom budget: a ruleset whose critical instance would already
/// blow past it (high predicate arity over several constants) returns
/// [`CriticalOutcome::BudgetExhausted`] immediately instead of stalling
/// the caller on construction.
#[must_use]
pub fn critical_instance_test(rules: &RuleSet, budget: &SearchBudget) -> CriticalOutcome {
    let mut vocab = Vocabulary::new();
    let applications = budget.node_limit.unwrap_or(DEFAULT_APPLICATIONS);
    let Some(facts) = critical_instance_capped(&mut vocab, rules, atom_cap(applications)) else {
        return CriticalOutcome::BudgetExhausted;
    };
    let cfg = ChaseConfig::variant(ChaseVariant::SemiOblivious)
        .with_max_applications(applications)
        .with_max_atoms(atom_cap(applications))
        .with_search_budget(budget.clone());
    let res = run_chase_controlled(&mut vocab, &facts, rules, &cfg, None, |_| {
        std::ops::ControlFlow::Continue(())
    });
    if res.outcome.terminated() {
        CriticalOutcome::TerminatesEverywhere {
            applications: res.stats.applications,
        }
    } else {
        CriticalOutcome::BudgetExhausted
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
