//! Model-faithful-acyclicity-style (MFA) termination certificates.
//!
//! Runs the semi-oblivious (Skolem) chase from the critical instance
//! and tracks, for every fresh null, the set of Skolem symbols (rule,
//! existential-variable) occurring in its term tree. The chase of any
//! instance embeds into this run, so:
//!
//! * if the run saturates with no null nesting its *own* symbol, the
//!   Skolem chase terminates on **every** instance — a certificate
//!   strictly more general than joint acyclicity (MFA ⊋ JA ⊋ WA);
//! * if some null's term tree contains its own symbol, the critical
//!   chase has begun a self-similar expansion — MFA is **refuted**, and
//!   the witness (rule, nesting depth) is reported. This refutes MFA
//!   membership, not termination itself (cyclic Skolem terms can still
//!   be produced by terminating rulesets, but in practice the witness
//!   is the divergence pattern);
//! * if the [`SearchBudget`] runs out first, the test is inconclusive.
//!
//! The search honours the shared [`SearchBudget`]: its node limit caps
//! trigger applications, and its deadline/cancel flags are polled so
//! the service can abort an admission-time analysis like any other
//! search.

use std::collections::{BTreeSet, HashMap, HashSet};

use chase_atoms::{Term, VarId, Vocabulary};
use chase_engine::{all_triggers, apply_trigger, fresh_pi_safe, RuleId, RuleSet};
use chase_homomorphism::SearchBudget;

use crate::critical::{atom_cap, critical_instance_capped};

/// A Skolem symbol: one existential variable of one rule.
type Symbol = (RuleId, usize);

/// Applications allowed when the budget carries no node limit.
const DEFAULT_APPLICATIONS: usize = 10_000;

/// Outcome of the MFA-style cyclic-nesting test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MfaOutcome {
    /// The Skolem chase of the critical instance saturated without any
    /// cyclically nested Skolem term: the semi-oblivious chase
    /// terminates on every instance (certified fes).
    Acyclic {
        /// Trigger applications used.
        applications: usize,
    },
    /// A fresh null's term tree contains its own Skolem symbol — the
    /// self-similar expansion that drives non-termination.
    CyclicTerm {
        /// The rule whose existential restarted its own expansion.
        rule: RuleId,
        /// Skolem-term nesting depth at which the cycle closed.
        depth: usize,
    },
    /// Budget (node limit, deadline or cancellation) exhausted first.
    BudgetExhausted {
        /// Trigger applications performed before giving up.
        applications: usize,
    },
}

/// Runs the MFA-style test for `rules` under `budget`.
///
/// The critical instance is materialized under an atom ceiling derived
/// from the budget: a ruleset whose instance would exceed it (a
/// high-arity predicate over a handful of constants is enough to
/// describe tens of millions of atoms) is reported
/// [`MfaOutcome::BudgetExhausted`] up front, so an admission-time
/// caller never stalls on construction.
#[must_use]
pub fn mfa_test(rules: &RuleSet, budget: &SearchBudget) -> MfaOutcome {
    let mut vocab = Vocabulary::new();
    let max_applications = budget.node_limit.unwrap_or(DEFAULT_APPLICATIONS);
    let Some(mut instance) =
        critical_instance_capped(&mut vocab, rules, atom_cap(max_applications))
    else {
        return MfaOutcome::BudgetExhausted { applications: 0 };
    };

    // Per-null provenance: all Skolem symbols in the null's term tree,
    // plus its nesting depth.
    let mut symbols: HashMap<VarId, BTreeSet<Symbol>> = HashMap::new();
    let mut depth: HashMap<VarId, usize> = HashMap::new();
    let mut fired: HashSet<(RuleId, Vec<(VarId, Term)>)> = HashSet::new();
    let mut applications = 0usize;

    loop {
        let mut progressed = false;
        let triggers = all_triggers(rules, &instance);
        for tr in triggers {
            if !fired.insert(tr.frontier_key(rules)) {
                continue;
            }
            if applications >= max_applications || budget.interrupted() {
                return MfaOutcome::BudgetExhausted { applications };
            }
            let rule = rules.get(tr.rule);
            // Symbols below this application: everything in the term
            // trees of the nulls in the frontier image.
            let mut below: BTreeSet<Symbol> = BTreeSet::new();
            let mut below_depth = 0usize;
            for &x in rule.frontier_vars() {
                if let Term::Var(u) = tr.pi.apply_term(Term::Var(x)) {
                    if let Some(syms) = symbols.get(&u) {
                        below.extend(syms.iter().copied());
                        below_depth = below_depth.max(depth[&u]);
                    }
                }
            }
            let (pi_safe, _) = fresh_pi_safe(&mut vocab, rules, &tr);
            apply_trigger(rules, &mut instance, &tr, &pi_safe);
            applications += 1;
            for (j, &z) in rule.existential_vars().iter().enumerate() {
                let sym: Symbol = (tr.rule, j);
                if below.contains(&sym) {
                    return MfaOutcome::CyclicTerm {
                        rule: tr.rule,
                        depth: below_depth + 1,
                    };
                }
                if let Some(Term::Var(null)) = pi_safe.get(z) {
                    let mut syms = below.clone();
                    syms.insert(sym);
                    symbols.insert(null, syms);
                    depth.insert(null, below_depth + 1);
                }
            }
            progressed = true;
        }
        if !progressed {
            return MfaOutcome::Acyclic { applications };
        }
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
    fn weakly_acyclic_ruleset_is_mfa() {
        let rs = rules("R: r(X, Y) -> s(Y, Z). S: s(X, Y) -> t(X).");
        assert!(matches!(
            mfa_test(&rs, &budget(200)),
            MfaOutcome::Acyclic { .. }
        ));
    }

    #[test]
    fn datalog_is_mfa() {
        let rs = rules("T: r(X, Y), r(Y, Z) -> r(X, Z).");
        assert!(matches!(
            mfa_test(&rs, &budget(200)),
            MfaOutcome::Acyclic { .. }
        ));
    }

    #[test]
    fn diverging_chain_refuted_with_witness() {
        // r(X,Y) → ∃Z. r(Y,Z): the second application nests the Skolem
        // symbol inside itself.
        let rs = rules("R: r(X, Y) -> r(Y, Z).");
        assert_eq!(
            mfa_test(&rs, &budget(200)),
            MfaOutcome::CyclicTerm { rule: 0, depth: 2 }
        );
    }

    #[test]
    fn join_blocker_terminates_beyond_acyclicity() {
        // Not weakly acyclic, but `ok` is never derived, so the null
        // never re-fires R1 (see critical.rs for the full story).
        let rs = rules("R1: p(X), ok(X) -> q(X, Z). R2: q(X, Z) -> p(Z).");
        assert!(!crate::acyclicity::weakly_acyclic(&rs));
        assert!(matches!(
            mfa_test(&rs, &budget(200)),
            MfaOutcome::Acyclic { .. }
        ));
    }

    #[test]
    fn tiny_budget_is_inconclusive() {
        let rs = rules("R: r(X, Y) -> r(Y, Z).");
        assert_eq!(
            mfa_test(&rs, &budget(0)),
            MfaOutcome::BudgetExhausted { applications: 0 }
        );
    }

    #[test]
    fn high_arity_blowup_is_inconclusive_not_materialized() {
        let rs = rules("R: p(a, b, c, d, e, f, g, h) -> q(Z).");
        let started = std::time::Instant::now();
        assert_eq!(
            mfa_test(&rs, &budget(1_000)),
            MfaOutcome::BudgetExhausted { applications: 0 }
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "the 9^8-atom critical instance must not be enumerated"
        );
    }

    #[test]
    fn cancel_flag_aborts() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(false));
        flag.store(true, Ordering::Relaxed);
        let b = SearchBudget::unlimited().with_cancel(flag.clone());
        let rs = rules("R: r(X, Y) -> r(Y, Z).");
        assert!(matches!(
            mfa_test(&rs, &b),
            MfaOutcome::BudgetExhausted { applications: 0 }
        ));
    }
}
