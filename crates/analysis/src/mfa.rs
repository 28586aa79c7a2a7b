//! Model-faithful-acyclicity-style (MFA) termination certificates.
//!
//! Reads the semi-oblivious (Skolem) chase of the critical instance
//! ([`CriticalChase`], shared with the k-boundedness test), which tracks
//! for every fresh null the set of Skolem symbols (rule,
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
//! The chase honours the shared [`SearchBudget`] (node limit, deadline,
//! cancel flag), so the service can abort an admission-time analysis
//! like any other search.

use chase_engine::{RuleId, RuleSet};
use chase_homomorphism::SearchBudget;

use crate::critical::{application_limit, CriticalChase};

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

/// Runs the MFA-style test for `rules` under `budget`. A critical
/// instance over the budget's atom cap (a high-arity predicate over a
/// handful of constants describes tens of millions of atoms) is reported
/// [`MfaOutcome::BudgetExhausted`] up front, without being built.
#[must_use]
pub fn mfa_test(rules: &RuleSet, budget: &SearchBudget) -> MfaOutcome {
    mfa_outcome(CriticalChase::run(rules, budget, application_limit(budget), 0).as_ref())
}

/// Reads the MFA outcome off a critical chase run at the MFA limit
/// (`None`: the critical instance exceeded that limit's atom cap).
pub(crate) fn mfa_outcome(run: Option<&CriticalChase>) -> MfaOutcome {
    let Some(run) = run else {
        return MfaOutcome::BudgetExhausted { applications: 0 };
    };
    let applications = run.applications;
    match run.cycle {
        Some((rule, depth)) => MfaOutcome::CyclicTerm { rule, depth },
        None if run.saturated => MfaOutcome::Acyclic { applications },
        None => MfaOutcome::BudgetExhausted { applications },
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
