//! The Theorem 1 twin semi-decision procedure.
//!
//! The paper proves decidability of CQ entailment for KBs with a
//! recurringly treewidth-bounded core chase by *racing two
//! semi-decision procedures*:
//!
//! 1. a procedure guaranteed to detect `K ⊨ Q` in finite time
//!    (completeness of first-order logic — here: a fair chase whose
//!    elements are universal, checked against the query after every
//!    application), and
//! 2. a procedure guaranteed to detect `K ⊭ Q` (the paper: satisfiability
//!    of `F ∧ Σ ∧ ¬Q` over structures of treewidth `k`, for growing `k`,
//!    via Courcelle-style MSO decidability — here, the implementable
//!    fragment: chase termination yields a finite universal model that
//!    refutes the query).
//!
//! This module implements that architecture literally with two parallel
//! [`entail`] runs (core + restricted — they terminate in incomparable
//! situations, so racing both widens the certified-No reach), sharing an
//! early-stop flag. The full MSO-over-bounded-treewidth decision
//! procedure is non-implementable at astronomically large constants; the
//! substitution is documented in `DESIGN.md` and the outcome type is
//! explicit about certification.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use chase_atoms::AtomSet;
use chase_engine::{ChaseConfig, ChaseVariant};
use chase_homomorphism::{maps_to, SearchBudget};

use crate::entail::{entail, Entailment};
use crate::kb::KnowledgeBase;

/// Budgets for the twin procedure.
#[derive(Clone, Debug)]
pub struct DecideConfig {
    /// Rule-application budget for the restricted worker.
    pub max_applications: usize,
    /// Atom budget per worker.
    pub max_atoms: usize,
    /// Rule-application budget for the core worker. The core worker's
    /// role is *termination detection* (its per-step core computation is
    /// expensive and, on a divergent KB, pure overhead), so this is
    /// usually much smaller than `max_applications`.
    pub core_max_applications: usize,
}

impl Default for DecideConfig {
    fn default() -> Self {
        DecideConfig {
            max_applications: 2_000,
            max_atoms: 200_000,
            core_max_applications: 300,
        }
    }
}

/// Outcome of the twin procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecideOutcome {
    /// `K ⊨ Q` — certified by a homomorphism into a universal chase
    /// element.
    Entailed {
        /// Which worker found it.
        by: ChaseVariant,
        /// Applications performed by that worker.
        applications: usize,
    },
    /// `K ⊭ Q` — certified by a terminating chase (finite universal
    /// model not satisfying the query).
    NotEntailed {
        /// Which worker terminated.
        by: ChaseVariant,
        /// Atoms of the finite universal model.
        universal_model_atoms: usize,
    },
    /// Both workers exhausted their budgets without a certificate. The
    /// query maps into no chase element either worker built: evidence of
    /// non-entailment, not a proof.
    Exhausted,
}

/// Races the two semi-decision procedures of Theorem 1.
///
/// Each worker is an [`entail`] run. They share one cancel flag through
/// [`ChaseConfig::search_budget`]: the first certificate raises it, and
/// the engine polls it between applications and inside every core
/// phase's retraction search, so the loser stops promptly.
pub fn decide(kb: &KnowledgeBase, query: &AtomSet, cfg: &DecideConfig) -> DecideOutcome {
    if maps_to(query, &kb.facts) {
        return DecideOutcome::Entailed {
            by: ChaseVariant::Core,
            applications: 0,
        };
    }

    let stop = Arc::new(AtomicBool::new(false));
    let verdict: Mutex<Option<DecideOutcome>> = Mutex::new(None);

    let worker = |variant: ChaseVariant| {
        let budget = if variant == ChaseVariant::Core {
            cfg.core_max_applications
        } else {
            cfg.max_applications
        };
        let chase_cfg = ChaseConfig::variant(variant)
            .with_max_applications(budget)
            .with_max_atoms(cfg.max_atoms)
            .with_search_budget(SearchBudget::unlimited().with_cancel(Arc::clone(&stop)));
        let outcome = match entail(kb, query, &chase_cfg) {
            Entailment::Entailed { applications } => DecideOutcome::Entailed {
                by: variant,
                applications,
            },
            Entailment::NotEntailed {
                universal_model_atoms,
            } => DecideOutcome::NotEntailed {
                by: variant,
                universal_model_atoms,
            },
            Entailment::Unknown { .. } => return,
        };
        let mut slot = verdict.lock().expect("verdict lock poisoned");
        if slot.is_none() {
            *slot = Some(outcome);
            stop.store(true, Ordering::Release);
        }
    };

    std::thread::scope(|s| {
        s.spawn(|| worker(ChaseVariant::Core));
        s.spawn(|| worker(ChaseVariant::Restricted));
    });

    verdict
        .into_inner()
        .expect("verdict lock poisoned")
        .unwrap_or(DecideOutcome::Exhausted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decides_positive_on_nonterminating_kb() {
        let mut kb = KnowledgeBase::from_text("r(a, b). R: r(X, Y) -> r(Y, Z).").unwrap();
        let q = kb.parse_query("r(A, B), r(B, C), r(C, D)").unwrap();
        let out = decide(&kb, &q, &DecideConfig::default());
        assert!(matches!(out, DecideOutcome::Entailed { .. }), "{out:?}");
    }

    #[test]
    fn decides_negative_on_terminating_kb() {
        let mut kb =
            KnowledgeBase::from_text("r(a, b). r(b, c). T: r(X, Y), r(Y, Z) -> r(X, Z).").unwrap();
        let q = kb.parse_query("r(c, X)").unwrap();
        let out = decide(&kb, &q, &DecideConfig::default());
        assert!(matches!(out, DecideOutcome::NotEntailed { .. }), "{out:?}");
    }

    #[test]
    fn core_worker_certifies_no_where_restricted_diverges() {
        // r(X,Y) → ∃Z. r(X,Z): the restricted chase from r(a,b) applies
        // once (r(a,N)), then again on the new atom… while the core chase
        // folds every new null back and terminates.
        let mut kb = KnowledgeBase::from_text("r(a, b). R: r(X, Y) -> r(X, Z).").unwrap();
        let q = kb.parse_query("r(X, a)").unwrap();
        let out = decide(&kb, &q, &DecideConfig::default());
        assert!(
            matches!(
                out,
                DecideOutcome::NotEntailed {
                    by: ChaseVariant::Core,
                    ..
                } | DecideOutcome::NotEntailed {
                    by: ChaseVariant::Restricted,
                    ..
                }
            ),
            "{out:?}"
        );
    }

    #[test]
    fn exhausts_on_hard_negative() {
        let mut kb = KnowledgeBase::from_text("r(a, b). R: r(X, Y) -> r(Y, Z).").unwrap();
        let q = kb.parse_query("r(X, X)").unwrap(); // never entailed
        let out = decide(
            &kb,
            &q,
            &DecideConfig {
                max_applications: 10,
                max_atoms: 1_000,
                core_max_applications: 10,
            },
        );
        assert_eq!(out, DecideOutcome::Exhausted);
    }

    #[test]
    fn facts_shortcut() {
        let mut kb = KnowledgeBase::from_text("r(a, a).").unwrap();
        let q = kb.parse_query("r(X, X)").unwrap();
        assert!(matches!(
            decide(&kb, &q, &DecideConfig::default()),
            DecideOutcome::Entailed {
                applications: 0,
                ..
            }
        ));
    }
}
