//! Budgeted CQ entailment through the chase.
//!
//! Soundness of the two certified answers:
//!
//! * **Entailed** — every chase element `F_i` is *universal* for the KB
//!   (Proposition 1.1): it maps homomorphically into every model. If the
//!   query maps into some `F_i` (equivalently, into the natural
//!   aggregation of the recorded prefix), it maps into every model.
//! * **Not entailed (certified)** — if the restricted/core chase
//!   terminates, its final instance is a (finite) universal *model*; a
//!   query that fails to map into it is not entailed.
//!
//! When the budget runs out without either certificate the result is
//! [`Entailment::Unknown`] with the horizon reached — Theorem 2 tells us
//! a complete procedure exists for recurringly treewidth-bounded KBs, but
//! any implementation must still choose finite budgets.

use std::ops::ControlFlow;

use chase_atoms::AtomSet;
use chase_engine::{ChaseConfig, ChaseOutcome, ChaseRun};
use chase_homomorphism::maps_to;

use crate::kb::KnowledgeBase;

/// The result of a budgeted entailment check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Entailment {
    /// `K ⊨ Q`, witnessed at the given rule-application count.
    Entailed {
        /// Number of rule applications performed when the witness
        /// homomorphism appeared.
        applications: usize,
    },
    /// `K ⊭ Q`, certified by a terminating chase (finite universal
    /// model).
    NotEntailed {
        /// Size (in atoms) of the finite universal model.
        universal_model_atoms: usize,
    },
    /// Budget exhausted without a certificate.
    Unknown {
        /// Rule applications performed before giving up.
        applications: usize,
    },
}

impl Entailment {
    /// Is this a definite positive answer?
    pub fn is_entailed(&self) -> bool {
        matches!(self, Entailment::Entailed { .. })
    }

    /// Is this a definite negative answer?
    pub fn is_not_entailed(&self) -> bool {
        matches!(self, Entailment::NotEntailed { .. })
    }
}

/// Decides `K ⊨ Q` with the given chase configuration (the variant
/// matters: the core chase terminates strictly more often, the restricted
/// chase is cheaper per step).
///
/// The query is checked against the facts first, then after every rule
/// application, so the positive side stops as early as possible.
pub fn entail(kb: &KnowledgeBase, query: &AtomSet, cfg: &ChaseConfig) -> Entailment {
    if maps_to(query, &kb.facts) {
        return Entailment::Entailed { applications: 0 };
    }
    let mut vocab = kb.vocab.clone();
    let mut run = ChaseRun::new(&mut vocab, &kb.facts, &kb.rules, cfg, None);
    loop {
        if let Some(verdict) = check_step(&mut run, query) {
            return verdict;
        }
    }
}

/// Steps `run` once and checks `query` against the instance it reached:
/// `None` while the run goes on without a verdict.
pub(crate) fn check_step(run: &mut ChaseRun<'_>, query: &AtomSet) -> Option<Entailment> {
    let outcome = run.step(|_| ControlFlow::Continue(()));
    let applications = run.stats().applications;
    match outcome {
        None if maps_to(query, run.instance()) => Some(Entailment::Entailed { applications }),
        None => None,
        // Every variant's fixpoint satisfies all triggers, so it is a
        // universal model and certifies the miss.
        Some(ChaseOutcome::Terminated) => Some(Entailment::NotEntailed {
            universal_model_atoms: run.instance().len(),
        }),
        Some(_) => Some(Entailment::Unknown { applications }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_engine::ChaseVariant;

    fn kb() -> KnowledgeBase {
        KnowledgeBase::from_text("r(a, b). r(b, c). T: r(X, Y), r(Y, Z) -> r(X, Z).").unwrap()
    }

    #[test]
    fn entailed_by_facts() {
        let mut k = kb();
        let q = k.parse_query("r(a, b)").unwrap();
        assert_eq!(
            entail(&k, &q, &ChaseConfig::variant(ChaseVariant::Core)),
            Entailment::Entailed { applications: 0 }
        );
    }

    #[test]
    fn entailed_by_closure() {
        let mut k = kb();
        let q = k.parse_query("r(a, c)").unwrap();
        assert!(entail(&k, &q, &ChaseConfig::variant(ChaseVariant::Core)).is_entailed());
    }

    #[test]
    fn refuted_on_termination() {
        let mut k = kb();
        let q = k.parse_query("r(c, a)").unwrap();
        let res = entail(&k, &q, &ChaseConfig::variant(ChaseVariant::Core));
        assert!(res.is_not_entailed(), "{res:?}");
    }

    #[test]
    fn unknown_on_budget() {
        let mut k = KnowledgeBase::from_text("r(a, b). R: r(X, Y) -> r(Y, Z).").unwrap();
        let q = k.parse_query("r(X, a)").unwrap(); // never derivable
        let cfg = ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(5);
        assert_eq!(
            entail(&k, &q, &cfg),
            Entailment::Unknown { applications: 5 }
        );
    }

    #[test]
    fn entailed_in_nonterminating_kb() {
        // Chain KB entails arbitrarily long r-paths.
        let mut k = KnowledgeBase::from_text("r(a, b). R: r(X, Y) -> r(Y, Z).").unwrap();
        let q = k.parse_query("r(A, B), r(B, C), r(C, D), r(D, E)").unwrap();
        let cfg = ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(50);
        assert!(entail(&k, &q, &cfg).is_entailed());
    }
}
