//! The Theorem 1 twin semi-decision procedure.
//!
//! The paper proves decidability of CQ entailment for KBs with a
//! recurringly treewidth-bounded core chase by running two semi-decision
//! procedures side by side: one detects `K ⊨ Q` in finite time
//! (completeness of first-order logic — here, a fair chase whose elements
//! are universal, checked against the query after every application);
//! the other detects `K ⊭ Q` (satisfiability of `F ∧ Σ ∧ ¬Q` over
//! structures of treewidth `k`, for growing `k` — here, the implementable
//! fragment: a terminating chase yields a finite universal model that
//! refutes the query). The full MSO-over-bounded-treewidth procedure is
//! non-implementable at astronomically large constants; `DESIGN.md`
//! documents the substitution, and the outcome type says what is
//! certified.
//!
//! [`decide`] dovetails a core run and a restricted run in one thread
//! (they terminate in incomparable situations, so both together widen
//! the certified-No reach).

use chase_atoms::AtomSet;
use chase_engine::{ChaseConfig, ChaseRun, ChaseVariant};
use chase_homomorphism::maps_to;

use crate::entail::{check_step, Entailment};
use crate::kb::KnowledgeBase;

/// Budgets for the twin procedure.
#[derive(Clone, Debug)]
pub struct DecideConfig {
    /// Rule-application budget for the restricted run.
    pub max_applications: usize,
    /// Atom budget per run.
    pub max_atoms: usize,
    /// Rule-application budget for the core run. The core run's
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
        /// Which run found it.
        by: ChaseVariant,
        /// Applications performed by that run.
        applications: usize,
    },
    /// `K ⊭ Q` — certified by a terminating chase (finite universal
    /// model not satisfying the query).
    NotEntailed {
        /// Which run terminated.
        by: ChaseVariant,
        /// Atoms of the finite universal model.
        universal_model_atoms: usize,
    },
    /// Both runs exhausted their budgets without a certificate. The
    /// query maps into no chase element either run built: evidence of
    /// non-entailment, not a proof.
    Exhausted,
}

/// Dovetails the two semi-decision procedures of Theorem 1.
///
/// A core run and a restricted run take one application each in turn,
/// core first, and each is checked against the query after every
/// application. A run that ends without a certificate drops out; the
/// first certificate wins, so the verdict depends only on the input.
pub fn decide(kb: &KnowledgeBase, query: &AtomSet, cfg: &DecideConfig) -> DecideOutcome {
    if maps_to(query, &kb.facts) {
        return DecideOutcome::Entailed {
            by: ChaseVariant::Core,
            applications: 0,
        };
    }
    let configs = [
        (ChaseVariant::Core, cfg.core_max_applications),
        (ChaseVariant::Restricted, cfg.max_applications),
    ]
    .map(|(variant, budget)| {
        ChaseConfig::variant(variant)
            .with_max_applications(budget)
            .with_max_atoms(cfg.max_atoms)
    });
    let mut vocabs = [kb.vocab.clone(), kb.vocab.clone()];
    let mut runs: Vec<ChaseRun<'_>> = configs
        .iter()
        .zip(&mut vocabs)
        .map(|(c, vocab)| ChaseRun::new(vocab, &kb.facts, &kb.rules, c, None))
        .collect();
    loop {
        // An ended run's step returns its outcome again, so a run that
        // ended without a certificate drops out.
        let mut live = false;
        for (run, c) in runs.iter_mut().zip(&configs) {
            let by = c.variant;
            match check_step(run, query) {
                None => live = true,
                Some(Entailment::Unknown { .. }) => {}
                Some(Entailment::Entailed { applications }) => {
                    return DecideOutcome::Entailed { by, applications };
                }
                Some(Entailment::NotEntailed {
                    universal_model_atoms,
                }) => {
                    return DecideOutcome::NotEntailed {
                        by,
                        universal_model_atoms,
                    };
                }
            }
        }
        if !live {
            return DecideOutcome::Exhausted;
        }
    }
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
        // r(X,Y) → ∃Z. r(X,Z) is satisfied on r(a,b) already, so both
        // runs terminate before any application; the core run steps
        // first, so its certificate wins.
        let mut kb = KnowledgeBase::from_text("r(a, b). R: r(X, Y) -> r(X, Z).").unwrap();
        let q = kb.parse_query("r(X, a)").unwrap();
        assert_eq!(
            decide(&kb, &q, &DecideConfig::default()),
            DecideOutcome::NotEntailed {
                by: ChaseVariant::Core,
                universal_model_atoms: 1,
            }
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
