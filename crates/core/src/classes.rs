//! Empirical probes for the decidable classes of Figure 1.
//!
//! The classes are properties of *all* fact bases and *infinite*
//! sequences, so membership is only semi-decidable in general; these
//! probes report certified finite-horizon evidence:
//!
//! * **fes probe** — does the core chase terminate within budget on the
//!   given facts? (Termination certifies a finite universal model;
//!   non-termination within budget is evidence, not proof, of divergence.)
//! * **bts probe** — the certified treewidth profile of a fair restricted
//!   chase prefix (uniform bound = max of certified upper bounds).
//! * **core-bts probe** — the same for the core chase, plus the
//!   *recurring* bound proxy (the minimum over the profile's tail, per
//!   Section 5's recurring μ-boundedness).

use chase_engine::{
    boundedness::treewidth_profile, run_chase, ChaseConfig, ChaseVariant, Derivation, SchedulerKind,
};
use chase_homomorphism::SearchBudget;
use chase_treewidth::measure::{recurring_bound_from, uniform_bound};

use crate::kb::KnowledgeBase;

/// Evidence gathered about one KB's class memberships.
///
/// The probe keeps the two probe chases' derivations; the treewidth
/// profiles are read from them on demand. The admission gate reads only
/// the part of each profile its verdict needs
/// ([`crate::gate::analyze_kb`]).
#[derive(Clone, Debug)]
pub struct ClassProbe {
    /// Did the core chase terminate (fes evidence)?
    pub core_chase_terminated: bool,
    /// Did the restricted chase terminate (any terminating chase is
    /// trivially treewidth-bounded)?
    pub restricted_chase_terminated: bool,
    /// Applications performed by the core chase worker.
    pub core_applications: usize,
    /// The restricted probe chase.
    pub restricted: Derivation,
    /// The core probe chase.
    pub core: Derivation,
}

impl ClassProbe {
    /// Certified per-step treewidth upper bounds of the restricted chase.
    pub fn restricted_profile(&self) -> Vec<usize> {
        upper_profile(&self.restricted)
    }

    /// Certified per-step treewidth upper bounds of the core chase.
    pub fn core_profile(&self) -> Vec<usize> {
        upper_profile(&self.core)
    }

    /// The uniform treewidth bound observed on the restricted chase
    /// prefix (bts evidence when it stays flat as budgets grow).
    pub fn restricted_uniform_bound(&self) -> usize {
        uniform_bound(&self.restricted_profile())
    }

    /// The uniform treewidth bound observed on the core chase prefix.
    pub fn core_uniform_bound(&self) -> usize {
        uniform_bound(&self.core_profile())
    }

    /// The recurring-bound proxy on the core chase: the minimum certified
    /// upper bound over the trailing half of the profile.
    pub fn core_recurring_bound(&self) -> Option<usize> {
        let profile = self.core_profile();
        recurring_bound_from(&profile, profile.len() / 2)
    }
}

/// The certified treewidth upper bound of every instance of `d`.
fn upper_profile(d: &Derivation) -> Vec<usize> {
    treewidth_profile(d).iter().map(|b| b.upper).collect()
}

/// Probes a KB's class memberships with the given application budget
/// and no wall-clock or cancellation control.
pub fn probe_classes(kb: &KnowledgeBase, budget: usize) -> ClassProbe {
    probe_classes_budgeted(kb, budget, &SearchBudget::unlimited())
}

/// [`probe_classes`] under a shared [`SearchBudget`]: the budget's
/// deadline and cancel flags are threaded into both probe chases (and
/// their retraction searches), so an admission-time caller can cut a
/// probe that outlives its welcome — a probe interrupted mid-chase just
/// reports a short profile and a non-terminated outcome, which the
/// evidence heuristics treat as "no signal".
pub fn probe_classes_budgeted(
    kb: &KnowledgeBase,
    budget: usize,
    search: &SearchBudget,
) -> ClassProbe {
    // Only the *interruption* half of the budget is forwarded: its node
    // limit is sized for the MFA test's homomorphism searches, and
    // letting it truncate the probes' retraction searches would skew
    // the width profiles the evidence is read from.
    let mut interrupt = SearchBudget::unlimited();
    interrupt.deadline = search.deadline;
    interrupt.cancel = search.cancel.clone();
    let base = |variant| {
        ChaseConfig::variant(variant)
            .with_scheduler(SchedulerKind::DatalogFirst)
            .with_max_applications(budget)
            .with_max_atoms(100_000)
            .with_search_budget(interrupt.clone())
    };
    let mut vocab = kb.vocab.clone();
    let core = run_chase(&mut vocab, &kb.facts, &kb.rules, &base(ChaseVariant::Core));
    let mut vocab = kb.vocab.clone();
    let restricted = run_chase(
        &mut vocab,
        &kb.facts,
        &kb.rules,
        &base(ChaseVariant::Restricted),
    );
    ClassProbe {
        core_chase_terminated: core.outcome.terminated(),
        restricted_chase_terminated: restricted.outcome.terminated(),
        core_applications: core.stats.applications,
        restricted: restricted.derivation,
        core: core.derivation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_kbs::witnesses;

    #[test]
    fn probes_match_witness_expectations() {
        for w in witnesses::all_witnesses() {
            let kb = KnowledgeBase::new(w.vocab.clone(), w.facts.clone(), w.rules.clone());
            let probe = probe_classes(&kb, 60);
            assert_eq!(
                probe.core_chase_terminated, w.expect_fes,
                "fes probe for {}",
                w.name
            );
        }
    }

    #[test]
    fn bts_witness_keeps_flat_profile() {
        let w = chase_kbs::witnesses::bts_not_fes();
        let kb = KnowledgeBase::new(w.vocab, w.facts, w.rules);
        let probe = probe_classes(&kb, 30);
        assert!(!probe.core_chase_terminated);
        assert!(probe.restricted_uniform_bound() <= 1);
        assert!(probe.core_uniform_bound() <= 1);
        assert_eq!(probe.core_recurring_bound(), Some(1));
    }

    #[test]
    fn grid_grower_profile_climbs() {
        let w = chase_kbs::witnesses::grid_grower();
        let kb = KnowledgeBase::new(w.vocab, w.facts, w.rules);
        let probe = probe_classes(&kb, 60);
        assert!(!probe.core_chase_terminated);
        assert!(probe.restricted_uniform_bound() >= 2);
    }
}
