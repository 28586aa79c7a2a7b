//! # chase-engine
//!
//! Existential rules and the chase, implementing Sections 2, 3 and 8 of
//! *Bounded Treewidth and the Infinite Core Chase* (PODS 2023):
//!
//! * [`Rule`] / [`RuleSet`] — existential rules `B → H` with frontier and
//!   existential variables;
//! * [`Trigger`] — a rule plus a homomorphism of its body into an
//!   instance; trigger application `α(I, tr)` and satisfaction;
//! * [`Derivation`] — the paper's Definition 1: a log of triggers and
//!   *simplifications* (retractions) over the initial instance, replayed
//!   into the instances on demand, with the trace maps `σ_i^j` of
//!   Definition 2 and the fairness notion of Definition 3;
//! * [`chase::run_chase`] — a budgeted, fair, deterministic chase runner
//!   for the oblivious, semi-oblivious, restricted and core variants;
//! * [`robust`] — the robust renaming (Definition 14), robust sequence
//!   (Definition 15) and robust aggregation (Definition 16), which turn a
//!   non-monotonic derivation into a finitely universal model while
//!   preserving treewidth bounds (Propositions 10–12);
//! * [`aggregation`] — the natural aggregation `D*` of Section 3;
//! * [`boundedness`] — treewidth profiles of derivations, feeding the
//!   uniform/recurring boundedness analyses of Section 5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregation;
pub mod boundedness;
pub mod chase;
pub mod control;
mod derivation;
pub mod dot;
pub mod prng;
pub mod robust;
mod rule;
pub mod skolem;
mod trigger;

pub use chase::{
    run_chase, run_chase_controlled, run_chase_observed, ChaseConfig, ChaseOutcome, ChaseResult,
    ChaseStats, ChaseVariant, CoreMaintenance, SchedulerKind, SuspendReason,
};
pub use control::{CancelToken, ChaseEvent, FaultPlan, FaultSite};
pub use derivation::{Derivation, DerivationElement, DerivationStep};
pub use robust::{RobustSequence, VarTrace};
pub use rule::{Rule, RuleError, RuleId, RuleSet};
pub use trigger::{
    all_triggers, all_triggers_counted, apply_trigger, fresh_pi_safe, is_model_of_rules,
    triggers_using_delta, triggers_using_delta_counted, unsatisfied_triggers, MatchTally, Trigger,
};
