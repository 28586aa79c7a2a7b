//! # chase-core
//!
//! The public facade of the `treechase` workspace — the paper's primary
//! contribution packaged as a usable library:
//!
//! * [`KnowledgeBase`] — a `(F, Σ)` pair with parsing, chasing and query
//!   answering;
//! * [`entail()`] — budgeted CQ entailment over any chase variant, with
//!   certified positive answers (via universality of chase elements,
//!   Proposition 1) and certified negative answers on termination (via
//!   the finite-universal-model property of the core chase);
//! * [`decide()`] — the Theorem 1 twin semi-decision procedure: two fair
//!   chase processes race in parallel, one hunting for a query
//!   homomorphism (detecting `K ⊨ Q`), one hunting for a terminating
//!   universal model (detecting `K ⊭ Q`);
//! * [`classes`] — empirical probes for the decidable classes of
//!   Figure 1: fes (core-chase termination), bts (treewidth-bounded
//!   restricted chase), core-bts (treewidth-bounded core chase);
//! * [`gate`] — the admission-time analysis gate fusing the static
//!   analyzer's certificates with the dynamic probes into a verdict
//!   lattice and a stratified chase plan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classes;
pub mod cq;
pub mod decide;
pub mod entail;
pub mod gate;
mod kb;
pub mod prelude;

pub use cq::{
    certain_answers, certain_answers_budgeted, collect_answer_tuples, cq_contained_in,
    cq_equivalent, entail_ucq, minimize_cq, AnswerQuery, AnswerTuples, CertainAnswers, Ucq,
};
pub use decide::{decide, DecideConfig, DecideOutcome};
pub use entail::{entail, Entailment};
pub use gate::{
    analyze_kb, analyze_kb_with, AnalysisGate, ProbeConfig, DEFAULT_PROBE_APPLICATIONS,
};
pub use kb::KnowledgeBase;
