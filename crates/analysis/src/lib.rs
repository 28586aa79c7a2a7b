//! # chase-analysis
//!
//! Static analyses of existential rulesets — the classic *sufficient*
//! syntactic conditions for the abstract classes in the paper's Figure 1:
//!
//! * [`weakly_acyclic`] — Fagin, Kolaitis, Miller, Popa (TCS 2005): no
//!   cycle through a "special" edge in the position dependency graph.
//!   Weak acyclicity guarantees termination of **all** chase variants on
//!   **all** fact bases, hence membership in **fes**.
//! * [`jointly_acyclic`] — Krötzsch & Rudolph (IJCAI 2011, the paper's
//!   [16]): acyclicity of the existential-variable dependency graph; a
//!   strict generalization of weak acyclicity that still guarantees
//!   semi-oblivious chase termination (hence fes).
//! * [`guardedness`] — Calì, Gottlob, Kifer (KR 2008 / JAIR 2013, the
//!   paper's [6, 7]): a rule is *guarded* if some body atom contains all
//!   its universal variables, *frontier-guarded* if some body atom
//!   contains all its frontier variables. (Frontier-)guarded rulesets
//!   have treewidth-bounded restricted chases, hence are **bts**.
//!
//! * [`critical_instance_test`] — Marnette (PODS 2009, the paper's
//!   [17]): semi-oblivious chase termination on the *critical instance*
//!   implies termination on every instance — a dynamic fes certificate
//!   that covers rulesets beyond every acyclicity notion.
//! * [`mfa_test`] — model-faithful-acyclicity-style certificates: the
//!   critical-instance Skolem chase with cyclic-term detection, which
//!   certifies fes beyond joint acyclicity and *refutes* MFA membership
//!   with a divergence witness.
//! * [`kbounded_test`] — Delivorias et al.'s k-boundedness: a rank
//!   analysis of the saturated critical-instance Skolem chase certifies
//!   a breadth-first round bound uniform across fact bases. It reads the
//!   same chase as [`mfa_test`]; [`analyze_with_budget`] runs it once for
//!   both.
//! * [`linear_termination`] — the exact termination decision for linear
//!   rulesets (Leclère, Mugnier, Thomazo, Ulliana).
//! * [`DepGraph`] / [`stratified_plan`] — the rule dependency graph by
//!   piece-unification, its SCC condensation, and the stratified chase
//!   plans derived from it.
//!
//! Everything semantic is reported through the [`Verdict`] lattice
//! (Certified / Refuted / `LikelyRefuted` / Inconclusive) with explicit
//! [`Certificate`] provenance.
//!
//! These analyses complement the dynamic probes in
//! `chase_core::classes`: a syntactic certificate holds for *every* fact
//! base, while a probe observes one chase on one fact base. Probe
//! results can be folded back in via [`RulesetReport::attach_evidence`]
//! and [`stratified_plan_with`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acyclicity;
mod cost;
mod critical;
mod depgraph;
mod guards;
mod kbounded;
mod linear;
mod mfa;
mod report;
mod stratify;

pub use acyclicity::{jointly_acyclic, weakly_acyclic, PositionGraph};
pub use cost::{cost_model, BudgetEnvelope, CostClass, RulesetShape};
pub use critical::{
    critical_instance, critical_instance_capped, critical_instance_test, CriticalOutcome,
};
pub use depgraph::{may_trigger, Condensation, DepGraph, SccInfo};
pub use guards::{guardedness, GuardKind, Guardedness};
pub use kbounded::{kbounded_test, KBoundedOutcome};
pub use linear::{linear_fragment, linear_termination, LinearOutcome};
pub use mfa::{mfa_test, MfaOutcome};
pub use report::{
    analyze, analyze_with_budget, Certificate, DynamicEvidence, Refutation, RulesetReport, Verdict,
    WidthObservation,
};
pub use stratify::{
    stratified_plan, stratified_plan_probed, stratified_plan_with, ChasePlan, Stratum, StratumShape,
};
