//! Stratified chase plans from the dependency-graph condensation.
//!
//! The condensation of the rule dependency graph is a DAG of SCCs in
//! producers-first order; running the chase stratum by stratum (each
//! stratum saturated before the next starts) is sound because a rule
//! in a later stratum can never feed an earlier one. The payoff is that
//! each stratum can get the *cheapest strategy that is safe for it*:
//!
//! * acyclic or weakly-acyclic strata terminate on their own — plain
//!   oblivious/restricted expansion, no core maintenance;
//! * cyclic datalog strata saturate — plain saturation;
//! * cyclic existential strata are where divergence lives. Guarded ones
//!   keep a treewidth-bounded restricted chase; otherwise dynamic
//!   width evidence ([`DynamicEvidence`]) picks between a restricted
//!   chase with a width plateau (the elevator `K_v`) and core
//!   maintenance with tight memory ceilings (the staircase `K_h` —
//!   core width plateaus while the restricted chase balloons). The two
//!   paper rulesets land in **distinct** plan shapes by construction.

use std::fmt;

use chase_engine::{ChaseConfig, ChaseVariant, RuleId, RuleSet, SchedulerKind};

use crate::depgraph::DepGraph;
use crate::guards::GuardKind;
use crate::report::DynamicEvidence;

/// The strategy shape assigned to one stratum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StratumShape {
    /// Datalog rules (cyclic or not): saturation terminates on finite
    /// instances, no nulls, no core maintenance.
    DatalogSaturation,
    /// Acyclic or weakly-acyclic existential stratum: the chase
    /// terminates; run it as plain expansion.
    TerminatingExpansion,
    /// Cyclic existential stratum whose rules are all (frontier-)
    /// guarded: the restricted chase keeps bounded treewidth.
    GuardedLoop,
    /// Cyclic unguarded stratum where dynamic evidence shows the
    /// *restricted* chase width plateauing (elevator-like): run the
    /// restricted chase, skip core maintenance.
    BoundedWidthLoop,
    /// Cyclic unguarded stratum where dynamic evidence shows the *core*
    /// chase width plateauing while the restricted chase balloons
    /// (staircase-like): core maintenance with tight ceilings.
    CoreBoundedLoop,
    /// Cyclic unguarded stratum with no decidability route in sight:
    /// core maintenance as damage control under tight ceilings.
    UnboundedFrontier,
}

impl StratumShape {
    /// Stable kebab-case name for reports and wire formats.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StratumShape::DatalogSaturation => "datalog-saturation",
            StratumShape::TerminatingExpansion => "terminating-expansion",
            StratumShape::GuardedLoop => "guarded-loop",
            StratumShape::BoundedWidthLoop => "bounded-width-loop",
            StratumShape::CoreBoundedLoop => "core-bounded-loop",
            StratumShape::UnboundedFrontier => "unbounded-frontier",
        }
    }

    /// Does this shape need core maintenance?
    #[must_use]
    pub fn needs_core(self) -> bool {
        matches!(
            self,
            StratumShape::CoreBoundedLoop | StratumShape::UnboundedFrontier
        )
    }
}

/// One stratum of a chase plan: a set of rules run to saturation
/// before the next stratum starts.
#[derive(Clone, Debug)]
pub struct Stratum {
    /// Member rules, ascending by id.
    pub rules: Vec<RuleId>,
    /// Can the stratum feed itself?
    pub cyclic: bool,
    /// Strategy shape.
    pub shape: StratumShape,
}

/// A stratified chase plan.
#[derive(Clone, Debug)]
pub struct ChasePlan {
    /// Strata in execution order.
    pub strata: Vec<Stratum>,
    /// Hard application ceiling carried by a certificate (a
    /// k-boundedness bound priced through the cost model). `None` when
    /// no certificate bounds the run; [`ChasePlan::apply`] only ever
    /// *lowers* the configured ceiling with it.
    pub max_apps: Option<usize>,
}

impl ChasePlan {
    /// The rule-id partition in execution order, the format of
    /// `ChaseConfig::strata`.
    #[must_use]
    pub fn partition(&self) -> Vec<Vec<RuleId>> {
        self.strata.iter().map(|s| s.rules.clone()).collect()
    }

    /// The worst (most expensive) shape in the plan.
    #[must_use]
    pub fn worst_shape(&self) -> Option<StratumShape> {
        self.strata.iter().map(|s| s.shape).max_by_key(|s| *s as u8)
    }

    /// The chase variant the plan recommends for the whole run.
    #[must_use]
    pub fn recommended_variant(&self) -> ChaseVariant {
        if self.strata.iter().any(|s| s.shape.needs_core()) {
            ChaseVariant::Core
        } else {
            ChaseVariant::Restricted
        }
    }

    /// The trigger-ordering strategy the plan recommends, from its
    /// worst shape. All scheduler kinds preserve fairness (the round
    /// structure does); the choice only biases *which* fair sequence is
    /// built: terminating plans keep the deterministic order, guarded
    /// loops saturate datalog before minting nulls, width-bounded and
    /// open-ended loops defer null-propagating triggers so satisfaction
    /// checks prune the deeper chains.
    #[must_use]
    pub fn recommended_scheduler(&self) -> SchedulerKind {
        match self.worst_shape() {
            None | Some(StratumShape::DatalogSaturation | StratumShape::TerminatingExpansion) => {
                SchedulerKind::Deterministic
            }
            Some(StratumShape::GuardedLoop) => SchedulerKind::ExistentialLast,
            Some(
                StratumShape::BoundedWidthLoop
                | StratumShape::CoreBoundedLoop
                | StratumShape::UnboundedFrontier,
            ) => SchedulerKind::NullAverse,
        }
    }

    /// Attaches a certificate-derived application ceiling.
    #[must_use]
    pub fn with_max_apps(mut self, n: usize) -> Self {
        self.max_apps = Some(n);
        self
    }

    /// Applies the plan to a chase configuration: sets the variant, the
    /// stratified rule schedule, the trigger-ordering strategy, and (when
    /// a certificate bounds the run) caps the application budget.
    #[must_use]
    pub fn apply(&self, mut cfg: ChaseConfig) -> ChaseConfig {
        cfg.variant = self.recommended_variant();
        cfg.strata = Some(self.partition());
        cfg.scheduler = self.recommended_scheduler();
        if let Some(n) = self.max_apps {
            cfg.max_applications = cfg.max_applications.min(n);
        }
        cfg
    }

    /// Human-readable plan summary, e.g.
    /// `datalog-saturation[R4] → core-bounded-loop[R1,R2]`.
    #[must_use]
    pub fn describe(&self, rules: &RuleSet) -> String {
        self.strata
            .iter()
            .map(|s| {
                let names: Vec<&str> = s.rules.iter().map(|&r| rules.get(r).name()).collect();
                format!("{}[{}]", s.shape.name(), names.join(","))
            })
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

impl fmt::Display for ChasePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.strata.iter().enumerate() {
            if i > 0 {
                f.write_str(" → ")?;
            }
            write!(f, "{}{:?}", s.shape.name(), s.rules)?;
        }
        Ok(())
    }
}

/// Builds a stratified plan from static analysis alone.
#[must_use]
pub fn stratified_plan(rules: &RuleSet) -> ChasePlan {
    stratified_plan_with(rules, None)
}

/// Builds a stratified plan, applying one whole-KB [`DynamicEvidence`]
/// uniformly to every cyclic unguarded stratum.
///
/// Uniform evidence is only faithful when the ruleset has (at most) one
/// such stratum: a KB containing both an elevator-like and a
/// staircase-like component would get the same shape for both. Callers
/// that can probe sub-rulesets should use [`stratified_plan_probed`],
/// which asks for evidence per stratum.
#[must_use]
pub fn stratified_plan_with(rules: &RuleSet, evidence: Option<&DynamicEvidence>) -> ChasePlan {
    build_plan(rules, &mut |_| evidence.cloned())
}

/// Builds a stratified plan, calling `probe` once per cyclic unguarded
/// SCC (with the member rule ids) to obtain width evidence *for that
/// component* — so two components with opposite chase behaviour land in
/// their own shapes instead of sharing whichever evidence the whole KB
/// happened to produce.
pub fn stratified_plan_probed(
    rules: &RuleSet,
    mut probe: impl FnMut(&[RuleId]) -> DynamicEvidence,
) -> ChasePlan {
    build_plan(rules, &mut |scc| Some(probe(scc)))
}

fn build_plan(
    rules: &RuleSet,
    evidence_for: &mut dyn FnMut(&[RuleId]) -> Option<DynamicEvidence>,
) -> ChasePlan {
    let cond = DepGraph::build(rules).condensation(rules);
    let mut strata: Vec<Stratum> = Vec::new();
    for scc in cond.components {
        let shape = if scc.datalog {
            StratumShape::DatalogSaturation
        } else if !scc.cyclic || scc.weakly_acyclic {
            StratumShape::TerminatingExpansion
        } else if scc.worst_guard >= GuardKind::FrontierGuarded {
            StratumShape::GuardedLoop
        } else {
            match evidence_for(&scc.rules) {
                Some(ev) if ev.restricted_width.plateau().is_some() || ev.restricted_terminated => {
                    StratumShape::BoundedWidthLoop
                }
                Some(ev) if ev.core_width.plateau().is_some() || ev.core_terminated => {
                    StratumShape::CoreBoundedLoop
                }
                _ => StratumShape::UnboundedFrontier,
            }
        };
        // Merge runs of equally-shaped strata to keep plans compact; the
        // merged stratum stays sound (a coarser partition only delays
        // saturation checks).
        match strata.last_mut() {
            Some(prev) if prev.shape == shape => {
                prev.rules.extend(scc.rules);
                prev.cyclic |= scc.cyclic;
            }
            _ => strata.push(Stratum {
                rules: scc.rules,
                cyclic: scc.cyclic,
                shape,
            }),
        }
    }
    ChasePlan {
        strata,
        max_apps: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::WidthObservation;
    use chase_parser::parse_program;

    fn rules(src: &str) -> RuleSet {
        parse_program(src).expect("parses").rules
    }

    #[test]
    fn weakly_acyclic_plan_terminates_without_core() {
        let rs = rules("R: r(X, Y) -> s(Y, Z). S: s(X, Y) -> t(X).");
        let plan = stratified_plan(&rs);
        // R is an acyclic existential stratum, S a datalog tail.
        assert_eq!(plan.strata.len(), 2);
        assert_eq!(plan.strata[0].shape, StratumShape::TerminatingExpansion);
        assert_eq!(plan.strata[1].shape, StratumShape::DatalogSaturation);
        assert!(plan.strata.iter().all(|s| !s.shape.needs_core()));
        assert_eq!(plan.recommended_variant(), ChaseVariant::Restricted);
    }

    #[test]
    fn datalog_tail_gets_its_own_stratum() {
        let rs = rules("A: p(X) -> q(X, Z). B: q(X, Y) -> p(Y). C: p(X), q(X, Y) -> done(X).");
        let plan = stratified_plan(&rs);
        assert_eq!(plan.strata.len(), 2);
        assert_eq!(plan.strata[0].rules, vec![0, 1]);
        assert!(plan.strata[0].cyclic);
        assert_eq!(plan.strata[1].shape, StratumShape::DatalogSaturation);
    }

    #[test]
    fn guarded_loop_detected() {
        let rs = rules("R: r(X, Y) -> r(Y, Z).");
        let plan = stratified_plan(&rs);
        assert_eq!(plan.strata.len(), 1);
        assert_eq!(plan.strata[0].shape, StratumShape::GuardedLoop);
        assert_eq!(plan.recommended_variant(), ChaseVariant::Restricted);
    }

    fn elevator_like() -> DynamicEvidence {
        DynamicEvidence {
            restricted_terminated: false,
            restricted_width: WidthObservation::Plateau(1),
            core_terminated: false,
            core_width: WidthObservation::Climbing,
        }
    }

    fn staircase_like() -> DynamicEvidence {
        DynamicEvidence {
            restricted_terminated: false,
            restricted_width: WidthObservation::Climbing,
            core_terminated: false,
            core_width: WidthObservation::Plateau(2),
        }
    }

    #[test]
    fn evidence_splits_bounded_width_from_core_bounded() {
        // An unguarded cyclic rule: shape must come from evidence.
        let src = "F: h(X, Y), v(X, X2) -> h(X2, Y2), v(Y, Y2).";
        let p1 = stratified_plan_with(&rules(src), Some(&elevator_like()));
        assert_eq!(p1.strata[0].shape, StratumShape::BoundedWidthLoop);
        assert_eq!(p1.recommended_variant(), ChaseVariant::Restricted);
        let p2 = stratified_plan_with(&rules(src), Some(&staircase_like()));
        assert_eq!(p2.strata[0].shape, StratumShape::CoreBoundedLoop);
        assert_eq!(p2.recommended_variant(), ChaseVariant::Core);
        let p3 = stratified_plan(&rules(src));
        assert_eq!(p3.strata[0].shape, StratumShape::UnboundedFrontier);
    }

    #[test]
    fn unobserved_evidence_does_not_pick_a_width_shape() {
        // An Unobserved probe (horizon too short) is no signal: the
        // stratum must fall through to damage control, exactly as if no
        // evidence had been supplied at all.
        let src = "F: h(X, Y), v(X, X2) -> h(X2, Y2), v(Y, Y2).";
        let plan = stratified_plan_with(&rules(src), Some(&DynamicEvidence::default()));
        assert_eq!(plan.strata[0].shape, StratumShape::UnboundedFrontier);
    }

    #[test]
    fn per_scc_probe_separates_mixed_components() {
        // Two independent cyclic unguarded components over disjoint
        // predicates: one elevator-like, one staircase-like. Uniform
        // whole-KB evidence forces a single shape onto both; the probed
        // plan asks per component and keeps them distinct.
        let src = "A: h(X, Y), v(X, X2) -> h(X2, Y2), v(Y, Y2).
                   B: p(X, Y), q(X, X2) -> p(X2, Y2), q(Y, Y2).";
        let rs = rules(src);
        let probed = stratified_plan_probed(&rs, |scc| {
            // Rule A (id 0) behaves elevator-like, rule B staircase-like.
            if scc.contains(&0) {
                elevator_like()
            } else {
                staircase_like()
            }
        });
        let shapes: Vec<StratumShape> = probed.strata.iter().map(|s| s.shape).collect();
        assert!(
            shapes.contains(&StratumShape::BoundedWidthLoop),
            "{shapes:?}"
        );
        assert!(
            shapes.contains(&StratumShape::CoreBoundedLoop),
            "{shapes:?}"
        );
        // The uniform-evidence path gives both components the same
        // (restricted-width) shape — the limitation the probed variant
        // exists to remove.
        let uniform = stratified_plan_with(&rs, Some(&elevator_like()));
        assert!(uniform
            .strata
            .iter()
            .all(|s| s.shape == StratumShape::BoundedWidthLoop));
    }

    #[test]
    fn plan_picks_schedulers_and_caps_applications() {
        // Guarded loop → existential-last ordering.
        let plan = stratified_plan(&rules("R: r(X, Y) -> r(Y, Z)."));
        assert_eq!(plan.recommended_scheduler(), SchedulerKind::ExistentialLast);
        // Terminating plans keep the deterministic order.
        let wa = stratified_plan(&rules("A: p(X) -> q(X)."));
        assert_eq!(wa.recommended_scheduler(), SchedulerKind::Deterministic);
        // Open-ended loop → null-averse ordering.
        let open = stratified_plan(&rules("F: h(X, Y), v(X, X2) -> h(X2, Y2), v(Y, Y2)."));
        assert_eq!(open.recommended_scheduler(), SchedulerKind::NullAverse);
        // A certificate ceiling only ever lowers the configured budget.
        let cfg = open.clone().with_max_apps(7).apply(ChaseConfig::default());
        assert_eq!(cfg.max_applications, 7);
        assert_eq!(cfg.scheduler, SchedulerKind::NullAverse);
        let cfg = open.with_max_apps(usize::MAX).apply(ChaseConfig::default());
        assert_eq!(
            cfg.max_applications,
            ChaseConfig::default().max_applications
        );
    }

    #[test]
    fn describe_names_rules_and_merges_equal_shapes() {
        // Two acyclic datalog strata merge into one compact stratum.
        let rs = rules("A: p(X) -> q(X). B: q(X) -> r(X).");
        let plan = stratified_plan(&rs);
        assert_eq!(plan.strata.len(), 1);
        let text = plan.describe(&rs);
        assert!(text.contains("datalog-saturation[A,B]"), "{text}");
    }
}
