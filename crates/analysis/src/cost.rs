//! Complexity-aware budget envelopes for admitted jobs.
//!
//! Hanisch & Krötzsch ("Chase Termination Beyond Polynomial Time")
//! observe that *termination* certificates come with *price tags*: a
//! datalog saturation is polynomial in the fact base, a k-bounded
//! ruleset is linear in the instance per round with a uniform round
//! count, while a merely-terminating ruleset (weak/joint acyclicity,
//! MFA, the linear decision) can legitimately run for exponentially
//! many steps, and a bts-only ruleset may not terminate at all. A flat
//! admission cap — the old `max_apps ≤ 1000` tightening — prices all
//! of these identically, starving certified-but-expensive jobs and
//! over-provisioning refuted ones.
//!
//! [`cost_model`] maps a [`CostClass`] (derived from the analyzer's
//! certificate) × [`RulesetShape`] (arity, SCC structure, guardedness)
//! to a [`BudgetEnvelope`] `{max_apps, mem_soft, mem_hard, deadline}`.
//! The envelopes are deliberately coarse — admission control wants
//! order-of-magnitude fairness, not exact complexity bounds — but they
//! are *monotone in the complexity tier*: a better certificate never
//! gets a smaller envelope, and `Open` (no certificate, or refuted)
//! reproduces the old tight caps exactly.

use std::time::Duration;

use chase_engine::{ChaseConfig, RuleSet};

use crate::depgraph::DepGraph;
use crate::guards::{guard_kind, GuardKind};

/// The static shape parameters the cost model prices by.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RulesetShape {
    /// Number of rules.
    pub rules: usize,
    /// Maximum predicate arity mentioned anywhere.
    pub max_arity: usize,
    /// SCC count of the rule dependency graph (stratification width).
    pub scc_count: usize,
    /// SCCs containing a dependency cycle (potential fixpoint loops).
    pub cyclic_sccs: usize,
    /// Weakest guard kind over all rules (Linear is strongest).
    pub worst_guard: GuardKind,
    /// Whether every rule is existential-free.
    pub datalog: bool,
}

impl RulesetShape {
    /// Measures `rules`.
    pub fn of(rules: &RuleSet) -> Self {
        let cond = DepGraph::build(rules).condensation(rules);
        let max_arity = rules
            .iter()
            .flat_map(|(_, r)| r.body().iter().chain(r.head().iter()))
            .map(chase_atoms::Atom::arity)
            .max()
            .unwrap_or(0);
        let worst_guard = rules
            .iter()
            .map(|(_, r)| guard_kind(r))
            .min()
            .unwrap_or(GuardKind::Linear);
        Self {
            rules: rules.len(),
            max_arity,
            scc_count: cond.components.len(),
            cyclic_sccs: cond.components.iter().filter(|c| c.cyclic).count(),
            worst_guard,
            datalog: rules.iter().all(|(_, r)| r.is_datalog()),
        }
    }

    /// The size unit every envelope scales by: rules × max arity,
    /// floored at 1 so the empty ruleset still gets a sane envelope.
    fn unit(&self) -> usize {
        (self.rules.max(1)).saturating_mul(self.max_arity.max(1))
    }
}

/// Complexity tier of the strongest certificate the analyzer found —
/// the "class" axis of the Hanisch–Krötzsch pricing table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostClass {
    /// Datalog saturation: PTIME data complexity, polynomially many
    /// applications in the fact base.
    Polynomial,
    /// k-bounded ([`crate::kbounded_test`]): at most `k` breadth-first
    /// rounds on every instance.
    BoundedRounds(usize),
    /// Terminating with no uniform bound (weak/joint acyclicity, MFA,
    /// the linear decision, critical-instance saturation): possibly
    /// exponentially many applications, but finitely many.
    Terminating,
    /// bts/core-bts only: the chase may diverge; querying is decidable
    /// through width-bounded exploration, so the envelope funds a
    /// bounded prefix, not a saturation.
    BoundedWidth,
    /// No certificate, or termination positively refuted: divergence
    /// is expected, cut early. Reproduces the legacy tight caps.
    Open,
}

impl CostClass {
    /// Stable wire name of the tier.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CostClass::Polynomial => "polynomial",
            CostClass::BoundedRounds(_) => "bounded-rounds",
            CostClass::Terminating => "terminating",
            CostClass::BoundedWidth => "bounded-width",
            CostClass::Open => "open",
        }
    }
}

/// The budget envelope admission writes into a job's [`ChaseConfig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BudgetEnvelope {
    /// Ceiling on trigger applications.
    pub max_apps: usize,
    /// Soft memory ceiling (abstract units).
    pub mem_soft: usize,
    /// Hard memory ceiling (abstract units).
    pub mem_hard: usize,
    /// Wall-clock allowance for the run.
    pub deadline: Duration,
}

impl BudgetEnvelope {
    /// Writes the envelope into `cfg`: the application ceiling only
    /// ever lowers, and memory and wall-clock ceilings only fill
    /// unpinned slots.
    #[must_use]
    pub fn apply(&self, mut cfg: ChaseConfig) -> ChaseConfig {
        cfg.max_applications = cfg.max_applications.min(self.max_apps);
        if cfg.mem_soft.is_none() {
            cfg.mem_soft = Some(self.mem_soft);
        }
        if cfg.mem_hard.is_none() {
            cfg.mem_hard = Some(self.mem_hard);
        }
        if cfg.max_wall.is_none() {
            cfg.max_wall = Some(self.deadline);
        }
        cfg
    }
}

/// Prices `class` for a ruleset of the given `shape`.
///
/// The guard multiplier reflects combined-complexity pricing for the
/// width-bounded tier (linear < guarded < frontier-guarded <
/// unguarded); cyclic SCCs widen the terminating tier, whose
/// exponential worst case lives exactly in those loops.
#[must_use]
pub fn cost_model(class: CostClass, shape: &RulesetShape) -> BudgetEnvelope {
    let unit = shape.unit();
    let strata = shape.scc_count.max(1);
    match class {
        CostClass::Polynomial => BudgetEnvelope {
            max_apps: unit
                .saturating_mul(unit)
                .saturating_mul(32)
                .clamp(2_000, 250_000),
            mem_soft: 16_384,
            mem_hard: 65_536,
            deadline: Duration::from_secs(10),
        },
        CostClass::BoundedRounds(k) => BudgetEnvelope {
            max_apps: (k + 1)
                .saturating_mul(unit)
                .saturating_mul(strata)
                .saturating_mul(64)
                .clamp(2_000, 100_000),
            mem_soft: 16_384,
            mem_hard: 32_768,
            deadline: Duration::from_secs(10),
        },
        CostClass::Terminating => BudgetEnvelope {
            max_apps: unit
                .saturating_mul(1 + shape.cyclic_sccs)
                .saturating_mul(4_096)
                .clamp(10_000, 1_000_000),
            mem_soft: 32_768,
            mem_hard: 131_072,
            deadline: Duration::from_secs(30),
        },
        CostClass::BoundedWidth => {
            let guard_factor = match shape.worst_guard {
                GuardKind::Linear => 1,
                GuardKind::Guarded => 2,
                GuardKind::FrontierGuarded => 4,
                GuardKind::Unguarded => 8,
            };
            BudgetEnvelope {
                max_apps: unit
                    .saturating_mul(guard_factor)
                    .saturating_mul(256)
                    .clamp(4_000, 50_000),
                mem_soft: 16_384,
                mem_hard: 32_768,
                deadline: Duration::from_secs(15),
            }
        }
        CostClass::Open => BudgetEnvelope {
            max_apps: 1_000,
            mem_soft: 8_192,
            mem_hard: 16_384,
            deadline: Duration::from_secs(5),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_parser::parse_program;

    fn rules(src: &str) -> RuleSet {
        parse_program(src).expect("parses").rules
    }

    #[test]
    fn shape_measures_the_ruleset() {
        let rs = rules("R: p(X), q(X, Y) -> r(X, Y, Z). S: r(X, Y, U) -> p(Y).");
        let shape = RulesetShape::of(&rs);
        assert_eq!(shape.rules, 2);
        assert_eq!(shape.max_arity, 3);
        assert!(!shape.datalog);
        assert!(shape.scc_count >= 1);
    }

    #[test]
    fn datalog_shape_is_detected() {
        let rs = rules("T: r(X, Y), r(Y, Z) -> r(X, Z).");
        let shape = RulesetShape::of(&rs);
        assert!(shape.datalog);
        assert_eq!(shape.worst_guard, GuardKind::Unguarded);
    }

    #[test]
    fn envelopes_are_monotone_in_tier() {
        let shape = RulesetShape::of(&rules("R: p(X) -> q(X, Z)."));
        let open = cost_model(CostClass::Open, &shape);
        let width = cost_model(CostClass::BoundedWidth, &shape);
        let term = cost_model(CostClass::Terminating, &shape);
        assert!(open.max_apps < width.max_apps);
        assert!(width.max_apps <= term.max_apps);
        assert!(open.mem_hard <= width.mem_hard);
        assert!(width.mem_hard <= term.mem_hard);
    }

    #[test]
    fn open_reproduces_the_legacy_tight_caps() {
        let shape = RulesetShape::of(&rules("R: r(X, Y) -> r(Y, Z)."));
        let env = cost_model(CostClass::Open, &shape);
        assert_eq!(env.max_apps, 1_000);
        assert_eq!(env.mem_soft, 8_192);
        assert_eq!(env.mem_hard, 16_384);
    }

    #[test]
    fn bounded_rounds_scale_with_k() {
        let shape = RulesetShape::of(&rules(
            "A: p0(X) -> p1(X). B: p1(X) -> p2(X). C: p2(X) -> p3(X). \
             D: p3(X) -> p4(X). E: p4(X) -> p5(X). F: p5(X) -> p6(X). \
             G: p6(X) -> p7(X). H: p7(X) -> p8(X).",
        ));
        let small = cost_model(CostClass::BoundedRounds(1), &shape);
        let large = cost_model(CostClass::BoundedRounds(64), &shape);
        assert!(small.max_apps < large.max_apps);
    }

    #[test]
    fn envelope_apply_fills_unpinned_slots() {
        let shape = RulesetShape::of(&rules("C: p(X) -> q(X)."));
        let env = cost_model(CostClass::Polynomial, &shape);
        let cfg = env.apply(ChaseConfig::default());
        assert_eq!(cfg.max_applications, env.max_apps);
        assert_eq!(cfg.mem_soft, Some(env.mem_soft));
        assert_eq!(cfg.mem_hard, Some(env.mem_hard));
        assert_eq!(cfg.max_wall, Some(env.deadline));
        // Pinned memory survives, and so does a lower application ceiling.
        let pinned = env.apply(
            ChaseConfig::default()
                .with_mem_soft(7)
                .with_max_applications(5),
        );
        assert_eq!(pinned.mem_soft, Some(7));
        assert_eq!(pinned.max_applications, 5);
    }
}
