//! Combined static-analysis report for a ruleset: a verdict lattice
//! per semantic property, with certificate provenance.
//!
//! Each semantic property (termination / bts / core-bts) gets a
//! [`Verdict`]: **Certified** with the [`Certificate`] that justifies
//! it, **Refuted** with the witness, **`LikelyRefuted`** when the witness
//! only sinks a sufficient condition (an MFA cycle refutes MFA-class
//! membership, not termination itself), or **Inconclusive** with the
//! budget that ran out. The raw syntactic facts (datalog, acyclicity,
//! guardedness) stay available as plain booleans.
//!
//! Certificate provenance matters because the routes are *not*
//! interchangeable (the paper's "complications"): guardedness certifies
//! bts but says nothing about core-chase width — the elevator `K_v` is
//! treewidth-1 bts while its core chase width diverges — so `core-bts`
//! is never certified from a guardedness certificate, only from a
//! termination certificate or explicit core-width evidence.

use std::fmt;

use chase_engine::{RuleId, RuleSet};
use chase_homomorphism::SearchBudget;

use crate::acyclicity::{jointly_acyclic, weakly_acyclic};
use crate::critical::{application_limit, CriticalChase};
use crate::guards::{guardedness, Guardedness};
use crate::kbounded::{kbounded_outcome, KBoundedOutcome};
use crate::linear::{linear_fragment, linear_termination, LinearOutcome};
use crate::mfa::{mfa_outcome, MfaOutcome};

/// Default application budget for the MFA sub-test of [`analyze`].
const DEFAULT_MFA_BUDGET: usize = 5_000;

/// Application slice the critical chase continues for past a cyclic
/// Skolem term, for the k-boundedness rank analysis: the chase usually
/// diverges past that point, and the rank analysis has no early exit,
/// so it only gets enough rope for the small terminating exceptions.
const CYCLIC_KBOUNDED_SLICE: usize = 256;

/// What justified a [`Verdict::Certified`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Certificate {
    /// Every rule is datalog.
    Datalog,
    /// Weak acyclicity (Fagin et al.).
    WeaklyAcyclic,
    /// Joint acyclicity (Krötzsch & Rudolph).
    JointlyAcyclic,
    /// MFA-style critical-instance saturation ([`crate::mfa_test`]).
    Mfa,
    /// Every rule is guarded.
    Guarded,
    /// Every rule is frontier-guarded.
    FrontierGuarded,
    /// Every rule is linear.
    Linear,
    /// The exact linear-ruleset termination decision
    /// ([`crate::linear_termination`], after Leclère–Mugnier–Thomazo–Ulliana):
    /// derivation-tree-pattern saturation proved the Skolem chase
    /// terminates on every fact base.
    LinearTermination,
    /// The breadth-first chase from the critical instance saturated
    /// within this many rounds ([`crate::kbounded_test`], after Delivorias
    /// et al.): the ruleset is k-bounded, hence fes.
    KBounded(usize),
    /// Dynamic evidence: the restricted-chase treewidth profile
    /// plateaued at this bound (finite-horizon evidence, not a proof).
    RestrictedWidthProbe(usize),
    /// Dynamic evidence: the core-chase treewidth profile plateaued at
    /// this bound (finite-horizon evidence, not a proof).
    CoreWidthProbe(usize),
}

impl Certificate {
    /// Stable kebab-case name for reports and wire formats.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Certificate::Datalog => "datalog",
            Certificate::WeaklyAcyclic => "weakly-acyclic",
            Certificate::JointlyAcyclic => "jointly-acyclic",
            Certificate::Mfa => "mfa",
            Certificate::Guarded => "guarded",
            Certificate::FrontierGuarded => "frontier-guarded",
            Certificate::Linear => "linear",
            Certificate::LinearTermination => "linear-termination",
            Certificate::KBounded(_) => "k-bounded",
            Certificate::RestrictedWidthProbe(_) => "restricted-width-probe",
            Certificate::CoreWidthProbe(_) => "core-width-probe",
        }
    }
}

/// What justified a [`Verdict::Refuted`] or [`Verdict::LikelyRefuted`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Refutation {
    /// The MFA test found a cyclically nested Skolem term: membership
    /// in the MFA class is refuted and the critical chase shows the
    /// self-similar expansion that drives divergence. This witness
    /// refutes the MFA *class*, not termination itself (terminating
    /// rulesets can produce cyclic Skolem terms), so the termination
    /// route carries it as [`Verdict::LikelyRefuted`], never
    /// [`Verdict::Refuted`].
    MfaCycle {
        /// Rule whose existential restarted its own expansion.
        rule: RuleId,
        /// Nesting depth at which the cycle closed.
        depth: usize,
    },
    /// Dynamic evidence: the core-chase treewidth profile kept growing
    /// over the whole probe horizon.
    CoreWidthDiverging,
    /// The exact linear-ruleset decision found a pumpable derivation
    /// pattern ([`crate::linear_termination`]): a reachable cycle of single-atom
    /// derivations that re-fires the same rule on its own fresh null
    /// forever. Unlike an MFA cycle this **is** a proof — linear
    /// derivations are self-similar, so the loop iterates unboundedly
    /// and the Skolem chase diverges on the critical instance.
    LinearNonTermination {
        /// The rule whose existential is pumped by the cycle.
        rule: RuleId,
    },
}

impl Refutation {
    /// Stable kebab-case name for reports and wire formats.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Refutation::MfaCycle { .. } => "mfa-cycle",
            Refutation::CoreWidthDiverging => "core-width-diverging",
            Refutation::LinearNonTermination { .. } => "linear-non-termination",
        }
    }
}

/// Verdict for one semantic property: certified, refuted, likely
/// refuted (positive divergence evidence short of a proof), or
/// inconclusive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds, justified by this certificate.
    Certified(Certificate),
    /// The property fails, with a witness.
    Refuted(Refutation),
    /// Finite-horizon evidence points against the property — the
    /// witness refutes a *sufficient condition* (e.g. MFA-class
    /// membership), not the property itself. Strictly weaker than
    /// [`Verdict::Refuted`]; consumers that act on divergence evidence
    /// (budget tightening, strict shedding) opt into it via
    /// [`Verdict::suspects_divergence`].
    LikelyRefuted(Refutation),
    /// Neither direction was decided within the budget (applications
    /// granted to the dynamic sub-tests).
    Inconclusive {
        /// The application budget that ran out.
        budget: usize,
    },
}

impl Verdict {
    /// Is the property certified?
    #[must_use]
    pub fn is_certified(&self) -> bool {
        matches!(self, Verdict::Certified(_))
    }

    /// Is the property positively refuted?
    #[must_use]
    pub fn is_refuted(&self) -> bool {
        matches!(self, Verdict::Refuted(_))
    }

    /// Is the property likely refuted (evidence, not proof)?
    #[must_use]
    pub fn is_likely_refuted(&self) -> bool {
        matches!(self, Verdict::LikelyRefuted(_))
    }

    /// Did the budget run out before either direction was decided?
    #[must_use]
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, Verdict::Inconclusive { .. })
    }

    /// Refuted or likely refuted: there is a positive divergence
    /// witness, proven or finite-horizon. This is the predicate that
    /// fail-fast policies (tight budgets, strict admission shedding)
    /// key on — deliberately including the evidence-only level.
    #[must_use]
    pub fn suspects_divergence(&self) -> bool {
        matches!(self, Verdict::Refuted(_) | Verdict::LikelyRefuted(_))
    }

    /// The certificate, when certified.
    #[must_use]
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            Verdict::Certified(c) => Some(c),
            _ => None,
        }
    }

    /// The divergence witness, when refuted or likely refuted.
    #[must_use]
    pub fn refutation(&self) -> Option<&Refutation> {
        match self {
            Verdict::Refuted(r) | Verdict::LikelyRefuted(r) => Some(r),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Certified(c) => match c {
                Certificate::RestrictedWidthProbe(w) | Certificate::CoreWidthProbe(w) => {
                    write!(f, "certified by {} (width {w})", c.name())
                }
                Certificate::KBounded(k) => write!(f, "certified by {} (k {k})", c.name()),
                _ => write!(f, "certified by {}", c.name()),
            },
            Verdict::Refuted(r) | Verdict::LikelyRefuted(r) => {
                let level = if self.is_refuted() {
                    "refuted"
                } else {
                    "likely refuted"
                };
                match r {
                    Refutation::MfaCycle { rule, depth } => {
                        write!(f, "{level} by mfa-cycle (rule {rule}, depth {depth})")
                    }
                    Refutation::CoreWidthDiverging => write!(f, "{level} by {}", r.name()),
                    Refutation::LinearNonTermination { rule } => {
                        write!(f, "{level} by {} (rule {rule})", r.name())
                    }
                }
            }
            Verdict::Inconclusive { budget } => write!(f, "inconclusive (budget {budget})"),
        }
    }
}

/// What a finite-horizon treewidth-profile probe observed.
///
/// The three states are deliberately distinct: a profile that *climbed*
/// over the whole horizon is positive divergence evidence, while a
/// horizon too short to judge carries **no** signal — conflating the
/// two would mint refutations out of small probe budgets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WidthObservation {
    /// The profile plateaued at this certified upper bound (or the
    /// chase terminated, trivially bounding it).
    Plateau(usize),
    /// The profile was still climbing when the horizon ended.
    Climbing,
    /// The horizon was too short (or no probe ran): no signal either
    /// way.
    #[default]
    Unobserved,
}

impl WidthObservation {
    /// The plateau bound, when one was observed.
    #[must_use]
    pub fn plateau(self) -> Option<usize> {
        match self {
            WidthObservation::Plateau(w) => Some(w),
            _ => None,
        }
    }

    /// Did the profile climb over the whole horizon?
    #[must_use]
    pub fn is_climbing(self) -> bool {
        matches!(self, WidthObservation::Climbing)
    }

    /// Stable kebab-case name for reports and wire formats.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WidthObservation::Plateau(_) => "plateau",
            WidthObservation::Climbing => "climbing",
            WidthObservation::Unobserved => "unobserved",
        }
    }
}

/// Dynamic (per-instance, finite-horizon) evidence from the chase
/// probes in `chase_core::classes`, used to settle verdicts that the
/// syntactic certificates leave inconclusive.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DynamicEvidence {
    /// Did the restricted-chase probe terminate within its budget?
    pub restricted_terminated: bool,
    /// What the restricted-chase treewidth profile showed.
    pub restricted_width: WidthObservation,
    /// Did the core-chase probe terminate within its budget?
    pub core_terminated: bool,
    /// What the core-chase treewidth profile showed.
    pub core_width: WidthObservation,
}

/// Everything the analyses can certify about a ruleset: syntactic
/// facts plus the semantic verdict lattice (Figure 1 vocabulary).
#[derive(Clone, Debug)]
pub struct RulesetReport {
    /// Is every rule datalog (no existential variables)?
    pub datalog: bool,
    /// Weak acyclicity (Fagin et al.).
    pub weakly_acyclic: bool,
    /// Joint acyclicity (Krötzsch & Rudolph).
    pub jointly_acyclic: bool,
    /// Guardedness classification.
    pub guardedness: Guardedness,
    /// Raw outcome of the MFA-style critical-instance test.
    pub mfa: MfaOutcome,
    /// Raw outcome of the k-boundedness rank analysis
    /// ([`crate::kbounded_test`]), always computed: even when a cheaper
    /// certificate decides the verdict, a `Bounded { k, .. }` outcome
    /// hands the planner a hard round bound.
    pub kbounded: KBoundedOutcome,
    /// The linear fragment: rules with single-atom bodies, in original
    /// rule-id order.
    pub linear_rules: Vec<RuleId>,
    /// Exact termination verdict for the linear fragment analyzed as a
    /// ruleset of its own ([`crate::linear_fragment`]). Always decided for small
    /// fragments — `Certified(LinearTermination)`,
    /// `Refuted(LinearNonTermination)` (with the original rule id), or
    /// `Inconclusive` only when the pattern space outgrew the budget.
    /// An empty fragment is trivially certified.
    pub linear_fragment: Verdict,
    /// Chase termination on every fact base (**fes** membership).
    pub terminating: Verdict,
    /// Treewidth-bounded restricted chase on every fact base (**bts**).
    pub bts: Verdict,
    /// Terminating, treewidth-bounded **core** chase (**core-bts**).
    /// Never certified from guardedness alone: bts does not bound the
    /// core chase (the elevator is the counterexample).
    pub core_bts: Verdict,
}

impl RulesetReport {
    /// Does some certificate guarantee **fes** membership?
    #[must_use]
    pub fn certified_fes(&self) -> bool {
        self.terminating.is_certified()
    }

    /// Does some certificate guarantee **bts** membership?
    #[must_use]
    pub fn certified_bts(&self) -> bool {
        self.bts.is_certified()
    }

    /// Does some certificate guarantee **core-bts** membership?
    #[must_use]
    pub fn certified_core_bts(&self) -> bool {
        self.core_bts.is_certified()
    }

    /// Is every decidability route refuted-or-unknown, with positive
    /// divergence evidence on the termination route? This is the
    /// strict-admission shedding predicate: nothing certified, and a
    /// divergence witness in hand. It deliberately accepts the
    /// [`Verdict::LikelyRefuted`] level — an MFA cycle does not *prove*
    /// non-termination, but shedding on it while no other route is
    /// certified is the analyzer's only actionable signal.
    #[must_use]
    pub fn refutes_every_route(&self) -> bool {
        self.terminating.suspects_divergence()
            && !self.bts.is_certified()
            && !self.core_bts.is_certified()
    }

    /// Upgrades inconclusive verdicts with dynamic probe evidence.
    ///
    /// Probe certificates are finite-horizon evidence, not proofs; they
    /// carry their own [`Certificate`] variants so consumers can
    /// discount them. Syntactic certificates are never overridden, and
    /// an [`WidthObservation::Unobserved`] probe (horizon too short)
    /// changes nothing — only a profile that *climbed over the whole
    /// horizon* refutes core-bts.
    pub fn attach_evidence(&mut self, ev: &DynamicEvidence) {
        if !self.bts.is_certified() {
            if let Some(w) = ev.restricted_width.plateau() {
                self.bts = Verdict::Certified(Certificate::RestrictedWidthProbe(w));
            }
        }
        if !self.core_bts.is_certified() {
            match ev.core_width {
                WidthObservation::Plateau(w) => {
                    self.core_bts = Verdict::Certified(Certificate::CoreWidthProbe(w));
                }
                WidthObservation::Climbing => {
                    self.core_bts = Verdict::Refuted(Refutation::CoreWidthDiverging);
                }
                WidthObservation::Unobserved => {}
            }
        }
    }
}

impl fmt::Display for RulesetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "datalog:          {}", self.datalog)?;
        writeln!(f, "weakly acyclic:   {}", self.weakly_acyclic)?;
        writeln!(f, "jointly acyclic:  {}", self.jointly_acyclic)?;
        writeln!(f, "guarded:          {}", self.guardedness.is_guarded())?;
        writeln!(
            f,
            "frontier-guarded: {}",
            self.guardedness.is_frontier_guarded()
        )?;
        let mfa = match &self.mfa {
            MfaOutcome::Acyclic { applications } => {
                format!("acyclic ({applications} applications)")
            }
            MfaOutcome::CyclicTerm { rule, depth } => {
                format!("cyclic term (rule {rule}, depth {depth})")
            }
            MfaOutcome::BudgetExhausted { applications } => {
                format!("budget exhausted ({applications} applications)")
            }
        };
        writeln!(f, "mfa:              {mfa}")?;
        let kb = match &self.kbounded {
            KBoundedOutcome::Bounded { k, applications } => {
                format!("bounded (k {k}, {applications} applications)")
            }
            KBoundedOutcome::DepthUnbounded { applications } => {
                format!("depth unbounded ({applications} applications)")
            }
            KBoundedOutcome::BudgetExhausted { applications } => {
                format!("budget exhausted ({applications} applications)")
            }
        };
        writeln!(f, "k-bounded:        {kb}")?;
        writeln!(
            f,
            "linear fragment:  {} rule(s), {}",
            self.linear_rules.len(),
            self.linear_fragment
        )?;
        writeln!(f, "⇒ terminating: {}", self.terminating)?;
        writeln!(f, "⇒ bts:         {}", self.bts)?;
        write!(f, "⇒ core-bts:    {}", self.core_bts)
    }
}

/// Runs every static analysis on a ruleset with the default MFA budget.
#[must_use]
pub fn analyze(rules: &RuleSet) -> RulesetReport {
    analyze_with_budget(
        rules,
        &SearchBudget::unlimited().with_node_limit(DEFAULT_MFA_BUDGET),
    )
}

/// Runs every static analysis, granting the dynamic sub-tests (MFA) the
/// given shared [`SearchBudget`].
#[must_use]
pub fn analyze_with_budget(rules: &RuleSet, budget: &SearchBudget) -> RulesetReport {
    let datalog = rules.iter().all(|(_, r)| r.is_datalog());
    let wa = weakly_acyclic(rules);
    let ja = jointly_acyclic(rules);
    let guards = guardedness(rules);
    let spent = budget.node_limit.unwrap_or(DEFAULT_MFA_BUDGET);
    // One critical chase feeds both MFA and k-boundedness.
    let slice = CYCLIC_KBOUNDED_SLICE.min(spent);
    let run = CriticalChase::run(rules, budget, application_limit(budget), slice);
    let mfa = mfa_outcome(run.as_ref());

    // Exact decision for the linear fragment (single-atom-body rules),
    // run as a ruleset of its own. The verdict names original rule ids.
    let linear_rules = linear_fragment(rules);
    let linear_fragment = {
        let mut sub = RuleSet::new();
        for &id in &linear_rules {
            sub.push(rules.get(id).clone());
        }
        match linear_termination(&sub, budget) {
            LinearOutcome::Terminating { .. } => Verdict::Certified(Certificate::LinearTermination),
            LinearOutcome::NonTerminating { rule } => {
                Verdict::Refuted(Refutation::LinearNonTermination {
                    rule: linear_rules[rule],
                })
            }
            LinearOutcome::NotLinear | LinearOutcome::BudgetExhausted { .. } => {
                Verdict::Inconclusive { budget: spent }
            }
        }
    };
    let whole_linear = linear_rules.len() == rules.len();

    let terminating = if whole_linear && linear_fragment.is_refuted() {
        // The exact decision covers the whole ruleset: a pumpable
        // derivation pattern is a *proof* of non-termination, stronger
        // than anything the heuristic routes below could say.
        linear_fragment.clone()
    } else if datalog {
        Verdict::Certified(Certificate::Datalog)
    } else if wa {
        Verdict::Certified(Certificate::WeaklyAcyclic)
    } else if ja {
        Verdict::Certified(Certificate::JointlyAcyclic)
    } else if whole_linear && linear_fragment.is_certified() {
        linear_fragment.clone()
    } else {
        match &mfa {
            MfaOutcome::Acyclic { .. } => Verdict::Certified(Certificate::Mfa),
            // A cyclic Skolem term refutes MFA-class membership, not
            // termination itself (mfa.rs): evidence level, not proof.
            MfaOutcome::CyclicTerm { rule, depth } => {
                Verdict::LikelyRefuted(Refutation::MfaCycle {
                    rule: *rule,
                    depth: *depth,
                })
            }
            MfaOutcome::BudgetExhausted { .. } => Verdict::Inconclusive { budget: spent },
        }
    };

    // k-boundedness: even when a cheaper certificate decides the
    // verdict, a Bounded outcome hands the planner a hard round bound.
    // As a *verdict* route it can rescue rulesets the routes above
    // leave open — its certificate (a uniform breadth-first round
    // bound) even overrides an MFA cycle, which is evidence, not
    // proof. It reads the run at a limit (and so an atom cap) of its
    // own: MFA's saturation bound, or the slice past a cyclic term.
    let kbounded = match &mfa {
        MfaOutcome::Acyclic { applications } => {
            kbounded_outcome(rules, budget, run.as_ref(), applications + 16)
        }
        MfaOutcome::CyclicTerm { .. } => kbounded_outcome(rules, budget, run.as_ref(), slice),
        MfaOutcome::BudgetExhausted { .. } => KBoundedOutcome::BudgetExhausted { applications: 0 },
    };
    let terminating = if terminating.is_certified() || terminating.is_refuted() {
        terminating
    } else {
        match &kbounded {
            KBoundedOutcome::Bounded { k, .. } => Verdict::Certified(Certificate::KBounded(*k)),
            KBoundedOutcome::DepthUnbounded { .. } | KBoundedOutcome::BudgetExhausted { .. } => {
                terminating
            }
        }
    };

    let bts = if let Verdict::Certified(c) = &terminating {
        // fes ⇒ every chase is finite ⇒ trivially treewidth-bounded.
        Verdict::Certified(c.clone())
    } else if guards.is_linear() {
        Verdict::Certified(Certificate::Linear)
    } else if guards.is_guarded() {
        Verdict::Certified(Certificate::Guarded)
    } else if guards.is_frontier_guarded() {
        Verdict::Certified(Certificate::FrontierGuarded)
    } else {
        Verdict::Inconclusive { budget: spent }
    };

    // Core-bts: a termination certificate gives a finite core chase;
    // guardedness does NOT carry over (bts with diverging core-chase
    // width is possible — the elevator). Width evidence arrives later
    // via `attach_evidence`.
    let core_bts = if let Verdict::Certified(c) = &terminating {
        Verdict::Certified(c.clone())
    } else {
        Verdict::Inconclusive { budget: spent }
    };

    RulesetReport {
        datalog,
        weakly_acyclic: wa,
        jointly_acyclic: ja,
        guardedness: guards,
        mfa,
        kbounded,
        linear_rules,
        linear_fragment,
        terminating,
        bts,
        core_bts,
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
    fn datalog_certifies_everything() {
        let report = analyze(&rules("T: r(X, Y), r(Y, Z) -> r(X, Z)."));
        assert!(report.datalog);
        assert!(report.certified_fes());
        assert!(report.certified_bts());
        assert!(report.certified_core_bts());
        assert_eq!(
            report.terminating.certificate(),
            Some(&Certificate::Datalog)
        );
    }

    #[test]
    fn linear_chain_certifies_bts_not_fes_nor_core_bts() {
        let report = analyze(&rules("R: r(X, Y) -> r(Y, Z)."));
        assert!(!report.certified_fes());
        assert!(report.certified_bts(), "linear rules are guarded ⇒ bts");
        assert_eq!(report.bts.certificate(), Some(&Certificate::Linear));
        // The fixed predicate: guardedness certifies bts only. Whether
        // the *core* chase stays width-bounded is a separate question
        // (the elevator is bts with diverging core-chase width), so
        // without width evidence the verdict stays open.
        assert!(!report.certified_core_bts());
        assert!(!report.core_bts.is_refuted());
        // The ruleset is all-linear, so the exact decision applies and
        // upgrades the old MFA-cycle *evidence* to a proven refutation:
        // the derivation-pattern cycle pumps forever.
        assert_eq!(
            report.terminating,
            Verdict::Refuted(Refutation::LinearNonTermination { rule: 0 })
        );
        assert_eq!(report.linear_rules, vec![0]);
        assert!(report.terminating.is_refuted());
        assert!(report.terminating.suspects_divergence());
    }

    #[test]
    fn unguarded_cyclic_ruleset_certifies_nothing() {
        let report = analyze(&rules("Fill: h(X, Y), v(X, X2) -> h(X2, Y2), v(Y, Y2)."));
        assert!(!report.certified_fes());
        assert!(!report.certified_bts());
        assert!(!report.certified_core_bts());
        assert!(report.refutes_every_route());
    }

    #[test]
    fn weakly_acyclic_existential_ruleset() {
        let report = analyze(&rules("R: r(X, Y) -> s(Y, Z). S: s(X, Y) -> t(X)."));
        assert!(!report.datalog);
        assert!(report.weakly_acyclic);
        assert!(report.certified_fes());
        assert!(report.certified_core_bts());
        assert_eq!(
            report.core_bts.certificate(),
            Some(&Certificate::WeaklyAcyclic)
        );
    }

    #[test]
    fn mfa_certifies_beyond_acyclicity() {
        // The same-variable-join pattern: R1 puts its null in *both*
        // columns of `q` (in separate atoms), and R2's body `q(Y, Y)`
        // joins the columns. Position-wise the null reaches every body
        // position of R2's frontier and flows back into `p`, so both
        // weak and joint acyclicity report a cycle. Atom-wise no single
        // null ever occupies both columns of one `q`-fact, so R2 never
        // fires on invented values and the Skolem chase saturates: MFA
        // certifies what the positional over-approximations cannot.
        let report = analyze(&rules("R1: p(X) -> q(X, Z), q(Z, X). R2: q(Y, Y) -> p(Y)."));
        assert!(!report.weakly_acyclic);
        assert!(!report.jointly_acyclic);
        // Both rules have single-atom bodies, so the exact linear
        // decision now outranks MFA on the same ruleset; the raw MFA
        // outcome still shows the saturation.
        assert_eq!(
            report.terminating.certificate(),
            Some(&Certificate::LinearTermination)
        );
        assert!(matches!(report.mfa, MfaOutcome::Acyclic { .. }));
        assert!(report.certified_core_bts());
    }

    #[test]
    fn mfa_route_still_fires_for_non_linear_rulesets() {
        // The same-variable-join pattern from above, plus an unrelated
        // two-atom-body datalog rule that pushes the ruleset out of the
        // linear fragment without touching the acyclicity analysis: the
        // MFA certificate is still the one that lands.
        let report = analyze(&rules(
            "R1: p(X) -> q(X, Z), q(Z, X). R2: q(Y, Y) -> p(Y). W: a(X), b(X) -> c(X).",
        ));
        assert!(!report.weakly_acyclic);
        assert!(!report.jointly_acyclic);
        assert_eq!(report.terminating.certificate(), Some(&Certificate::Mfa));
        assert_eq!(report.linear_rules, vec![0, 1]);
        assert!(report.linear_fragment.is_certified());
    }

    #[test]
    fn evidence_upgrades_inconclusive_verdicts() {
        let mut report = analyze(&rules("R: r(X, Y) -> r(Y, Z)."));
        assert!(!report.certified_core_bts());
        report.attach_evidence(&DynamicEvidence {
            restricted_terminated: false,
            restricted_width: WidthObservation::Plateau(1),
            core_terminated: false,
            core_width: WidthObservation::Climbing,
        });
        // bts was already certified by linearity — untouched.
        assert_eq!(report.bts.certificate(), Some(&Certificate::Linear));
        assert_eq!(
            report.core_bts,
            Verdict::Refuted(Refutation::CoreWidthDiverging)
        );
    }

    #[test]
    fn unobserved_probe_refutes_nothing() {
        // A probe horizon too short to judge must leave the verdicts
        // exactly where the static pass put them — a short profile is
        // the absence of a signal, not a divergence witness.
        let mut report = analyze(&rules("R: r(X, Y) -> r(Y, Z)."));
        let before = report.core_bts.clone();
        report.attach_evidence(&DynamicEvidence::default());
        assert_eq!(report.core_bts, before);
        assert!(!report.core_bts.is_refuted());
    }

    #[test]
    fn display_renders() {
        let report = analyze(&rules("R: r(X, Y) -> r(Y, Z)."));
        let text = report.to_string();
        assert!(text.contains("weakly acyclic:   false"));
        assert!(text.contains("⇒ bts:         certified by linear"));
        assert!(text.contains("refuted by linear-non-termination (rule 0)"));
    }

    #[test]
    fn kbounded_outcome_reported_alongside_other_certificates() {
        // Weak acyclicity wins the verdict, but the rank analysis still
        // hands the planner its round bound.
        let report = analyze(&rules("R: r(X, Y) -> s(Y, Z). S: s(X, Y) -> t(X)."));
        assert_eq!(
            report.terminating.certificate(),
            Some(&Certificate::WeaklyAcyclic)
        );
        assert!(matches!(
            report.kbounded,
            KBoundedOutcome::Bounded { k: 2, .. }
        ));
    }

    #[test]
    fn kbounded_route_does_not_rescue_divergence() {
        // A diverging non-linear ruleset must stay at the evidence
        // level: the rank analysis exhausts its budget on the diverging
        // critical chase and certifies nothing.
        let report = analyze(&rules(
            "R1: p(X), seed(X) -> q(X, Z). R2: q(X, Z) -> p(Z), seed(Z).",
        ));
        assert!(!report.terminating.is_certified());
        assert!(matches!(
            report.kbounded,
            KBoundedOutcome::BudgetExhausted { .. }
        ));
    }
}
