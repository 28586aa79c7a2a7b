//! The admission-time analysis gate: static certificates + dynamic
//! width probes fused into one verdict and one chase plan.
//!
//! [`analyze_kb`] runs the static analyzer ([`chase_analysis::analyze_with_budget`])
//! over the ruleset, probes the KB's chase behaviour
//! ([`crate::classes::probe_classes`]), reads the probe chases' treewidth
//! profiles into [`DynamicEvidence`] via a plateau heuristic, upgrades
//! the report's verdicts with that evidence, and derives a stratified
//! [`ChasePlan`]. The result is everything a service needs at submit
//! time: is any decidability route open, and which strategy should the
//! job run under.
//!
//! The plateau heuristic compares the maximum certified treewidth upper
//! bound over the trailing half of a chase prefix against the leading
//! half: a profile that has stopped climbing is evidence (not proof) of
//! a width-bounded chase, a profile still climbing is divergence
//! evidence, and a profile too short to split is **no signal at all**
//! ([`WidthObservation::Unobserved`]) — a small probe budget must never
//! mint a refutation. On the paper's two headline KBs the heuristic
//! lands them in distinct plan shapes: the steepening staircase's
//! restricted profile climbs while its core profile plateaus
//! (`core-bounded-loop`), the inflating elevator's restricted profile
//! plateaus (`bounded-width-loop`). The reading bounds only the instances
//! its verdict depends on (see `read_width`); the full profiles stay
//! available from the probe ([`ClassProbe::restricted_profile`]).

use std::ops::ControlFlow;

use chase_analysis::{
    analyze_with_budget, cost_model, stratified_plan_probed, BudgetEnvelope, ChasePlan, CostClass,
    DynamicEvidence, KBoundedOutcome, RulesetReport, RulesetShape, WidthObservation,
};
use chase_engine::{Derivation, RuleSet};
use chase_homomorphism::SearchBudget;
use chase_treewidth::treewidth_upper_above;

use crate::classes::{probe_classes_budgeted, ClassProbe};
use crate::kb::KnowledgeBase;

/// Default application budget for the admission-time dynamic probe —
/// chosen to separate the paper's two headline KBs: at 120 applications
/// the staircase's restricted profile has climbed from 2 to 7 while its
/// core profile sits flat at 2, and the elevator's restricted profile
/// sits flat at 3 (its slow inflation only shows up at much larger
/// horizons, where the probe would also get expensive).
pub const DEFAULT_PROBE_APPLICATIONS: usize = 120;

/// Minimum profile length before the plateau heuristic speaks: shorter
/// prefixes have not left the fact base's influence yet and read as
/// [`WidthObservation::Unobserved`].
const MIN_PROFILE: usize = 16;

/// One probe's [`WidthObservation`] and what reading it cost.
struct WidthReading {
    observation: WidthObservation,
    /// Instances whose treewidth upper bound was computed.
    #[cfg_attr(not(test), allow(dead_code))] // pinned by the counter test
    bounded: usize,
    /// Of those, the ones that needed the min-fill order.
    #[cfg_attr(not(test), allow(dead_code))] // pinned by the counter test
    min_fill_runs: usize,
}

/// Reads a probe's width profile into a [`WidthObservation`] by
/// comparing the maximum certified treewidth upper bound of its
/// trailing half against that of its leading half. Three outcomes, kept
/// deliberately distinct: a profile shorter than [`MIN_PROFILE`] is
/// [`WidthObservation::Unobserved`] — *no signal*, never a divergence
/// claim — while only a long-enough profile whose trailing half exceeds
/// its leading half counts as [`WidthObservation::Climbing`]. A
/// terminated chase is trivially width-bounded by its maximum.
///
/// The profile (one upper bound per instance of `d`) is never built
/// whole; the reading computes only what the verdict depends on:
///
/// 1. no lower bound;
/// 2. each instance's bound against the running maximum of its half as
///    floor ([`treewidth_upper_above`]), so min-fill runs only when
///    min-degree alone would raise that maximum;
/// 3. the replay stops at the first trailing instance above the leading
///    maximum (the verdict is then `Climbing`), and a profile too short
///    to judge bounds no instance at all.
fn read_width(d: &Derivation, terminated: bool) -> WidthReading {
    let mut reading = WidthReading {
        observation: WidthObservation::Unobserved,
        bounded: 0,
        min_fill_runs: 0,
    };
    if !terminated && d.len() < MIN_PROFILE {
        return reading;
    }
    // A terminated chase folds its whole profile into the leading half.
    let half = if terminated { d.len() } else { d.len() / 2 };
    let (mut leading, mut trailing) = (0, 0);
    d.replay_while(|e| {
        let max = if e.index < half {
            &mut leading
        } else {
            &mut trailing
        };
        let upper = treewidth_upper_above(e.instance, *max);
        reading.bounded += 1;
        reading.min_fill_runs += usize::from(upper.min_fill);
        *max = upper.width.max(*max);
        if trailing > leading {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    reading.observation = if terminated {
        WidthObservation::Plateau(leading)
    } else if trailing <= leading {
        WidthObservation::Plateau(trailing)
    } else {
        WidthObservation::Climbing
    };
    reading
}

/// Everything the admission gate learned about one KB.
#[derive(Clone, Debug)]
pub struct AnalysisGate {
    /// The static report, upgraded with dynamic evidence.
    pub report: RulesetReport,
    /// The stratified chase plan derived from the dependency graph and
    /// the evidence. Carries a hard application ceiling when a
    /// k-boundedness certificate priced one.
    pub plan: ChasePlan,
    /// The dynamic evidence extracted from the probe.
    pub evidence: DynamicEvidence,
    /// The raw probe (the probe chases and their termination flags).
    pub probe: ClassProbe,
    /// The complexity tier the certificates place the ruleset in.
    pub cost_class: CostClass,
    /// The certificate-priced budget envelope for admitted jobs.
    pub envelope: BudgetEnvelope,
    /// Which certificate (or refutation) priced the envelope — the
    /// provenance string surfaced on the wire.
    pub provenance: String,
}

impl AnalysisGate {
    /// Is at least one decidability route (fes / bts / core-bts) still
    /// open? Strict admission sheds jobs for which this is `false`.
    pub fn admissible(&self) -> bool {
        !self.report.refutes_every_route()
    }
}

/// Places the (evidence-upgraded) report in a complexity tier and names
/// the certificate responsible — the provenance that accompanies the
/// envelope onto the wire.
fn classify_cost(report: &RulesetReport) -> (CostClass, String) {
    if report.datalog {
        return (CostClass::Polynomial, "datalog".to_string());
    }
    if let KBoundedOutcome::Bounded { k, .. } = report.kbounded {
        // The quantitative round bound prices the job even when a
        // cheaper certificate decided the verdict.
        return (CostClass::BoundedRounds(k), "k-bounded".to_string());
    }
    if let Some(c) = report.terminating.certificate() {
        return (CostClass::Terminating, c.name().to_string());
    }
    if let Some(c) = report.bts.certificate().or(report.core_bts.certificate()) {
        return (CostClass::BoundedWidth, c.name().to_string());
    }
    let provenance = report
        .terminating
        .refutation()
        .map_or("inconclusive", |r| r.name());
    (CostClass::Open, provenance.to_string())
}

/// Converts a raw class probe into evidence.
fn evidence_from_probe(probe: &ClassProbe) -> DynamicEvidence {
    DynamicEvidence {
        restricted_terminated: probe.restricted_chase_terminated,
        restricted_width: read_width(&probe.restricted, probe.restricted_chase_terminated)
            .observation,
        core_terminated: probe.core_chase_terminated,
        core_width: read_width(&probe.core, probe.core_chase_terminated).observation,
    }
}

/// Runs the full admission-time analysis: static certificates under
/// `budget`, a dynamic probe of `probe_applications` chase steps, and
/// the fused report + plan.
///
/// `budget`'s deadline and cancel flags are threaded into every dynamic
/// sub-test — the MFA Skolem chase *and* both probe chases — so a
/// service can bound the whole analysis by wall clock.
///
/// The plan's cyclic unguarded strata are shaped by **per-component**
/// evidence: when such a stratum is a strict subset of the ruleset, the
/// KB restricted to its rules is probed separately, so a KB containing
/// both an elevator-like and a staircase-like component gets distinct
/// shapes for them instead of whichever evidence the whole-KB probe
/// happened to produce. A stratum covering the whole ruleset reuses the
/// whole-KB probe — the common case pays for exactly one probe.
pub fn analyze_kb(
    kb: &KnowledgeBase,
    budget: &SearchBudget,
    probe_applications: usize,
) -> AnalysisGate {
    let mut report = analyze_with_budget(&kb.rules, budget);
    let raw_probe = probe_classes_budgeted(kb, probe_applications, budget);
    let evidence = evidence_from_probe(&raw_probe);
    report.attach_evidence(&evidence);
    let mut plan = stratified_plan_probed(&kb.rules, |scc| {
        if scc.len() == kb.rules.len() {
            return evidence.clone();
        }
        let sub_rules: RuleSet = scc.iter().map(|&r| kb.rules.get(r).clone()).collect();
        let sub = KnowledgeBase::new(kb.vocab.clone(), kb.facts.clone(), sub_rules);
        evidence_from_probe(&probe_classes_budgeted(&sub, probe_applications, budget))
    });
    let (cost_class, provenance) = classify_cost(&report);
    let envelope = cost_model(cost_class, &RulesetShape::of(&kb.rules));
    if matches!(cost_class, CostClass::BoundedRounds(_)) {
        // A k-boundedness certificate turns the envelope's application
        // allowance into a *hard* plan-level ceiling: the chase of any
        // instance saturates within k rounds, so running past the
        // priced allowance is never useful work.
        plan = plan.with_max_apps(envelope.max_apps);
    }
    AnalysisGate {
        report,
        plan,
        evidence,
        probe: raw_probe,
        cost_class,
        envelope,
        provenance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_analysis::StratumShape;
    use chase_atoms::{AtomSet, Vocabulary};
    use chase_engine::boundedness::treewidth_profile;
    use chase_kbs::random::{random_instance, random_linear_ruleset, InstanceConfig};

    fn budget() -> SearchBudget {
        SearchBudget::unlimited().with_node_limit(2_000)
    }

    // 80 probe applications already separate the two paper KBs and keep
    // these tests affordable in debug builds; the production default is
    // a little larger for margin.
    const TEST_PROBE: usize = 80;

    #[test]
    fn staircase_gets_core_bounded_plan() {
        let kb = KnowledgeBase::staircase();
        let gate = analyze_kb(&kb, &budget(), TEST_PROBE);
        // Not weakly acyclic, and the restricted profile keeps climbing
        // while the core profile plateaus: core-bounded evidence.
        assert!(!gate.report.weakly_acyclic);
        assert_eq!(gate.evidence.restricted_width, WidthObservation::Climbing);
        assert!(gate.evidence.core_width.plateau().is_some());
        assert!(gate.report.certified_core_bts());
        assert!(gate
            .plan
            .strata
            .iter()
            .any(|s| s.shape == StratumShape::CoreBoundedLoop));
        assert!(gate.admissible());
    }

    #[test]
    fn elevator_gets_bounded_width_plan() {
        let kb = KnowledgeBase::elevator();
        let gate = analyze_kb(&kb, &budget(), TEST_PROBE);
        // The elevator has a treewidth-1 universal model; the probe sees
        // a plateauing restricted profile, so bts stays certified-or-open
        // and the plan picks a restricted-width shape — distinct from
        // the staircase's core-bounded shape.
        assert!(gate.evidence.restricted_width.plateau().is_some());
        assert!(!gate.report.bts.is_refuted());
        assert!(gate
            .plan
            .strata
            .iter()
            .any(|s| s.shape == StratumShape::BoundedWidthLoop));
        assert!(gate.admissible());
    }

    #[test]
    fn terminating_kb_is_admissible_with_terminating_plan() {
        let kb = KnowledgeBase::from_text("r(a, b). R: r(X, Y) -> s(Y, Z). S: s(X, Y) -> t(X).")
            .unwrap();
        let gate = analyze_kb(&kb, &budget(), 60);
        assert!(gate.report.certified_fes());
        assert!(gate.admissible());
        assert!(gate.plan.strata.iter().all(|s| !s.shape.needs_core()));
        // The pipeline is k-bounded; the certificate prices the job and
        // the envelope becomes a hard plan-level application ceiling.
        assert!(matches!(gate.cost_class, CostClass::BoundedRounds(_)));
        assert_eq!(gate.provenance, "k-bounded");
        assert_eq!(gate.plan.max_apps, Some(gate.envelope.max_apps));
    }

    #[test]
    fn refuted_kb_gets_the_open_envelope() {
        // Unguarded, cyclic, diverging, and probed under a horizon too
        // short for width evidence: no certificate anywhere, so the
        // envelope collapses to the legacy tight caps with the MFA
        // refutation as provenance.
        let kb = KnowledgeBase::from_text(
            "h(a, b). v(a, a). F: h(X, Y), v(X, X2) -> h(X2, Y2), v(Y, Y2).",
        )
        .unwrap();
        let gate = analyze_kb(&kb, &budget(), 10);
        assert_eq!(gate.cost_class, CostClass::Open);
        assert_eq!(gate.envelope.max_apps, 1_000);
        assert_eq!(gate.provenance, "mfa-cycle");
    }

    #[test]
    fn datalog_kb_is_priced_polynomial() {
        let kb = KnowledgeBase::from_text("e(a, b). T: e(X, Y), e(Y, Z) -> e(X, Z).").unwrap();
        let gate = analyze_kb(&kb, &budget(), 40);
        assert_eq!(gate.cost_class, CostClass::Polynomial);
        assert_eq!(gate.provenance, "datalog");
        assert!(gate.envelope.max_apps >= 2_000);
        // Saturation is not round-bounded, so no hard plan ceiling.
        assert_eq!(gate.plan.max_apps, None);
    }

    /// The full-profile reading [`read_width`] must agree with: the maximum
    /// of each half of the whole profile.
    fn plateau(profile: &[usize], terminated: bool) -> WidthObservation {
        if terminated {
            return WidthObservation::Plateau(profile.iter().copied().max().unwrap_or(0));
        }
        if profile.len() < MIN_PROFILE {
            return WidthObservation::Unobserved;
        }
        let (leading, trailing) = profile.split_at(profile.len() / 2);
        let leading = leading.iter().copied().max().unwrap_or(0);
        let trailing = trailing.iter().copied().max().unwrap_or(0);
        if trailing <= leading {
            WidthObservation::Plateau(trailing)
        } else {
            WidthObservation::Climbing
        }
    }

    #[test]
    fn plateau_oracle_reads_short_and_terminated_profiles() {
        // Too short to judge under the minimum profile length.
        assert_eq!(plateau(&[1, 2, 3], false), WidthObservation::Unobserved);
        // Termination trumps everything.
        assert_eq!(plateau(&[5, 9], true), WidthObservation::Plateau(9));
    }

    // The analyzer corpus: `corpus(testdata)`.
    include!("../../../tests/support/analysis_corpus.rs");

    /// Reads both probes of `kb` at `horizon` with [`read_width`] and
    /// with [`plateau`] over the engine's full profile, asserts they
    /// agree, and records which verdict each probe reached.
    fn check_reading(name: &str, kb: &KnowledgeBase, horizon: usize, seen: &mut Vec<&str>) {
        let probe = crate::classes::probe_classes(kb, horizon);
        for (d, terminated) in [
            (&probe.restricted, probe.restricted_chase_terminated),
            (&probe.core, probe.core_chase_terminated),
        ] {
            let profile: Vec<usize> = treewidth_profile(d).iter().map(|b| b.upper).collect();
            let want = plateau(&profile, terminated);
            let got = read_width(d, terminated);
            assert_eq!(got.observation, want, "{name} at {horizon}");
            seen.push(match want {
                _ if terminated => "terminated",
                WidthObservation::Unobserved => "unobserved",
                WidthObservation::Plateau(_) => "plateau",
                WidthObservation::Climbing => "climbing",
            });
        }
    }

    #[test]
    fn width_reading_equals_the_full_profile_plateau() {
        let mut seen = Vec::new();
        for w in chase_kbs::witnesses::all_witnesses() {
            let kb = KnowledgeBase::new(w.vocab, w.facts, w.rules);
            for horizon in [10, 60] {
                check_reading(w.name, &kb, horizon, &mut seen);
            }
        }
        let testdata = concat!(env!("CARGO_MANIFEST_DIR"), "/../../testdata");
        let corpus = corpus(testdata);
        // The paper's KBs and the testdata programs, on their own facts.
        for (name, kb) in corpus.iter().filter(|(_, kb)| !kb.facts.is_empty()) {
            for horizon in [10, 40, DEFAULT_PROBE_APPLICATIONS] {
                check_reading(name, kb, horizon, &mut seen);
            }
        }
        // Every ruleset of the corpus over a seeded random instance. The
        // horizons stop at 20: past that, the core probe of a chain rule
        // (`edge2`) over these instances costs seconds, its fold searches
        // growing exponentially with the chain.
        let cfg = InstanceConfig {
            atoms: 12,
            terms: 8,
            ..InstanceConfig::default()
        };
        for (seed, (name, kb)) in (0..).zip(corpus) {
            let KnowledgeBase {
                mut vocab, rules, ..
            } = kb;
            let binary = |p: &&str| vocab.lookup_pred(p).is_some_and(|id| vocab.arity(id) == 2);
            let preds: Vec<&'static str> = ["r", "s", "t", "h", "v", "e", "q"]
                .into_iter()
                .filter(binary)
                .collect();
            let cfg = InstanceConfig {
                preds: if preds.is_empty() {
                    vec!["noise"]
                } else {
                    preds
                },
                ..cfg.clone()
            };
            let facts = random_instance(&mut vocab, &cfg, seed);
            let kb = KnowledgeBase::new(vocab, facts, rules);
            for horizon in [10, 20] {
                check_reading(&name, &kb, horizon, &mut seen);
            }
        }
        for verdict in ["unobserved", "terminated", "plateau", "climbing"] {
            assert!(seen.contains(&verdict), "no input read as {verdict}");
        }
    }

    #[test]
    fn staircase_reading_bounds_only_what_the_verdict_needs() {
        // Pinned counters at the default horizon. The restricted profile
        // climbs, so its replay stops at the first trailing instance above
        // the leading maximum; the core profile plateaus and is read whole.
        let kb = KnowledgeBase::staircase();
        let probe = crate::classes::probe_classes(&kb, DEFAULT_PROBE_APPLICATIONS);
        assert_eq!(probe.restricted.len(), DEFAULT_PROBE_APPLICATIONS + 1);
        assert_eq!(probe.core.len(), DEFAULT_PROBE_APPLICATIONS + 1);
        let restricted = read_width(&probe.restricted, false);
        assert_eq!(restricted.observation, WidthObservation::Climbing);
        assert_eq!((restricted.bounded, restricted.min_fill_runs), (85, 7));
        let core = read_width(&probe.core, false);
        assert_eq!(core.observation, WidthObservation::Plateau(2));
        assert_eq!((core.bounded, core.min_fill_runs), (121, 2));
        // A profile too short to judge bounds nothing.
        let short = crate::classes::probe_classes(&kb, MIN_PROFILE - 2);
        let unobserved = read_width(&short.restricted, false);
        assert_eq!(unobserved.observation, WidthObservation::Unobserved);
        assert_eq!(unobserved.bounded, 0);
    }
}
