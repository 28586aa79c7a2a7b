//! **E7 — core maintenance performance**: the pivot-certified maintainer
//! vs the from-scratch recompute it replaced.
//!
//! Runs the staircase `K_h` core chase under a fixed application budget.
//! Probing is serial, so the run is deterministic and the gate below
//! compares its counters. The from-scratch recompute is a reference loop
//! over the run's own derivation: starting from `σ₀ = core_of(F)`, it
//! applies each logged trigger in place and re-cores the whole instance
//! with `core_of` (the pre-maintainer behaviour). It checks that:
//!
//! 1. the reference recomputes exactly the maintainer's simplification
//!    at every step, and both land on isomorphic final instances (cores
//!    are unique up to isomorphism, so the maintainer must not change
//!    the result);
//! 2. the maintainer spends at least 2× less time in the core phase at
//!    the largest budget. Both run the same fold search; the maintainer
//!    skips the probes of every old variable in a phase whose pivot
//!    certificate holds.
//!
//! Besides the usual `results/e7-core-perf.jsonl` claims, the per-budget
//! measurements are written to `BENCH_core.json` at the workspace root
//! so the numbers ride along with the repository.
//!
//! The full run also measures the admission gate's probe shape on its
//! own: the elevator `K_v` and the staircase core chases under the
//! `DatalogFirst` scheduler at 120 applications, median core-phase time
//! of seven runs. These rows are written to `BENCH_core.json` under
//! `gate_shape`.
//!
//! `--smoke` shrinks the budgets for CI: it still cross-checks
//! isomorphism but reports the speedup informationally only (tiny runs
//! are noise-dominated). The smoke run also compares the deterministic
//! counters — match nodes and fold candidates of the maintainer and of
//! the reference, the maintainer run's trigger-discovery match trials
//! (semi-naive discovery keeps them linear in the applications), and the
//! final atom count — against the committed
//! `BENCH_core_baseline.json` at the workspace root, failing on any
//! increase in the counters, any change in the result, or a missing
//! baseline. `--write-baseline` regenerates that baseline, the gated
//! counters only, from the smoke budgets. Neither profile touches
//! `results/`.

use std::time::Instant;

use chase_atoms::AtomSet;
use chase_bench::{exit_with, workspace_root, write_json, Allow, GateRow, Report};
use chase_core::KnowledgeBase;
use chase_engine::{
    apply_trigger, ChaseConfig, ChaseStats, ChaseVariant, Derivation, SchedulerKind,
};
use chase_homomorphism::{core_of_budgeted, isomorphism, SearchBudget};
use treechase_service::json::Json;

/// The from-scratch reference replayed over a maintainer run.
struct Reference {
    /// Core-phase tally: `σ₀` plus one `core_of` per logged step.
    stats: ChaseStats,
    final_instance: AtomSet,
    /// Every `core_of` retraction equalled the logged `σ_i`.
    same_steps: bool,
}

/// Replays `d`'s triggers from `σ₀ = core_of(F)`, re-coring the whole
/// instance with `core_of` after every application instead of
/// maintaining the core.
fn full_recompute(d: &Derivation) -> Reference {
    let budget = SearchBudget::unlimited();
    let mut stats = ChaseStats::default();
    let phase = Instant::now();
    let (res, ms) = core_of_budgeted(d.initial(), &budget);
    stats.tally_core_phase(ms, phase.elapsed());
    let mut same_steps = res.retraction == *d.simplification(0);
    let mut instance = res.core;
    for step in d.steps() {
        apply_trigger(d.rules(), &mut instance, &step.trigger, &step.pi_safe);
        let phase = Instant::now();
        let (res, ms) = core_of_budgeted(&instance, &budget);
        stats.tally_core_phase(ms, phase.elapsed());
        same_steps &= res.retraction == step.simplification;
        instance = res.core;
    }
    Reference {
        stats,
        final_instance: instance,
        same_steps,
    }
}

struct Measurement {
    budget: usize,
    full: ChaseStats,
    /// Wall time of the reference loop (replay and core phases; no
    /// trigger discovery).
    full_wall_us: u64,
    /// The incremental maintainer.
    inc: ChaseStats,
    inc_wall_us: u64,
    final_atoms: usize,
    same_steps: bool,
    isomorphic: bool,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.full.core_time_us as f64 / self.inc.core_time_us.max(1) as f64
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("application_budget", Json::Int(self.budget as i64)),
            ("full_core_us", Json::Int(self.full.core_time_us as i64)),
            ("full_wall_us", Json::Int(self.full_wall_us as i64)),
            ("full_match_nodes", Json::Int(self.full.match_nodes as i64)),
            (
                "full_fold_candidates",
                Json::Int(self.full.fold_candidates as i64),
            ),
            (
                "incremental_core_us",
                Json::Int(self.inc.core_time_us as i64),
            ),
            ("incremental_wall_us", Json::Int(self.inc_wall_us as i64)),
            (
                "incremental_match_nodes",
                Json::Int(self.inc.match_nodes as i64),
            ),
            (
                "incremental_fold_candidates",
                Json::Int(self.inc.fold_candidates as i64),
            ),
            (
                "incremental_match_trials",
                Json::Int(self.inc.match_trials as i64),
            ),
            (
                "incremental_retractions",
                Json::Int(self.inc.retractions as i64),
            ),
            ("final_atoms", Json::Int(self.final_atoms as i64)),
            ("core_phase_speedup", Json::Float(self.speedup())),
            ("same_simplifications", Json::Bool(self.same_steps)),
            ("isomorphic", Json::Bool(self.isomorphic)),
        ])
    }
}

fn measure(kb: &KnowledgeBase, budget: usize) -> Measurement {
    let cfg = ChaseConfig::variant(ChaseVariant::Core).with_max_applications(budget);
    // A warm-up run, so that the timed run is not the cold first one.
    kb.chase(&cfg);
    let t0 = Instant::now();
    let inc = kb.chase(&cfg);
    let inc_wall_us = t0.elapsed().as_micros() as u64;
    let t1 = Instant::now();
    let full = full_recompute(&inc.derivation);
    let full_wall_us = t1.elapsed().as_micros() as u64;
    Measurement {
        budget,
        full: full.stats,
        full_wall_us,
        inc: inc.stats,
        inc_wall_us,
        final_atoms: inc.final_instance.len(),
        same_steps: full.same_steps,
        isomorphic: isomorphism(&full.final_instance, &inc.final_instance).is_some(),
    }
}

/// Incremental core chase of one KB in the admission gate's probe shape.
struct GateShapeRow {
    kb: &'static str,
    stats: ChaseStats,
    /// Median core-phase time over [`GATE_SHAPE_RUNS`] runs.
    core_us: u64,
}

/// Application budget of the gate-shape rows: the gate's probe horizon.
const GATE_SHAPE_BUDGET: usize = 120;

/// Runs behind each gate-shape row.
const GATE_SHAPE_RUNS: usize = 7;

impl GateShapeRow {
    fn measure(name: &'static str, kb: &KnowledgeBase) -> GateShapeRow {
        let cfg = ChaseConfig::variant(ChaseVariant::Core)
            .with_scheduler(SchedulerKind::DatalogFirst)
            .with_max_applications(GATE_SHAPE_BUDGET);
        let runs: Vec<_> = (0..GATE_SHAPE_RUNS).map(|_| kb.chase(&cfg)).collect();
        let mut times: Vec<u64> = runs.iter().map(|r| r.stats.core_time_us).collect();
        times.sort_unstable();
        GateShapeRow {
            kb: name,
            stats: runs[0].stats,
            core_us: times[times.len() / 2],
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("kb", Json::str(self.kb)),
            ("scheduler", Json::str("datalog-first")),
            ("application_budget", Json::Int(GATE_SHAPE_BUDGET as i64)),
            ("core_us", Json::Int(self.core_us as i64)),
            ("match_nodes", Json::Int(self.stats.match_nodes as i64)),
            (
                "fold_candidates",
                Json::Int(self.stats.fold_candidates as i64),
            ),
            ("retractions", Json::Int(self.stats.retractions as i64)),
        ])
    }
}

impl Measurement {
    /// The deterministic counters the smoke gate compares: pure functions
    /// of (KB, budget, maintainer), so any increase means the fold
    /// search or trigger discovery explores a larger tree, not that the
    /// host was slow.
    fn gate_row(&self) -> GateRow {
        let up = Allow::NoIncrease;
        GateRow {
            key: vec![("application_budget", Json::Int(self.budget as i64))],
            checks: vec![
                ("full_match_nodes", self.full.match_nodes as u64, up),
                ("full_fold_candidates", self.full.fold_candidates as u64, up),
                ("incremental_match_nodes", self.inc.match_nodes as u64, up),
                (
                    "incremental_fold_candidates",
                    self.inc.fold_candidates as u64,
                    up,
                ),
                ("incremental_match_trials", self.inc.match_trials as u64, up),
                ("final_atoms", self.final_atoms as u64, Allow::Same),
            ],
        }
    }
}

fn main() {
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");
    let smoke = write_baseline || std::env::args().any(|a| a == "--smoke");
    let mut report = Report::new("e7-core-perf").recording(!smoke);
    let budgets: &[usize] = if smoke { &[10, 20] } else { &[30, 60, 90, 300] };

    let kb = KnowledgeBase::staircase();
    let mut rows = Vec::new();
    for &budget in budgets {
        let m = measure(&kb, budget);
        report.row(format!(
            "budget {:>3}: core phase {:>9}us full vs {:>7}us incremental ({:.1}x); \
             match nodes {} vs {}; fold candidates {} vs {}",
            m.budget,
            m.full.core_time_us,
            m.inc.core_time_us,
            m.speedup(),
            m.full.match_nodes,
            m.inc.match_nodes,
            m.full.fold_candidates,
            m.inc.fold_candidates,
        ));
        rows.push(m);
    }

    let all_iso = rows.iter().all(|m| m.same_steps && m.isomorphic);
    report.claim(
        "core/maintainer-preserves-result",
        "incremental ≅ full recompute (cores unique up to iso)",
        all_iso,
        all_iso,
    );
    let no_truncation = rows
        .iter()
        .all(|m| m.full.core_truncations == 0 && m.inc.core_truncations == 0);
    report.claim(
        "core/no-spurious-truncation",
        "unbudgeted runs never report truncated core phases",
        no_truncation,
        no_truncation,
    );

    let gate_rows = if smoke {
        Vec::new()
    } else {
        vec![
            GateShapeRow::measure("elevator", &KnowledgeBase::elevator()),
            GateShapeRow::measure("staircase", &kb),
        ]
    };
    for g in &gate_rows {
        report.row(format!(
            "{} datalog-first {GATE_SHAPE_BUDGET}: core phase {}us; match nodes {}; \
             fold candidates {}; retractions {}",
            g.kb, g.core_us, g.stats.match_nodes, g.stats.fold_candidates, g.stats.retractions,
        ));
    }

    let last = rows.last().expect("at least one budget");
    if smoke {
        // Tiny runs are timer-noise-dominated; require only that the
        // incremental path does not blow up, and report the speedup.
        report.claim(
            "core/incremental-not-pathological",
            "incremental core phase ≤ 4× full (smoke sizes)",
            format!("{:.2}x speedup at budget {}", last.speedup(), last.budget),
            last.speedup() >= 0.25,
        );
    } else {
        report.claim(
            "core/incremental-2x-speedup",
            "core phase ≥ 2× faster at the largest budget",
            format!("{:.2}x speedup at budget {}", last.speedup(), last.budget),
            last.speedup() >= 2.0,
        );
    }

    let gated: Vec<GateRow> = rows.iter().map(Measurement::gate_row).collect();
    let baseline = workspace_root().join("BENCH_core_baseline.json");
    if write_baseline {
        chase_bench::write_baseline(&report, &baseline, "e7-core-perf", &gated);
    } else if smoke {
        report.claim_gate(
            "core/no-search-regression",
            "core counters ≤ committed baseline, same final instance size",
            &baseline,
            &gated,
        );
    } else {
        // Persist the full-run measurements next to the repository
        // sources; smoke runs never clobber them with noise-dominated
        // tiny budgets.
        let bench = Json::obj([
            ("experiment", Json::str("e7-core-perf")),
            ("kb", Json::str("staircase")),
            ("smoke", Json::Bool(smoke)),
            (
                "measurements",
                Json::Arr(rows.iter().map(Measurement::to_json).collect()),
            ),
            (
                "gate_shape",
                Json::Arr(gate_rows.iter().map(GateShapeRow::to_json).collect()),
            ),
        ]);
        write_json(&report, &workspace_root().join("BENCH_core.json"), &bench);
    }

    exit_with(report.finish());
}
