//! **E7 — core maintenance performance**: from-scratch recompute vs the
//! dirty-region incremental maintainer.
//!
//! Runs the staircase `K_h` core chase under a fixed application budget
//! with `CoreMaintenance::FullRecompute` (the old behaviour: `core_of`
//! after every application) and with `CoreMaintenance::Incremental`
//! (fold candidates seeded from the dirty region) on one probe thread —
//! the deterministic run whose counters the gate below compares — and,
//! for its time only, on two probe threads. It checks that:
//!
//! 1. all trajectories land on isomorphic final instances (cores are
//!    unique up to isomorphism, so the maintainer must not change the
//!    result);
//! 2. the incremental maintainer spends at least 2× less time in the
//!    core phase at the largest budget (the PR's headline speedup).
//!
//! Besides the usual `results/e7-core-perf.jsonl` claims, the per-budget
//! measurements are written to `BENCH_core.json` at the workspace root
//! so the numbers ride along with the repository.
//!
//! The full run also measures the probe-thread exception on its own: the
//! elevator `K_v` and the staircase core chases under the `DatalogFirst`
//! scheduler at 120 applications (the admission gate's probe shape),
//! incremental core-phase time on one and on two probe threads, median
//! of seven alternating runs. On the elevator every fold probe fails, so
//! both thread counts explore the same trees: their counters must be
//! identical and their results isomorphic. These rows are written to
//! `BENCH_core.json` under `probe_threads`.
//!
//! `--smoke` shrinks the budgets for CI: it still cross-checks
//! isomorphism but reports the speedup informationally only (tiny runs
//! are noise-dominated). The smoke run also compares the deterministic
//! counters — match nodes and fold candidates of both maintainers, and
//! the final atom count — against the committed
//! `BENCH_core_baseline.json` at the workspace root, failing on any
//! increase in the counters, any change in the result, or a missing
//! baseline. `--write-baseline` regenerates that baseline from the smoke
//! budgets. Neither profile touches `results/`.

use std::time::Instant;

use chase_bench::{exit_with, workspace_root, write_json, Allow, GateRow, Report};
use chase_core::KnowledgeBase;
use chase_engine::{ChaseConfig, ChaseStats, ChaseVariant, CoreMaintenance, SchedulerKind};
use chase_homomorphism::isomorphism;
use treechase_service::json::Json;

struct Measurement {
    budget: usize,
    full: ChaseStats,
    full_wall_us: u64,
    /// The incremental maintainer on one probe thread: deterministic.
    inc: ChaseStats,
    inc_wall_us: u64,
    /// Core-phase time of the incremental maintainer on two probe threads.
    inc_2t_core_us: u64,
    final_atoms: usize,
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
                "incremental_retractions",
                Json::Int(self.inc.retractions as i64),
            ),
            (
                "incremental_2_threads_core_us",
                Json::Int(self.inc_2t_core_us as i64),
            ),
            ("final_atoms", Json::Int(self.final_atoms as i64)),
            ("core_phase_speedup", Json::Float(self.speedup())),
            ("isomorphic", Json::Bool(self.isomorphic)),
        ])
    }
}

fn measure(kb: &KnowledgeBase, budget: usize) -> Measurement {
    let cfg = |m, threads| {
        ChaseConfig::variant(ChaseVariant::Core)
            .with_core_maintenance(m)
            .with_max_applications(budget)
            .with_probe_threads(threads)
    };
    let t0 = Instant::now();
    let full = kb.chase(&cfg(CoreMaintenance::FullRecompute, 1));
    let full_wall_us = t0.elapsed().as_micros() as u64;
    let t1 = Instant::now();
    let inc = kb.chase(&cfg(CoreMaintenance::Incremental, 1));
    let inc_wall_us = t1.elapsed().as_micros() as u64;
    let inc_2t = kb.chase(&cfg(CoreMaintenance::Incremental, 2));
    Measurement {
        budget,
        full: full.stats,
        full_wall_us,
        inc: inc.stats,
        inc_wall_us,
        inc_2t_core_us: inc_2t.stats.core_time_us,
        final_atoms: inc.final_instance.len(),
        isomorphic: isomorphism(&full.final_instance, &inc.final_instance).is_some()
            && isomorphism(&inc.final_instance, &inc_2t.final_instance).is_some(),
    }
}

/// Incremental core chase of one KB under `DatalogFirst`, on one and on
/// two probe threads.
struct ThreadRow {
    kb: &'static str,
    one: ChaseStats,
    two: ChaseStats,
    /// Median core-phase time over [`THREAD_ROW_RUNS`] runs, per thread
    /// count.
    core_us: [u64; 2],
    isomorphic: bool,
}

/// Application budget of the probe-thread rows: the gate's probe horizon.
const THREAD_ROW_BUDGET: usize = 120;

/// Alternating runs per thread count behind each probe-thread row.
const THREAD_ROW_RUNS: usize = 7;

impl ThreadRow {
    fn measure(name: &'static str, kb: &KnowledgeBase) -> ThreadRow {
        let cfg = |threads| {
            ChaseConfig::variant(ChaseVariant::Core)
                .with_scheduler(SchedulerKind::DatalogFirst)
                .with_max_applications(THREAD_ROW_BUDGET)
                .with_probe_threads(threads)
        };
        let mut times = [Vec::new(), Vec::new()];
        let mut runs = Vec::new();
        for _ in 0..THREAD_ROW_RUNS {
            for (slot, threads) in [1, 2].into_iter().enumerate() {
                let res = kb.chase(&cfg(threads));
                times[slot].push(res.stats.core_time_us);
                runs.push(res);
            }
        }
        let median = |t: &mut Vec<u64>| {
            t.sort_unstable();
            t[t.len() / 2]
        };
        ThreadRow {
            kb: name,
            one: runs[0].stats,
            two: runs[1].stats,
            core_us: [median(&mut times[0]), median(&mut times[1])],
            isomorphic: runs
                .iter()
                .all(|r| isomorphism(&runs[0].final_instance, &r.final_instance).is_some()),
        }
    }

    /// Did both thread counts explore the same fold search?
    fn counters_identical(&self) -> bool {
        (
            self.one.match_nodes,
            self.one.fold_candidates,
            self.one.retractions,
        ) == (
            self.two.match_nodes,
            self.two.fold_candidates,
            self.two.retractions,
        )
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("kb", Json::str(self.kb)),
            ("scheduler", Json::str("datalog-first")),
            ("application_budget", Json::Int(THREAD_ROW_BUDGET as i64)),
            ("one_thread_core_us", Json::Int(self.core_us[0] as i64)),
            ("two_threads_core_us", Json::Int(self.core_us[1] as i64)),
            ("match_nodes", Json::Int(self.one.match_nodes as i64)),
            (
                "fold_candidates",
                Json::Int(self.one.fold_candidates as i64),
            ),
            ("retractions", Json::Int(self.one.retractions as i64)),
            ("counters_identical", Json::Bool(self.counters_identical())),
            ("isomorphic", Json::Bool(self.isomorphic)),
        ])
    }
}

impl Measurement {
    /// The deterministic counters the smoke gate compares: pure functions
    /// of (KB, budget, maintainer) on one probe thread, so any increase
    /// means the fold search explores a larger tree, not that the host
    /// was slow.
    fn gate_row(&self) -> GateRow {
        let up = Allow::UpPercent(0);
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
            "budget {:>3}: core phase {:>9}us full vs {:>7}us incremental ({:.1}x; \
             {}us on 2 threads); match nodes {} vs {}; fold candidates {} vs {}",
            m.budget,
            m.full.core_time_us,
            m.inc.core_time_us,
            m.speedup(),
            m.inc_2t_core_us,
            m.full.match_nodes,
            m.inc.match_nodes,
            m.full.fold_candidates,
            m.inc.fold_candidates,
        ));
        rows.push(m);
    }

    let all_iso = rows.iter().all(|m| m.isomorphic);
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

    let thread_rows = if smoke {
        Vec::new()
    } else {
        vec![
            ThreadRow::measure("elevator", &KnowledgeBase::elevator()),
            ThreadRow::measure("staircase", &kb),
        ]
    };
    for t in &thread_rows {
        report.row(format!(
            "{} datalog-first {THREAD_ROW_BUDGET}: core phase {}us on 1 thread vs {}us on 2; \
             match nodes {} vs {}; fold candidates {} vs {}; retractions {} vs {}",
            t.kb,
            t.core_us[0],
            t.core_us[1],
            t.one.match_nodes,
            t.two.match_nodes,
            t.one.fold_candidates,
            t.two.fold_candidates,
            t.one.retractions,
            t.two.retractions,
        ));
    }
    if let Some(elevator) = thread_rows.first() {
        let same = elevator.counters_identical() && elevator.isomorphic;
        report.claim(
            "core/elevator-threads-same-search",
            "elevator: 1 and 2 probe threads, identical counters and isomorphic results",
            same,
            same,
        );
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

    if smoke && !write_baseline {
        report.claim_gate(
            "core/no-search-regression",
            "single-thread core counters ≤ committed baseline, same final instance size",
            &workspace_root().join("BENCH_core_baseline.json"),
            &rows.iter().map(Measurement::gate_row).collect::<Vec<_>>(),
        );
    }

    // Persist the measurements next to the repository sources. Plain
    // smoke runs skip the write so CI never clobbers the committed
    // full-run numbers with noise-dominated tiny budgets.
    let file = match (smoke, write_baseline) {
        (_, true) => Some("BENCH_core_baseline.json"),
        (false, false) => Some("BENCH_core.json"),
        (true, false) => None,
    };
    if let Some(file) = file {
        let bench = Json::obj([
            ("experiment", Json::str("e7-core-perf")),
            ("kb", Json::str("staircase")),
            ("smoke", Json::Bool(smoke)),
            (
                "measurements",
                Json::Arr(rows.iter().map(Measurement::to_json).collect()),
            ),
            (
                "probe_threads",
                Json::Arr(thread_rows.iter().map(ThreadRow::to_json).collect()),
            ),
        ]);
        write_json(&report, &workspace_root().join(file), &bench);
    }

    exit_with(report.finish());
}
