//! **E9 — match-phase performance** of the positional-index matcher.
//!
//! Runs four tracked KBs — the paper's staircase `K_h` and elevator
//! `K_v`, a synthetic labeled grid with diagonal/transitive rules, and a
//! fanout KB whose constants carry many unrelated atoms — as restricted
//! chases under fixed application budgets, and reports each row's
//! match-phase time, candidate trials, searches, peak index postings and
//! final atom count.
//!
//! Full runs repeat every row three times, keep the fastest match phase
//! and the fastest wall time, check that every repetition explored the
//! same trials and reached the same instance (the counters the gate
//! compares are deterministic), and persist `BENCH_match.json` (per-row
//! match-phase counters) and `BENCH_e2e.json` (end-to-end wall times) at
//! the workspace root.
//!
//! The CI regression gate rides on the smoke profile: `--smoke` shrinks
//! the budgets and compares the *deterministic* counters — the
//! `indexed_match_trials` and the final atom count per row — against the
//! committed `BENCH_match_baseline.json` at the workspace root, failing
//! on any trial increase, any change in the chased result, or a missing
//! baseline. `--write-baseline` regenerates that baseline, the gated
//! counters only, from the smoke budgets. Field names keep the `indexed_` prefix of that
//! baseline's schema. Neither profile touches `results/`.

use std::fmt::Write as _;
use std::time::Instant;

use chase_bench::{exit_with, workspace_root, write_json, Allow, GateRow, Report};
use chase_core::KnowledgeBase;
use chase_engine::{ChaseConfig, ChaseResult, ChaseStats, ChaseVariant};
use treechase_service::json::Json;

/// An `n × n` labeled grid with diagonal and transitive-closure rules:
/// dense joins over two base predicates, the matcher-stress workload.
fn grid_kb(n: usize) -> KnowledgeBase {
    let mut src = String::new();
    for i in 0..n {
        for j in 0..n {
            if j + 1 < n {
                let _ = writeln!(src, "h(c{i}_{j}, c{i}_{next}).", next = j + 1);
            }
            if i + 1 < n {
                let _ = writeln!(src, "v(c{i}_{j}, c{next}_{j}).", next = i + 1);
            }
        }
    }
    src.push_str("Diag: h(X, Y), v(Y, Z) -> d(X, Z).\n");
    src.push_str("Trans: d(X, Y), d(Y, Z) -> d(X, Z).\n");
    KnowledgeBase::from_text(&src).expect("generated grid KB parses")
}

/// `n` independent chain generators whose source constants each carry
/// `k` unrelated `q` facts. The satisfaction check for `E`'s head seeds
/// `X ↦ sᵢ` and must enumerate candidates for `e(sᵢ, Z)`: the positional
/// index reads the `(e, 0, sᵢ)` posting directly, so the check does not
/// grow with `k` although the term frequency of `sᵢ` does.
fn fanout_kb(n: usize, k: usize) -> KnowledgeBase {
    let mut src = String::new();
    for i in 0..n {
        let _ = writeln!(src, "p(s{i}).");
        for j in 0..k {
            let _ = writeln!(src, "q(s{i}, u{i}_{j}).");
        }
    }
    src.push_str("E: p(X) -> e(X, Z), p(Z).\n");
    KnowledgeBase::from_text(&src).expect("generated fanout KB parses")
}

struct Measurement {
    kb: &'static str,
    budget: usize,
    stats: ChaseStats,
    wall_us: u64,
    final_atoms: usize,
    /// Did every repetition explore the same trials and reach the same
    /// instance?
    repeatable: bool,
}

impl Measurement {
    fn to_match_json(&self) -> Json {
        Json::obj([
            ("kb", Json::str(self.kb)),
            ("application_budget", Json::Int(self.budget as i64)),
            (
                "indexed_match_us",
                Json::Int(self.stats.match_time_us as i64),
            ),
            (
                "indexed_match_trials",
                Json::Int(self.stats.match_trials as i64),
            ),
            (
                "indexed_match_searches",
                Json::Int(self.stats.match_searches as i64),
            ),
            (
                "peak_index_postings",
                Json::Int(self.stats.peak_index_postings as i64),
            ),
            ("final_atoms", Json::Int(self.final_atoms as i64)),
        ])
    }

    fn to_e2e_json(&self) -> Json {
        Json::obj([
            ("kb", Json::str(self.kb)),
            ("application_budget", Json::Int(self.budget as i64)),
            ("wall_us", Json::Int(self.wall_us as i64)),
        ])
    }

    /// The smoke gate's deterministic counters: `match_trials` is a pure
    /// function of (KB, budget), so any increase means the search
    /// genuinely regressed, not that CI hardware was slow.
    fn gate_row(&self) -> GateRow {
        GateRow {
            key: vec![
                ("kb", Json::str(self.kb)),
                ("application_budget", Json::Int(self.budget as i64)),
            ],
            checks: vec![
                (
                    "indexed_match_trials",
                    self.stats.match_trials as u64,
                    Allow::NoIncrease,
                ),
                ("final_atoms", self.final_atoms as u64, Allow::Same),
            ],
        }
    }
}

/// Runs the budget-bounded restricted chase `reps` times and keeps the
/// fastest match phase and, separately, the fastest wall time: the
/// trajectory is deterministic, so repetitions should differ only in
/// allocator/page-cache warmup noise and each minimum is the signal.
fn measure(name: &'static str, kb: &KnowledgeBase, budget: usize, reps: usize) -> Measurement {
    let cfg = ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(budget);
    let runs: Vec<(ChaseResult, u64)> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            let res = kb.chase(&cfg);
            (res, t.elapsed().as_micros() as u64)
        })
        .collect();
    let first = &runs[0].0;
    let repeatable = runs.iter().all(|(r, _)| {
        r.stats.match_trials == first.stats.match_trials && r.final_instance == first.final_instance
    });
    let (best, _) = runs
        .iter()
        .min_by_key(|(r, _)| r.stats.match_time_us)
        .expect("reps >= 1");
    let wall_us = runs.iter().map(|&(_, us)| us).min().expect("reps >= 1");
    Measurement {
        kb: name,
        budget,
        stats: best.stats,
        wall_us,
        final_atoms: best.final_instance.len(),
        repeatable,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");
    let small = smoke || write_baseline;
    let mut report = Report::new("e9-match-perf").recording(!small);

    // (name, KB, smoke budget, full budgets). The staircase and elevator
    // chases are budget-bound (they do not terminate); the grid
    // saturates, so its budget just needs to exceed the fixpoint.
    let grid_n = if small { 6 } else { 16 };
    let (fan_n, fan_k) = if small { (20, 30) } else { (12, 12000) };
    let tracked: [(&'static str, KnowledgeBase, usize, &[usize]); 4] = [
        ("staircase", KnowledgeBase::staircase(), 60, &[120, 240]),
        ("elevator", KnowledgeBase::elevator(), 60, &[120, 240]),
        ("grid", grid_kb(grid_n), 400, &[1000, 4000]),
        ("fanout", fanout_kb(fan_n, fan_k), 100, &[60, 120]),
    ];

    let mut rows = Vec::new();
    for (name, kb, smoke_budget, full_budgets) in &tracked {
        let budgets: &[usize] = if small {
            std::slice::from_ref(smoke_budget)
        } else {
            full_budgets
        };
        for &budget in budgets {
            let m = measure(name, kb, budget, if small { 1 } else { 3 });
            report.row(format!(
                "{name:>9} @ {:>5}: match {:>7}us; trials {}; searches {}; \
                 postings peak {}; {} atoms",
                m.budget,
                m.stats.match_time_us,
                m.stats.match_trials,
                m.stats.match_searches,
                m.stats.peak_index_postings,
                m.final_atoms,
            ));
            rows.push(m);
        }
    }

    if !small {
        let repeatable = rows.iter().all(|m| m.repeatable);
        report.claim(
            "match/repetitions-agree",
            "every repetition explores the same trials and instance",
            repeatable,
            repeatable,
        );
    }

    let root = workspace_root();
    if smoke && !write_baseline {
        report.claim_gate(
            "match/no-trial-regression",
            "match_trials no higher than the committed baseline",
            &root.join("BENCH_match_baseline.json"),
            &rows.iter().map(Measurement::gate_row).collect::<Vec<_>>(),
        );
    }

    let rows_json = |f: fn(&Measurement) -> Json| Json::Arr(rows.iter().map(f).collect());
    if write_baseline {
        chase_bench::write_baseline(
            &report,
            &root.join("BENCH_match_baseline.json"),
            "e9-match-perf",
            &rows.iter().map(Measurement::gate_row).collect::<Vec<_>>(),
        );
    } else if !smoke {
        for (file, json) in [
            ("BENCH_match.json", rows_json(Measurement::to_match_json)),
            ("BENCH_e2e.json", rows_json(Measurement::to_e2e_json)),
        ] {
            let bench = Json::obj([
                ("experiment", Json::str("e9-match-perf")),
                ("smoke", Json::Bool(false)),
                ("measurements", json),
            ]);
            write_json(&report, &root.join(file), &bench);
        }
    }

    exit_with(report.finish());
}
