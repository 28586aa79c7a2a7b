//! **E9 — match-phase performance**: naive predicate scans vs the
//! positional-index + bitset candidate pruner.
//!
//! Runs three tracked KBs — the paper's staircase `K_h` and elevator
//! `K_v`, plus a synthetic labeled grid with diagonal/transitive rules —
//! under fixed application budgets, once with
//! [`MatchStrategy::NaiveScan`] (the pre-index behaviour: term-count
//! estimates over every predicate plus an anchored-term scan filter) and
//! once with [`MatchStrategy::Indexed`] (per-`(predicate, position,
//! term)` posting lists intersected through a bitset), and checks that:
//!
//! 1. both strategies land on byte-identical final instances — candidate
//!    pruning must never change which homomorphisms exist;
//! 2. the indexed matcher never explores more backtracking nodes
//!    (`match_trials`) than the naive scan — positional filtering is
//!    strictly more precise than anchored-term filtering;
//! 3. at the largest budget the indexed match phase is ≥ 2× faster on
//!    at least one tracked KB (the PR's headline speedup; full runs
//!    only — smoke sizes are timer-noise-dominated).
//!
//! Full runs persist `BENCH_match.json` (per-row match-phase counters)
//! and `BENCH_e2e.json` (end-to-end wall times) at the workspace root.
//!
//! The CI regression gate rides on the smoke profile: `--smoke` shrinks
//! the budgets and compares the *deterministic* counters — the indexed
//! `match_trials` and the final atom count per row — against the
//! committed `BENCH_match_baseline.json` at the workspace root, failing
//! on a > 20 % trial regression, any change in the chased result, or a
//! missing baseline. `--write-baseline` regenerates that baseline from
//! the smoke budgets.

use std::fmt::Write as _;
use std::time::Instant;

use chase_bench::{exit_with, workspace_root, write_json, Allow, GateRow, Report};
use chase_core::KnowledgeBase;
use chase_engine::{ChaseConfig, ChaseResult, ChaseStats, ChaseVariant, MatchStrategy};
use treechase_service::json::Json;

/// Budget-bounded restricted chase under the given match strategy.
fn cfg(strategy: MatchStrategy, budget: usize) -> ChaseConfig {
    ChaseConfig::variant(ChaseVariant::Restricted)
        .with_match_strategy(strategy)
        .with_max_applications(budget)
}

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
/// `X ↦ sᵢ` and must enumerate candidates for `e(sᵢ, Z)`: the naive
/// matcher anchors on the *term* occurrence index of `sᵢ` — wading
/// through all `k` noise atoms on every check — while the positional
/// index reads the `(e, 0, sᵢ)` posting directly. Term frequency grows
/// with `k`; the posting does not.
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
    naive: ChaseStats,
    naive_wall_us: u64,
    indexed: ChaseStats,
    indexed_wall_us: u64,
    final_atoms: usize,
    identical: bool,
}

impl Measurement {
    fn match_speedup(&self) -> f64 {
        self.naive.match_time_us as f64 / self.indexed.match_time_us.max(1) as f64
    }

    fn e2e_speedup(&self) -> f64 {
        self.naive_wall_us as f64 / self.indexed_wall_us.max(1) as f64
    }

    fn to_match_json(&self) -> Json {
        Json::obj([
            ("kb", Json::str(self.kb)),
            ("application_budget", Json::Int(self.budget as i64)),
            ("naive_match_us", Json::Int(self.naive.match_time_us as i64)),
            (
                "naive_match_trials",
                Json::Int(self.naive.match_trials as i64),
            ),
            (
                "naive_match_searches",
                Json::Int(self.naive.match_searches as i64),
            ),
            (
                "indexed_match_us",
                Json::Int(self.indexed.match_time_us as i64),
            ),
            (
                "indexed_match_trials",
                Json::Int(self.indexed.match_trials as i64),
            ),
            (
                "indexed_match_searches",
                Json::Int(self.indexed.match_searches as i64),
            ),
            (
                "peak_index_postings",
                Json::Int(self.indexed.peak_index_postings as i64),
            ),
            ("match_phase_speedup", Json::Float(self.match_speedup())),
            ("final_atoms", Json::Int(self.final_atoms as i64)),
            ("identical", Json::Bool(self.identical)),
        ])
    }

    fn to_e2e_json(&self) -> Json {
        Json::obj([
            ("kb", Json::str(self.kb)),
            ("application_budget", Json::Int(self.budget as i64)),
            ("naive_wall_us", Json::Int(self.naive_wall_us as i64)),
            ("indexed_wall_us", Json::Int(self.indexed_wall_us as i64)),
            ("e2e_speedup", Json::Float(self.e2e_speedup())),
        ])
    }
}

/// Runs the chase `reps` times and keeps the fastest match phase: the
/// trajectory is deterministic per strategy, so repetitions differ only
/// in allocator/page-cache warmup noise and the minimum is the signal.
fn timed(
    kb: &KnowledgeBase,
    strategy: MatchStrategy,
    budget: usize,
    reps: usize,
) -> (ChaseResult, u64) {
    let mut best: Option<(ChaseResult, u64)> = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let res = kb.chase(&cfg(strategy, budget));
        let wall = t.elapsed().as_micros() as u64;
        if best
            .as_ref()
            .is_none_or(|(b, _)| res.stats.match_time_us < b.stats.match_time_us)
        {
            best = Some((res, wall));
        }
    }
    best.expect("reps >= 1")
}

fn measure(name: &'static str, kb: &KnowledgeBase, budget: usize, reps: usize) -> Measurement {
    let (naive, naive_wall_us) = timed(kb, MatchStrategy::NaiveScan, budget, reps);
    let (indexed, indexed_wall_us) = timed(kb, MatchStrategy::Indexed, budget, reps);
    Measurement {
        kb: name,
        budget,
        final_atoms: indexed.final_instance.len(),
        identical: naive.final_instance == indexed.final_instance,
        naive: naive.stats,
        naive_wall_us,
        indexed: indexed.stats,
        indexed_wall_us,
    }
}

impl Measurement {
    /// The smoke gate's deterministic counters: `match_trials` is a pure
    /// function of (KB, budget, strategy), so a > 20 % increase means the
    /// candidate pruner genuinely regressed, not that CI hardware was
    /// slow.
    fn gate_row(&self) -> GateRow {
        GateRow {
            key: vec![
                ("kb", Json::str(self.kb)),
                ("application_budget", Json::Int(self.budget as i64)),
            ],
            checks: vec![
                (
                    "indexed_match_trials",
                    self.indexed.match_trials as u64,
                    Allow::UpPercent(20),
                ),
                ("final_atoms", self.final_atoms as u64, Allow::Same),
            ],
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");
    let mut report = Report::new("e9-match-perf");

    // (name, KB, smoke budget, full budgets). The staircase and elevator
    // chases are budget-bound (they do not terminate); the grid
    // saturates, so its budget just needs to exceed the fixpoint.
    let small = smoke || write_baseline;
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
        let budgets: &[usize] = if smoke || write_baseline {
            std::slice::from_ref(smoke_budget)
        } else {
            full_budgets
        };
        for &budget in budgets {
            let m = measure(name, kb, budget, if small { 1 } else { 3 });
            report.row(format!(
                "{name:>9} @ {:>5}: match {:>8}us naive vs {:>7}us indexed ({:.1}x); \
                 trials {} vs {}; postings peak {}; {} atoms",
                m.budget,
                m.naive.match_time_us,
                m.indexed.match_time_us,
                m.match_speedup(),
                m.naive.match_trials,
                m.indexed.match_trials,
                m.indexed.peak_index_postings,
                m.final_atoms,
            ));
            rows.push(m);
        }
    }

    let all_identical = rows.iter().all(|m| m.identical);
    report.claim(
        "match/pruning-preserves-result",
        "indexed and naive strategies chase to identical instances",
        all_identical,
        all_identical,
    );

    let never_more_trials = rows
        .iter()
        .all(|m| m.indexed.match_trials <= m.naive.match_trials);
    report.claim(
        "match/indexed-never-more-trials",
        "positional pruning explores ≤ backtracking nodes of the naive scan",
        never_more_trials,
        never_more_trials,
    );

    let best = rows
        .iter()
        .map(|m| (m.match_speedup(), m.kb, m.budget))
        .fold((0.0_f64, "", 0), |acc, x| if x.0 > acc.0 { x } else { acc });
    if smoke || write_baseline {
        // Tiny budgets are timer-noise-dominated: report the speedup but
        // only require the indexed path not to be pathological.
        report.claim(
            "match/indexed-not-pathological",
            "indexed match phase ≤ 4× naive (smoke sizes)",
            format!("best {:.2}x ({} @ {})", best.0, best.1, best.2),
            rows.iter().all(|m| m.match_speedup() >= 0.25),
        );
    } else {
        report.claim(
            "match/indexed-2x-speedup",
            "match phase ≥ 2× faster on ≥ 1 tracked KB at full budgets",
            format!("best {:.2}x ({} @ {})", best.0, best.1, best.2),
            best.0 >= 2.0,
        );
    }

    let root = workspace_root();
    if smoke && !write_baseline {
        report.claim_gate(
            "match/no-trial-regression",
            "indexed match_trials within 20 % of committed baseline",
            &root.join("BENCH_match_baseline.json"),
            &rows.iter().map(Measurement::gate_row).collect::<Vec<_>>(),
        );
    }

    let rows_json = |f: fn(&Measurement) -> Json| Json::Arr(rows.iter().map(f).collect());
    if write_baseline {
        let bench = Json::obj([
            ("experiment", Json::str("e9-match-perf")),
            ("profile", Json::str("smoke-baseline")),
            ("measurements", rows_json(Measurement::to_match_json)),
        ]);
        write_json(&report, &root.join("BENCH_match_baseline.json"), &bench);
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
