//! `treechase_bench`: how this repository's performance is measured.
//!
//! ```text
//! treechase_bench [run|trace] [--workload NAME|all] [--seed N] [--seconds S]
//!                 [--trace 0|1] [--out FILE]
//! treechase_bench compare <parent.jsonl> <change.jsonl>
//! ```
//!
//! Run from the repository root. The benchmark builds `treechase` in
//! release mode, refuses a binary older than its sources, then for each
//! workload either drives `treechase serve` end to end (`--trace 0`) or
//! adds the traced in-process per-layer run (`--trace 1`). It prints
//! every metric by name and unit, appends a run record to
//! `<target>/bench/runs.jsonl` (or `--out`), and ends its output with
//! one JSON line `{"correct", "attempted", "failed", "metrics"}`. Any
//! failed operation or output check makes `correct` false and the exit
//! status 1. See README.md next to this file.

#![forbid(unsafe_code)]

mod client;
mod compare;
mod reference;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use treechase_service::Json;

use crate::client::Recorder;
use crate::stats::{median, percentile};
use crate::workloads::{Inputs, Workload, ALL, FULL};

/// End-to-end metrics `(name, unit)`, as declared in `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("submit_ms", "ms"),
    ("job_s", "s"),
    ("query_p50_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, as declared in `BENCHMARK.json`.
const PER_LAYER: &[(&str, &str)] = &[
    ("engine.wall_ms", "ms"),
    ("engine.discover_ms", "ms"),
    ("engine.step_ms", "ms"),
    ("engine.match_ms", "ms"),
    ("engine.other_ms", "ms"),
    ("engine.trigger_yield", "ratio"),
    ("engine.applications", "count"),
    ("engine.rounds", "count"),
    ("engine.match_trials", "count"),
    ("engine.match_searches", "count"),
    ("engine.peak_atoms", "count"),
    ("engine.peak_mem_units", "count"),
    ("engine.peak_index_postings", "count"),
    ("homomorphism.search_ms", "ms"),
    ("homomorphism.match_nodes", "count"),
    ("homomorphism.fold_candidates", "count"),
    ("homomorphism.retraction_yield", "ratio"),
    ("analysis.gate_ms", "ms"),
    ("parser.program_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("wire.encode_ms", "ms"),
    ("wire.bytes_in", "bytes"),
    ("wire.bytes_out", "bytes"),
    ("service.checkpoint_ms", "ms"),
    ("service.store_save_ms", "ms"),
    ("service.store_load_ms", "ms"),
    ("service.write_amplification", "ratio"),
    ("service.overhead_ms", "ms"),
    ("query.publish_ms", "ms"),
    ("query.publishes", "count"),
    ("query.answer_us", "us"),
    ("query_p99_ms", "ms"),
    ("treewidth.sample_ms", "ms"),
    ("treewidth.max_upper", "count"),
    ("serve.query_wire_p50_us", "us"),
    ("proc.cpu_s", "s"),
    ("proc.minor_faults", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String], trace: Option<bool>) -> Result<Options, String> {
    let mut opts = Options {
        workloads: ALL.to_vec(),
        seed: 1,
        seconds: 20,
        trace: trace.unwrap_or(false),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workloads = if name == "all" {
                    ALL.to_vec()
                } else {
                    vec![Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?]
                };
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Builds the serve binary from the sources in `root` and refuses to go
/// on if it is still older than any of them.
fn build(root: &Path, bin: &Path) -> Result<(), String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "treechase"])
        .current_dir(root)
        .stdout(std::io::stderr())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build --release failed: {status}"));
    }
    let built = modified(bin)?;
    let mut newest = (UNIX_EPOCH, PathBuf::new());
    for dir in ["crates", "src"] {
        newest_source(&root.join(dir), &mut newest)?;
    }
    if newest.0 > built {
        return Err(format!(
            "{} is older than {}: stale binary",
            bin.display(),
            newest.1.display()
        ));
    }
    Ok(())
}

fn modified(path: &Path) -> Result<SystemTime, String> {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn newest_source(dir: &Path, newest: &mut (SystemTime, PathBuf)) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.is_dir() {
            newest_source(&path, newest)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let t = modified(&path)?;
            if t > newest.0 {
                *newest = (t, path);
            }
        }
    }
    Ok(())
}

/// The commit being measured, read from `.git` without running git (the
/// benchmark may run in a checkout that is not a repository).
fn git_head(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine the run happened on.
fn environment(root: &Path) -> Json {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load: Vec<Json> = read("/proc/loadavg")
        .split_whitespace()
        .take(3)
        .filter_map(|x| x.parse().ok().map(Json::Float))
        .collect();
    Json::obj([
        ("nproc", Json::Int(nproc as i64)),
        ("loadavg", Json::Arr(load)),
        (
            "kernel",
            Json::str(read("/proc/sys/kernel/osrelease").trim()),
        ),
        ("head", Json::str(git_head(root))),
    ])
}

fn med(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| median(v))
}

/// The end-to-end metrics of a run's repetitions, times at nominal
/// speed.
fn end_to_end(rec: &Recorder) -> BTreeMap<&'static str, Option<f64>> {
    let queries = rec.raw(|r| &r.query_ms).len() as f64;
    let loop_s: f64 = rec
        .per_segment(|r| r.query_loop_s * r.speed_factor)
        .iter()
        .sum();
    BTreeMap::from([
        ("setup_s", med(&rec.scaled(|r| &r.setup_s))),
        ("submit_ms", med(&rec.scaled(|r| &r.submit_ms))),
        ("job_s", med(&rec.scaled(|r| &r.job_s))),
        ("query_p50_ms", med(&rec.scaled(|r| &r.query_ms))),
        ("queries_per_s", (loop_s > 0.0).then(|| queries / loop_s)),
        ("peak_rss_mb", med(&rec.per_segment(|r| r.rss_mb))),
    ])
}

/// The per-layer metrics: medians over the traced passes plus what the
/// end-to-end repetitions of the same run measured.
fn per_layer(
    rec: &Recorder,
    passes: &[BTreeMap<&'static str, f64>],
) -> BTreeMap<&'static str, Option<f64>> {
    let across = |name: &str| -> Option<f64> {
        let v: Vec<f64> = passes.iter().filter_map(|p| p.get(name).copied()).collect();
        med(&v)
    };
    let query_ms = rec.scaled(|r| &r.query_ms);
    let mut m: BTreeMap<&'static str, Option<f64>> = PER_LAYER
        .iter()
        .map(|&(name, _)| (name, across(name)))
        .collect();
    m.insert("wire.bytes_in", med(&rec.per_segment(|r| r.bytes_in)));
    m.insert("wire.bytes_out", med(&rec.per_segment(|r| r.bytes_out)));
    m.insert(
        "proc.cpu_s",
        med(&rec.per_segment(|r| r.cpu_s * r.speed_factor)),
    );
    m.insert(
        "proc.minor_faults",
        med(&rec.per_segment(|r| r.minor_faults)),
    );
    m.insert("query_p99_ms", percentile(&query_ms, 99.0));
    m.insert(
        "serve.query_wire_p50_us",
        med(&query_ms)
            .zip(across("trace.service_query_p50_us"))
            .map(|(e2e_ms, in_process_us)| e2e_ms * 1e3 - in_process_us),
    );
    m.insert(
        "trace.overhead",
        across("trace.job_ms_per_slice")
            .zip(med(&rec.scaled(|r| &r.job_s)))
            .map(|(traced_ms, e2e_s)| traced_ms / 1e3 / e2e_s),
    );
    m
}

/// Runs one workload and returns its record.
fn run_workload(opts: &Options, w: Workload, bin: &Path, work: &Path, env: &Json) -> Json {
    let started_unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as i64);
    let started = Instant::now();
    let budget = Duration::from_secs(opts.seconds);
    let inputs = Inputs::generate(w, opts.seed, &FULL);
    let mut rec = Recorder::default();
    // A traced run spends half its time end to end, half on traced passes.
    let e2e_budget = if opts.trace { budget / 2 } else { budget };
    client::run(&inputs, bin, work, e2e_budget, &mut rec);
    let (values, table) = if opts.trace {
        let rest = budget.saturating_sub(started.elapsed());
        let passes = trace::run(&inputs, work, rest, &mut rec).unwrap_or_else(|e| {
            rec.check(false, || format!("traced run: {e}"));
            Vec::new()
        });
        (per_layer(&rec, &passes), PER_LAYER)
    } else {
        (end_to_end(&rec), END_TO_END)
    };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = values.get(name).copied().flatten();
        rec.check(value.is_some(), || {
            format!("metric {name} was not measured")
        });
        if let Some(v) = value {
            println!("{:<22} {name:<32} {v:>14.4} {unit}", w.name());
            metrics.push((
                name.to_string(),
                Json::obj([("value", Json::Float(v)), ("unit", Json::str(unit))]),
            ));
        }
    }
    for f in &rec.failures {
        eprintln!("{}: FAILED {f}", w.name());
    }
    // The raw samples behind the metrics, and what scaled them.
    let samples = |v: &[f64]| Json::Arr(v.iter().copied().map(Json::Float).collect());
    let detail = Json::obj([
        ("reps", Json::Int(rec.reps as i64)),
        (
            "speed_factor",
            samples(&rec.per_segment(|r| r.speed_factor)),
        ),
        ("setup_s", samples(&rec.raw(|r| &r.setup_s))),
        ("submit_ms", samples(&rec.raw(|r| &r.submit_ms))),
        ("job_s", samples(&rec.raw(|r| &r.job_s))),
        ("resume_ms", samples(&rec.raw(|r| &r.resume_ms))),
        (
            "query_samples",
            Json::Int(rec.raw(|r| &r.query_ms).len() as i64),
        ),
        (
            "raw_query_p50_ms",
            med(&rec.raw(|r| &r.query_ms)).map_or(Json::Null, Json::Float),
        ),
        (
            "failures",
            Json::Arr(rec.failures.iter().map(Json::str).collect()),
        ),
    ]);
    Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::Int(opts.seed as i64)),
        ("seconds", Json::Int(opts.seconds as i64)),
        ("trace", Json::Bool(opts.trace)),
        ("started_unix_ms", Json::Int(started_unix_ms)),
        ("correct", Json::Bool(rec.failed == 0)),
        ("attempted", Json::Int(rec.attempted as i64)),
        ("failed", Json::Int(rec.failed as i64)),
        ("metrics", Json::Obj(metrics)),
        ("detail", detail),
        ("env", env.clone()),
    ])
}

fn bench(args: &[String], trace: Option<bool>) -> Result<bool, String> {
    let opts = parse_options(args, trace)?;
    let root = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    if !root.join("src/bin/treechase.rs").is_file() {
        return Err("run from the repository root (no src/bin/treechase.rs here)".to_string());
    }
    let target = root.join(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()));
    let bin = target.join("release").join("treechase");
    let work = target.join("bench");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    build(&root, &bin)?;
    let env = environment(&root);

    let mut records = Vec::new();
    for &w in &opts.workloads {
        records.push(run_workload(&opts, w, &bin, &work, &env));
    }
    let out = opts.out.clone().unwrap_or_else(|| work.join("runs.jsonl"));
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    for r in &records {
        writeln!(file, "{r}").map_err(|e| format!("{}: {e}", out.display()))?;
    }

    // The last line. Several workloads fold into one object whose metric
    // names carry the workload.
    let sum = |k: &str| {
        records
            .iter()
            .filter_map(|r| r.get(k)?.as_i64())
            .sum::<i64>()
    };
    let correct = records
        .iter()
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    let mut metrics = Vec::new();
    for r in &records {
        let Some(Json::Obj(ms)) = r.get("metrics") else {
            continue;
        };
        let workload = r.get("workload").and_then(Json::as_str).unwrap_or_default();
        for (name, value) in ms {
            let key = if records.len() == 1 {
                name.clone()
            } else {
                format!("{workload}/{name}")
            };
            metrics.push((key, value.clone()));
        }
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(sum("attempted"))),
            ("failed", Json::Int(sum("failed"))),
            ("metrics", Json::Obj(metrics)),
        ])
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..]),
        Some("run") => bench(&args[1..], Some(false)),
        Some("trace") => bench(&args[1..], Some(true)),
        _ => bench(&args, None),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = treechase_service::parse_json(text).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.require_str("name").unwrap().into(),
                        m.require_str("unit").unwrap().into(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.require_str("name").unwrap())
            .collect();
        assert_eq!(names, ALL.map(Workload::name));
    }
}
