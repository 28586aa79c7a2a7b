//! `treechase_bench compare <parent.jsonl> <change.jsonl>`: the
//! parent-versus-change decision rule over run records.
//!
//! Per (workload, end-to-end metric), from at least ten pairs of runs
//! that alternate which side ran first:
//! - a *gain* needs the change to win at least nine tenths of the pairs
//!   (ties count for neither) and the medians to differ by more than the
//!   parent's interquartile distance;
//! - a *regression* is a change median worse than the parent's by more
//!   than the metric's bound in `BENCHMARK.json`;
//! - otherwise the metric is *unresolved* when the parent's spread
//!   exceeds the bound (unless every change run beats every parent run),
//!   and *unchanged* when it does not.
//!
//! Separately, the exact counters of the traced runs must be equal.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use treechase_service::{parse_json, Json};

use crate::stats::{median, quartiles};

/// Counters that are exact functions of the inputs: any difference
/// between parent and change is a behaviour change, not noise.
const EXACT_COUNTERS: &[&str] = &[
    "engine.applications",
    "engine.rounds",
    "engine.match_trials",
    "engine.match_searches",
    "engine.peak_atoms",
    "engine.peak_mem_units",
    "engine.peak_index_postings",
    "query.publishes",
];

/// The outcome of comparing one metric on one workload.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Fewer than ten pairs: no decision.
    Insufficient(usize),
    /// The change is better by the gain rule.
    Gain,
    /// The change is worse than the bound allows.
    Regression,
    /// The parent's spread is wider than the bound.
    Unresolved,
    /// Within the bound.
    Unchanged,
}

/// Applies the decision rule to paired values (pair `i` is
/// `(parent[i], change[i])`).
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let pairs = parent.len().min(change.len());
    if pairs < 10 {
        return Verdict::Insufficient(pairs);
    }
    let (p, c) = (&parent[..pairs], &change[..pairs]);
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let wins = p.iter().zip(c).filter(|&(&pv, &cv)| better(cv, pv)).count();
    let (mp, mc) = (median(p), median(c));
    let [q1, _, q3] = quartiles(p).expect("ten pairs");
    let iqr = q3 - q1;
    if better(mc, mp) && wins * 10 >= pairs * 9 && (mc - mp).abs() > iqr {
        return Verdict::Gain;
    }
    let worse_by = if lower_is_better { mc - mp } else { mp - mc } / mp.abs();
    if worse_by > bound {
        return Verdict::Regression;
    }
    let all_better = c.iter().all(|&cv| p.iter().all(|&pv| better(cv, pv)));
    if iqr / mp.abs() > bound && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// Do the pairs alternate which side ran first? Inputs are start times,
/// pair `i` being `(parent[i], change[i])`.
pub fn alternates(parent: &[f64], change: &[f64]) -> bool {
    let first: Vec<bool> = parent.iter().zip(change).map(|(p, c)| p < c).collect();
    first.windows(2).all(|w| w[0] != w[1])
}

struct Run {
    workload: String,
    trace: bool,
    started: f64,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = parse_json(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let metrics = match v.get("metrics") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| number(v.get("value")?).map(|x| (k.clone(), x)))
                .collect(),
            _ => return Err(format!("{path}:{}: no metrics", n + 1)),
        };
        runs.push(Run {
            workload: v.require_str("workload")?.to_string(),
            trace: v.get("trace").and_then(Json::as_bool).unwrap_or(false),
            started: v.get("started_unix_ms").and_then(number).unwrap_or(0.0),
            metrics,
        });
    }
    Ok(runs)
}

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Int(n) => Some(*n as f64),
        Json::Float(x) => Some(*x),
        _ => None,
    }
}

/// `(name, lower_is_better, bound)` of every end-to-end metric declared
/// in `BENCHMARK.json`.
fn declared_metrics() -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = parse_json(&text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok((
                m.require_str("name")?.to_string(),
                m.require_str("better")? == "lower",
                m.get("bound")
                    .and_then(number)
                    .ok_or("metric without a bound")?,
            ))
        })
        .collect()
}

/// Values of `metric` for the runs of one side, in start order, with
/// their start times.
fn series(runs: &[Run], workload: &str, trace: bool, metric: &str) -> (Vec<f64>, Vec<f64>) {
    let mut picked: Vec<&Run> = runs
        .iter()
        .filter(|r| r.workload == workload && r.trace == trace && r.metrics.contains_key(metric))
        .collect();
    picked.sort_by(|a, b| a.started.total_cmp(&b.started));
    (
        picked.iter().map(|r| r.metrics[metric]).collect(),
        picked.iter().map(|r| r.started).collect(),
    )
}

/// Entry point of the `compare` subcommand.
pub fn main(args: &[String]) -> ExitCode {
    let [parent, change] = args else {
        eprintln!("usage: treechase_bench compare <parent.jsonl> <change.jsonl>");
        return ExitCode::from(2);
    };
    match compare(parent, change) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn compare(parent_path: &str, change_path: &str) -> Result<bool, String> {
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    let metrics = declared_metrics()?;
    let workloads: BTreeSet<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    let mut clean = true;
    println!(
        "{:<22} {:<16} {:>6} {:>12} {:>12} {:>9}  verdict",
        "workload", "metric", "pairs", "parent", "change", "iqr/med"
    );
    for workload in &workloads {
        for (metric, lower, bound) in &metrics {
            let (p, p_start) = series(&parent, workload, false, metric);
            let (c, c_start) = series(&change, workload, false, metric);
            let pairs = p.len().min(c.len());
            if pairs >= 2 && !alternates(&p_start[..pairs], &c_start[..pairs]) {
                return Err(format!(
                    "{workload}/{metric}: pairs do not alternate which side runs first"
                ));
            }
            let v = verdict(&p, &c, *lower, *bound);
            clean &= v != Verdict::Regression;
            let show = |x: &[f64]| {
                if pairs == 0 {
                    f64::NAN
                } else {
                    median(&x[..pairs])
                }
            };
            let spread = quartiles(&p[..pairs]).map_or(f64::NAN, |[q1, q2, q3]| (q3 - q1) / q2);
            println!(
                "{workload:<22} {metric:<16} {pairs:>6} {:>12.4} {:>12.4} {spread:>9.4}  {v:?}",
                show(&p),
                show(&c),
            );
        }
        for counter in EXACT_COUNTERS {
            let (p, _) = series(&parent, workload, true, counter);
            let (c, _) = series(&change, workload, true, counter);
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let same = p.iter().chain(&c).all(|&x| x == p[0]);
            clean &= same;
            println!(
                "{workload:<22} {counter:<28} exact: {}",
                if same {
                    "equal".to_string()
                } else {
                    format!("DIFFERENT parent {p:?} change {c:?}")
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + spread * (i as f64 - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let parent = around(100.0, 1.0);
        // 10% faster in every pair, far beyond the parent's IQR.
        assert_eq!(
            verdict(&parent, &around(90.0, 1.0), true, 0.1),
            Verdict::Gain
        );
        // For a higher-is-better metric the same numbers are a loss.
        assert_eq!(
            verdict(&parent, &around(90.0, 1.0), false, 0.05),
            Verdict::Regression
        );
        // 3% slower against a 10% bound: no regression, no gain.
        assert_eq!(
            verdict(&parent, &around(103.0, 1.0), true, 0.1),
            Verdict::Unchanged
        );
        // 20% slower against a 10% bound.
        assert_eq!(
            verdict(&parent, &around(120.0, 1.0), true, 0.1),
            Verdict::Regression
        );
        // The parent's own spread (≈ ±30%) is wider than the bound.
        let noisy = around(100.0, 30.0);
        assert_eq!(
            verdict(&noisy, &around(101.0, 30.0), true, 0.1),
            Verdict::Unresolved
        );
        // A win in only 8 of 10 pairs is not a gain.
        let mut mixed = around(90.0, 1.0);
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert_ne!(verdict(&parent, &mixed, true, 0.5), Verdict::Gain);
        assert_eq!(
            verdict(&parent[..9], &parent[..9], true, 0.1),
            Verdict::Insufficient(9)
        );
    }

    #[test]
    fn alternation_is_required() {
        assert!(alternates(&[0.0, 3.0, 4.0], &[1.0, 2.0, 5.0]));
        assert!(!alternates(&[0.0, 2.0], &[1.0, 3.0]));
    }
}
