//! # chase-bench
//!
//! Experiment harness shared by the `e1`–`e9` binaries (one per paper
//! figure/table or tracked performance gate, see `DESIGN.md` §4).
//!
//! Each experiment prints a human-readable report to stdout and writes a
//! machine-readable JSON line per claim to `results/<experiment>.jsonl`
//! (relative to the workspace root), which `EXPERIMENTS.md` summarizes.
//! Smoke and baseline-writing runs leave `results/` alone (see
//! [`Report::recording`]), so the committed records stay those of the
//! full runs.

use std::fmt::Display;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use treechase_service::json::{parse_json, Json};

/// One checked claim of an experiment.
#[derive(Clone, Debug)]
pub struct Claim {
    /// Experiment id (`e1` … `e6`).
    pub experiment: String,
    /// Short claim id (stable across runs).
    pub claim: String,
    /// What the paper asserts.
    pub paper: String,
    /// What we measured.
    pub measured: String,
    /// Did the measurement confirm the claim?
    pub ok: bool,
}

impl Claim {
    /// Serializes the claim as one JSONL record.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("experiment", Json::str(&self.experiment)),
            ("claim", Json::str(&self.claim)),
            ("paper", Json::str(&self.paper)),
            ("measured", Json::str(&self.measured)),
            ("ok", Json::Bool(self.ok)),
        ])
    }
}

/// Collects claims, pretty-prints them, and persists a JSONL record.
pub struct Report {
    experiment: &'static str,
    claims: Vec<Claim>,
    record: bool,
}

impl Report {
    /// Starts a report for the given experiment id.
    pub fn new(experiment: &'static str) -> Self {
        println!("== {experiment} ==");
        Report {
            experiment,
            claims: Vec::new(),
            record: true,
        }
    }

    /// Sets whether [`Report::finish`] writes `results/<experiment>.jsonl`.
    /// Smoke and baseline-writing profiles pass `false`: their reduced
    /// claims must not replace the committed full-run records.
    #[must_use]
    pub fn recording(mut self, record: bool) -> Self {
        self.record = record;
        self
    }

    /// Records and prints one claim.
    pub fn claim(&mut self, claim: &str, paper: impl Display, measured: impl Display, ok: bool) {
        let c = Claim {
            experiment: self.experiment.to_string(),
            claim: claim.to_string(),
            paper: paper.to_string(),
            measured: measured.to_string(),
            ok,
        };
        println!(
            "  [{}] {:<38} paper: {:<34} measured: {}",
            if ok { "ok" } else { "!!" },
            c.claim,
            c.paper,
            c.measured
        );
        self.claims.push(c);
    }

    /// The smoke runs' regression gate: compares every row's counters with
    /// its entry in the committed baseline at `path` (an object whose
    /// `measurements` array holds one entry per row) and records the outcome
    /// as one claim. A missing or unparsable baseline, or a row without an
    /// entry, fails the claim — `--write-baseline` is how a baseline is
    /// (re)created, so nothing passes ungated.
    pub fn claim_gate(&mut self, claim: &str, paper: &str, path: &Path, rows: &[GateRow]) {
        let baseline = fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|src| parse_json(&src));
        let entries = match baseline {
            Ok(ref b) => b.get("measurements").and_then(Json::as_arr),
            Err(e) => {
                let measured = format!("no baseline at {} ({e})", path.display());
                return self.claim(claim, paper, measured, false);
            }
        };
        let Some(entries) = entries else {
            return self.claim(claim, paper, "baseline has no `measurements`", false);
        };
        let (mut checked, mut failed) = (0, 0);
        for row in rows {
            let label: Vec<String> = row
                .key
                .iter()
                .map(|(_, v)| v.as_str().map_or_else(|| v.to_string(), str::to_owned))
                .collect();
            let label = label.join(" @ ");
            let found = entries
                .iter()
                .find(|e| row.key.iter().all(|(k, v)| e.get(k) == Some(v)));
            let Some(entry) = found else {
                self.row(format!("gate {label}: no baseline entry"));
                checked += 1;
                failed += 1;
                continue;
            };
            for &(field, measured, allow) in &row.checks {
                let base = entry.get(field).and_then(Json::as_u64);
                let (limit, ok) = match (base, allow) {
                    (None, _) => (String::from("missing"), false),
                    (Some(b), Allow::Same) => (format!("{b}"), measured == b),
                    (Some(b), Allow::UpPercent(p)) => {
                        let limit = b + (b * p).div_ceil(100);
                        (format!("{b}, limit {limit}"), measured <= limit)
                    }
                };
                let verdict = match (ok, allow) {
                    (true, _) => "ok",
                    (false, Allow::Same) => "CHANGED",
                    (false, Allow::UpPercent(_)) => "REGRESSED",
                };
                self.row(format!(
                    "gate {label}: {field} {measured} (baseline {limit}) {verdict}"
                ));
                checked += 1;
                failed += usize::from(!ok);
            }
        }
        let measured = format!("{failed} of {checked} gate checks off baseline");
        self.claim(claim, paper, measured, failed == 0);
    }

    /// Prints a free-form data row (kept out of the JSONL).
    pub fn row(&self, text: impl Display) {
        println!("    {text}");
    }

    /// Writes the JSONL file (when recording) and returns whether all
    /// claims held.
    pub fn finish(self) -> bool {
        let all_ok = self.claims.iter().all(|c| c.ok);
        let dir = results_dir();
        if self.record && fs::create_dir_all(&dir).is_ok() {
            let path = dir.join(format!("{}.jsonl", self.experiment));
            if let Ok(mut f) = fs::File::create(&path) {
                for c in &self.claims {
                    let _ = writeln!(f, "{}", c.to_json());
                }
            }
        }
        println!(
            "== {}: {}/{} claims confirmed ==\n",
            self.experiment,
            self.claims.iter().filter(|c| c.ok).count(),
            self.claims.len()
        );
        all_ok
    }
}

/// The `results/` directory at the workspace root.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = …/crates/bench
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.join("results")
}

/// The workspace root, where the committed `BENCH_*.json` files live.
pub fn workspace_root() -> PathBuf {
    let mut p = results_dir();
    p.pop();
    p
}

/// Writes `json` as one line to `path`, reporting a failure as a row.
pub fn write_json(report: &Report, path: &Path, json: &Json) {
    if let Err(e) = fs::write(path, format!("{json}\n")) {
        report.row(format!("could not write {}: {e}", path.display()));
    }
}

/// How far a gated counter may move from its committed baseline value.
#[derive(Clone, Copy, Debug)]
pub enum Allow {
    /// Must equal the baseline: a result, not a cost.
    Same,
    /// May exceed the baseline by at most this many percent (rounded
    /// up); `UpPercent(0)` fails on any increase.
    UpPercent(u64),
}

/// One measured row for [`Report::claim_gate`].
pub struct GateRow {
    /// The fields naming the row's baseline entry, e.g. the KB and the
    /// application budget.
    pub key: Vec<(&'static str, Json)>,
    /// `(field, measured value, allowance)` for every gated counter.
    pub checks: Vec<(&'static str, u64, Allow)>,
}

/// Exit with a conventional status after finishing a report.
pub fn exit_with(ok: bool) -> ! {
    std::process::exit(if ok { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_tracks_ok_status() {
        let mut r = Report::new("e0-test");
        r.claim("always", "x", "x", true);
        r.claim("broken", "x", "y", false);
        assert!(!r.finish());
        let path = results_dir().join("e0-test.jsonl");
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 2);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn unrecorded_report_leaves_results_untouched() {
        let path = results_dir().join("e0-smoke-test.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut r = Report::new("e0-smoke-test").recording(false);
        r.claim("always", "x", "x", true);
        assert!(r.finish());
        assert!(!path.exists(), "a smoke report wrote {}", path.display());
    }

    #[test]
    fn baseline_gate_fails_on_regressions_and_missing_baselines() {
        let dir = std::env::temp_dir().join(format!("chase-bench-gate-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        let entry = Json::obj([
            ("budget", Json::Int(10)),
            ("nodes", Json::Int(100)),
            ("atoms", Json::Int(7)),
        ]);
        let baseline = Json::obj([("measurements", Json::Arr(vec![entry]))]);
        fs::write(&path, format!("{baseline}")).unwrap();
        let gate = |nodes: u64, allow: Allow, atoms: u64, budget: i64, path: &Path| {
            let mut r = Report::new("e0-gate-test");
            let row = GateRow {
                key: vec![("budget", Json::Int(budget))],
                checks: vec![("nodes", nodes, allow), ("atoms", atoms, Allow::Same)],
            };
            r.claim_gate("gate", "x", path, &[row]);
            r.claims[0].ok
        };
        assert!(gate(100, Allow::UpPercent(0), 7, 10, &path));
        assert!(gate(90, Allow::UpPercent(0), 7, 10, &path));
        assert!(!gate(101, Allow::UpPercent(0), 7, 10, &path));
        assert!(gate(120, Allow::UpPercent(20), 7, 10, &path));
        assert!(!gate(121, Allow::UpPercent(20), 7, 10, &path));
        assert!(!gate(100, Allow::UpPercent(0), 6, 10, &path));
        assert!(!gate(100, Allow::UpPercent(0), 7, 20, &path));
        assert!(!gate(
            100,
            Allow::UpPercent(0),
            7,
            10,
            &dir.join("absent.json")
        ));
        let _ = fs::remove_dir_all(dir);
    }
}
