//! **E8 — query throughput over materialization snapshots**: how fast
//! the service answers CQs against a *live* chase job, as a function of
//! the snapshot refresh interval.
//!
//! Runs the inflating elevator `K_v` (restricted variant, so the
//! instance grows without terminating) as a service job under a fixed
//! wall budget, and hammers it with `query_job` reads from the caller
//! thread while the worker chases. For each
//! [`ServiceConfig::snapshot_every`] setting the run checks that:
//!
//! 1. every reply is tagged `sound-prefix` — a live job never claims a
//!    complete answer set;
//! 2. the writer makes progress *under* read load: the snapshot horizon
//!    observed by the readers strictly advances;
//! 3. throughput is positive at every refresh interval (readers are
//!    never starved by the writer).
//!
//! The per-interval measurements (queries/sec, snapshots published,
//! cache counters, horizon span) go to `BENCH_query.json` at the
//! workspace root. `--smoke` shrinks the wall budgets for CI and skips
//! that write and the `results/` record, so committed full-run numbers
//! are never clobbered.

use std::time::{Duration, Instant};

use chase_bench::{exit_with, results_dir, Report};
use chase_core::KnowledgeBase;
use chase_engine::{ChaseConfig, ChaseVariant};
use chase_query::Completeness;
use treechase_service::{JobSpec, JobStatus, Json, QueryError, Service, ServiceConfig};

struct Measurement {
    snapshot_every: usize,
    queries: u64,
    wall_us: u64,
    published: u64,
    hits: u64,
    misses: u64,
    answers_served: u64,
    first_horizon: u64,
    last_horizon: u64,
    all_sound_prefix: bool,
}

impl Measurement {
    fn qps(&self) -> f64 {
        self.queries as f64 / (self.wall_us.max(1) as f64 / 1_000_000.0)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("snapshot_every", Json::Int(self.snapshot_every as i64)),
            ("queries", Json::Int(self.queries as i64)),
            ("wall_us", Json::Int(self.wall_us as i64)),
            ("queries_per_sec", Json::Float(self.qps())),
            ("snapshots_published", Json::Int(self.published as i64)),
            ("cache_hits", Json::Int(self.hits as i64)),
            ("cache_misses", Json::Int(self.misses as i64)),
            ("answers_served", Json::Int(self.answers_served as i64)),
            ("first_horizon", Json::Int(self.first_horizon as i64)),
            ("last_horizon", Json::Int(self.last_horizon as i64)),
        ])
    }
}

fn measure(snapshot_every: usize, wall: Duration) -> Measurement {
    let svc = Service::with_config(
        1,
        ServiceConfig {
            snapshot_every,
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");
    let id = svc.submit(JobSpec::from_kb(
        "elevator-live",
        KnowledgeBase::elevator(),
        ChaseConfig::variant(ChaseVariant::Restricted)
            .with_max_applications(usize::MAX / 2)
            .with_max_wall(wall),
    ));

    let mut queries = 0u64;
    let mut first_horizon = None;
    let mut last_horizon = 0u64;
    let mut all_sound_prefix = true;
    let t0 = Instant::now();
    while matches!(svc.status(id), Some(JobStatus::Queued | JobStatus::Running)) {
        match svc.query_job(id, "?- h(X, Y), v(Y, Z)", None, None) {
            Ok(reply) => {
                queries += 1;
                if !matches!(reply.outcome.completeness, Completeness::SoundPrefix { .. }) {
                    all_sound_prefix = false;
                }
                if let Some(h) = reply.applications {
                    first_horizon.get_or_insert(h);
                    last_horizon = h;
                }
            }
            Err(QueryError::NoSnapshot(_)) => {}
            Err(e) => panic!("reader failed: {e}"),
        }
    }
    let wall_us = t0.elapsed().as_micros() as u64;
    svc.wait(id);
    let stats = svc.cache_stats();
    Measurement {
        snapshot_every,
        queries,
        wall_us,
        published: stats.published,
        hits: stats.hits,
        misses: stats.misses,
        answers_served: stats.answers_served,
        first_horizon: first_horizon.unwrap_or(0),
        last_horizon,
        all_sound_prefix,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut report = Report::new("e8-query-throughput").recording(!smoke);
    let intervals: &[usize] = if smoke { &[16, 64] } else { &[8, 32, 128] };
    let wall = if smoke {
        Duration::from_millis(400)
    } else {
        Duration::from_millis(2_000)
    };

    let mut rows = Vec::new();
    for &every in intervals {
        let m = measure(every, wall);
        report.row(format!(
            "snapshot_every {:>4}: {:>8.0} queries/s ({} queries, {} snapshots \
             published, horizon {} -> {})",
            m.snapshot_every,
            m.qps(),
            m.queries,
            m.published,
            m.first_horizon,
            m.last_horizon,
        ));
        rows.push(m);
    }

    let all_sound = rows.iter().all(|m| m.all_sound_prefix);
    report.claim(
        "query/live-replies-sound-prefix",
        "answers over a live job are sound, never claimed complete",
        all_sound,
        all_sound,
    );
    let writer_progressed = rows.iter().all(|m| m.last_horizon > m.first_horizon);
    report.claim(
        "query/readers-dont-stall-writer",
        "snapshot horizon advances under continuous read load",
        writer_progressed,
        writer_progressed,
    );
    let throughput_positive = rows.iter().all(|m| m.queries > 0);
    report.claim(
        "query/throughput-positive",
        "readers are served at every refresh interval",
        format!(
            "min {:.0} queries/s",
            rows.iter().map(Measurement::qps).fold(f64::MAX, f64::min)
        ),
        throughput_positive,
    );

    if !smoke {
        let bench = Json::obj([
            ("experiment", Json::str("e8-query-throughput")),
            ("kb", Json::str("elevator")),
            ("smoke", Json::Bool(smoke)),
            (
                "measurements",
                Json::Arr(rows.iter().map(Measurement::to_json).collect()),
            ),
        ]);
        let mut root = results_dir();
        root.pop();
        let path = root.join("BENCH_query.json");
        if let Err(e) = std::fs::write(&path, format!("{bench}\n")) {
            report.row(format!("could not write {}: {e}", path.display()));
        }
    }

    exit_with(report.finish());
}
