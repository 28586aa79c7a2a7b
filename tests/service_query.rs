//! End-to-end tests of the query-serving subsystem: the per-job
//! materialization snapshot cache, certain-answer semantics over each
//! job's newest snapshot, completeness tagging, admission-control
//! shedding, and the `query` wire op.

use std::io::Write as _;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use treechase::core::KnowledgeBase;
use treechase::engine::{ChaseConfig, ChaseVariant, FaultPlan, FaultSite};
use treechase::homomorphism::SearchBudget;
use treechase::query::{answer_kb, Completeness};
use treechase::service::{parse_json, JobSpec, JobStatus, QueryError, Service, ServiceConfig};

/// A transitive-closure chain over constants: terminating, and every
/// derived atom is constant-only, so answer tuples are visible through
/// the null filter.
fn chain_src(n: usize) -> String {
    let mut src: String = (0..n).map(|i| format!("r(c{i}, c{}). ", i + 1)).collect();
    src.push_str("T: r(X, Y), r(Y, Z) -> r(X, Z).");
    src
}

/// The differential acceptance check: answers served for a *terminated*
/// job must be tagged `complete` and coincide exactly with the
/// library-level certain answers of the same query over the same KB.
#[test]
fn terminated_job_answers_match_library_certain_answers() {
    let src = chain_src(6);
    let kb = KnowledgeBase::from_text(&src).expect("chain parses");
    let cfg = ChaseConfig::variant(ChaseVariant::Restricted);

    let svc = Service::start(1);
    let id = svc.submit(JobSpec::from_text("chain", &src, cfg.clone()).unwrap());
    assert_eq!(svc.wait(id), Some(JobStatus::Finished));

    let query_src = "?(X) :- r(c0, X)";
    let reply = svc
        .query_job(id, query_src, None, None)
        .expect("terminated job answers");
    assert_eq!(reply.outcome.completeness, Completeness::Complete);
    assert!(reply.outcome.entailed());
    assert_eq!(reply.job, Some(id));
    assert!(reply.snapshot_age_ms.is_some());

    // Library side: the same query through `answer_kb`, which chases
    // the KB itself instead of reading the job's snapshot.
    let lib = answer_kb(&kb, query_src, &cfg, &SearchBudget::unlimited()).expect("query parses");
    assert_eq!(lib.completeness, Completeness::Complete);
    assert_eq!(reply.outcome.answers, lib.answers);
    // c0 reaches every other chain node under transitive closure.
    assert_eq!(reply.outcome.answers.len(), 6);
}

/// A live (non-terminated) elevator job answers from its newest
/// snapshot and tags the reply `sound-prefix`; boolean entailment over
/// the prefix is sound.
#[test]
fn live_elevator_job_serves_sound_prefix_answers() {
    let svc = Service::with_config(
        1,
        ServiceConfig {
            snapshot_every: 8,
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");
    let id = svc.submit(JobSpec::from_kb(
        "elevator",
        KnowledgeBase::elevator(),
        ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(50_000_000),
    ));
    while svc.status(id) != Some(JobStatus::Running) {
        std::thread::yield_now();
    }

    // Spin until a snapshot lands, then query the live prefix. The
    // elevator's initial facts already entail `?- c(X), h(X, Y)`.
    let deadline = Instant::now() + Duration::from_secs(30);
    let reply = loop {
        match svc.query_job(id, "?- c(X), h(X, Y)", None, None) {
            Ok(reply) => break reply,
            Err(QueryError::NoSnapshot(_)) => {
                assert!(Instant::now() < deadline, "no snapshot published");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("unexpected query error: {e}"),
        }
    };
    match reply.outcome.completeness {
        Completeness::SoundPrefix { .. } => {}
        other => panic!("live job must answer sound-prefix, got {other:?}"),
    }
    assert!(reply.outcome.entailed(), "initial facts entail the query");
    assert!(reply.sequence.is_some());

    // Sound under the prefix semantics: a predicate the KB never
    // derives is not entailed, and the miss is *inconclusive* — the
    // reply still says sound-prefix, never complete.
    let miss = svc
        .query_job(id, "?- nosuchpred(X)", None, None)
        .expect("snapshot available");
    assert!(!miss.outcome.entailed());
    assert!(matches!(
        miss.outcome.completeness,
        Completeness::SoundPrefix { .. }
    ));

    assert!(svc.cancel(id));
    svc.wait(id);
}

/// Live answers are read from the newest snapshot. Each derivation
/// step maps `F_i` into `F_{i+1}` fixing constants (an application is
/// an inclusion, a core simplification a retraction), so certain
/// answers served mid-run grow monotonically and the final complete
/// set contains every prefix answer — along a restricted derivation and
/// along a core derivation that retracts.
#[test]
fn live_answers_grow_monotonically_to_the_complete_set() {
    let n = 30usize;
    // Stretch each run with injected sleeps so mid-run queries land at
    // several different snapshot horizons.
    let chain_sites: Vec<FaultSite> = (1..=8).map(|k| FaultSite::Slow(k * 40, 40)).collect();
    assert_live_answers_grow(
        16,
        JobSpec::from_text(
            "chain-live",
            &chain_src(n),
            ChaseConfig::variant(ChaseVariant::Restricted).with_fault(FaultPlan::new(chain_sites)),
        )
        .unwrap(),
        "?(X) :- r(c0, X)",
        n,
    );
    // Each `R` null is folded onto `a` once `T` fires for its `p` fact.
    let fold_sites: Vec<FaultSite> = (1..=6).map(|k| FaultSite::Slow(k, 40)).collect();
    let retractions = assert_live_answers_grow(
        1,
        JobSpec::from_text(
            "core-live",
            "p(a). p(b). p(c). R: p(X) -> r(X, Y), s(Y). T: p(X) -> r(X, a), s(a).",
            ChaseConfig::variant(ChaseVariant::Core).with_fault(FaultPlan::new(fold_sites)),
        )
        .unwrap(),
        "?(X, Y) :- r(X, Y), s(Y)",
        3,
    );
    assert!(retractions > 0, "the core run must retract");
}

/// Runs `spec` to termination while querying it, checks that the
/// sound-prefix answers grow with the horizon into the `complete` set of
/// `expected` tuples, and returns the run's retraction count.
fn assert_live_answers_grow(
    snapshot_every: usize,
    spec: JobSpec,
    query_src: &str,
    expected: usize,
) -> usize {
    let svc = Service::with_config(
        1,
        ServiceConfig {
            snapshot_every,
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");
    let id = svc.submit(spec);
    let mut observed: Vec<(u64, Vec<Vec<String>>)> = Vec::new();
    while svc.status(id) == Some(JobStatus::Queued) || svc.status(id) == Some(JobStatus::Running) {
        match svc.query_job(id, query_src, None, None) {
            Ok(reply) => {
                if let Completeness::SoundPrefix { horizon } = reply.outcome.completeness {
                    assert_eq!(reply.applications, Some(horizon));
                    observed.push((horizon, reply.outcome.answers.clone()));
                }
            }
            Err(QueryError::NoSnapshot(_)) => {}
            Err(e) => panic!("unexpected query error: {e}"),
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(svc.wait(id), Some(JobStatus::Finished));
    assert!(
        !observed.is_empty(),
        "no query landed mid-run; slow the job"
    );

    let final_reply = svc
        .query_job(id, query_src, None, None)
        .expect("final answers");
    assert_eq!(final_reply.outcome.completeness, Completeness::Complete);
    assert_eq!(final_reply.outcome.answers.len(), expected);

    // Monotone growth: sort by horizon; every earlier answer set is a
    // subset of every later one and of the final complete set.
    observed.sort_by_key(|(h, _)| *h);
    for pair in observed.windows(2) {
        let (h1, earlier) = &pair[0];
        let (h2, later) = &pair[1];
        for row in earlier {
            assert!(
                later.contains(row),
                "answer {row:?} at horizon {h1} vanished by horizon {h2}"
            );
        }
    }
    for (h, answers) in &observed {
        for row in answers {
            assert!(
                final_reply.outcome.answers.contains(row),
                "prefix answer {row:?} at horizon {h} missing from the complete set"
            );
        }
    }
    svc.with_result(id, |res| res.stats.retractions)
        .expect("finished job has a result")
}

/// A query whose homomorphism search exhausts its node budget reports
/// `truncated` — never an empty `complete` set (truncated-miss-is-
/// inconclusive).
#[test]
fn budget_truncated_query_reports_truncated_not_empty_complete() {
    let svc = Service::start(1);
    let id = svc.submit(
        JobSpec::from_text(
            "chain",
            &chain_src(12),
            ChaseConfig::variant(ChaseVariant::Restricted),
        )
        .unwrap(),
    );
    assert_eq!(svc.wait(id), Some(JobStatus::Finished));

    // A three-atom join over the 78-atom closure blows a 1-node budget.
    let reply = svc
        .query_job(id, "?(X) :- r(X, Y), r(Y, Z), r(Z, W)", Some(1), None)
        .expect("job answers");
    assert_eq!(reply.outcome.completeness, Completeness::Truncated);

    // The same query with no limit is complete and non-empty, proving
    // the truncated run really did miss answers.
    let full = svc
        .query_job(id, "?(X) :- r(X, Y), r(Y, Z), r(Z, W)", None, None)
        .expect("job answers");
    assert_eq!(full.outcome.completeness, Completeness::Complete);
    assert!(full.outcome.entailed());
}

/// Under `--max-queue` pressure, queries are shed with a structured
/// queue-full rejection (with a retry hint) instead of piling onto an
/// overloaded service.
#[test]
fn queries_are_shed_with_queue_full_under_max_queue() {
    let svc = Service::with_config(
        1,
        ServiceConfig {
            max_queue: Some(1),
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");
    // One long job runs, a second fills the queue to its cap.
    let cfg = ChaseConfig::variant(ChaseVariant::Oblivious).with_max_applications(10_000_000);
    let running = svc.submit(JobSpec::from_kb(
        "long-a",
        KnowledgeBase::staircase(),
        cfg.clone(),
    ));
    while svc.status(running) != Some(JobStatus::Running) {
        std::thread::yield_now();
    }
    let queued = svc.submit(JobSpec::from_kb("long-b", KnowledgeBase::staircase(), cfg));
    assert_eq!(svc.status(queued), Some(JobStatus::Queued));

    let err = svc
        .query_job(running, "?- h(X, Y)", None, None)
        .expect_err("overloaded service sheds queries");
    let QueryError::Rejected(rej) = err else {
        panic!("expected a structured rejection, got {err}");
    };
    assert_eq!(rej.reason.name(), "queue-full");
    assert!(rej.retry_after.is_some(), "shed replies carry a retry hint");

    // The ad-hoc KB path is shed by the same gate.
    let kb = KnowledgeBase::from_text(&chain_src(3)).unwrap();
    assert!(matches!(
        svc.query_kb(
            &kb,
            &ChaseConfig::variant(ChaseVariant::Restricted),
            "?- r(c0, c1)",
            None,
            None
        ),
        Err(QueryError::Rejected(_))
    ));

    assert!(svc.cancel(running));
    assert!(svc.cancel(queued));
    svc.wait(running);
    svc.wait(queued);
}

/// Concurrent readers over the snapshot cache never block or panic the
/// chase writer: a burst of queries from several threads runs to
/// completion while the job keeps making progress, and the job still
/// reaches a clean terminal state afterwards.
#[test]
fn concurrent_queries_never_block_or_panic_the_writer() {
    let svc = Arc::new(
        Service::with_config(
            1,
            ServiceConfig {
                snapshot_every: 4,
                ..ServiceConfig::default()
            },
        )
        .expect("service starts"),
    );
    let id = svc.submit(JobSpec::from_kb(
        "elevator-live",
        KnowledgeBase::elevator(),
        ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(50_000_000),
    ));
    while svc.status(id) != Some(JobStatus::Running) {
        std::thread::yield_now();
    }

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let mut served = 0usize;
                for _ in 0..50 {
                    match svc.query_job(id, "?- h(X, Y), v(Y, Z)", None, None) {
                        Ok(reply) => {
                            assert!(!matches!(
                                reply.outcome.completeness,
                                Completeness::Complete
                            ));
                            served += 1;
                        }
                        Err(QueryError::NoSnapshot(_)) => {}
                        Err(e) => panic!("reader failed: {e}"),
                    }
                }
                served
            })
        })
        .collect();
    let mut total = 0usize;
    for h in readers {
        total += h.join().expect("reader thread must not panic");
    }
    assert!(total > 0, "at least some queries must be served live");

    // The writer survived the read burst and still terminates cleanly.
    assert_eq!(svc.status(id), Some(JobStatus::Running));
    assert!(svc.cancel(id));
    assert_eq!(svc.wait(id), Some(JobStatus::Cancelled));

    // Per-job counters and the service-wide cache stats both saw the
    // burst.
    let row = svc
        .list()
        .into_iter()
        .find(|r| r.id == id)
        .expect("job listed");
    assert!(row.queries_served >= total as u64);
    assert!(svc.cache_stats().hits >= total as u64);
}

/// The `query` wire op end to end over `treechase serve`: job-targeted
/// queries after termination are `complete`; ad-hoc `source` queries
/// work without a job; bad targets produce structured errors, not a
/// dead server.
#[test]
fn serve_query_op_roundtrip() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_treechase"))
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut stdin = child.stdin.take().unwrap();
    let src = chain_src(4);
    writeln!(
        stdin,
        r#"{{"op":"submit","name":"chain","source":"{src}","variant":"restricted"}}"#
    )
    .unwrap();
    writeln!(stdin, r#"{{"op":"wait","job":1}}"#).unwrap();
    writeln!(
        stdin,
        r#"{{"op":"query","job":1,"query":"?(X) :- r(c0, X)"}}"#
    )
    .unwrap();
    writeln!(
        stdin,
        r#"{{"op":"query","source":"{src}","query":"?- r(c0, c4)","variant":"restricted"}}"#
    )
    .unwrap();
    writeln!(stdin, r#"{{"op":"query","job":99,"query":"?- r(c0, c1)"}}"#).unwrap();
    writeln!(stdin, r#"{{"op":"query","job":1}}"#).unwrap();
    writeln!(stdin, r#"{{"op":"list"}}"#).unwrap();
    writeln!(stdin, r#"{{"op":"shutdown"}}"#).unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);

    let mut query_replies = Vec::new();
    let mut errors = 0usize;
    let mut listed_queries_served = None;
    for line in stdout.lines() {
        let v = parse_json(line).unwrap_or_else(|e| panic!("bad wire line {line}: {e}"));
        match v.get("type").and_then(|t| t.as_str()) {
            Some("error") => errors += 1,
            Some("response") if v.get("op").and_then(|o| o.as_str()) == Some("query") => {
                query_replies.push(v.clone());
            }
            Some("response") if v.get("op").and_then(|o| o.as_str()) == Some("list") => {
                listed_queries_served = v
                    .get("jobs")
                    .and_then(|jobs| jobs.as_arr())
                    .and_then(|jobs| jobs.first())
                    .and_then(|job| job.get("queries_served"))
                    .and_then(treechase::service::Json::as_u64);
            }
            _ => {}
        }
    }
    assert_eq!(errors, 2, "unknown job + missing query text: {stdout}");
    assert_eq!(query_replies.len(), 2, "{stdout}");

    // Job-targeted reply: complete, with the four reachable constants
    // and the snapshot metadata attached.
    let job_reply = &query_replies[0];
    assert_eq!(
        job_reply.get("completeness").and_then(|c| c.as_str()),
        Some("complete")
    );
    assert_eq!(
        job_reply
            .get("answers")
            .and_then(|a| a.as_arr())
            .map(<[_]>::len),
        Some(4)
    );
    assert_eq!(job_reply.get("job").and_then(|j| j.as_u64()), Some(1));
    assert!(job_reply.get("cache").is_some());

    // Ad-hoc source reply: boolean, entailed, no job metadata.
    let adhoc_reply = &query_replies[1];
    assert_eq!(
        adhoc_reply.get("completeness").and_then(|c| c.as_str()),
        Some("complete")
    );
    assert_eq!(
        adhoc_reply
            .get("entailed")
            .and_then(treechase::service::Json::as_bool),
        Some(true)
    );
    assert!(matches!(
        adhoc_reply.get("job"),
        Some(treechase::service::Json::Null)
    ));

    assert_eq!(listed_queries_served, Some(1), "{stdout}");
}
