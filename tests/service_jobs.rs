//! Integration tests of the `treechase-service` job runner: budget
//! exhaustion → checkpoint → resume equivalence, cancellation latency,
//! concurrent batches, and the JSONL wire protocol end to end.

use std::io::Write as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use treechase::core::KnowledgeBase;
use treechase::engine::{
    ChaseConfig, ChaseOutcome, ChaseStats, ChaseVariant, FaultPlan, FaultSite,
};
use treechase::homomorphism::isomorphism;
use treechase::service::{
    parse_json, Checkpoint, CheckpointStore, JobEventKind, JobSpec, JobStatus, Json, QueryVerdict,
    Service, ServiceConfig,
};

fn staircase_spec(name: &str, cfg: ChaseConfig) -> JobSpec {
    JobSpec::from_kb(name, KnowledgeBase::staircase(), cfg)
}

/// The acceptance scenario: a core-chase job on the staircase KB runs
/// out of budget, is checkpointed, and the resumed job reaches a result
/// isomorphic to an uninterrupted run of the same total budget.
#[test]
fn staircase_core_chase_resumes_isomorphic_to_uninterrupted() {
    let total = 60usize;
    let cut = 30usize;
    let svc = Service::start(2);

    let full_id = svc.submit(staircase_spec(
        "full",
        ChaseConfig::variant(ChaseVariant::Core).with_max_applications(total),
    ));
    let cut_id = svc.submit(staircase_spec(
        "cut",
        ChaseConfig::variant(ChaseVariant::Core).with_max_applications(cut),
    ));
    let full = svc.take_result(full_id).expect("full run result");
    let cut_res = svc.take_result(cut_id).expect("cut run result");
    assert_eq!(full.outcome, ChaseOutcome::ApplicationBudgetExhausted);
    assert_eq!(cut_res.outcome, ChaseOutcome::ApplicationBudgetExhausted);

    let ck = cut_res.checkpoint.expect("budget exhaustion is resumable");
    assert!(ck.exact(), "core chase checkpoints are resume-exact");
    assert_eq!(ck.stats.applications, cut);

    let mut resumed_spec = ck.into_spec().expect("checkpoint reparses");
    resumed_spec.config.max_applications = total - cut;
    let resumed_id = svc.submit(resumed_spec);
    let resumed = svc.take_result(resumed_id).expect("resumed result");

    // Accumulated counters cover both slices.
    assert_eq!(resumed.stats.applications, total);
    assert!(
        isomorphism(&resumed.final_instance, &full.final_instance).is_some(),
        "resumed instance ({} atoms) must be isomorphic to the \
         uninterrupted one ({} atoms)",
        resumed.final_instance.len(),
        full.final_instance.len()
    );
}

/// A cancelled running job stops within 100 ms and the worker pool
/// stays healthy for subsequent jobs.
#[test]
fn cancellation_lands_within_100ms_without_poisoning_the_pool() {
    let svc = Service::start(1);
    // A divergent KB with a huge budget: would run for minutes.
    let id = svc.submit(staircase_spec(
        "longrun",
        ChaseConfig::variant(ChaseVariant::Oblivious).with_max_applications(10_000_000),
    ));
    // Wait until the job is actually running.
    let spin_start = Instant::now();
    while svc.status(id) != Some(JobStatus::Running) {
        assert!(
            spin_start.elapsed() < Duration::from_secs(10),
            "job never started"
        );
        std::thread::yield_now();
    }
    // Let it chew for a moment so cancellation hits mid-run.
    std::thread::sleep(Duration::from_millis(50));

    let cancel_at = Instant::now();
    assert!(svc.cancel(id));
    let status = svc.wait(id).expect("job known");
    let latency = cancel_at.elapsed();
    assert_eq!(status, JobStatus::Cancelled);
    assert!(
        latency < Duration::from_millis(100),
        "cancellation took {latency:?}"
    );

    // The pool still runs new work afterwards.
    let next = svc.submit(
        JobSpec::from_text(
            "after-cancel",
            "r(a, b). T: r(X, Y) -> r(Y, X). Q: ?- r(b, a).",
            ChaseConfig::variant(ChaseVariant::Restricted),
        )
        .unwrap(),
    );
    let res = svc.take_result(next).expect("post-cancel job runs");
    assert!(res.outcome.terminated());
    assert_eq!(res.queries[0].1, QueryVerdict::EntailedCertified);
}

/// A cancelled run is still a valid prefix: it yields a checkpoint from
/// which the job can be resumed to completion.
#[test]
fn cancelled_job_checkpoint_resumes_to_completion() {
    let svc = Service::start(1);
    let id = svc.submit(JobSpec::from_kb(
        "cancel-resume",
        KnowledgeBase::staircase(),
        ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(2_000_000),
    ));
    while svc.status(id) != Some(JobStatus::Running) {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(20));
    assert!(svc.cancel(id));
    let res = svc.take_result(id).expect("cancelled result");
    assert_eq!(res.outcome, ChaseOutcome::Cancelled);
    let ck = res.checkpoint.expect("cancellation is resumable");

    let mut spec = ck.into_spec().expect("checkpoint reparses");
    // Resume with a budget instead of cancelling again.
    spec.config.max_applications = res.stats.applications + 10;
    let resumed = svc.take_result(svc.submit(spec)).expect("resumed");
    assert_eq!(resumed.outcome, ChaseOutcome::ApplicationBudgetExhausted);
    assert!(resumed.stats.applications >= res.stats.applications);
}

/// Resuming an oblivious checkpoint drops the applied-trigger memory;
/// the runner must say so (a `warning` event) instead of silently
/// producing a run that may re-fire the prefix's triggers.
#[test]
fn inexact_oblivious_resume_emits_a_warning_event() {
    let svc = Service::start(1);
    let cut = svc
        .take_result(svc.submit(staircase_spec(
            "obliv-cut",
            ChaseConfig::variant(ChaseVariant::Oblivious).with_max_applications(5),
        )))
        .expect("cut result");
    assert_eq!(cut.outcome, ChaseOutcome::ApplicationBudgetExhausted);
    let ck = cut.checkpoint.expect("budget exhaustion is resumable");
    assert!(!ck.exact(), "oblivious checkpoints are inexact");

    let events = svc.events();
    let mut spec = ck.into_spec().expect("checkpoint reparses");
    assert!(spec.resumed_inexact);
    spec.config.max_applications = 5;
    let id = svc.submit(spec);
    svc.wait(id);
    let mut warning = None;
    while let Some(ev) = events.try_recv() {
        if let JobEventKind::Warning { message } = ev.kind {
            assert_eq!(ev.job, id);
            warning = Some(message);
        }
    }
    let message = warning.expect("inexact resume must emit a warning event");
    assert!(message.contains("inexact resume"), "{message}");
    assert!(message.contains("oblivious"), "{message}");

    // An exact (core) resume stays warning-free.
    let core_cut = svc
        .take_result(svc.submit(staircase_spec(
            "core-cut",
            ChaseConfig::variant(ChaseVariant::Core).with_max_applications(5),
        )))
        .expect("core cut result");
    let core_ck = core_cut.checkpoint.expect("resumable");
    assert!(core_ck.exact());
    let events = svc.events();
    let resumed_spec = core_ck.into_spec().expect("reparses");
    assert!(!resumed_spec.resumed_inexact);
    let id2 = svc.submit(resumed_spec);
    svc.wait(id2);
    while let Some(ev) = events.try_recv() {
        assert!(
            !matches!(ev.kind, JobEventKind::Warning { .. }),
            "exact resume must not warn"
        );
    }
}

/// With four workers, four submitted jobs all start before any of them
/// finishes — i.e. they genuinely execute concurrently.
#[test]
fn four_jobs_run_concurrently_with_interleaved_starts() {
    let svc = Service::start(4);
    let events = svc.events();
    let cfg = ChaseConfig::variant(ChaseVariant::Oblivious)
        .with_max_applications(10_000_000)
        .with_max_wall(Duration::from_millis(700));
    // Progress events off: a wall-bounded run emits one per application,
    // enough to push the `started` events out of the bounded event hub.
    let ids: Vec<_> = (0..4)
        .map(|i| {
            svc.submit(
                staircase_spec(&format!("conc-{i}"), cfg.clone()).with_progress_every(usize::MAX),
            )
        })
        .collect();
    for id in &ids {
        assert_eq!(svc.wait(*id), Some(JobStatus::Finished));
    }
    let mut started_before_first_finish = std::collections::HashSet::new();
    let mut finished = false;
    while let Some(ev) = events.try_recv() {
        match ev.kind {
            JobEventKind::Started if !finished => {
                started_before_first_finish.insert(ev.job);
            }
            JobEventKind::Finished { .. } => finished = true,
            _ => {}
        }
    }
    assert_eq!(
        started_before_first_finish.len(),
        4,
        "all four jobs must be running before the first one finishes"
    );
}

/// A concurrent batch over the repo's `testdata/` directory: every KB
/// file becomes a job, all reach a terminal state, none fails.
#[test]
fn concurrent_batch_over_testdata() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("testdata exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "tc"))
        .collect();
    files.sort();
    assert!(files.len() >= 4, "need at least 4 KBs for a real batch");

    let svc = Service::start(4);
    let cfg = ChaseConfig::variant(ChaseVariant::Core)
        .with_max_applications(60)
        .with_max_wall(Duration::from_millis(2_000));
    let ids: Vec<_> = files
        .iter()
        .map(|path| {
            let src = std::fs::read_to_string(path).unwrap();
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            svc.submit(JobSpec::from_text(name, &src, cfg.clone()).expect("testdata parses"))
        })
        .collect();
    for id in ids {
        let status = svc.wait(id).expect("job known");
        assert_eq!(status, JobStatus::Finished, "job {id} did not finish");
        let (outcome, atoms) = svc
            .with_result(id, |r| (r.outcome, r.final_instance.len()))
            .expect("result stored");
        assert!(atoms > 0);
        // Terminated or budget-stopped, never crashed.
        assert_ne!(outcome, ChaseOutcome::Cancelled);
    }
}

/// End-to-end JSONL protocol over the `treechase serve` subcommand:
/// submit with a budget, fetch the checkpoint, resume it, and watch the
/// query verdict flip from inconclusive to entailed.
#[test]
fn serve_protocol_checkpoint_resume_roundtrip() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_treechase"))
        .args(["serve", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut stdin = child.stdin.take().unwrap();
    writeln!(
        stdin,
        r#"{{"op":"submit","name":"wire","source":"r(a, b). r(b, c). r(c, d). r(d, e). T: r(X, Y), r(Y, Z) -> r(X, Z). Q: ?- r(a, e).","variant":"restricted","max_apps":2}}"#
    )
    .unwrap();
    writeln!(stdin, r#"{{"op":"wait","job":1}}"#).unwrap();
    writeln!(stdin, r#"{{"op":"checkpoint","job":1}}"#).unwrap();
    writeln!(stdin, r#"{{"op":"shutdown"}}"#).unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);

    // Every line is valid JSON; find the checkpoint response.
    let mut checkpoint = None;
    for line in stdout.lines() {
        let v = parse_json(line).unwrap_or_else(|e| panic!("bad wire line {line}: {e}"));
        if v.get("op").and_then(|o| o.as_str()) == Some("checkpoint") {
            checkpoint = v.get("checkpoint").cloned();
        }
    }
    let checkpoint = checkpoint.expect("checkpoint response present");
    assert!(stdout.contains(r#""verdict":"inconclusive""#), "{stdout}");

    // Second serve session: resume from the captured checkpoint.
    let mut child = Command::new(env!("CARGO_BIN_EXE_treechase"))
        .args(["serve"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut stdin = child.stdin.take().unwrap();
    writeln!(
        stdin,
        r#"{{"op":"resume","checkpoint":{checkpoint},"max_apps":1000}}"#
    )
    .unwrap();
    writeln!(stdin, r#"{{"op":"wait","job":1}}"#).unwrap();
    writeln!(stdin, r#"{{"op":"shutdown"}}"#).unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(r#""outcome":"terminated""#), "{stdout}");
    assert!(stdout.contains(r#""verdict":"entailed""#), "{stdout}");
}

/// The supervision acceptance scenario: a core-chase staircase job
/// whose worker is killed *twice* by injected crashes is retried from
/// the last periodic checkpoint each time and converges to a result
/// isomorphic to a clean run, with monotone counters (each pre-crash
/// prefix is counted once, not rerun).
#[test]
fn supervised_core_crash_recovers_isomorphic_to_clean_run() {
    let total = 40usize;
    let clean_svc = Service::start(1);
    let clean = clean_svc
        .take_result(clean_svc.submit(staircase_spec(
            "clean",
            ChaseConfig::variant(ChaseVariant::Core).with_max_applications(total),
        )))
        .expect("clean run result");
    assert_eq!(clean.outcome, ChaseOutcome::ApplicationBudgetExhausted);

    let svc = Service::with_config(
        1,
        ServiceConfig {
            retry_backoff: Duration::ZERO,
            checkpoint_every: Some(1),
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");
    let events = svc.events();
    let id = svc.submit(staircase_spec(
        "crashy",
        ChaseConfig::variant(ChaseVariant::Core)
            .with_max_applications(total)
            // The application counter is process-global and monotone,
            // so the two sites land in different slices: the first
            // kills the initial run, the second kills its retry.
            .with_fault(FaultPlan::new(vec![
                FaultSite::Application(total / 4),
                FaultSite::Application(3 * total / 4),
            ])),
    ));
    assert_eq!(svc.wait(id), Some(JobStatus::Finished));
    let res = svc.take_result(id).expect("supervised result");
    assert_eq!(res.outcome, ChaseOutcome::ApplicationBudgetExhausted);
    // Monotone stats across the crash: total applications equal the
    // uninterrupted run's, and the accumulated wall clock is nonzero.
    assert_eq!(res.stats.applications, total);
    assert!(res.stats.wall_us > 0);
    assert!(
        isomorphism(&res.final_instance, &clean.final_instance).is_some(),
        "crash-recovered instance ({} atoms) must be isomorphic to the \
         clean one ({} atoms)",
        res.final_instance.len(),
        clean.final_instance.len()
    );
    let crashes: Vec<_> = std::iter::from_fn(|| events.try_recv())
        .filter_map(|ev| match ev.kind {
            JobEventKind::Crashed {
                attempt, retrying, ..
            } => Some((attempt, retrying)),
            _ => None,
        })
        .collect();
    assert_eq!(
        crashes,
        vec![(1, true), (2, true)],
        "two supervised kills, each retried"
    );
}

/// A crashed slice is retried from its last checkpoint, or from scratch
/// when it has none, and the retry republishes that older instance.
/// Readers must not see the horizon fall: the cache drops the retry's
/// publishes below the pre-crash snapshot. Here the retry crashes at
/// once, so the job fails holding the pre-crash snapshot.
#[test]
fn crash_retry_never_lowers_the_live_horizon() {
    let svc = Service::with_config(
        1,
        ServiceConfig {
            max_retries: 1,
            retry_backoff: Duration::ZERO,
            snapshot_every: 1,
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");
    let id = svc.submit(staircase_spec(
        "crash-twice",
        ChaseConfig::variant(ChaseVariant::Restricted)
            .with_max_applications(40)
            // The first site kills the initial slice after nine
            // published steps; the second kills the from-scratch retry
            // at its first application, right after it republished the
            // base facts.
            .with_fault(FaultPlan::new(vec![
                FaultSite::Application(10),
                FaultSite::Application(11),
            ])),
    ));
    assert_eq!(svc.wait(id), Some(JobStatus::Failed));
    let reply = svc
        .query_job(id, "?- c(X)", None, None)
        .expect("the failed job keeps its snapshot");
    assert_eq!(reply.applications, Some(9), "the horizon fell");
    assert!(
        reply.cache.stale_drops >= 1,
        "the retry's base publish counts"
    );
}

/// A crash injected *inside the incremental core phase* — not between
/// trigger applications — is also recovered to an isomorphic result.
/// The core retraction is the hairiest place to interrupt: the durable
/// checkpoint predates the retraction, so the retry must redo it.
#[test]
fn core_phase_crash_recovers_isomorphic_to_clean_run() {
    let total = 30usize;
    let clean_svc = Service::start(1);
    let clean = clean_svc
        .take_result(clean_svc.submit(staircase_spec(
            "clean",
            ChaseConfig::variant(ChaseVariant::Core).with_max_applications(total),
        )))
        .expect("clean run result");

    let svc = Service::with_config(
        1,
        ServiceConfig {
            retry_backoff: Duration::ZERO,
            checkpoint_every: Some(1),
            ..ServiceConfig::default()
        },
    )
    .expect("service starts");
    let id = svc.submit(staircase_spec(
        "core-crash",
        ChaseConfig::variant(ChaseVariant::Core)
            .with_max_applications(total)
            .with_fault(FaultPlan::new(vec![FaultSite::CorePhase(total / 2)])),
    ));
    assert_eq!(svc.wait(id), Some(JobStatus::Finished));
    let res = svc.take_result(id).expect("supervised result");
    assert_eq!(res.outcome, ChaseOutcome::ApplicationBudgetExhausted);
    assert_eq!(res.stats.applications, total);
    assert!(isomorphism(&res.final_instance, &clean.final_instance).is_some());
}

/// Satellite: cancelling a `Core` job mid-run (so the interruption can
/// land inside the incremental core phase, on a possibly non-core
/// instance) still yields an exact checkpoint, and resuming it runs the
/// chase to termination on an instance isomorphic to the uninterrupted
/// closure — `resume_reaches_the_same_closure_as_uninterrupted`, beyond
/// the restricted variant.
#[test]
fn cancelled_core_job_resumes_isomorphic_to_uninterrupted() {
    // A terminating core chase that is still slow enough to interrupt:
    // transitive closure over a 40-edge chain (780 applications, each
    // followed by an incremental core-maintenance phase).
    let mut src: String = (0..40).map(|i| format!("r(c{i}, c{}). ", i + 1)).collect();
    src.push_str("T: r(X, Y), r(Y, Z) -> r(X, Z).");
    let cfg = ChaseConfig::variant(ChaseVariant::Core);

    let svc = Service::start(2);
    let clean_id = svc.submit(JobSpec::from_text("core-clean", &src, cfg.clone()).unwrap());
    let id = svc.submit(JobSpec::from_text("core-cancel", &src, cfg).unwrap());
    while svc.status(id) != Some(JobStatus::Running) {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(10));
    assert!(svc.cancel(id));
    let cut = svc.take_result(id).expect("cancelled result");
    assert_eq!(cut.outcome, ChaseOutcome::Cancelled);
    let ck = cut.checkpoint.expect("cancellation is resumable");
    assert!(ck.exact(), "core checkpoints are resume-exact");
    assert!(ck.stats.applications > 0, "cancel landed mid-run");

    let resumed_spec = ck.into_spec().expect("checkpoint reparses");
    let resumed = svc
        .take_result(svc.submit(resumed_spec))
        .expect("resumed result");
    assert!(resumed.outcome.terminated(), "{:?}", resumed.outcome);
    // Monotone counters: the continuation extends the prefix.
    assert!(resumed.stats.applications > cut.stats.applications);

    let clean = svc.take_result(clean_id).expect("clean run result");
    assert!(clean.outcome.terminated());
    assert!(
        isomorphism(&resumed.final_instance, &clean.final_instance).is_some(),
        "core resume after mid-run cancellation must converge to the \
         uninterrupted closure ({} vs {} atoms)",
        resumed.final_instance.len(),
        clean.final_instance.len()
    );
}

/// The crash-recovery smoke: SIGKILL a `serve` process mid-run, restart
/// it over the same `--state-dir`, and check the recovered job finishes
/// the derivation — same application total as an uninterrupted run
/// (prefix counted once) and an isomorphic final instance.
#[test]
fn sigkill_mid_run_recovers_from_durable_checkpoints() {
    let total = 60usize;
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/staircase.tc"),
    )
    .expect("staircase testdata");
    let state_dir = std::env::temp_dir().join(format!("treechase-sigkill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let state_dir_arg = state_dir.to_str().expect("utf-8 temp dir");

    // Reference: the same job uninterrupted, in-process.
    let clean_svc = Service::start(1);
    let clean = clean_svc
        .take_result(
            clean_svc.submit(
                JobSpec::from_text(
                    "clean",
                    &src,
                    ChaseConfig::variant(ChaseVariant::Core).with_max_applications(total),
                )
                .expect("staircase parses"),
            ),
        )
        .expect("clean run result");
    assert_eq!(clean.outcome, ChaseOutcome::ApplicationBudgetExhausted);

    // Session 1: submit, wait for the first durable checkpoint to land
    // on disk, then SIGKILL the whole process mid-run.
    let mut child = Command::new(env!("CARGO_BIN_EXE_treechase"))
        .args([
            "serve",
            "--workers",
            "1",
            "--state-dir",
            state_dir_arg,
            "--checkpoint-every",
            "1",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve starts");
    let mut stdin = child.stdin.take().unwrap();
    let submit = Json::obj([
        ("op", Json::str("submit")),
        ("name", Json::str("stair")),
        ("source", Json::str(&src)),
        ("variant", Json::str("core")),
        ("max_apps", Json::Int(total as i64)),
    ]);
    writeln!(stdin, "{submit}").unwrap();
    let has_checkpoint_file = || {
        std::fs::read_dir(&state_dir).is_ok_and(|entries| {
            entries
                .filter_map(|e| e.ok())
                .any(|e| e.file_name().to_string_lossy().ends_with(".ckpt.json"))
        })
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while !has_checkpoint_file() {
        assert!(
            Instant::now() < deadline,
            "no durable checkpoint appeared in {}",
            state_dir.display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL lands"); // SIGKILL: no cleanup runs
    child.wait().expect("killed child reaped");
    drop(stdin);

    // Session 2: the restarted service recovers the checkpoint into a
    // queued job and runs it to the original application target.
    let mut child = Command::new(env!("CARGO_BIN_EXE_treechase"))
        .args(["serve", "--workers", "1", "--state-dir", state_dir_arg])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve restarts");
    let mut stdin = child.stdin.take().unwrap();
    writeln!(stdin, r#"{{"op":"wait","job":1}}"#).unwrap();
    writeln!(stdin, r#"{{"op":"checkpoint","job":1}}"#).unwrap();
    writeln!(stdin, r#"{{"op":"shutdown"}}"#).unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);

    let mut recovered = false;
    let mut checkpoint = None;
    for line in stdout.lines() {
        let v = parse_json(line).unwrap_or_else(|e| panic!("bad wire line {line}: {e}"));
        if v.get("type").and_then(|t| t.as_str()) == Some("recovered") {
            recovered = true;
        }
        if v.get("op").and_then(|o| o.as_str()) == Some("checkpoint") {
            checkpoint = v.get("checkpoint").cloned();
        }
    }
    assert!(recovered, "restart must announce recovered jobs: {stdout}");
    let (ck, spec) = Checkpoint::from_json(&checkpoint.expect("checkpoint response present"))
        .expect("wire checkpoint parses")
        .into_parts();
    // Monotone across the kill: the killed prefix plus the recovered
    // slice together hit the original budget exactly once.
    assert_eq!(ck.stats.applications, total);
    assert!(
        isomorphism(&spec.kb.facts, &clean.final_instance).is_some(),
        "recovered instance ({} atoms) must be isomorphic to the clean \
         one ({} atoms)",
        spec.kb.facts.len(),
        clean.final_instance.len()
    );
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Malformed requests produce error lines, not a dead server.
#[test]
fn serve_survives_malformed_requests() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_treechase"))
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut stdin = child.stdin.take().unwrap();
    writeln!(stdin, "this is not json").unwrap();
    writeln!(stdin, r#"{{"op":"frobnicate"}}"#).unwrap();
    writeln!(stdin, r#"{{"op":"status","job":99}}"#).unwrap();
    writeln!(stdin, r#"{{"op":"list"}}"#).unwrap();
    writeln!(stdin, r#"{{"op":"shutdown"}}"#).unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let errors = stdout
        .lines()
        .filter(|l| l.contains(r#""type":"error""#))
        .count();
    assert_eq!(errors, 3, "{stdout}");
    assert!(stdout.contains(r#""op":"list""#), "{stdout}");
}

/// A store file with a valid envelope but a program that does not parse
/// is reported among the recovery errors and never queued.
#[test]
fn store_file_with_malformed_program_is_a_recovery_error_not_a_job() {
    let state_dir =
        std::env::temp_dir().join(format!("treechase-torn-program-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let store = CheckpointStore::open(&state_dir).unwrap();
    let torn = Checkpoint {
        name: "torn".to_string(),
        config: ChaseConfig::variant(ChaseVariant::Restricted),
        program: "r(a, b). T: r(X, Y) -> r(Y".to_string(),
        stats: ChaseStats::default(),
    };
    store.save(1, &torn, None).unwrap();

    let svc = Service::with_config(
        1,
        ServiceConfig {
            state_dir: Some(state_dir.clone()),
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    assert!(svc.recovered_jobs().is_empty());
    let errors = svc.recovery_errors();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].path.ends_with("job-1.ckpt.json"), "{errors:?}");
    assert!(
        errors[0].error.starts_with("checkpoint program:"),
        "{}",
        errors[0].error
    );
    assert!(svc.list().is_empty());
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&state_dir);
}
