//! The worker: pulls leased jobs and runs them through the existing
//! service runner.
//!
//! A worker is deliberately thin — all chase semantics (budget
//! accounting, checkpoint exactness, query verdicts, crash retries)
//! live in the embedded single-threaded
//! [`Service`]; the worker only moves frames:
//!
//! - it registers with `hello` and obeys the coordinator's lease,
//!   heartbeat and checkpoint cadences from the `welcome` reply;
//! - each lease arrives as a [`Checkpoint`], parsed once and
//!   resubmitted locally via
//!   [`DecodedCheckpoint::into_parts`](treechase_service::DecodedCheckpoint::into_parts),
//!   so the slice continues with the derivation-total budget invariants
//!   (remaining applications re-derived, prefix wall time charged);
//! - between heartbeats it forwards buffered job events and ships the
//!   freshest local checkpoint whenever the application count moved —
//!   shipped progress doubles as the heartbeat;
//! - a `fenced` reply (lease expired and rescheduled, or job
//!   cancelled) aborts the local run immediately: the coordinator has
//!   already given the job to someone else, and anything this worker
//!   produces past that point must not count;
//! - on `stop` (the CLI wires SIGTERM here) it drains the local
//!   service — the running slice checkpoints and halts — and hands the
//!   lease back with a `release` carrying that final checkpoint, so
//!   the job requeues with its progress instead of waiting out the
//!   lease clock.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use chase_engine::ChaseOutcome;
use treechase_service::protocol::{event_to_json, outcome_name, stats_to_json, verdict_name};
use treechase_service::{
    Checkpoint, EventReceiver, JobId, JobSpec, JobStatus, Json, Service, ServiceConfig, WaitResult,
};

use crate::wire::roundtrip;

/// Connection settings for [`run_worker`].
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub connect: String,
    /// Worker name sent in `hello` (must be unique per cluster; the
    /// coordinator fences on `(worker, epoch)` pairs).
    pub name: String,
    /// Print one JSONL line per lease/completion to stdout.
    pub announce: bool,
}

/// What the coordinator's `welcome` told us to do.
struct Cadence {
    heartbeat: Duration,
    checkpoint_every: usize,
}

/// Runs the worker loop until `stop` returns true (the CLI polls its
/// SIGTERM flag through this) or the connection fails.
pub fn run_worker(cfg: &WorkerConfig, stop: &dyn Fn() -> bool) -> Result<(), String> {
    let mut conn = connect_with_retry(&cfg.connect, stop)?;
    conn.set_read_timeout(Some(Duration::from_millis(250)))
        .map_err(|e| format!("read timeout: {e}"))?;
    let hello = Json::obj([("op", Json::str("hello")), ("worker", Json::str(&cfg.name))]);
    let welcome = roundtrip(&mut conn, &hello)?;
    if welcome.get("op").and_then(Json::as_str) != Some("welcome") {
        return Err(format!("unexpected hello reply: {welcome}"));
    }
    let cadence = Cadence {
        heartbeat: Duration::from_millis(welcome.require_u64("heartbeat_ms")?),
        checkpoint_every: welcome.require_u64("checkpoint_every")? as usize,
    };
    let pull = Json::obj([("op", Json::str("pull")), ("worker", Json::str(&cfg.name))]);
    while !stop() {
        let reply = roundtrip(&mut conn, &pull)?;
        match reply.get("op").and_then(Json::as_str) {
            Some("lease") => run_lease(&mut conn, cfg, &cadence, &reply, stop)?,
            Some("idle") => {
                let retry = Duration::from_millis(reply.opt_u64("retry_ms")?.unwrap_or(200));
                sleep_until(retry, stop);
            }
            other => return Err(format!("unexpected pull reply op {other:?}")),
        }
    }
    let bye = Json::obj([("op", Json::str("bye")), ("worker", Json::str(&cfg.name))]);
    // Best effort: the coordinator may already be gone.
    let _ = roundtrip(&mut conn, &bye);
    Ok(())
}

/// Connects with bounded retries — in tests and CI the worker process
/// often races the coordinator's bind.
fn connect_with_retry(addr: &str, stop: &dyn Fn() -> bool) -> Result<TcpStream, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if stop() || Instant::now() >= deadline {
                    return Err(format!("connect {addr}: {e}"));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// Sleeps in small slices so a stop request lands promptly.
fn sleep_until(total: Duration, stop: &dyn Fn() -> bool) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !stop() {
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// True iff the coordinator fenced us off this lease.
fn is_fenced(reply: &Json) -> bool {
    reply.get("op").and_then(Json::as_str) == Some("fenced")
}

/// One granted lease: the worker holding it and the fencing token the
/// coordinator checks on every message about the job.
struct Lease<'a> {
    cfg: &'a WorkerConfig,
    job: u64,
    epoch: u64,
}

impl Lease<'_> {
    /// `{"op":<op>,"worker":…,"job":…,"epoch":…}` followed by `extra`.
    fn msg(&self, op: &str, extra: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        let mut fields = vec![
            ("op".to_string(), Json::str(op)),
            ("worker".to_string(), Json::str(&self.cfg.name)),
            ("job".to_string(), Json::Int(self.job as i64)),
            ("epoch".to_string(), Json::Int(self.epoch as i64)),
        ];
        fields.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
        Json::Obj(fields)
    }

    /// The `done` report of a run that cannot finish.
    fn failed(&self, message: &str) -> Json {
        self.msg(
            "done",
            [
                ("status", Json::str("failed")),
                ("message", Json::str(message)),
            ],
        )
    }
}

/// Executes one leased job to completion, fencing, or drain.
fn run_lease(
    conn: &mut TcpStream,
    cfg: &WorkerConfig,
    cadence: &Cadence,
    grant: &Json,
    stop: &dyn Fn() -> bool,
) -> Result<(), String> {
    let lease = Lease {
        cfg,
        job: grant.require_u64("job")?,
        epoch: grant.require_u64("epoch")?,
    };
    // Every lease travels as a checkpoint; one that does not parse is a
    // permanent failure, not a reschedulable one.
    let mut spec = match Checkpoint::from_json(grant.require("checkpoint")?) {
        Ok(ck) => ck.into_parts().1,
        Err(e) => {
            roundtrip(
                conn,
                &lease.failed(&format!("checkpoint does not parse: {e}")),
            )?;
            return Ok(());
        }
    };
    let base_applications = spec.base_stats.applications;
    if cfg.announce {
        let apps = Json::Int(base_applications as i64);
        println!("{}", lease.msg("worker-lease", [("applications", apps)]));
    }
    spec.checkpoint_every = Some(cadence.checkpoint_every);
    let spec_for_capture = spec.clone();
    let svc = Service::with_config(
        1,
        ServiceConfig {
            checkpoint_every: Some(cadence.checkpoint_every),
            ..ServiceConfig::default()
        },
    )?;
    let events = svc.events();
    let local = match svc.try_submit(spec) {
        Ok(id) => id,
        Err(rej) => {
            roundtrip(conn, &lease.failed(&rej.message))?;
            return Ok(());
        }
    };
    // Heartbeats ride a dedicated side-channel connection on their own
    // thread: the main loop below can stall for a whole lease on big
    // payloads — serializing a large checkpoint, a slow roundtrip, or
    // the local service's state lock — and the lease must stay alive
    // through all of it. The side channel also learns about fences
    // first, which the main loop checks every tick.
    let hb = Heartbeater::spawn(&cfg.connect, lease.msg("heartbeat", []), cadence.heartbeat);
    let out = run_lease_loop(
        conn,
        &lease,
        cadence,
        &svc,
        &spec_for_capture,
        local,
        &events,
        base_applications,
        &hb,
        stop,
    );
    hb.stop();
    out
}

/// The heartbeat side channel: its own socket, its own thread, so no
/// amount of main-loop latency can silently expire a live lease.
struct Heartbeater {
    stop: Arc<AtomicBool>,
    fenced: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Heartbeater {
    fn spawn(connect: &str, heartbeat: Json, interval: Duration) -> Heartbeater {
        let stop = Arc::new(AtomicBool::new(false));
        let fenced = Arc::new(AtomicBool::new(false));
        let connect = connect.to_string();
        let handle = {
            let stop = Arc::clone(&stop);
            let fenced = Arc::clone(&fenced);
            thread::spawn(move || {
                let Ok(mut conn) = TcpStream::connect(&connect) else {
                    return;
                };
                let _ = conn.set_read_timeout(Some(Duration::from_millis(250)));
                while !stop.load(Ordering::Acquire) {
                    match roundtrip(&mut conn, &heartbeat) {
                        Ok(reply) if is_fenced(&reply) => {
                            fenced.store(true, Ordering::Release);
                            return;
                        }
                        Ok(_) => {}
                        // A broken side channel is not a fence: the
                        // main loop's own sends still extend the lease.
                        Err(_) => return,
                    }
                    let deadline = Instant::now() + interval;
                    while Instant::now() < deadline && !stop.load(Ordering::Acquire) {
                        thread::sleep(Duration::from_millis(25));
                    }
                }
            })
        };
        Heartbeater {
            stop,
            fenced,
            handle: Some(handle),
        }
    }

    fn fenced(&self) -> bool {
        self.fenced.load(Ordering::Acquire)
    }

    fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_lease_loop(
    conn: &mut TcpStream,
    lease: &Lease,
    cadence: &Cadence,
    svc: &Service,
    spec_for_capture: &JobSpec,
    local: JobId,
    events: &EventReceiver,
    mut shipped_apps: usize,
    hb: &Heartbeater,
    stop: &dyn Fn() -> bool,
) -> Result<(), String> {
    loop {
        if hb.fenced() {
            abort_local(svc, local);
            return Ok(());
        }
        match svc.wait_timeout(local, Some(cadence.heartbeat)) {
            WaitResult::TimedOut(_) => {
                forward_events(conn, lease, events)?;
                if stop() {
                    // Drain: the running slice checkpoints and halts;
                    // hand the lease back with that progress.
                    svc.drain(None);
                    let progress = svc
                        .checkpoint_of(local)
                        .map(|cur| ("checkpoint", cur.to_json()));
                    roundtrip(conn, &lease.msg("release", progress))?;
                    return Ok(());
                }
                // Ship progress when there is any — a landed checkpoint
                // extends the lease like a heartbeat would; otherwise
                // heartbeat explicitly.
                let msg = match svc.checkpoint_of(local) {
                    Some(cur) if cur.stats.applications > shipped_apps => {
                        shipped_apps = cur.stats.applications;
                        lease.msg("checkpoint", [("checkpoint", cur.to_json())])
                    }
                    _ => lease.msg("heartbeat", []),
                };
                if is_fenced(&roundtrip(conn, &msg)?) {
                    abort_local(svc, local);
                    return Ok(());
                }
            }
            WaitResult::Terminal(status) => {
                forward_events(conn, lease, events)?;
                let done = match status {
                    JobStatus::Finished => done_report(lease, svc, spec_for_capture, local),
                    other => {
                        Some(lease.failed(&format!("local job ended {other:?} without a result")))
                    }
                };
                let done = done.unwrap_or_else(|| lease.failed("finished job has no result"));
                // A fenced done means the lease was rescheduled while we
                // finished: the other replay's report wins, ours is
                // discarded — exactly the no-double-count guarantee.
                roundtrip(conn, &done)?;
                return Ok(());
            }
            WaitResult::Unknown => return Err(format!("local job {local} disappeared")),
        }
    }
}

/// Forwards buffered local job events upstream (observability only).
fn forward_events(
    conn: &mut TcpStream,
    lease: &Lease,
    events: &EventReceiver,
) -> Result<(), String> {
    while let Some(ev) = events.try_recv() {
        roundtrip(conn, &lease.msg("event", [("event", event_to_json(&ev))]))?;
    }
    Ok(())
}

/// Cancels the local run after a fence — whatever it would still
/// derive no longer counts for anyone.
fn abort_local(svc: &Service, local: JobId) {
    svc.cancel(local);
    svc.wait_timeout(local, Some(Duration::from_secs(5)));
}

/// Builds the `done` report from the finished local job: outcome,
/// accumulated stats, named-query verdicts, and the final checkpoint —
/// for a terminated run captured from the final instance (the
/// coordinator serves `complete` queries from it), for a budget stop
/// the runner's own resume checkpoint.
fn done_report(lease: &Lease, svc: &Service, spec: &JobSpec, local: JobId) -> Option<Json> {
    svc.with_result(local, |r| {
        let terminated = r.outcome == ChaseOutcome::Terminated;
        let final_ck = r.checkpoint.clone().unwrap_or_else(|| {
            Checkpoint::capture(spec, &r.final_vocab, &r.final_instance, r.stats)
        });
        let queries = r
            .queries
            .iter()
            .map(|(name, verdict)| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("verdict", Json::str(verdict_name(*verdict))),
                ])
            })
            .collect();
        if lease.cfg.announce {
            println!(
                "{}",
                Json::obj([
                    ("op", Json::str("worker-done")),
                    ("worker", Json::str(&lease.cfg.name)),
                    ("job", Json::Int(lease.job as i64)),
                    ("outcome", Json::str(outcome_name(r.outcome))),
                    ("applications", Json::Int(r.stats.applications as i64)),
                ])
            );
        }
        lease.msg(
            "done",
            [
                ("status", Json::str("ok")),
                ("outcome", Json::str(outcome_name(r.outcome))),
                ("terminated", Json::Bool(terminated)),
                ("stats", stats_to_json(&r.stats)),
                ("queries", Json::Arr(queries)),
                ("checkpoint", final_ck.to_json()),
            ],
        )
    })
}
