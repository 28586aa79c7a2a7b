//! The coordinator: job table, lease grants, heartbeat monitoring and
//! reschedule-from-checkpoint.
//!
//! The coordinator never runs a chase itself. It owns three things:
//!
//! 1. the **job table** — every job is a durable
//!    [`Checkpoint`] (fresh submits are checkpointed at their base
//!    facts), so granting, rescheduling and resuming are all "hand the
//!    worker a checkpoint";
//! 2. the **lease clock** — a grant is good for
//!    [`ClusterConfig::lease`]; each heartbeat or shipped checkpoint
//!    extends it; a reaper thread requeues jobs whose lease expired
//!    (worker lost, wedged, or `SIGKILL`ed) from the last durable
//!    checkpoint;
//! 3. the **lease epoch** — bumped on every grant. A message from a
//!    worker whose `(worker, epoch)` no longer matches the live lease
//!    is *fenced*: replied to with `{"op":"fenced"}` and otherwise
//!    ignored, so a zombie worker that wakes up after its lease was
//!    rescheduled cannot corrupt the re-run or double-count budget.
//!
//! Budget exactness across reschedules follows the checkpoint
//! invariants: checkpoints store derivation-total budgets and
//! [`Checkpoint::into_spec`] re-derives the remainder, so a job
//! `SIGKILL`ed mid-lease and replayed from its checkpoint performs the
//! same total number of applications as an uninterrupted run.
//!
//! Client ops (`submit`, `query`, `status`, `wait`, …) ride the same
//! framed socket and are answered by the service's shared request
//! handler ([`handle`]), with the job table as its [`Backend`]: the same
//! spec construction, admission gate ([`apply_admission_gate`]) and
//! structured rejections as the single-process service. Queries are
//! served from the freshest checkpoint snapshot of whichever worker
//! holds (or held) the lease, through the same [`SnapshotCache`]
//! (newest snapshot, terminal latch) and query path ([`answer_snapshot`])
//! as `treechase serve`. A shipped checkpoint is published in the same
//! state-lock section that confirms its lease.

use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use chase_core::KnowledgeBase;
use chase_engine::ChaseConfig;
use chase_query::{Snapshot, SnapshotCache};
use treechase_service::handler::{error, job_field};
use treechase_service::protocol::status_name;
use treechase_service::{
    answer_adhoc, answer_snapshot, apply_admission_gate, handle, parse_request, query_budget,
    Admission, Backend, Checkpoint, CheckpointStore, Fields, JobId, JobSpec, JobStatus, Json,
    QueryError, QueryReply, Refusal, RejectReason, Rejection, ServiceConfig,
};

use crate::wire::{read_frame, write_frame, FrameRead};

/// Tuning knobs for a [`Coordinator`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// How long a granted lease is good for without a heartbeat.
    pub lease: Duration,
    /// Heartbeat cadence workers are told to keep (sent in `welcome`;
    /// should be a small fraction of `lease`).
    pub heartbeat: Duration,
    /// Checkpoint-shipping interval, in rule applications, workers are
    /// told to use (sent in `welcome`).
    pub checkpoint_every: usize,
    /// Backoff an idle worker is told before its next `pull`.
    pub idle_retry: Duration,
    /// Service-level knobs reused verbatim by the coordinator: admission
    /// (queue cap, strict admission, analyzer budgets) and the operation
    /// deadline.
    pub service: ServiceConfig,
    /// Print one JSONL line per cluster event (queued / lease /
    /// requeue / checkpoint / done) to stdout.
    pub announce: bool,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            lease: Duration::from_secs(3),
            heartbeat: Duration::from_millis(750),
            checkpoint_every: 16,
            idle_retry: Duration::from_millis(200),
            service: ServiceConfig::default(),
            announce: true,
        }
    }
}

/// Where a cluster job sits in its lifecycle.
#[derive(Clone, Debug)]
enum JobState {
    /// Waiting for a worker to pull it.
    Queued,
    /// Granted to `worker` under fencing token `epoch` until
    /// `deadline` (extended by heartbeats and checkpoints).
    Leased {
        worker: String,
        epoch: u64,
        deadline: Instant,
    },
    /// The worker reported an outcome. `terminated` distinguishes a
    /// universal-model fixpoint from a resumable budget stop.
    Done { outcome: String, terminated: bool },
    /// The job cannot make progress (bad program, worker-side error).
    Failed { message: String },
    /// Cancelled by a client before completion.
    Cancelled,
}

impl JobState {
    fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Leased { .. } => "leased",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done { .. } | JobState::Failed { .. } | JobState::Cancelled
        )
    }
}

/// One entry in the coordinator's job table.
struct ClusterJob {
    /// The freshest durable checkpoint — the unit of dispatch: granted
    /// on lease, replayed on reschedule. Its name is the job's name.
    checkpoint: Checkpoint,
    state: JobState,
    /// Last granted fencing token (bumped on every grant).
    epoch: u64,
    /// How many times the lease expired and the job was requeued.
    reschedules: u64,
    /// Named-query verdicts from the `done` report, as wire labels.
    queries: Vec<(String, String)>,
}

impl ClusterJob {
    /// A job entered from `checkpoint` that was never granted.
    fn new(checkpoint: Checkpoint, state: JobState) -> ClusterJob {
        ClusterJob {
            checkpoint,
            state,
            epoch: 0,
            reschedules: 0,
            queries: Vec::new(),
        }
    }

    /// Pushes a live lease's deadline one lease length into the future.
    fn extend_lease(&mut self, lease: Duration) {
        if let JobState::Leased { deadline, .. } = &mut self.state {
            *deadline = Instant::now() + lease;
        }
    }
}

/// The lease a worker message claims: which worker, on which job,
/// under which fencing token.
struct LeaseKey {
    worker: String,
    job: JobId,
    epoch: u64,
}

impl LeaseKey {
    fn parse(msg: &Json) -> Result<LeaseKey, String> {
        Ok(LeaseKey {
            worker: msg.require_str("worker")?.to_string(),
            job: msg.require_u64("job")?,
            epoch: msg.require_u64("epoch")?,
        })
    }

    /// True iff this key still holds the live lease on `job` — the
    /// fencing check every worker-originated message must pass.
    fn holds(&self, job: &ClusterJob) -> bool {
        matches!(
            &job.state,
            JobState::Leased { worker, epoch, .. } if *worker == self.worker && *epoch == self.epoch
        )
    }
}

struct CoordState {
    jobs: BTreeMap<JobId, ClusterJob>,
    next_id: JobId,
    /// Last time each registered worker was heard from (hello, pull,
    /// heartbeat, checkpoint).
    workers: HashMap<String, Instant>,
    draining: bool,
}

impl CoordState {
    /// Sheds every admitting op (`submit`, `resume`, `query`) once the
    /// coordinator drains.
    fn admitting(&self) -> Result<(), Rejection> {
        if self.draining {
            return Err(Rejection {
                reason: RejectReason::Draining,
                message: "coordinator is draining".to_string(),
                retry_after: None,
            });
        }
        Ok(())
    }

    /// The job `key` still holds the live lease on, if any.
    fn leased(&mut self, key: &LeaseKey) -> Option<&mut ClusterJob> {
        self.jobs.get_mut(&key.job).filter(|job| key.holds(job))
    }

    /// How many jobs are queued and how many are leased.
    fn queued_and_leased(&self) -> (usize, usize) {
        self.jobs
            .values()
            .fold((0, 0), |(queued, leased), j| match j.state {
                JobState::Queued => (queued + 1, leased),
                JobState::Leased { .. } => (queued, leased + 1),
                _ => (queued, leased),
            })
    }
}

struct Inner {
    state: Mutex<CoordState>,
    store: CheckpointStore,
    snapshots: SnapshotCache,
    cfg: ClusterConfig,
    shutdown: AtomicBool,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, CoordState> {
        self.state.lock().expect("coordinator state poisoned")
    }

    fn announce(&self, line: &Json) {
        if self.cfg.announce {
            println!("{line}");
        }
    }

    /// Announces `{"op":<op>,"job":…,"worker":…}` followed by `extra`.
    fn announce_lease(
        &self,
        op: &str,
        key: &LeaseKey,
        extra: impl IntoIterator<Item = (&'static str, Json)>,
    ) {
        let mut fields = vec![
            ("op".to_string(), Json::str(op)),
            ("job".to_string(), Json::Int(key.job as i64)),
            ("worker".to_string(), Json::str(&key.worker)),
        ];
        fields.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
        self.announce(&Json::Obj(fields));
    }

    /// Publishes the query snapshot of a checkpoint's spec. The
    /// terminal latch in the cache makes this safe against stragglers:
    /// a live publish racing in after the terminal one is dropped.
    fn publish_snapshot(&self, job: JobId, spec: JobSpec, terminal: bool) {
        self.snapshots.publish(job, snapshot_of(spec, terminal));
    }

    /// Inserts a new job: make its base checkpoint `ck` durable,
    /// publish `base` (the job `ck` was captured from) as its base
    /// snapshot, enqueue. Fresh submits and resumes both funnel through
    /// here, which is what makes dispatch/reschedule/resume one code
    /// path. An unnamed job is named `job-<id>` under the same lock that
    /// mints its id, so concurrent submits can never share a default
    /// name.
    fn enqueue(&self, mut ck: Checkpoint, base: JobSpec) -> Result<JobId, String> {
        let mut st = self.lock();
        let id = st.next_id;
        st.next_id += 1;
        if ck.name.is_empty() {
            ck.name = format!("job-{id}");
        }
        self.store.save(id, &ck, None)?;
        let name = Json::str(&ck.name);
        self.publish_snapshot(id, base, false);
        st.jobs.insert(id, ClusterJob::new(ck, JobState::Queued));
        drop(st);
        self.announce(&Json::obj([
            ("op", Json::str("queued")),
            ("job", Json::Int(id as i64)),
            ("name", name),
        ]));
        Ok(id)
    }
}

/// A coordinator bound to a listening socket. [`Coordinator::run`]
/// serves until [`Coordinator::shutdown`] (or a `shutdown` wire op).
pub struct Coordinator {
    inner: Arc<Inner>,
    listener: TcpListener,
}

impl Coordinator {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and recovers the job table
    /// from the durable checkpoints in `state_dir`: every readable
    /// checkpoint becomes a queued job (rescheduling across coordinator
    /// restarts is the same mechanism as rescheduling across worker
    /// losses), and unreadable entries are reported as failed jobs
    /// rather than silently dropped.
    pub fn bind(addr: &str, state_dir: &Path, cfg: ClusterConfig) -> Result<Coordinator, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let store = CheckpointStore::open(state_dir)?;
        let (good, bad) = store.load_all()?;
        let inner = Arc::new(Inner {
            state: Mutex::new(CoordState {
                jobs: BTreeMap::new(),
                next_id: 1,
                workers: HashMap::new(),
                draining: false,
            }),
            store,
            snapshots: SnapshotCache::default(),
            cfg,
            shutdown: AtomicBool::new(false),
        });
        {
            let mut st = inner.lock();
            for (id, decoded) in good {
                let (ck, spec) = decoded.into_parts();
                inner.publish_snapshot(id, spec, false);
                st.next_id = st.next_id.max(id + 1);
                st.jobs.insert(id, ClusterJob::new(ck, JobState::Queued));
            }
            drop(st);
            for err in bad {
                inner.announce(&Json::obj([
                    ("op", Json::str("recovery-error")),
                    ("path", Json::Str(err.path.display().to_string())),
                    ("message", Json::str(&err.error)),
                ]));
            }
        }
        Ok(Coordinator { inner, listener })
    }

    /// The address actually bound (port resolved when binding `:0`).
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))
    }

    /// The job table as a request [`Backend`]: what the TCP transport
    /// hands client ops to, for in-process callers.
    pub fn backend(&self) -> &dyn Backend {
        &*self.inner
    }

    /// A handle that makes [`Coordinator::run`] return; safe to call
    /// from any thread (the CLI's SIGTERM watcher uses it).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Serves connections until shut down. Spawns one thread per
    /// connection plus a lease reaper; returns once the shutdown flag
    /// is set (connection threads wind down within their read timeout).
    pub fn run(self) -> Result<(), String> {
        let addr = self.local_addr()?;
        self.inner.announce(&Json::obj([
            ("op", Json::str("listening")),
            ("addr", Json::Str(addr.to_string())),
        ]));
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking listener: {e}"))?;
        let reaper = {
            let inner = Arc::clone(&self.inner);
            thread::spawn(move || reap_leases(&inner))
        };
        while !self.inner.shutdown.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let inner = Arc::clone(&self.inner);
                    thread::spawn(move || handle_conn(&inner, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(format!("accept: {e}")),
            }
        }
        reaper.join().ok();
        Ok(())
    }
}

impl Inner {
    /// Requests shutdown; [`Coordinator::run`] returns shortly after.
    fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }
}

/// A cloneable cross-thread handle that can stop a running
/// [`Coordinator`] (the CLI's SIGTERM watcher holds one).
#[derive(Clone)]
pub struct ShutdownHandle {
    inner: Arc<Inner>,
}

impl ShutdownHandle {
    /// Requests shutdown; [`Coordinator::run`] returns shortly after.
    pub fn shutdown(&self) {
        self.inner.shutdown();
    }
}

/// The lease reaper: requeues jobs whose lease deadline passed without
/// a heartbeat. The job restarts from its last durable checkpoint; the
/// epoch of the dead lease is left behind, so anything the lost worker
/// still sends is fenced.
fn reap_leases(inner: &Inner) {
    while !inner.shutdown.load(Ordering::Acquire) {
        thread::sleep(Duration::from_millis(50));
        let now = Instant::now();
        let mut requeued = Vec::new();
        {
            let mut st = inner.lock();
            for (&id, job) in &mut st.jobs {
                if let JobState::Leased {
                    worker, deadline, ..
                } = &job.state
                {
                    if *deadline < now {
                        let from = worker.clone();
                        job.state = JobState::Queued;
                        job.reschedules += 1;
                        requeued.push((id, from, job.checkpoint.stats.applications));
                    }
                }
            }
        }
        for (id, from, apps) in requeued {
            inner.announce(&Json::obj([
                ("op", Json::str("requeue")),
                ("job", Json::Int(id as i64)),
                ("from_worker", Json::str(&from)),
                ("applications", Json::Int(apps as i64)),
            ]));
        }
    }
}

/// Serves one connection: a strict frame-in/frame-out loop. Both
/// worker ops and client ops arrive here — the `op` field routes.
fn handle_conn(inner: &Inner, mut stream: TcpStream) {
    if stream
        .set_read_timeout(Some(Duration::from_millis(250)))
        .is_err()
    {
        return;
    }
    loop {
        match read_frame(&mut stream) {
            Ok(FrameRead::Frame(msg)) => {
                let reply = dispatch(inner, &msg);
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
            }
            Ok(FrameRead::Timeout) => {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            Ok(FrameRead::Eof) | Err(_) => return,
        }
    }
}

fn ack() -> Json {
    Json::obj([("op", Json::str("ack"))])
}

fn fenced(job: JobId) -> Json {
    Json::obj([("op", Json::str("fenced")), ("job", Json::Int(job as i64))])
}

/// The query snapshot of a checkpoint's spec, as of its applications.
fn snapshot_of(spec: JobSpec, terminal: bool) -> Snapshot {
    let apps = spec.base_stats.applications as u64;
    let (vocab, facts) = (spec.kb.vocab, spec.kb.facts);
    if terminal {
        Snapshot::terminal(vocab, facts, apps)
    } else {
        Snapshot::live(vocab, facts, apps)
    }
}

/// Routes one frame. Worker ops are handled directly; anything else is
/// a client request in the service wire vocabulary, answered by the
/// shared [`handle`].
fn dispatch(inner: &Inner, msg: &Json) -> Json {
    let op = msg.get("op").and_then(Json::as_str).unwrap_or("");
    let out = match op {
        "hello" => worker_hello(inner, msg),
        "pull" => worker_pull(inner, msg),
        "heartbeat" => worker_heartbeat(inner, msg),
        // `checkpoint` is also a client op (fetch a job's checkpoint);
        // the worker variant always carries its sender's name.
        "checkpoint" if msg.get("worker").is_some() => worker_checkpoint(inner, msg),
        "done" => worker_done(inner, msg),
        "release" => worker_release(inner, msg),
        "event" => worker_event(inner, msg),
        "bye" => worker_bye(inner, msg),
        _ => parse_request(msg).map(|req| handle(inner, req)),
    };
    out.unwrap_or_else(|e| error(&e))
}

fn worker_hello(inner: &Inner, msg: &Json) -> Result<Json, String> {
    let name = msg.require_str("worker")?.to_string();
    let mut st = inner.lock();
    st.workers.insert(name.clone(), Instant::now());
    drop(st);
    inner.announce(&Json::obj([
        ("op", Json::str("worker-joined")),
        ("worker", Json::str(&name)),
    ]));
    Ok(Json::obj([
        ("op", Json::str("welcome")),
        ("lease_ms", Json::Int(inner.cfg.lease.as_millis() as i64)),
        (
            "heartbeat_ms",
            Json::Int(inner.cfg.heartbeat.as_millis() as i64),
        ),
        (
            "checkpoint_every",
            Json::Int(inner.cfg.checkpoint_every as i64),
        ),
    ]))
}

/// Grants the lowest-id queued job, bumping its epoch — the previous
/// holder (if any) is fenced from this moment on.
fn worker_pull(inner: &Inner, msg: &Json) -> Result<Json, String> {
    let name = msg.require_str("worker")?.to_string();
    let mut st = inner.lock();
    st.workers.insert(name.clone(), Instant::now());
    let idle = Json::obj([
        ("op", Json::str("idle")),
        (
            "retry_ms",
            Json::Int(inner.cfg.idle_retry.as_millis() as i64),
        ),
    ]);
    if st.draining {
        return Ok(idle);
    }
    let Some((&id, job)) = st
        .jobs
        .iter_mut()
        .find(|(_, j)| matches!(j.state, JobState::Queued))
    else {
        return Ok(idle);
    };
    job.epoch += 1;
    let epoch = job.epoch;
    job.state = JobState::Leased {
        worker: name.clone(),
        epoch,
        deadline: Instant::now() + inner.cfg.lease,
    };
    let reply = Json::obj([
        ("op", Json::str("lease")),
        ("job", Json::Int(id as i64)),
        ("name", Json::str(&job.checkpoint.name)),
        ("epoch", Json::Int(epoch as i64)),
        ("lease_ms", Json::Int(inner.cfg.lease.as_millis() as i64)),
        ("checkpoint", job.checkpoint.to_json()),
    ]);
    let line = Json::obj([
        ("op", Json::str("lease")),
        ("job", Json::Int(id as i64)),
        ("worker", Json::str(&name)),
        ("epoch", Json::Int(epoch as i64)),
        (
            "applications",
            Json::Int(job.checkpoint.stats.applications as i64),
        ),
    ]);
    drop(st);
    inner.announce(&line);
    Ok(reply)
}

fn worker_heartbeat(inner: &Inner, msg: &Json) -> Result<Json, String> {
    let key = LeaseKey::parse(msg)?;
    Ok(if touch_lease(inner, &key) {
        ack()
    } else {
        fenced(key.job)
    })
}

/// Fence-checks and extends a live lease in one short critical
/// section. Called as soon as an authenticated worker frame arrives:
/// the frame itself proves the holder is alive, and the extension must
/// land *before* any expensive payload processing (checkpoint parse,
/// durable save, snapshot publish). Otherwise a big upload
/// eats the lease from the inside — the holder is mid-roundtrip,
/// unable to heartbeat, while the reaper requeues its job — which
/// showed up as requeue/fenced churn on large instances.
fn touch_lease(inner: &Inner, key: &LeaseKey) -> bool {
    let mut st = inner.lock();
    st.workers.insert(key.worker.clone(), Instant::now());
    let Some(job) = st.leased(key) else {
        return false;
    };
    job.extend_lease(inner.cfg.lease);
    true
}

/// A shipped checkpoint: fence-check, make durable, republish the
/// query snapshot, extend the lease (progress is the best heartbeat).
fn worker_checkpoint(inner: &Inner, msg: &Json) -> Result<Json, String> {
    let key = LeaseKey::parse(msg)?;
    // Extend before touching the payload: parse + save + snapshot
    // materialization scale with the instance and can cost a real
    // fraction of the lease.
    if !touch_lease(inner, &key) {
        return Ok(fenced(key.job));
    }
    let (ck, spec) = Checkpoint::from_json(msg.require("checkpoint")?)?.into_parts();
    // The durable save runs outside the state lock so pulls and status
    // reads never queue behind a big upload.
    inner.store.save(key.job, &ck, None)?;
    let apps = ck.stats.applications;
    {
        let mut st = inner.lock();
        // Requeued or cancelled while we persisted: the save is a
        // harmless durable prefix; the holder must still stop.
        let Some(job) = st.leased(&key) else {
            return Ok(fenced(key.job));
        };
        job.checkpoint = ck;
        job.extend_lease(inner.cfg.lease);
        inner.publish_snapshot(key.job, spec, false);
    }
    inner.announce_lease(
        "checkpointed",
        &key,
        [("applications", Json::Int(apps as i64))],
    );
    Ok(ack())
}

/// The worker's terminal report. For a terminated chase the final
/// checkpoint becomes a terminal query snapshot and the durable entry
/// is removed; for a resumable budget stop the final checkpoint stays
/// durable so a client can `checkpoint`/`resume` it later.
fn worker_done(inner: &Inner, msg: &Json) -> Result<Json, String> {
    let key = LeaseKey::parse(msg)?;
    let id = key.job;
    let status = msg.require_str("status")?;
    // Extend immediately — the final checkpoint is the largest payload
    // a worker ever ships, and a reaper requeue while it is being
    // parsed would re-run a job that already finished. The remaining
    // processing holds the state lock, which the reaper also needs, so
    // after this touch the done report races nothing.
    if !touch_lease(inner, &key) {
        return Ok(fenced(id));
    }
    let mut st = inner.lock();
    let Some(job) = st.leased(&key) else {
        return Ok(fenced(id));
    };
    if status != "ok" {
        let message = msg
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("worker reported failure")
            .to_string();
        job.state = JobState::Failed {
            message: message.clone(),
        };
        drop(st);
        inner.announce_lease("job-failed", &key, [("message", Json::str(&message))]);
        return Ok(ack());
    }
    let outcome = msg.require_str("outcome")?.to_string();
    let terminated = msg
        .get("terminated")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let spec = match msg.get("checkpoint") {
        Some(v) => {
            let (ck, spec) = Checkpoint::from_json(v)?.into_parts();
            job.checkpoint = ck;
            spec
        }
        None => job.checkpoint.into_spec()?,
    };
    job.queries = msg
        .get("queries")
        .and_then(Json::as_arr)
        .map(|rows| {
            rows.iter()
                .filter_map(|row| {
                    Some((
                        row.get("name")?.as_str()?.to_string(),
                        row.get("verdict")?.as_str()?.to_string(),
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    let ck = job.checkpoint.clone();
    job.state = JobState::Done {
        outcome: outcome.clone(),
        terminated,
    };
    inner.publish_snapshot(id, spec, terminated);
    if terminated {
        inner.store.remove(id)?;
    } else {
        inner.store.save(id, &ck, None)?;
    }
    drop(st);
    inner.announce_lease(
        "job-done",
        &key,
        [
            ("outcome", Json::str(&outcome)),
            ("terminated", Json::Bool(terminated)),
            ("applications", Json::Int(ck.stats.applications as i64)),
        ],
    );
    Ok(ack())
}

/// A draining worker hands its lease back early, with its freshest
/// checkpoint, so the job requeues immediately instead of waiting for
/// the lease clock.
fn worker_release(inner: &Inner, msg: &Json) -> Result<Json, String> {
    let key = LeaseKey::parse(msg)?;
    // Same pre-parse extension as `checkpoint`/`done`: the release may
    // carry a large final checkpoint.
    if !touch_lease(inner, &key) {
        return Ok(fenced(key.job));
    }
    let mut st = inner.lock();
    let Some(job) = st.leased(&key) else {
        return Ok(fenced(key.job));
    };
    if let Some(v) = msg.get("checkpoint") {
        let (ck, spec) = Checkpoint::from_json(v)?.into_parts();
        inner.store.save(key.job, &ck, None)?;
        inner.publish_snapshot(key.job, spec, false);
        job.checkpoint = ck;
    }
    job.state = JobState::Queued;
    let apps = job.checkpoint.stats.applications;
    drop(st);
    inner.announce_lease("released", &key, [("applications", Json::Int(apps as i64))]);
    Ok(ack())
}

/// A relayed job event — announced for observability, nothing else.
fn worker_event(inner: &Inner, msg: &Json) -> Result<Json, String> {
    // A streamed event is also proof of life: extend the lease so a
    // long burst of event forwarding can never starve the heartbeat.
    if let Ok(key) = LeaseKey::parse(msg) {
        touch_lease(inner, &key);
    }
    inner.announce(msg);
    Ok(ack())
}

fn worker_bye(inner: &Inner, msg: &Json) -> Result<Json, String> {
    let name = msg.require_str("worker")?.to_string();
    let mut st = inner.lock();
    st.workers.remove(&name);
    drop(st);
    inner.announce(&Json::obj([
        ("op", Json::str("worker-left")),
        ("worker", Json::str(&name)),
    ]));
    Ok(Json::obj([("op", Json::str("goodbye"))]))
}

/// The wire `status` label for a cluster job state, reusing the
/// service spelling where the lifecycles coincide.
fn wire_status(state: &JobState) -> &'static str {
    match state {
        JobState::Queued => status_name(&JobStatus::Queued),
        JobState::Leased { .. } => status_name(&JobStatus::Running),
        JobState::Done { .. } => status_name(&JobStatus::Finished),
        JobState::Failed { .. } => status_name(&JobStatus::Failed),
        JobState::Cancelled => status_name(&JobStatus::Cancelled),
    }
}

/// The coordinator's query errors keep their own spelling on the wire.
fn query_failure(e: QueryError) -> Refusal {
    Refusal::Failed(match e {
        QueryError::NoSnapshot(id) => format!("no snapshot for job {id} yet"),
        QueryError::Parse(e) => e.to_string(),
        other => other.to_string(),
    })
}

/// Client ops served against the cluster job table.
impl Backend for Inner {
    /// Same admission gate and structured rejections as `treechase
    /// serve`, then enqueue-as-checkpoint instead of enqueue-in-process.
    fn admit(&self, mut spec: JobSpec) -> Result<(JobId, Admission), Refusal> {
        {
            let st = self.lock();
            st.admitting()?;
            if let Some(cap) = self.cfg.service.max_queue {
                let (queued, _) = st.queued_and_leased();
                if queued >= cap {
                    return Err(Refusal::Rejected(Rejection {
                        reason: RejectReason::QueueFull,
                        message: format!("queue at capacity ({queued}/{cap})"),
                        retry_after: Some(self.cfg.lease),
                    }));
                }
            }
        }
        // The gate runs the static analyzer + bounded probe; never under
        // the state lock.
        let admission = apply_admission_gate(&mut spec, &self.cfg.service)?;
        let ck = Checkpoint::capture(&spec, &spec.kb.vocab, &spec.kb.facts, spec.base_stats);
        Ok((self.enqueue(ck, spec)?, admission))
    }

    /// A resumed job's spec was parsed from the very text `start` stores
    /// and leases, so it is the base snapshot as it is.
    fn resume(&self, start: Checkpoint, spec: JobSpec) -> Result<JobId, Refusal> {
        self.lock().admitting()?;
        Ok(self.enqueue(start, spec)?)
    }

    /// A queued job is dropped outright; a leased job flips to
    /// `Cancelled`, which fails the fencing check — the holder learns at
    /// its next heartbeat and aborts locally. Terminal jobs are left as
    /// they finished.
    fn cancel_job(&self, job: JobId) -> Result<bool, String> {
        let mut st = self.lock();
        let jb = st
            .jobs
            .get_mut(&job)
            .ok_or_else(|| format!("unknown job {job}"))?;
        if !matches!(jb.state, JobState::Queued | JobState::Leased { .. }) {
            return Ok(false);
        }
        jb.state = JobState::Cancelled;
        self.store.remove(job)?;
        self.snapshots.evict(job);
        Ok(true)
    }

    fn checkpoint(&self, job: JobId) -> Result<Checkpoint, String> {
        self.lock()
            .jobs
            .get(&job)
            .map(|jb| jb.checkpoint.clone())
            .ok_or_else(|| format!("unknown job {job}"))
    }

    fn answer_job(
        &self,
        job: JobId,
        query: &str,
        node_limit: Option<usize>,
        timeout: Option<Duration>,
    ) -> Result<QueryReply, Refusal> {
        self.lock().admitting()?;
        let budget = query_budget(node_limit, timeout.or(self.cfg.service.op_deadline));
        if !self.lock().jobs.contains_key(&job) {
            return Err(Refusal::Failed(format!("unknown job {job}")));
        }
        answer_snapshot(&self.snapshots, job, query, &budget).map_err(query_failure)
    }

    fn answer_kb(
        &self,
        kb: &KnowledgeBase,
        cfg: &ChaseConfig,
        query: &str,
        node_limit: Option<usize>,
        timeout: Option<Duration>,
    ) -> Result<QueryReply, Refusal> {
        self.lock().admitting()?;
        let budget = query_budget(node_limit, timeout.or(self.cfg.service.op_deadline));
        answer_adhoc(&self.snapshots, kb, cfg, query, &budget).map_err(query_failure)
    }

    fn status_reply(&self, job: JobId) -> Result<Fields, String> {
        let st = self.lock();
        let jb = st
            .jobs
            .get(&job)
            .ok_or_else(|| format!("unknown job {job}"))?;
        let mut fields = vec![
            job_field(job),
            ("status".to_string(), Json::str(wire_status(&jb.state))),
            ("state".to_string(), Json::str(jb.state.label())),
            ("epoch".to_string(), Json::Int(jb.epoch as i64)),
            ("reschedules".to_string(), Json::Int(jb.reschedules as i64)),
            (
                "applications".to_string(),
                Json::Int(jb.checkpoint.stats.applications as i64),
            ),
        ];
        match &jb.state {
            JobState::Leased { worker, .. } => {
                fields.push(("worker".to_string(), Json::str(worker)));
            }
            JobState::Done {
                outcome,
                terminated,
            } => {
                fields.push(("outcome".to_string(), Json::str(outcome)));
                fields.push(("terminated".to_string(), Json::Bool(*terminated)));
            }
            JobState::Failed { message } => {
                fields.push(("message".to_string(), Json::str(message)));
            }
            JobState::Queued | JobState::Cancelled => {}
        }
        if !jb.queries.is_empty() {
            fields.push((
                "queries".to_string(),
                Json::Arr(
                    jb.queries
                        .iter()
                        .map(|(name, verdict)| {
                            Json::obj([("name", Json::str(name)), ("verdict", Json::str(verdict))])
                        })
                        .collect(),
                ),
            ));
        }
        Ok(fields)
    }

    /// The `status` fields plus `timed_out`, once the job is terminal,
    /// the deadline passes or the coordinator shuts down.
    fn wait_reply(&self, job: JobId, timeout: Option<Duration>) -> Result<Fields, String> {
        let deadline = timeout
            .or(self.cfg.service.op_deadline)
            .map(|t| Instant::now() + t);
        loop {
            let terminal = {
                let st = self.lock();
                let jb = st
                    .jobs
                    .get(&job)
                    .ok_or_else(|| format!("unknown job {job}"))?;
                jb.state.is_terminal()
            };
            let timed_out = !terminal
                && (deadline.is_some_and(|d| Instant::now() >= d)
                    || self.shutdown.load(Ordering::Acquire));
            if terminal || timed_out {
                let mut fields = self.status_reply(job)?;
                fields.push(("timed_out".to_string(), Json::Bool(timed_out)));
                return Ok(fields);
            }
            thread::sleep(Duration::from_millis(25));
        }
    }

    fn list_reply(&self) -> Fields {
        let st = self.lock();
        let now = Instant::now();
        let jobs = st
            .jobs
            .iter()
            .map(|(&id, j)| {
                Json::obj([
                    ("job", Json::Int(id as i64)),
                    ("name", Json::str(&j.checkpoint.name)),
                    ("status", Json::str(wire_status(&j.state))),
                    ("state", Json::str(j.state.label())),
                    ("reschedules", Json::Int(j.reschedules as i64)),
                    (
                        "applications",
                        Json::Int(j.checkpoint.stats.applications as i64),
                    ),
                ])
            })
            .collect();
        let workers = st
            .workers
            .iter()
            .map(|(name, seen)| {
                Json::obj([
                    ("name", Json::str(name)),
                    (
                        "seen_ms_ago",
                        Json::Int(now.duration_since(*seen).as_millis() as i64),
                    ),
                ])
            })
            .collect();
        vec![
            ("jobs".to_string(), Json::Arr(jobs)),
            ("workers".to_string(), Json::Arr(workers)),
        ]
    }

    /// Stops granting leases; the durable checkpoints already are the
    /// drained state.
    fn drain_reply(&self) -> Fields {
        let mut st = self.lock();
        st.draining = true;
        let (queued, leased) = st.queued_and_leased();
        vec![
            ("queued".to_string(), Json::Int(queued as i64)),
            ("leased".to_string(), Json::Int(leased as i64)),
        ]
    }

    fn request_shutdown(&self) {
        self.shutdown();
    }
}
