//! The worker pool: a fixed set of threads draining a FIFO job queue,
//! with per-job cooperative cancellation, a bounded event buffer,
//! periodic durable checkpointing and crash supervision.
//!
//! Locking discipline: one mutex guards the whole job table and queue;
//! workers hold it only while picking up or publishing a job, never
//! while chasing — and never while emitting events or doing checkpoint
//! I/O. Cancellation flips the job's [`CancelToken`], which the engine
//! polls between trigger applications — so a cancel lands within one
//! application's latency without the pool being poisoned.
//!
//! Supervision: every slice runs under `catch_unwind`. A panic — real,
//! or injected through a [`chase_engine::FaultPlan`] — surfaces as a
//! [`JobEventKind::Crashed`] event, and the worker retries from the
//! job's last checkpoint (or from scratch if none was captured yet)
//! with exponential backoff, up to [`ServiceConfig::max_retries`]
//! times. After that the job degrades to [`JobStatus::Failed`] with the
//! last checkpoint still retrievable via [`Service::checkpoint_of`].
//! With a state directory configured, checkpoints also go to disk (see
//! [`CheckpointStore`]), and [`Service::with_config`] recovers them
//! into resumable queued jobs on the next start.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chase_core::{AnalysisGate, KnowledgeBase};
use chase_engine::{run_chase_controlled, CancelToken, ChaseConfig, ChaseEvent, ChaseOutcome};
use chase_homomorphism::{maps_to, SearchBudget};
use chase_query::{answer_kb, answer_view, CacheStats, QueryOutcome, Snapshot, SnapshotCache};
use chase_treewidth::treewidth_bounds;

use crate::checkpoint::Checkpoint;
use crate::job::{add_stats, JobId, JobResult, JobSpec, JobStatus, Priority, QueryVerdict};
use crate::store::{CheckpointStore, CorruptEntry};

/// A progress event, tagged with the job it belongs to.
#[derive(Clone, Debug)]
pub struct JobEvent {
    /// The job this event concerns.
    pub job: JobId,
    /// The job's display name.
    pub name: String,
    /// What happened.
    pub kind: JobEventKind,
}

/// The kinds of progress events a job emits over its lifetime.
#[derive(Clone, Debug)]
pub enum JobEventKind {
    /// The job was accepted into the queue.
    Queued,
    /// A worker picked the job up.
    Started,
    /// A rule application landed (emitted every `progress_every` steps).
    StepApplied {
        /// Applications so far in this slice.
        applications: usize,
        /// Current instance size in atoms.
        atoms: usize,
        /// Fairness rounds so far in this slice.
        rounds: usize,
    },
    /// A core simplification strictly shrank the instance.
    CoreRetracted {
        /// Atoms before the retraction.
        before: usize,
        /// Atoms after the retraction.
        after: usize,
        /// Matcher search nodes explored in this core phase.
        match_nodes: usize,
        /// Fold candidates probed in this core phase.
        fold_candidates: usize,
        /// The phase was cut by the wall/cancel budget — the instance is
        /// a sound retract but may not be the core.
        truncated: bool,
    },
    /// A periodic treewidth estimate of the current instance.
    TreewidthSample {
        /// Applications so far in this slice.
        applications: usize,
        /// Proven upper bound (width of a found decomposition).
        tw_upper: usize,
        /// Proven lower bound (degeneracy).
        tw_lower: usize,
    },
    /// The job reached a terminal state.
    Finished {
        /// Final status (`Finished` or `Cancelled`).
        status: JobStatus,
        /// The chase outcome.
        outcome: ChaseOutcome,
        /// Total applications across all resumed slices.
        applications: usize,
        /// Final instance size.
        atoms: usize,
        /// Whether a resume checkpoint is available.
        resumable: bool,
        /// Wall-clock milliseconds of this slice.
        wall_ms: u64,
    },
    /// A slice of the job panicked; the supervisor decides whether a
    /// retry from the last checkpoint follows.
    Crashed {
        /// The panic message.
        message: String,
        /// 1-based crash count for this job.
        attempt: usize,
        /// Whether the supervisor will retry (false on the final crash,
        /// after which the job degrades to `Failed`).
        retrying: bool,
    },
    /// The job crossed its soft memory ceiling and entered degraded
    /// mode: an immediate core retraction pass and a tightened matcher
    /// budget. Emitted at most once per slice.
    Degraded {
        /// Abstract memory units at the crossing.
        mem_units: usize,
        /// The configured soft ceiling.
        soft_limit: usize,
    },
    /// The job could not run at all, or crashed past its retry budget.
    Failed {
        /// Human-readable reason.
        message: String,
    },
    /// A non-fatal condition worth surfacing (e.g. an inexact resume of
    /// an oblivious checkpoint, or a failed durable checkpoint write).
    Warning {
        /// Human-readable description.
        message: String,
    },
}

/// Tuning knobs for [`Service::with_config`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Directory for durable per-job checkpoints; `None` disables
    /// persistence (in-memory checkpoints still feed crash retries).
    pub state_dir: Option<PathBuf>,
    /// How many times a crashed job is retried from its last checkpoint
    /// before degrading to `Failed`.
    pub max_retries: usize,
    /// Backoff before the first retry; doubles per subsequent attempt.
    pub retry_backoff: Duration,
    /// Event-buffer capacity; beyond it the oldest events are dropped
    /// (counted per job in [`JobSummary::events_dropped`]).
    pub event_capacity: usize,
    /// Default checkpoint interval, in applications, for jobs that do
    /// not set their own; `None` checkpoints only at slice boundaries.
    pub checkpoint_every: Option<usize>,
    /// Admission control: reject new submissions once this many jobs sit
    /// in the queue (`None` = unbounded, the historical behaviour).
    pub max_queue: Option<usize>,
    /// Admission control: reject a submission whose submitter tag
    /// already has this many live (queued or running) jobs. Untagged
    /// submissions are exempt.
    pub submitter_quota: Option<usize>,
    /// Default wall-clock deadline applied to jobs that set no
    /// `max_wall` of their own — no admitted job runs forever.
    pub job_deadline: Option<Duration>,
    /// Default timeout for blocking protocol operations (`wait`) that do
    /// not carry their own; `None` blocks indefinitely.
    pub op_deadline: Option<Duration>,
    /// How long [`Service::drain`] waits for running slices to
    /// checkpoint and stop before reporting them timed out.
    pub drain_grace: Duration,
    /// Strict admission: shed submissions (via
    /// [`Service::submit_analyzed`]) whose admission-time analysis
    /// refutes every decidability route instead of admitting a job that
    /// can only burn its budget.
    pub strict_admission: bool,
    /// Homomorphism-search node limit granted to the admission-time
    /// static analyzer (the MFA critical-instance test).
    pub analysis_node_limit: usize,
    /// Chase applications granted to the admission-time dynamic probe.
    pub analysis_probe: usize,
    /// Wall-clock ceiling for the whole admission-time analysis (static
    /// tests and dynamic probes alike). The submit path runs the
    /// analyzer synchronously, so without a deadline one pathological
    /// ruleset could stall every subsequent submission; an analysis cut
    /// short reports inconclusive verdicts and short (no-signal)
    /// profiles rather than a fabricated refutation. `None` disables
    /// the ceiling.
    pub analysis_deadline: Option<Duration>,
    /// Publish a materialization snapshot for the query cache every this
    /// many rule applications (plus one at slice start and one at slice
    /// end).
    pub snapshot_every: usize,
    /// Trailing snapshots kept per job; their intersection is the robust
    /// D^⊛ prefix that live-job queries evaluate against.
    pub snapshot_ring: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            state_dir: None,
            max_retries: 2,
            retry_backoff: Duration::from_millis(50),
            event_capacity: 4096,
            checkpoint_every: None,
            max_queue: None,
            submitter_quota: None,
            job_deadline: None,
            op_deadline: None,
            drain_grace: Duration::from_secs(5),
            strict_admission: false,
            analysis_node_limit: 2_000,
            analysis_probe: chase_core::DEFAULT_PROBE_APPLICATIONS,
            analysis_deadline: Some(Duration::from_secs(2)),
            snapshot_every: 64,
            snapshot_ring: 4,
        }
    }
}

/// Why an admission-controlled submission was shed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue is at capacity.
    QueueFull,
    /// The submitter already has its quota of live jobs.
    QuotaExceeded,
    /// The service is draining (or shut down) and admits nothing new.
    Draining,
    /// Strict admission: the analyzer refuted every decidability route
    /// for the submitted ruleset.
    AnalysisRefuted,
}

impl RejectReason {
    /// Wire spelling of the reason.
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::QuotaExceeded => "quota-exceeded",
            RejectReason::Draining => "draining",
            RejectReason::AnalysisRefuted => "analysis-refuted",
        }
    }
}

/// A structured load-shedding reply: the client learns why it was shed
/// and when a retry is worth attempting — never a panic, never a
/// silently dropped job.
#[derive(Clone, Debug)]
pub struct Rejection {
    /// Why the submission was shed.
    pub reason: RejectReason,
    /// Human-readable detail (includes the current counts).
    pub message: String,
    /// Suggested client backoff; `None` when retrying is pointless
    /// (draining).
    pub retry_after: Option<Duration>,
}

/// Application ceiling the cost model's `Open` envelope collapses to
/// when no decidability route certifies: divergence is plausible, so
/// cut early. Kept as a named constant because tests and operators
/// reason about the worst-case admission budget by this number.
pub const TIGHT_MAX_APPLICATIONS: usize = 1_000;
/// Soft memory ceiling (abstract units) of the `Open` envelope.
pub const TIGHT_MEM_SOFT: usize = 8_192;
/// Hard memory ceiling (abstract units) of the `Open` envelope.
pub const TIGHT_MEM_HARD: usize = 16_384;

/// What [`Service::submit_analyzed`] decided at admission time.
#[derive(Clone, Debug)]
pub struct Admission {
    /// The full analysis gate (report, plan, evidence, probe) — boxed,
    /// it dominates the struct's size. `None` when the gate was skipped
    /// because the submit pinned both its strategy and its budgets and
    /// strict admission is off: there is nothing for the analyzer to
    /// decide, and keeping fully-pinned submits probe-free keeps them
    /// cheap to shed under an overload burst.
    pub gate: Option<Box<AnalysisGate>>,
    /// The plan's variant + stratified schedule were written into the
    /// job's config (`auto_strategy`).
    pub strategy_applied: bool,
    /// The certificate-priced budget envelope lowered the job's
    /// application ceiling (`auto_budgets`).
    pub budgets_tightened: bool,
}

/// Runs the admission-time analyzer over `spec` and applies its
/// strategy/budget decisions in place — the queue-independent half of
/// admission, shared by [`Service::submit_analyzed`] and the cluster
/// coordinator's submit path (which has no local queue but must apply
/// the same gate and emit the same structured rejections).
///
/// A spec that pinned both its variant and a budget gives the analyzer
/// nothing to decide; unless `cfg.strict_admission` needs a verdict it
/// skips the gate entirely, keeping fully-pinned submits cheap to shed
/// under an overload burst.
pub fn apply_admission_gate(
    spec: &mut JobSpec,
    cfg: &ServiceConfig,
) -> Result<Admission, Rejection> {
    if !spec.auto_strategy && !spec.auto_budgets && !cfg.strict_admission {
        return Ok(Admission {
            gate: None,
            strategy_applied: false,
            budgets_tightened: false,
        });
    }
    let mut budget = SearchBudget::unlimited().with_node_limit(cfg.analysis_node_limit);
    if let Some(d) = cfg.analysis_deadline {
        budget = budget.with_deadline(Instant::now() + d);
    }
    let gate = chase_core::analyze_kb(&spec.kb, &budget, cfg.analysis_probe);
    if cfg.strict_admission && !gate.admissible() {
        return Err(Rejection {
            reason: RejectReason::AnalysisRefuted,
            message: format!(
                "strict admission: every decidability route is refuted-or-unknown \
                 (terminating {}; bts {}; core-bts {})",
                gate.report.terminating, gate.report.bts, gate.report.core_bts
            ),
            retry_after: None,
        });
    }
    let strategy_applied = spec.auto_strategy;
    if spec.auto_strategy {
        spec.config = gate.plan.apply(spec.config.clone());
    }
    // Certificate-priced budgets: the gate's cost model maps the best
    // certificate (or its absence) to a budget envelope, which replaces
    // the old flat "tighten to 1000 when refuted" rule. The envelope
    // only ever *lowers* the application ceiling and fills memory/wall
    // budgets the submit left open.
    let mut budgets_tightened = false;
    if spec.auto_budgets {
        let before = spec.config.max_applications;
        spec.config.max_applications = spec.config.max_applications.min(gate.envelope.max_apps);
        budgets_tightened = spec.config.max_applications < before;
        if spec.config.mem_soft.is_none() {
            spec.config.mem_soft = Some(gate.envelope.mem_soft);
        }
        if spec.config.mem_hard.is_none() {
            spec.config.mem_hard = Some(gate.envelope.mem_hard);
        }
        if spec.config.max_wall.is_none() {
            spec.config.max_wall = Some(gate.envelope.deadline);
        }
    }
    Ok(Admission {
        gate: Some(Box::new(gate)),
        strategy_applied,
        budgets_tightened,
    })
}

/// What [`Service::wait_timeout`] observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaitResult {
    /// The job reached this terminal state.
    Terminal(JobStatus),
    /// The deadline passed first; the job was still in this
    /// (non-terminal) state.
    TimedOut(JobStatus),
    /// No job with that id exists.
    Unknown,
}

/// What [`Service::drain`] accomplished within its grace period.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Queued jobs cancelled before they ever ran.
    pub cancelled_queued: usize,
    /// Running jobs that stopped within the grace period and left a
    /// resume checkpoint behind.
    pub checkpointed: usize,
    /// Running jobs still not terminal when the grace period expired.
    pub timed_out: usize,
}

struct HubState {
    buf: VecDeque<JobEvent>,
    dropped: HashMap<JobId, u64>,
    /// Bumped on every subscribe; a receiver from an older generation is
    /// superseded and goes quiet.
    generation: u64,
    closed: bool,
}

/// Bounded single-subscriber event buffer. Emitting never blocks: with
/// no (or a slow) subscriber the buffer caps at `capacity` and drops its
/// *oldest* entries, counting drops per job — so an unobserved service
/// neither grows without bound nor stalls its workers.
struct EventHub {
    state: Mutex<HubState>,
    cv: Condvar,
    capacity: usize,
}

impl EventHub {
    fn new(capacity: usize) -> EventHub {
        EventHub {
            state: Mutex::new(HubState {
                buf: VecDeque::new(),
                dropped: HashMap::new(),
                generation: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn emit(&self, ev: JobEvent) {
        let mut st = self.state.lock().expect("event hub poisoned");
        if st.closed {
            return;
        }
        if st.buf.len() >= self.capacity {
            if let Some(old) = st.buf.pop_front() {
                *st.dropped.entry(old.job).or_insert(0) += 1;
            }
        }
        st.buf.push_back(ev);
        drop(st);
        self.cv.notify_all();
    }

    /// The `finished` event of a job cancelled before it ever ran.
    fn emit_cancelled(&self, job: JobId, name: String) {
        self.emit(JobEvent {
            job,
            name,
            kind: JobEventKind::Finished {
                status: JobStatus::Cancelled,
                outcome: ChaseOutcome::Cancelled,
                applications: 0,
                atoms: 0,
                resumable: false,
                wall_ms: 0,
            },
        });
    }

    fn close(&self) {
        self.state.lock().expect("event hub poisoned").closed = true;
        self.cv.notify_all();
    }

    fn dropped_for(&self, job: JobId) -> u64 {
        let st = self.state.lock().expect("event hub poisoned");
        st.dropped.get(&job).copied().unwrap_or(0)
    }
}

/// The receiving end of [`Service::events`]. Only the most recent
/// subscriber receives events; earlier receivers go quiet. Iterating
/// blocks until the next event and ends on shutdown.
pub struct EventReceiver {
    inner: Arc<Inner>,
    generation: u64,
}

impl EventReceiver {
    /// Pops the next buffered event without blocking.
    pub fn try_recv(&self) -> Option<JobEvent> {
        let mut st = self.inner.hub.state.lock().expect("event hub poisoned");
        if st.generation != self.generation {
            return None;
        }
        st.buf.pop_front()
    }

    /// Blocks for the next event; `None` once the service shuts down
    /// (after draining) or a newer subscriber supersedes this one.
    pub fn recv(&self) -> Option<JobEvent> {
        let mut st = self.inner.hub.state.lock().expect("event hub poisoned");
        loop {
            if st.generation != self.generation {
                return None;
            }
            if let Some(ev) = st.buf.pop_front() {
                return Some(ev);
            }
            if st.closed {
                return None;
            }
            st = self.inner.hub.cv.wait(st).expect("event hub poisoned");
        }
    }
}

impl Iterator for EventReceiver {
    type Item = JobEvent;

    fn next(&mut self) -> Option<JobEvent> {
        self.recv()
    }
}

struct JobEntry {
    name: String,
    status: JobStatus,
    cancel: CancelToken,
    spec: Option<JobSpec>,
    result: Option<JobResult>,
    /// The most recent checkpoint of this job — periodic, end-of-slice,
    /// or the one it was recovered from. Feeds crash retries and stays
    /// retrievable after a `Failed` degradation.
    last_checkpoint: Option<Checkpoint>,
    priority: Priority,
    submitter: Option<String>,
    /// Queries answered from this job's snapshots (surfaced in
    /// [`JobSummary::queries_served`]).
    queries_served: u64,
}

struct State {
    next_id: JobId,
    queue: VecDeque<JobId>,
    jobs: HashMap<JobId, JobEntry>,
    /// Raised by [`Service::drain`]: nothing new is admitted and the
    /// workers stop picking (idle until shutdown).
    draining: bool,
}

impl State {
    /// Jobs waiting for a worker.
    fn queued(&self) -> usize {
        self.jobs
            .values()
            .filter(|e| e.status == JobStatus::Queued)
            .count()
    }
}

struct Inner {
    state: Mutex<State>,
    cv: Condvar,
    hub: EventHub,
    cfg: ServiceConfig,
    store: Option<CheckpointStore>,
    shutdown: AtomicBool,
    /// Per-job materialization snapshots for the query read path.
    /// Separate from `state`: readers take views by `Arc` and never
    /// contend with the job table or the chase writers.
    snapshots: SnapshotCache,
}

impl Inner {
    fn set_last_checkpoint(&self, id: JobId, ck: Checkpoint) {
        let mut st = self.state.lock().expect("state lock poisoned");
        if let Some(entry) = st.jobs.get_mut(&id) {
            entry.last_checkpoint = Some(ck);
        }
    }

    /// Persists a checkpoint if a store is configured; a failed write is
    /// surfaced as a warning (the previous durable checkpoint, if any,
    /// is untouched by construction of [`CheckpointStore::save`]).
    fn persist_checkpoint(&self, id: JobId, name: &str, spec: &JobSpec, ck: &Checkpoint) {
        let Some(store) = self.store.as_ref() else {
            return;
        };
        if let Err(e) = store.save(id, ck, spec.config.fault.as_ref()) {
            self.hub.emit(JobEvent {
                job: id,
                name: name.to_string(),
                kind: JobEventKind::Warning {
                    message: format!(
                        "durable checkpoint write failed (previous checkpoint kept): {e}"
                    ),
                },
            });
        }
    }
}

/// A handle to a running worker pool. Dropping the service shuts the
/// pool down (pending queued jobs are abandoned, running jobs are
/// cancelled). All methods take `&self`, so the handle can be shared
/// behind an [`Arc`] (e.g. with a signal-watcher thread that drains).
pub struct Service {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    recovered: Vec<JobId>,
    recovery_errors: Vec<CorruptEntry>,
}

/// A row in the [`Service::list`] summary.
#[derive(Clone, Debug)]
pub struct JobSummary {
    /// The job's id.
    pub id: JobId,
    /// The job's display name.
    pub name: String,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Events of this job dropped from the bounded buffer because no
    /// subscriber drained them in time.
    pub events_dropped: u64,
    /// Queries answered from this job's materialization snapshots.
    pub queries_served: u64,
    /// Age of the newest published snapshot, in milliseconds; `None`
    /// when the job has not published one yet.
    pub snapshot_age_ms: Option<u64>,
}

/// Why a `query` operation could not produce answers.
#[derive(Clone, Debug)]
pub enum QueryError {
    /// Shed by admission control (draining, or queue at capacity — the
    /// service protects the chase writers before serving more reads).
    Rejected(Rejection),
    /// The referenced job does not exist.
    UnknownJob(JobId),
    /// The job exists but has not published a snapshot yet (still
    /// queued).
    NoSnapshot(JobId),
    /// The query text failed to parse.
    Parse(chase_parser::ParseError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Rejected(rej) => write!(f, "query rejected: {}", rej.message),
            QueryError::UnknownJob(id) => write!(f, "no such job: {id}"),
            QueryError::NoSnapshot(id) => {
                write!(f, "job {id} has not published a snapshot yet")
            }
            QueryError::Parse(e) => write!(f, "query parse error: {e}"),
        }
    }
}

/// A successful `query` reply: the answers plus the snapshot metadata
/// and cache counters that let a client reason about staleness.
#[derive(Clone, Debug)]
pub struct QueryReply {
    /// Answers, variable names and the completeness tag.
    pub outcome: QueryOutcome,
    /// The job answered from (`None` for ad-hoc KB queries).
    pub job: Option<JobId>,
    /// Monotone snapshot publication counter (job path only).
    pub sequence: Option<u64>,
    /// Rule applications at the snapshot horizon (job path only).
    pub applications: Option<u64>,
    /// Age of the snapshot answered from, in milliseconds (job path
    /// only).
    pub snapshot_age_ms: Option<u64>,
    /// Service-wide cache counters as of this reply.
    pub cache: CacheStats,
}

/// The budget every query runs under: the caller's node limit plus a
/// deadline `timeout` from now (the explicit timeout, or else the
/// operation deadline), so a query can never outlive its operation.
pub fn query_budget(node_limit: Option<usize>, timeout: Option<Duration>) -> SearchBudget {
    let mut budget = SearchBudget::unlimited();
    if let Some(n) = node_limit {
        budget = budget.with_node_limit(n);
    }
    if let Some(d) = timeout {
        budget = budget.with_deadline(Instant::now() + d);
    }
    budget
}

/// Answers a CQ/UCQ from job `id`'s newest snapshot in `cache`: the
/// read path of both the in-process service and the cluster
/// coordinator. The snapshot is shared by `Arc`, so the read never
/// blocks the writer publishing the next one.
pub fn answer_snapshot(
    cache: &SnapshotCache,
    id: JobId,
    query: &str,
    budget: &SearchBudget,
) -> Result<QueryReply, QueryError> {
    let view = cache.view(id).ok_or(QueryError::NoSnapshot(id))?;
    let outcome = answer_view(&view, query, budget).map_err(QueryError::Parse)?;
    cache.add_answers_served(outcome.answers.len() as u64);
    Ok(QueryReply {
        outcome,
        job: Some(id),
        sequence: Some(view.sequence),
        applications: Some(view.applications),
        snapshot_age_ms: Some(view.captured.elapsed().as_millis() as u64),
        cache: cache.stats(),
    })
}

/// Answers a CQ/UCQ by a budgeted chase of an ad-hoc KB on the caller's
/// thread, counting the answers served in `cache`.
pub fn answer_adhoc(
    cache: &SnapshotCache,
    kb: &KnowledgeBase,
    cfg: &ChaseConfig,
    query: &str,
    budget: &SearchBudget,
) -> Result<QueryReply, QueryError> {
    let outcome = answer_kb(kb, query, cfg, budget).map_err(QueryError::Parse)?;
    cache.add_answers_served(outcome.answers.len() as u64);
    Ok(QueryReply {
        outcome,
        job: None,
        sequence: None,
        applications: None,
        snapshot_age_ms: None,
        cache: cache.stats(),
    })
}

impl Service {
    /// Starts a pool with `workers` threads (clamped to at least 1) and
    /// default configuration (no persistence).
    pub fn start(workers: usize) -> Service {
        Service::with_config(workers, ServiceConfig::default())
            .expect("a service without a state dir cannot fail to start")
    }

    /// Starts a pool with explicit configuration. With a state dir, any
    /// checkpoint persisted by a previous (possibly killed) process is
    /// recovered into a fresh queued job before the workers start; see
    /// [`Service::recovered_jobs`] / [`Service::recovery_errors`].
    pub fn with_config(workers: usize, cfg: ServiceConfig) -> Result<Service, String> {
        let store = match &cfg.state_dir {
            Some(dir) => Some(CheckpointStore::open(dir.clone())?),
            None => None,
        };
        let event_capacity = cfg.event_capacity;
        let snapshot_ring = cfg.snapshot_ring.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                next_id: 1,
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                draining: false,
            }),
            cv: Condvar::new(),
            hub: EventHub::new(event_capacity),
            cfg,
            store,
            shutdown: AtomicBool::new(false),
            snapshots: SnapshotCache::new(snapshot_ring),
        });

        let mut recovered = Vec::new();
        let mut recovery_errors = Vec::new();
        if let Some(store) = inner.store.as_ref() {
            let (good, bad) = store.load_all()?;
            recovery_errors.extend(bad);
            for (old_id, decoded) in good {
                let (ck, spec) = decoded.into_parts();
                let new_id = {
                    let mut st = inner.state.lock().expect("state lock poisoned");
                    let id = st.next_id;
                    st.next_id += 1;
                    let priority = spec.priority;
                    let submitter = spec.submitter.clone();
                    st.jobs.insert(
                        id,
                        JobEntry {
                            name: spec.name.clone(),
                            status: JobStatus::Queued,
                            cancel: CancelToken::new(),
                            spec: Some(spec),
                            result: None,
                            last_checkpoint: Some(ck.clone()),
                            priority,
                            submitter,
                            queries_served: 0,
                        },
                    );
                    st.queue.push_back(id);
                    id
                };
                // Re-home the durable file under the new id, so a second
                // crash before the next periodic checkpoint still
                // recovers (and the old file does not resurrect twice).
                if new_id != old_id && store.save(new_id, &ck, None).is_ok() {
                    let _ = store.remove(old_id);
                }
                recovered.push(new_id);
            }
        }

        let workers = (0..workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Ok(Service {
            inner,
            workers: Mutex::new(workers),
            recovered,
            recovery_errors,
        })
    }

    /// Ids of the jobs re-queued from persisted checkpoints at startup.
    pub fn recovered_jobs(&self) -> &[JobId] {
        &self.recovered
    }

    /// Store files that could not be recovered at startup (corrupt JSON,
    /// version mismatch): reported, not fatal.
    pub fn recovery_errors(&self) -> &[CorruptEntry] {
        &self.recovery_errors
    }

    /// Subscribes to the event stream, superseding any earlier
    /// subscriber and discarding already-buffered events.
    pub fn events(&self) -> EventReceiver {
        let mut st = self.inner.hub.state.lock().expect("event hub poisoned");
        st.generation += 1;
        st.buf.clear();
        EventReceiver {
            inner: Arc::clone(&self.inner),
            generation: st.generation,
        }
    }

    /// Inserts the job into the table and queue. Caller holds the lock;
    /// the `Queued` event is the caller's to emit after releasing it.
    /// An unnamed job is named `job-<id>` here, where its id is minted,
    /// so concurrent submits can never share a default name.
    fn enqueue_locked(&self, st: &mut State, mut spec: JobSpec) -> (JobId, String) {
        // No admitted job runs forever: jobs without their own wall
        // budget inherit the service-level deadline.
        if spec.config.max_wall.is_none() {
            spec.config.max_wall = self.inner.cfg.job_deadline;
        }
        let id = st.next_id;
        st.next_id += 1;
        if spec.name.is_empty() {
            spec.name = format!("job-{id}");
        }
        let name = spec.name.clone();
        let priority = spec.priority;
        let submitter = spec.submitter.clone();
        st.jobs.insert(
            id,
            JobEntry {
                name: name.clone(),
                status: JobStatus::Queued,
                cancel: CancelToken::new(),
                spec: Some(spec),
                result: None,
                last_checkpoint: None,
                priority,
                submitter,
                queries_served: 0,
            },
        );
        st.queue.push_back(id);
        (id, name)
    }

    /// Enqueues a job unconditionally (the trusted in-process path used
    /// by tests and the bench drivers — admission control applies to
    /// [`Service::try_submit`], the wire path).
    pub fn submit(&self, spec: JobSpec) -> JobId {
        let mut st = self.inner.state.lock().expect("state lock poisoned");
        let (id, name) = self.enqueue_locked(&mut st, spec);
        drop(st);
        self.inner.cv.notify_all();
        self.inner.hub.emit(JobEvent {
            job: id,
            name,
            kind: JobEventKind::Queued,
        });
        id
    }

    /// Enqueues a job subject to admission control: a full queue, an
    /// exhausted submitter quota or a draining service sheds the
    /// submission with a structured [`Rejection`] instead of accepting
    /// unbounded work.
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobId, Rejection> {
        let mut st = self.inner.state.lock().expect("state lock poisoned");
        if st.draining || self.inner.shutdown.load(Ordering::Acquire) {
            return Err(Rejection {
                reason: RejectReason::Draining,
                message: "service is draining; not admitting new jobs".to_string(),
                retry_after: None,
            });
        }
        let queued = st.queued();
        if let Some(cap) = self.inner.cfg.max_queue {
            if queued >= cap {
                // Backoff scales with the backlog so a retry storm
                // spreads out instead of hammering a full queue.
                let backoff = (100 * queued as u64).clamp(100, 5_000);
                return Err(Rejection {
                    reason: RejectReason::QueueFull,
                    message: format!("queue is full ({queued}/{cap} jobs queued)"),
                    retry_after: Some(Duration::from_millis(backoff)),
                });
            }
        }
        if let (Some(quota), Some(sub)) =
            (self.inner.cfg.submitter_quota, spec.submitter.as_deref())
        {
            let live = st
                .jobs
                .values()
                .filter(|e| !e.status.is_terminal() && e.submitter.as_deref() == Some(sub))
                .count();
            if live >= quota {
                return Err(Rejection {
                    reason: RejectReason::QuotaExceeded,
                    message: format!("submitter `{sub}` has {live}/{quota} live jobs"),
                    retry_after: Some(Duration::from_millis(1_000)),
                });
            }
        }
        let (id, name) = self.enqueue_locked(&mut st, spec);
        drop(st);
        self.inner.cv.notify_all();
        self.inner.hub.emit(JobEvent {
            job: id,
            name,
            kind: JobEventKind::Queued,
        });
        Ok(id)
    }

    /// Runs the admission-time analyzer over the spec's KB, then
    /// enqueues through [`Service::try_submit`]. This is the wire path
    /// for `submit` requests:
    ///
    /// * under [`ServiceConfig::strict_admission`], a ruleset whose
    ///   analysis refutes every decidability route is shed with
    ///   [`RejectReason::AnalysisRefuted`] — the job could only burn
    ///   its budget;
    /// * with [`JobSpec::auto_strategy`], the derived [`ChasePlan`]
    ///   picks the chase variant and stratified rule schedule;
    /// * with [`JobSpec::auto_budgets`], a ruleset whose termination is
    ///   refuted **or likely refuted** (an MFA cyclic-term witness —
    ///   strong divergence evidence, though not a proof) gets tighter
    ///   default budgets — divergence is expected, so fail fast and
    ///   leave a resumable checkpoint.
    ///
    /// A submit that pinned both its variant and a budget (neither
    /// `auto_strategy` nor `auto_budgets`) gives the analyzer nothing
    /// to decide; unless strict admission needs a verdict, such a spec
    /// skips the gate entirely — admission latency stays flat under a
    /// burst of pinned submissions, which the overload ladder (shed on
    /// `queue-full`) depends on.
    ///
    /// [`ChasePlan`]: chase_analysis::ChasePlan
    pub fn submit_analyzed(&self, mut spec: JobSpec) -> Result<(JobId, Admission), Rejection> {
        let admission = apply_admission_gate(&mut spec, &self.inner.cfg)?;
        let id = self.try_submit(spec)?;
        Ok((id, admission))
    }

    /// Requests cancellation. Queued jobs die immediately; running jobs
    /// stop at the next trigger boundary. Returns false for unknown or
    /// already-terminal jobs.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = self.inner.state.lock().expect("state lock poisoned");
        let Some(entry) = st.jobs.get_mut(&id) else {
            return false;
        };
        match entry.status {
            JobStatus::Queued => {
                entry.status = JobStatus::Cancelled;
                entry.cancel.cancel();
                let spec = entry.spec.take();
                let name = entry.name.clone();
                drop(st);
                drop(spec);
                self.inner.cv.notify_all();
                self.inner.hub.emit_cancelled(id, name);
                true
            }
            JobStatus::Running => {
                entry.cancel.cancel();
                true
            }
            _ => false,
        }
    }

    /// Returns the status of a job, if known.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let st = self.inner.state.lock().expect("state lock poisoned");
        st.jobs.get(&id).map(|e| e.status.clone())
    }

    /// Blocks until the job reaches a terminal state and returns it.
    /// Returns `None` for unknown job ids.
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        match self.wait_timeout(id, None) {
            WaitResult::Terminal(s) => Some(s),
            WaitResult::TimedOut(_) => unreachable!("no deadline given"),
            WaitResult::Unknown => None,
        }
    }

    /// Blocks until the job is terminal or the timeout expires,
    /// whichever comes first. `timeout: None` falls back to the
    /// service-level [`ServiceConfig::op_deadline`]; if that is also
    /// `None`, blocks indefinitely. A timed-out wait is not an error:
    /// the caller gets the current status and may wait again.
    pub fn wait_timeout(&self, id: JobId, timeout: Option<Duration>) -> WaitResult {
        let timeout = timeout.or(self.inner.cfg.op_deadline);
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut st = self.inner.state.lock().expect("state lock poisoned");
        loop {
            let status = match st.jobs.get(&id) {
                None => return WaitResult::Unknown,
                Some(e) if e.status.is_terminal() => return WaitResult::Terminal(e.status.clone()),
                Some(e) => e.status.clone(),
            };
            match deadline {
                None => {
                    st = self.inner.cv.wait(st).expect("state lock poisoned");
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return WaitResult::TimedOut(status);
                    }
                    let (guard, _) = self
                        .inner
                        .cv
                        .wait_timeout(st, d - now)
                        .expect("state lock poisoned");
                    st = guard;
                }
            }
        }
    }

    /// Borrow-free peek at a terminal job's result via a closure (the
    /// result stays in the table so `checkpoint` requests keep working).
    pub fn with_result<T>(&self, id: JobId, f: impl FnOnce(&JobResult) -> T) -> Option<T> {
        let st = self.inner.state.lock().expect("state lock poisoned");
        st.jobs.get(&id).and_then(|e| e.result.as_ref()).map(f)
    }

    /// Waits for the job and moves its full result out of the table.
    pub fn take_result(&self, id: JobId) -> Option<JobResult> {
        self.wait(id)?;
        let mut st = self.inner.state.lock().expect("state lock poisoned");
        st.jobs.get_mut(&id).and_then(|e| e.result.take())
    }

    /// The job's most recent checkpoint: the final one for completed
    /// jobs, otherwise the last periodic capture — in particular, still
    /// available after a crash degraded the job to `Failed`.
    pub fn checkpoint_of(&self, id: JobId) -> Option<Checkpoint> {
        let st = self.inner.state.lock().expect("state lock poisoned");
        let entry = st.jobs.get(&id)?;
        entry
            .result
            .as_ref()
            .and_then(|r| r.checkpoint.clone())
            .or_else(|| entry.last_checkpoint.clone())
    }

    /// Summarizes every known job, in id order.
    pub fn list(&self) -> Vec<JobSummary> {
        let mut rows: Vec<JobSummary> = {
            let st = self.inner.state.lock().expect("state lock poisoned");
            st.jobs
                .iter()
                .map(|(id, e)| JobSummary {
                    id: *id,
                    name: e.name.clone(),
                    status: e.status.clone(),
                    events_dropped: 0,
                    queries_served: e.queries_served,
                    snapshot_age_ms: None,
                })
                .collect()
        };
        for row in &mut rows {
            row.events_dropped = self.inner.hub.dropped_for(row.id);
            row.snapshot_age_ms = self
                .inner
                .snapshots
                .latest_captured(row.id)
                .map(|t| t.elapsed().as_millis() as u64);
        }
        rows.sort_by_key(|r| r.id);
        rows
    }

    /// Admission gate for the read path: queries are shed while the
    /// service drains, and — with `--max-queue` set — while the write
    /// queue is at capacity, so an overloaded service protects its
    /// chase workers before taking on more reads.
    fn admit_query(&self) -> Result<(), Rejection> {
        let st = self.inner.state.lock().expect("state lock poisoned");
        if st.draining || self.inner.shutdown.load(Ordering::Acquire) {
            return Err(Rejection {
                reason: RejectReason::Draining,
                message: "service is draining; not serving queries".to_string(),
                retry_after: None,
            });
        }
        if let Some(cap) = self.inner.cfg.max_queue {
            let queued = st.queued();
            if queued >= cap {
                let backoff = (100 * queued as u64).clamp(100, 5_000);
                return Err(Rejection {
                    reason: RejectReason::QueueFull,
                    message: format!(
                        "service overloaded ({queued}/{cap} jobs queued); queries shed"
                    ),
                    retry_after: Some(Duration::from_millis(backoff)),
                });
            }
        }
        Ok(())
    }

    /// Answers a CQ/UCQ against a job's newest materialization snapshot
    /// (the robust D^⊛ prefix while the chase is live, the final
    /// universal model once it terminated).
    ///
    /// Runs synchronously on the caller's thread — queries never queue
    /// behind chase jobs, which is what lets millions of cheap reads
    /// overtake a few expensive writes. The snapshot is shared by `Arc`,
    /// so concurrent queries never block the chase writer.
    pub fn query_job(
        &self,
        id: JobId,
        query: &str,
        node_limit: Option<usize>,
        timeout: Option<Duration>,
    ) -> Result<QueryReply, QueryError> {
        self.admit_query().map_err(QueryError::Rejected)?;
        {
            let st = self.inner.state.lock().expect("state lock poisoned");
            if !st.jobs.contains_key(&id) {
                return Err(QueryError::UnknownJob(id));
            }
        }
        let budget = query_budget(node_limit, timeout.or(self.inner.cfg.op_deadline));
        let reply = answer_snapshot(&self.inner.snapshots, id, query, &budget)?;
        {
            let mut st = self.inner.state.lock().expect("state lock poisoned");
            if let Some(entry) = st.jobs.get_mut(&id) {
                entry.queries_served += 1;
            }
        }
        Ok(reply)
    }

    /// Answers a CQ/UCQ against an ad-hoc knowledge base by running a
    /// budgeted chase to (attempted) completion on the caller's thread —
    /// the `kb`/`source` form of the `query` wire op.
    pub fn query_kb(
        &self,
        kb: &KnowledgeBase,
        cfg: &ChaseConfig,
        query: &str,
        node_limit: Option<usize>,
        timeout: Option<Duration>,
    ) -> Result<QueryReply, QueryError> {
        self.admit_query().map_err(QueryError::Rejected)?;
        let budget = query_budget(node_limit, timeout.or(self.inner.cfg.op_deadline));
        answer_adhoc(&self.inner.snapshots, kb, cfg, query, &budget)
    }

    /// Service-wide query-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.snapshots.stats()
    }

    /// Graceful drain: stop admitting and picking, cancel queued jobs,
    /// ask running slices to stop at their next trigger boundary, and
    /// wait up to `grace` (`None` = the configured
    /// [`ServiceConfig::drain_grace`]) for them to land their resume
    /// checkpoints. Does *not* join the workers or close the event
    /// stream — a drained service still answers status/checkpoint
    /// requests; call [`Service::shutdown`] to finish.
    pub fn drain(&self, grace: Option<Duration>) -> DrainReport {
        let grace = grace.unwrap_or(self.inner.cfg.drain_grace);
        let (cancelled, running) = {
            let mut st = self.inner.state.lock().expect("state lock poisoned");
            st.draining = true;
            st.queue.clear();
            let mut cancelled = Vec::new();
            let mut running = Vec::new();
            for (&id, e) in st.jobs.iter_mut() {
                match e.status {
                    JobStatus::Queued => {
                        e.status = JobStatus::Cancelled;
                        e.cancel.cancel();
                        e.spec = None;
                        cancelled.push((id, e.name.clone()));
                    }
                    JobStatus::Running => {
                        e.cancel.cancel();
                        running.push(id);
                    }
                    _ => {}
                }
            }
            (cancelled, running)
        };
        self.inner.cv.notify_all();
        for (id, name) in &cancelled {
            self.inner.hub.emit_cancelled(*id, name.clone());
        }

        let deadline = Instant::now() + grace;
        let mut st = self.inner.state.lock().expect("state lock poisoned");
        loop {
            let live = running
                .iter()
                .filter(|id| st.jobs.get(id).is_some_and(|e| !e.status.is_terminal()))
                .count();
            if live == 0 {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = self
                .inner
                .cv
                .wait_timeout(st, deadline - now)
                .expect("state lock poisoned");
            st = guard;
        }
        let mut report = DrainReport {
            cancelled_queued: cancelled.len(),
            ..DrainReport::default()
        };
        for id in &running {
            let Some(e) = st.jobs.get(id) else { continue };
            if !e.status.is_terminal() {
                report.timed_out += 1;
                continue;
            }
            let ck = e
                .result
                .as_ref()
                .and_then(|r| r.checkpoint.clone())
                .or_else(|| e.last_checkpoint.clone());
            if let Some(ck) = ck {
                report.checkpointed += 1;
                // The worker persists after publishing; re-persisting
                // here closes the window where an exit right after
                // drain() races the worker's own durable write.
                if let Some(store) = self.inner.store.as_ref() {
                    let _ = store.save(*id, &ck, None);
                }
            }
        }
        report
    }

    /// Closes the event stream: subscribers drain what is buffered and
    /// then see the end. Part of the serve loop's exit sequence (after
    /// [`Service::drain`], before joining the output forwarder).
    pub fn close_events(&self) {
        self.inner.hub.close();
    }

    /// Stops accepting work, cancels everything live and joins the
    /// workers. Idempotent.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        {
            let mut st = self.inner.state.lock().expect("state lock poisoned");
            st.queue.clear();
            for e in st.jobs.values_mut() {
                if e.status == JobStatus::Queued {
                    e.status = JobStatus::Cancelled;
                    e.spec = None;
                }
                e.cancel.cancel();
            }
        }
        self.inner.cv.notify_all();
        let handles: Vec<JoinHandle<()>> = {
            let mut ws = self.workers.lock().expect("worker list poisoned");
            ws.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        self.inner.hub.close();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Blocks until a queued job is available (returns `None` on shutdown)
/// and marks it running. Picks the best-priority job, FIFO within a
/// priority class — so a small high-priority probe overtakes a backlog
/// of heavyweights. A draining service picks nothing: workers idle
/// until shutdown.
fn pick_job(inner: &Inner) -> Option<(JobId, JobSpec, CancelToken, String)> {
    let mut st = inner.state.lock().expect("state lock poisoned");
    let picked = loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return None;
        }
        let found = if st.draining {
            None
        } else {
            // Lazily drop queue entries whose job was cancelled while
            // still queued (their spec is gone), then pick the earliest
            // entry of the best priority class.
            let State { queue, jobs, .. } = &mut *st;
            queue.retain(|id| jobs.get(id).is_some_and(|e| e.status == JobStatus::Queued));
            queue
                .iter()
                .enumerate()
                .min_by_key(|(i, id)| {
                    let prio = jobs.get(*id).map_or(Priority::Low, |e| e.priority);
                    (prio, *i)
                })
                .map(|(i, _)| i)
                .and_then(|i| queue.remove(i))
        };
        match found {
            Some(id) => break id,
            None => {
                st = inner.cv.wait(st).expect("state lock poisoned");
            }
        }
    };
    let entry = st.jobs.get_mut(&picked).expect("queued job vanished");
    entry.status = JobStatus::Running;
    let spec = entry.spec.take().expect("queued job without a spec");
    Some((picked, spec, entry.cancel.clone(), entry.name.clone()))
}

/// Renders a panic payload for the `Crashed` event.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

/// Builds the spec for a crash retry: resume the derivation from the
/// checkpoint, carrying over the original job's process-local knobs
/// (the budget split is re-derived by [`Checkpoint::into_spec`], which
/// works in derivation totals — no budget resets, no double counting).
fn respawn_spec(original: &JobSpec, ck: &Checkpoint) -> Result<JobSpec, String> {
    let mut spec = ck.into_spec()?;
    // The fault plan's fire-once counters are shared through the clone,
    // so an already-injected crash does not re-fire on the retry.
    spec.config.fault = original.config.fault.clone();
    spec.tw_sample_interval = original.tw_sample_interval;
    spec.progress_every = original.progress_every;
    spec.checkpoint_every = original.checkpoint_every;
    Ok(spec)
}

fn worker_loop(inner: &Inner) {
    loop {
        let Some((id, original, cancel, name)) = pick_job(inner) else {
            return;
        };
        inner.cv.notify_all();
        inner.hub.emit(JobEvent {
            job: id,
            name: name.clone(),
            kind: JobEventKind::Started,
        });

        // Supervision loop: a panicking slice is retried from the last
        // checkpoint until the retry budget runs out.
        let mut attempt = 0usize;
        let mut spec = original.clone();
        let result = loop {
            let started = Instant::now();
            let run = catch_unwind(AssertUnwindSafe(|| {
                execute(inner, id, &name, &spec, &cancel, started)
            }));
            match run {
                Ok(result) => break result,
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    attempt += 1;
                    let retrying = attempt <= inner.cfg.max_retries;
                    inner.hub.emit(JobEvent {
                        job: id,
                        name: name.clone(),
                        kind: JobEventKind::Crashed {
                            message: message.clone(),
                            attempt,
                            retrying,
                        },
                    });
                    if !retrying {
                        break Err(format!(
                            "crashed {attempt} time(s), retries exhausted: {message}"
                        ));
                    }
                    let backoff = inner
                        .cfg
                        .retry_backoff
                        .saturating_mul(1u32 << (attempt - 1).min(16));
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    let last = {
                        let st = inner.state.lock().expect("state lock poisoned");
                        st.jobs.get(&id).and_then(|e| e.last_checkpoint.clone())
                    };
                    spec = match last {
                        Some(ck) => match respawn_spec(&original, &ck) {
                            Ok(spec) => spec,
                            Err(e) => {
                                break Err(format!("cannot rebuild job from its checkpoint: {e}"))
                            }
                        },
                        // Crashed before any checkpoint: retry the whole
                        // slice from scratch.
                        None => original.clone(),
                    };
                }
            }
        };

        let store_op = {
            let mut st = inner.state.lock().expect("state lock poisoned");
            let entry = st.jobs.get_mut(&id).expect("running job vanished");
            let (kind, store_op) = match result {
                Ok(res) => {
                    entry.status = if res.outcome == ChaseOutcome::Cancelled {
                        JobStatus::Cancelled
                    } else {
                        JobStatus::Finished
                    };
                    let kind = JobEventKind::Finished {
                        status: entry.status.clone(),
                        outcome: res.outcome,
                        applications: res.stats.applications,
                        atoms: res.final_instance.len(),
                        resumable: res.checkpoint.is_some(),
                        wall_ms: res.wall_ms,
                    };
                    let store_op = match res.checkpoint.clone() {
                        Some(ck) => {
                            entry.last_checkpoint = Some(ck.clone());
                            StoreOp::Save(Box::new(ck))
                        }
                        // A terminated job needs no recovery on restart.
                        None => StoreOp::Remove,
                    };
                    entry.result = Some(res);
                    (kind, store_op)
                }
                Err(message) => {
                    entry.status = JobStatus::Failed;
                    // Keep the durable file: the last checkpoint of a
                    // crashed-out job is exactly what a restart needs.
                    (JobEventKind::Failed { message }, StoreOp::Keep)
                }
            };
            // Emitted before the status flip is observable through
            // `wait` (lock order state → hub, same as `list`): a waiter
            // that saw the terminal status must find the terminal event
            // already in the buffer when it drains.
            inner.hub.emit(JobEvent {
                job: id,
                name: name.clone(),
                kind,
            });
            store_op
        };
        inner.cv.notify_all();
        match store_op {
            StoreOp::Save(ck) => inner.persist_checkpoint(id, &name, &spec, &ck),
            StoreOp::Remove => {
                if let Some(store) = inner.store.as_ref() {
                    let _ = store.remove(id);
                }
            }
            StoreOp::Keep => {}
        }
    }
}

/// What the worker does to the durable store after publishing a result.
enum StoreOp {
    Save(Box<Checkpoint>),
    Remove,
    Keep,
}

/// Runs one job slice to its outcome and assembles the result.
fn execute(
    inner: &Inner,
    id: JobId,
    name: &str,
    spec: &JobSpec,
    cancel: &CancelToken,
    started: Instant,
) -> Result<JobResult, String> {
    let mut vocab = spec.kb.vocab.clone();
    let progress_every = spec.progress_every.max(1);
    let checkpoint_every = spec.checkpoint_every.or(inner.cfg.checkpoint_every);
    let snapshot_every = inner.cfg.snapshot_every.max(1);
    let base_applications = spec.base_stats.applications as u64;
    let mut last_step_emitted = 0usize;
    let mut last_tw_sampled = 0usize;
    let mut last_checkpointed = 0usize;
    let mut last_snapshotted = 0usize;
    // Queries can be answered from the moment the slice starts: the
    // initial facts (or the resumed instance) are already a sound
    // prefix of every chase element.
    inner.snapshots.publish(
        id,
        Snapshot::live(
            spec.kb.vocab.clone(),
            spec.kb.facts.clone(),
            base_applications,
        ),
    );
    if spec.resumed_inexact {
        // The checkpoint could not carry the applied-trigger memory of
        // its oblivious/semi-oblivious prefix; the resumed slice may
        // re-apply triggers. This used to be silently dropped.
        inner.hub.emit(JobEvent {
            job: id,
            name: name.to_string(),
            kind: JobEventKind::Warning {
                message: format!(
                    "inexact resume: the {} checkpoint drops applied-trigger \
                     memory, so triggers of the prefix may fire again",
                    crate::protocol::variant_name(spec.config.variant)
                ),
            },
        });
    }
    let res = run_chase_controlled(
        &mut vocab,
        &spec.kb.facts,
        &spec.kb.rules,
        &spec.config,
        Some(cancel),
        |ev| {
            match ev {
                ChaseEvent::RoundStarted { .. } => {}
                ChaseEvent::StepApplied {
                    instance,
                    vocab,
                    stats,
                } => {
                    if stats.applications >= last_step_emitted + progress_every {
                        last_step_emitted = stats.applications;
                        inner.hub.emit(JobEvent {
                            job: id,
                            name: name.to_string(),
                            kind: JobEventKind::StepApplied {
                                applications: stats.applications,
                                atoms: instance.len(),
                                rounds: stats.rounds,
                            },
                        });
                    }
                    if let Some(every) = spec.tw_sample_interval {
                        if stats.applications >= last_tw_sampled + every {
                            last_tw_sampled = stats.applications;
                            let tw = treewidth_bounds(instance);
                            inner.hub.emit(JobEvent {
                                job: id,
                                name: name.to_string(),
                                kind: JobEventKind::TreewidthSample {
                                    applications: stats.applications,
                                    tw_upper: tw.upper,
                                    tw_lower: tw.lower,
                                },
                            });
                        }
                    }
                    if let Some(every) = checkpoint_every {
                        if stats.applications >= last_checkpointed + every {
                            last_checkpointed = stats.applications;
                            let total = add_stats(spec.base_stats, *stats);
                            let ck = Checkpoint::capture(spec, vocab, instance, total);
                            inner.set_last_checkpoint(id, ck.clone());
                            inner.persist_checkpoint(id, name, spec, &ck);
                        }
                    }
                    if stats.applications >= last_snapshotted + snapshot_every {
                        last_snapshotted = stats.applications;
                        inner.snapshots.publish(
                            id,
                            Snapshot::live(
                                vocab.clone(),
                                instance.clone(),
                                base_applications + stats.applications as u64,
                            ),
                        );
                    }
                }
                ChaseEvent::Degraded {
                    mem_units,
                    soft_limit,
                    ..
                } => {
                    inner.hub.emit(JobEvent {
                        job: id,
                        name: name.to_string(),
                        kind: JobEventKind::Degraded {
                            mem_units,
                            soft_limit,
                        },
                    });
                }
                ChaseEvent::CoreRetracted {
                    before,
                    after,
                    match_stats,
                    ..
                } => {
                    inner.hub.emit(JobEvent {
                        job: id,
                        name: name.to_string(),
                        kind: JobEventKind::CoreRetracted {
                            before,
                            after,
                            match_nodes: match_stats.nodes,
                            fold_candidates: match_stats.candidates,
                            truncated: match_stats.truncated,
                        },
                    });
                }
            }
            std::ops::ControlFlow::Continue(())
        },
    );

    let stats = add_stats(spec.base_stats, res.stats);
    // Final snapshot: a terminated run's instance is a universal model,
    // so queries over it are complete from here on.
    let final_snapshot = if res.outcome.terminated() {
        Snapshot::terminal(
            vocab.clone(),
            res.final_instance.clone(),
            stats.applications as u64,
        )
    } else {
        Snapshot::live(
            vocab.clone(),
            res.final_instance.clone(),
            stats.applications as u64,
        )
    };
    inner.snapshots.publish(id, final_snapshot);
    let queries = spec
        .queries
        .iter()
        .map(|(qname, q)| {
            let verdict = if maps_to(q, &res.final_instance) {
                QueryVerdict::EntailedCertified
            } else if res.outcome.terminated() {
                QueryVerdict::NotEntailedCertified
            } else {
                QueryVerdict::Inconclusive
            };
            (qname.clone(), verdict)
        })
        .collect();
    let checkpoint = if res.outcome.resumable() {
        Some(Checkpoint::capture(
            spec,
            &vocab,
            &res.final_instance,
            stats,
        ))
    } else {
        None
    };
    Ok(JobResult {
        outcome: res.outcome,
        stats,
        final_instance: res.final_instance,
        final_vocab: vocab,
        queries,
        checkpoint,
        wall_ms: started.elapsed().as_millis() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_engine::{ChaseConfig, ChaseVariant, FaultPlan, FaultSite};

    fn transitive_spec(name: &str, cfg: ChaseConfig) -> JobSpec {
        JobSpec::from_text(
            name,
            "r(a, b). r(b, c). r(c, d). T: r(X, Y), r(Y, Z) -> r(X, Z). \
             Q: ?- r(a, d).",
            cfg,
        )
        .unwrap()
    }

    fn fast_retry_config() -> ServiceConfig {
        ServiceConfig {
            retry_backoff: Duration::ZERO,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn submit_wait_and_query_verdicts() {
        let svc = Service::start(2);
        let id = svc.submit(transitive_spec(
            "t",
            ChaseConfig::variant(ChaseVariant::Restricted),
        ));
        assert_eq!(svc.wait(id), Some(JobStatus::Finished));
        let (outcome, verdicts) = svc
            .with_result(id, |r| (r.outcome, r.queries.clone()))
            .unwrap();
        assert!(outcome.terminated());
        assert_eq!(
            verdicts,
            vec![("Q".to_string(), QueryVerdict::EntailedCertified)]
        );
    }

    #[test]
    fn queued_job_can_be_cancelled_before_running() {
        // One worker, keep it busy with a long job so the second one
        // sits in the queue when we cancel it.
        let svc = Service::start(1);
        let busy = svc.submit(JobSpec::from_kb(
            "busy",
            chase_core::KnowledgeBase::staircase(),
            ChaseConfig::variant(ChaseVariant::Oblivious).with_max_applications(50_000),
        ));
        let victim = svc.submit(transitive_spec(
            "victim",
            ChaseConfig::variant(ChaseVariant::Restricted),
        ));
        assert!(svc.cancel(victim));
        assert_eq!(svc.status(victim), Some(JobStatus::Cancelled));
        assert!(svc.cancel(busy));
        assert_eq!(svc.wait(busy), Some(JobStatus::Cancelled));
        // The pool is still healthy after the cancellations.
        let id = svc.submit(transitive_spec(
            "after",
            ChaseConfig::variant(ChaseVariant::Restricted),
        ));
        assert_eq!(svc.wait(id), Some(JobStatus::Finished));
    }

    #[test]
    fn budget_exhaustion_yields_checkpoint_and_inconclusive_query() {
        let svc = Service::start(1);
        let id = svc.submit(transitive_spec(
            "cut",
            ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(1),
        ));
        assert_eq!(svc.wait(id), Some(JobStatus::Finished));
        let res = svc.take_result(id).unwrap();
        assert_eq!(res.outcome, ChaseOutcome::ApplicationBudgetExhausted);
        let ck = res.checkpoint.expect("budget exhaustion is resumable");
        assert!(ck.exact());
        // The lone query did not certify either way at the cut.
        assert!(
            res.queries
                .iter()
                .any(|(_, v)| *v == QueryVerdict::Inconclusive)
                || res
                    .queries
                    .iter()
                    .any(|(_, v)| *v == QueryVerdict::EntailedCertified)
        );
    }

    #[test]
    fn events_cover_the_job_lifecycle() {
        let svc = Service::start(1);
        let rx = svc.events();
        let id = svc.submit(transitive_spec(
            "ev",
            ChaseConfig::variant(ChaseVariant::Restricted),
        ));
        svc.wait(id);
        let mut saw_queued = false;
        let mut saw_started = false;
        let mut saw_step = false;
        let mut saw_finished = false;
        while let Some(ev) = rx.try_recv() {
            assert_eq!(ev.job, id);
            match ev.kind {
                JobEventKind::Queued => saw_queued = true,
                JobEventKind::Started => saw_started = true,
                JobEventKind::StepApplied { .. } => saw_step = true,
                JobEventKind::Finished { status, .. } => {
                    assert_eq!(status, JobStatus::Finished);
                    saw_finished = true;
                }
                _ => {}
            }
        }
        assert!(saw_queued && saw_started && saw_step && saw_finished);
    }

    #[test]
    fn failed_source_marks_job_failed_not_pool() {
        let svc = Service::start(1);
        // from_text fails eagerly, so a Failed entry can only come from
        // the worker; simulate by submitting a fine job after a burst.
        let ids: Vec<_> = (0..4)
            .map(|i| {
                svc.submit(transitive_spec(
                    &format!("j{i}"),
                    ChaseConfig::variant(ChaseVariant::Core),
                ))
            })
            .collect();
        for id in ids {
            assert_eq!(svc.wait(id), Some(JobStatus::Finished));
        }
        assert_eq!(svc.list().len(), 4);
    }

    #[test]
    fn injected_crash_is_retried_from_the_last_checkpoint() {
        let svc = Service::with_config(1, fast_retry_config()).unwrap();
        let rx = svc.events();
        let clean = transitive_spec("clean", ChaseConfig::variant(ChaseVariant::Restricted));
        let crashing = transitive_spec(
            "crashy",
            ChaseConfig::variant(ChaseVariant::Restricted)
                .with_fault(FaultPlan::new(vec![FaultSite::Application(2)])),
        )
        .with_checkpoint_every(1);
        let cid = svc.submit(clean);
        assert_eq!(svc.wait(cid), Some(JobStatus::Finished));
        let clean_res = svc.take_result(cid).unwrap();

        let id = svc.submit(crashing);
        assert_eq!(svc.wait(id), Some(JobStatus::Finished));
        let res = svc.take_result(id).unwrap();
        assert!(res.outcome.terminated());
        // The derivation converged to the same closure as the clean run,
        // and the stats stayed monotone across the crash (the retried
        // slice continued from application 1, it did not recount it).
        assert!(
            chase_homomorphism::isomorphism(&res.final_instance, &clean_res.final_instance)
                .is_some()
        );
        assert_eq!(res.stats.applications, clean_res.stats.applications);
        let crashes: Vec<(usize, bool)> = std::iter::from_fn(|| rx.try_recv())
            .filter_map(|ev| match ev.kind {
                JobEventKind::Crashed {
                    attempt, retrying, ..
                } if ev.job == id => Some((attempt, retrying)),
                _ => None,
            })
            .collect();
        assert_eq!(crashes, vec![(1, true)]);
    }

    #[test]
    fn crash_before_any_checkpoint_restarts_from_scratch() {
        let svc = Service::with_config(1, fast_retry_config()).unwrap();
        // No checkpoint interval: the crash at application #1 happens
        // before any checkpoint exists, so the retry re-runs the slice.
        let id = svc.submit(transitive_spec(
            "early",
            ChaseConfig::variant(ChaseVariant::Restricted)
                .with_fault(FaultPlan::new(vec![FaultSite::Application(1)])),
        ));
        assert_eq!(svc.wait(id), Some(JobStatus::Finished));
        let res = svc.take_result(id).unwrap();
        assert!(res.outcome.terminated());
        assert_eq!(
            res.queries,
            vec![("Q".to_string(), QueryVerdict::EntailedCertified)]
        );
    }

    #[test]
    fn retries_exhausted_degrades_to_failed_with_checkpoint() {
        let svc = Service::with_config(
            1,
            ServiceConfig {
                max_retries: 1,
                retry_backoff: Duration::ZERO,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let rx = svc.events();
        // The plan kills applications #2 and #3: the first run dies at
        // its second application, the retry (resuming after checkpoint
        // apps=1) dies at its first — which is global application #3.
        let id = svc.submit(
            transitive_spec(
                "doomed",
                ChaseConfig::variant(ChaseVariant::Restricted).with_fault(FaultPlan::new(vec![
                    FaultSite::Application(2),
                    FaultSite::Application(3),
                ])),
            )
            .with_checkpoint_every(1),
        );
        assert_eq!(svc.wait(id), Some(JobStatus::Failed));
        // The last periodic checkpoint survives the degradation.
        let ck = svc.checkpoint_of(id).expect("checkpoint retrievable");
        assert!(ck.stats.applications >= 1);
        assert!(ck.into_spec().is_ok());
        let kinds: Vec<bool> = std::iter::from_fn(|| rx.try_recv())
            .filter_map(|ev| match ev.kind {
                JobEventKind::Crashed { retrying, .. } => Some(retrying),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![true, false]);
    }

    #[test]
    fn unobserved_event_buffer_drops_oldest_and_counts() {
        let svc = Service::with_config(
            1,
            ServiceConfig {
                event_capacity: 4,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        // No subscriber: a job emitting more than 4 events must drop its
        // oldest ones instead of growing or blocking the worker.
        let id = svc.submit(transitive_spec(
            "noisy",
            ChaseConfig::variant(ChaseVariant::Restricted),
        ));
        assert_eq!(svc.wait(id), Some(JobStatus::Finished));
        let rows = svc.list();
        assert_eq!(rows.len(), 1);
        assert!(
            rows[0].events_dropped > 0,
            "expected drops, got {}",
            rows[0].events_dropped
        );
        // A late subscriber starts clean and still sees future events.
        let rx = svc.events();
        assert!(rx.try_recv().is_none());
        let id2 = svc.submit(transitive_spec(
            "late",
            ChaseConfig::variant(ChaseVariant::Restricted),
        ));
        svc.wait(id2);
        assert!(rx.try_recv().is_some());
    }

    /// A job that spins long enough to still be running when the test
    /// acts on it (cancellation cuts it at a trigger boundary).
    fn heavyweight(name: &str) -> JobSpec {
        JobSpec::from_kb(
            name,
            chase_core::KnowledgeBase::staircase(),
            ChaseConfig::variant(ChaseVariant::Oblivious).with_max_applications(500_000),
        )
    }

    #[test]
    fn full_queue_sheds_with_structured_rejection() {
        let svc = Service::with_config(
            1,
            ServiceConfig {
                max_queue: Some(2),
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        // Occupy the single worker so submissions pile up in the queue.
        let busy = svc.submit(heavyweight("busy"));
        while svc.status(busy) == Some(JobStatus::Queued) {
            std::thread::yield_now();
        }
        let a = svc.try_submit(transitive_spec(
            "a",
            ChaseConfig::variant(ChaseVariant::Restricted),
        ));
        let b = svc.try_submit(transitive_spec(
            "b",
            ChaseConfig::variant(ChaseVariant::Restricted),
        ));
        assert!(a.is_ok() && b.is_ok());
        let shed = svc
            .try_submit(transitive_spec(
                "c",
                ChaseConfig::variant(ChaseVariant::Restricted),
            ))
            .unwrap_err();
        assert_eq!(shed.reason, RejectReason::QueueFull);
        assert!(shed.retry_after.is_some());
        assert!(shed.message.contains("2/2"));
        svc.cancel(busy);
    }

    #[test]
    fn submitter_quota_limits_live_jobs_per_tag() {
        let svc = Service::with_config(
            1,
            ServiceConfig {
                submitter_quota: Some(1),
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let first = svc
            .try_submit(heavyweight("first").with_submitter("alice"))
            .unwrap();
        let over = svc
            .try_submit(heavyweight("second").with_submitter("alice"))
            .unwrap_err();
        assert_eq!(over.reason, RejectReason::QuotaExceeded);
        assert!(over.message.contains("alice"));
        // A different (or absent) tag is unaffected.
        assert!(svc
            .try_submit(heavyweight("other").with_submitter("bob"))
            .is_ok());
        assert!(svc.try_submit(heavyweight("untagged")).is_ok());
        // Quota frees up once the job is terminal.
        svc.cancel(first);
        assert_eq!(svc.wait(first), Some(JobStatus::Cancelled));
        assert!(svc
            .try_submit(heavyweight("third").with_submitter("alice"))
            .is_ok());
    }

    #[test]
    fn high_priority_probe_overtakes_queued_heavyweights() {
        let svc = Service::start(1);
        let busy = svc.submit(heavyweight("busy"));
        while svc.status(busy) == Some(JobStatus::Queued) {
            std::thread::yield_now();
        }
        // Two heavyweights queued ahead of a small high-priority probe.
        let heavy1 = svc.submit(heavyweight("heavy1"));
        let heavy2 = svc.submit(heavyweight("heavy2"));
        let probe = svc.submit(
            transitive_spec("probe", ChaseConfig::variant(ChaseVariant::Restricted))
                .with_priority(Priority::High),
        );
        // Free the worker: the probe must be picked before the queued
        // heavyweights, so it finishes while they are still queued.
        svc.cancel(busy);
        assert_eq!(svc.wait(probe), Some(JobStatus::Finished));
        assert!(
            svc.status(heavy1) != Some(JobStatus::Finished)
                && svc.status(heavy2) != Some(JobStatus::Finished),
            "the probe overtook the heavyweights"
        );
        svc.cancel(heavy1);
        svc.cancel(heavy2);
    }

    #[test]
    fn wait_timeout_reports_nonterminal_status_and_recovers() {
        let svc = Service::start(1);
        let id = svc.submit(heavyweight("slowpoke"));
        match svc.wait_timeout(id, Some(Duration::from_millis(50))) {
            WaitResult::TimedOut(s) => {
                assert!(!s.is_terminal());
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
        assert_eq!(svc.wait_timeout(999, None), WaitResult::Unknown);
        svc.cancel(id);
        assert_eq!(
            svc.wait_timeout(id, Some(Duration::from_secs(30))),
            WaitResult::Terminal(JobStatus::Cancelled)
        );
    }

    #[test]
    fn drain_cancels_queued_checkpoints_running_and_stops_admitting() {
        let svc = Service::start(1);
        let running = svc.submit(heavyweight("running"));
        while svc.status(running) == Some(JobStatus::Queued) {
            std::thread::yield_now();
        }
        let queued = svc.submit(heavyweight("queued"));
        let report = svc.drain(Some(Duration::from_secs(30)));
        assert_eq!(report.cancelled_queued, 1);
        assert_eq!(report.checkpointed, 1, "the running slice checkpointed");
        assert_eq!(report.timed_out, 0);
        assert_eq!(svc.status(queued), Some(JobStatus::Cancelled));
        assert_eq!(svc.status(running), Some(JobStatus::Cancelled));
        assert!(
            svc.checkpoint_of(running).is_some(),
            "drained slice left a resume checkpoint"
        );
        // Drained means closed for business, but still answering.
        let shed = svc.try_submit(heavyweight("late")).unwrap_err();
        assert_eq!(shed.reason, RejectReason::Draining);
        assert!(shed.retry_after.is_none());
        assert_eq!(svc.list().len(), 2);
    }

    #[test]
    fn submit_analyzed_applies_strategy_and_tightens_budgets() {
        let svc = Service::with_config(
            1,
            ServiceConfig {
                analysis_probe: 80,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let mut spec = JobSpec::from_kb(
            "auto",
            chase_core::KnowledgeBase::staircase(),
            ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(50_000),
        );
        spec.auto_strategy = true;
        spec.auto_budgets = true;
        let (id, admission) = svc.submit_analyzed(spec).unwrap();
        // The staircase: termination refuted, core width plateaus — the
        // plan recommends the core variant and the cost model prices the
        // job off its core-bts certificate.
        assert!(admission.strategy_applied);
        assert!(admission.budgets_tightened);
        let gate = admission.gate.as_ref().expect("auto submits run the gate");
        assert_eq!(
            gate.plan.recommended_variant(),
            chase_engine::ChaseVariant::Core
        );
        assert!(!gate.plan.strata.is_empty());
        assert_eq!(gate.cost_class, chase_analysis::CostClass::BoundedWidth);
        assert_eq!(gate.provenance, "core-width-probe");
        assert!(
            gate.envelope.max_apps < 50_000,
            "envelope lowers the pinned ceiling"
        );
        assert_eq!(svc.wait(id), Some(JobStatus::Finished));
        let apps = svc.with_result(id, |r| r.stats.applications).unwrap();
        assert!(apps <= gate.envelope.max_apps);
    }

    #[test]
    fn strict_admission_sheds_refuted_rulesets() {
        // A probe too short for any width plateau: every decidability
        // route of the staircase ruleset stays refuted-or-unknown.
        let strict = Service::with_config(
            1,
            ServiceConfig {
                strict_admission: true,
                analysis_probe: 8,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let spec = || {
            JobSpec::from_kb(
                "refuted",
                chase_core::KnowledgeBase::staircase(),
                ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(10),
            )
        };
        let shed = strict.submit_analyzed(spec()).unwrap_err();
        assert_eq!(shed.reason, RejectReason::AnalysisRefuted);
        assert!(shed.retry_after.is_none());
        assert!(shed.message.contains("refuted"));
        // The same submission is admitted without strict admission —
        // and because it pins both variant and budget, the lax path
        // skips the probe entirely (fully-pinned admission stays flat).
        let lax = Service::with_config(
            1,
            ServiceConfig {
                analysis_probe: 8,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let (id, admission) = lax.submit_analyzed(spec()).unwrap();
        assert!(admission.gate.is_none());
        assert_eq!(lax.wait(id), Some(JobStatus::Finished));
        // … and under strict admission with the production probe, the
        // core-width plateau keeps the staircase admissible.
        let strict_long = Service::with_config(
            1,
            ServiceConfig {
                strict_admission: true,
                analysis_probe: 80,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let (id, admission) = strict_long.submit_analyzed(spec()).unwrap();
        assert!(admission
            .gate
            .expect("strict admission runs the gate")
            .admissible());
        assert_eq!(strict_long.wait(id), Some(JobStatus::Finished));
    }

    #[test]
    fn high_arity_blowup_does_not_stall_admission() {
        // The critical instance of this ruleset would hold ~9^8 (~43M)
        // atoms; the capped construction must refuse it up front so the
        // synchronous submit path stays responsive. The r-cycle keeps
        // the ruleset outside every acyclicity class, so the verdict
        // really does fall through to the capped dynamic tests.
        let svc = Service::with_config(1, ServiceConfig::default()).unwrap();
        let kb = chase_core::KnowledgeBase::from_text(
            "seed(a). R: r(X, Y), p(a, b, c, d, e, f, g, h) -> r(Y, Z).",
        )
        .unwrap();
        let mut spec = JobSpec::from_kb(
            "wide",
            kb,
            ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(10),
        );
        spec.auto_budgets = true;
        let started = Instant::now();
        let (id, admission) = svc.submit_analyzed(spec).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "admission must not materialize the critical instance"
        );
        let gate = admission.gate.expect("auto submits run the gate");
        // No certificate and no refutation — the test gave up, it did
        // not guess.
        assert!(gate.report.terminating.is_inconclusive());
        assert_eq!(svc.wait(id), Some(JobStatus::Finished));
    }

    #[test]
    fn expired_analysis_deadline_yields_no_signal_not_refutation() {
        // With the analysis deadline already spent, the probe chases are
        // cut immediately: short profiles must read as "unobserved", and
        // the gate must not fabricate a width-divergence refutation.
        let svc = Service::with_config(
            1,
            ServiceConfig {
                analysis_deadline: Some(Duration::ZERO),
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let mut spec = JobSpec::from_kb(
            "rushed",
            chase_core::KnowledgeBase::staircase(),
            ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(10),
        );
        spec.auto_strategy = true;
        let (id, admission) = svc.submit_analyzed(spec).unwrap();
        let gate = admission.gate.expect("auto submits run the gate");
        assert!(gate.evidence.restricted_width.plateau().is_none());
        assert!(!gate.evidence.restricted_width.is_climbing());
        assert!(!gate.evidence.core_width.is_climbing());
        assert!(
            !gate.report.bts.is_refuted() && !gate.report.core_bts.is_refuted(),
            "an interrupted probe is no evidence of divergence"
        );
        assert_eq!(svc.wait(id), Some(JobStatus::Finished));
    }

    #[test]
    fn state_dir_persists_and_recovers_interrupted_jobs() {
        let dir = std::env::temp_dir().join(format!("treechase-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = || ServiceConfig {
            state_dir: Some(dir.clone()),
            retry_backoff: Duration::ZERO,
            checkpoint_every: Some(1),
            ..ServiceConfig::default()
        };
        // First service: the job exhausts its 1-application budget
        // mid-derivation, so its final checkpoint stays on disk.
        {
            let svc = Service::with_config(1, cfg()).unwrap();
            let id = svc.submit(transitive_spec(
                "durable",
                ChaseConfig::variant(ChaseVariant::Restricted).with_max_applications(1),
            ));
            assert_eq!(svc.wait(id), Some(JobStatus::Finished));
            let apps = svc.with_result(id, |r| r.stats.applications).unwrap();
            assert_eq!(apps, 1);
            svc.shutdown();
        }
        // Second service on the same dir: the checkpoint comes back as a
        // queued job continuing the same derivation.
        {
            let svc = Service::with_config(1, cfg()).unwrap();
            assert!(svc.recovery_errors().is_empty());
            let recovered = svc.recovered_jobs().to_vec();
            assert_eq!(recovered.len(), 1);
            let id = recovered[0];
            assert_eq!(svc.wait(id), Some(JobStatus::Finished));
            // The recovered slice had 0 of its 1-application target left
            // (budget totals persist), so it stopped immediately but
            // stayed resumable — no fresh budget out of thin air.
            let (outcome, apps) = svc
                .with_result(id, |r| (r.outcome, r.stats.applications))
                .unwrap();
            assert_eq!(outcome, ChaseOutcome::ApplicationBudgetExhausted);
            assert_eq!(apps, 1, "monotone: prefix counted once, no rerun");
            svc.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
