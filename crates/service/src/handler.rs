//! The one client-request handler shared by every transport.
//!
//! `treechase serve` (JSONL over stdin/stdout) and the cluster
//! coordinator (length-prefixed frames over TCP) answer the same client
//! ops. [`handle`] owns everything about them that does not depend on
//! where jobs run: building the job spec from a `submit` or `resume`,
//! resolving a query's target, and rendering the `response`, `error`
//! and `rejected` replies. A [`Backend`] is the job table the ops run
//! against — [`Service`] in-process, the coordinator's leased table in
//! the cluster — and renders only the replies whose fields genuinely
//! differ between the two (`status`, `wait`, `list`, `drain`). A
//! transport is then a thin shell: read a request, call [`handle`],
//! write the reply.

use std::time::Duration;

use chase_core::KnowledgeBase;
use chase_engine::ChaseConfig;

use crate::checkpoint::{Checkpoint, DecodedCheckpoint};
use crate::job::{JobId, JobSpec};
use crate::json::Json;
use crate::protocol::{
    analysis_to_json, named_kb, query_reply_to_json, rejection_to_json, result_to_json,
    status_name, Request,
};
use crate::runner::{
    Admission, DrainReport, QueryError, QueryReply, Rejection, Service, WaitResult,
};

/// Largest request any transport accepts: one `serve` line or one
/// cluster frame. Checked before the request is buffered.
pub const MAX_FRAME: usize = 64 << 20;

/// The fields of a reply after its `type` and `op`.
pub type Fields = Vec<(String, Json)>;

/// Why a backend did not carry out an op.
#[derive(Clone, Debug)]
pub enum Refusal {
    /// Shed by admission control; answered with a `rejected` reply.
    Rejected(Rejection),
    /// The op failed; answered with an `error` reply.
    Failed(String),
}

impl From<Rejection> for Refusal {
    fn from(rej: Rejection) -> Refusal {
        Refusal::Rejected(rej)
    }
}

impl From<String> for Refusal {
    fn from(message: String) -> Refusal {
        Refusal::Failed(message)
    }
}

impl From<QueryError> for Refusal {
    fn from(e: QueryError) -> Refusal {
        match e {
            QueryError::Rejected(rej) => Refusal::Rejected(rej),
            other => Refusal::Failed(other.to_string()),
        }
    }
}

/// A job table that client ops run against.
///
/// A new client op is parsed in [`crate::protocol::parse_request`] and
/// answered in [`handle`]; it needs a method here only if it touches
/// the job table.
pub trait Backend: Send + Sync {
    /// Admits a new job: admission gate, queue limits, enqueue. An
    /// empty name becomes `job-<id>` where the id is minted.
    fn admit(&self, spec: JobSpec) -> Result<(JobId, Admission), Refusal>;
    /// Enqueues a continuation built from a checkpoint: `spec` is the
    /// job, `start` its checkpoint before the first application (the
    /// received program text with `spec`'s budgets).
    fn resume(&self, start: Checkpoint, spec: JobSpec) -> Result<JobId, Refusal>;
    /// Requests cancellation; `false` when there was nothing to cancel.
    fn cancel_job(&self, job: JobId) -> Result<bool, String>;
    /// The job's most recent checkpoint.
    fn checkpoint(&self, job: JobId) -> Result<Checkpoint, String>;
    /// Answers a query from the job's newest snapshot.
    fn answer_job(
        &self,
        job: JobId,
        query: &str,
        node_limit: Option<usize>,
        timeout: Option<Duration>,
    ) -> Result<QueryReply, Refusal>;
    /// Answers a query by a budgeted chase of an ad-hoc KB.
    fn answer_kb(
        &self,
        kb: &KnowledgeBase,
        cfg: &ChaseConfig,
        query: &str,
        node_limit: Option<usize>,
        timeout: Option<Duration>,
    ) -> Result<QueryReply, Refusal>;
    /// The fields of a `status` reply.
    fn status_reply(&self, job: JobId) -> Result<Fields, String>;
    /// Blocks until the job is terminal or `timeout` (default: the
    /// backend's operation deadline) expires; the fields of the `wait`
    /// reply.
    fn wait_reply(&self, job: JobId, timeout: Option<Duration>) -> Result<Fields, String>;
    /// The fields of a `list` reply.
    fn list_reply(&self) -> Fields;
    /// Drains the backend; the fields of the `drain` reply.
    fn drain_reply(&self) -> Fields;
    /// Starts shutting down without blocking: the `shutdown` reply is
    /// written after this returns.
    fn request_shutdown(&self);
}

/// Answers one client request against `backend`.
pub fn handle(backend: &dyn Backend, req: Request) -> Json {
    let reply = match req {
        Request::Submit {
            name,
            source,
            kb,
            config,
            tw_sample_interval,
            progress_every,
            checkpoint_every,
            priority,
            submitter,
            auto_strategy,
            auto_budgets,
        } => {
            let spec = match (source, kb) {
                (Some(src), None) => JobSpec::from_text(name.unwrap_or_default(), &src, *config),
                // An unnamed KB submit is named after the KB.
                (None, Some(kb_name)) => named_kb(&kb_name).map(|base| {
                    let name = name.filter(|n| !n.is_empty()).unwrap_or(kb_name);
                    JobSpec::from_kb(name, base, *config)
                }),
                // parse_request enforces exactly-one; keep a defensive
                // error for in-process callers.
                _ => Err("submit takes exactly one of `source` / `kb`".to_string()),
            };
            spec.and_then(|mut spec| {
                if let Some(every) = tw_sample_interval {
                    spec = spec.with_tw_samples(every);
                }
                if let Some(every) = progress_every {
                    spec = spec.with_progress_every(every);
                }
                if let Some(every) = checkpoint_every {
                    spec = spec.with_checkpoint_every(every);
                }
                spec.priority = priority;
                spec.submitter = submitter;
                spec.auto_strategy = auto_strategy;
                spec.auto_budgets = auto_budgets;
                submit(backend, spec)
            })
        }
        Request::Resume {
            checkpoint,
            max_applications,
            max_wall_ms,
        } => {
            let exact = (
                "exact".to_string(),
                Json::Bool(checkpoint.checkpoint().exact()),
            );
            let (start, spec) = resume_job(*checkpoint, max_applications, max_wall_ms);
            backend
                .resume(start, spec)
                .map(|id| response("resume", vec![job_field(id), exact]))
                .or_else(|r| refused("resume", r))
        }
        Request::Cancel { job } => backend.cancel_job(job).map(|cancelled| {
            response(
                "cancel",
                vec![
                    job_field(job),
                    ("cancelled".to_string(), Json::Bool(cancelled)),
                ],
            )
        }),
        Request::Status { job } => backend
            .status_reply(job)
            .map(|fields| response("status", fields)),
        Request::Wait { job, timeout_ms } => backend
            .wait_reply(job, timeout_ms.map(Duration::from_millis))
            .map(|fields| response("wait", fields)),
        Request::Checkpoint { job } => backend.checkpoint(job).map(|ck| {
            response(
                "checkpoint",
                vec![job_field(job), ("checkpoint".to_string(), ck.to_json())],
            )
        }),
        Request::Query {
            job,
            kb,
            source,
            query,
            config,
            node_limit,
            timeout_ms,
        } => {
            let timeout = timeout_ms.map(Duration::from_millis);
            let answered = match (job, kb, source) {
                (Some(id), None, None) => backend.answer_job(id, &query, node_limit, timeout),
                (None, Some(kb_name), None) => named_kb(&kb_name)
                    .map_err(Refusal::Failed)
                    .and_then(|base| {
                        backend.answer_kb(&base, &config, &query, node_limit, timeout)
                    }),
                (None, None, Some(src)) => JobSpec::from_text(String::new(), &src, *config)
                    .map_err(Refusal::Failed)
                    .and_then(|spec| {
                        backend.answer_kb(&spec.kb, &spec.config, &query, node_limit, timeout)
                    }),
                // parse_request enforces exactly-one; keep a defensive
                // error for in-process callers.
                _ => Err(Refusal::Failed(
                    "query takes exactly one of `job` / `kb` / `source`".to_string(),
                )),
            };
            answered
                .map(|reply| query_reply_to_json(&reply))
                .or_else(|r| refused("query", r))
        }
        Request::List => Ok(response("list", backend.list_reply())),
        Request::Drain => Ok(response("drain", backend.drain_reply())),
        Request::Shutdown => {
            backend.request_shutdown();
            Ok(response("shutdown", Vec::new()))
        }
    };
    reply.unwrap_or_else(|message| error(&message))
}

/// Admits `spec` and renders the `submit` reply. A submit that went
/// through the admission gate carries its analysis; a fully pinned one
/// skipped the gate and carries none.
fn submit(backend: &dyn Backend, spec: JobSpec) -> Result<Json, String> {
    let rules = spec.kb.rules.clone();
    match backend.admit(spec) {
        Ok((id, admission)) => {
            let mut fields = vec![job_field(id)];
            if let Some(gate) = &admission.gate {
                fields.push(("analysis".to_string(), analysis_to_json(gate, &rules)));
                fields.push((
                    "strategy_applied".to_string(),
                    Json::Bool(admission.strategy_applied),
                ));
                fields.push((
                    "budgets_tightened".to_string(),
                    Json::Bool(admission.budgets_tightened),
                ));
            }
            Ok(response("submit", fields))
        }
        Err(r) => refused("submit", r),
    }
}

/// Builds the job a `resume` request starts, and the checkpoint it
/// starts from. By default the new slice continues the derivation's
/// remaining budgets; an explicit budget on the request replaces the
/// corresponding carry-over with a fresh one.
fn resume_job(
    checkpoint: DecodedCheckpoint,
    max_applications: Option<usize>,
    max_wall_ms: Option<u64>,
) -> (Checkpoint, JobSpec) {
    let (received, mut spec) = checkpoint.into_parts();
    if let Some(n) = max_applications {
        spec.config.max_applications = n;
    }
    if let Some(ms) = max_wall_ms {
        spec.config.max_wall = Some(Duration::from_millis(ms));
        // A fresh wall budget starts from zero; without this the new
        // slice would still be charged for the prefix's wall time.
        spec.config.consumed_wall = Duration::ZERO;
    }
    (Checkpoint::at_start(&spec, received.program), spec)
}

/// Renders a refusal: a `rejected` reply, or an error for the caller to
/// render.
fn refused(op: &str, refusal: Refusal) -> Result<Json, String> {
    match refusal {
        Refusal::Rejected(rej) => Ok(rejection_to_json(op, &rej)),
        Refusal::Failed(message) => Err(message),
    }
}

/// The `job` field every per-job reply starts with.
pub fn job_field(job: JobId) -> (String, Json) {
    ("job".to_string(), Json::Int(job as i64))
}

/// A successful reply: `{"type":"response","op":<op>,<fields>}`.
pub fn response(op: &str, fields: Fields) -> Json {
    let mut obj = vec![
        ("type".to_string(), Json::str("response")),
        ("op".to_string(), Json::str(op)),
    ];
    obj.extend(fields);
    Json::Obj(obj)
}

/// A failed request: `{"type":"error","message":<message>}`.
pub fn error(message: &str) -> Json {
    Json::obj([
        ("type", Json::str("error")),
        ("message", Json::str(message)),
    ])
}

/// The wire rendering of a [`DrainReport`]: the `drain` reply's fields,
/// also printed on the `drained` line when `serve` drains on SIGTERM.
pub fn drain_fields(report: &DrainReport) -> Fields {
    vec![
        (
            "cancelled_queued".to_string(),
            Json::Int(report.cancelled_queued as i64),
        ),
        (
            "checkpointed".to_string(),
            Json::Int(report.checkpointed as i64),
        ),
        ("timed_out".to_string(), Json::Int(report.timed_out as i64)),
    ]
}

/// The in-process job table behind `treechase serve`.
impl Backend for Service {
    fn admit(&self, spec: JobSpec) -> Result<(JobId, Admission), Refusal> {
        Ok(self.submit_analyzed(spec)?)
    }

    fn resume(&self, _start: Checkpoint, spec: JobSpec) -> Result<JobId, Refusal> {
        Ok(self.try_submit(spec)?)
    }

    fn cancel_job(&self, job: JobId) -> Result<bool, String> {
        Ok(self.cancel(job))
    }

    fn checkpoint(&self, job: JobId) -> Result<Checkpoint, String> {
        // Falls back from the final result's checkpoint to the last
        // periodic capture, so even a job that crashed out past its
        // retry budget hands back its durable progress.
        self.checkpoint_of(job)
            .ok_or_else(|| format!("job {job} has no checkpoint"))
    }

    fn answer_job(
        &self,
        job: JobId,
        query: &str,
        node_limit: Option<usize>,
        timeout: Option<Duration>,
    ) -> Result<QueryReply, Refusal> {
        Ok(self.query_job(job, query, node_limit, timeout)?)
    }

    fn answer_kb(
        &self,
        kb: &KnowledgeBase,
        cfg: &ChaseConfig,
        query: &str,
        node_limit: Option<usize>,
        timeout: Option<Duration>,
    ) -> Result<QueryReply, Refusal> {
        Ok(self.query_kb(kb, cfg, query, node_limit, timeout)?)
    }

    fn status_reply(&self, job: JobId) -> Result<Fields, String> {
        let status = self
            .status(job)
            .ok_or_else(|| format!("unknown job {job}"))?;
        Ok(vec![
            job_field(job),
            ("status".to_string(), Json::str(status_name(&status))),
        ])
    }

    fn wait_reply(&self, job: JobId, timeout: Option<Duration>) -> Result<Fields, String> {
        let (status, timed_out) = match self.wait_timeout(job, timeout) {
            WaitResult::Terminal(s) => (s, false),
            WaitResult::TimedOut(s) => (s, true),
            WaitResult::Unknown => return Err(format!("unknown job {job}")),
        };
        let mut fields = vec![
            job_field(job),
            ("status".to_string(), Json::str(status_name(&status))),
            ("timed_out".to_string(), Json::Bool(timed_out)),
        ];
        if !timed_out {
            let name = self
                .list()
                .into_iter()
                .find(|r| r.id == job)
                .map(|r| r.name)
                .unwrap_or_default();
            if let Some(r) = self.with_result(job, |r| result_to_json(job, &name, r)) {
                fields.push(("result".to_string(), r));
            }
        }
        Ok(fields)
    }

    fn list_reply(&self) -> Fields {
        let jobs = self
            .list()
            .into_iter()
            .map(|r| {
                Json::obj([
                    ("job", Json::Int(r.id as i64)),
                    ("name", Json::str(&r.name)),
                    ("status", Json::str(status_name(&r.status))),
                    ("events_dropped", Json::Int(r.events_dropped as i64)),
                    ("queries_served", Json::Int(r.queries_served as i64)),
                    (
                        "snapshot_age_ms",
                        r.snapshot_age_ms
                            .map_or(Json::Null, |ms| Json::Int(ms as i64)),
                    ),
                ])
            })
            .collect();
        vec![("jobs".to_string(), Json::Arr(jobs))]
    }

    fn drain_reply(&self) -> Fields {
        drain_fields(&self.drain(None))
    }

    /// Nothing to start: `serve` shuts the service down after writing
    /// the reply, because [`Service::shutdown`] joins the workers.
    fn request_shutdown(&self) {}
}
