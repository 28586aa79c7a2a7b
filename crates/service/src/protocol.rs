//! The JSONL wire protocol: requests, responses and progress events.
//!
//! Every line on the wire is one JSON object. Clients send *requests*
//! (`{"op": ...}`); the service answers each request with exactly one
//! *response* (`{"type":"response"|"error", ...}`) and interleaves
//! asynchronous *events* (`{"type":"event", ...}`) for job progress. The
//! schema is documented in the README section "Running as a service".

use std::time::Duration;

use chase_analysis::{
    BudgetEnvelope, Certificate, KBoundedOutcome, Refutation, RulesetReport, Verdict,
    WidthObservation,
};
use chase_core::AnalysisGate;
use chase_engine::{
    ChaseConfig, ChaseOutcome, ChaseStats, ChaseVariant, FaultPlan, FaultSite, RuleSet,
    SchedulerKind, SuspendReason,
};

use crate::job::{JobId, JobResult, JobStatus, Priority, QueryVerdict};
use crate::json::Json;
use crate::runner::{JobEvent, JobEventKind};

/// A client request, one per input line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Submit a new job from program text or a named built-in KB.
    Submit {
        /// Display name (defaults to `job-<id>`).
        name: Option<String>,
        /// KB source in the `chase-parser` syntax (facts, rules,
        /// queries). Exactly one of `source` / `kb` must be present.
        source: Option<String>,
        /// Name of a built-in knowledge base (see [`named_kb`]).
        kb: Option<String>,
        /// Chase configuration (boxed: it dominates the enum's size).
        config: Box<ChaseConfig>,
        /// Emit a `tw_sample` event every this many applications.
        tw_sample_interval: Option<usize>,
        /// Emit a `step` event every this many applications (default 1).
        progress_every: Option<usize>,
        /// Capture/persist a checkpoint every this many applications
        /// (defaults to the service-level interval).
        checkpoint_every: Option<usize>,
        /// Scheduling priority (defaults to normal).
        priority: Priority,
        /// Submitter tag, counted against the per-submitter quota.
        submitter: Option<String>,
        /// The request did not pin a `variant`: the admission analyzer
        /// may pick the chase variant and a stratified schedule.
        auto_strategy: bool,
        /// The request did not pin any budget (`max_apps` /
        /// `max_wall_ms`): the analyzer may tighten the defaults when
        /// it positively refutes termination.
        auto_budgets: bool,
    },
    /// Resume a job from a previously returned checkpoint object.
    Resume {
        /// The checkpoint, as emitted in a `checkpoint` response field,
        /// with its program parsed.
        checkpoint: Box<crate::checkpoint::DecodedCheckpoint>,
        /// Fresh application budget for the resumed slice (defaults to
        /// the checkpointed config's budget).
        max_applications: Option<usize>,
        /// Fresh wall-clock budget in milliseconds.
        max_wall_ms: Option<u64>,
    },
    /// Request cooperative cancellation of a job.
    Cancel {
        /// The job to cancel.
        job: JobId,
    },
    /// Query the status of one job.
    Status {
        /// The job to inspect.
        job: JobId,
    },
    /// Block until a job reaches a terminal state, then report it.
    Wait {
        /// The job to wait for.
        job: JobId,
        /// Give up after this many milliseconds and report the current
        /// (possibly non-terminal) status with `"timed_out": true`.
        /// `None` falls back to the service's `--op-deadline`.
        timeout_ms: Option<u64>,
    },
    /// Fetch the checkpoint of a budget-exhausted or cancelled job.
    Checkpoint {
        /// The job whose state to serialize.
        job: JobId,
    },
    /// Answer a CQ/UCQ, either from a job's materialization snapshot or
    /// against an ad-hoc knowledge base.
    Query {
        /// Answer from this job's snapshot. Exactly one of `job` /
        /// `kb` / `source` must be present.
        job: Option<JobId>,
        /// Name of a built-in knowledge base (see [`named_kb`]) to run a
        /// synchronous budgeted chase over.
        kb: Option<String>,
        /// KB source text to run a synchronous budgeted chase over.
        source: Option<String>,
        /// The query text (`?(X, Y) :- p(X, Z), q(Z, Y) ; r(X, Y)`,
        /// `?- p(X)`, or a bare atom list).
        query: String,
        /// Chase configuration for the `kb`/`source` forms (ignored on
        /// the `job` path — the snapshot is whatever the job produced).
        config: Box<ChaseConfig>,
        /// Homomorphism-search node budget; exceeding it tags the reply
        /// `truncated`.
        node_limit: Option<usize>,
        /// Per-op deadline in milliseconds (defaults to the service's
        /// `--op-deadline`).
        timeout_ms: Option<u64>,
    },
    /// List all known jobs.
    List,
    /// Gracefully drain: stop admitting, checkpoint running slices,
    /// report, then exit the serve loop with status 0.
    Drain,
    /// Drain running jobs and exit the serve loop.
    Shutdown,
}

/// Resolves a named built-in knowledge base (`submit` with `"kb"`).
pub fn named_kb(name: &str) -> Result<chase_core::KnowledgeBase, String> {
    match name {
        "staircase" => Ok(chase_core::KnowledgeBase::staircase()),
        "elevator" => Ok(chase_core::KnowledgeBase::elevator()),
        other => Err(format!("unknown kb `{other}` (known: staircase, elevator)")),
    }
}

/// Renders a [`ChaseVariant`] for the wire.
pub fn variant_name(v: ChaseVariant) -> &'static str {
    match v {
        ChaseVariant::Oblivious => "oblivious",
        ChaseVariant::SemiOblivious => "semi-oblivious",
        ChaseVariant::Restricted => "restricted",
        ChaseVariant::Frugal => "frugal",
        ChaseVariant::Core => "core",
    }
}

/// Parses a [`ChaseVariant`] from its wire (or CLI) spelling.
pub fn parse_variant(s: &str) -> Result<ChaseVariant, String> {
    match s {
        "oblivious" => Ok(ChaseVariant::Oblivious),
        "semi" | "semi-oblivious" | "skolem" => Ok(ChaseVariant::SemiOblivious),
        "restricted" | "standard" => Ok(ChaseVariant::Restricted),
        "frugal" => Ok(ChaseVariant::Frugal),
        "core" => Ok(ChaseVariant::Core),
        other => Err(format!("unknown variant `{other}`")),
    }
}

/// Renders an outcome for the wire.
pub fn outcome_name(o: ChaseOutcome) -> &'static str {
    match o {
        ChaseOutcome::Terminated => "terminated",
        ChaseOutcome::ApplicationBudgetExhausted => "application-budget-exhausted",
        ChaseOutcome::AtomBudgetExhausted => "atom-budget-exhausted",
        ChaseOutcome::WallBudgetExhausted => "wall-budget-exhausted",
        ChaseOutcome::Stopped => "stopped",
        ChaseOutcome::Cancelled => "cancelled",
        ChaseOutcome::Suspended(SuspendReason::MemoryCeiling) => "suspended-memory-ceiling",
    }
}

/// Serializes a chase configuration (used inside checkpoints).
pub fn config_to_json(cfg: &ChaseConfig) -> Json {
    let (scheduler, seed) = match cfg.scheduler {
        SchedulerKind::Deterministic => ("deterministic", None),
        SchedulerKind::Random(s) => ("random", Some(s)),
        SchedulerKind::DatalogFirst => ("datalog-first", None),
        SchedulerKind::ExistentialLast => ("existential-last", None),
        SchedulerKind::NullAverse => ("null-averse", None),
    };
    Json::obj([
        ("variant", Json::str(variant_name(cfg.variant))),
        ("scheduler", Json::str(scheduler)),
        (
            "scheduler_seed",
            seed.map_or(Json::Null, |s| Json::Int(s as i64)),
        ),
        ("max_applications", Json::Int(cfg.max_applications as i64)),
        ("max_atoms", Json::Int(cfg.max_atoms as i64)),
        (
            "max_wall_ms",
            cfg.max_wall
                .map_or(Json::Null, |d| Json::Int(d.as_millis() as i64)),
        ),
        ("core_interval", Json::Int(cfg.core_interval as i64)),
        (
            "mem_soft",
            cfg.mem_soft.map_or(Json::Null, |n| Json::Int(n as i64)),
        ),
        (
            "mem_hard",
            cfg.mem_hard.map_or(Json::Null, |n| Json::Int(n as i64)),
        ),
        (
            "strata",
            cfg.strata.as_ref().map_or(Json::Null, |strata| {
                Json::Arr(
                    strata
                        .iter()
                        .map(|s| Json::Arr(s.iter().map(|&r| Json::Int(r as i64)).collect()))
                        .collect(),
                )
            }),
        ),
    ])
}

/// Deserializes a chase configuration.
pub fn config_from_json(v: &Json) -> Result<ChaseConfig, String> {
    let mut cfg = ChaseConfig::variant(parse_variant(v.require_str("variant")?)?);
    cfg.scheduler = match v.require_str("scheduler")? {
        "deterministic" => SchedulerKind::Deterministic,
        "random" => SchedulerKind::Random(v.require_u64("scheduler_seed")?),
        "datalog-first" => SchedulerKind::DatalogFirst,
        "existential-last" => SchedulerKind::ExistentialLast,
        "null-averse" => SchedulerKind::NullAverse,
        other => return Err(format!("unknown scheduler `{other}`")),
    };
    cfg.max_applications = v.require_u64("max_applications")? as usize;
    cfg.max_atoms = v.require_u64("max_atoms")? as usize;
    cfg.max_wall = v.opt_u64("max_wall_ms")?.map(Duration::from_millis);
    cfg.core_interval = (v.require_u64("core_interval")? as usize).max(1);
    // Older checkpoints predate the memory ceilings; absent means off.
    cfg.mem_soft = v.opt_u64("mem_soft")?.map(|n| n as usize);
    cfg.mem_hard = v.opt_u64("mem_hard")?.map(|n| n as usize);
    // Older checkpoints predate stratified schedules; absent means none
    // — a resumed job keeps the plan it was admitted under.
    cfg.strata = match v.get("strata") {
        None | Some(Json::Null) => None,
        Some(Json::Arr(strata)) => {
            let mut out = Vec::with_capacity(strata.len());
            for s in strata {
                let ids = s
                    .as_arr()
                    .ok_or_else(|| "`strata` must be an array of rule-id arrays".to_string())?;
                let mut stratum = Vec::with_capacity(ids.len());
                for id in ids {
                    let n = id
                        .as_u64()
                        .ok_or_else(|| "`strata` entries must be rule ids".to_string())?;
                    stratum.push(n as usize);
                }
                out.push(stratum);
            }
            Some(out)
        }
        Some(_) => return Err("`strata` must be an array of rule-id arrays".to_string()),
    };
    Ok(cfg)
}

/// Reads an optional count field that must be ≥ 1 when present.
/// Nonpositive budgets used to be silently clamped (or silently did
/// nothing); they are now structured errors on the reply.
fn opt_positive(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.opt_u64(key)? {
        Some(0) => Err(format!("`{key}` must be positive")),
        other => Ok(other),
    }
}

/// Reads the chase-configuration fields a `submit` request may carry
/// (all optional, defaulting to [`ChaseConfig::default`] with the core
/// variant). Nonpositive budgets and an inverted `mem_soft`/`mem_hard`
/// pair are rejected with a clear message instead of being clamped.
fn submit_config(v: &Json) -> Result<ChaseConfig, String> {
    let mut cfg = ChaseConfig::variant(ChaseVariant::Core);
    if let Some(name) = v.opt_str("variant")? {
        cfg.variant = parse_variant(name)?;
    }
    if let Some(n) = opt_positive(v, "max_apps")? {
        cfg.max_applications = n as usize;
    }
    if let Some(n) = opt_positive(v, "max_atoms")? {
        cfg.max_atoms = n as usize;
    }
    cfg.max_wall = opt_positive(v, "max_wall_ms")?.map(Duration::from_millis);
    if let Some(n) = opt_positive(v, "core_interval")? {
        cfg.core_interval = n as usize;
    }
    if let Some(seed) = v.opt_u64("scheduler_seed")? {
        cfg.scheduler = SchedulerKind::Random(seed);
    }
    if let Some(s) = v.opt_str("fault")? {
        cfg.fault = Some(parse_fault_plan(s)?);
    }
    cfg.mem_soft = opt_positive(v, "mem_soft")?.map(|n| n as usize);
    cfg.mem_hard = opt_positive(v, "mem_hard")?.map(|n| n as usize);
    if let (Some(soft), Some(hard)) = (cfg.mem_soft, cfg.mem_hard) {
        if soft > hard {
            return Err(format!(
                "`mem_soft` ({soft}) must not exceed `mem_hard` ({hard})"
            ));
        }
    }
    Ok(cfg)
}

/// Parses a fault-plan spec: comma-separated sites `app:K` / `core:K` /
/// `ckpt:K` / `mem:K` (1-based counts), `slow:K:MS` (sleep `MS`
/// milliseconds at application #K), or `rand:SEED:KILLS:HORIZON` for a
/// seeded plan of application crashes. For crash/overload testing only.
pub fn parse_fault_plan(s: &str) -> Result<FaultPlan, String> {
    let mut sites = Vec::new();
    for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let fields: Vec<&str> = part.split(':').collect();
        let parse_k = |v: &str| -> Result<usize, String> {
            let k: usize = v.parse().map_err(|e| format!("fault site `{part}`: {e}"))?;
            if k == 0 {
                return Err(format!("fault site `{part}`: counts are 1-based"));
            }
            Ok(k)
        };
        match fields.as_slice() {
            ["app", k] => sites.push(FaultSite::Application(parse_k(k)?)),
            ["core", k] => sites.push(FaultSite::CorePhase(parse_k(k)?)),
            ["ckpt", k] => sites.push(FaultSite::CheckpointWrite(parse_k(k)?)),
            ["mem", k] => sites.push(FaultSite::MemoryPressure(parse_k(k)?)),
            ["slow", k, ms] => {
                let ms: u64 = ms
                    .parse()
                    .map_err(|e| format!("fault site `{part}`: bad milliseconds: {e}"))?;
                sites.push(FaultSite::Slow(parse_k(k)?, ms));
            }
            ["rand", seed, kills, horizon] => {
                let seed: u64 = seed
                    .parse()
                    .map_err(|e| format!("fault site `{part}`: bad seed: {e}"))?;
                let kills: usize = kills
                    .parse()
                    .map_err(|e| format!("fault site `{part}`: bad kill count: {e}"))?;
                let horizon: usize = horizon
                    .parse()
                    .map_err(|e| format!("fault site `{part}`: bad horizon: {e}"))?;
                if kills == 0 {
                    return Err(format!("fault site `{part}`: kill count must be positive"));
                }
                if horizon == 0 {
                    return Err(format!("fault site `{part}`: horizon must be positive"));
                }
                if kills > horizon {
                    return Err(format!(
                        "fault site `{part}`: cannot draw {kills} kills from a horizon of {horizon}"
                    ));
                }
                sites.extend(
                    FaultPlan::seeded(seed, kills, horizon)
                        .sites()
                        .iter()
                        .copied(),
                );
            }
            ["rand", ..] => {
                return Err(format!(
                    "fault site `{part}`: rand takes exactly SEED:KILLS:HORIZON"
                ))
            }
            _ => {
                return Err(format!(
                    "fault site `{part}`: expected app:K, core:K, ckpt:K, mem:K, \
                     slow:K:MS or rand:SEED:KILLS:HORIZON"
                ))
            }
        }
    }
    if sites.is_empty() {
        return Err("fault plan is empty".to_string());
    }
    Ok(FaultPlan::new(sites))
}

/// Parses one request line.
pub fn parse_request(v: &Json) -> Result<Request, String> {
    match v.require_str("op")? {
        "submit" => {
            let source = v.opt_str("source")?.map(str::to_string);
            let kb = v.opt_str("kb")?.map(str::to_string);
            match (&source, &kb) {
                (None, None) => {
                    return Err("submit needs `source` (program text) or `kb` (name)".to_string())
                }
                (Some(_), Some(_)) => {
                    return Err("submit takes `source` or `kb`, not both".to_string())
                }
                _ => {}
            }
            if let Some(name) = &kb {
                // Fail fast on an unknown name, before the job is queued.
                named_kb(name)?;
            }
            // What the client did not pin, the admission analyzer may
            // choose: variant/schedule when no `variant` key, budget
            // tightening when no explicit budget keys.
            let auto_strategy = v.opt_str("variant")?.is_none();
            let auto_budgets =
                v.opt_u64("max_apps")?.is_none() && v.opt_u64("max_wall_ms")?.is_none();
            Ok(Request::Submit {
                name: v.opt_str("name")?.map(str::to_string),
                source,
                kb,
                config: Box::new(submit_config(v)?),
                tw_sample_interval: opt_positive(v, "tw_sample_interval")?.map(|n| n as usize),
                progress_every: opt_positive(v, "progress_every")?.map(|n| n as usize),
                checkpoint_every: opt_positive(v, "checkpoint_every")?.map(|n| n as usize),
                priority: match v.opt_str("priority")? {
                    Some(s) => Priority::parse(s)?,
                    None => Priority::default(),
                },
                submitter: v.opt_str("submitter")?.map(str::to_string),
                auto_strategy,
                auto_budgets,
            })
        }
        "resume" => Ok(Request::Resume {
            checkpoint: Box::new(crate::checkpoint::Checkpoint::from_json(
                v.require("checkpoint")?,
            )?),
            max_applications: opt_positive(v, "max_apps")?.map(|n| n as usize),
            max_wall_ms: opt_positive(v, "max_wall_ms")?,
        }),
        "cancel" => Ok(Request::Cancel {
            job: v.require_u64("job")?,
        }),
        "status" => Ok(Request::Status {
            job: v.require_u64("job")?,
        }),
        "wait" => Ok(Request::Wait {
            job: v.require_u64("job")?,
            timeout_ms: opt_positive(v, "timeout_ms")?,
        }),
        "checkpoint" => Ok(Request::Checkpoint {
            job: v.require_u64("job")?,
        }),
        "query" => {
            let job = v.opt_u64("job")?;
            let kb = v.opt_str("kb")?.map(str::to_string);
            let source = v.opt_str("source")?.map(str::to_string);
            let targets = usize::from(job.is_some())
                + usize::from(kb.is_some())
                + usize::from(source.is_some());
            if targets != 1 {
                return Err(
                    "query needs exactly one of `job` (id), `kb` (name) or `source` (program text)"
                        .to_string(),
                );
            }
            if let Some(name) = &kb {
                named_kb(name)?;
            }
            let query = v
                .opt_str("query")?
                .ok_or_else(|| "query needs a `query` string".to_string())?
                .to_string();
            Ok(Request::Query {
                job,
                kb,
                source,
                query,
                config: Box::new(submit_config(v)?),
                node_limit: opt_positive(v, "node_limit")?.map(|n| n as usize),
                timeout_ms: opt_positive(v, "timeout_ms")?,
            })
        }
        "list" => Ok(Request::List),
        "drain" => Ok(Request::Drain),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Renders a job status for the wire.
pub fn status_name(s: &JobStatus) -> &'static str {
    match s {
        JobStatus::Queued => "queued",
        JobStatus::Running => "running",
        JobStatus::Finished => "finished",
        JobStatus::Cancelled => "cancelled",
        JobStatus::Failed => "failed",
    }
}

/// Serializes run counters, one key per [`ChaseStats::FIELDS`] row.
pub fn stats_to_json(stats: &ChaseStats) -> Json {
    Json::obj(
        ChaseStats::FIELDS
            .iter()
            .map(|f| (f.name, Json::Int((f.get)(stats) as i64))),
    )
}

/// Deserializes run counters. A missing optional counter reads as 0, so
/// checkpoints written before it existed still parse.
pub fn stats_from_json(v: &Json) -> Result<ChaseStats, String> {
    let mut stats = ChaseStats::default();
    for f in &ChaseStats::FIELDS {
        let value = if f.required {
            v.require_u64(f.name)?
        } else {
            v.opt_u64(f.name)?.unwrap_or(0)
        };
        (f.set)(&mut stats, value);
    }
    Ok(stats)
}

/// Serializes one query verdict.
pub fn verdict_name(v: QueryVerdict) -> &'static str {
    match v {
        QueryVerdict::EntailedCertified => "entailed",
        QueryVerdict::NotEntailedCertified => "not-entailed",
        QueryVerdict::Inconclusive => "inconclusive",
    }
}

/// Serializes one progress event as a wire line
/// (`{"type":"event","event":...,"job":...,...}`).
pub fn event_to_json(ev: &JobEvent) -> Json {
    let mut fields = vec![
        ("type".to_string(), Json::str("event")),
        ("job".to_string(), Json::Int(ev.job as i64)),
        ("name".to_string(), Json::str(&ev.name)),
    ];
    let mut push = |k: &str, v: Json| fields.push((k.to_string(), v));
    match &ev.kind {
        JobEventKind::Queued => push("event", Json::str("queued")),
        JobEventKind::Started => push("event", Json::str("started")),
        JobEventKind::StepApplied {
            applications,
            atoms,
            rounds,
        } => {
            push("event", Json::str("step"));
            push("applications", Json::Int(*applications as i64));
            push("atoms", Json::Int(*atoms as i64));
            push("rounds", Json::Int(*rounds as i64));
        }
        JobEventKind::CoreRetracted {
            before,
            after,
            match_nodes,
            fold_candidates,
            truncated,
        } => {
            push("event", Json::str("core-retraction"));
            push("before", Json::Int(*before as i64));
            push("after", Json::Int(*after as i64));
            push("match_nodes", Json::Int(*match_nodes as i64));
            push("fold_candidates", Json::Int(*fold_candidates as i64));
            push("truncated", Json::Bool(*truncated));
        }
        JobEventKind::TreewidthSample {
            applications,
            tw_upper,
            tw_lower,
        } => {
            push("event", Json::str("tw-sample"));
            push("applications", Json::Int(*applications as i64));
            push("tw_upper", Json::Int(*tw_upper as i64));
            push("tw_lower", Json::Int(*tw_lower as i64));
        }
        JobEventKind::Finished {
            status,
            outcome,
            applications,
            atoms,
            resumable,
            wall_ms,
        } => {
            push("event", Json::str("finished"));
            push("status", Json::str(status_name(status)));
            push("outcome", Json::str(outcome_name(*outcome)));
            push("applications", Json::Int(*applications as i64));
            push("atoms", Json::Int(*atoms as i64));
            push("resumable", Json::Bool(*resumable));
            push("wall_ms", Json::Int(*wall_ms as i64));
        }
        JobEventKind::Crashed {
            message,
            attempt,
            retrying,
        } => {
            push("event", Json::str("crashed"));
            push("message", Json::str(message));
            push("attempt", Json::Int(*attempt as i64));
            push("retrying", Json::Bool(*retrying));
        }
        JobEventKind::Failed { message } => {
            push("event", Json::str("failed"));
            push("message", Json::str(message));
        }
        JobEventKind::Degraded {
            mem_units,
            soft_limit,
        } => {
            push("event", Json::str("degraded"));
            push("mem_units", Json::Int(*mem_units as i64));
            push("soft_limit", Json::Int(*soft_limit as i64));
        }
        JobEventKind::Warning { message } => {
            push("event", Json::str("warning"));
            push("message", Json::str(message));
        }
    }
    Json::Obj(fields)
}

/// Serializes an admission-control rejection as a wire line
/// (`{"type":"rejected","op":...,"reason":...,"retry_after_ms":...}`).
/// Shedding is a structured reply, never a dropped connection.
pub fn rejection_to_json(op: &str, rej: &crate::runner::Rejection) -> Json {
    Json::obj([
        ("type", Json::str("rejected")),
        ("op", Json::str(op)),
        ("reason", Json::str(rej.reason.name())),
        ("message", Json::str(&rej.message)),
        (
            "retry_after_ms",
            rej.retry_after
                .map_or(Json::Null, |d| Json::Int(d.as_millis() as i64)),
        ),
    ])
}

/// Serializes a query reply
/// (`{"type":"response","op":"query","completeness":...,"answers":...}`).
/// The snapshot metadata fields (`job` / `sequence` / `applications` /
/// `snapshot_age_ms`) are present on the job path and null on the
/// synchronous kb/source path.
pub fn query_reply_to_json(reply: &crate::runner::QueryReply) -> Json {
    let opt_int = |n: Option<u64>| n.map_or(Json::Null, |n| Json::Int(n as i64));
    Json::obj([
        ("type", Json::str("response")),
        ("op", Json::str("query")),
        (
            "completeness",
            Json::str(reply.outcome.completeness.label()),
        ),
        ("horizon", opt_int(reply.outcome.completeness.horizon())),
        ("entailed", Json::Bool(reply.outcome.entailed())),
        (
            "vars",
            Json::Arr(reply.outcome.var_names.iter().map(Json::str).collect()),
        ),
        (
            "answers",
            Json::Arr(
                reply
                    .outcome
                    .answers
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(Json::str).collect()))
                    .collect(),
            ),
        ),
        ("job", opt_int(reply.job)),
        ("sequence", opt_int(reply.sequence)),
        ("applications", opt_int(reply.applications)),
        ("snapshot_age_ms", opt_int(reply.snapshot_age_ms)),
        (
            "cache",
            Json::obj([
                ("hits", Json::Int(reply.cache.hits as i64)),
                ("misses", Json::Int(reply.cache.misses as i64)),
                ("published", Json::Int(reply.cache.published as i64)),
                (
                    "answers_served",
                    Json::Int(reply.cache.answers_served as i64),
                ),
                ("stale_drops", Json::Int(reply.cache.stale_drops as i64)),
            ]),
        ),
    ])
}

/// Serializes a terminal job's result (the payload of a `wait`
/// response). Includes the checkpoint object when the run is resumable.
pub fn result_to_json(job: JobId, name: &str, res: &JobResult) -> Json {
    Json::obj([
        ("job", Json::Int(job as i64)),
        ("name", Json::str(name)),
        ("outcome", Json::str(outcome_name(res.outcome))),
        ("stats", stats_to_json(&res.stats)),
        ("atoms", Json::Int(res.final_instance.len() as i64)),
        ("wall_ms", Json::Int(res.wall_ms as i64)),
        (
            "queries",
            Json::Arr(
                res.queries
                    .iter()
                    .map(|(qname, v)| {
                        Json::obj([
                            ("name", Json::str(qname)),
                            ("verdict", Json::str(verdict_name(*v))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "checkpoint",
            res.checkpoint
                .as_ref()
                .map_or(Json::Null, |ck| ck.to_json()),
        ),
    ])
}

/// Serializes one four-valued analysis verdict
/// (`{"status":"certified","certificate":"mfa"}`-shaped objects).
/// `likely-refuted` carries the same refutation payload as `refuted`
/// but flags evidence (e.g. an MFA cyclic-term witness) rather than
/// proof.
pub fn analysis_verdict_to_json(v: &Verdict) -> Json {
    match v {
        Verdict::Certified(c) => {
            let mut fields = vec![
                ("status".to_string(), Json::str("certified")),
                ("certificate".to_string(), Json::str(c.name())),
            ];
            if let Certificate::RestrictedWidthProbe(w) | Certificate::CoreWidthProbe(w) = c {
                fields.push(("width".to_string(), Json::Int(*w as i64)));
            }
            if let Certificate::KBounded(k) = c {
                fields.push(("k".to_string(), Json::Int(*k as i64)));
            }
            Json::Obj(fields)
        }
        Verdict::Refuted(r) | Verdict::LikelyRefuted(r) => {
            let status = if matches!(v, Verdict::Refuted(_)) {
                "refuted"
            } else {
                "likely-refuted"
            };
            let mut fields = vec![
                ("status".to_string(), Json::str(status)),
                ("refutation".to_string(), Json::str(r.name())),
            ];
            if let Refutation::MfaCycle { rule, depth } = r {
                fields.push(("rule".to_string(), Json::Int(*rule as i64)));
                fields.push(("depth".to_string(), Json::Int(*depth as i64)));
            }
            if let Refutation::LinearNonTermination { rule } = r {
                fields.push(("rule".to_string(), Json::Int(*rule as i64)));
            }
            Json::Obj(fields)
        }
        Verdict::Inconclusive { budget } => Json::obj([
            ("status", Json::str("inconclusive")),
            ("budget", Json::Int(*budget as i64)),
        ]),
    }
}

/// Serializes the static half of an analysis report.
pub fn report_to_json(report: &RulesetReport) -> Json {
    Json::obj([
        ("datalog", Json::Bool(report.datalog)),
        ("weakly_acyclic", Json::Bool(report.weakly_acyclic)),
        ("jointly_acyclic", Json::Bool(report.jointly_acyclic)),
        ("guarded", Json::Bool(report.guardedness.is_guarded())),
        (
            "frontier_guarded",
            Json::Bool(report.guardedness.is_frontier_guarded()),
        ),
        ("terminating", analysis_verdict_to_json(&report.terminating)),
        ("bts", analysis_verdict_to_json(&report.bts)),
        ("core_bts", analysis_verdict_to_json(&report.core_bts)),
        (
            "linear_rules",
            Json::Arr(
                report
                    .linear_rules
                    .iter()
                    .map(|&r| Json::Int(r as i64))
                    .collect(),
            ),
        ),
        (
            "linear_fragment",
            analysis_verdict_to_json(&report.linear_fragment),
        ),
        ("kbounded", kbounded_to_json(&report.kbounded)),
    ])
}

/// Serializes the k-boundedness outcome
/// (`{"status":"bounded","k":2,"applications":5}`-shaped objects).
pub fn kbounded_to_json(outcome: &KBoundedOutcome) -> Json {
    match outcome {
        KBoundedOutcome::Bounded { k, applications } => Json::obj([
            ("status", Json::str("bounded")),
            ("k", Json::Int(*k as i64)),
            ("applications", Json::Int(*applications as i64)),
        ]),
        KBoundedOutcome::DepthUnbounded { applications } => Json::obj([
            ("status", Json::str("depth-unbounded")),
            ("applications", Json::Int(*applications as i64)),
        ]),
        KBoundedOutcome::BudgetExhausted { applications } => Json::obj([
            ("status", Json::str("budget-exhausted")),
            ("applications", Json::Int(*applications as i64)),
        ]),
    }
}

/// Serializes the full admission-gate analysis: report, plan, dynamic
/// evidence, and the admissibility bit. Attached to accepted `submit`
/// replies and emitted by `treechase analyze --json`.
pub fn analysis_to_json(gate: &AnalysisGate, rules: &RuleSet) -> Json {
    let strata = gate
        .plan
        .strata
        .iter()
        .map(|s| {
            Json::obj([
                ("shape", Json::str(s.shape.name())),
                (
                    "rules",
                    Json::Arr(
                        s.rules
                            .iter()
                            .map(|&r| Json::str(rules.get(r).name()))
                            .collect(),
                    ),
                ),
                ("cyclic", Json::Bool(s.cyclic)),
            ])
        })
        .collect();
    // A width observation serializes as two fields: `*_width` keeps its
    // historical plateau-or-null shape, `*_width_status` spells out the
    // tri-state ("plateau" / "climbing" / "unobserved") so clients can
    // tell divergence evidence from a probe that saw nothing.
    let width = |w: WidthObservation| w.plateau().map_or(Json::Null, |n| Json::Int(n as i64));
    Json::obj([
        ("report", report_to_json(&gate.report)),
        (
            "plan",
            Json::obj([
                (
                    "variant",
                    Json::str(variant_name(gate.plan.recommended_variant())),
                ),
                ("strata", Json::Arr(strata)),
            ]),
        ),
        (
            "evidence",
            Json::obj([
                (
                    "restricted_terminated",
                    Json::Bool(gate.evidence.restricted_terminated),
                ),
                ("restricted_width", width(gate.evidence.restricted_width)),
                (
                    "restricted_width_status",
                    Json::str(gate.evidence.restricted_width.name()),
                ),
                ("core_terminated", Json::Bool(gate.evidence.core_terminated)),
                ("core_width", width(gate.evidence.core_width)),
                (
                    "core_width_status",
                    Json::str(gate.evidence.core_width.name()),
                ),
            ]),
        ),
        (
            "probe",
            Json::obj([
                (
                    "core_applications",
                    Json::Int(gate.probe.core_applications as i64),
                ),
                (
                    "restricted_profile_len",
                    Json::Int(gate.probe.restricted.len() as i64),
                ),
                ("core_profile_len", Json::Int(gate.probe.core.len() as i64)),
            ]),
        ),
        ("admissible", Json::Bool(gate.admissible())),
        ("cost_class", Json::str(gate.cost_class.name())),
        ("provenance", Json::str(&gate.provenance)),
        ("envelope", envelope_to_json(&gate.envelope)),
    ])
}

/// Serializes a certificate-priced budget envelope. Attached to
/// accepted `submit` replies so clients can see exactly which runtime
/// budgets the admission gate derived from the analysis.
pub fn envelope_to_json(envelope: &BudgetEnvelope) -> Json {
    Json::obj([
        ("max_apps", Json::Int(envelope.max_apps as i64)),
        ("mem_soft", Json::Int(envelope.mem_soft as i64)),
        ("mem_hard", Json::Int(envelope.mem_hard as i64)),
        (
            "deadline_ms",
            Json::Int(envelope.deadline.as_millis() as i64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    #[test]
    fn submit_request_parses_with_defaults() {
        let line = r#"{"op":"submit","source":"r(a,b).","variant":"restricted","max_apps":7}"#;
        let req = parse_request(&parse_json(line).unwrap()).unwrap();
        let Request::Submit {
            source,
            config,
            priority,
            submitter,
            ..
        } = req
        else {
            panic!("expected submit");
        };
        assert_eq!(source.as_deref(), Some("r(a,b)."));
        assert_eq!(config.variant, ChaseVariant::Restricted);
        assert_eq!(config.max_applications, 7);
        assert_eq!(config.max_atoms, ChaseConfig::default().max_atoms);
        assert_eq!(priority, Priority::Normal);
        assert_eq!(submitter, None);
    }

    #[test]
    fn submit_accepts_named_kb_priority_and_submitter() {
        let line =
            r#"{"op":"submit","kb":"elevator","priority":"high","submitter":"alice","max_apps":9}"#;
        let req = parse_request(&parse_json(line).unwrap()).unwrap();
        let Request::Submit {
            source,
            kb,
            priority,
            submitter,
            ..
        } = req
        else {
            panic!("expected submit");
        };
        assert_eq!(source, None);
        assert_eq!(kb.as_deref(), Some("elevator"));
        assert_eq!(priority, Priority::High);
        assert_eq!(submitter.as_deref(), Some("alice"));
    }

    #[test]
    fn submit_validation_rejects_bad_inputs_structurally() {
        let cases = [
            (r#"{"op":"submit"}"#, "source"),
            (
                r#"{"op":"submit","source":"r(a).","kb":"elevator"}"#,
                "not both",
            ),
            (r#"{"op":"submit","kb":"nosuch"}"#, "unknown kb"),
            (
                r#"{"op":"submit","source":"r(a).","max_apps":0}"#,
                "must be positive",
            ),
            (
                r#"{"op":"submit","source":"r(a).","max_atoms":0}"#,
                "must be positive",
            ),
            (
                r#"{"op":"submit","source":"r(a).","progress_every":0}"#,
                "must be positive",
            ),
            (
                r#"{"op":"submit","source":"r(a).","mem_soft":10,"mem_hard":5}"#,
                "must not exceed",
            ),
            (
                r#"{"op":"submit","source":"r(a).","priority":"urgent"}"#,
                "unknown priority",
            ),
            (
                r#"{"op":"submit","source":"r(a).","fault":"app:x"}"#,
                "fault site",
            ),
        ];
        for (line, needle) in cases {
            let err = parse_request(&parse_json(line).unwrap()).unwrap_err();
            assert!(
                err.contains(needle),
                "for {line}: error `{err}` should mention `{needle}`"
            );
        }
    }

    #[test]
    fn wait_and_drain_requests_parse() {
        let req = parse_request(&parse_json(r#"{"op":"wait","job":3,"timeout_ms":250}"#).unwrap())
            .unwrap();
        let Request::Wait { job, timeout_ms } = req else {
            panic!("expected wait");
        };
        assert_eq!((job, timeout_ms), (3, Some(250)));
        assert!(
            parse_request(&parse_json(r#"{"op":"wait","job":3,"timeout_ms":0}"#).unwrap()).is_err()
        );
        assert!(matches!(
            parse_request(&parse_json(r#"{"op":"drain"}"#).unwrap()).unwrap(),
            Request::Drain
        ));
    }

    #[test]
    fn config_roundtrips_through_json() {
        let cfg = ChaseConfig::variant(ChaseVariant::Frugal)
            .with_max_applications(123)
            .with_max_atoms(456)
            .with_max_wall(Duration::from_millis(789))
            .with_scheduler(SchedulerKind::Random(5));
        let back = config_from_json(&config_to_json(&cfg)).unwrap();
        assert_eq!(back.variant, cfg.variant);
        assert_eq!(back.scheduler, cfg.scheduler);
        assert_eq!(back.max_applications, cfg.max_applications);
        assert_eq!(back.max_atoms, cfg.max_atoms);
        assert_eq!(back.max_wall, cfg.max_wall);
        assert_eq!(back.core_interval, cfg.core_interval);
    }

    #[test]
    fn config_ignores_the_retired_core_maintenance_key() {
        // Checkpoints and submits written while the core maintainer was
        // selectable still carry the key; it parses and is ignored —
        // every run starts from sigma_0 = core_of(F), so the one
        // maintainer always starts from a core.
        let decode = |extra: &str| {
            let line = format!(
                r#"{{"variant":"core","scheduler":"deterministic","scheduler_seed":null,
                     "max_applications":10,"max_atoms":100,"max_wall_ms":null,
                     "core_interval":1{extra}}}"#
            );
            let cfg = config_from_json(&parse_json(&line).unwrap()).unwrap();
            format!("{cfg:?}")
        };
        let without = decode("");
        assert_eq!(decode(r#","core_maintenance":"full""#), without);
        assert_eq!(decode(r#","core_maintenance":"incremental""#), without);
        assert!(!config_to_json(&ChaseConfig::default())
            .to_string()
            .contains("core_maintenance"));

        let submit = |extra: &str| {
            let line = format!(r#"{{"op":"submit","kb":"staircase","max_apps":5{extra}}}"#);
            match parse_request(&parse_json(&line).unwrap()).unwrap() {
                Request::Submit { config, .. } => format!("{config:?}"),
                other => panic!("expected submit, got {other:?}"),
            }
        };
        assert_eq!(submit(r#","core_maintenance":"full""#), submit(""));
    }

    #[test]
    fn stats_table_drives_codec_and_slice_arithmetic() {
        use crate::job::add_stats;
        use chase_engine::Combine;
        let fields = ChaseStats::FIELDS;
        // Row i writes i + 1 into `a`, so every counter is distinct, and
        // into `b` a value above `a`'s on even rows and 0 on odd ones, so
        // each slice holds the peak of some gauge.
        let later = |i: usize| if i % 2 == 1 { 0 } else { 100 - i as u64 };
        let (mut a, mut b) = (ChaseStats::default(), ChaseStats::default());
        for (i, f) in fields.iter().enumerate() {
            (f.set)(&mut a, i as u64 + 1);
            (f.set)(&mut b, later(i));
        }
        // Destructured without `..`: a field added to `ChaseStats` breaks
        // this line, and a field without a row leaves a 0 below.
        let ChaseStats {
            applications,
            rounds,
            retractions,
            peak_atoms,
            core_steps,
            match_nodes,
            fold_candidates,
            core_truncations,
            core_time_us,
            wall_us,
            nulls_minted,
            peak_trigger_queue,
            peak_mem_units,
            match_time_us,
            match_searches,
            match_trials,
            peak_index_postings,
        } = a;
        let mut seen = vec![
            applications as u64,
            rounds as u64,
            retractions as u64,
            peak_atoms as u64,
            core_steps as u64,
            match_nodes as u64,
            fold_candidates as u64,
            core_truncations as u64,
            core_time_us,
            wall_us,
            nulls_minted as u64,
            peak_trigger_queue as u64,
            peak_mem_units as u64,
            match_time_us,
            match_searches as u64,
            match_trials as u64,
            peak_index_postings as u64,
        ];
        seen.sort_unstable();
        assert_eq!(seen, (1..=fields.len() as u64).collect::<Vec<_>>());

        let json = stats_to_json(&a);
        assert_eq!(stats_from_json(&json).unwrap(), a);
        let Json::Obj(pairs) = &json else {
            panic!("stats encode as an object: {json}")
        };
        assert!(pairs
            .iter()
            .map(|(k, _)| k.as_str())
            .eq(fields.iter().map(|f| f.name)));

        let total = add_stats(a, b);
        for (i, f) in fields.iter().enumerate() {
            // The gauges, and only they, keep the peak across slices.
            assert_eq!(f.combine == Combine::Peak, f.name.starts_with("peak_"));
            let (x, y) = (i as u64 + 1, later(i));
            let want = match f.combine {
                Combine::Sum => x + y,
                Combine::Peak => x.max(y),
            };
            assert_eq!((f.get)(&total), want, "{}", f.name);
        }

        // Only the four original counters are required; the rest read 0.
        let minimal =
            parse_json(r#"{"applications":1,"rounds":1,"retractions":0,"peak_atoms":1}"#).unwrap();
        let decoded = stats_from_json(&minimal).unwrap();
        for f in &fields {
            let want = u64::from(matches!(f.name, "applications" | "rounds" | "peak_atoms"));
            assert_eq!((f.get)(&decoded), want, "{}", f.name);
        }
        let required: Vec<&str> = fields
            .iter()
            .filter(|f| f.required)
            .map(|f| f.name)
            .collect();
        assert_eq!(
            required,
            ["applications", "rounds", "retractions", "peak_atoms"]
        );
        for name in required {
            let without = Json::Obj(pairs.iter().filter(|(k, _)| k != name).cloned().collect());
            assert!(stats_from_json(&without).is_err(), "{name} is required");
        }
    }

    #[test]
    fn fault_plan_specs_parse() {
        use chase_engine::FaultSite;
        let plan = parse_fault_plan("app:3, core:1,ckpt:2").unwrap();
        assert_eq!(
            plan.sites(),
            &[
                FaultSite::Application(3),
                FaultSite::CorePhase(1),
                FaultSite::CheckpointWrite(2)
            ]
        );
        let seeded = parse_fault_plan("rand:9:2:100").unwrap();
        assert_eq!(seeded.sites().len(), 2);
        assert!(parse_fault_plan("app:0").is_err());
        assert!(parse_fault_plan("boom:1").is_err());
        assert!(parse_fault_plan("").is_err());
    }

    #[test]
    fn overload_fault_sites_parse() {
        use chase_engine::FaultSite;
        let plan = parse_fault_plan("mem:4, slow:2:150").unwrap();
        assert_eq!(
            plan.sites(),
            &[FaultSite::MemoryPressure(4), FaultSite::Slow(2, 150)]
        );
        assert!(parse_fault_plan("mem:0").is_err());
        assert!(parse_fault_plan("mem").is_err());
        assert!(parse_fault_plan("slow:1").is_err(), "slow needs K and MS");
        assert!(parse_fault_plan("slow:0:10").is_err());
        assert!(parse_fault_plan("slow:1:abc").is_err());
    }

    #[test]
    fn malformed_rand_specs_are_rejected() {
        for bad in [
            "rand:9",         // missing kills + horizon
            "rand:9:2",       // missing horizon
            "rand:9:2:100:7", // extra field
            "rand:9:0:100",   // zero kills
            "rand:9:2:0",     // zero horizon
            "rand:9:101:100", // more kills than horizon
            "rand:x:2:100",   // non-numeric seed
            "rand:9:x:100",   // non-numeric kills
            "rand:9:2:x",     // non-numeric horizon
        ] {
            let err = parse_fault_plan(bad)
                .err()
                .unwrap_or_else(|| panic!("`{bad}` should be rejected"));
            assert!(err.contains(bad), "error for `{bad}` should echo the spec");
        }
        // The boundary case kills == horizon is legal.
        assert!(parse_fault_plan("rand:9:3:3").is_ok());
    }

    #[test]
    fn query_request_parses_and_validates() {
        let line = r#"{"op":"query","job":4,"query":"?(X) :- at(X, f0)","node_limit":500,"timeout_ms":200}"#;
        let req = parse_request(&parse_json(line).unwrap()).unwrap();
        let Request::Query {
            job,
            kb,
            source,
            query,
            node_limit,
            timeout_ms,
            ..
        } = req
        else {
            panic!("expected query");
        };
        assert_eq!(job, Some(4));
        assert_eq!((kb, source), (None, None));
        assert_eq!(query, "?(X) :- at(X, f0)");
        assert_eq!(node_limit, Some(500));
        assert_eq!(timeout_ms, Some(200));

        let line = r#"{"op":"query","kb":"staircase","query":"?- top(X)","variant":"restricted","max_apps":50}"#;
        let Request::Query { kb, config, .. } = parse_request(&parse_json(line).unwrap()).unwrap()
        else {
            panic!("expected query");
        };
        assert_eq!(kb.as_deref(), Some("staircase"));
        assert_eq!(config.variant, ChaseVariant::Restricted);
        assert_eq!(config.max_applications, 50);

        let cases = [
            (r#"{"op":"query","query":"p(X)"}"#, "exactly one"),
            (
                r#"{"op":"query","job":1,"kb":"staircase","query":"p(X)"}"#,
                "exactly one",
            ),
            (r#"{"op":"query","job":1}"#, "`query` string"),
            (
                r#"{"op":"query","kb":"nosuch","query":"p(X)"}"#,
                "unknown kb",
            ),
            (
                r#"{"op":"query","job":1,"query":"p(X)","node_limit":0}"#,
                "must be positive",
            ),
        ];
        for (line, needle) in cases {
            let err = parse_request(&parse_json(line).unwrap()).unwrap_err();
            assert!(
                err.contains(needle),
                "for {line}: error `{err}` should mention `{needle}`"
            );
        }
    }

    #[test]
    fn unknown_op_is_rejected() {
        let line = r#"{"op":"frobnicate"}"#;
        assert!(parse_request(&parse_json(line).unwrap()).is_err());
    }

    #[test]
    fn config_strata_roundtrip_through_json() {
        let mut cfg = ChaseConfig::variant(ChaseVariant::Core);
        cfg.strata = Some(vec![vec![0, 2], vec![1]]);
        let back = config_from_json(&config_to_json(&cfg)).unwrap();
        assert_eq!(back.strata, Some(vec![vec![0, 2], vec![1]]));
        // Absent (old checkpoints) and null both mean "no schedule".
        let line = r#"{"variant":"core","scheduler":"deterministic","scheduler_seed":null,
                       "max_applications":10,"max_atoms":100,"max_wall_ms":null,"core_interval":1}"#;
        let cfg = config_from_json(&parse_json(line).unwrap()).unwrap();
        assert_eq!(cfg.strata, None);
    }

    #[test]
    fn submit_detects_pinned_strategy_and_budgets() {
        let cases = [
            (r#"{"op":"submit","kb":"elevator"}"#, true, true),
            (
                r#"{"op":"submit","kb":"elevator","variant":"core"}"#,
                false,
                true,
            ),
            (
                r#"{"op":"submit","kb":"elevator","max_apps":9}"#,
                true,
                false,
            ),
            (
                r#"{"op":"submit","kb":"elevator","max_wall_ms":50}"#,
                true,
                false,
            ),
        ];
        for (line, want_strategy, want_budgets) in cases {
            let req = parse_request(&parse_json(line).unwrap()).unwrap();
            let Request::Submit {
                auto_strategy,
                auto_budgets,
                ..
            } = req
            else {
                panic!("expected submit");
            };
            assert_eq!(auto_strategy, want_strategy, "{line}");
            assert_eq!(auto_budgets, want_budgets, "{line}");
        }
    }

    #[test]
    fn analysis_json_names_certificates_and_plan_shapes() {
        let kb = chase_core::KnowledgeBase::staircase();
        let budget = chase_homomorphism::SearchBudget::unlimited().with_node_limit(2_000);
        let gate = chase_core::analyze_kb(&kb, &budget, 80);
        let v = analysis_to_json(&gate, &kb.rules);
        let text = v.to_string();
        assert!(text.contains(r#""admissible":true"#), "{text}");
        assert!(text.contains("core-bounded-loop"), "{text}");
        let report = v.get("report").unwrap();
        assert_eq!(
            report.get("weakly_acyclic").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            report
                .get("core_bts")
                .and_then(|c| c.get("status"))
                .and_then(Json::as_str),
            Some("certified")
        );
    }
}
