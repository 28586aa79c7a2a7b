//! The traced run: a workload's job executed in-process, with a span
//! around every call into a layer, in three passes.
//!
//! 1. The admission gate as the submit path calls it, then the chase
//!    through `run_chase_controlled`, whose observer makes the calls the
//!    service's job runner makes, at its cadences: an event encode per
//!    event, snapshot publishes, treewidth samples and checkpoint
//!    capture/save. The engine's own time is tiled by the intervals
//!    between observer calls (ending at `RoundStarted`: discovery;
//!    ending at a per-application event: the step).
//! 2. The same job through an in-process [`Service`], for the service
//!    layer's overhead and the in-process query latency.
//! 3. One call into each remaining layer on the workload's exact inputs
//!    and final state: wire decode, program parse, `answer_view`,
//!    checkpoint capture/save/load, treewidth bounds.
//!
//! Spans stay in memory and the last pass's spans are written to
//! `trace-<workload>.json` in the bench directory.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::path::Path;
use std::time::{Duration, Instant};

use chase_atoms::{AtomSet, Vocabulary};
use chase_engine::{run_chase_controlled, ChaseEvent, ChaseStats};
use chase_homomorphism::SearchBudget;
use chase_parser::parse_program;
use chase_query::{answer_view, Snapshot, SnapshotCache};
use chase_treewidth::treewidth_bounds;
use treechase_service::protocol::event_to_json;
use treechase_service::{
    add_stats, named_kb, parse_json, parse_request, Checkpoint, CheckpointStore, JobEvent,
    JobEventKind, JobId, JobSpec, JobStatus, Json, QueryError, Request, Service, ServiceConfig,
};

use crate::client::Recorder;
use crate::reference;
use crate::stats::median;
use crate::workloads::{Expect, Inputs, Workload, CHECKPOINT_EVERY};

/// Rounds over the workload's whole query mix timed by `answer_view` per
/// pass. Each round has the same composition, so the per-round mean stays
/// steady even when the mix's queries differ widely in cost.
const ANSWER_ROUNDS: usize = 8;

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: start - self.origin,
            end: end - self.origin,
            parent,
        });
        self.spans.len() - 1
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent)
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    fn time<T>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent);
        out
    }

    fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = Duration> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| s.end - s.start)
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.durations(name).map(|d| d.as_secs_f64() * 1e3).sum()
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_us", Json::Int(s.start.as_micros() as i64)),
                        ("end_us", Json::Int(s.end.as_micros() as i64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Builds the job spec `treechase serve` builds for a `submit` line.
fn submit_spec(line: &str) -> Result<JobSpec, String> {
    let Request::Submit {
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
    } = parse_request(&parse_json(line)?)?
    else {
        return Err("not a submit line".to_string());
    };
    let mut spec = match (source, kb) {
        (Some(src), None) => JobSpec::from_text(name.unwrap_or_default(), &src, *config)?,
        (None, Some(kb)) => {
            JobSpec::from_kb(name.unwrap_or_else(|| kb.clone()), named_kb(&kb)?, *config)
        }
        _ => return Err("submit needs exactly one of source/kb".to_string()),
    };
    if let Some(every) = tw_sample_interval {
        spec = spec.with_tw_samples(every);
    }
    if let Some(every) = progress_every {
        spec = spec.with_progress_every(every);
    }
    if let Some(every) = checkpoint_every {
        spec = spec.with_checkpoint_every(every);
    }
    spec = spec.with_priority(priority);
    spec.submitter = submitter;
    spec.auto_strategy = auto_strategy;
    spec.auto_budgets = auto_budgets;
    Ok(spec)
}

/// The service configuration `treechase serve` runs the workload under.
fn service_config(inputs: &Inputs, state_dir: Option<&Path>) -> ServiceConfig {
    ServiceConfig {
        state_dir: state_dir.map(Path::to_path_buf),
        checkpoint_every: (inputs.workload == Workload::IngestResume).then_some(CHECKPOINT_EVERY),
        ..ServiceConfig::default()
    }
}

/// What the traced chase passes accumulate.
#[derive(Default)]
struct Pass1 {
    stats: ChaseStats,
    pending: usize,
    publishes: usize,
    durable_bytes: u64,
    tw_max: usize,
    slices: usize,
}

/// The end state of one traced slice.
struct Slice {
    vocab: Vocabulary,
    instance: AtomSet,
    stats: ChaseStats,
    checkpoint: Option<Checkpoint>,
}

fn encode(t: &mut Tracer, parent: usize, job: JobId, name: &str, kind: JobEventKind) {
    let event = JobEvent {
        job,
        name: name.to_string(),
        kind,
    };
    t.time("wire.encode", Some(parent), || {
        event_to_json(&event).to_string()
    });
}

/// Runs one job slice as the service's worker does, tracing each call.
fn traced_slice(
    t: &mut Tracer,
    spec: &JobSpec,
    id: JobId,
    cfg: &ServiceConfig,
    cache: &SnapshotCache,
    store: Option<&CheckpointStore>,
    acc: &mut Pass1,
) -> Result<Slice, String> {
    let job = t.begin("job", None);
    let name = spec.name.as_str();
    encode(t, job, id, name, JobEventKind::Queued);
    encode(t, job, id, name, JobEventKind::Started);
    let base_applications = spec.base_stats.applications as u64;
    t.time("query.publish", Some(job), || {
        cache.publish(
            id,
            Snapshot::live(
                spec.kb.vocab.clone(),
                spec.kb.facts.clone(),
                base_applications,
            ),
        );
    });
    acc.publishes += 1;
    let progress_every = spec.progress_every.max(1);
    let checkpoint_every = spec.checkpoint_every.or(cfg.checkpoint_every);
    let snapshot_every = cfg.snapshot_every.max(1);
    let (mut last_step, mut last_tw, mut last_ck, mut last_snap) = (0, 0, 0, 0);
    let mut save_error = None;
    let mut vocab = spec.kb.vocab.clone();
    let mut last = Instant::now();
    let res = run_chase_controlled(
        &mut vocab,
        &spec.kb.facts,
        &spec.kb.rules,
        &spec.config,
        None,
        |ev| {
            let now = Instant::now();
            match ev {
                ChaseEvent::RoundStarted { pending, .. } => {
                    t.record("engine.discover", last, now, Some(job));
                    acc.pending += pending;
                }
                ChaseEvent::StepApplied {
                    instance,
                    vocab,
                    stats,
                } => {
                    t.record("engine.step", last, now, Some(job));
                    if stats.applications >= last_step + progress_every {
                        last_step = stats.applications;
                        let kind = JobEventKind::StepApplied {
                            applications: stats.applications,
                            atoms: instance.len(),
                            rounds: stats.rounds,
                        };
                        encode(t, job, id, name, kind);
                    }
                    if let Some(every) = spec.tw_sample_interval {
                        if stats.applications >= last_tw + every {
                            last_tw = stats.applications;
                            let tw = t
                                .time("treewidth.sample", Some(job), || treewidth_bounds(instance));
                            acc.tw_max = acc.tw_max.max(tw.upper);
                            let kind = JobEventKind::TreewidthSample {
                                applications: stats.applications,
                                tw_upper: tw.upper,
                                tw_lower: tw.lower,
                            };
                            encode(t, job, id, name, kind);
                        }
                    }
                    if let Some(every) = checkpoint_every {
                        if stats.applications >= last_ck + every {
                            last_ck = stats.applications;
                            let total = add_stats(spec.base_stats, *stats);
                            let ck = t.time("service.checkpoint", Some(job), || {
                                Checkpoint::capture(spec, vocab, instance, total)
                            });
                            if let Some(store) = store {
                                match traced_save(t, job, store, id, &ck) {
                                    Ok(bytes) => acc.durable_bytes += bytes,
                                    Err(e) => save_error = Some(e),
                                }
                            }
                        }
                    }
                    if stats.applications >= last_snap + snapshot_every {
                        last_snap = stats.applications;
                        let horizon = base_applications + stats.applications as u64;
                        t.time("query.publish", Some(job), || {
                            cache.publish(
                                id,
                                Snapshot::live(vocab.clone(), instance.clone(), horizon),
                            );
                        });
                        acc.publishes += 1;
                    }
                }
                ChaseEvent::CoreRetracted {
                    before,
                    after,
                    match_stats,
                    ..
                } => {
                    t.record("engine.step", last, now, Some(job));
                    let kind = JobEventKind::CoreRetracted {
                        before,
                        after,
                        match_nodes: match_stats.nodes,
                        fold_candidates: match_stats.candidates,
                        truncated: match_stats.truncated,
                    };
                    encode(t, job, id, name, kind);
                }
                ChaseEvent::Degraded {
                    mem_units,
                    soft_limit,
                    ..
                } => {
                    t.record("engine.step", last, now, Some(job));
                    let kind = JobEventKind::Degraded {
                        mem_units,
                        soft_limit,
                    };
                    encode(t, job, id, name, kind);
                }
            }
            last = Instant::now();
            ControlFlow::Continue(())
        },
    );
    // The run ends with the discovery that found nothing left to do (or
    // the budget check that stopped it).
    t.record("engine.discover", last, Instant::now(), Some(job));
    if let Some(e) = save_error {
        return Err(e);
    }
    let stats = add_stats(spec.base_stats, res.stats);
    let applications = stats.applications as u64;
    let snapshot = if res.outcome.terminated() {
        Snapshot::terminal(vocab.clone(), res.final_instance.clone(), applications)
    } else {
        Snapshot::live(vocab.clone(), res.final_instance.clone(), applications)
    };
    t.time("query.publish", Some(job), || cache.publish(id, snapshot));
    acc.publishes += 1;
    let checkpoint = res.outcome.resumable().then(|| {
        t.time("service.checkpoint", Some(job), || {
            Checkpoint::capture(spec, &vocab, &res.final_instance, stats)
        })
    });
    let kind = JobEventKind::Finished {
        status: JobStatus::Finished,
        outcome: res.outcome,
        applications: stats.applications,
        atoms: res.final_instance.len(),
        resumable: checkpoint.is_some(),
        wall_ms: 0,
    };
    encode(t, job, id, name, kind);
    if let (Some(store), Some(ck)) = (store, &checkpoint) {
        acc.durable_bytes += traced_save(t, job, store, id, ck)?;
    }
    t.end(job);
    // Counts add up over the slices; peaks keep the larger value.
    acc.stats = add_stats(acc.stats, res.stats);
    acc.slices += 1;
    Ok(Slice {
        vocab,
        instance: res.final_instance,
        stats,
        checkpoint,
    })
}

fn traced_save(
    t: &mut Tracer,
    parent: usize,
    store: &CheckpointStore,
    id: JobId,
    ck: &Checkpoint,
) -> Result<u64, String> {
    t.time("service.store_save", Some(parent), || {
        store.save(id, ck, None)
    })?;
    let path = store.dir().join(format!("job-{id}.ckpt.json"));
    std::fs::metadata(&path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The `resume` line the client sends for `ck`.
fn resume_line(ck: &Checkpoint, max_apps: usize) -> String {
    format!(
        r#"{{"op":"resume","checkpoint":{},"max_apps":{max_apps}}}"#,
        ck.to_json()
    )
}

/// The spec `treechase serve` builds for a `resume` of `ck`.
fn resume_spec(ck: &Checkpoint, max_apps: usize) -> Result<JobSpec, String> {
    let mut spec = ck.into_spec()?;
    spec.config.max_applications = max_apps;
    Ok(spec)
}

fn slice_apps(inputs: &Inputs) -> usize {
    match inputs.expect {
        Expect::Ingest { slice_apps, .. } => slice_apps,
        _ => 0,
    }
}

/// Runs one traced pass over all three passes. `rec` receives the
/// output checks; `work` is a scratch directory inside the checkout.
/// Returns the pass's per-layer metrics and its spans.
fn traced_pass(
    inputs: &Inputs,
    work: &Path,
    rec: &mut Recorder,
) -> Result<(BTreeMap<&'static str, f64>, Tracer), String> {
    let mut t = Tracer::new();
    let mut m = BTreeMap::new();
    let ingest = inputs.workload == Workload::IngestResume;
    let store_dir = work.join(format!("trace-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    // Pass 1: the job, traced.
    let cfg = service_config(inputs, None);
    let mut spec = submit_spec(&inputs.submit_line)?;
    // The admission gate as the submit path calls it: it analyses only
    // submits that leave the variant or a budget unpinned.
    t.time("analysis.gate", None, || {
        treechase_service::apply_admission_gate(&mut spec, &cfg)
    })
    .map_err(|rej| rej.message)?;
    let store = if ingest {
        Some(CheckpointStore::open(&store_dir)?)
    } else {
        None
    };
    let cache = SnapshotCache::new(cfg.snapshot_ring.max(1));
    let mut acc = Pass1::default();
    let mut last = traced_slice(&mut t, &spec, 1, &cfg, &cache, store.as_ref(), &mut acc)?;
    check_final(inputs, &last, 1, rec);
    let mut resume = None;
    if ingest {
        let ck = last
            .checkpoint
            .clone()
            .ok_or("ingest slice left no checkpoint")?;
        let spec2 = resume_spec(&ck, slice_apps(inputs))?;
        resume = Some(resume_line(&ck, slice_apps(inputs)));
        last = traced_slice(&mut t, &spec2, 2, &cfg, &cache, store.as_ref(), &mut acc)?;
        check_final(inputs, &last, 2, rec);
    }
    let s = acc.stats;
    rec.check(s.core_truncations == 0, || {
        format!("{} truncated core phases", s.core_truncations)
    });
    if inputs.workload == Workload::StaircaseCore {
        rec.check(acc.tw_max <= 2, || {
            format!("traced tw_upper {} > 2", acc.tw_max)
        });
    }
    let ms = |us: u64| us as f64 / 1e3;
    let job_wall = t.total_ms("job");
    let engine = t.total_ms("engine.discover") + t.total_ms("engine.step");
    let children: f64 = t
        .spans
        .iter()
        .filter(|sp| sp.parent.is_some_and(|p| t.spans[p].name == "job"))
        .map(|sp| (sp.end - sp.start).as_secs_f64() * 1e3)
        .sum();
    m.insert("engine.wall_ms", job_wall);
    m.insert("trace.job_ms_per_slice", job_wall / acc.slices as f64);
    m.insert("engine.discover_ms", t.total_ms("engine.discover"));
    m.insert("engine.step_ms", t.total_ms("engine.step"));
    m.insert("engine.match_ms", ms(s.match_time_us));
    m.insert(
        "engine.other_ms",
        engine - ms(s.match_time_us) - ms(s.core_time_us),
    );
    m.insert(
        "engine.trigger_yield",
        s.applications as f64 / acc.pending.max(1) as f64,
    );
    m.insert("engine.applications", s.applications as f64);
    m.insert("engine.rounds", s.rounds as f64);
    m.insert("engine.match_trials", s.match_trials as f64);
    m.insert("engine.match_searches", s.match_searches as f64);
    m.insert("engine.peak_atoms", s.peak_atoms as f64);
    m.insert("engine.peak_mem_units", s.peak_mem_units as f64);
    m.insert("engine.peak_index_postings", s.peak_index_postings as f64);
    m.insert(
        "homomorphism.search_ms",
        ms(s.match_time_us + s.core_time_us),
    );
    m.insert("homomorphism.match_nodes", s.match_nodes as f64);
    m.insert("homomorphism.fold_candidates", s.fold_candidates as f64);
    m.insert(
        "homomorphism.retraction_yield",
        if s.core_steps == 0 {
            0.0
        } else {
            s.retractions as f64 / s.core_steps as f64
        },
    );
    m.insert("wire.encode_ms", t.total_ms("wire.encode"));
    m.insert("query.publish_ms", t.total_ms("query.publish"));
    m.insert("query.publishes", acc.publishes as f64);
    m.insert(
        "service.write_amplification",
        acc.durable_bytes as f64 / inputs.program.len() as f64,
    );
    m.insert("trace.coverage", children / job_wall);
    drop(cache);

    // Pass 2: the same job through an in-process service.
    let (service_ms, query_us) = service_pass(inputs, work, rec)?;
    m.insert("service.overhead_ms", service_ms - engine);
    m.insert("trace.service_query_p50_us", query_us);

    // Pass 3: one call into each remaining layer on the exact inputs.
    let session = t.begin("session", None);
    let decode = || -> Result<(), String> {
        parse_request(&parse_json(&inputs.submit_line)?)?;
        if let Some(line) = &resume {
            parse_request(&parse_json(line)?)?;
        }
        Ok(())
    };
    t.time("wire.decode", Some(session), decode)?;
    t.time("parser.program", Some(session), || {
        parse_program(&inputs.program)
    })
    .map_err(|e| e.to_string())?;
    let view_cache = SnapshotCache::new(1);
    view_cache.publish(
        1,
        Snapshot::live(last.vocab.clone(), last.instance.clone(), 0),
    );
    let view = view_cache.view(1).ok_or("no view")?;
    let mut answer_us = Vec::with_capacity(ANSWER_ROUNDS);
    for _ in 0..ANSWER_ROUNDS {
        let start = Instant::now();
        for q in &inputs.queries {
            answer_view(&view, &q.text, &SearchBudget::unlimited()).map_err(|e| e.to_string())?;
        }
        let end = Instant::now();
        t.record("query.answer", start, end, Some(session));
        answer_us.push((end - start).as_secs_f64() * 1e6 / inputs.queries.len() as f64);
    }
    let ck = t.time("service.checkpoint", Some(session), || {
        Checkpoint::capture(&spec, &last.vocab, &last.instance, last.stats)
    });
    let final_store = CheckpointStore::open(store_dir.join("final"))?;
    t.time("service.store_save", Some(session), || {
        final_store.save(1, &ck, None)
    })?;
    let (loaded, corrupt) = t.time("service.store_load", Some(session), || {
        final_store.load_all()
    })?;
    rec.check(loaded.len() == 1 && corrupt.is_empty(), || {
        format!("load_all recovered {} of 1 checkpoints", loaded.len())
    });
    let tw = t.time("treewidth.sample", Some(session), || {
        treewidth_bounds(&last.instance)
    });
    t.end(session);
    let last_ms = |name: &str| {
        t.durations(name)
            .last()
            .map_or(0.0, |d| d.as_secs_f64() * 1e3)
    };
    m.insert("wire.decode_ms", last_ms("wire.decode"));
    m.insert("parser.program_ms", last_ms("parser.program"));
    m.insert("analysis.gate_ms", last_ms("analysis.gate"));
    m.insert("query.answer_us", median(&answer_us));
    m.insert("service.checkpoint_ms", last_ms("service.checkpoint"));
    m.insert("service.store_save_ms", last_ms("service.store_save"));
    m.insert("service.store_load_ms", last_ms("service.store_load"));
    m.insert("treewidth.sample_ms", last_ms("treewidth.sample"));
    m.insert("treewidth.max_upper", acc.tw_max.max(tw.upper) as f64);
    std::fs::remove_dir_all(&store_dir)
        .map_err(|e| format!("remove {}: {e}", store_dir.display()))?;
    Ok((m, t))
}

/// Checks a traced slice's final state against the workload's
/// expectation (slice `n` of the job).
fn check_final(inputs: &Inputs, slice: &Slice, n: usize, rec: &mut Recorder) {
    let (atoms, apps) = (slice.instance.len(), slice.stats.applications);
    let want = match &inputs.expect {
        Expect::Grid { facts, closure } => Some((facts + closure, *closure)),
        Expect::Staircase { applications } => Some((atoms, *applications)),
        Expect::Elevator {
            applications,
            atoms,
        } => atoms.map(|a| (a, *applications)),
        Expect::Ingest { facts, slice_apps } => Some((facts + 2 * n * slice_apps, n * slice_apps)),
    };
    if let Some(want) = want {
        rec.check((atoms, apps) == want, || {
            format!("traced slice {n}: (atoms, applications) ({atoms}, {apps}), want {want:?}")
        });
    }
}

/// Pass 2: the job through an in-process [`Service`], with the
/// workload's query loop. Returns the job wall (ms, all slices) and the
/// in-process `query_job` median (µs).
fn service_pass(inputs: &Inputs, work: &Path, rec: &mut Recorder) -> Result<(f64, f64), String> {
    let state = work.join(format!("trace-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let ingest = inputs.workload == Workload::IngestResume;
    let svc = Service::with_config(1, service_config(inputs, ingest.then_some(state.as_path())))?;
    let (id, _) = svc
        .submit_analyzed(submit_spec(&inputs.submit_line)?)
        .map_err(|rej| rej.message)?;
    let started = Instant::now();
    let mut query_us = Vec::new();
    let mut i = 0;
    let mut query = |svc: &Service, id: JobId, out: &mut Vec<f64>| -> Result<(), String> {
        let q = &inputs.queries[i % inputs.queries.len()].text;
        let start = Instant::now();
        match svc.query_job(id, q, None, None) {
            Ok(_) => {
                out.push(start.elapsed().as_secs_f64() * 1e6);
                i += 1;
                Ok(())
            }
            // Before the job's first publish there is nothing to read.
            Err(QueryError::NoSnapshot(_)) => Ok(()),
            Err(e) => Err(e.to_string()),
        }
    };
    if inputs.workload == Workload::ElevatorLiveQuery {
        while !svc.status(id).is_some_and(|s| s.is_terminal()) {
            query(&svc, id, &mut query_us)?;
        }
    }
    let mut last = id;
    rec.check(svc.wait(id) == Some(JobStatus::Finished), || {
        "service job did not finish".to_string()
    });
    let mut wall = started.elapsed();
    if ingest {
        let ck = svc
            .checkpoint_of(id)
            .ok_or("service job left no checkpoint")?;
        let resumed = svc
            .try_submit(resume_spec(&ck, slice_apps(inputs))?)
            .map_err(|rej| rej.message)?;
        let started = Instant::now();
        rec.check(svc.wait(resumed) == Some(JobStatus::Finished), || {
            "resumed service job did not finish".to_string()
        });
        wall += started.elapsed();
        last = resumed;
    }
    for _ in 0..inputs.post_queries {
        query(&svc, last, &mut query_us)?;
    }
    svc.shutdown();
    drop(svc);
    let _ = std::fs::remove_dir_all(&state);
    let p50 = if query_us.is_empty() {
        0.0
    } else {
        median(&query_us)
    };
    Ok((wall.as_secs_f64() * 1e3, p50))
}

/// Runs traced passes until `budget` is spent (at least one), writes the
/// last pass's spans to `trace-<workload>.json` in `work`, and returns
/// the per-pass metrics.
pub fn run(
    inputs: &Inputs,
    work: &Path,
    budget: Duration,
    rec: &mut Recorder,
) -> Result<Vec<BTreeMap<&'static str, f64>>, String> {
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut spans = None;
    while passes.is_empty() || started.elapsed() + started.elapsed() / passes.len() as u32 <= budget
    {
        let before = reference::now();
        let (mut m, t) = traced_pass(inputs, work, rec)?;
        let factor = reference::factor(before, reference::now());
        // Times (named `*_s`, `*_ms`, `*_us`) go to nominal speed.
        for (name, value) in m.iter_mut() {
            if ["_s", "_ms", "_us"].iter().any(|unit| name.ends_with(unit)) {
                *value *= factor;
            }
        }
        passes.push(m);
        spans = Some(t);
    }
    if let Some(t) = spans {
        let path = work.join(format!("trace-{}.json", inputs.workload.name()));
        let doc = Json::obj([
            ("workload", Json::str(inputs.workload.name())),
            ("spans", t.to_json()),
        ]);
        std::fs::write(&path, format!("{doc}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(passes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{ALL, SMOKE};

    #[test]
    fn smoke_traced_pass_over_all_workloads() {
        let started = Instant::now();
        let work =
            std::env::temp_dir().join(format!("treechase-bench-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&work).unwrap();
        for w in ALL {
            let inputs = Inputs::generate(w, 1, &SMOKE);
            let mut rec = Recorder::default();
            let (m, _) = traced_pass(&inputs, &work, &mut rec).unwrap();
            assert_eq!(rec.failed, 0, "{}: {:?}", w.name(), rec.failures);
            assert!(m["engine.applications"] > 0.0, "{}", w.name());
            assert!(
                m["trace.coverage"] >= 0.9,
                "{}: coverage {}",
                w.name(),
                m["trace.coverage"]
            );
        }
        let _ = std::fs::remove_dir_all(&work);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "smoke pass took {:?}",
            started.elapsed()
        );
    }
}
