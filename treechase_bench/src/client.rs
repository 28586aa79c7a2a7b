//! The end-to-end client: one `treechase serve --workers 1` process per
//! repetition, driven closed-loop by one client (this thread writes the
//! requests, one reader thread timestamps the reply lines), so the bench
//! adds at most two threads next to the server.
//!
//! Timing rules: a reply is timestamped by the reader thread the moment
//! its line arrives, before anything decodes it, so the client's own
//! decoding is in no metric.

use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use treechase_service::{parse_json, Json};

use crate::reference;
use crate::workloads::{Expect, Inputs, Workload, TW_INTERVAL};

/// How long one reply may take before the run is declared broken.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The raw measurements of one server process's lifetime within a
/// repetition, between two readings of the reference computation
/// ([`crate::reference`]) taken while no server runs.
#[derive(Debug, Default)]
pub struct Segment {
    /// Spawn → first reply, when this start is measured.
    pub setup_s: Vec<f64>,
    /// `submit` latencies.
    pub submit_ms: Vec<f64>,
    /// `resume` latencies (ingest-resume only).
    pub resume_ms: Vec<f64>,
    /// Accepting reply → `finished` event.
    pub job_s: Vec<f64>,
    /// `query` latencies.
    pub query_ms: Vec<f64>,
    /// Wall time of the closed query loop.
    pub query_loop_s: f64,
    /// Peak RSS of the server process.
    pub rss_mb: f64,
    /// CPU time of the server process.
    pub cpu_s: f64,
    /// Minor page faults of the server process.
    pub minor_faults: f64,
    /// Request bytes written.
    pub bytes_in: f64,
    /// Reply and event bytes read.
    pub bytes_out: f64,
    /// Scales this segment's times to nominal speed.
    pub speed_factor: f64,
}

/// Everything the end-to-end repetitions of one run measured.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Completed segments of completed repetitions.
    pub segments: Vec<Segment>,
    /// Completed repetitions.
    pub reps: usize,
    /// The segment in progress, the finished segments of the repetition
    /// in progress, and the reference reading the segment started at.
    cur: Segment,
    done: Vec<Segment>,
    reading: f64,
    /// Operations sent plus output checks made.
    pub attempted: u64,
    /// Failed operations plus failed output checks.
    pub failed: u64,
    /// What failed, for the report.
    pub failures: Vec<String>,
}

impl Recorder {
    /// The time samples `field` of every segment, scaled to nominal
    /// speed.
    pub fn scaled(&self, field: impl Fn(&Segment) -> &[f64]) -> Vec<f64> {
        self.segments
            .iter()
            .flat_map(|s| field(s).iter().map(move |x| x * s.speed_factor))
            .collect()
    }

    /// The time samples `field` of every segment, as measured.
    pub fn raw(&self, field: impl Fn(&Segment) -> &[f64]) -> Vec<f64> {
        self.segments
            .iter()
            .flat_map(|s| field(s).iter().copied())
            .collect()
    }

    /// One value per segment.
    pub fn per_segment(&self, value: impl Fn(&Segment) -> f64) -> Vec<f64> {
        self.segments.iter().map(value).collect()
    }

    fn query_samples(&self) -> usize {
        self.segments.iter().map(|s| s.query_ms.len()).sum()
    }

    /// Records a live server's peak RSS, CPU time, faults and traffic.
    fn sample_process(&mut self, serve: &Serve) -> Result<(), String> {
        let p = proc_sample(serve.child.id())?;
        self.cur.rss_mb = p.rss_mb;
        self.cur.cpu_s = p.cpu_s;
        self.cur.minor_faults = p.minor_faults;
        self.cur.bytes_in = serve.bytes_in as f64;
        self.cur.bytes_out = serve.bytes_out as f64;
        Ok(())
    }

    /// Starts a repetition: the first reference reading.
    fn begin(&mut self) {
        self.cur = Segment::default();
        self.done.clear();
        self.reading = reference::now();
    }

    /// Ends the current segment (its server has exited) with a reference
    /// reading, which also starts the next one.
    fn end_segment(&mut self) {
        let reading = reference::now();
        let mut seg = std::mem::take(&mut self.cur);
        seg.speed_factor = reference::factor(self.reading, reading);
        self.done.push(seg);
        self.reading = reading;
    }

    /// Ends a repetition whose segments all completed.
    fn commit(&mut self) {
        self.segments.append(&mut self.done);
        self.reps += 1;
    }

    /// Counts one operation or output check; a failure is remembered.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak RSS (MB), CPU seconds and minor faults of a live process.
#[derive(Copy, Clone, Debug, Default)]
struct ProcSample {
    rss_mb: f64,
    cpu_s: f64,
    minor_faults: f64,
}

fn proc_sample(pid: u32) -> Result<ProcSample, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    let hwm_kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .ok_or("no VmHWM in /proc status")?;
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name, starting at field 3
    // (state): minflt is field 10, utime 14, stime 15.
    let rest: Vec<&str> = stat
        .rsplit_once(") ")
        .ok_or("malformed /proc stat")?
        .1
        .split_whitespace()
        .collect();
    let field = |n: usize| -> Result<f64, String> {
        rest.get(n - 3)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("/proc stat field {n}"))
    };
    // utime/stime are in USER_HZ ticks, 100 per second on Linux.
    Ok(ProcSample {
        rss_mb: hwm_kb / 1024.0,
        cpu_s: (field(14)? + field(15)?) / 100.0,
        minor_faults: field(10)?,
    })
}

/// A reply line and when it was sent for and arrived.
pub struct Reply {
    sent: Instant,
    arrived: Instant,
    raw: String,
}

impl Reply {
    fn latency(&self) -> Duration {
        self.arrived - self.sent
    }

    fn ok(&self) -> bool {
        line_type(&self.raw) == Some("response")
    }

    fn json(&self) -> Result<Json, String> {
        parse_json(&self.raw)
    }

    fn describe(&self) -> String {
        self.raw.chars().take(300).collect()
    }
}

/// The `type` of a server line. `serve` writes `type` as the first key
/// of every line, which lets the client classify a 100 KB checkpoint
/// reply without decoding it.
fn line_type(raw: &str) -> Option<&str> {
    let rest = raw.strip_prefix("{\"type\":\"")?;
    rest.split('"').next()
}

/// One `treechase serve` process under the closed-loop client.
pub struct Serve {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
    spawned: Instant,
    /// Events received so far, decoded, with their arrival times.
    events: Vec<(Instant, Json)>,
    /// The server printed a `recovered` line at startup.
    recovered: bool,
    bytes_in: u64,
    bytes_out: u64,
}

impl Serve {
    /// Starts `bin serve --workers 1 <flags>`.
    pub fn spawn(bin: &Path, flags: &[String]) -> Result<Serve, String> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--workers", "1"])
            .args(flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut out = BufReader::new(stdout);
            loop {
                let mut line = String::new();
                match out.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        let arrived = Instant::now();
                        if tx.send((arrived, line)).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        Ok(Serve {
            stdin: child.stdin.take(),
            child,
            lines,
            reader: Some(reader),
            spawned,
            events: Vec::new(),
            recovered: false,
            bytes_in: 0,
            bytes_out: 0,
        })
    }

    fn send(&mut self, line: &str) -> Result<Instant, String> {
        let stdin = self.stdin.as_mut().ok_or("stdin closed")?;
        let sent = Instant::now();
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write request: {e}"))?;
        self.bytes_in += line.len() as u64 + 1;
        Ok(sent)
    }

    /// Reads one line; events are decoded and kept, anything else is
    /// returned.
    fn read(&mut self) -> Result<Option<(Instant, String)>, String> {
        let (arrived, mut raw) = match self.lines.recv_timeout(REPLY_TIMEOUT) {
            Ok(line) => line,
            Err(RecvTimeoutError::Timeout) => return Err("server reply timed out".to_string()),
            Err(RecvTimeoutError::Disconnected) => {
                return Err("server closed its output".to_string())
            }
        };
        self.bytes_out += raw.len() as u64;
        raw.truncate(raw.trim_end().len());
        match line_type(&raw) {
            Some("event") => {
                self.events.push((arrived, parse_json(&raw)?));
                Ok(None)
            }
            Some("recovered") => {
                self.recovered = true;
                Ok(None)
            }
            Some(_) => Ok(Some((arrived, raw))),
            None => Err(format!("unexpected server line: {raw:.200}")),
        }
    }

    /// Sends one request and waits for its reply (closed loop: exactly
    /// one request is outstanding, so the next non-event line answers it).
    pub fn request(&mut self, line: &str) -> Result<Reply, String> {
        let sent = self.send(line)?;
        loop {
            if let Some((arrived, raw)) = self.read()? {
                return Ok(Reply { sent, arrived, raw });
            }
        }
    }

    /// Index of the first event at or after `from` that satisfies `pred`.
    fn find_event(&self, from: usize, pred: impl Fn(&Json) -> bool) -> Option<usize> {
        (from..self.events.len()).find(|&i| pred(&self.events[i].1))
    }

    /// Waits for the first event satisfying `pred`.
    fn wait_event(&mut self, pred: impl Fn(&Json) -> bool) -> Result<(Instant, Json), String> {
        let mut from = 0;
        loop {
            if let Some(i) = self.find_event(from, &pred) {
                return Ok(self.events[i].clone());
            }
            from = self.events.len();
            if let Some((_, raw)) = self.read()? {
                return Err(format!("unsolicited reply: {raw:.200}"));
            }
        }
    }

    /// Sends `shutdown` and waits for the process and the reader to end.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = self.request(r#"{"op":"shutdown"}"#)?;
        if !reply.ok() {
            return Err(format!("shutdown: {}", reply.describe()));
        }
        self.stdin = None;
        let status = self.child.wait().map_err(|e| format!("wait serve: {e}"))?;
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("serve exited with {status}"))
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Only reached with the process still running on an error path:
        // stop it and wait, so no server outlives the benchmark.
        self.stdin = None;
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

fn is_event(ev: &Json, job: u64, kind: &str) -> bool {
    ev.get("job").and_then(Json::as_u64) == Some(job)
        && ev.get("event").and_then(Json::as_str) == Some(kind)
}

fn int(v: &Json, key: &str) -> Option<u64> {
    v.get(key).and_then(Json::as_u64)
}

/// Starts a server and times its first reply (`list`).
fn start(bin: &Path, flags: &[String], rec: &mut Recorder) -> Result<(Serve, f64), String> {
    let mut serve = Serve::spawn(bin, flags)?;
    let reply = serve.request(r#"{"op":"list"}"#)?;
    rec.check(reply.ok(), || format!("list: {}", reply.describe()));
    let setup = secs(reply.arrived - serve.spawned);
    Ok((serve, setup))
}

/// Sends a job-admitting line and returns the job id and the reply.
fn admit(serve: &mut Serve, line: &str, rec: &mut Recorder) -> Result<(u64, Reply, Json), String> {
    let reply = serve.request(line)?;
    rec.check(reply.ok(), || format!("admit: {}", reply.describe()));
    let json = reply.json()?;
    let job = int(&json, "job").ok_or_else(|| format!("no job id: {}", reply.describe()))?;
    Ok((job, reply, json))
}

/// Waits for job `job` to finish and records its job time.
fn finish(
    serve: &mut Serve,
    job: u64,
    accepted: Instant,
    rec: &mut Recorder,
) -> Result<Json, String> {
    let (at, fin) = serve.wait_event(|e| is_event(e, job, "finished"))?;
    rec.cur.job_s.push(secs(at - accepted));
    let failed = serve.events.iter().any(|(_, e)| {
        matches!(
            e.get("event").and_then(Json::as_str),
            Some("crashed" | "failed")
        )
    });
    rec.check(!failed, || format!("job {job} crashed or failed"));
    Ok(fin)
}

/// Checks one query reply: completeness tag, horizon order and, where
/// the benchmark knows them, the answers.
fn check_query(
    reply: &Reply,
    inputs: &Inputs,
    i: usize,
    want: &str,
    last_horizon: &mut u64,
    rec: &mut Recorder,
) -> Result<(), String> {
    rec.check(reply.ok(), || format!("query: {}", reply.describe()));
    if !reply.ok() {
        return Ok(());
    }
    let json = reply.json()?;
    let tag = json.get("completeness").and_then(Json::as_str);
    rec.check(tag == Some(want), || {
        format!("query completeness {tag:?}, want {want}")
    });
    if let Some(h) = int(&json, "horizon") {
        rec.check(h >= *last_horizon, || {
            format!("horizon fell {last_horizon} -> {h}")
        });
        *last_horizon = h;
    }
    let case = &inputs.queries[i % inputs.queries.len()];
    if let Some(expected) = &case.answers {
        let mut got: Vec<Vec<String>> = json
            .get("answers")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|row| {
                row.as_arr()
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|t| t.as_str().map(str::to_string))
                    .collect()
            })
            .collect();
        got.sort();
        rec.check(&got == expected, || {
            format!(
                "{}: {} answers, want {}",
                case.text,
                got.len(),
                expected.len()
            )
        });
    }
    Ok(())
}

/// The closed query loop after the job: `inputs.post_queries` queries.
fn post_queries(
    serve: &mut Serve,
    inputs: &Inputs,
    job: u64,
    want: &str,
    rec: &mut Recorder,
) -> Result<(), String> {
    let started = Instant::now();
    let mut horizon = 0;
    for i in 0..inputs.post_queries {
        let reply = serve.request(&inputs.query_line(job, i))?;
        rec.cur.query_ms.push(reply.latency().as_secs_f64() * 1e3);
        check_query(&reply, inputs, i, want, &mut horizon, rec)?;
    }
    rec.cur.query_loop_s += secs(started.elapsed());
    Ok(())
}

/// Live queries from the job's first snapshot until its `finished` event.
fn live_queries(
    serve: &mut Serve,
    inputs: &Inputs,
    job: u64,
    rec: &mut Recorder,
) -> Result<(), String> {
    // Queries before the first publish are refused (no snapshot yet);
    // the first step event comes after it.
    serve.wait_event(|e| is_event(e, job, "step"))?;
    let started = Instant::now();
    let mut seen = 0;
    let mut horizon = 0;
    for i in 0.. {
        if serve
            .find_event(seen, |e| is_event(e, job, "finished"))
            .is_some()
        {
            break;
        }
        seen = serve.events.len();
        let reply = serve.request(&inputs.query_line(job, i))?;
        rec.cur.query_ms.push(reply.latency().as_secs_f64() * 1e3);
        check_query(&reply, inputs, i, "sound-prefix", &mut horizon, rec)?;
    }
    rec.cur.query_loop_s += secs(started.elapsed());
    Ok(())
}

fn check_atoms(fin: &Json, atoms: usize, applications: usize, rec: &mut Recorder) {
    let got = (int(fin, "atoms"), int(fin, "applications"));
    let want = (Some(atoms as u64), Some(applications as u64));
    rec.check(got == want, || {
        format!("finished with (atoms, applications) {got:?}, want {want:?}")
    });
}

/// One repetition of a workload with a single server process.
fn single_rep(inputs: &Inputs, bin: &Path, rec: &mut Recorder) -> Result<(), String> {
    let (mut serve, setup) = start(bin, &inputs.serve_flags, rec)?;
    rec.cur.setup_s.push(setup);
    let (job, reply, json) = admit(&mut serve, &inputs.submit_line, rec)?;
    rec.cur.submit_ms.push(reply.latency().as_secs_f64() * 1e3);
    let want_tag = match inputs.workload {
        Workload::GridDatalog => "complete",
        _ => "sound-prefix",
    };
    if inputs.workload == Workload::ElevatorLiveQuery {
        live_queries(&mut serve, inputs, job, rec)?;
    }
    let fin = finish(&mut serve, job, reply.arrived, rec)?;
    match &inputs.expect {
        Expect::Grid { facts, closure } => check_atoms(&fin, facts + closure, *closure, rec),
        Expect::Staircase { applications } => {
            let plan = json
                .get("analysis")
                .and_then(|a| a.get("plan"))
                .and_then(|p| p.get("variant"))
                .and_then(Json::as_str);
            let applied = json.get("strategy_applied").and_then(Json::as_bool);
            rec.check(plan == Some("core") && applied == Some(true), || {
                format!("gate picked {plan:?} (applied {applied:?}), want core")
            });
            rec.check(
                int(&fin, "applications") == Some(*applications as u64),
                || format!("staircase ran {:?} applications", int(&fin, "applications")),
            );
            let widths: Vec<u64> = serve
                .events
                .iter()
                .filter(|(_, e)| is_event(e, job, "tw-sample"))
                .filter_map(|(_, e)| int(e, "tw_upper"))
                .collect();
            rec.check(widths.len() == applications / TW_INTERVAL, || {
                format!("{} treewidth samples", widths.len())
            });
            rec.check(widths.iter().all(|&w| w <= 2), || {
                format!("tw_upper {widths:?} > 2")
            });
        }
        Expect::Elevator {
            applications,
            atoms,
        } => {
            if let Some(atoms) = atoms {
                check_atoms(&fin, *atoms, *applications, rec);
            }
        }
        Expect::Ingest { .. } => unreachable!("ingest runs ingest_rep"),
    }
    post_queries(&mut serve, inputs, job, want_tag, rec)?;
    rec.sample_process(&serve)?;
    serve.shutdown()?;
    rec.end_segment();
    Ok(())
}

/// The raw `checkpoint` object of a `checkpoint` reply, cut from the
/// line as received (the resume request carries it back verbatim).
fn raw_checkpoint(line: &str) -> Option<&str> {
    let key = "\"checkpoint\":";
    let at = line.find(key)? + key.len();
    line.get(at..line.len().checked_sub(1)?)
}

/// One ingest-resume repetition: run the first slice, fetch its
/// checkpoint, restart on the same state dir (durable recovery), resume.
fn ingest_rep(inputs: &Inputs, bin: &Path, state: &Path, rec: &mut Recorder) -> Result<(), String> {
    let Expect::Ingest { facts, slice_apps } = inputs.expect else {
        unreachable!("ingest expectation");
    };
    let _ = std::fs::remove_dir_all(state);
    let mut flags = inputs.serve_flags.clone();
    flags.extend(["--state-dir".to_string(), state.display().to_string()]);

    let (mut serve, _) = start(bin, &flags, rec)?;
    let (job, reply, _) = admit(&mut serve, &inputs.submit_line, rec)?;
    rec.cur.submit_ms.push(reply.latency().as_secs_f64() * 1e3);
    let fin = finish(&mut serve, job, reply.arrived, rec)?;
    check_atoms(&fin, facts + 2 * slice_apps, slice_apps, rec);
    let ck = serve.request(&format!(r#"{{"op":"checkpoint","job":{job}}}"#))?;
    rec.check(ck.ok(), || format!("checkpoint: {}", ck.describe()));
    let raw = raw_checkpoint(&ck.raw).ok_or("checkpoint reply without a checkpoint")?;
    let resume_line = format!(r#"{{"op":"resume","checkpoint":{raw},"max_apps":{slice_apps}}}"#);
    rec.sample_process(&serve)?;
    serve.shutdown()?;
    rec.end_segment();

    let (mut serve, setup) = start(bin, &flags, rec)?;
    rec.cur.setup_s.push(setup);
    rec.check(serve.recovered, || {
        "restart printed no `recovered` line".to_string()
    });
    let (job, reply, json) = admit(&mut serve, &resume_line, rec)?;
    rec.cur.resume_ms.push(reply.latency().as_secs_f64() * 1e3);
    let exact = json.get("exact").and_then(Json::as_bool);
    rec.check(exact == Some(true), || format!("resume exact {exact:?}"));
    let fin = finish(&mut serve, job, reply.arrived, rec)?;
    check_atoms(&fin, facts + 4 * slice_apps, 2 * slice_apps, rec);
    post_queries(&mut serve, inputs, job, "sound-prefix", rec)?;
    rec.sample_process(&serve)?;
    serve.shutdown()?;
    rec.end_segment();
    std::fs::remove_dir_all(state).map_err(|e| format!("remove {}: {e}", state.display()))
}

/// Repetitions per run at the least, whatever the budget.
const MIN_REPS: usize = 3;
/// Query latencies pooled per run at the least, so that `query_p99_ms`
/// rests on at least ten samples beyond it.
const MIN_QUERY_SAMPLES: usize = 1000;

/// Runs repetitions until `budget` is spent (and at least [`MIN_REPS`]
/// and [`MIN_QUERY_SAMPLES`] are reached), stopping early on a broken
/// repetition. `work` is a scratch directory inside the checkout.
pub fn run(inputs: &Inputs, bin: &Path, work: &Path, budget: Duration, rec: &mut Recorder) {
    let started = Instant::now();
    // A hard stop well inside the benchmark's per-run time limit.
    let cap = budget + Duration::from_secs(60);
    let state: PathBuf = work.join(format!("state-{}", std::process::id()));
    loop {
        let elapsed = started.elapsed();
        let per_rep = elapsed / (rec.reps.max(1) as u32);
        let more = rec.reps < MIN_REPS
            || rec.query_samples() < MIN_QUERY_SAMPLES
            || elapsed + per_rep <= budget;
        if !more || elapsed > cap {
            break;
        }
        rec.begin();
        let result = match inputs.workload {
            Workload::IngestResume => ingest_rep(inputs, bin, &state, rec),
            _ => single_rep(inputs, bin, rec),
        };
        if let Err(e) = result {
            rec.check(false, || e);
            break;
        }
        rec.commit();
    }
    let _ = std::fs::remove_dir_all(&state);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_classified_by_their_leading_type() {
        assert_eq!(line_type(r#"{"type":"event","job":1}"#), Some("event"));
        assert_eq!(
            line_type(r#"{"type":"response","op":"list"}"#),
            Some("response")
        );
        assert_eq!(line_type(r#"{"op":"list"}"#), None);
    }

    #[test]
    fn checkpoint_object_is_cut_verbatim() {
        let line = r#"{"type":"response","op":"checkpoint","job":1,"checkpoint":{"name":"x","program":"p(a)."}}"#;
        assert_eq!(
            raw_checkpoint(line),
            Some(r#"{"name":"x","program":"p(a)."}"#)
        );
    }
}
