//! `treechase` — command-line front end for the chase engine.
//!
//! ```text
//! treechase run <file> [--variant V] [--max-apps N] [--dot OUT.dot]
//! treechase analyze <file> [--budget N] [--probe-apps N] [--json]
//! treechase decide <file> "<query>" [--max-apps N]
//! treechase query <file|kb> "<query>" [--variant V] [--max-apps N]
//!                 [--node-limit N] [--max-wall-ms N]
//! treechase serve [--workers N] [--state-dir DIR] [--retries N]
//!                 [--retry-backoff-ms N] [--checkpoint-every N]
//!                 [--max-queue N] [--quota N] [--mem-soft N] [--mem-hard N]
//!                 [--op-deadline MS] [--drain-grace MS] [--job-deadline MS]
//!                 [--strict-admission]
//! treechase batch <dir> [--workers N] [--variant V] [--max-apps N]
//!                       [--max-wall-ms N] [--tw-every N] [--progress-every N]
//!                       [--state-dir DIR] [--retries N] [--retry-backoff-ms N]
//!                       [--checkpoint-every N] [--fault-plan SPEC]
//!                       [--mem-soft N] [--mem-hard N]
//! treechase coordinator --state-dir DIR [--listen HOST:PORT] [--lease MS]
//!                       [--heartbeat MS] [--checkpoint-every N]
//!                       [--max-queue N] [--op-deadline MS]
//!                       [--strict-admission]
//! treechase worker --connect HOST:PORT [--name NAME]
//! treechase cluster-client <host:port>
//! ```
//!
//! The input files use the `chase-parser` syntax (facts, rules, optional
//! `?-` queries). `run` chases the KB and evaluates every query of the
//! file against the result; `analyze` runs the admission-time analysis
//! gate — static certificates, the Figure 1 dynamic probes, and the
//! derived stratified chase plan (`--json` emits the wire-format
//! report); `decide` dovetails the Theorem 1 twin procedure
//! on an ad-hoc query; `query` answers a CQ/UCQ with answer variables
//! (`?(X) :- p(X, Y)`) over a budgeted chase of the file or a named
//! built-in KB, tagging the reply `complete` / `sound-prefix` /
//! `truncated`. `serve` speaks the JSONL job protocol over
//! stdin/stdout (see README, "Running as a service"); `batch` submits
//! every `.tc` file in a directory to a shared worker pool and streams
//! progress events as JSONL.
//!
//! Flags are declared in one table ([`FLAGS`]) shared by all subcommands;
//! a flag passed to a subcommand that does not accept it is a usage
//! error. All usage errors exit with status 2.

use std::io::{BufRead, Read as _, Write as _};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use treechase::analysis::{critical_instance_test, CriticalOutcome};
use treechase::core::analyze_kb;
use treechase::engine::dot::instance_dot;
use treechase::homomorphism::SearchBudget;
use treechase::prelude::*;
use treechase::service::handler::{drain_fields, error};
use treechase::service::protocol::{self, event_to_json, parse_request, Request};
use treechase::service::{
    handle, parse_fault_plan, parse_json, JobSpec, JobStatus, Json, Service, ServiceConfig,
    MAX_FRAME,
};

/// Parsed command line: the subcommand's positional operands plus every
/// flag value (each flag has a default, so commands just read fields).
struct Args {
    positional: Vec<String>,
    variant: ChaseVariant,
    max_apps: usize,
    budget: usize,
    probe_apps: Option<usize>,
    node_limit: Option<usize>,
    dot: Option<String>,
    workers: usize,
    max_wall_ms: Option<u64>,
    tw_every: Option<usize>,
    progress_every: usize,
    state_dir: Option<String>,
    retries: usize,
    retry_backoff_ms: u64,
    checkpoint_every: Option<usize>,
    fault_plan: Option<String>,
    max_queue: Option<usize>,
    quota: Option<usize>,
    mem_soft: Option<usize>,
    mem_hard: Option<usize>,
    op_deadline_ms: Option<u64>,
    drain_grace_ms: u64,
    job_deadline_ms: Option<u64>,
    json: bool,
    strict_admission: bool,
    listen: String,
    connect: Option<String>,
    lease_ms: u64,
    heartbeat_ms: Option<u64>,
    worker_name: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            positional: Vec::new(),
            variant: ChaseVariant::Core,
            max_apps: 1_000,
            budget: 80,
            probe_apps: None,
            node_limit: None,
            dot: None,
            workers: 4,
            max_wall_ms: None,
            tw_every: None,
            progress_every: 1,
            state_dir: None,
            retries: 2,
            retry_backoff_ms: 50,
            checkpoint_every: None,
            fault_plan: None,
            max_queue: None,
            quota: None,
            mem_soft: None,
            mem_hard: None,
            op_deadline_ms: None,
            drain_grace_ms: 5_000,
            job_deadline_ms: None,
            json: false,
            strict_admission: false,
            listen: "127.0.0.1:7070".to_string(),
            connect: None,
            lease_ms: 3_000,
            heartbeat_ms: None,
            worker_name: None,
        }
    }
}

/// One row of the flag table: spelling, value placeholder (empty for a
/// boolean flag that takes no value), the subcommands that accept it,
/// and the setter.
struct FlagSpec {
    name: &'static str,
    metavar: &'static str,
    commands: &'static [&'static str],
    apply: fn(&mut Args, &str) -> Result<(), String>,
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("{flag}: {e}"))
}

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--variant",
        metavar: "oblivious|semi|restricted|frugal|core",
        commands: &["run", "batch", "query"],
        apply: |a, v| {
            a.variant = protocol::parse_variant(v)?;
            Ok(())
        },
    },
    FlagSpec {
        name: "--max-apps",
        metavar: "N",
        commands: &["run", "decide", "batch", "query"],
        apply: |a, v| {
            a.max_apps = parse_num("--max-apps", v)?;
            Ok(())
        },
    },
    FlagSpec {
        name: "--budget",
        metavar: "N",
        commands: &["analyze"],
        apply: |a, v| {
            a.budget = parse_num("--budget", v)?;
            Ok(())
        },
    },
    FlagSpec {
        name: "--probe-apps",
        metavar: "N",
        commands: &["analyze"],
        apply: |a, v| {
            a.probe_apps = Some(parse_num("--probe-apps", v)?);
            Ok(())
        },
    },
    FlagSpec {
        name: "--node-limit",
        metavar: "N",
        commands: &["query"],
        apply: |a, v| {
            a.node_limit = Some(parse_num::<usize>("--node-limit", v)?.max(1));
            Ok(())
        },
    },
    FlagSpec {
        name: "--dot",
        metavar: "OUT.dot",
        commands: &["run"],
        apply: |a, v| {
            a.dot = Some(v.to_string());
            Ok(())
        },
    },
    FlagSpec {
        name: "--workers",
        metavar: "N",
        commands: &["serve", "batch"],
        apply: |a, v| {
            a.workers = parse_num::<usize>("--workers", v)?.max(1);
            Ok(())
        },
    },
    FlagSpec {
        name: "--max-wall-ms",
        metavar: "N",
        commands: &["batch", "query"],
        apply: |a, v| {
            a.max_wall_ms = Some(parse_num("--max-wall-ms", v)?);
            Ok(())
        },
    },
    FlagSpec {
        name: "--tw-every",
        metavar: "N",
        commands: &["batch"],
        apply: |a, v| {
            a.tw_every = Some(parse_num::<usize>("--tw-every", v)?.max(1));
            Ok(())
        },
    },
    FlagSpec {
        name: "--progress-every",
        metavar: "N",
        commands: &["batch"],
        apply: |a, v| {
            a.progress_every = parse_num::<usize>("--progress-every", v)?.max(1);
            Ok(())
        },
    },
    FlagSpec {
        name: "--state-dir",
        metavar: "DIR",
        commands: &["serve", "batch", "coordinator"],
        apply: |a, v| {
            a.state_dir = Some(v.to_string());
            Ok(())
        },
    },
    FlagSpec {
        name: "--retries",
        metavar: "N",
        commands: &["serve", "batch"],
        apply: |a, v| {
            a.retries = parse_num("--retries", v)?;
            Ok(())
        },
    },
    FlagSpec {
        name: "--retry-backoff-ms",
        metavar: "N",
        commands: &["serve", "batch"],
        apply: |a, v| {
            a.retry_backoff_ms = parse_num("--retry-backoff-ms", v)?;
            Ok(())
        },
    },
    FlagSpec {
        name: "--checkpoint-every",
        metavar: "N",
        commands: &["serve", "batch", "coordinator"],
        apply: |a, v| {
            a.checkpoint_every = Some(parse_num::<usize>("--checkpoint-every", v)?.max(1));
            Ok(())
        },
    },
    FlagSpec {
        name: "--fault-plan",
        metavar: "app:K|core:K|ckpt:K|mem:K|slow:K:MS|rand:S:K:H,...",
        commands: &["batch"],
        apply: |a, v| {
            parse_fault_plan(v)?; // validate eagerly; a fresh plan is built per job
            a.fault_plan = Some(v.to_string());
            Ok(())
        },
    },
    FlagSpec {
        name: "--max-queue",
        metavar: "N",
        commands: &["serve", "coordinator"],
        apply: |a, v| {
            a.max_queue = Some(parse_num::<usize>("--max-queue", v)?.max(1));
            Ok(())
        },
    },
    FlagSpec {
        name: "--quota",
        metavar: "N",
        commands: &["serve"],
        apply: |a, v| {
            a.quota = Some(parse_num::<usize>("--quota", v)?.max(1));
            Ok(())
        },
    },
    FlagSpec {
        name: "--mem-soft",
        metavar: "UNITS",
        commands: &["serve", "batch"],
        apply: |a, v| {
            a.mem_soft = Some(parse_num::<usize>("--mem-soft", v)?.max(1));
            Ok(())
        },
    },
    FlagSpec {
        name: "--mem-hard",
        metavar: "UNITS",
        commands: &["serve", "batch"],
        apply: |a, v| {
            a.mem_hard = Some(parse_num::<usize>("--mem-hard", v)?.max(1));
            Ok(())
        },
    },
    FlagSpec {
        name: "--op-deadline",
        metavar: "MS",
        commands: &["serve", "coordinator"],
        apply: |a, v| {
            a.op_deadline_ms = Some(parse_num("--op-deadline", v)?);
            Ok(())
        },
    },
    FlagSpec {
        name: "--drain-grace",
        metavar: "MS",
        commands: &["serve"],
        apply: |a, v| {
            a.drain_grace_ms = parse_num("--drain-grace", v)?;
            Ok(())
        },
    },
    FlagSpec {
        name: "--job-deadline",
        metavar: "MS",
        commands: &["serve"],
        apply: |a, v| {
            a.job_deadline_ms = Some(parse_num("--job-deadline", v)?);
            Ok(())
        },
    },
    FlagSpec {
        name: "--json",
        metavar: "",
        commands: &["analyze"],
        apply: |a, _| {
            a.json = true;
            Ok(())
        },
    },
    FlagSpec {
        name: "--strict-admission",
        metavar: "",
        commands: &["serve", "coordinator"],
        apply: |a, _| {
            a.strict_admission = true;
            Ok(())
        },
    },
    FlagSpec {
        name: "--listen",
        metavar: "HOST:PORT",
        commands: &["coordinator"],
        apply: |a, v| {
            a.listen = v.to_string();
            Ok(())
        },
    },
    FlagSpec {
        name: "--connect",
        metavar: "HOST:PORT",
        commands: &["worker"],
        apply: |a, v| {
            a.connect = Some(v.to_string());
            Ok(())
        },
    },
    FlagSpec {
        name: "--lease",
        metavar: "MS",
        commands: &["coordinator"],
        apply: |a, v| {
            a.lease_ms = parse_num::<u64>("--lease", v)?.max(1);
            Ok(())
        },
    },
    FlagSpec {
        name: "--heartbeat",
        metavar: "MS",
        commands: &["coordinator"],
        apply: |a, v| {
            a.heartbeat_ms = Some(parse_num::<u64>("--heartbeat", v)?.max(1));
            Ok(())
        },
    },
    FlagSpec {
        name: "--name",
        metavar: "NAME",
        commands: &["worker"],
        apply: |a, v| {
            a.worker_name = Some(v.to_string());
            Ok(())
        },
    },
];

/// One row of the command table: spelling, operand count bounds, operand
/// placeholder and handler.
struct CommandSpec {
    name: &'static str,
    operands: &'static str,
    min_args: usize,
    max_args: usize,
    run: fn(&Args) -> Result<(), String>,
}

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "run",
        operands: "<file>",
        min_args: 1,
        max_args: 1,
        run: cmd_run,
    },
    CommandSpec {
        name: "analyze",
        operands: "<file>",
        min_args: 1,
        max_args: 1,
        run: cmd_analyze,
    },
    CommandSpec {
        name: "decide",
        operands: "<file> \"<query>\"",
        min_args: 2,
        max_args: 2,
        run: cmd_decide,
    },
    CommandSpec {
        name: "query",
        operands: "<file|kb> \"<query>\"",
        min_args: 2,
        max_args: 2,
        run: cmd_query,
    },
    CommandSpec {
        name: "serve",
        operands: "",
        min_args: 0,
        max_args: 0,
        run: cmd_serve,
    },
    CommandSpec {
        name: "batch",
        operands: "<dir>",
        min_args: 1,
        max_args: 1,
        run: cmd_batch,
    },
    CommandSpec {
        name: "coordinator",
        operands: "",
        min_args: 0,
        max_args: 0,
        run: cmd_coordinator,
    },
    CommandSpec {
        name: "worker",
        operands: "",
        min_args: 0,
        max_args: 0,
        run: cmd_worker,
    },
    CommandSpec {
        name: "cluster-client",
        operands: "<host:port>",
        min_args: 1,
        max_args: 1,
        run: cmd_cluster_client,
    },
];

fn usage() -> ExitCode {
    let mut text = String::from("usage:\n");
    for cmd in COMMANDS {
        text.push_str("  treechase ");
        text.push_str(cmd.name);
        if !cmd.operands.is_empty() {
            text.push(' ');
            text.push_str(cmd.operands);
        }
        for flag in FLAGS {
            if flag.commands.contains(&cmd.name) {
                if flag.metavar.is_empty() {
                    text.push_str(&format!(" [{}]", flag.name));
                } else {
                    text.push_str(&format!(" [{} {}]", flag.name, flag.metavar));
                }
            }
        }
        text.push('\n');
    }
    eprint!("{text}");
    ExitCode::from(2)
}

/// Parses flags against the table, rejecting unknown flags and flags the
/// subcommand does not accept.
fn parse_args(cmd: &CommandSpec, mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(arg) = raw.next() {
        if let Some(flag) = FLAGS.iter().find(|f| f.name == arg) {
            if !flag.commands.contains(&cmd.name) {
                return Err(format!("{} does not apply to `{}`", flag.name, cmd.name));
            }
            // An empty metavar marks a boolean flag: no value consumed.
            let value = if flag.metavar.is_empty() {
                String::new()
            } else {
                raw.next()
                    .ok_or_else(|| format!("{} needs a value", flag.name))?
            };
            (flag.apply)(&mut args, &value)?;
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            args.positional.push(arg);
        }
    }
    if args.positional.len() < cmd.min_args || args.positional.len() > cmd.max_args {
        return Err(format!("{} takes {}", cmd.name, cmd.operands_description()));
    }
    Ok(args)
}

impl CommandSpec {
    fn operands_description(&self) -> String {
        match (self.min_args, self.max_args) {
            (0, 0) => "no operands".to_string(),
            (1, 1) => "exactly one operand".to_string(),
            (lo, hi) if lo == hi => format!("exactly {lo} operands"),
            (lo, hi) => format!("{lo} to {hi} operands"),
        }
    }
}

fn load(path: &str) -> Result<(KnowledgeBase, Vec<(String, AtomSet)>), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let prog = parse_program(&src).map_err(|e| format!("{path}:{e}"))?;
    Ok(KnowledgeBase::from_program(prog))
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let path = &args.positional[0];
    let (kb, queries) = load(path)?;
    let cfg = ChaseConfig::variant(args.variant).with_max_applications(args.max_apps);
    let res = kb.chase(&cfg);
    println!(
        "{:?} chase: {:?} after {} applications ({} rounds, {} retractions)",
        args.variant, res.outcome, res.stats.applications, res.stats.rounds, res.stats.retractions
    );
    println!(
        "final instance: {} atoms = {}",
        res.final_instance.len(),
        res.final_instance.with(&kb.vocab)
    );
    for (name, q) in &queries {
        let hit = maps_to(q, &res.final_instance);
        let verdict = match (hit, res.outcome.terminated()) {
            (true, _) => "entailed (certified)",
            (false, true) => "not entailed (certified)",
            (false, false) => "not found (inconclusive: budget)",
        };
        println!("query {name}: {verdict}");
    }
    if let Some(out) = &args.dot {
        std::fs::write(out, instance_dot(&kb.vocab, &res.final_instance, path))
            .map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let path = &args.positional[0];
    // The operand is a program file, or the name of a built-in KB
    // (`staircase` / `elevator`) when no such file exists.
    let kb = match load(path) {
        Ok((kb, _)) => kb,
        Err(e) => treechase::service::named_kb(path).map_err(|_| e)?,
    };
    // The static sub-tests get a search budget proportional to the
    // probe budget, so one knob scales the whole analysis; `--probe-apps`
    // overrides just the dynamic probe's application horizon.
    let budget = SearchBudget::unlimited().with_node_limit(args.budget.saturating_mul(25));
    let gate = analyze_kb(&kb, &budget, args.probe_apps.unwrap_or(args.budget));
    if args.json {
        println!("{}", protocol::analysis_to_json(&gate, &kb.rules));
        return Ok(());
    }
    println!("--- ruleset report (static + probe evidence) ---");
    println!("{}", gate.report);
    match critical_instance_test(
        &kb.rules,
        &SearchBudget::unlimited().with_node_limit(args.budget.saturating_mul(4)),
    ) {
        CriticalOutcome::TerminatesEverywhere { applications } => println!(
            "critical-instance test: terminates everywhere ({applications} applications) ⇒ fes"
        ),
        CriticalOutcome::BudgetExhausted => {
            println!("critical-instance test: inconclusive at this budget");
        }
    }
    println!(
        "--- dynamic probes (this fact base, budget {}) ---",
        args.budget
    );
    let probe = &gate.probe;
    println!("core chase terminated: {}", probe.core_chase_terminated);
    println!(
        "restricted chase: terminated={} tw-profile max {}",
        probe.restricted_chase_terminated,
        probe.restricted_uniform_bound()
    );
    println!(
        "core chase tw: max {} recurring {:?}",
        probe.core_uniform_bound(),
        probe.core_recurring_bound()
    );
    println!("--- chase plan ---");
    println!("{}", gate.plan.describe(&kb.rules));
    println!(
        "recommended variant: {}",
        protocol::variant_name(gate.plan.recommended_variant())
    );
    println!("admissible: {}", gate.admissible());
    println!(
        "cost model: {} (from {}) -> max_apps {} mem {}/{} deadline {:?}",
        gate.cost_class.name(),
        gate.provenance,
        gate.envelope.max_apps,
        gate.envelope.mem_soft,
        gate.envelope.mem_hard,
        gate.envelope.deadline,
    );
    Ok(())
}

fn cmd_decide(args: &Args) -> Result<(), String> {
    let [path, query_src] = &args.positional[..] else {
        unreachable!("operand count checked by parse_args");
    };
    let (mut kb, _) = load(path)?;
    let query = kb
        .parse_query(query_src)
        .map_err(|e| format!("query: {e}"))?;
    let cfg = DecideConfig {
        max_applications: args.max_apps,
        max_atoms: 100_000,
        core_max_applications: (args.max_apps / 5).max(20),
    };
    let out = decide(&kb, &query, &cfg);
    println!("{out:?}");
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), String> {
    let [path, query_src] = &args.positional[..] else {
        unreachable!("operand count checked by parse_args");
    };
    // The operand is a program file, or the name of a built-in KB
    // (`staircase` / `elevator`) when no such file exists.
    let kb = match load(path) {
        Ok((kb, _)) => kb,
        Err(e) => treechase::service::named_kb(path).map_err(|_| e)?,
    };
    let mut cfg = ChaseConfig::variant(args.variant).with_max_applications(args.max_apps);
    cfg.max_wall = args.max_wall_ms.map(Duration::from_millis);
    let mut budget = SearchBudget::unlimited();
    if let Some(n) = args.node_limit {
        budget = budget.with_node_limit(n);
    }
    let out = treechase::query::answer_kb(&kb, query_src, &cfg, &budget)
        .map_err(|e| format!("query: {e}"))?;
    match out.completeness.horizon() {
        Some(h) => println!("completeness: {} (horizon {h})", out.completeness.label()),
        None => println!("completeness: {}", out.completeness.label()),
    }
    println!("entailed: {}", out.entailed());
    if out.var_names.is_empty() {
        return Ok(());
    }
    println!("answers ({}):", out.answers.len());
    for row in &out.answers {
        let mut line = String::new();
        for (name, value) in out.var_names.iter().zip(row) {
            if !line.is_empty() {
                line.push_str(", ");
            }
            line.push_str(&format!("{name} = {value}"));
        }
        println!("  {line}");
    }
    Ok(())
}

/// Writes one JSONL line to stdout. Holding the stdout lock for the
/// whole write keeps events from the forwarder thread and replies from
/// the request loop from interleaving mid-line.
fn emit_line(line: &Json) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// The supervision/persistence/overload configuration shared by `serve`
/// and `batch`.
fn service_config(args: &Args) -> ServiceConfig {
    ServiceConfig {
        state_dir: args.state_dir.as_ref().map(std::path::PathBuf::from),
        max_retries: args.retries,
        retry_backoff: Duration::from_millis(args.retry_backoff_ms),
        checkpoint_every: args.checkpoint_every,
        max_queue: args.max_queue,
        submitter_quota: args.quota,
        job_deadline: args.job_deadline_ms.map(Duration::from_millis),
        op_deadline: args.op_deadline_ms.map(Duration::from_millis),
        drain_grace: Duration::from_millis(args.drain_grace_ms),
        strict_admission: args.strict_admission,
        ..ServiceConfig::default()
    }
}

/// Checks the service-level memory ceilings for consistency (the same
/// rule the protocol enforces per request).
fn validate_mem_flags(args: &Args) -> Result<(), String> {
    if let (Some(soft), Some(hard)) = (args.mem_soft, args.mem_hard) {
        if soft > hard {
            return Err(format!(
                "--mem-soft ({soft}) must not exceed --mem-hard ({hard})"
            ));
        }
    }
    Ok(())
}

/// Applies the service-level memory ceilings to a job config that did
/// not set its own.
fn apply_mem_defaults(cfg: &mut ChaseConfig, args: &Args) {
    if cfg.mem_soft.is_none() {
        cfg.mem_soft = args.mem_soft;
    }
    if cfg.mem_hard.is_none() {
        cfg.mem_hard = args.mem_hard;
    }
}

/// Reports checkpoint recovery on stderr and returns the recovered ids.
fn report_recovery(svc: &Service) -> Vec<treechase::service::JobId> {
    for err in svc.recovery_errors() {
        eprintln!(
            "warning: unrecoverable checkpoint {}: {}",
            err.path.display(),
            err.error
        );
    }
    svc.recovered_jobs().to_vec()
}

/// SIGTERM handling without any external crate: the C handler only
/// flips an atomic, which callers poll through [`sigterm::received`] or
/// hand to [`sigterm::watch`] to act on outside signal context.
#[cfg(unix)]
#[allow(unsafe_code)] // the single vetted `signal(2)` registration below
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::Release);
    }

    /// Installs the handler (async-signal-safe: it only stores a flag).
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` with a handler that only performs an atomic
        // store is async-signal-safe; no allocation, locking or I/O
        // happens in signal context.
        unsafe {
            signal(SIGTERM, on_term as *const () as usize);
        }
    }

    /// Has SIGTERM arrived?
    pub fn received() -> bool {
        TERM.load(Ordering::Acquire)
    }

    /// Installs the handler and runs `action` on a watcher thread once
    /// SIGTERM arrives.
    pub fn watch(action: impl FnOnce() + Send + 'static) {
        install();
        std::thread::spawn(move || {
            while !received() {
                std::thread::sleep(Duration::from_millis(25));
            }
            action();
        });
    }
}

/// Without SIGTERM there is nothing to watch.
#[cfg(not(unix))]
mod sigterm {
    pub fn install() {}

    pub fn received() -> bool {
        false
    }

    pub fn watch(_action: impl FnOnce() + Send + 'static) {}
}

/// Discards input up to and including the next newline (or EOF).
fn skip_line(input: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let buf = input.fill_buf()?;
        if buf.is_empty() {
            return Ok(());
        }
        if let Some(i) = buf.iter().position(|&b| b == b'\n') {
            input.consume(i + 1);
            return Ok(());
        }
        let n = buf.len();
        input.consume(n);
    }
}

/// Joins the event forwarder, from whichever exit path gets there
/// first: the end of the request loop or the SIGTERM drain.
fn join_forwarder(forwarder: &Mutex<Option<JoinHandle<()>>>) {
    let handle = forwarder.lock().ok().and_then(|mut g| g.take());
    if let Some(h) = handle {
        let _ = h.join();
    }
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    validate_mem_flags(args)?;
    let svc = Arc::new(Service::with_config(args.workers, service_config(args))?);
    let recovered = report_recovery(&svc);
    let events = svc.events();
    if !recovered.is_empty() {
        emit_line(&Json::obj([
            ("type", Json::str("recovered")),
            (
                "jobs",
                Json::Arr(recovered.iter().map(|id| Json::Int(*id as i64)).collect()),
            ),
        ]));
    }
    let forwarder = Arc::new(Mutex::new(Some(std::thread::spawn(move || {
        for ev in events {
            emit_line(&event_to_json(&ev));
        }
    }))));

    // SIGTERM → graceful drain: stop admitting, checkpoint running
    // slices, flush the event stream, exit 0.
    {
        let svc = Arc::clone(&svc);
        let forwarder = Arc::clone(&forwarder);
        sigterm::watch(move || {
            let mut fields = vec![("type".to_string(), Json::str("drained"))];
            fields.extend(drain_fields(&svc.drain(None)));
            emit_line(&Json::Obj(fields));
            svc.close_events();
            join_forwarder(&forwarder);
            std::process::exit(0);
        });
    }

    let mut stdin = std::io::stdin().lock();
    let mut line = Vec::new();
    loop {
        line.clear();
        // At most one byte past the limit is buffered, so an over-long
        // line is answered without ever being held whole.
        let read = (&mut stdin)
            .take(MAX_FRAME as u64 + 1)
            .read_until(b'\n', &mut line)
            .map_err(|e| format!("stdin: {e}"))?;
        if read == 0 {
            break;
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        } else if line.len() > MAX_FRAME {
            emit_line(&error(&format!("request line exceeds {MAX_FRAME} bytes")));
            skip_line(&mut stdin).map_err(|e| format!("stdin: {e}"))?;
            continue;
        }
        let text = std::str::from_utf8(&line).map_err(|e| format!("stdin: {e}"))?;
        if text.trim().is_empty() {
            continue;
        }
        let mut req = match parse_json(text).and_then(|v| parse_request(&v)) {
            Ok(req) => req,
            Err(message) => {
                emit_line(&error(&message));
                continue;
            }
        };
        // `drain` and `shutdown` both end the serve loop; a drain has
        // already checkpointed the running slices by the time its reply
        // is written, and `shutdown` joins the workers only after.
        let exit = matches!(req, Request::Drain | Request::Shutdown);
        // The service-level memory ceilings fill in a fresh submit's
        // config before the admission gate; a resume keeps the ceilings
        // of its checkpoint.
        if let Request::Submit { config, .. } = &mut req {
            apply_mem_defaults(config, args);
        }
        emit_line(&handle(&*svc, req));
        if exit {
            break;
        }
    }
    svc.shutdown();
    join_forwarder(&forwarder);
    Ok(())
}

fn cmd_batch(args: &Args) -> Result<(), String> {
    let dir = &args.positional[0];
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "tc"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{dir}: no .tc files"));
    }

    validate_mem_flags(args)?;
    let mut cfg = ChaseConfig::variant(args.variant).with_max_applications(args.max_apps);
    cfg.max_wall = args.max_wall_ms.map(Duration::from_millis);
    apply_mem_defaults(&mut cfg, args);

    let svc = Service::with_config(args.workers, service_config(args))?;
    let recovered = report_recovery(&svc);
    let events = svc.events();
    let forwarder = std::thread::spawn(move || {
        for ev in events {
            emit_line(&event_to_json(&ev));
        }
    });

    let mut ids = recovered;
    for path in &files {
        let name = path.file_stem().map_or_else(
            || path.display().to_string(),
            |s| s.to_string_lossy().into_owned(),
        );
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        // A fresh fault plan per job: each job's sites fire once.
        let mut job_cfg = cfg.clone();
        if let Some(plan) = &args.fault_plan {
            job_cfg.fault = Some(parse_fault_plan(plan)?);
        }
        let mut spec = JobSpec::from_text(name, &src, job_cfg)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .with_progress_every(args.progress_every);
        if let Some(every) = args.tw_every {
            spec = spec.with_tw_samples(every);
        }
        ids.push(svc.submit(spec));
    }

    let mut failed = 0usize;
    let mut summaries = Vec::new();
    for id in &ids {
        let status = svc.wait(*id).expect("submitted job is known");
        let name = svc
            .list()
            .into_iter()
            .find(|r| r.id == *id)
            .map(|r| r.name)
            .unwrap_or_default();
        if status == JobStatus::Failed {
            failed += 1;
            summaries.push(format!("job {name}: failed"));
            continue;
        }
        if let Some(line) = svc.with_result(*id, |r| {
            format!(
                "job {name}: {} after {} applications, {} atoms, {} ms",
                protocol::outcome_name(r.outcome),
                r.stats.applications,
                r.final_instance.len(),
                r.wall_ms
            )
        }) {
            summaries.push(line);
        }
    }
    svc.shutdown();
    drop(svc);
    let _ = forwarder.join();

    for line in &summaries {
        println!("{line}");
    }
    println!(
        "batch: {} jobs, {} completed, {} failed ({} workers)",
        ids.len(),
        ids.len() - failed,
        failed,
        args.workers
    );
    if failed > 0 {
        return Err(format!("{failed} job(s) failed"));
    }
    Ok(())
}

/// `treechase coordinator`: owns the cluster job table, grants leases
/// to workers over TCP, and reschedules lost leases from the durable
/// checkpoints in `--state-dir`. SIGTERM shuts the listener down; the
/// state dir *is* the drain — every job's progress is already durable.
fn cmd_coordinator(args: &Args) -> Result<(), String> {
    let state_dir = args
        .state_dir
        .as_ref()
        .ok_or("coordinator requires --state-dir (durable checkpoints are the unit of dispatch)")?;
    let lease = Duration::from_millis(args.lease_ms);
    let cluster_cfg = treechase::cluster::ClusterConfig {
        lease,
        heartbeat: args.heartbeat_ms.map_or(lease / 4, Duration::from_millis),
        checkpoint_every: args.checkpoint_every.unwrap_or(16),
        service: ServiceConfig {
            // The coordinator never runs jobs itself; its store is
            // opened separately from --state-dir.
            state_dir: None,
            max_queue: args.max_queue,
            op_deadline: args.op_deadline_ms.map(Duration::from_millis),
            strict_admission: args.strict_admission,
            ..ServiceConfig::default()
        },
        ..treechase::cluster::ClusterConfig::default()
    };
    let coord = treechase::cluster::Coordinator::bind(
        &args.listen,
        std::path::Path::new(state_dir),
        cluster_cfg,
    )?;
    let handle = coord.shutdown_handle();
    sigterm::watch(move || handle.shutdown());
    coord.run()
}

/// `treechase worker`: connects to a coordinator, pulls leased jobs and
/// runs them through an embedded single-threaded service. SIGTERM
/// drains: the running slice checkpoints, the lease is released with
/// that checkpoint, and the process exits cleanly.
fn cmd_worker(args: &Args) -> Result<(), String> {
    let connect = args
        .connect
        .clone()
        .ok_or("worker requires --connect <host:port>")?;
    let name = args
        .worker_name
        .clone()
        .unwrap_or_else(|| format!("worker-{}", std::process::id()));
    sigterm::install();
    let cfg = treechase::cluster::WorkerConfig {
        connect,
        name,
        announce: true,
    };
    treechase::cluster::run_worker(&cfg, &sigterm::received)
}

/// `treechase cluster-client`: frames stdin JSONL requests to a
/// coordinator and prints each reply as one line — the shell-scriptable
/// client the CI smoke tests drive.
fn cmd_cluster_client(args: &Args) -> Result<(), String> {
    let addr = &args.positional[0];
    let mut conn =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_read_timeout(Some(Duration::from_millis(250)))
        .map_err(|e| format!("read timeout: {e}"))?;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let msg = parse_json(&line)?;
        let reply = treechase::cluster::wire::roundtrip(&mut conn, &msg)?;
        println!("{reply}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1);
    let Some(cmd_name) = raw.next() else {
        return usage();
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == cmd_name) else {
        return usage();
    };
    let args = match parse_args(cmd, raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    match (cmd.run)(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
