//! Integration tests for the coordinator/worker cluster: leased TCP
//! dispatch, heartbeat loss, reschedule-from-checkpoint exactness,
//! duplicate-lease fencing and coordinator restart over a populated
//! state dir.
//!
//! The invariant under test throughout: a cluster run — including one
//! that loses a worker mid-lease and replays from the last durable
//! checkpoint — produces a final instance isomorphic to a
//! single-process run of the same job, with exactly the same number of
//! rule applications (budgets are derivation totals; nothing is
//! double-counted).

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use treechase::atoms::AtomSet;
use treechase::cluster::wire::roundtrip;
use treechase::cluster::{run_worker, ClusterConfig, Coordinator, WorkerConfig};
use treechase::engine::{ChaseConfig, ChaseVariant};
use treechase::homomorphism::isomorphism;
use treechase::service::{Checkpoint, JobSpec, Json, Service, ServiceConfig};

/// A transitive-closure chain: terminates, with enough applications to
/// span several checkpoints. For `n` nodes the restricted chase derives
/// every `r(a_i, a_j)` with `i < j`: `n * (n - 1) / 2` applications.
fn chain_src(n: usize) -> String {
    let mut s = String::new();
    for i in 1..n {
        s.push_str(&format!("e(a{}, a{}). ", i, i + 1));
    }
    s.push('\n');
    s.push_str("Tbase: e(X, Y) -> r(X, Y).\n");
    s.push_str("Ttrans: r(X, Y), e(Y, Z) -> r(X, Z).\n");
    s.push_str(&format!("Qend: ?- r(a1, a{n}).\n"));
    s
}

fn chain_apps(n: usize) -> usize {
    n * (n - 1) / 2
}

/// Single-process ground truth for the same job: final instance and
/// total applications.
fn ground_truth(src: &str) -> (AtomSet, usize) {
    let svc = Service::start(1);
    let mut cfg = ChaseConfig::variant(ChaseVariant::Restricted);
    cfg.max_applications = 10_000;
    let spec = JobSpec::from_text("truth", src, cfg).expect("truth spec parses");
    let id = svc.try_submit(spec).expect("truth submit");
    svc.wait_timeout(id, Some(Duration::from_secs(60)));
    svc.with_result(id, |r| (r.final_instance.clone(), r.stats.applications))
        .expect("truth result")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("treechase-cluster-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quiet_config(lease_ms: u64) -> ClusterConfig {
    ClusterConfig {
        lease: Duration::from_millis(lease_ms),
        heartbeat: Duration::from_millis((lease_ms / 4).max(25)),
        checkpoint_every: 4,
        announce: false,
        ..ClusterConfig::default()
    }
}

struct TestCluster {
    addr: String,
    handle: thread::JoinHandle<Result<(), String>>,
    shutdown: treechase::cluster::coordinator::ShutdownHandle,
}

fn start_coordinator(dir: &std::path::Path, cfg: ClusterConfig) -> TestCluster {
    let coord = Coordinator::bind("127.0.0.1:0", dir, cfg).expect("coordinator binds");
    let addr = coord.local_addr().expect("local addr").to_string();
    let shutdown = coord.shutdown_handle();
    let handle = thread::spawn(move || coord.run());
    TestCluster {
        addr,
        handle,
        shutdown,
    }
}

impl TestCluster {
    fn stop(self) {
        self.shutdown.shutdown();
        self.handle.join().unwrap().unwrap();
    }
}

fn connect(addr: &str) -> TcpStream {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_millis(250)))
        .unwrap();
    conn
}

/// Spawns a real worker thread; returns its stop flag and join handle.
fn spawn_worker(
    addr: &str,
    name: &str,
) -> (Arc<AtomicBool>, thread::JoinHandle<Result<(), String>>) {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let cfg = WorkerConfig {
        connect: addr.to_string(),
        name: name.to_string(),
        announce: false,
    };
    let handle = thread::spawn(move || run_worker(&cfg, &move || flag.load(Ordering::Relaxed)));
    (stop, handle)
}

fn submit_chain(conn: &mut TcpStream, n: usize) -> u64 {
    // Pinning variant + budget keeps the admission gate out of the way
    // (it has its own tests); the gate path is exercised separately.
    let req = Json::obj([
        ("op", Json::str("submit")),
        ("source", Json::Str(chain_src(n))),
        ("name", Json::str("chain")),
        ("variant", Json::str("restricted")),
        ("max_apps", Json::Int(10_000)),
        ("checkpoint_every", Json::Int(4)),
    ]);
    let reply = roundtrip(conn, &req).expect("submit roundtrip");
    assert_eq!(
        reply.get("op").and_then(Json::as_str),
        Some("submit"),
        "{reply}"
    );
    reply.require_u64("job").unwrap()
}

fn wait_for(conn: &mut TcpStream, job: u64, timeout_ms: u64) -> Json {
    let req = Json::obj([
        ("op", Json::str("wait")),
        ("job", Json::Int(job as i64)),
        ("timeout_ms", Json::Int(timeout_ms as i64)),
    ]);
    roundtrip(conn, &req).expect("wait roundtrip")
}

fn status_of(conn: &mut TcpStream, job: u64) -> Json {
    let req = Json::obj([("op", Json::str("status")), ("job", Json::Int(job as i64))]);
    roundtrip(conn, &req).expect("status roundtrip")
}

/// Fetches the job's freshest checkpoint and materializes its instance.
fn final_instance_of(conn: &mut TcpStream, job: u64) -> (AtomSet, usize) {
    let req = Json::obj([
        ("op", Json::str("checkpoint")),
        ("job", Json::Int(job as i64)),
    ]);
    let reply = roundtrip(conn, &req).expect("checkpoint roundtrip");
    let (ck, spec) = Checkpoint::from_json(reply.require("checkpoint").unwrap())
        .unwrap()
        .into_parts();
    (spec.kb.facts, ck.stats.applications)
}

/// A hand-driven worker connection: registers and pulls one lease, but
/// never heartbeats unless the test says so — the controllable stand-in
/// for a worker about to be lost.
fn fake_pull(conn: &mut TcpStream, worker: &str) -> Json {
    let hello = Json::obj([("op", Json::str("hello")), ("worker", Json::str(worker))]);
    let welcome = roundtrip(conn, &hello).expect("hello");
    assert_eq!(welcome.get("op").and_then(Json::as_str), Some("welcome"));
    let pull = Json::obj([("op", Json::str("pull")), ("worker", Json::str(worker))]);
    let lease = roundtrip(conn, &pull).expect("pull");
    assert_eq!(
        lease.get("op").and_then(Json::as_str),
        Some("lease"),
        "{lease}"
    );
    lease
}

/// Runs the leased checkpoint locally for a bounded number of
/// applications and returns the periodic checkpoint a real worker
/// would have shipped at that point (budgets restored to the
/// derivation totals of the lease).
fn partial_run(lease: &Json, apps: usize) -> Checkpoint {
    let (_, mut spec) = Checkpoint::from_json(lease.require("checkpoint").unwrap())
        .unwrap()
        .into_parts();
    let total_budget = spec.config.max_applications;
    spec.config.max_applications = apps;
    spec.checkpoint_every = Some(apps);
    let svc = Service::start(1);
    let local = svc.try_submit(spec).unwrap();
    svc.wait_timeout(local, Some(Duration::from_secs(30)));
    let mut mid = svc.checkpoint_of(local).expect("partial checkpoint");
    assert_eq!(mid.stats.applications, apps, "partial slice ran to cap");
    // A real worker's periodic checkpoint carries the lease's own
    // (derivation-total) budget, not our local cap.
    mid.config.max_applications = total_budget;
    mid
}

#[test]
fn cluster_completes_job_and_matches_single_process() {
    let dir = fresh_dir("complete");
    let cluster = start_coordinator(&dir, quiet_config(3_000));
    let (stop, worker) = spawn_worker(&cluster.addr, "w1");

    let mut conn = connect(&cluster.addr);
    let job = submit_chain(&mut conn, 12);
    let done = wait_for(&mut conn, job, 30_000);
    assert_eq!(done.get("timed_out").and_then(Json::as_bool), Some(false));
    assert_eq!(
        done.get("status").and_then(Json::as_str),
        Some("finished"),
        "{done}"
    );
    assert_eq!(done.get("terminated").and_then(Json::as_bool), Some(true));
    // The named query rode along and was certified on the worker.
    let queries = done.get("queries").and_then(Json::as_arr).expect("queries");
    assert_eq!(queries.len(), 1);
    assert_eq!(
        queries[0].get("verdict").and_then(Json::as_str),
        Some("entailed")
    );

    // Exactness + isomorphism against the single-process run.
    let (truth_instance, truth_apps) = ground_truth(&chain_src(12));
    assert_eq!(truth_apps, chain_apps(12));
    let (cluster_instance, cluster_apps) = final_instance_of(&mut conn, job);
    assert_eq!(cluster_apps, truth_apps, "identical application totals");
    assert!(
        isomorphism(&cluster_instance, &truth_instance).is_some(),
        "cluster final instance isomorphic to single-process run"
    );

    // Query through the coordinator: served from the terminal snapshot,
    // tagged complete.
    let q = Json::obj([
        ("op", Json::str("query")),
        ("job", Json::Int(job as i64)),
        ("query", Json::str("?(X) :- r(a1, X)")),
    ]);
    let reply = roundtrip(&mut conn, &q).expect("query");
    assert_eq!(
        reply.get("completeness").and_then(Json::as_str),
        Some("complete"),
        "{reply}"
    );
    assert_eq!(
        reply.get("answers").and_then(Json::as_arr).unwrap().len(),
        11
    );

    stop.store(true, Ordering::Relaxed);
    worker.join().unwrap().unwrap();
    cluster.stop();
}

/// The coordinator's queue cap is the service's: with
/// `service.max_queue = 1` and no worker to drain the queue, the second
/// submit is shed with a structured `queue-full` rejection.
#[test]
fn service_max_queue_caps_the_coordinator_queue() {
    let dir = fresh_dir("max-queue");
    let cfg = ClusterConfig {
        service: ServiceConfig {
            max_queue: Some(1),
            ..ServiceConfig::default()
        },
        ..quiet_config(2_000)
    };
    let cluster = start_coordinator(&dir, cfg);
    let mut conn = connect(&cluster.addr);
    submit_chain(&mut conn, 5);
    let req = Json::obj([
        ("op", Json::str("submit")),
        ("source", Json::Str(chain_src(5))),
        ("variant", Json::str("restricted")),
        ("max_apps", Json::Int(10_000)),
    ]);
    let reply = roundtrip(&mut conn, &req).expect("submit roundtrip");
    assert_eq!(
        reply.get("type").and_then(Json::as_str),
        Some("rejected"),
        "{reply}"
    );
    assert_eq!(
        reply.get("reason").and_then(Json::as_str),
        Some("queue-full"),
        "{reply}"
    );
    cluster.stop();
}

#[test]
fn expired_lease_reschedules_from_checkpoint_exactly() {
    let dir = fresh_dir("expiry");
    // Short lease so heartbeat loss is detected fast.
    let cluster = start_coordinator(&dir, quiet_config(300));
    let mut conn = connect(&cluster.addr);
    let job = submit_chain(&mut conn, 12);

    // A worker takes the lease, makes real progress, ships one
    // checkpoint — then goes silent (the in-test stand-in for SIGKILL).
    let mut dead = connect(&cluster.addr);
    let lease = fake_pull(&mut dead, "doomed");
    let epoch = lease.require_u64("epoch").unwrap();
    let mid = partial_run(&lease, 10);
    let ship = Json::obj([
        ("op", Json::str("checkpoint")),
        ("worker", Json::str("doomed")),
        ("job", Json::Int(job as i64)),
        ("epoch", Json::Int(epoch as i64)),
        ("checkpoint", mid.to_json()),
    ]);
    let ack = roundtrip(&mut dead, &ship).expect("checkpoint ack");
    assert_eq!(ack.get("op").and_then(Json::as_str), Some("ack"), "{ack}");

    // Mid-run query against the shipped prefix: sound, not complete.
    let q = Json::obj([
        ("op", Json::str("query")),
        ("job", Json::Int(job as i64)),
        ("query", Json::str("?(X) :- r(a1, X)")),
    ]);
    let reply = roundtrip(&mut conn, &q).expect("mid-run query");
    assert_eq!(
        reply.get("completeness").and_then(Json::as_str),
        Some("sound-prefix"),
        "{reply}"
    );

    // No heartbeats: the lease expires and the reaper requeues the job
    // from the durable checkpoint.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let st = status_of(&mut conn, job);
        if st.get("state").and_then(Json::as_str) == Some("queued") {
            assert_eq!(st.require_u64("reschedules").unwrap(), 1);
            assert_eq!(st.require_u64("applications").unwrap(), 10);
            break;
        }
        assert!(Instant::now() < deadline, "lease never expired: {st}");
        thread::sleep(Duration::from_millis(50));
    }

    // A healthy worker picks it up and finishes the remaining suffix.
    let (stop, worker) = spawn_worker(&cluster.addr, "healthy");
    let done = wait_for(&mut conn, job, 30_000);
    assert_eq!(
        done.get("status").and_then(Json::as_str),
        Some("finished"),
        "{done}"
    );

    // Exactness: 10 applications before the loss + the suffix must
    // total exactly the single-process count — nothing double-counted,
    // nothing lost.
    let (truth_instance, truth_apps) = ground_truth(&chain_src(12));
    let (cluster_instance, cluster_apps) = final_instance_of(&mut conn, job);
    assert_eq!(cluster_apps, truth_apps);
    assert!(isomorphism(&cluster_instance, &truth_instance).is_some());

    // The zombie wakes up: every message under its dead epoch is
    // fenced, and nothing about the finished job changes.
    let hb = Json::obj([
        ("op", Json::str("heartbeat")),
        ("worker", Json::str("doomed")),
        ("job", Json::Int(job as i64)),
        ("epoch", Json::Int(epoch as i64)),
    ]);
    let reply = roundtrip(&mut dead, &hb).expect("zombie heartbeat");
    assert_eq!(reply.get("op").and_then(Json::as_str), Some("fenced"));
    let stale = Json::obj([
        ("op", Json::str("checkpoint")),
        ("worker", Json::str("doomed")),
        ("job", Json::Int(job as i64)),
        ("epoch", Json::Int(epoch as i64)),
        ("checkpoint", mid.to_json()),
    ]);
    let reply = roundtrip(&mut dead, &stale).expect("zombie checkpoint");
    assert_eq!(reply.get("op").and_then(Json::as_str), Some("fenced"));
    let st = status_of(&mut conn, job);
    assert_eq!(st.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(st.require_u64("applications").unwrap(), truth_apps as u64);

    stop.store(true, Ordering::Relaxed);
    worker.join().unwrap().unwrap();
    cluster.stop();
}

#[test]
fn released_lease_requeues_with_shipped_progress() {
    let dir = fresh_dir("release");
    // Long lease: requeue must come from the release, not expiry.
    let cluster = start_coordinator(&dir, quiet_config(30_000));
    let mut conn = connect(&cluster.addr);
    let job = submit_chain(&mut conn, 12);

    // A draining worker hands the lease back with its progress.
    let mut draining = connect(&cluster.addr);
    let lease = fake_pull(&mut draining, "draining");
    let epoch = lease.require_u64("epoch").unwrap();
    let mid = partial_run(&lease, 8);
    let release = Json::obj([
        ("op", Json::str("release")),
        ("worker", Json::str("draining")),
        ("job", Json::Int(job as i64)),
        ("epoch", Json::Int(epoch as i64)),
        ("checkpoint", mid.to_json()),
    ]);
    let ack = roundtrip(&mut draining, &release).expect("release ack");
    assert_eq!(ack.get("op").and_then(Json::as_str), Some("ack"), "{ack}");

    // Immediately queued again — no lease-clock wait — with the
    // released progress.
    let st = status_of(&mut conn, job);
    assert_eq!(st.get("state").and_then(Json::as_str), Some("queued"));
    assert_eq!(st.require_u64("applications").unwrap(), 8);

    let (stop, worker) = spawn_worker(&cluster.addr, "successor");
    let done = wait_for(&mut conn, job, 30_000);
    assert_eq!(done.get("status").and_then(Json::as_str), Some("finished"));
    let (truth_instance, truth_apps) = ground_truth(&chain_src(12));
    let (cluster_instance, cluster_apps) = final_instance_of(&mut conn, job);
    assert_eq!(cluster_apps, truth_apps);
    assert!(isomorphism(&cluster_instance, &truth_instance).is_some());

    stop.store(true, Ordering::Relaxed);
    worker.join().unwrap().unwrap();
    cluster.stop();
}

#[test]
fn coordinator_restart_recovers_state_dir() {
    let dir = fresh_dir("restart");

    // First life: accept a job, durably checkpoint it at its base
    // facts, shut down before any worker shows up.
    let first = start_coordinator(&dir, quiet_config(3_000));
    let mut conn = connect(&first.addr);
    let job = submit_chain(&mut conn, 12);
    assert_eq!(job, 1);
    drop(conn);
    first.stop();

    // Second life over the same state dir: the job is back, queued,
    // and runs to the exact same result.
    let second = start_coordinator(&dir, quiet_config(3_000));
    let mut conn = connect(&second.addr);
    let st = status_of(&mut conn, job);
    assert_eq!(
        st.get("state").and_then(Json::as_str),
        Some("queued"),
        "{st}"
    );

    // Ids keep growing past recovered ones.
    let other = submit_chain(&mut conn, 5);
    assert_eq!(other, 2);

    let (stop, worker) = spawn_worker(&second.addr, "after-restart");
    let done = wait_for(&mut conn, job, 30_000);
    assert_eq!(done.get("status").and_then(Json::as_str), Some("finished"));
    let done2 = wait_for(&mut conn, other, 30_000);
    assert_eq!(done2.get("status").and_then(Json::as_str), Some("finished"));

    let (truth_instance, truth_apps) = ground_truth(&chain_src(12));
    let (cluster_instance, cluster_apps) = final_instance_of(&mut conn, job);
    assert_eq!(cluster_apps, truth_apps);
    assert!(isomorphism(&cluster_instance, &truth_instance).is_some());

    // Terminated jobs leave no durable entry behind; a third life
    // starts with an empty table.
    stop.store(true, Ordering::Relaxed);
    worker.join().unwrap().unwrap();
    second.stop();
    let third = start_coordinator(&dir, quiet_config(3_000));
    let mut conn = connect(&third.addr);
    let list = roundtrip(&mut conn, &Json::obj([("op", Json::str("list"))])).unwrap();
    assert_eq!(
        list.get("jobs").and_then(Json::as_arr).unwrap().len(),
        0,
        "{list}"
    );
    third.stop();
}

#[test]
fn cancel_fences_the_running_lease() {
    let dir = fresh_dir("cancel");
    let cluster = start_coordinator(&dir, quiet_config(30_000));
    let mut conn = connect(&cluster.addr);
    let job = submit_chain(&mut conn, 12);

    let mut holder = connect(&cluster.addr);
    let lease = fake_pull(&mut holder, "holder");
    let epoch = lease.require_u64("epoch").unwrap();

    let cancel = Json::obj([("op", Json::str("cancel")), ("job", Json::Int(job as i64))]);
    let reply = roundtrip(&mut conn, &cancel).expect("cancel");
    assert_eq!(reply.get("cancelled").and_then(Json::as_bool), Some(true));

    // The holder's next heartbeat is fenced — it learns to abort.
    let hb = Json::obj([
        ("op", Json::str("heartbeat")),
        ("worker", Json::str("holder")),
        ("job", Json::Int(job as i64)),
        ("epoch", Json::Int(epoch as i64)),
    ]);
    let reply = roundtrip(&mut holder, &hb).expect("heartbeat after cancel");
    assert_eq!(reply.get("op").and_then(Json::as_str), Some("fenced"));

    let st = status_of(&mut conn, job);
    assert_eq!(st.get("state").and_then(Json::as_str), Some("cancelled"));
    cluster.stop();
}

/// `checkpoint` with its `program` field replaced.
fn with_program(checkpoint: &Json, program: &str) -> Json {
    let Json::Obj(pairs) = checkpoint else {
        panic!("checkpoint is not an object: {checkpoint}");
    };
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| match k.as_str() {
                "program" => (k.clone(), Json::str(program)),
                _ => (k.clone(), v.clone()),
            })
            .collect(),
    )
}

/// A worker `checkpoint` (or `done` report) whose program does not parse
/// is refused before anything is saved or published: the durable file
/// and the job's checkpoint keep the last good program, and the lease
/// stays live.
#[test]
fn malformed_worker_checkpoint_is_rejected_and_not_saved() {
    let dir = fresh_dir("torn-worker-checkpoint");
    let cluster = start_coordinator(&dir, quiet_config(10_000));
    let mut client = connect(&cluster.addr);
    let job = submit_chain(&mut client, 6);
    let store_file = dir.join(format!("job-{job}.ckpt.json"));
    let durable = std::fs::read_to_string(&store_file).unwrap();

    let mut worker = connect(&cluster.addr);
    let lease = fake_pull(&mut worker, "w-torn");
    let leased = lease.require("checkpoint").unwrap();
    let torn = with_program(leased, "e(a1, a2). Tbase: e(X, Y) -> r(X");
    for (op, extra) in [
        ("checkpoint", vec![]),
        (
            "done",
            vec![
                ("status", Json::str("ok")),
                ("outcome", Json::str("terminated")),
                ("terminated", Json::Bool(true)),
            ],
        ),
    ] {
        let mut fields = vec![
            ("op", Json::str(op)),
            ("worker", Json::str("w-torn")),
            ("job", Json::Int(job as i64)),
            ("epoch", lease.require("epoch").unwrap().clone()),
            ("checkpoint", torn.clone()),
        ];
        fields.extend(extra);
        let reply = roundtrip(&mut worker, &Json::obj(fields)).expect("worker roundtrip");
        assert_eq!(
            reply.get("type").and_then(Json::as_str),
            Some("error"),
            "{op}: {reply}"
        );
        let message = reply.get("message").and_then(Json::as_str).unwrap();
        assert!(
            message.starts_with("checkpoint program:"),
            "{op}: {message}"
        );
        assert_eq!(
            std::fs::read_to_string(&store_file).unwrap(),
            durable,
            "{op}: the durable checkpoint changed"
        );
    }
    let fetched = roundtrip(
        &mut client,
        &Json::obj([
            ("op", Json::str("checkpoint")),
            ("job", Json::Int(job as i64)),
        ]),
    )
    .expect("checkpoint roundtrip");
    assert_eq!(
        fetched.require("checkpoint").unwrap().get("program"),
        leased.get("program"),
        "{fetched}"
    );
    let status = status_of(&mut client, job);
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("leased"),
        "{status}"
    );
    cluster.stop();
}

/// The live ring intersects snapshots atom by atom on interned ids, and
/// every shipped checkpoint is parsed from printed text. A submitted
/// job's base snapshot must intern the same way: for a source that
/// mentions its constants out of printed order, the facts still answer
/// live after the first shipped checkpoint.
#[test]
fn live_answers_keep_base_facts_across_the_first_shipped_checkpoint() {
    let dir = fresh_dir("ring-ids");
    let cluster = start_coordinator(&dir, quiet_config(10_000));
    let mut client = connect(&cluster.addr);
    let src = "Q: ?- e(q, p). e(m, b). e(b, z). e(z, a1). e(a1, k). \
               Tbase: e(X, Y) -> r(X, Y). Ttrans: r(X, Y), e(Y, Z) -> r(X, Z).";
    let submit = Json::obj([
        ("op", Json::str("submit")),
        ("source", Json::str(src)),
        ("variant", Json::str("restricted")),
        ("max_apps", Json::Int(1_000)),
    ]);
    let job = roundtrip(&mut client, &submit)
        .expect("submit roundtrip")
        .require_u64("job")
        .unwrap();
    let mut worker = connect(&cluster.addr);
    let lease = fake_pull(&mut worker, "w-ring");
    let mid = partial_run(&lease, 3);
    let ship = Json::obj([
        ("op", Json::str("checkpoint")),
        ("worker", Json::str("w-ring")),
        ("job", Json::Int(job as i64)),
        ("epoch", lease.require("epoch").unwrap().clone()),
        ("checkpoint", mid.to_json()),
    ]);
    let ack = roundtrip(&mut worker, &ship).expect("checkpoint ack");
    assert_eq!(ack.get("op").and_then(Json::as_str), Some("ack"), "{ack}");
    let query = Json::obj([
        ("op", Json::str("query")),
        ("job", Json::Int(job as i64)),
        ("query", Json::str("?(X, Y) :- e(X, Y)")),
    ]);
    // The shipped snapshot is published asynchronously.
    let deadline = Instant::now() + Duration::from_secs(5);
    let reply = loop {
        let reply = roundtrip(&mut client, &query).expect("query roundtrip");
        if reply.get("applications").and_then(Json::as_u64) == Some(3) {
            break reply;
        }
        assert!(
            Instant::now() < deadline,
            "shipped snapshot never published: {reply}"
        );
        thread::sleep(Duration::from_millis(25));
    };
    let answers = reply
        .get("answers")
        .and_then(Json::as_arr)
        .expect("answers");
    assert_eq!(answers.len(), 4, "{reply}");
    cluster.stop();
}
