//! Wire-shape snapshots for the shared request handler.
//!
//! The request scripts under `testdata/wire/` are replayed through
//! `handle` against an in-process `Service` (the `treechase serve`
//! backend) and an in-process coordinator (the cluster backend), and
//! compared reply by reply with goldens recorded from the `treechase
//! serve` and `treechase coordinator` binaries by
//! `testdata/wire/record.sh`. Only timing fields are masked; every other
//! byte of every reply must match.

use std::path::PathBuf;

use treechase::cluster::{ClusterConfig, Coordinator};
use treechase::engine::{ChaseConfig, ChaseStats, ChaseVariant};
use treechase::service::handler::error;
use treechase::service::{
    handle, parse_json, parse_request, Backend, Checkpoint, Json, Request, Service, ServiceConfig,
};

/// How the transport in front of the backend treats a script.
#[derive(Clone, Copy)]
enum Transport {
    /// `serve`: a line that is not JSON gets an error reply, and the
    /// loop ends after `drain` or `shutdown`.
    Serve,
    /// The cluster frames carry JSON only, so a non-JSON line is never
    /// sent; the connection outlives `drain`.
    Cluster,
}

fn wire_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("testdata/wire")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("treechase-wire-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Replays `script` against `backend` as `transport` would, returning
/// the replies in order.
fn replay(backend: &dyn Backend, script: &str, transport: Transport) -> Vec<Json> {
    let mut replies = Vec::new();
    for line in script.lines().filter(|l| !l.trim().is_empty()) {
        let msg = match (parse_json(line), transport) {
            (Ok(msg), _) => msg,
            (Err(e), Transport::Serve) => {
                replies.push(error(&e));
                continue;
            }
            (Err(_), Transport::Cluster) => continue,
        };
        let req = match parse_request(&msg) {
            Ok(req) => req,
            Err(e) => {
                replies.push(error(&e));
                continue;
            }
        };
        let exit = matches!(req, Request::Drain | Request::Shutdown);
        replies.push(handle(backend, req));
        if exit && matches!(transport, Transport::Serve) {
            break;
        }
    }
    replies
}

/// Zeroes the fields that measure time rather than describe the run.
fn mask_timing(v: &mut Json) {
    match v {
        Json::Obj(fields) => {
            for (key, value) in fields {
                let timing = matches!(
                    key.as_str(),
                    "wall_ms" | "wall_us" | "snapshot_age_ms" | "seen_ms_ago"
                ) || key.ends_with("_time_us");
                if timing {
                    *value = Json::Int(0);
                } else {
                    mask_timing(value);
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(mask_timing),
        _ => {}
    }
}

fn assert_matches_golden(script: &str, backend_name: &str, replies: &[Json]) {
    let path = wire_dir().join(format!("{script}.{backend_name}.golden.jsonl"));
    let golden = std::fs::read_to_string(&path).unwrap();
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(
        replies.len(),
        golden.len(),
        "{script}/{backend_name}: reply count differs from {}",
        path.display()
    );
    for (i, (reply, want)) in replies.iter().zip(&golden).enumerate() {
        let mut want_json = parse_json(want).unwrap();
        // The golden is the serializer's own output, so comparing
        // re-serialized values below is a byte comparison.
        assert_eq!(
            &want_json.to_string(),
            want,
            "golden line {} reserializes",
            i + 1
        );
        let mut got = reply.clone();
        mask_timing(&mut got);
        mask_timing(&mut want_json);
        assert_eq!(
            got.to_string(),
            want_json.to_string(),
            "{script}/{backend_name}: reply {} differs",
            i + 1
        );
    }
}

fn check_serve(script: &str) {
    let text = std::fs::read_to_string(wire_dir().join(format!("{script}.jsonl"))).unwrap();
    let svc = Service::with_config(1, ServiceConfig::default()).unwrap();
    let replies = replay(&svc, &text, Transport::Serve);
    svc.shutdown();
    assert_matches_golden(script, "serve", &replies);
}

fn check_coordinator(script: &str) {
    let text = std::fs::read_to_string(wire_dir().join(format!("{script}.jsonl"))).unwrap();
    let dir = fresh_dir(script);
    let cfg = ClusterConfig {
        announce: false,
        ..ClusterConfig::default()
    };
    let coord = Coordinator::bind("127.0.0.1:0", &dir, cfg).unwrap();
    let replies = replay(coord.backend(), &text, Transport::Cluster);
    assert_matches_golden(script, "coordinator", &replies);
}

#[test]
fn serve_session_matches_golden() {
    check_serve("session");
}

#[test]
fn coordinator_session_matches_golden() {
    check_coordinator("session");
}

#[test]
fn serve_shutdown_matches_golden() {
    check_serve("shutdown");
}

#[test]
fn coordinator_shutdown_matches_golden() {
    check_coordinator("shutdown");
}

/// Submits unnamed jobs from several threads at once, then checks that
/// every job got the default name of its own id.
fn assert_default_names_follow_ids(backend: &dyn Backend) {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 5;
    let submit = r#"{"op":"submit","source":"r(a, b).","variant":"restricted","max_apps":5}"#;
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                start.wait();
                for _ in 0..PER_THREAD {
                    let req = parse_request(&parse_json(submit).unwrap()).unwrap();
                    let reply = handle(backend, req);
                    assert_eq!(
                        reply.get("op").and_then(Json::as_str),
                        Some("submit"),
                        "{reply}"
                    );
                }
            });
        }
    });
    let list = handle(backend, Request::List);
    let jobs = list.get("jobs").and_then(Json::as_arr).expect("jobs");
    assert_eq!(jobs.len(), THREADS * PER_THREAD, "{list}");
    for row in jobs {
        let id = row.get("job").and_then(Json::as_u64).expect("job id");
        assert_eq!(
            row.get("name").and_then(Json::as_str),
            Some(format!("job-{id}").as_str()),
            "{list}"
        );
    }
}

#[test]
fn concurrent_unnamed_submits_get_their_own_ids_as_names() {
    let svc = Service::with_config(2, ServiceConfig::default()).unwrap();
    assert_default_names_follow_ids(&svc);
    svc.shutdown();

    let dir = fresh_dir("names");
    let cfg = ClusterConfig {
        announce: false,
        ..ClusterConfig::default()
    };
    let coord = Coordinator::bind("127.0.0.1:0", &dir, cfg).unwrap();
    assert_default_names_follow_ids(coord.backend());
}

/// A `resume` whose checkpoint carries a program that does not parse is
/// refused on the request itself, by both backends alike, and queues
/// nothing.
#[test]
fn resume_with_malformed_checkpoint_program_is_refused_by_both_backends() {
    let checkpoint = Checkpoint {
        name: "torn".to_string(),
        config: ChaseConfig::variant(ChaseVariant::Restricted),
        program: "r(a, b). T: r(X, Y) -> r(Y".to_string(),
        stats: ChaseStats::default(),
    };
    let script = format!(
        "{}\n{}\n",
        Json::obj([
            ("op", Json::str("resume")),
            ("checkpoint", checkpoint.to_json()),
            ("max_apps", Json::Int(5)),
        ]),
        r#"{"op":"list"}"#
    );
    let check = |backend_name: &str, replies: &[Json]| {
        assert_eq!(replies.len(), 2, "{backend_name}: {replies:?}");
        assert_eq!(
            replies[0].get("type").and_then(Json::as_str),
            Some("error"),
            "{backend_name}: {}",
            replies[0]
        );
        let message = replies[0].get("message").and_then(Json::as_str).unwrap();
        assert!(
            message.starts_with("checkpoint program:"),
            "{backend_name}: {message}"
        );
        let jobs = replies[1].get("jobs").and_then(Json::as_arr);
        assert_eq!(
            jobs.map(<[Json]>::len),
            Some(0),
            "{backend_name}: {}",
            replies[1]
        );
    };

    let svc = Service::with_config(1, ServiceConfig::default()).unwrap();
    check("serve", &replay(&svc, &script, Transport::Serve));
    svc.shutdown();

    let dir = fresh_dir("torn-resume");
    let cfg = ClusterConfig {
        announce: false,
        ..ClusterConfig::default()
    };
    let coord = Coordinator::bind("127.0.0.1:0", &dir, cfg).unwrap();
    check(
        "coordinator",
        &replay(coord.backend(), &script, Transport::Cluster),
    );
    // Nothing was made durable either.
    let files = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(
        files,
        0,
        "the refused resume left files in {}",
        dir.display()
    );
}
