//! End-to-end tests of the `treechase` command-line binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_treechase"))
}

fn write_kb(name: &str, src: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("treechase-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, src).unwrap();
    path
}

#[test]
fn run_reports_certified_queries() {
    let kb = write_kb(
        "closure.tc",
        "r(a, b). r(b, c).\nT: r(X, Y), r(Y, Z) -> r(X, Z).\nQyes: ?- r(a, c).\nQno: ?- r(c, a).\n",
    );
    let out = bin()
        .args(["run", kb.to_str().unwrap(), "--variant", "core"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Terminated"), "{stdout}");
    assert!(
        stdout.contains("query Qyes: entailed (certified)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("query Qno: not entailed (certified)"),
        "{stdout}"
    );
}

#[test]
fn run_with_budget_is_inconclusive_on_divergent_kb() {
    let kb = write_kb(
        "chain.tc",
        "r(a, b).\nR: r(X, Y) -> r(Y, Z).\nQ: ?- r(X, X).\n",
    );
    let out = bin()
        .args([
            "run",
            kb.to_str().unwrap(),
            "--variant",
            "restricted",
            "--max-apps",
            "5",
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ApplicationBudgetExhausted"), "{stdout}");
    assert!(stdout.contains("inconclusive"), "{stdout}");
}

#[test]
fn analyze_prints_certificates() {
    let kb = write_kb(
        "wa.tc",
        "r(a, b).\nR: r(X, Y) -> s(Y, Z).\nS: s(X, Y) -> t(X).\n",
    );
    let out = bin()
        .args(["analyze", kb.to_str().unwrap(), "--budget", "40"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("weakly acyclic:   true"), "{stdout}");
    assert!(stdout.contains("terminates everywhere"), "{stdout}");
    assert!(stdout.contains("core chase terminated: true"), "{stdout}");
}

#[test]
fn decide_races_twin_procedure() {
    let kb = write_kb("family.tc", "p(a).\nP: p(X) -> e(X, Y), p(Y).\n");
    let out = bin()
        .args([
            "decide",
            kb.to_str().unwrap(),
            "e(A, B), e(B, C)",
            "--max-apps",
            "50",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Entailed"), "{stdout}");
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = bin().args(["frobnicate"]).output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn parse_errors_are_reported_with_location() {
    let kb = write_kb("broken.tc", "r(a, b\n");
    let out = bin()
        .args(["run", kb.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error"), "{err}");
}

#[test]
fn dot_export_writes_file() {
    let kb = write_kb("dot.tc", "r(a, b).\n");
    let dot_path = std::env::temp_dir().join("treechase-cli-tests/out.dot");
    let out = bin()
        .args([
            "run",
            kb.to_str().unwrap(),
            "--dot",
            dot_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let dot = std::fs::read_to_string(&dot_path).unwrap();
    assert!(dot.starts_with("digraph"));
}

/// A request line over the 64 MiB limit gets one error reply, its
/// remainder is discarded, and the next request is still answered.
#[test]
fn serve_answers_over_long_line_with_error_and_keeps_serving() {
    use std::io::Write as _;
    use std::process::Stdio;

    let mut child = bin()
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().unwrap();
    let writer = std::thread::spawn(move || {
        let mut line = vec![b'x'; treechase::service::MAX_FRAME + 1];
        line.push(b'\n');
        stdin.write_all(&line).unwrap();
        stdin.write_all(b"{\"op\":\"list\"}\n").unwrap();
    });
    let out = child.wait_with_output().expect("serve exits");
    writer.join().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(
        lines[0].starts_with(r#"{"type":"error""#) && lines[0].contains("exceeds"),
        "{stdout}"
    );
    assert_eq!(lines[1], r#"{"type":"response","op":"list","jobs":[]}"#);
}

/// A request nested past the decoder's depth cap (here a 2 MB line of
/// `[`) gets one error reply instead of overflowing the stack, and the
/// next request is still answered.
#[test]
fn serve_answers_too_deep_nesting_with_error_and_keeps_serving() {
    use std::io::Write as _;
    use std::process::Stdio;

    let mut child = bin()
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().unwrap();
    let writer = std::thread::spawn(move || {
        let mut line = vec![b'['; 2 << 20];
        line.push(b'\n');
        stdin.write_all(&line).unwrap();
        stdin.write_all(b"{\"op\":\"list\"}\n").unwrap();
    });
    let out = child.wait_with_output().expect("serve exits");
    writer.join().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(!stderr.contains("overflow"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(
        lines[0].starts_with(r#"{"type":"error""#) && lines[0].contains("nesting too deep"),
        "{stdout}"
    );
    assert_eq!(lines[1], r#"{"type":"response","op":"list","jobs":[]}"#);
}

/// Runs `analyze <operand> --json` and parses the emitted report.
fn analyze_json(operand: &str) -> treechase::service::Json {
    let out = bin()
        .args(["analyze", operand, "--json"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    treechase::service::parse_json(stdout.trim()).expect("valid JSON")
}

fn str_at<'j>(j: &'j treechase::service::Json, path: &[&str]) -> Option<&'j str> {
    let mut cur = j;
    for key in path {
        cur = cur.get(key)?;
    }
    cur.as_str()
}

/// Snapshot of the stable fields for the built-in steepening staircase:
/// termination likely-refuted (the MFA cyclic-term witness is evidence,
/// not proof), core-bts certified by the core-width probe, and a
/// core-bounded plan.
#[test]
fn analyze_json_staircase_snapshot() {
    let j = analyze_json("staircase");
    assert_eq!(
        j.get("report")
            .and_then(|r| r.get("weakly_acyclic"))
            .and_then(|b| b.as_bool()),
        Some(false)
    );
    assert_eq!(
        str_at(&j, &["report", "terminating", "status"]),
        Some("likely-refuted")
    );
    assert_eq!(
        str_at(&j, &["evidence", "restricted_width_status"]),
        Some("climbing")
    );
    assert_eq!(
        str_at(&j, &["evidence", "core_width_status"]),
        Some("plateau")
    );
    assert_eq!(
        str_at(&j, &["report", "core_bts", "status"]),
        Some("certified")
    );
    assert_eq!(str_at(&j, &["plan", "variant"]), Some("core"));
    let shapes: Vec<&str> = j
        .get("plan")
        .and_then(|p| p.get("strata"))
        .and_then(|s| s.as_arr())
        .expect("strata")
        .iter()
        .filter_map(|s| s.get("shape").and_then(|v| v.as_str()))
        .collect();
    assert!(shapes.contains(&"core-bounded-loop"), "{shapes:?}");
    assert_eq!(j.get("admissible").and_then(|b| b.as_bool()), Some(true));
}

/// Snapshot for the built-in inflating elevator: the restricted profile
/// plateaus, so the plan stays on the restricted chase — distinct from
/// the staircase snapshot above.
#[test]
fn analyze_json_elevator_snapshot() {
    let j = analyze_json("elevator");
    assert_eq!(str_at(&j, &["plan", "variant"]), Some("restricted"));
    let shapes: Vec<&str> = j
        .get("plan")
        .and_then(|p| p.get("strata"))
        .and_then(|s| s.as_arr())
        .expect("strata")
        .iter()
        .filter_map(|s| s.get("shape").and_then(|v| v.as_str()))
        .collect();
    assert!(shapes.contains(&"bounded-width-loop"), "{shapes:?}");
    assert!(!shapes.contains(&"core-bounded-loop"), "{shapes:?}");
    assert_eq!(
        str_at(&j, &["evidence", "restricted_width_status"]),
        Some("plateau")
    );
    let w = j
        .get("evidence")
        .and_then(|e| e.get("restricted_width"))
        .and_then(|v| v.as_i64())
        .expect("plateaued width");
    assert!(w <= 3, "elevator restricted width should be small, got {w}");
    assert_eq!(j.get("admissible").and_then(|b| b.as_bool()), Some(true));
}

/// A weakly acyclic file KB: certified-terminating end to end, with a
/// fully non-core plan.
#[test]
fn analyze_json_weakly_acyclic_file() {
    let kb = write_kb(
        "wa_json.tc",
        "r(a, b).\nR: r(X, Y) -> s(Y, Z).\nS: s(X, Y) -> t(X).\n",
    );
    let j = analyze_json(kb.to_str().unwrap());
    assert_eq!(
        j.get("report")
            .and_then(|r| r.get("weakly_acyclic"))
            .and_then(|b| b.as_bool()),
        Some(true)
    );
    assert_eq!(
        str_at(&j, &["report", "terminating", "status"]),
        Some("certified")
    );
    assert_eq!(str_at(&j, &["plan", "variant"]), Some("restricted"));
    assert_eq!(j.get("admissible").and_then(|b| b.as_bool()), Some(true));
}
