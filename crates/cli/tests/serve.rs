//! Integration tests for the persistent check service: the `dmlc serve`
//! daemon's determinism contract against one-shot `dmlc check`.

use dml::serve::protocol::{request_line, Json};
use std::io::Write;
use std::process::{Command, Stdio};

fn dmlc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dmlc"))
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dmlc-serve-tests").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_file(dir: &std::path::Path, name: &str, contents: &str) -> std::path::PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

const PROGRAM: &str = "\
fun first(v) = sub(v, 0)
where first <| {n:nat | n > 0} int array(n) -> int

fun second(v) = sub(v, 1)
where second <| {n:nat | n > 1} int array(n) -> int
";

/// Drives a `dmlc serve` daemon over stdio and returns one parsed response
/// per request line.
fn drive_daemon(requests: &[String]) -> Vec<Json> {
    let mut child = dmlc()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    for r in requests {
        stdin.write_all(r.as_bytes()).unwrap();
    }
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    text.lines().map(|l| Json::parse(l).expect("daemon speaks valid JSON")).collect()
}

#[test]
fn daemon_check_is_byte_identical_to_one_shot_and_reports_warm_hits() {
    let dir = temp_dir("daemon");
    let src_path = write_file(&dir, "p.dml", PROGRAM);

    let one_shot = dmlc().arg("check").arg(&src_path).output().unwrap();
    assert!(one_shot.status.success());
    let one_shot_body = dml::stable_body(&String::from_utf8_lossy(&one_shot.stdout));

    let check = |id: i64| {
        request_line(
            id,
            "check",
            vec![
                ("source", Json::Str(PROGRAM.to_string())),
                ("path", Json::Str("p.dml".to_string())),
            ],
        )
    };
    let responses = drive_daemon(&[
        check(1),
        check(2), // warm: same file again
        request_line(3, "stats", Vec::new()),
        request_line(4, "shutdown", Vec::new()),
    ]);
    assert_eq!(responses.len(), 4);

    for (i, response) in responses[..2].iter().enumerate() {
        let result = response.get("result").unwrap_or_else(|| panic!("check {i} succeeds"));
        let report = result.get("report").and_then(Json::as_str).expect("report is a string");
        assert_eq!(
            dml::stable_body(report),
            one_shot_body,
            "daemon check {i} diverged from one-shot output"
        );
        assert_eq!(result.get("fullyVerified").and_then(Json::as_bool), Some(true));
    }

    // The warm re-check reused every obligation without touching the
    // solver.
    let warm = responses[1].get("result").unwrap();
    assert_eq!(warm.get("incremental").and_then(Json::as_bool), Some(true));
    let warm_stats = warm.get("stats").unwrap();
    assert_eq!(warm_stats.get("goals").and_then(Json::as_i64), Some(0));
    let reused = warm_stats.get("obligationsReused").and_then(Json::as_i64).unwrap();
    assert!(reused > 0, "obligations were reused");

    let stats = responses[2].get("result").expect("stats succeeds");
    assert_eq!(stats.get("requests").and_then(|r| r.get("check")).and_then(Json::as_i64), Some(2));
    assert!(responses[3].get("result").is_some(), "shutdown acknowledged");
}

#[test]
fn daemon_warm_goal_cache_answers_pathless_checks() {
    // Without a `path` the daemon skips incremental reuse, so the second
    // identical check exercises the shared goal cache instead.
    let check =
        |id: i64| request_line(id, "check", vec![("source", Json::Str(PROGRAM.to_string()))]);
    let responses = drive_daemon(&[check(1), check(2), request_line(3, "shutdown", Vec::new())]);
    let warm = responses[1].get("result").expect("warm check succeeds");
    let stats = warm.get("stats").unwrap();
    assert_eq!(warm.get("incremental").and_then(Json::as_bool), Some(false));
    assert_eq!(stats.get("cacheMisses").and_then(Json::as_i64), Some(0));
    let hits = stats.get("cacheHits").and_then(Json::as_i64).unwrap();
    assert!(hits > 0, "warm goal-cache hit rate > 0, got {stats:?}");
}

/// A daemon's `infer` prints what one-shot `dmlc infer` prints, human and
/// JSON, on its first request and on a repeat.
#[test]
fn daemon_infer_is_byte_identical_to_one_shot() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/bcopy_bare.dml");
    let src = std::fs::read_to_string(&path).unwrap();
    let infer = |id: i64, json: bool| {
        request_line(
            id,
            "infer",
            vec![("source", Json::Str(src.clone())), ("json", Json::Bool(json))],
        )
    };
    let responses = drive_daemon(&[
        infer(1, false),
        infer(2, false),
        infer(3, true),
        request_line(4, "shutdown", Vec::new()),
    ]);
    for (i, json) in [(0, false), (1, false), (2, true)] {
        let mut one_shot = dmlc();
        one_shot.arg("infer").arg(&path);
        if json {
            one_shot.arg("--json");
        }
        let one_shot = one_shot.output().unwrap();
        assert!(one_shot.status.success());
        let result = responses[i].get("result").unwrap_or_else(|| panic!("infer {i} succeeds"));
        let text = result.get("text").and_then(Json::as_str).expect("text is a string");
        assert_eq!(text, String::from_utf8_lossy(&one_shot.stdout), "daemon infer {i}");
    }
}

#[test]
fn daemon_rejects_wrong_schema_and_survives() {
    let responses = drive_daemon(&[
        "{\"schemaVersion\":99,\"id\":1,\"method\":\"check\"}\n".to_string(),
        request_line(2, "stats", Vec::new()),
        request_line(3, "shutdown", Vec::new()),
    ]);
    assert_eq!(
        responses[0].get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("unsupported-schema")
    );
    assert!(responses[1].get("result").is_some(), "daemon kept serving after the error");
}

#[cfg(unix)]
#[test]
fn remote_flag_round_trips_through_a_socket_daemon() {
    let dir = temp_dir("remote");
    let src_path = write_file(&dir, "p.dml", PROGRAM);
    let sock = dir.join("dmlc.sock");
    let _ = std::fs::remove_file(&sock);

    let mut daemon =
        dmlc().arg("serve").arg("--socket").arg(&sock).stderr(Stdio::null()).spawn().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !sock.exists() {
        assert!(std::time::Instant::now() < deadline, "daemon never bound its socket");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let one_shot = dmlc().arg("check").arg(&src_path).output().unwrap();
    let remote = dmlc().arg("check").arg(&src_path).arg("--remote").arg(&sock).output().unwrap();
    assert!(remote.status.success(), "{}", String::from_utf8_lossy(&remote.stderr));
    assert_eq!(
        dml::stable_body(&String::from_utf8_lossy(&remote.stdout)),
        dml::stable_body(&String::from_utf8_lossy(&one_shot.stdout)),
        "remote and one-shot check output diverged"
    );

    // `explain` must be byte-identical including volatile-free trace text.
    let one_shot = dmlc().arg("explain").arg(&src_path).output().unwrap();
    let remote = dmlc().arg("explain").arg(&src_path).arg("--remote").arg(&sock).output().unwrap();
    assert_eq!(
        String::from_utf8_lossy(&remote.stdout),
        String::from_utf8_lossy(&one_shot.stdout),
        "explain output must match byte for byte"
    );

    let stats = dmlc().arg("stats").arg("--remote").arg(&sock).output().unwrap();
    assert!(stats.status.success());
    assert!(String::from_utf8_lossy(&stats.stdout).contains("\"requests\""));

    let shutdown = dmlc().arg("shutdown").arg("--remote").arg(&sock).output().unwrap();
    assert!(shutdown.status.success());
    assert!(daemon.wait().unwrap().success(), "daemon exits cleanly on shutdown");
    assert!(!sock.exists(), "socket file removed on shutdown");
}
