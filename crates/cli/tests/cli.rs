//! Integration tests driving the `dmlc` binary end to end.

use std::io::Write;
use std::process::Command;

fn dmlc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dmlc"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dmlc-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const GOOD: &str = r#"
fun first(v) = sub(v, 0)
where first <| {n:nat | n > 0} int array(n) -> int
fun make(k) = array(k, 7)
where make <| {k:nat} int(k) -> int array(k)
fun demo(k) = first(array(k, 7))
where demo <| {k:nat | k > 0} int(k) -> int
"#;

const BAD: &str = r#"
fun oops(v) = sub(v, length v)
where oops <| {n:nat} int array(n) -> int
"#;

#[test]
fn check_reports_verified() {
    let path = write_temp("good.dml", GOOD);
    let out = dmlc().arg("check").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("fully verified"), "{stdout}");
}

#[test]
fn check_degrades_gracefully_in_permissive_mode() {
    let path = write_temp("bad.dml", BAD);
    let out = dmlc().arg("check").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "unproven bounds degrade to residual checks: {stdout}");
    assert!(stdout.contains("residual runtime check"), "{stdout}");
    assert!(stdout.contains("array bound check for `sub`"), "{stdout}");
}

#[test]
fn check_strict_rejects_unproven_obligations() {
    let path = write_temp("bad-strict.dml", BAD);
    let out = dmlc().args(["check"]).arg(&path).arg("--strict").output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "--strict fails on unproven bounds");
    assert!(stderr.contains("unproven obligation(s) in strict mode"), "{stderr}");
    assert!(stderr.contains("array bound check for `sub`"), "{stderr}");
}

#[test]
fn check_low_fuel_stays_permissive() {
    let src = "fun first(v) = sub(v, 0)\nwhere first <| {n:nat | n > 0} int array(n) -> int\n";
    let path = write_temp("fuel.dml", src);
    let out = dmlc().args(["check"]).arg(&path).args(["--fuel", "0"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "fuel exhaustion degrades gracefully: {stdout}");
    assert!(stdout.contains("residual runtime check"), "{stdout}");
    // The same budget under --strict is an error.
    let out = dmlc().args(["check"]).arg(&path).args(["--fuel", "0", "--strict"]).output().unwrap();
    assert!(!out.status.success(), "--fuel 0 --strict fails");
}

#[test]
fn run_executes_a_function() {
    let path = write_temp("run.dml", GOOD);
    let out = dmlc().args(["run"]).arg(&path).args(["demo", "5"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.lines().next().unwrap().trim() == "7", "{stdout}");
    assert!(stdout.contains("eliminated"), "{stdout}");
}

#[test]
fn constraints_lists_obligations() {
    let path = write_temp("cons.dml", GOOD);
    let out = dmlc().arg("constraints").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("array bound check for `sub`"), "{stdout}");
    assert!(stdout.contains("[valid]"), "{stdout}");
}

#[test]
fn constraints_fails_when_obligations_unproven() {
    let path = write_temp("cons-bad.dml", BAD);
    let out = dmlc().arg("constraints").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "unproven obligations must fail the exit code");
    assert!(stdout.contains("NOT PROVEN"), "{stdout}");
    assert!(stderr.contains("not proven"), "{stderr}");
}

#[test]
fn constraints_and_strip_reject_stray_arguments() {
    let example =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/bsearch.dml");
    for (cmd, extra) in [("constraints", ["--disk-cache", "x.db"]), ("strip", ["extra", "more"])] {
        let out = dmlc().arg(cmd).arg(&example).args(extra).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{cmd}: a stray argument must fail");
        assert!(stderr.contains(&format!("unexpected argument `{}`", extra[0])), "{cmd}: {stderr}");
        assert!(out.stdout.is_empty(), "{cmd}: nothing runs");
    }
}

/// A deliberately redundant guard (`i < n` hypothesis makes the condition
/// entailed) for the lint tests.
const LINTY: &str = r#"
fun get(v, i) = if i < length(v) then sub(v, i) else 0
where get <| {n:nat, i:nat | i < n} int array(n) * int(i) -> int
"#;

#[test]
fn lint_reports_dead_branch_but_exits_zero_on_warnings() {
    let path = write_temp("linty.dml", LINTY);
    let out = dmlc().arg("lint").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "warnings alone keep exit code 0: {stdout}");
    assert!(stdout.contains("warning[DML001]"), "{stdout}");
    assert!(stdout.contains("always true"), "{stdout}");
}

#[test]
fn lint_deny_promotes_to_error_exit() {
    let path = write_temp("linty-deny.dml", LINTY);
    let out = dmlc().args(["lint"]).arg(&path).args(["--deny", "DML001"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "--deny DML001 must fail: {stdout}");
    assert!(stdout.contains("error[DML001]"), "{stdout}");
    // Denying a lint that does not fire keeps success.
    let out = dmlc().args(["lint"]).arg(&path).args(["--deny", "DML005"]).output().unwrap();
    assert!(out.status.success());
    // Unknown codes are rejected.
    let out = dmlc().args(["lint"]).arg(&path).args(["--deny", "DML999"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn lint_clean_program_has_no_findings() {
    let path = write_temp("lint-clean.dml", GOOD);
    let out = dmlc().arg("lint").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
}

#[test]
fn lint_json_and_sarif_formats() {
    let path = write_temp("lint-fmt.dml", LINTY);
    let out = dmlc().args(["lint"]).arg(&path).args(["--format", "json"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("\"code\": \"DML001\""), "{stdout}");
    assert!(stdout.contains("\"line\": 2"), "{stdout}");

    let out = dmlc().args(["lint"]).arg(&path).args(["--format", "sarif"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("\"version\": \"2.1.0\""), "{stdout}");
    assert!(stdout.contains("\"ruleId\": \"DML001\""), "{stdout}");
    assert!(stdout.contains("lint-fmt.dml"), "artifact uri present: {stdout}");

    let out = dmlc().args(["lint"]).arg(&path).args(["--format", "yaml"]).output().unwrap();
    assert!(!out.status.success(), "unknown format rejected");
}

/// Drives the binary over the repository's showcase example — the same
/// invocation CI uses for its SARIF artifact.
#[test]
fn lint_golden_over_showcase_example() {
    let example = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/lints.dml");
    let out = dmlc().arg("lint").arg(&example).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "warnings only: {stdout}");
    for code in ["DML001", "DML002", "DML003", "DML004", "DML005", "DML006"] {
        assert!(stdout.contains(&format!("warning[{code}]")), "{code} fires: {stdout}");
    }
    assert!(stdout.contains("7 finding(s): 0 error(s), 7 warning(s)"), "{stdout}");

    let out = dmlc().arg("lint").arg(&example).args(["--format", "sarif"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for code in ["DML001", "DML002", "DML003", "DML004", "DML005", "DML006"] {
        assert!(stdout.contains(&format!("\"ruleId\": \"{code}\"")), "{code}: {stdout}");
    }

    let out = dmlc().arg("lint").arg(&example).args(["--deny", "dead-branch"]).output().unwrap();
    assert!(!out.status.success(), "--deny by lint name promotes to error exit");
}

#[test]
fn figure4_prints_constraints() {
    let out = dmlc().arg("figure4").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("forall"), "{stdout}");
    assert!(stdout.contains("valid"), "{stdout}");
}

#[test]
fn usage_on_bad_invocation() {
    let out = dmlc().output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "{stderr}");
    let out = dmlc().args(["table", "9"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn missing_file_reported() {
    let out = dmlc().args(["check", "/nonexistent/xyz.dml"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn trace_out_is_rejected_on_the_batch_path() {
    let path = write_temp("trace-batch.dml", GOOD);
    let trace = std::env::temp_dir().join("dmlc-tests").join("trace-batch.json");
    let _ = std::fs::remove_file(&trace);
    for extra in [vec!["--jobs", "2"], vec![path.to_str().unwrap()]] {
        let out = dmlc()
            .arg("check")
            .arg(&path)
            .args(&extra)
            .arg("--trace-out")
            .arg(&trace)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{extra:?}: a batch writes no trace, so it must fail");
        assert!(stderr.contains("--trace-out expects a single file"), "{extra:?}: {stderr}");
        assert!(!trace.exists(), "{extra:?}: no trace file is written");
    }
}

#[test]
fn explain_valid_goal_renders() {
    let path = write_temp("explain-good.dml", GOOD);
    let out = dmlc().arg("explain").arg(&path).args(["--goal", "1"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("goal 1"), "{stdout}");
}

#[test]
fn explain_out_of_range_goal_fails_with_valid_range() {
    let path = write_temp("explain-range.dml", GOOD);
    let out = dmlc().arg("explain").arg(&path).args(["--goal", "999"]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "out-of-range goal exits nonzero");
    assert!(stderr.contains("goal 999 does not exist"), "{stderr}");
    assert!(stderr.contains("valid goals are 1..="), "{stderr}");

    let out = dmlc().arg("explain").arg(&path).args(["--goal", "0"]).output().unwrap();
    assert!(!out.status.success(), "goal numbering starts at 1");
}

#[test]
fn fuzz_fixed_seed_is_clean_and_deterministic() {
    let run = || {
        let out = dmlc()
            .args(["fuzz", "--seed", "42", "--iters", "40", "--no-programs"])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(out.status.success(), "{stdout}");
        assert!(stdout.contains("no divergences"), "{stdout}");
        stdout
    };
    assert_eq!(run(), run(), "same seed, same report");
}

#[test]
fn fuzz_json_report() {
    let out = dmlc()
        .args(["fuzz", "--seed", "7", "--iters", "10", "--no-programs", "--json"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains(r#""seed":7"#), "{stdout}");
    assert!(stdout.contains(r#""divergences":[]"#), "{stdout}");
}

#[test]
fn fuzz_rejects_bad_flags() {
    let out = dmlc().args(["fuzz", "--seed"]).output().unwrap();
    assert!(!out.status.success());
    let out = dmlc().args(["fuzz", "--frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"), "{stderr}");
}
