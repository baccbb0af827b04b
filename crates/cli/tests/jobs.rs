//! Integration tests for `dmlc check --jobs N <files...>`: the merged
//! batch report must be byte-identical to the concatenation of
//! sequential single-file `dmlc check` runs (modulo the volatile timing
//! and cache lines).

use std::io::Write;
use std::process::Command;

fn dmlc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dmlc"))
}

fn write_temp(dir: &str, name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

/// Strips the volatile report lines (wall times, cache counters) the same
/// way `dml::stable_body` does, leaving the byte-comparable remainder.
fn stable(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.starts_with("solver cache:") && !l.starts_with("solve timing:"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Guard `i + 1 < n` needs a real Fourier–Motzkin derivation (no
/// assumption fast path), so its goal travels through the verdict cache;
/// `BETA` is its α-variant, so the two share one cache entry.
const ALPHA: &str = "fun fa(v, i) = sub(v, i)\n\
                     where fa <| {n:nat, i:nat | i + 1 < n} int array(n) * int(i) -> int\n";
const BETA: &str = "fun gb(w, j) = sub(w, j)\n\
                    where gb <| {m:nat, j:nat | j + 1 < m} int array(m) * int(j) -> int\n";
const RESIDUAL: &str = "fun loose(v, i) = sub(v, i)\n\
                        where loose <| {n:nat, i:nat} int array(n) * int(i) -> int\n";

#[test]
fn jobs_merged_report_matches_sequential_single_file_runs() {
    let files = [
        write_temp("dmlc-jobs", "a.dml", ALPHA),
        write_temp("dmlc-jobs", "b.dml", BETA),
        write_temp("dmlc-jobs", "c.dml", RESIDUAL),
    ];

    // Reference: one `dmlc check` process per file, concatenated under
    // the batch header format.
    let mut expected = String::new();
    for path in &files {
        let out = dmlc().arg("check").arg(path).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        expected.push_str(&format!("== {} ==\n", path.display()));
        expected.push_str(&String::from_utf8_lossy(&out.stdout));
    }

    for jobs in ["1", "2", "auto"] {
        let out = dmlc().arg("check").args(&files).args(["--jobs", jobs]).output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--jobs {jobs}: {stderr}");
        assert_eq!(
            stable(&stdout),
            stable(&expected),
            "--jobs {jobs} merged report diverged from sequential runs"
        );
        assert!(stderr.contains("batch: 3 file(s), 0 failed"), "--jobs {jobs}: {stderr}");
    }
}

#[test]
fn jobs_batch_counts_failures_without_aborting() {
    let ok = write_temp("dmlc-jobs-fail", "ok.dml", ALPHA);
    let broken = write_temp("dmlc-jobs-fail", "broken.dml", "fun oops(v) = sub(v,\n");
    let out = dmlc().arg("check").arg(&ok).arg(&broken).args(["--jobs", "2"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a failing file fails the batch exit code");
    assert!(stdout.contains("fully verified"), "healthy file still reported: {stdout}");
    assert!(stdout.contains("error:"), "broken file's error in the merged report: {stdout}");
    assert!(stderr.contains("1 failed"), "{stderr}");
}

#[test]
fn jobs_rejects_bad_values() {
    let path = write_temp("dmlc-jobs-bad", "a.dml", ALPHA);
    let out = dmlc().arg("check").arg(&path).args(["--jobs", "zero"]).output().unwrap();
    assert!(!out.status.success());
    let out = dmlc().arg("check").arg(&path).arg("--jobs").output().unwrap();
    assert!(!out.status.success());
}
