//! `dmlc infer` at the binary's surface: the human report of every
//! `examples/*_bare.dml` twin, and what `--strict` does to the refined
//! program. The JSON reports of the same files are pinned by digest in
//! the workspace's `tests/elimination_views.rs`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn example(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples").join(name)
}

fn dmlc(args: &[&str], file: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dmlc"))
        .arg(args[0])
        .arg(example(file))
        .args(&args[1..])
        .output()
        .unwrap()
}

const ASUM: &str = "\
inference: 1 residual check before, 0 after
inferred  where asum <| {n1:nat} int array(n1) -> int
inferred  where loop <| {a1:nat | a1 <= n1} int(a1) * int(n1) * int -> int
";

/// `(file, human report)` for every bare example.
const HUMAN: &[(&str, &str)] = &[
    (
        "amax_bare.dml",
        "\
inference: 1 residual check before, 0 after
inferred  where amax <| {n1:nat} int array(n1) -> int
inferred  where go <| {a1:nat | a1 <= n1} int(a1) * int(n1) * int -> int
",
    ),
    ("asum_bare.dml", ASUM),
    (
        "bcopy_bare.dml",
        "\
inference: 10 residual checks before, 5 after
inferred  where bcopy <| {n1:nat} {n2:nat} 't0 array(n1) * 't0 array(n2) -> unit
inferred  where copy4 <| {a1:nat} int(a1) -> unit
inferred  where copy1 <| {a2:nat | a2 <= 4 * n1} int(a2) -> unit
residual  at 20:8: array bound check for `update`: unknown (possibly falsifiable)
residual  at 21:8: array bound check for `update`: unknown (possibly falsifiable)
residual  at 22:8: array bound check for `update`: unknown (possibly falsifiable)
residual  at 23:8: array bound check for `update`: unknown (possibly falsifiable)
residual  at 28:20: array bound check for `update`: unknown (possibly falsifiable)
",
    ),
    (
        "bsearch_bare.dml",
        "\
inference: 1 residual check before, 0 after
inferred  where bsearch <| {i1:int} {n1:nat} int(i1) * int array(n1) -> int
inferred  where look <| {a1:nat | a1 <= n1} {a2:int | a2 <= n1 - 1} int(a1) * int(a2) -> int
",
    ),
    (
        "dotprod_bare.dml",
        "\
inference: 2 residual checks before, 1 after
inferred  where dotprod <| {n1:nat} {n2:nat} int array(n1) * int array(n2) -> int
inferred  where loop <| {a1:nat | a1 <= n1} int(a1) * int(n1) * int -> int
residual  at 16:45: array bound check for `sub`: refuted
",
    ),
];

#[test]
fn every_bare_example_keeps_its_human_report() {
    for &(file, expected) in HUMAN {
        let out = dmlc(&["infer"], file);
        assert!(out.status.success(), "{file}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{file}");
        assert!(out.stderr.is_empty(), "{file}: {}", String::from_utf8_lossy(&out.stderr));
    }
}

/// `--strict` judges the refined program: `residual.dml` keeps its
/// nonlinear check after inference, so the strict listing names it and
/// the command fails.
#[test]
fn strict_infer_rejects_a_refined_program_with_a_residual() {
    let out = dmlc(&["infer", "--strict"], "residual.dml");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "1 unproven obligation(s) in strict mode:\n  array bound check for `sub` in middle at \
         882..895: unknown (non-linear constraint: i * j)\n"
    );
}

/// Inference proves `asum_bare.dml`'s only residual check, so the refined
/// program passes `--strict` and the report prints as without it.
#[test]
fn strict_infer_passes_a_refined_program_that_verifies() {
    let out = dmlc(&["infer", "--strict"], "asum_bare.dml");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), ASUM);
}
