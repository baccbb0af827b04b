//! Golden results for `dmlc infer` over the annotation-stripped corpus.
//!
//! Each `examples/*_bare.dml` twin goes through `Compiler::infer` and
//! must land exactly on its documented before/after residual counts —
//! the linear-index programs reach zero, the ones needing caller
//! preconditions (`dotprod`, `bcopy`) keep exactly the honest remainder.
//! A second test pins the synthesized fix-it text byte-for-byte across
//! solver configurations (workers × cache), which is what makes DML007
//! fix-its reproducible in CI.

use dml::{Compiler, InferReport};
use std::fs;

fn infer_file(path: &str) -> (String, InferReport, dml::Compiled) {
    let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let (report, compiled) =
        Compiler::new().infer(&src).unwrap_or_else(|e| panic!("{path} failed to compile: {e}"));
    (src, report, compiled)
}

#[track_caller]
fn check_counts(path: &str, before: usize, after: usize, accepted_funs: &[&str]) {
    let (src, report, compiled) = infer_file(path);
    assert_eq!(
        (report.before, report.after),
        (before, after),
        "{path}: expected {before} -> {after}; report:\n{}",
        report.render_human(&src)
    );
    let got: Vec<&str> = report.accepted.iter().map(|a| a.fun.as_str()).collect();
    assert_eq!(got, accepted_funs, "{path}: accepted annotations");
    // What inference proved really is eliminated in the compiled program.
    assert_eq!(compiled.residual_checks().len(), after, "{path}: residual_checks disagrees");
}

#[test]
fn asum_bare_reaches_zero() {
    check_counts("examples/asum_bare.dml", 1, 0, &["asum", "loop"]);
}

#[test]
fn amax_bare_reaches_zero() {
    check_counts("examples/amax_bare.dml", 1, 0, &["amax", "go"]);
}

#[test]
fn bsearch_bare_reaches_zero() {
    check_counts("examples/bsearch_bare.dml", 1, 0, &["bsearch", "look"]);
}

#[test]
fn dotprod_bare_keeps_honest_residual() {
    check_counts("examples/dotprod_bare.dml", 2, 1, &["dotprod", "loop"]);
}

#[test]
fn bcopy_bare_proves_reads_keeps_writes() {
    check_counts("examples/bcopy_bare.dml", 10, 5, &["bcopy", "copy4", "copy1"]);
}

#[test]
fn residual_dml_fully_annotated_infers_nothing() {
    // Every function already carries an annotation, so inference has no
    // candidates — and in particular must not disturb the showcase file's
    // lint golden sequence.
    let (_, report, _) = infer_file("examples/residual.dml");
    assert!(report.accepted.is_empty(), "{:?}", report.accepted);
    assert_eq!(report.before, report.after);
}

#[test]
fn fixits_are_byte_identical_across_configs() {
    let src = fs::read_to_string("examples/bcopy_bare.dml").unwrap();
    let mut renderings = Vec::new();
    for workers in [1usize, 4] {
        for cache in [true, false] {
            let (report, _) = Compiler::new().workers(workers).cache(cache).infer(&src).unwrap();
            let fixits: Vec<String> =
                report.accepted.iter().map(|a| format!("{}@{}", a.fixit, a.insert_at)).collect();
            renderings.push((workers, cache, fixits));
        }
    }
    let (_, _, first) = &renderings[0];
    for (workers, cache, fixits) in &renderings {
        assert_eq!(fixits, first, "fix-its differ under workers={workers} cache={cache}");
    }
}

#[test]
fn inferred_annotations_reparse() {
    // The fix-it text must be valid concrete syntax: applying it to the
    // source and re-parsing yields a program whose annotation count grew.
    for path in ["examples/asum_bare.dml", "examples/bsearch_bare.dml"] {
        let (src, report, _) = infer_file(path);
        let mut patched = src.clone();
        let mut edits: Vec<_> = report.accepted.iter().collect();
        edits.sort_by_key(|a| std::cmp::Reverse(a.insert_at));
        for a in edits {
            patched.insert_str(a.insert_at as usize, &a.fixit);
        }
        dml_syntax::parse_program(&patched)
            .unwrap_or_else(|e| panic!("{path}: patched source failed to parse: {e}\n{patched}"));
        // And the patched source now proves everything the AST route did.
        let recompiled = Compiler::new().compile(&patched).unwrap();
        assert_eq!(
            recompiled.residual_checks().len(),
            report.after,
            "{path}: textual fix-its disagree with AST application\n{patched}"
        );
    }
}

#[test]
fn strip_then_infer_roundtrips_seed_benchmarks() {
    // Stripping the paper benchmarks' annotations and re-inferring must
    // never crash and never leave more residuals than functions; the
    // fully linear `dotprod` loop body recovers its read invariant.
    for p in dml_programs::all_programs() {
        let stripped = dml::strip_annotations(p.source).unwrap();
        assert!(!stripped.contains("where"), "{}: strip left a where-clause", p.name);
        let (report, _) = Compiler::new()
            .infer(&stripped)
            .unwrap_or_else(|e| panic!("{}: stripped source failed: {e}", p.name));
        assert!(
            report.after <= report.before,
            "{}: inference regressed {} -> {}",
            p.name,
            report.before,
            report.after
        );
    }
}
