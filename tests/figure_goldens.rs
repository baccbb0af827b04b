//! Golden tests tying the reproduction back to the paper's figures.

use dml::experiments::figure4;
use dml_programs as progs;

/// Figure 4 lists five constraints for `look`, all involving the guard
/// bounds of the quantifiers and the `div 2` midpoint. Our obligation set
/// is generated mechanically, so the exact count differs, but the shape
/// must match: universally quantified implications mentioning `size`,
/// `div`, and the `0 <= ...`/`... <= size` bounds — all valid.
#[test]
fn figure4_shape() {
    let lines = figure4();
    assert!(lines.len() >= 5, "{lines:#?}");
    for line in &lines {
        assert!(line.contains("(valid)"), "all Figure 4 constraints solve: {line}");
    }
    assert!(lines.iter().any(|l| l.contains("forall")), "{lines:#?}");
    assert!(lines.iter().any(|l| l.contains("==>")), "{lines:#?}");
    // After existential elimination the midpoint division appears
    // literally, as in the published figure.
    assert!(lines.iter().any(|l| l.contains("div 2")), "midpoint division: {lines:#?}");
    // The paper's `size` bound appears through the array-length universal
    // (named after the `arr` parameter) in the guards `... <= arr`.
    assert!(lines.iter().any(|l| l.contains("hi + 1 <= arr")), "{lines:#?}");
    assert!(
        lines.iter().any(|l| l.contains("array bound check for `sub`")),
        "the sub access must be among them: {lines:#?}"
    );
}

/// Figure 1 (dotprod): the `where` annotations are small relative to the
/// code, as the paper stresses in §4.
#[test]
fn figure1_annotation_overhead_is_small() {
    let p = progs::dotprod::PROGRAM;
    assert!(p.annotation_lines() * 3 <= p.line_count(), "annotations stay a small fraction");
}

/// §3.1's reverse example: the generated constraint for the first clause
/// has the published form ∀…∃M∃N.(M = 0 ∧ N = n ⊃ M + N = n) — after our
/// defining-equation classification, the `M + N = n` conclusion survives
/// as an obligation whose constraint text carries the hypothesis equations.
#[test]
fn reverse_first_clause_constraint_shape() {
    let c = dml::Compiler::new().compile(progs::reverse::SOURCE).unwrap();
    assert!(c.fully_verified());
    let texts: Vec<String> =
        c.obligations().iter().map(|(o, _)| o.constraint.to_string()).collect();
    // Result-type equation of the nil clause: contains a `+` equation
    // implied by a 0-equation hypothesis.
    assert!(
        texts.iter().any(|t| t.contains("0 =") && t.contains("==>") && t.contains("+")),
        "{texts:#?}"
    );
}

/// Every figure/table artifact of the paper is reachable from the public
/// API (the per-experiment index of DESIGN.md).
#[test]
fn experiment_index_is_complete() {
    // Figures 1-3, 5: programs.
    for p in [
        progs::dotprod::PROGRAM,
        progs::reverse::PROGRAM,
        progs::bsearch::PROGRAM,
        progs::kmp::PROGRAM,
    ] {
        assert!(dml::Compiler::new().compile(p.source).unwrap().fully_verified(), "{}", p.name);
    }
    // Figure 4.
    assert!(!figure4().is_empty());
    // Table 1. (Table 2's exact counts are pinned by
    // tests/pipeline_integration.rs; the timing half of Tables 2-3 is the
    // native_tables bench.)
    assert_eq!(dml::experiments::table1().len(), 8);
}
