//! Golden test for `examples/residual.dml`: the graceful-degradation
//! showcase must keep compiling permissively, fail strictly, and count
//! its residual check at run time — across both the nonlinear fallback
//! (default budgets) and the fuel-exhaustion path (`fuel = 0`).

use dml::{Compiler, Mode, PipelineError, UnknownReason, Value};

fn source() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/residual.dml"))
        .expect("examples/residual.dml exists")
}

#[test]
fn permissive_compile_leaves_one_nonlinear_residual() {
    let src = source();
    let compiled = Compiler::new().compile(&src).expect("permissive mode compiles");
    assert!(!compiled.fully_verified());
    assert_eq!(compiled.proven_sites().len(), 1, "`first` is proven");

    let residual = compiled.residual_checks();
    assert_eq!(residual.len(), 1, "only `middle`'s bound survives");
    let rc = &residual[0];
    assert_eq!(rc.in_fun, "middle");
    assert!(
        matches!(&rc.reason, UnknownReason::Nonlinear(e) if e == "i * j"),
        "nonlinear fallback: {:?}",
        rc.reason
    );
    let line = rc.to_string();
    assert!(line.contains("residual array bound check for `sub` in middle"), "{line}");
    assert!(line.contains("non-linear constraint: i * j"), "{line}");
}

#[test]
fn strict_compile_rejects_the_nonlinear_bound() {
    let src = source();
    match Compiler::new().strict(true).compile(&src) {
        Err(PipelineError::Unproven(obs)) => {
            assert_eq!(obs.len(), 1, "exactly the `middle` bound");
            assert_eq!(obs[0].0.in_fun, "middle");
        }
        other => panic!("expected Unproven, got {:?}", other.map(|_| "Ok")),
    }
}

#[test]
fn fuel_exhaustion_adds_a_second_residual() {
    let src = source();
    let compiled = Compiler::new().fuel(0).compile(&src).expect("still permissive");
    let residual = compiled.residual_checks();
    assert_eq!(residual.len(), 2, "both bounds stay at fuel 0");
    assert!(
        residual
            .iter()
            .any(|rc| rc.in_fun == "first" && matches!(rc.reason, UnknownReason::FuelExhausted)),
        "`first` exhausts its budget: {residual:?}"
    );
    assert!(
        residual
            .iter()
            .any(|rc| rc.in_fun == "middle" && matches!(rc.reason, UnknownReason::Nonlinear(_))),
        "`middle` stays nonlinear: {residual:?}"
    );
}

#[test]
fn residual_check_executes_and_is_counted_at_runtime() {
    let src = source();
    let compiled = Compiler::new().compile(&src).expect("compiles");
    let mut machine = compiled.machine(Mode::Eliminated);
    let r = machine.call("demo", vec![Value::Int(3)]).expect("runs");
    assert_eq!(r.as_int(), Some(14));
    assert_eq!(machine.counters.array_checks_eliminated, 1, "`first`'s check is gone");
    assert_eq!(machine.counters.array_checks_executed, 1, "`middle`'s check ran");
    assert_eq!(machine.counters.array_checks_residual, 1, "…and was counted residual");
    assert_eq!(machine.counters.residual(), 1);
}

/// A type error blocks every elimination: `broken` returns `int` where its
/// annotation promises `int(n+1)`, so no site runs unchecked although the
/// solver proves `sub(v, 0)`'s guard. The residual listing and DML006
/// name only the site whose own guard failed (`sub(v, 5)`), while the
/// site counts and inference count every site the fail-safe keeps checked.
const BROKEN: &str = "fun broken(v) = (sub(v, 0); sub(v, 5))\n\
                      where broken <| {n:nat | n > 1} int array(n) -> int(n+1)\n";

#[test]
fn a_type_error_keeps_every_check() {
    let compiled = Compiler::new().compile(BROKEN).expect("permissive mode compiles");
    assert!(!compiled.fully_verified());
    assert!(compiled.proven_sites().is_empty(), "the type error blocks elimination");
    assert_eq!(compiled.unproven_sites().len(), 2);
    let report = dml::check_report(&compiled, BROKEN);
    assert!(!report.ok, "ill-typed programs fail `check`");
    assert!(report.text.contains("proven check sites: 0; unproven: 2\n"), "{}", report.text);

    let failing = BROKEN.find("sub(v, 5)").unwrap() as u32;
    let residual = compiled.residual_checks();
    assert_eq!(residual.len(), 1, "{residual:?}");
    assert_eq!(residual[0].site.start, failing);
    let dml006: Vec<_> = compiled.lints().into_iter().filter(|f| f.code == "DML006").collect();
    assert_eq!(dml006.len(), 1, "{dml006:?}");
    assert_eq!(dml006[0].span.start, failing);

    let sites = compiled.site_verdicts();
    assert_eq!(sites.len(), 2);
    assert!(sites.iter().all(|s| !s.proven), "{sites:?}");

    let (report, _) = Compiler::new().infer(BROKEN).expect("compiles");
    let text = report.render_human(BROKEN);
    assert_eq!(text.matches("blocked: a non-check obligation failed").count(), 2, "{text}");
}
