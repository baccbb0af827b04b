//! End-to-end pipeline tests over every benchmark program: compile,
//! verify, run in both modes **with validation enabled**, and compare
//! results. Validation turns any out-of-bounds access at an "eliminated"
//! site into a hard error, so these tests are the soundness net for the
//! whole system.

use dml::experiments::{bench_source, benchmarks, compile_bench, table2};
use dml::{CheckConfig, Mode, Value};
use dml_programs as progs;

#[test]
fn every_benchmark_fully_verifies_and_eliminates() {
    for b in benchmarks() {
        let compiled = compile_bench(&b);
        assert!(
            compiled.fully_verified(),
            "{}:\n{}",
            b.program.name,
            compiled
                .failures()
                .map(|(o, r)| format!("{o} -- {r:?}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(!compiled.proven_sites().is_empty(), "{}", b.program.name);
        assert!(
            compiled.unproven_sites().is_empty(),
            "{} has unproven check sites",
            b.program.name
        );
    }
}

/// Table 2 at factor 1, the counts `dmlc table 2` prints. Its eliminated
/// run validates every skipped access and panics with `UnsoundElimination`
/// on a violation, so a row exists only if elimination was sound.
#[test]
fn eliminated_runs_validate_and_agree_with_checked_runs() {
    let expected = [
        ("bcopy", 131_072),
        ("binary search", 48_207),
        ("bubble sort", 283_456),
        ("matrix mult", 56_448),
        ("queen", 48_808),
        ("quick sort", 166_361),
        ("hanoi towers", 65_528),
        ("list access", 16_384),
    ];
    let rows = table2(1);
    assert_eq!(rows.len(), expected.len());
    for (row, (program, eliminated)) in rows.iter().zip(expected) {
        assert_eq!(row.program, program);
        assert!(row.outputs_match, "{program} results differ");
        assert_eq!(row.checks_eliminated, eliminated, "{program} checks eliminated");
        assert_eq!(row.residual_checks, 0, "{program} residual checks");
        assert_eq!(
            row.checked_run_checks,
            row.checks_eliminated + row.checks_executed,
            "{program}: every check is either executed or eliminated"
        );
    }
}

#[test]
fn check_counts_scale_with_workload() {
    let b = benchmarks().remove(7); // list access
    assert_eq!(b.program.name, "list access");
    let compiled = compile_bench(&b);
    let mut m1 = compiled.machine(Mode::Checked);
    (b.run)(&mut m1, 1);
    let mut m2 = compiled.machine(Mode::Checked);
    (b.run)(&mut m2, 2);
    assert_eq!(m2.counters.tag_checks_executed, 2 * m1.counters.tag_checks_executed);
}

#[test]
fn kmp_eliminates_scan_but_not_prefix_residue() {
    let compiled = dml::Compiler::new().compile(progs::kmp::SOURCE).unwrap();
    assert!(compiled.fully_verified());
    let pat = [0, 1, 0, 1, 1];
    let text = progs::kmp::workload(2000, &pat, Some(1500), 9);

    let mut m =
        compiled.machine_with(CheckConfig::eliminated(Default::default()).with_validation());
    let got = m.call("kmpMatch", vec![progs::kmp::args(&text, &pat)]).unwrap().as_int().unwrap();
    assert_eq!(got, progs::kmp::reference(&text, &pat));
    assert!(m.counters.array_checks_eliminated > 0, "scan loop eliminated");
    assert!(m.counters.array_checks_executed > 0, "subCK residue still checked");
    assert!(
        m.counters.array_checks_eliminated > 4 * m.counters.array_checks_executed,
        "most checks are eliminated ({} vs {})",
        m.counters.array_checks_eliminated,
        m.counters.array_checks_executed
    );
}

#[test]
fn tampered_program_is_caught_not_eliminated() {
    // Deliberately break dotprod's loop bound: i <= n becomes i <= n+1,
    // which would allow one out-of-bounds access.
    let src = progs::dotprod::SOURCE
        .replace("{i:nat | i <= n}", "{i:nat | i <= n+1}")
        .replace("if i = n then sum", "if i = n+1 then sum");
    let compiled = dml::Compiler::new().compile(&src).unwrap();
    assert!(!compiled.fully_verified(), "the solver must reject the out-of-bounds variant");
    assert!(compiled.proven_sites().is_empty(), "no elimination when verification fails");
    // In checked mode the faulty program traps instead of reading OOB.
    let mut m = compiled.machine(Mode::Checked);
    let (v1, v2) = progs::dotprod::workload(8, 1);
    let err = m.call("dotprod", vec![progs::dotprod::args(&v1, &v2)]).unwrap_err();
    assert!(matches!(err, dml_eval::EvalError::BoundsViolation { .. }));
}

#[test]
fn expository_programs_verify_and_run() {
    // dotprod
    let c = dml::Compiler::new().compile(progs::dotprod::SOURCE).unwrap();
    assert!(c.fully_verified());
    let (v1, v2) = progs::dotprod::workload(64, 5);
    let mut m = c.machine(Mode::Eliminated);
    let r = m.call("dotprod", vec![progs::dotprod::args(&v1, &v2)]).unwrap();
    assert_eq!(r.as_int(), Some(progs::dotprod::reference(&v1, &v2)));

    // reverse
    let c = dml::Compiler::new().compile(progs::reverse::SOURCE).unwrap();
    assert!(c.fully_verified());
    let mut m = c.machine(Mode::Eliminated);
    let r = m.call("reverse", vec![progs::reverse::workload(10)]).unwrap();
    let out: Vec<i64> = r.list_to_vec().unwrap().iter().map(|v| v.as_int().unwrap()).collect();
    assert_eq!(out, (0..10).rev().collect::<Vec<i64>>());

    // filter (existential result length)
    let c = dml::Compiler::new().compile(progs::filter::SOURCE).unwrap();
    assert!(c.fully_verified());
}

#[test]
fn table_source_compiles_via_bench_source() {
    for b in benchmarks() {
        let src = bench_source(&b.program);
        assert!(dml::Compiler::new().compile(&src).is_ok(), "{}", b.program.name);
    }
}

#[test]
fn proven_site_spans_match_actual_prim_applications() {
    let compiled = dml::Compiler::new().compile(progs::bsearch::SOURCE).unwrap();
    // The single proven site must be inside the program text and cover a
    // `sub` application.
    for span in compiled.proven_sites() {
        let text = span.slice(progs::bsearch::SOURCE);
        assert!(text.starts_with("sub"), "site text: {text}");
    }
}

#[test]
fn values_round_trip_through_machine() {
    let src = "fun id(x) = x";
    let compiled = dml::Compiler::new().compile(src).unwrap();
    let mut m = compiled.machine(Mode::Checked);
    for v in [
        Value::Int(42),
        Value::Bool(true),
        Value::Unit,
        Value::list([Value::Int(1), Value::Int(2)]),
        Value::int_array([3, 4, 5]),
    ] {
        let r = m.call("id", vec![v.clone()]).unwrap();
        assert!(dml_eval::value::value_eq(&r, &v), "{v} round-trips");
    }
}

#[test]
fn extra_library_programs_fully_verify() {
    for p in dml_programs::extra::all() {
        let c =
            dml::Compiler::new().compile(p.source).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        assert!(c.fully_verified(), "{}:\n{}", p.name, c.explain_failures(p.source));
    }
}

#[test]
fn extra_programs_run_eliminated_with_validation() {
    use dml_programs::extra;
    // array reverse, validated elimination
    let c = dml::Compiler::new().compile(extra::ARRAY_REVERSE).unwrap();
    let mut m = c.machine_with(CheckConfig::eliminated(Default::default()).with_validation());
    let v = Value::int_array([1, 2, 3, 4]);
    m.call("arev", vec![v.clone()]).unwrap();
    assert_eq!(v.int_array_to_vec().unwrap(), vec![4, 3, 2, 1]);
    assert!(m.counters.array_checks_eliminated > 0);
    assert_eq!(m.counters.array_checks_executed, 0);

    // lower_bound, validated elimination
    let c = dml::Compiler::new().compile(extra::LOWER_BOUND).unwrap();
    let mut m = c.machine_with(CheckConfig::eliminated(Default::default()).with_validation());
    let v = Value::int_array([2, 4, 6, 8]);
    let arg = Value::Tuple(std::rc::Rc::new(vec![v, Value::Int(5)]));
    let r = m.call("lower_bound", vec![arg]).unwrap();
    assert_eq!(r.as_int(), Some(2));
}

#[test]
fn ops_counter_is_deterministic() {
    let b = &benchmarks()[1]; // binary search
    let compiled = compile_bench(b);
    let mut a = compiled.machine(Mode::Checked);
    let mut c = compiled.machine(Mode::Checked);
    (b.run)(&mut a, 1);
    (b.run)(&mut c, 1);
    assert_eq!(a.ops, c.ops, "abstract op count is bit-for-bit reproducible");
    assert!(a.ops > 0);
}
