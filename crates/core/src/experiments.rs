//! Experiment drivers regenerating the paper's tables and figures.
//!
//! * [`table1`] — constraint generation/solving statistics per program
//!   (paper Table 1);
//! * [`table1_infer`] — the inference variant: every benchmark with its
//!   hand annotations stripped, recompiled with [`Compiler::infer`] on,
//!   reporting how much of the annotation burden interval inference
//!   recovers (`dmlc table 1 --infer`);
//! * [`table2`] — the exact half of the paper's Tables 2 and 3: checks
//!   eliminated, residual and executed, the abstract op gain, and whether
//!   the checked and eliminated runs agree. The run-time half is measured
//!   on emitted native code by the `native_tables` bench;
//! * [`figure4`] — the constraints generated for binary search's `look`
//!   (paper Figure 4).
//!
//! Workloads follow the paper's shapes with sizes scaled by a factor so
//! the interpreter finishes quickly; see `EXPERIMENTS.md`.

use crate::pipeline::{Compiled, Compiler};
use crate::table::Table;
use dml_eval::{Machine, Mode, Value};
use dml_programs as progs;
use std::time::Duration;

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Program name.
    pub program: &'static str,
    /// Constraints (proof obligations) generated.
    pub constraints: usize,
    /// Solver goals after splitting.
    pub goals: usize,
    /// Constraint generation time.
    pub generation: Duration,
    /// Constraint solving time.
    pub solving: Duration,
    /// Goals answered from the verdict cache.
    pub cache_hits: usize,
    /// Goals decided from scratch.
    pub cache_misses: usize,
    /// Number of type annotations.
    pub annotations: usize,
    /// Lines occupied by annotations.
    pub annotation_lines: usize,
    /// Total program lines.
    pub total_lines: usize,
    /// Whether every constraint was proven.
    pub fully_verified: bool,
    /// Check sites whose bound/tag checks stay in the compiled program
    /// (unproven obligations — graceful degradation). Zero for fully
    /// verified programs.
    pub residual_sites: usize,
    /// Per-phase solver latency histograms (always recorded, only rendered
    /// by `dmlc table 1 --timings`; see [`table1_timings`]).
    pub phase_times: dml_solver::PhaseTimes,
}

/// Compiles every benchmark program and reports Table 1's columns.
pub fn table1() -> Vec<Table1Row> {
    benchmarks()
        .iter()
        .map(|b| {
            let compiled = compile_bench(b);
            let stats = compiled.stats();
            Table1Row {
                program: b.program.name,
                constraints: stats.constraints,
                goals: stats.goals,
                generation: stats.generation_time,
                solving: stats.solve_time,
                cache_hits: stats.solver.cache_hits,
                cache_misses: stats.solver.cache_misses,
                annotations: b.program.annotation_count(),
                annotation_lines: b.program.annotation_lines(),
                total_lines: b.program.line_count(),
                fully_verified: compiled.fully_verified(),
                residual_sites: compiled.residual_checks().len(),
                phase_times: stats.solver.phase_times.clone(),
            }
        })
        .collect()
}

/// Renders Table 1 in the paper's layout.
pub fn table1_rendered() -> Table {
    table1_rows_rendered(&table1())
}

/// Renders the per-phase solver timing histograms aggregated over every
/// Table 1 row (`dmlc table 1 --timings`): each phase's total time, then
/// its bucket counts. Timings vary run to run, so this never enters golden
/// comparisons.
pub fn table1_timings(rows: &[Table1Row]) -> String {
    let mut total = dml_solver::PhaseTimes::default();
    for r in rows {
        total.merge(&r.phase_times);
    }
    let mut out = String::from("\nsolver phase timings (all programs):\n");
    for (label, hist) in total.phases() {
        let ms = hist.total().as_secs_f64() * 1e3;
        out.push_str(&format!("  {label:<16} {ms:>9.3} ms  {hist}\n"));
    }
    out
}

/// Renders already-computed Table 1 rows in the paper's layout.
pub fn table1_rows_rendered(rows: &[Table1Row]) -> Table {
    let mut t = Table::new(&[
        "program",
        "constraints",
        "gen/solve (ms)",
        "annotations",
        "anno lines",
        "code size",
        "verified",
    ]);
    for r in rows {
        // The cache rate rides in the timing column: like the times it
        // varies with solver configuration (cache on/off, warm vs cold),
        // while every other column is configuration-independent.
        let looked_up = r.cache_hits + r.cache_misses;
        let rate = (r.cache_hits * 100).checked_div(looked_up).unwrap_or(0);
        t.row(vec![
            r.program.to_string(),
            r.constraints.to_string(),
            format!(
                "{:.1}/{:.1} ({rate}% cached)",
                r.generation.as_secs_f64() * 1e3,
                r.solving.as_secs_f64() * 1e3
            ),
            r.annotations.to_string(),
            r.annotation_lines.to_string(),
            format!("{} lines", r.total_lines),
            // Fully verified rows render exactly as before; partially
            // verified ones name their residual-check count.
            if r.fully_verified {
                "yes".to_string()
            } else if r.residual_sites > 0 {
                format!("PARTIAL ({} residual)", r.residual_sites)
            } else {
                "PARTIAL".to_string()
            },
        ]);
    }
    t
}

/// One row of the Table 1 inference variant: a benchmark with its
/// hand-written annotations stripped, partially recovered by
/// [`Compiler::infer`].
#[derive(Debug, Clone)]
pub struct InferRow {
    /// Program name.
    pub program: &'static str,
    /// Hand-written annotations in the original source.
    pub hand_annotations: usize,
    /// Residual check sites compiling the stripped source plain.
    pub before: usize,
    /// Residual check sites once the accepted annotations are applied.
    pub after: usize,
    /// Accepted (solver-verified) inferred annotations.
    pub accepted: usize,
    /// Candidates proposed by the interval analysis but rejected by the
    /// solver's re-verification.
    pub rejected: usize,
    /// Residual sites in the hand-annotated original — the bar inference
    /// is measured against (zero for every seed benchmark).
    pub original_residual: usize,
}

/// Strips every benchmark's annotations and recompiles with
/// [`Compiler::infer`] on: how much of the hand-annotation burden does
/// interval inference recover? (`dmlc table 1 --infer`)
pub fn table1_infer() -> Vec<InferRow> {
    benchmarks()
        .iter()
        .map(|b| {
            let src = bench_source(&b.program);
            let stripped = dml_infer::strip_annotations(&src)
                .unwrap_or_else(|e| panic!("{} failed to strip: {e}", b.program.name));
            let compiled = Compiler::new()
                .infer(true)
                .compile(&stripped)
                .unwrap_or_else(|e| panic!("{} stripped compile: {e}", b.program.name));
            let report = compiled.infer_report().expect("infer(true) records a report");
            InferRow {
                program: b.program.name,
                hand_annotations: b.program.annotation_count(),
                before: report.before,
                after: report.after,
                accepted: report.accepted.len(),
                rejected: report.rejected.len(),
                original_residual: compile_bench(b).residual_checks().len(),
            }
        })
        .collect()
}

/// Renders the inference variant of Table 1.
pub fn table1_infer_rendered(rows: &[InferRow]) -> Table {
    let mut t = Table::new(&[
        "program",
        "hand annos",
        "residual (stripped)",
        "residual (inferred)",
        "accepted",
        "rejected",
        "recovered",
    ]);
    for r in rows {
        t.row(vec![
            r.program.to_string(),
            r.hand_annotations.to_string(),
            r.before.to_string(),
            r.after.to_string(),
            r.accepted.to_string(),
            r.rejected.to_string(),
            // "full" means inference reaches the hand-annotated original's
            // residual count; anything less is reported honestly.
            if r.after == r.original_residual {
                "full".to_string()
            } else {
                format!("partial ({} vs {})", r.after, r.original_residual)
            },
        ]);
    }
    t
}

/// One row of Table 2: facts of running a benchmark with every check and
/// with proven checks eliminated that are the same on every machine.
#[derive(Debug, Clone)]
pub struct RunRow {
    /// Program name.
    pub program: &'static str,
    /// Deterministic abstract-op gain: `(ops_with − ops_without)/ops_with`
    /// in percent, bit-for-bit reproducible across machines.
    pub ops_gain_percent: f64,
    /// Dynamic checks eliminated during the run.
    pub checks_eliminated: u64,
    /// Residual checks executed in eliminated mode: dynamic checks at
    /// unproven sites (graceful degradation). Explicitly-checked `*CK`
    /// sites are counted in [`RunRow::checks_executed`] but not here —
    /// they were never candidates for elimination.
    pub residual_checks: u64,
    /// All checks executed in eliminated mode (residual plus `*CK` sites).
    pub checks_executed: u64,
    /// Checks executed by the fully checked run.
    pub checked_run_checks: u64,
    /// Whether both modes computed identical results (must always hold).
    pub outputs_match: bool,
}

/// Table 2: runs all eight benchmarks in both modes. The eliminated run
/// validates every access it skips, so an unsound elimination panics
/// instead of producing a row.
pub fn table2(factor: u32) -> Vec<RunRow> {
    benchmarks().iter().map(|b| run_benchmark(b, factor)).collect()
}

/// Renders a Table 2 report.
pub fn table_rendered(rows: &[RunRow]) -> Table {
    let mut t =
        Table::new(&["program", "checks eliminated", "residual", "executed", "op gain", "match"]);
    for r in rows {
        t.row(vec![
            r.program.to_string(),
            r.checks_eliminated.to_string(),
            r.residual_checks.to_string(),
            r.checks_executed.to_string(),
            format!("{:.0}%", r.ops_gain_percent),
            if r.outputs_match { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t
}

/// Figure 4: the constraints generated while type-checking binary search's
/// `look`, rendered in the paper's quantified-implication form.
///
/// As in the paper, constraints are shown *after* existential-variable
/// elimination (the published figure contains only universal quantifiers).
pub fn figure4() -> Vec<String> {
    let compiled = Compiler::new().compile(progs::bsearch::SOURCE).expect("bsearch compiles");
    let mut out = Vec::new();
    for (o, r) in compiled
        .obligations()
        .iter()
        .filter(|(o, _)| o.in_fun == "look" && !matches!(o.kind, dml_elab::ObKind::TypeEq))
    {
        let mut stats = dml_solver::SolverStats::default();
        for goal in dml_solver::goal::extract_goals(&o.constraint, &mut stats) {
            out.push(format!(
                "[{}] {}  ({})",
                o.kind,
                goal,
                if r.is_proven() { "valid" } else { "NOT PROVEN" }
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Benchmark drivers.
// ---------------------------------------------------------------------

/// A benchmark: its program plus a driver that runs the workload on a
/// machine and returns a checksum (used to compare the two modes).
pub struct Bench {
    /// Program metadata and source.
    pub program: progs::BenchProgram,
    /// Workload driver; `factor` scales the paper's workload down.
    pub run: fn(&mut Machine, factor: u32) -> i64,
}

/// The eight benchmarks of Tables 2 and 3, in table order.
pub fn benchmarks() -> Vec<Bench> {
    vec![
        Bench { program: progs::bcopy::PROGRAM, run: run_bcopy },
        Bench { program: progs::bsearch::PROGRAM, run: run_bsearch },
        Bench { program: progs::bubblesort::PROGRAM, run: run_bubblesort },
        Bench { program: progs::matmult::PROGRAM, run: run_matmult },
        Bench { program: progs::queens::PROGRAM, run: run_queens },
        Bench { program: progs::quicksort::PROGRAM, run: run_quicksort },
        Bench { program: progs::hanoi::PROGRAM, run: run_hanoi },
        Bench { program: progs::listaccess::PROGRAM, run: run_listaccess },
    ]
}

/// Compiles a benchmark (quicksort needs its integer driver appended).
pub fn compile_bench(b: &Bench) -> Compiled {
    let src = bench_source(&b.program);
    Compiler::new()
        .compile(&src)
        .unwrap_or_else(|e| panic!("{} failed to compile: {e}", b.program.name))
}

/// The source actually compiled for a benchmark program.
pub fn bench_source(p: &progs::BenchProgram) -> String {
    if p.name == "quick sort" {
        format!("{}{}", p.source, progs::quicksort::INT_DRIVER)
    } else {
        p.source.to_string()
    }
}

/// Runs one benchmark in both modes, validating every eliminated access.
pub fn run_benchmark(b: &Bench, factor: u32) -> RunRow {
    let compiled = compile_bench(b);
    let mut checked = compiled.machine(Mode::Checked);
    let with_sum = (b.run)(&mut checked, factor);
    let mut eliminated = compiled
        .machine_with(dml_eval::CheckConfig::eliminated(Default::default()).with_validation());
    let without_sum = (b.run)(&mut eliminated, factor);
    let (with_ops, without_ops) = (checked.ops, eliminated.ops);
    let ops_gain = if with_ops > 0 {
        (with_ops as f64 - without_ops as f64) / with_ops as f64 * 100.0
    } else {
        0.0
    };
    let counters = eliminated.counters;
    RunRow {
        program: b.program.name,
        ops_gain_percent: ops_gain,
        checks_eliminated: counters.eliminated(),
        residual_checks: counters.residual(),
        checks_executed: counters.executed(),
        checked_run_checks: checked.counters.executed(),
        outputs_match: with_sum == without_sum,
    }
}

fn run_bcopy(m: &mut Machine, factor: u32) -> i64 {
    // Paper: copy 1M bytes 10 times. Scaled: 16384·f bytes, 4 rounds.
    let n = 16_384 * factor as usize;
    let data = progs::bcopy::workload(n, 42);
    let (args, dst) = progs::bcopy::args(&data);
    for _ in 0..4 {
        m.call("bcopy", vec![args.clone()]).expect("bcopy runs");
    }
    dst.int_array_to_vec().expect("int array").iter().sum()
}

fn run_bsearch(m: &mut Machine, factor: u32) -> i64 {
    // Paper: 2^20 probes into a 2^20 array. Scaled: 4096·f each.
    let n = 4096 * factor as usize;
    let (arr, keys) = progs::bsearch::workload(n, n, 7);
    let arr_v = Value::int_array(arr.iter().copied());
    let mut found = 0i64;
    for key in keys {
        let r = m.call("isearch", vec![progs::bsearch::args(key, &arr_v)]).expect("isearch runs");
        if matches!(&r, Value::Con(n, Some(_)) if &**n == "FOUND") {
            found += 1;
        }
    }
    found
}

fn run_bubblesort(m: &mut Machine, factor: u32) -> i64 {
    // Paper: size 2^13. Scaled: 384·f (quadratic cost).
    let n = 384 * factor as usize;
    let data = progs::bubblesort::workload(n, 3);
    let arr = progs::bubblesort::args(&data);
    m.call("bubblesort", vec![arr.clone()]).expect("bubblesort runs");
    let out = arr.int_array_to_vec().expect("int array");
    out.iter().enumerate().fold(0i64, |acc, (i, v)| acc.wrapping_add(v.wrapping_mul(i as i64 + 1)))
}

fn run_matmult(m: &mut Machine, factor: u32) -> i64 {
    // Paper: 256×256. Scaled: 24·f.
    let n = 24 * factor as usize;
    let a = progs::matmult::workload(n, 1);
    let b = progs::matmult::workload(n, 2);
    let (args, c) = progs::matmult::args(&a, &b);
    m.call("matmult", vec![args]).expect("matmult runs");
    progs::matmult::matrix_back(&c).expect("matrix").iter().flatten().sum()
}

fn run_queens(m: &mut Machine, factor: u32) -> i64 {
    // Paper: 12×12. Scaled: 8×8 (f=1) or 9×9 (f≥2).
    let n = if factor >= 2 { 9 } else { 8 };
    m.call("queens", vec![progs::queens::args(n)]).expect("queens runs").as_int().unwrap()
}

fn run_quicksort(m: &mut Machine, factor: u32) -> i64 {
    // Paper: 2^20-ish from the SML/NJ library. Scaled: 4096·f.
    let n = 4096 * factor as usize;
    let data = progs::quicksort::workload(n, 9);
    let arr = progs::quicksort::args(&data);
    m.call("isort", vec![arr.clone()]).expect("isort runs");
    let out = arr.int_array_to_vec().expect("int array");
    out.iter().enumerate().fold(0i64, |acc, (i, v)| acc.wrapping_add(v.wrapping_mul(i as i64 + 1)))
}

fn run_hanoi(m: &mut Machine, factor: u32) -> i64 {
    // Paper: 24 disks. Scaled: 12 + f.
    let k = 12 + factor as usize;
    m.call("hanoi", vec![progs::hanoi::args(k)]).expect("hanoi runs").as_int().unwrap()
}

fn run_listaccess(m: &mut Machine, factor: u32) -> i64 {
    // Paper: 2^20 accesses (16 per round). Scaled: 1024·f rounds.
    let rounds = 1024 * factor as i64;
    let data = progs::listaccess::workload(64, 5);
    m.call("listaccess", vec![progs::listaccess::args(&data, rounds)])
        .expect("listaccess runs")
        .as_int()
        .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_fully_verified() {
        for b in benchmarks() {
            let c = compile_bench(&b);
            assert!(
                c.fully_verified(),
                "{} not fully verified:\n{}",
                b.program.name,
                c.failures().map(|(o, r)| format!("{o} -- {r:?}")).collect::<Vec<_>>().join("\n")
            );
            assert!(!c.proven_sites().is_empty(), "{} eliminated no checks", b.program.name);
        }
    }

    #[test]
    fn kmp_verifies_with_residual_checked_sites() {
        let c = Compiler::new().compile(progs::kmp::SOURCE).unwrap();
        assert!(
            c.fully_verified(),
            "kmp failures:\n{}",
            c.failures().map(|(o, r)| format!("{o} -- {r:?}")).collect::<Vec<_>>().join("\n")
        );
        // The paper: most checks eliminated; `subCK` calls remain checked
        // at run time (they generate no obligations at all).
        assert!(!c.proven_sites().is_empty());
        let mut m = c.machine(Mode::Eliminated);
        let pat = [1, 2, 1];
        let text = progs::kmp::workload(120, &pat, Some(60), 4);
        m.call("kmpMatch", vec![progs::kmp::args(&text, &pat)]).unwrap();
        assert!(m.counters.array_checks_eliminated > 0, "most checks eliminated");
        assert!(m.counters.array_checks_executed > 0, "subCK residue stays checked");
        assert_eq!(
            m.counters.array_checks_residual, 0,
            "`subCK` checks are explicit, not residual — kmp is fully verified"
        );
    }

    #[test]
    fn expository_programs_fully_verified() {
        for p in [progs::dotprod::PROGRAM, progs::reverse::PROGRAM, progs::filter::PROGRAM] {
            let c = Compiler::new().compile(p.source).unwrap();
            assert!(
                c.fully_verified(),
                "{} failures:\n{}",
                p.name,
                c.failures().map(|(o, r)| format!("{o} -- {r:?}")).collect::<Vec<_>>().join("\n")
            );
        }
    }

    #[test]
    fn table1_has_all_rows() {
        let rows = table1();
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.constraints > 0, "{}", r.program);
            assert!(r.fully_verified, "{}", r.program);
            assert_eq!(r.residual_sites, 0, "{} has residual checks", r.program);
            assert!(r.annotations >= 1);
        }
        let rendered = table1_rendered().to_string();
        assert!(rendered.contains("binary search"), "{rendered}");
    }

    #[test]
    fn table1_infer_never_regresses_and_accepts_annotations() {
        let rows = table1_infer();
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.after <= r.before, "{}: inference added residuals", r.program);
            assert_eq!(r.original_residual, 0, "{}: seed benchmarks verify fully", r.program);
        }
        assert!(rows.iter().any(|r| r.accepted > 0), "inference accepted nothing: {rows:?}");
        let rendered = table1_infer_rendered(&rows).to_string();
        assert!(rendered.contains("recovered"), "{rendered}");
        assert!(rendered.contains("binary search"), "{rendered}");
    }

    #[test]
    fn figure4_lists_look_constraints() {
        let lines = figure4();
        assert!(lines.len() >= 5, "Figure 4 lists several constraints: {lines:#?}");
        assert!(lines.iter().all(|l| l.contains("valid")), "{lines:#?}");
        assert!(
            lines.iter().any(|l| l.contains("div")),
            "the midpoint division must appear: {lines:#?}"
        );
    }
}
