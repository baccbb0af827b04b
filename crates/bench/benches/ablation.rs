//! Ablation: Fourier–Motzkin **with vs. without integer tightening**
//! (§3.2's extension of Fourier's method).
//!
//! The summary printed at startup shows, per program, how many goals each
//! variant proves: `bcopy` *requires* tightening (its tail-loop bound
//! `0 ≤ 4·(n div 4)` is only integer-valid), reproducing the paper's remark
//! that the tightening transformation "is used in type-checking an
//! optimized byte copy function".

use dml::experiments::{bench_source, benchmarks};
use dml::Compiler;
use dml_bench::bench;
use dml_solver::SolverOptions;
use std::hint::black_box;

fn options(tighten: bool) -> SolverOptions {
    SolverOptions::default().with_tighten(tighten)
}

fn print_summary() {
    println!("\n=== Ablation: integer tightening on/off ===");
    println!("{:<14} {:>14} {:>14}", "program", "verified+T", "verified-T");
    for b in benchmarks() {
        let src = bench_source(&b.program);
        let with = Compiler::new().solver_options(options(true)).compile(&src).expect("compiles");
        let without =
            Compiler::new().solver_options(options(false)).compile(&src).expect("compiles");
        println!(
            "{:<14} {:>14} {:>14}",
            b.program.name,
            if with.fully_verified() { "yes" } else { "NO" },
            if without.fully_verified() { "yes" } else { "NO" },
        );
    }
}

fn main() {
    print_summary();
    for b in benchmarks() {
        let src = bench_source(&b.program);
        for (label, tighten) in [("with", true), ("without", false)] {
            bench("ablation_tightening", &format!("{}/{label}", b.program.name), 1, 10, || {
                let compiled = Compiler::new()
                    .solver_options(options(tighten))
                    .compile(black_box(&src))
                    .expect("compiles");
                compiled.stats().solver.fm_combinations
            });
        }
    }
}
