//! Regenerates the paper's evaluation tables on scaled-down workloads.
//!
//! ```text
//! cargo run --release --example paper_tables [factor]
//! ```
//!
//! The optional factor (default 1) scales the Table 2 workloads toward the
//! paper's sizes; see `EXPERIMENTS.md` for the mapping. Table 2 prints the
//! exact half of the paper's Tables 2–3 (checks eliminated, op gain); the
//! run times with and without checks come from the `native_tables` bench.

use dml::experiments;

fn main() {
    let factor: u32 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1);

    println!("== Table 1: constraint generation and solving ==");
    print!("{}", experiments::table1_rendered());

    println!("\n== Table 2: check elimination (factor {factor}) ==");
    let t2 = experiments::table2(factor);
    print!("{}", experiments::table_rendered(&t2));

    assert!(t2.iter().all(|r| r.outputs_match), "modes must agree");
}
