//! Tables 2–3 on real hardware: native code with checks vs. without.
//!
//! Where `table2_3.rs` reproduces the paper's numbers under the
//! interpreter's per-check *cost model*, this harness measures the real
//! thing: each seed benchmark is compiled twice with `dml-emit` — once
//! all-checked, once with proven sites unchecked — built with
//! `cargo build --release`, and timed on the machine the harness runs on.
//! Both binaries are driven with identical argv (same sizes, same RNG
//! seed), their stdout is diffed byte-for-byte (the differential safety
//! check), and the inner-loop `time_ns` each binary reports on stderr is
//! compared best-of-N.
//!
//! Flags:
//!
//! * `--smoke` — tiny sizes, one run per binary (CI smoke mode);
//! * `--json`  — additionally write `BENCH_native.json` at the repo root.
//!
//! The emitted crates land under `target/native_tables/`; they are
//! dependency-free, so the builds work offline.

use dml::pipeline::Compiler;
use dml_emit::{emit_program, EmitOptions, Variant};
use dml_obs::json::{obj, Json};
use dml_types::infer::infer_program;
use std::path::{Path, PathBuf};
use std::process::Command;

const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_native.json");
const EMIT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/native_tables");

/// Per-program workload: (name, full size, full iters, smoke size, smoke
/// iters). Sizes follow the shape of the paper's workloads scaled to
/// modern hardware; quicksort runs one iteration because re-sorting its
/// own (now sorted) output every iteration is the Lomuto worst case.
const WORKLOADS: &[(&str, i64, i64, i64, i64)] = &[
    ("dotprod", 1_000_000, 20, 64, 2),
    ("bcopy", 1_000_000, 20, 64, 2),
    ("binary search", 1_048_576, 100_000, 64, 50),
    ("bubble sort", 2_048, 10, 64, 2),
    ("matrix mult", 200, 2, 8, 1),
    ("queen", 9, 2, 6, 1),
    ("quick sort", 524_288, 1, 64, 1),
    ("hanoi towers", 16, 50, 8, 2),
    ("list access", 1_048_576, 2, 64, 1),
];

const SEED: u64 = 0xDA7A5EED;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let write_json = args.iter().any(|a| a == "--json");
    let runs = if smoke { 1 } else { 3 };

    let emit_root = PathBuf::from(EMIT_DIR);
    let target_dir = emit_root.join("target");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());

    let mut programs: Vec<dml_programs::BenchProgram> = vec![dml_programs::dotprod::PROGRAM];
    programs.extend(dml_programs::table_programs());

    let mut rows = Vec::new();
    for p in &programs {
        let Some(&(_, full_size, full_iters, smoke_size, smoke_iters)) =
            WORKLOADS.iter().find(|w| w.0 == p.name)
        else {
            eprintln!("skipping {}: no workload entry", p.name);
            continue;
        };
        let (size, iters) = if smoke { (smoke_size, smoke_iters) } else { (full_size, full_iters) };

        // Compile once; emit both variants from the same verdicts.
        let compiled = Compiler::new()
            .compile(p.source)
            .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", p.name));
        let schemes = infer_program(compiled.program(), compiled.env())
            .unwrap_or_else(|e| panic!("{}: re-inference failed: {e:?}", p.name))
            .schemes;
        let sites = compiled.site_verdicts();
        let proven = sites.iter().filter(|s| s.proven).count();

        let mut times = [u128::MAX, u128::MAX]; // [checked, unchecked]
        let mut outputs: [Option<String>; 2] = [None, None];
        for (vi, variant) in [Variant::Checked, Variant::UncheckedProven].iter().enumerate() {
            let tag = if vi == 0 { "checked" } else { "unchecked" };
            let crate_name = format!("{}_{tag}", dml_emit::sanitize_crate_name(p.name));
            let opts = EmitOptions { variant: *variant, crate_name: crate_name.clone() };
            let emitted = emit_program(compiled.program(), compiled.env(), &schemes, &sites, &opts)
                .unwrap_or_else(|e| panic!("{}: emission failed: {e}", p.name));
            assert!(
                emitted.driver_fallback.is_none(),
                "{}: no benchmark driver: {:?}",
                p.name,
                emitted.driver_fallback
            );
            let dir = emit_root.join(&crate_name);
            dml_emit::write_crate(&emitted, &dir).expect("write emitted crate");
            build_release(&cargo, &dir, &target_dir, p.name);
            let bin = target_dir.join("release").join(&crate_name);
            for _ in 0..runs {
                let (stdout, time_ns) = run_once(&bin, size, iters, p.name);
                match &outputs[vi] {
                    None => outputs[vi] = Some(stdout),
                    Some(prev) => {
                        assert_eq!(prev, &stdout, "{}: nondeterministic output across runs", p.name)
                    }
                }
                times[vi] = times[vi].min(time_ns);
            }
        }
        // The differential check: byte-identical stdout across variants.
        assert_eq!(
            outputs[0], outputs[1],
            "{}: checked and proven-unchecked outputs differ",
            p.name
        );

        let (c, u) = (times[0], times[1]);
        let speedup = if c > 0 { (c as f64 - u as f64) / c as f64 * 100.0 } else { 0.0 };
        println!(
            "native_tables/{}: checked {:.3} ms, unchecked {:.3} ms, gain {:+.1}%  ({} of {} sites proven)",
            p.name,
            c as f64 / 1e6,
            u as f64 / 1e6,
            speedup,
            proven,
            sites.len()
        );
        rows.push(obj([
            ("name", Json::Str(p.name.to_string())),
            ("size", Json::Int(size)),
            ("iters", Json::Int(iters)),
            ("sites_total", Json::Int(sites.len() as i64)),
            ("sites_proven", Json::Int(proven as i64)),
            ("checked_ns", Json::Int(c as i64)),
            ("unchecked_ns", Json::Int(u as i64)),
            ("gain_pct", Json::Num((speedup * 10.0).round() / 10.0)),
        ]));
    }

    if write_json {
        let report = obj([
            ("bench", Json::Str("native_tables".to_string())),
            ("smoke", Json::Bool(smoke)),
            ("runs_per_variant", Json::Int(runs as i64)),
            ("seed", Json::Int(SEED as i64)),
            ("programs", Json::Array(rows)),
        ]);
        std::fs::write(REPORT_PATH, report.render() + "\n").expect("write BENCH_native.json");
        println!("wrote {REPORT_PATH}");
    }
}

fn build_release(cargo: &str, dir: &Path, target_dir: &Path, name: &str) {
    let out = Command::new(cargo)
        .args(["build", "--release", "--quiet"])
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", target_dir)
        .output()
        .expect("spawn cargo");
    assert!(
        out.status.success(),
        "{name}: release build failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Runs one emitted binary; returns (stdout, inner-loop nanoseconds).
fn run_once(bin: &Path, size: i64, iters: i64, name: &str) -> (String, u128) {
    let out = Command::new(bin)
        .args([size.to_string(), iters.to_string(), SEED.to_string()])
        .output()
        .unwrap_or_else(|e| panic!("{name}: cannot run {}: {e}", bin.display()));
    assert!(
        out.status.success(),
        "{name}: emitted binary failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let time_ns = stderr
        .lines()
        .find_map(|l| l.strip_prefix("time_ns "))
        .and_then(|v| v.trim().parse::<u128>().ok())
        .unwrap_or_else(|| panic!("{name}: no time_ns on stderr:\n{stderr}"));
    (String::from_utf8_lossy(&out.stdout).into_owned(), time_ns)
}
