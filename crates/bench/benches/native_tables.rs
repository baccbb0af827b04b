//! Tables 2–3 on real hardware: native code with checks vs. without.
//!
//! Each seed benchmark is compiled twice with `dml-emit` — once
//! all-checked, once with proven sites unchecked — built with
//! `cargo build --release`, and timed on the machine the harness runs on.
//! Both binaries are driven with identical argv (same sizes, same RNG
//! seed), their stdout is diffed byte-for-byte (the differential safety
//! check), and the inner-loop `time_ns` each binary reports on stderr is
//! sampled over alternating runs: every round runs both variants, and the
//! variant that goes first alternates from round to round, so drift on a
//! shared host hits both alike.
//!
//! Flags (after `--`):
//!
//! * `--smoke` — tiny sizes, one run per binary (CI smoke mode);
//! * `--json`  — additionally write `BENCH_native.json` at the repo root.
//!
//! The emitted crates land under `target/native_tables/`; they are
//! dependency-free, so the builds work offline.

use dml::pipeline::Compiler;
use dml_bench::{sample, write_report, Args};
use dml_emit::{emit_program, EmitOptions, Variant};
use dml_obs::json::{obj, Json};
use dml_types::infer::infer_program;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

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
    let args = Args::from_env();
    let (warmup, n) = args.rounds(1, 15);

    let emit_root = PathBuf::from(EMIT_DIR);
    let target_dir = emit_root.join("target");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());

    let mut programs: Vec<dml_programs::BenchProgram> = vec![dml_programs::dotprod::PROGRAM];
    programs.extend(dml_programs::table_programs());

    let mut rows = Vec::new();
    for p in &programs {
        let &(_, full_size, full_iters, smoke_size, smoke_iters) =
            WORKLOADS.iter().find(|w| w.0 == p.name).expect("every program has a workload");
        let (size, iters) =
            if args.smoke { (smoke_size, smoke_iters) } else { (full_size, full_iters) };

        // Compile once; emit both variants from the same verdicts.
        let compiled = Compiler::new()
            .compile(p.source)
            .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", p.name));
        let schemes = infer_program(compiled.program(), compiled.env())
            .unwrap_or_else(|e| panic!("{}: re-inference failed: {e:?}", p.name))
            .schemes;
        let sites = compiled.site_verdicts();
        let proven = sites.iter().filter(|s| s.proven).count();

        let bins = [(Variant::Checked, "checked"), (Variant::UncheckedProven, "unchecked")].map(
            |(variant, tag)| {
                let crate_name = format!("{}_{tag}", dml_emit::sanitize_crate_name(p.name));
                let opts = EmitOptions { variant, crate_name: crate_name.clone() };
                let emitted =
                    emit_program(compiled.program(), compiled.env(), &schemes, sites, &opts)
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
                target_dir.join("release").join(&crate_name)
            },
        );

        let mut outputs: [Option<String>; 2] = [None, None];
        let mut round = 0;
        let spreads = sample(warmup, n, || {
            let mut times = [Duration::ZERO; 2];
            for vi in if round % 2 == 0 { [0, 1] } else { [1, 0] } {
                let (stdout, time) = run_once(&bins[vi], size, iters, p.name);
                match &outputs[vi] {
                    None => outputs[vi] = Some(stdout),
                    Some(prev) => {
                        assert_eq!(prev, &stdout, "{}: nondeterministic output across runs", p.name)
                    }
                }
                times[vi] = time;
            }
            round += 1;
            times
        });
        // The differential check: byte-identical stdout across variants.
        assert_eq!(
            outputs[0], outputs[1],
            "{}: checked and proven-unchecked outputs differ",
            p.name
        );

        let (c, u) = (spreads[0], spreads[1]);
        let gain = if c.median > 0.0 { (c.median - u.median) / c.median * 100.0 } else { 0.0 };
        println!(
            "native_tables/{}: checked {c}; unchecked {u}; gain {gain:+.1}% \
             ({proven} of {} sites proven)",
            p.name,
            sites.len()
        );
        rows.push(obj([
            ("name", Json::Str(p.name.to_string())),
            ("size", Json::Int(size)),
            ("iters", Json::Int(iters)),
            ("sites_total", Json::Int(sites.len() as i64)),
            ("sites_proven", Json::Int(proven as i64)),
            ("checked_ms", c.to_json()),
            ("unchecked_ms", u.to_json()),
            ("gain_pct", Json::Num((gain * 10.0).round() / 10.0)),
        ]));
    }

    write_report(&args, "native", "native_tables", Some(SEED), [("programs", Json::Array(rows))]);
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

/// Runs one emitted binary; returns (stdout, inner-loop time).
fn run_once(bin: &Path, size: i64, iters: i64, name: &str) -> (String, Duration) {
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
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or_else(|| panic!("{name}: no time_ns on stderr:\n{stderr}"));
    (String::from_utf8_lossy(&out.stdout).into_owned(), Duration::from_nanos(time_ns))
}
