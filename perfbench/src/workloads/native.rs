//! `native`: run time of the code the native backend emits (Tables 2–3).
//!
//! Set-up compiles bcopy, bubble sort and matrix mult, emits each twice
//! with `dml-emit` (every check kept; proven checks removed) and builds
//! the six crates with `cargo build --release` into a fresh target
//! directory. The timed part runs the binaries in rounds, alternating
//! which variant of a program runs first. Every run must print exactly
//! what the first checked run printed. These three programs have the
//! densest checks of the paper's set and run for at least 10 ms at these
//! sizes; shorter programs (queen, hanoi, bsearch) vary by ±15% from
//! noise alone.

use super::{
    bench_layer, end_to_end, jobs, overhead_pct, peak_rss_mib, repeat_setup, time_ms, total_rate,
    until_deadline, RunConfig, RunOutput,
};
use crate::inputs::derive_seed;
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{geomean, median};
use dml::Compiler;
use dml_emit::{emit_program, sanitize_crate_name, EmitOptions, Variant};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The programs, in the order of [`crate::inputs::Sizes::native_argv`].
const PROGRAMS: [&str; 3] = ["bcopy", "bubble sort", "matrix mult"];

const VARIANTS: [(Variant, &str); 2] =
    [(Variant::Checked, "checked"), (Variant::UncheckedProven, "unchecked")];

/// Rounds the traced run records.
const TRACED_ROUNDS: usize = 10;

const SALT_NATIVE_ARGV: u64 = 8;

/// A directory removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is harmless and Drop must not
        // panic.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The six built binaries and what every run must print.
struct Built {
    _dir: WorkDir,
    /// Per program: `[checked, unchecked]` binary paths.
    bins: Vec<[PathBuf; 2]>,
    /// Per program: the stdout every run must reproduce.
    reference: Vec<String>,
    /// Sites in the emitted programs, and those emitted unchecked.
    sites_total: usize,
    sites_unchecked: usize,
}

/// The emitted binary's arguments: array size, iterations, input seed.
fn argv(cfg: &RunConfig, program: usize) -> [String; 3] {
    let (size, iters) = cfg.sizes.native_argv[program];
    [size.to_string(), iters.to_string(), derive_seed(cfg.seed, SALT_NATIVE_ARGV).to_string()]
}

/// Compiles, emits and builds every program.
fn build(cfg: &RunConfig, rec: &mut Recorder) -> Result<Built, String> {
    // Unique per build: tests run several builds in one process.
    static BUILDS: AtomicUsize = AtomicUsize::new(0);
    let n = BUILDS.fetch_add(1, Ordering::Relaxed);
    let dir = WorkDir(cfg.work_dir.join(format!("native-{}-{n}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let (mut crates, mut sites_total, mut sites_unchecked) = (Vec::new(), 0, 0);
    for (i, name) in PROGRAMS.iter().enumerate() {
        let program = dml_programs::table_programs()
            .into_iter()
            .find(|p| p.name == *name)
            .ok_or_else(|| format!("no benchmark program named {name}"))?;
        let compiled = rec
            .span("core.compile", i as u64, |_| Compiler::new().compile(program.source))
            .map_err(|e| format!("{name}: {e}"))?;
        let schemes = dml_types::infer_program(compiled.program(), compiled.env())
            .map_err(|e| format!("{name}: {}", e.message))?
            .schemes;
        let sites = compiled.site_verdicts();
        for (variant, tag) in VARIANTS {
            let crate_name = format!("{}_{tag}", sanitize_crate_name(name));
            let opts = EmitOptions { variant, crate_name: crate_name.clone() };
            let emitted = rec
                .tagged_span("emit.emit", crate_name.clone(), i as u64, |_| {
                    emit_program(compiled.program(), compiled.env(), &schemes, &sites, &opts)
                })
                .map_err(|e| format!("{name}: {e}"))?;
            if let Some(why) = &emitted.driver_fallback {
                return Err(format!("{name}: emitted without its benchmark main: {why}"));
            }
            if variant == Variant::UncheckedProven {
                sites_total += emitted.stats.unchecked_sites + emitted.stats.checked_sites;
                sites_unchecked += emitted.stats.unchecked_sites;
            }
            let crate_dir = dir.0.join(&crate_name);
            dml_emit::write_crate(&emitted, &crate_dir).map_err(|e| e.to_string())?;
            crates.push((crate_name, crate_dir));
        }
    }
    let bins = rec.span("rustc.build", 0, |_| build_all(&crates))?;
    let bins: Vec<[PathBuf; 2]> = bins.chunks(2).map(|b| [b[0].clone(), b[1].clone()]).collect();

    // The first checked run of each program fixes the reference output.
    let mut reference = Vec::new();
    for (i, [checked, _]) in bins.iter().enumerate() {
        reference.push(run_binary(checked, &argv(cfg, i))?.0);
    }
    Ok(Built { _dir: dir, bins, reference, sites_total, sites_unchecked })
}

/// Builds every crate with `cargo build --release`, one cargo process per
/// core at a time, each into its own fresh target directory (concurrent
/// builds would otherwise wait on one directory lock). Returns the binary
/// paths in crate order.
fn build_all(crates: &[(String, PathBuf)]) -> Result<Vec<PathBuf>, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Result<PathBuf, String>>>> =
        crates.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs().min(crates.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((name, dir)) = crates.get(i) else { break };
                let target = dir.join("target");
                let built =
                    cargo_build(&cargo, dir, &target).map(|()| target.join("release").join(name));
                *results[i].lock().expect("a build thread panicked") = Some(built);
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.into_inner().expect("a build thread panicked").expect("every crate was built"))
        .collect()
}

fn cargo_build(cargo: &str, crate_dir: &Path, target: &Path) -> Result<(), String> {
    let out = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--offline"])
        .current_dir(crate_dir)
        .env("CARGO_TARGET_DIR", target)
        .output()
        .map_err(|e| format!("cannot start cargo: {e}"))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "cargo build of {} failed:\n{}",
            crate_dir.display(),
            String::from_utf8_lossy(&out.stderr)
        ))
    }
}

/// Runs one emitted binary; returns its stdout and the inner-loop time it
/// reports on stderr as `time_ns <n>`.
fn run_binary(bin: &Path, args: &[String]) -> Result<(String, f64), String> {
    let out = Command::new(bin)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("{} failed: {stderr}", bin.display()));
    }
    let ns = stderr
        .lines()
        .find_map(|l| l.strip_prefix("time_ns "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{}: no time_ns on stderr", bin.display()))?;
    Ok((String::from_utf8_lossy(&out.stdout).into_owned(), ns))
}

/// One round: every program, both variants, in an order that alternates
/// between rounds. Returns per program the `[checked, unchecked]`
/// inner-loop times in milliseconds.
fn round(
    cfg: &RunConfig,
    built: &Built,
    index: usize,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<Vec<[f64; 2]>, String> {
    let mut times = Vec::with_capacity(built.bins.len());
    for (p, bins) in built.bins.iter().enumerate() {
        let args = argv(cfg, p);
        let mut ms = [0.0; 2];
        let order = if (index + p).is_multiple_of(2) { [0, 1] } else { [1, 0] };
        for v in order {
            let tag = format!("{}/{}", sanitize_crate_name(PROGRAMS[p]), VARIANTS[v].1);
            let (stdout, ns) =
                rec.tagged_span("native.run", tag, index as u64, |_| run_binary(&bins[v], &args))?;
            report.attempt((stdout != built.reference[p]).then(|| {
                format!("{} {}: stdout differs from the reference", PROGRAMS[p], VARIANTS[v].1)
            }));
            ms[v] = ns / 1e6;
        }
        times.push(ms);
    }
    Ok(times)
}

/// The run time of the generated code in one round: the geometric mean
/// over programs of the unchecked inner-loop time.
fn round_latency(times: &[[f64; 2]]) -> Result<f64, String> {
    let unchecked: Vec<f64> = times.iter().map(|t| t[1]).collect();
    geomean(&unchecked).ok_or_else(|| "a binary reported a zero run time".to_string())
}

/// The `native` workload.
pub(super) fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    let mut report = Report::new("native", cfg.seed, cfg.traced);
    // At most two set-ups per run: a build takes about ten seconds. The
    // last set-up's handful of spans cost nothing measurable and feed the
    // traced run's layers.
    let ((built, mut rec), setup_s) = repeat_setup(cfg.sizes.setups.min(2), || {
        let mut rec = Recorder::new();
        Ok((build(cfg, &mut rec)?, rec))
    })?;

    // The untraced rounds record into a recorder that is dropped at once:
    // six spans cost nothing measurable beside six process runs.
    let (mut latency_ms, mut round_ms) = (Vec::new(), Vec::new());
    until_deadline(cfg.seconds, || {
        let (times, ms) =
            time_ms(|| round(cfg, &built, round_ms.len(), &mut Recorder::new(), &mut report));
        latency_ms.push(round_latency(&times?)?);
        round_ms.push(ms);
        Ok(true)
    })?;
    let rss_mib = peak_rss_mib()?;
    if !cfg.traced {
        let runs = (round_ms.len() * 2 * PROGRAMS.len()) as f64;
        end_to_end(&mut report, &setup_s, total_rate(runs, &round_ms), &latency_ms, rss_mib)?;
        return Ok(RunOutput { report, spans: None });
    }

    let mut times = Vec::with_capacity(TRACED_ROUNDS);
    let mut traced_round_ms = Vec::with_capacity(TRACED_ROUNDS);
    for i in 0..TRACED_ROUNDS {
        let (t, ms) = time_ms(|| {
            rec.span("native.round", i as u64, |rec| round(cfg, &built, i, rec, &mut report))
        });
        times.push(t?);
        traced_round_ms.push(ms);
    }
    let overhead = overhead_pct(
        median(&traced_round_ms).expect("traced rounds"),
        median(&round_ms).expect("timed rounds"),
    );
    bench_layer(&mut report, &[], overhead, TRACED_ROUNDS)?;
    report.push("core.compile_ms", "ms", rec.total_ms("core.compile"), PROGRAMS.len(), "total")?;
    report.push("emit.emit_ms", "ms", rec.total_ms("emit.emit"), 2 * PROGRAMS.len(), "total")?;
    report.push("emit.sites_total", "count", built.sites_total as f64, PROGRAMS.len(), "total")?;
    report.push(
        "emit.sites_unchecked",
        "count",
        built.sites_unchecked as f64,
        PROGRAMS.len(),
        "total",
    )?;
    report.push(
        "rustc.build_s",
        "s",
        rec.total_ms("rustc.build") / 1e3,
        2 * PROGRAMS.len(),
        "total",
    )?;
    for (p, name) in PROGRAMS.iter().enumerate() {
        let med =
            |v: usize| median(&times.iter().map(|t| t[p][v]).collect::<Vec<_>>()).expect("rounds");
        let (checked, unchecked) = (med(0), med(1));
        let stem = format!("native.{}", sanitize_crate_name(name));
        report.push(&format!("{stem}.checked_run_ms"), "ms", checked, TRACED_ROUNDS, "median")?;
        report.push(
            &format!("{stem}.unchecked_run_ms"),
            "ms",
            unchecked,
            TRACED_ROUNDS,
            "median",
        )?;
        report.push(
            &format!("{stem}.gain_pct"),
            "%",
            100.0 * (checked - unchecked) / checked,
            TRACED_ROUNDS,
            "(checked - unchecked) / checked",
        )?;
    }
    Ok(RunOutput { report, spans: Some(rec) })
}
