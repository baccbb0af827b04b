//! The five workloads and what they share: repeated set-up, a
//! deadline-bound closed loop, and the end-to-end metrics every workload
//! reports.
//!
//! Every workload is a closed loop driven from this one process: the next
//! operation starts only after the previous one finished. No workload runs
//! more threads than the program under test starts by default
//! (`check_batch` with one job per core, the solver pool with one helper
//! fewer than cores).

mod compile;
mod goals;
mod native;
mod session;

use crate::inputs::Sizes;
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{median, tail};
use dml_oracle::scale::ExpectedCounts;
use dml_solver::SolverStats;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = ["batch", "megafile", "goals", "edit_session", "native"];

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed part.
    pub seconds: f64,
    /// Repeat the workload once with spans and report per-layer metrics.
    pub traced: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Working directory for emitted crates and their builds.
    pub work_dir: PathBuf,
}

/// What a run produces: its report and, when traced, its spans.
#[derive(Debug)]
pub struct RunOutput {
    /// Metrics and correctness counts.
    pub report: Report,
    /// The traced run's spans.
    pub spans: Option<Recorder>,
}

/// Runs workload `name`.
///
/// # Errors
///
/// An unknown workload, or a failure that prevents measuring at all.
/// Wrong outputs are not errors: they are counted in the report.
pub fn run(name: &str, cfg: &RunConfig) -> Result<RunOutput, String> {
    match name {
        "batch" => compile::run_batch(cfg),
        "megafile" => compile::run_megafile(cfg),
        "goals" => goals::run(cfg),
        "edit_session" => session::run(cfg),
        "native" => native::run(cfg),
        other => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    }
}

/// Runs `setup` `n` times (at least once) and returns the last result
/// with every set-up's wall time in seconds.
fn repeat_setup<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(n.max(1));
    let mut last = None;
    for _ in 0..n.max(1) {
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Calls `op` until `seconds` have passed since the first call (and at
/// least once). `op` returns `false` to stop early.
fn until_deadline(
    seconds: f64,
    mut op: impl FnMut() -> Result<bool, String>,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        if !op()? || Instant::now() >= deadline {
            return Ok(());
        }
    }
}

/// Wall time of `f` in milliseconds, with its result.
fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Work per second when every operation does `work` units: `work` over
/// the median operation time.
fn per_op_rate(work: f64, op_ms: &[f64]) -> f64 {
    work / (median(op_ms).expect("at least one operation") / 1e3)
}

/// Work per second when operations differ: total `work` over total time.
fn total_rate(work: f64, op_ms: &[f64]) -> f64 {
    work / (op_ms.iter().sum::<f64>() / 1e3)
}

/// The process's resident-set high-water mark in MiB. Read it right after
/// the timed part, before any reference check allocates.
fn peak_rss_mib() -> Result<f64, String> {
    let bytes = dml_bench::rss::peak_bytes().ok_or("peak RSS is unreadable (no /proc)")?;
    Ok(bytes as f64 / (1024.0 * 1024.0))
}

/// Records the end-to-end metrics every workload reports.
fn end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    throughput_per_s: f64,
    latency_ms: &[f64],
    rss_mib: f64,
) -> Result<(), String> {
    let n = latency_ms.len();
    report.push("setup_s", "s", median(setup_s).ok_or("no set-up")?, setup_s.len(), "median")?;
    report.push("throughput_per_s", "1/s", throughput_per_s, n, "work per second")?;
    report.push("latency_p50_ms", "ms", median(latency_ms).ok_or("no latency")?, n, "median")?;
    let t = tail(latency_ms).expect("non-empty");
    report.push("latency_tail_ms", "ms", t.value, t.samples, t.label())?;
    report.push("peak_rss_mib", "MiB", rss_mib, 1, "VmHWM")
}

/// `100 · (traced / untraced − 1)`: what recording spans added.
fn overhead_pct(traced_ms: f64, untraced_ms: f64) -> f64 {
    100.0 * (traced_ms / untraced_ms - 1.0)
}

/// Records the benchmark's own per-layer metrics: input generation
/// (absent for a workload with fixed inputs) and tracing overhead.
fn bench_layer(
    report: &mut Report,
    input_gen_s: &[f64],
    overhead: f64,
    overhead_samples: usize,
) -> Result<(), String> {
    if let Some(gen) = median(input_gen_s) {
        report.push("bench.input_gen_s", "s", gen, input_gen_s.len(), "median")?;
    }
    report.push("bench.tracing_overhead_pct", "%", overhead, overhead_samples, "traced vs untraced")
}

/// Records the solver's work counters. `stats.proven` and `stats.refuted`
/// must count goals, as `Solver::prove` counts them.
fn solver_counters(report: &mut Report, stats: &SolverStats, goals: usize) -> Result<(), String> {
    let unknown = goals - stats.proven - stats.refuted;
    report.push("solver.goals", "count", goals as f64, goals, "total")?;
    report.push("solver.fm_combinations", "count", stats.fm_combinations as f64, goals, "total")?;
    report.push(
        "solver.fm_per_goal",
        "count",
        stats.fm_combinations as f64 / goals.max(1) as f64,
        goals,
        "mean",
    )?;
    report.push(
        "solver.disjuncts_refuted",
        "count",
        stats.disjuncts_refuted as f64,
        goals,
        "total",
    )?;
    report.push(
        "solver.existentials_eliminated",
        "count",
        stats.existentials_eliminated as f64,
        goals,
        "total",
    )?;
    report.push("solver.proven", "count", stats.proven as f64, goals, "total")?;
    report.push("solver.refuted", "count", stats.refuted as f64, goals, "total")?;
    report.push("solver.unknown", "count", unknown as f64, goals, "total")?;
    report.push(
        "solver.decided_ratio",
        "ratio",
        (stats.proven + stats.refuted) as f64 / goals.max(1) as f64,
        goals,
        "(proven + refuted) / goals",
    )
}

/// Records the goal cache's hit and miss counts.
fn cache_counters(report: &mut Report, hits: usize, misses: usize) -> Result<(), String> {
    let probes = hits + misses;
    report.push("solver.cache_hits", "count", hits as f64, probes, "total")?;
    report.push("solver.cache_misses", "count", misses as f64, probes, "total")?;
    report.push(
        "solver.cache_hit_ratio",
        "ratio",
        hits as f64 / probes.max(1) as f64,
        probes,
        "hits / probes",
    )
}

/// `Some` when a check report lacks the `proven check sites: P;
/// unproven: U` line that the stamp `expected` predicts.
fn stamp_error(report_text: &str, expected: &ExpectedCounts) -> Option<String> {
    let want = format!(
        "proven check sites: {}; unproven: {}",
        expected.proven_sites, expected.residual_sites
    );
    (!report_text.lines().any(|l| l == want)).then(|| format!("report lacks `{want}`"))
}

/// The worker count `dmlc check --jobs` defaults to: one per core.
fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
