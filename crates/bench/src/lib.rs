//! Shared helpers for the benchmark harness; the benches live in
//! `benches/` and regenerate the paper's tables and figures. See
//! `EXPERIMENTS.md` at the repository root.
//!
//! The harness is self-contained (no external benchmarking crates): each
//! benchmark runs a warm-up pass, then a fixed number of timed iterations,
//! and reports min/mean/max wall-clock time per iteration.

pub mod rss;

use std::time::{Duration, Instant};

/// Timing summary of one benchmark: per-iteration wall-clock statistics.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Mean time per iteration.
    pub mean: Duration,
    /// Fastest iteration.
    pub min: Duration,
    /// Slowest iteration.
    pub max: Duration,
    /// Timed iterations measured.
    pub iters: usize,
}

/// Measures `f` and prints a one-line summary under `group/name`.
///
/// Runs `warmup` untimed iterations followed by `iters` timed ones. The
/// closure's return value is consumed with [`std::hint::black_box`] so the
/// optimiser cannot elide the work.
pub fn bench<T>(group: &str, name: &str, warmup: usize, iters: usize, f: impl FnMut() -> T) {
    bench_timed(group, name, warmup, iters, f);
}

/// Like [`bench()`], but also returns the [`Summary`] so machine-readable
/// reports (e.g. `BENCH_solver.json`) can be assembled from the same run
/// that produced the human-readable line.
pub fn bench_timed<T>(
    group: &str,
    name: &str,
    warmup: usize,
    iters: usize,
    mut f: impl FnMut() -> T,
) -> Summary {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut samples = Vec::with_capacity(iters.max(1));
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        std::hint::black_box(f());
        samples.push(start.elapsed());
    }
    let min = samples.iter().min().copied().unwrap_or_default();
    let max = samples.iter().max().copied().unwrap_or_default();
    let total: Duration = samples.iter().sum();
    let mean = total / samples.len() as u32;
    println!(
        "{group}/{name}: mean {}  min {}  max {}  ({} iters)",
        fmt_duration(mean),
        fmt_duration(min),
        fmt_duration(max),
        samples.len()
    );
    Summary { mean, min, max, iters: samples.len() }
}

/// Renders a duration with an adaptive unit.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_closure() {
        let mut count = 0u32;
        bench("test", "counter", 1, 3, || {
            count += 1;
            count
        });
        assert_eq!(count, 4, "1 warmup + 3 timed iterations");
    }

    #[test]
    fn bench_timed_reports_samples() {
        let s = bench_timed("test", "timed", 0, 5, || std::hint::black_box(2 + 2));
        assert_eq!(s.iters, 5);
        assert!(s.min <= s.mean && s.mean <= s.max);
    }

    #[test]
    fn duration_units() {
        assert!(fmt_duration(Duration::from_nanos(5)).ends_with("ns"));
        assert!(fmt_duration(Duration::from_micros(50)).contains("µs"));
        assert!(fmt_duration(Duration::from_millis(50)).contains("ms"));
        assert!(fmt_duration(Duration::from_secs(11)).ends_with(" s"));
    }
}
