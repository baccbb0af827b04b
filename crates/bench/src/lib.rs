//! The one harness behind every bench binary in `benches/`: a flag parser
//! ([`Args`]), a sampling loop that reports each measurement's spread
//! ([`sample`], [`Spread`]), and the writer of the `BENCH_<suite>.json`
//! reports ([`write_report`]). `EXPERIMENTS.md` at the repository root
//! documents the report layout.
//!
//! The harness is self-contained (no external benchmarking crates).

pub mod rss;

use dml_obs::json::{obj, Json};
use std::fmt;
use std::time::{Duration, Instant};

/// The flags every bench binary takes after `--`: `--smoke` (small inputs
/// and one timed round per measurement, for CI) and `--json` (also write
/// the bench's `BENCH_<suite>.json`). A bench reads its own flags, such as
/// `--assert-ablation`, with [`Args::flag`]; anything else, such as the
/// `--bench` that `cargo bench` passes, is ignored.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// `--smoke` was given.
    pub smoke: bool,
    /// `--json` was given.
    pub json: bool,
    flags: Vec<String>,
}

impl Args {
    /// The flags of this process.
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1))
    }

    /// Parses a flag list.
    pub fn parse(flags: impl IntoIterator<Item = String>) -> Args {
        let flags: Vec<String> = flags.into_iter().collect();
        let has = |name: &str| flags.iter().any(|f| f == name);
        Args { smoke: has("--smoke"), json: has("--json"), flags }
    }

    /// Whether the bench-specific flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// `(warmup, n)` rounds for [`sample`]: as given, or `(0, 1)` under
    /// `--smoke`.
    pub fn rounds(&self, warmup: usize, n: usize) -> (usize, usize) {
        if self.smoke {
            (0, 1)
        } else {
            (warmup, n)
        }
    }
}

/// Order statistics of `n` timed samples, in milliseconds. Quartiles
/// interpolate linearly between the closest ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Fastest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Spread {
    /// The spread of `samples`; all zero when there are none.
    pub fn of(samples: &[Duration]) -> Spread {
        let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        let at = |p: f64| {
            if ms.is_empty() {
                return 0.0;
            }
            let pos = p * (ms.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            ms[lo] + (ms[hi] - ms[lo]) * (pos - lo as f64)
        };
        Spread { min: at(0.0), q1: at(0.25), median: at(0.5), q3: at(0.75), n: ms.len() }
    }

    /// The report form: `{"min", "q1", "median", "q3", "n"}`, times in ms.
    pub fn to_json(&self) -> Json {
        obj([
            ("min", Json::Num(self.min)),
            ("q1", Json::Num(self.q1)),
            ("median", Json::Num(self.median)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Int(self.n as i64)),
        ])
    }
}

impl fmt::Display for Spread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "median {} (q1 {}, q3 {}, min {}, n {})",
            fmt_ms(self.median),
            fmt_ms(self.q1),
            fmt_ms(self.q3),
            fmt_ms(self.min),
            self.n
        )
    }
}

/// Runs `warmup` untimed rounds, then `n` timed ones, and returns the
/// spread of each duration a round reports, in the order it reports them.
/// A round measures every variant it compares back to back, so slow drift
/// on a shared host hits all of them alike; every round must report the
/// same number of durations.
pub fn sample<R: IntoIterator<Item = Duration>>(
    warmup: usize,
    n: usize,
    mut round: impl FnMut() -> R,
) -> Vec<Spread> {
    for _ in 0..warmup {
        let _ = round();
    }
    let mut columns: Vec<Vec<Duration>> = Vec::new();
    for _ in 0..n.max(1) {
        let durations: Vec<Duration> = round().into_iter().collect();
        columns.resize_with(durations.len(), Vec::new);
        for (column, d) in columns.iter_mut().zip(durations) {
            column.push(d);
        }
    }
    columns.iter().map(|c| Spread::of(c)).collect()
}

/// Wall time of one call of `f`; its result is kept from the optimiser.
pub fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed()
}

/// Writes `BENCH_<file>.json` at the repository root when `--json` was
/// given: the host facts once (`suite`, `smoke`, `available_parallelism`,
/// `pool_helpers`, `seed`, which is null for a bench without one), then
/// the bench's own fields.
pub fn write_report<'a>(
    args: &Args,
    file: &str,
    suite: &str,
    seed: Option<u64>,
    body: impl IntoIterator<Item = (&'a str, Json)>,
) {
    if !args.json {
        return;
    }
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("suite", Json::Str(suite.to_string())),
        ("smoke", Json::Bool(args.smoke)),
        ("available_parallelism", Json::Int(parallelism as i64)),
        ("pool_helpers", Json::Int(dml_solver::pool::prewarm() as i64)),
        // A non-finite number renders as JSON null.
        ("seed", seed.map_or(Json::Num(f64::NAN), |s| Json::Int(s as i64))),
    ];
    fields.extend(body);
    let path = format!("{}/../../BENCH_{file}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, obj(fields).render() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}

/// `hits / (hits + misses)`, or 0 when nothing was looked up.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Renders milliseconds with an adaptive unit.
fn fmt_ms(ms: f64) -> String {
    match ms {
        _ if ms < 0.01 => format!("{:.0} ns", ms * 1e6),
        _ if ms < 10.0 => format!("{:.1} µs", ms * 1e3),
        _ if ms < 10_000.0 => format!("{ms:.2} ms"),
        _ => format!("{:.2} s", ms / 1e3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_split_shared_and_bench_flags() {
        let args = Args::parse(["--bench", "--smoke", "--assert-ablation"].map(String::from));
        assert!(args.smoke && !args.json);
        assert!(args.flag("--assert-ablation") && !args.flag("--json"));
        assert_eq!(args.rounds(1, 5), (0, 1));
        assert_eq!(Args::parse([]).rounds(1, 5), (1, 5));
    }

    #[test]
    fn sample_runs_warmup_then_timed_rounds() {
        let mut calls = 0u32;
        let spreads = sample(1, 3, || {
            calls += 1;
            [Duration::from_millis(1), Duration::from_millis(2)]
        });
        assert_eq!(calls, 4, "1 warmup + 3 timed rounds");
        assert_eq!(spreads.len(), 2, "one spread per reported duration");
        assert_eq!((spreads[0].n, spreads[0].median), (3, 1.0));
        assert_eq!(spreads[1].median, 2.0);
    }

    #[test]
    fn spread_quartiles_interpolate() {
        let s = Spread::of(&[4, 1, 3, 2, 5].map(Duration::from_millis));
        assert_eq!((s.min, s.q1, s.median, s.q3, s.n), (1.0, 2.0, 3.0, 4.0, 5));
        let s = Spread::of(&[1, 2].map(Duration::from_millis));
        assert_eq!((s.q1, s.median, s.q3), (1.25, 1.5, 1.75));
        assert_eq!(Spread::of(&[]).n, 0);
    }

    #[test]
    fn hit_rate_is_zero_without_lookups() {
        assert_eq!(hit_rate(0, 0), 0.0);
        assert_eq!(hit_rate(3, 1), 0.75);
    }

    #[test]
    fn units() {
        assert!(fmt_ms(5e-6).ends_with("ns"));
        assert!(fmt_ms(0.05).contains("µs"));
        assert!(fmt_ms(50.0).contains("ms"));
        assert!(fmt_ms(11_000.0).ends_with(" s"));
    }
}
