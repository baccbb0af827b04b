//! Throughput suite over the generated scale corpus: program size ×
//! jobs × {cold, warm session cache}, reporting goals/sec, wall time,
//! peak RSS, and cache hit-rate trajectories to `BENCH_scale.json`.
//!
//! Flags (after `--`):
//! * `--smoke` — small corpus sizes and one round per config (CI smoke mode);
//! * `--json`  — additionally write `BENCH_scale.json` at the repo root.
//!
//! Per corpus size (total obligations across a multi-file corpus; the
//! corpus generator is `dml_oracle::scale`, seeded and stamped with
//! expected verdict counts that are asserted here — a throughput number
//! from a miscompiled corpus would be worthless):
//!
//! * `cold_jobs1` — fresh session solver, sequential.
//!   Measured file-by-file, which also yields the cumulative cache
//!   hit-rate *trajectory*: cross-file goal sharing ramps the session
//!   hit rate up as the batch proceeds.
//! * `cold_jobs_auto` — fresh session, same corpus fanned across one
//!   worker thread per core via `dml::check_batch`.
//! * `warm_shared` — a second `check_batch` on the same (warm) handle,
//!   in the same round as `cold_jobs_auto`: the goal cache is hot, so
//!   every cacheable goal is served from it, but generation is redone for
//!   every file.
//!
//! Every wall time is a spread over the measured rounds; counters come
//! from the last round. Peak RSS is the `/proc/self/status` VmHWM
//! high-water mark, reset before every measured run where the kernel
//! allows (`rss_reset_supported` in the report; without the reset the
//! readings are monotone across configs and only the largest is
//! meaningful), and a config reports the largest peak of its rounds.

use dml::{check_batch, BatchEntry, BatchSummary, Compiler};
use dml_bench::{hit_rate, rss, sample, write_report, Args, Spread};
use dml_obs::json::{obj, Json};
use dml_oracle::scale::{gen_scale_corpus, verify_scale_case, ScaleConfig};
use std::time::{Duration, Instant};

const SEED: u64 = 20260808;

/// Goals/sec at the median wall time (0 when the clock read as zero).
fn rate(goals: usize, wall: &Spread) -> f64 {
    if wall.median <= 0.0 {
        0.0
    } else {
        goals as f64 / (wall.median / 1e3)
    }
}

struct ConfigRow {
    name: &'static str,
    jobs: usize,
    wall: Spread,
    counts: BatchSummary,
    peak_rss: Option<u64>,
}

impl ConfigRow {
    fn hit_rate(&self) -> f64 {
        hit_rate(self.counts.cache_hits, self.counts.cache_misses)
    }

    fn to_json(&self) -> Json {
        obj([
            ("name", Json::Str(self.name.to_string())),
            ("jobs", Json::Str(self.jobs.to_string())),
            ("wall_ms", self.wall.to_json()),
            ("goals", Json::Int(self.counts.goals as i64)),
            ("goals_per_sec", Json::Num(rate(self.counts.goals, &self.wall))),
            ("cache_hits", Json::Int(self.counts.cache_hits as i64)),
            ("cache_misses", Json::Int(self.counts.cache_misses as i64)),
            ("cache_hit_rate", Json::Num(self.hit_rate())),
            (
                // Non-finite Num renders as JSON null (no /proc platform).
                "peak_rss_bytes",
                self.peak_rss.map_or(Json::Num(f64::NAN), |b| Json::Int(b as i64)),
            ),
        ])
    }
}

fn main() {
    let args = Args::from_env();
    // Corpus sizes in total obligations. The full sweep tops out past
    // 10k obligations (the acceptance bar for the committed report);
    // smoke keeps CI wall time in seconds.
    let sizes: &[usize] = if args.smoke { &[150, 400, 800] } else { &[1_000, 3_000, 10_000] };
    let rounds = args.rounds(1, 7);
    let auto_jobs = dml_solver::available_parallelism();

    let rss_reset = rss::reset_peak();
    println!(
        "scale_suite: sizes {sizes:?}, jobs auto={auto_jobs}, rss reset {}",
        if rss_reset { "supported" } else { "UNSUPPORTED (peaks are monotone)" }
    );

    let mut size_rows = Vec::new();
    let mut top = None;
    for &target in sizes {
        let row = run_size(target, rounds, auto_jobs, rss_reset);
        top = Some((target, row.cold_rate, row.warm_rate));
        size_rows.push(row.json);
    }

    let (top_obligations, cold_rate, warm_rate) = top.expect("at least one size");
    let warm_speedup = if cold_rate > 0.0 { warm_rate / cold_rate } else { 0.0 };
    println!(
        "scale_suite/totals: top size {top_obligations} obligations, \
         cold {cold_rate:.0} goals/s, warm {warm_rate:.0} goals/s ({warm_speedup:.1}x)"
    );

    write_report(
        &args,
        "scale",
        "scale_suite",
        Some(SEED),
        [
            ("rss_reset_supported", Json::Bool(rss_reset)),
            ("sizes", Json::Array(size_rows)),
            (
                "totals",
                obj([
                    ("top_obligations", Json::Int(top_obligations as i64)),
                    ("goals_per_sec_cold", Json::Num(cold_rate)),
                    ("goals_per_sec_warm", Json::Num(warm_rate)),
                    ("warm_speedup", Json::Num(warm_speedup)),
                ]),
            ),
        ],
    );
}

struct SizeResult {
    json: Json,
    cold_rate: f64,
    warm_rate: f64,
}

/// One measured run: resets the peak-RSS mark (where supported), times
/// `f`, and folds the new peak into `peak`.
fn measured<T>(rss_reset: bool, peak: &mut Option<u64>, f: impl FnOnce() -> T) -> (Duration, T) {
    if rss_reset {
        rss::reset_peak();
    }
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    *peak = (*peak).max(rss::peak_bytes());
    (wall, out)
}

fn run_size(
    target: usize,
    (warmup, n): (usize, usize),
    auto_jobs: usize,
    rss_reset: bool,
) -> SizeResult {
    // Spread the corpus over files, as a build tree would be, so the
    // jobs axis has files to fan out; a floor of 2 files keeps it
    // meaningful even in smoke mode.
    let files = (target / 600).clamp(2, 32);
    let cfg = ScaleConfig::new(SEED, target).files(files);
    let corpus = gen_scale_corpus(&cfg);
    let entries: Vec<BatchEntry> = corpus
        .cases
        .iter()
        .map(|c| BatchEntry { name: format!("{}.dml", c.name), source: c.source.clone() })
        .collect();
    println!(
        "scale_suite/{target}: {} file(s), {} obligations, expected {}",
        entries.len(),
        corpus.obligations,
        corpus.expected
    );
    let row = |name, jobs, wall, counts, peak_rss| ConfigRow { name, jobs, wall, counts, peak_rss };

    // cold_jobs1, measured file-by-file for the hit-rate trajectory.
    // The stamped verdict counts are asserted on the first round: the
    // corpus doubles as a correctness oracle.
    let (mut counts, mut peak, mut trajectory, mut verified) =
        (BatchSummary::default(), None, Vec::new(), false);
    let wall = sample(warmup, n, || {
        let compiler = Compiler::new();
        let cache = compiler.solver().cache();
        trajectory.clear();
        let (wall, goals) = measured(rss_reset, &mut peak, || {
            let mut goals = 0usize;
            for case in &corpus.cases {
                let compiled = compiler.compile(&case.source).expect("scale case compiles");
                goals += compiled.stats().goals;
                trajectory.push(hit_rate(cache.hits(), cache.misses()));
                if !verified {
                    verify_scale_case(&compiled, &case.expected)
                        .unwrap_or_else(|e| panic!("{}: {e}", case.name));
                }
            }
            goals
        });
        verified = true;
        counts = BatchSummary {
            goals,
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            ..BatchSummary::default()
        };
        [wall]
    })[0];
    let cold = row("cold_jobs1", 1, wall, counts, peak);

    // cold_jobs_auto + warm_shared share one session: the second batch
    // over the same handle finds every goal in the cache it warmed.
    let (mut auto_counts, mut auto_peak, mut warm_counts, mut warm_peak) =
        (BatchSummary::default(), None, BatchSummary::default(), None);
    let walls = sample(warmup, n, || {
        let compiler = Compiler::new();
        let batch = || check_batch(&compiler, &entries, auto_jobs);
        let (cold_wall, out) = measured(rss_reset, &mut auto_peak, batch);
        assert!(out.ok(), "parallel batch failed");
        auto_counts = out.summary;
        let (warm_wall, out) = measured(rss_reset, &mut warm_peak, batch);
        assert!(out.ok(), "warm batch failed");
        warm_counts = out.summary;
        [cold_wall, warm_wall]
    });
    let cold_auto = row("cold_jobs_auto", auto_jobs, walls[0], auto_counts, auto_peak);
    let warm = row("warm_shared", auto_jobs, walls[1], warm_counts, warm_peak);

    for row in [&cold, &cold_auto, &warm] {
        println!(
            "scale_suite/{target}/{}: {}, {:.0} goals/s, hit rate {:.2}, peak RSS {}",
            row.name,
            row.wall,
            rate(row.counts.goals, &row.wall),
            row.hit_rate(),
            row.peak_rss.map_or("n/a".to_string(), |b| format!("{:.1} MiB", b as f64 / 1048576.0))
        );
    }

    let cold_rate = rate(cold.counts.goals, &cold.wall);
    let warm_rate = rate(warm.counts.goals, &warm.wall);
    let json = obj([
        ("target_obligations", Json::Int(target as i64)),
        ("obligations", Json::Int(corpus.obligations as i64)),
        ("files", Json::Int(entries.len() as i64)),
        (
            "expected",
            obj([
                ("check_sites", Json::Int(corpus.expected.check_sites as i64)),
                ("proven_sites", Json::Int(corpus.expected.proven_sites as i64)),
                ("residual_sites", Json::Int(corpus.expected.residual_sites as i64)),
                ("nonlinear_sites", Json::Int(corpus.expected.nonlinear_sites as i64)),
            ]),
        ),
        ("hit_rate_trajectory", Json::Array(trajectory.into_iter().map(Json::Num).collect())),
        ("configs", Json::Array(vec![cold.to_json(), cold_auto.to_json(), warm.to_json()])),
    ]);
    SizeResult { json, cold_rate, warm_rate }
}
