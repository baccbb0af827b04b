//! Throughput suite over the generated scale corpus: program size ×
//! jobs × {session cache, disk cache}, reporting goals/sec, wall time,
//! peak RSS, and cache hit-rate trajectories to `BENCH_scale.json`.
//!
//! Flags (after `--`):
//! * `--smoke` — small corpus sizes and one iteration (CI smoke mode);
//! * `--json`  — additionally write `BENCH_scale.json` at the repo root.
//!
//! Per corpus size (total obligations across a multi-file corpus; the
//! corpus generator is `dml_oracle::scale`, seeded and stamped with
//! expected verdict counts that are asserted here — a throughput number
//! from a miscompiled corpus would be worthless):
//!
//! * `cold_jobs1` — fresh session solver, cleared gen memo, sequential.
//!   Measured file-by-file, which also yields the cumulative cache
//!   hit-rate *trajectory*: cross-file goal sharing ramps the session
//!   hit rate up as the batch proceeds.
//! * `cold_jobs_auto` — fresh session, same corpus fanned across one
//!   worker thread per core via `dml::check_batch`.
//! * `warm_shared` — the same session re-checks the whole corpus: gen
//!   memo hot, every cacheable goal served from the session cache. The
//!   steady state of a `dmlc serve` check farm.
//! * `disk_cold_session` — a *fresh* session whose goal cache starts
//!   empty but has the persistent disk store attached (pre-populated by
//!   a flushed priming session): every canonical goal is served from
//!   the disk tier, the cross-process warm-start story.
//!
//! Peak RSS is the `/proc/self/status` VmHWM high-water mark, reset
//! between configs where the kernel allows (`rss_reset_supported` in
//! the report; without the reset the readings are monotone across
//! configs and only the largest is meaningful).

use dml::{check_batch, BatchEntry, Compiler};
use dml_bench::rss;
use dml_obs::json::{obj, Json};
use dml_oracle::scale::{gen_scale_corpus, verify_scale_case, ScaleConfig};
use std::time::{Duration, Instant};

const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
const SEED: u64 = 20260808;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Goals/sec over a wall time (0 when the clock read as zero).
fn rate(goals: usize, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        goals as f64 / secs
    }
}

struct ConfigRow {
    name: &'static str,
    jobs: String,
    wall: Duration,
    goals: usize,
    cache_hits: u64,
    cache_misses: u64,
    cache_disk_hits: u64,
    peak_rss: Option<u64>,
}

impl ConfigRow {
    fn hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }

    fn to_json(&self) -> Json {
        obj([
            ("name", Json::Str(self.name.to_string())),
            ("jobs", Json::Str(self.jobs.clone())),
            ("wall_ms", Json::Num(ms(self.wall))),
            ("goals", Json::Int(self.goals as i64)),
            ("goals_per_sec", Json::Num(rate(self.goals, self.wall))),
            ("cache_hits", Json::Int(self.cache_hits as i64)),
            ("cache_misses", Json::Int(self.cache_misses as i64)),
            ("cache_disk_hits", Json::Int(self.cache_disk_hits as i64)),
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let write_json = args.iter().any(|a| a == "--json");
    // Corpus sizes in total obligations. The full sweep tops out past
    // 10k obligations (the acceptance bar for the committed report);
    // smoke keeps CI wall time in seconds.
    let sizes: &[usize] = if smoke { &[150, 400, 800] } else { &[1_000, 3_000, 10_000] };
    let iters = if smoke { 1 } else { 2 };
    let auto_jobs = std::thread::available_parallelism().map_or(1, |n| n.get());

    let pool_helpers = dml_solver::pool::prewarm();
    let rss_reset = rss::reset_peak();
    println!(
        "scale_suite: sizes {sizes:?}, jobs auto={auto_jobs}, pool helpers {pool_helpers}, \
         rss reset {}",
        if rss_reset { "supported" } else { "UNSUPPORTED (peaks are monotone)" }
    );

    let mut size_rows = Vec::new();
    let mut top = None;
    for &target in sizes {
        let row = run_size(target, iters, auto_jobs, rss_reset);
        top = Some((target, row.cold_rate, row.warm_rate));
        size_rows.push(row.json);
    }

    let (top_obligations, cold_rate, warm_rate) = top.expect("at least one size");
    let warm_speedup = if cold_rate > 0.0 { warm_rate / cold_rate } else { 0.0 };
    println!(
        "scale_suite/totals: top size {top_obligations} obligations, \
         cold {cold_rate:.0} goals/s, warm {warm_rate:.0} goals/s ({warm_speedup:.1}x)"
    );

    if write_json {
        let report = obj([
            ("suite", Json::Str("scale_suite".to_string())),
            ("smoke", Json::Bool(smoke)),
            ("seed", Json::Int(SEED as i64)),
            ("pool_helpers", Json::Int(pool_helpers as i64)),
            ("jobs_auto", Json::Int(auto_jobs as i64)),
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
        ]);
        std::fs::write(REPORT_PATH, report.render() + "\n").expect("write BENCH_scale.json");
        println!("wrote {REPORT_PATH}");
    }
}

struct SizeResult {
    json: Json,
    cold_rate: f64,
    warm_rate: f64,
}

fn run_size(target: usize, iters: usize, auto_jobs: usize, rss_reset: bool) -> SizeResult {
    // Spread the corpus so no single file crosses into the superlinear
    // generation regime (see EXPERIMENTS.md); floor of 2 files keeps the
    // jobs axis meaningful even in smoke mode.
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

    // cold_jobs1, measured file-by-file for the hit-rate trajectory.
    // The stamped verdict counts are asserted on the first iteration:
    // the corpus doubles as a correctness oracle.
    let mut best_cold = None::<(Duration, usize, u64, u64, Vec<f64>)>;
    for iter in 0..iters {
        dml::clear_gen_memo();
        let compiler = Compiler::new();
        let cache = compiler.solver().cache();
        let mut trajectory = Vec::with_capacity(corpus.cases.len());
        let mut goals = 0usize;
        if rss_reset {
            rss::reset_peak();
        }
        let t0 = Instant::now();
        for case in &corpus.cases {
            let compiled = compiler.compile(&case.source).expect("scale case compiles");
            goals += compiled.stats().goals;
            let probes = cache.hits() + cache.misses();
            trajectory.push(if probes == 0 { 0.0 } else { cache.hits() as f64 / probes as f64 });
            if iter == 0 {
                verify_scale_case(&compiled, &case.expected)
                    .unwrap_or_else(|e| panic!("{}: {e}", case.name));
            }
        }
        let wall = t0.elapsed();
        if best_cold.as_ref().is_none_or(|(w, ..)| wall < *w) {
            best_cold = Some((wall, goals, cache.hits(), cache.misses(), trajectory));
        }
    }
    let (cold_wall, cold_goals, cold_hits, cold_misses, trajectory) = best_cold.expect("cold run");
    let cold_rss = rss::peak_bytes();
    let cold = ConfigRow {
        name: "cold_jobs1",
        jobs: "1".into(),
        wall: cold_wall,
        goals: cold_goals,
        cache_hits: cold_hits,
        cache_misses: cold_misses,
        cache_disk_hits: 0,
        peak_rss: cold_rss,
    };

    // cold_jobs_auto + warm_shared share one session: the second batch
    // over the same handle is the warm steady state.
    let mut cold_auto = None::<ConfigRow>;
    let mut warm = None::<ConfigRow>;
    for _ in 0..iters {
        dml::clear_gen_memo();
        let compiler = Compiler::new();
        if rss_reset {
            rss::reset_peak();
        }
        let t0 = Instant::now();
        let out = check_batch(&compiler, &entries, auto_jobs);
        let wall = t0.elapsed();
        assert!(out.ok(), "parallel batch failed");
        let row = ConfigRow {
            name: "cold_jobs_auto",
            jobs: auto_jobs.to_string(),
            wall,
            goals: out.summary.goals,
            cache_hits: out.summary.cache_hits,
            cache_misses: out.summary.cache_misses,
            cache_disk_hits: out.summary.cache_disk_hits,
            peak_rss: rss::peak_bytes(),
        };
        if cold_auto.as_ref().is_none_or(|b| row.wall < b.wall) {
            cold_auto = Some(row);
        }

        if rss_reset {
            rss::reset_peak();
        }
        let t0 = Instant::now();
        let out = check_batch(&compiler, &entries, auto_jobs);
        let wall = t0.elapsed();
        assert!(out.ok(), "warm batch failed");
        let row = ConfigRow {
            name: "warm_shared",
            jobs: auto_jobs.to_string(),
            wall,
            goals: out.summary.goals,
            cache_hits: out.summary.cache_hits,
            cache_misses: out.summary.cache_misses,
            cache_disk_hits: out.summary.cache_disk_hits,
            peak_rss: rss::peak_bytes(),
        };
        if warm.as_ref().is_none_or(|b| row.wall < b.wall) {
            warm = Some(row);
        }
    }
    let cold_auto = cold_auto.expect("cold auto run");
    let warm = warm.expect("warm run");

    // disk_cold_session: prime a throwaway session with the disk store
    // attached, flush it, then measure a fresh session that can only be
    // warm through the disk tier.
    let dir = std::env::temp_dir().join(format!("dml-scale-suite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let store = dir.join(format!("verdicts-{target}.store"));
    {
        let primer = Compiler::new().disk_cache(&store);
        let out = check_batch(&primer, &entries, auto_jobs);
        assert!(out.ok(), "disk priming batch failed");
        primer.flush_disk().expect("flush disk store").expect("store attached");
    }
    let mut disk = None::<ConfigRow>;
    for _ in 0..iters {
        dml::clear_gen_memo();
        let compiler = Compiler::new().disk_cache(&store);
        if rss_reset {
            rss::reset_peak();
        }
        let t0 = Instant::now();
        let out = check_batch(&compiler, &entries, auto_jobs);
        let wall = t0.elapsed();
        assert!(out.ok(), "disk-backed batch failed");
        let row = ConfigRow {
            name: "disk_cold_session",
            jobs: auto_jobs.to_string(),
            wall,
            goals: out.summary.goals,
            cache_hits: out.summary.cache_hits,
            cache_misses: out.summary.cache_misses,
            cache_disk_hits: out.summary.cache_disk_hits,
            peak_rss: rss::peak_bytes(),
        };
        if disk.as_ref().is_none_or(|b| row.wall < b.wall) {
            disk = Some(row);
        }
    }
    let disk = disk.expect("disk run");
    assert!(disk.cache_disk_hits > 0, "disk-backed session served no verdicts from the disk tier");
    let _ = std::fs::remove_dir_all(&dir);

    for row in [&cold, &cold_auto, &warm, &disk] {
        println!(
            "scale_suite/{target}/{}: {:.1} ms, {:.0} goals/s, hit rate {:.2}, \
             {} disk hit(s), peak RSS {}",
            row.name,
            ms(row.wall),
            rate(row.goals, row.wall),
            row.hit_rate(),
            row.cache_disk_hits,
            row.peak_rss.map_or("n/a".to_string(), |b| format!("{:.1} MiB", b as f64 / 1048576.0))
        );
    }

    let cold_rate = rate(cold.goals, cold.wall);
    let warm_rate = rate(warm.goals, warm.wall);
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
        (
            "configs",
            Json::Array(vec![cold.to_json(), cold_auto.to_json(), warm.to_json(), disk.to_json()]),
        ),
    ]);
    SizeResult { json, cold_rate, warm_rate }
}
