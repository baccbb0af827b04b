//! Cold- vs warm-cache solve times over the paper benchmarks, a
//! {workers} × {cache} ablation, and a machine-readable `BENCH_solver.json`
//! report.
//!
//! Flags (after `--`):
//! * `--smoke` — one iteration per measurement (CI smoke mode);
//! * `--json`  — additionally write `BENCH_solver.json` at the repo root;
//! * `--assert-ablation` — exit nonzero if the `workers=auto, cache=true`
//!   ablation row regresses against `workers=1, cache=true` (the CI guard
//!   that keeps the parallel solver a net win). "Regresses" means *not
//!   strictly faster* where the machine has parallelism to exploit; on a
//!   single-core runner — where `workers=auto` resolves to the sequential
//!   path and a strict win is physically meaningless — it means more than
//!   5% slower (the parallel plumbing must cost nothing).
//!
//! "Cold" compiles each benchmark with a fresh solver (empty verdict
//! cache), so it measures a genuinely cold compile; "warm" compiles
//! against a solver that already solved the same program, so every
//! cacheable goal is answered from the verdict cache (generation runs in
//! full either way, so only the cold generation time is reported). The solver's
//! persistent worker pool is prewarmed up front — its one-time thread
//! spawn is process state, not per-compile cost (`pool_helpers` in the
//! report records the helper count). The lint section runs the lint pass
//! twice on the compile's own solver and reports the second pass's hit
//! rate (its entailment queries repeat exactly).
//!
//! The daemon section compares a fresh `dmlc check` process per compile
//! against one warm `dmlc serve` daemon answering the same checks over
//! its stdio protocol (`daemon_speedup` in the report; target ≥5x). It
//! needs the release `dmlc` binary and is skipped with a log line when
//! the binary isn't built.

use dml::experiments::{bench_source, benchmarks};
use dml::Compiler;
use dml_bench::bench_timed;
use dml_obs::json::{obj, Json};
use dml_solver::{Solver, SolverOptions};
use std::time::Duration;

const REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let write_json = args.iter().any(|a| a == "--json");
    let assert_ablation = args.iter().any(|a| a == "--assert-ablation");
    let (warmup, iters) = if smoke { (0, 1) } else { (1, 5) };

    // The worker pool is process state: spawn it once up front so no
    // single measurement eats the one-time thread-spawn cost.
    let pool_helpers = dml_solver::pool::prewarm();

    let mut rows = Vec::new();
    let mut total_gen_cold = Duration::ZERO;
    let mut total_cold = Duration::ZERO;
    let mut total_warm = Duration::ZERO;

    for b in benchmarks() {
        let name = b.program.name;
        let src = bench_source(&b.program);

        // Cold: fresh solver (empty verdict cache) every compile.
        let mut cold = None::<dml::CompileStats>;
        bench_timed("solver_cache", &format!("{name}/cold"), warmup, iters, || {
            let c = Compiler::new().compile(&src).expect("compiles");
            let s = c.stats().clone();
            if cold.as_ref().is_none_or(|best| s.solve_time < best.solve_time) {
                cold = Some(s);
            }
        });
        let cold = cold.expect("at least one cold run");

        // Warm: a shared solver primed by one untimed compile.
        let shared = Solver::new(SolverOptions::default());
        Compiler::new().with_solver(&shared).compile(&src).expect("compiles");
        let mut warm = None::<dml::CompileStats>;
        bench_timed("solver_cache", &format!("{name}/warm"), warmup, iters, || {
            let c = Compiler::new().with_solver(&shared).compile(&src).expect("compiles");
            let s = c.stats().clone();
            if warm.as_ref().is_none_or(|best| s.solve_time < best.solve_time) {
                warm = Some(s);
            }
        });
        let warm = warm.expect("at least one warm run");

        total_gen_cold += cold.generation_time;
        total_cold += cold.solve_time;
        total_warm += warm.solve_time;
        let looked_up = warm.solver.cache_hits + warm.solver.cache_misses;
        let warm_rate =
            if looked_up == 0 { 0.0 } else { warm.solver.cache_hits as f64 / looked_up as f64 };
        rows.push(obj([
            ("name", Json::Str(name.to_string())),
            ("constraints", Json::Int(cold.constraints as i64)),
            ("goals", Json::Int(cold.goals as i64)),
            ("gen_ms", Json::Num(ms(cold.generation_time))),
            ("solve_cold_ms", Json::Num(ms(cold.solve_time))),
            ("solve_warm_ms", Json::Num(ms(warm.solve_time))),
            ("fm_combinations", Json::Int(cold.solver.fm_combinations as i64)),
            ("warm_cache_hit_rate", Json::Num(warm_rate)),
        ]));
    }

    // Ablation: {workers 1 / auto} × {cache on / off}, total solve time
    // across the whole suite with one fresh solver per config+benchmark.
    // Configs are measured *interleaved* (every round times all four
    // back-to-back) so slow drift — thermal throttling, noisy container
    // neighbours — hits each config equally instead of biasing whichever
    // ran last; each config reports its best (minimum) round.
    let configs: [(Option<usize>, &str, bool); 4] =
        [(Some(1), "1", true), (Some(1), "1", false), (None, "auto", true), (None, "auto", false)];
    let run_config = |workers: Option<usize>, cache: bool| {
        let opts = SolverOptions::default().with_workers(workers).with_cache(cache);
        let mut total = Duration::ZERO;
        for b in benchmarks() {
            let src = bench_source(&b.program);
            let c = Compiler::new().solver_options(opts).compile(&src).expect("compiles");
            total += c.stats().solve_time;
        }
        total
    };
    let mut best = [Duration::MAX; 4];
    for round in 0..(warmup + iters) {
        for (i, &(workers, _, cache)) in configs.iter().enumerate() {
            let total = run_config(workers, cache);
            if round >= warmup && total < best[i] {
                best[i] = total;
            }
        }
    }
    let mut ablation = Vec::new();
    let mut ablation_solve = std::collections::HashMap::new();
    for (i, &(_, label, cache)) in configs.iter().enumerate() {
        println!(
            "solver_cache/ablation/workers={label},cache={cache}: min {:.3} ms ({iters} iters, interleaved)",
            ms(best[i])
        );
        ablation_solve.insert((label, cache), best[i]);
        ablation.push(obj([
            ("workers", Json::Str(label.to_string())),
            ("cache", Json::Bool(cache)),
            ("solve_ms", Json::Num(ms(best[i]))),
        ]));
    }
    // The flip this PR exists for: parallel solving must be a net win over
    // sequential on the very suite the paper reports. On a machine with no
    // parallelism to exploit (`pool_helpers == 0`, i.e. one core),
    // `workers=auto` resolves to the sequential path, so a *strict* win is
    // physically meaningless there; the row instead asserts the parallel
    // plumbing costs nothing (within a 5% noise allowance of sequential).
    let parallelism_available = pool_helpers > 0;
    let parallel_solve = ablation_solve[&("auto", true)];
    let sequential_solve = ablation_solve[&("1", true)];
    let parallel_strictly_faster = if parallelism_available {
        parallel_solve < sequential_solve
    } else {
        parallel_solve <= sequential_solve.mul_f64(1.05)
    };
    println!(
        "solver_cache/ablation: workers=auto {:.3} ms vs workers=1 {:.3} ms ({})",
        ms(parallel_solve),
        ms(sequential_solve),
        match (parallelism_available, parallel_strictly_faster) {
            (true, true) => "parallel < sequential",
            (false, true) => "single core: parallel plumbing within noise of sequential",
            (_, false) => "PARALLEL REGRESSION",
        }
    );

    // Lint pass: the second run's entailment queries repeat the first's,
    // so with the compile's own solver they hit the shared cache.
    let (mut lint_hits, mut lint_misses) = (0u64, 0u64);
    for b in benchmarks() {
        let src = bench_source(&b.program);
        let c = Compiler::new().compile(&src).expect("compiles");
        let _ = c.lints(); // first pass warms lint-only entries
        let (h0, m0) = (c.solver().cache().hits(), c.solver().cache().misses());
        let _ = c.lints();
        lint_hits += c.solver().cache().hits() - h0;
        lint_misses += c.solver().cache().misses() - m0;
    }
    let lint_rate = if lint_hits + lint_misses == 0 {
        0.0
    } else {
        lint_hits as f64 / (lint_hits + lint_misses) as f64
    };
    println!(
        "solver_cache/lint: {} hits, {} misses ({:.0}% hit rate) on the repeated lint pass",
        lint_hits,
        lint_misses,
        lint_rate * 100.0
    );

    // Daemon: a fresh `dmlc check` process per compile (cold) vs one warm
    // `dmlc serve` answering the same checks over its wire protocol. This
    // is the number `dmlc serve` exists for: the daemon amortises process
    // startup, the goal cache, and per-file state across requests.
    let daemon = match find_dmlc() {
        Some(dmlc) => bench_daemon(&dmlc, warmup, iters),
        None => {
            println!(
                "solver_cache/daemon: skipped (dmlc binary not found near the bench \
                 executable; run `cargo build --release -p dml-cli` first)"
            );
            obj([("available", Json::Bool(false))])
        }
    };

    let warm_strictly_faster = total_warm < total_cold;
    println!(
        "solver_cache/totals: gen {:.3} ms, solve cold {:.3} ms, solve warm {:.3} ms ({})",
        ms(total_gen_cold),
        ms(total_cold),
        ms(total_warm),
        if warm_strictly_faster { "warm < cold" } else { "WARM NOT FASTER" }
    );

    if write_json {
        let report = obj([
            ("suite", Json::Str("solver_cache".to_string())),
            ("smoke", Json::Bool(smoke)),
            ("pool_helpers", Json::Int(pool_helpers as i64)),
            ("parallelism_available", Json::Bool(parallelism_available)),
            ("benchmarks", Json::Array(rows)),
            (
                "totals",
                obj([
                    ("gen_ms", Json::Num(ms(total_gen_cold))),
                    ("solve_cold_ms", Json::Num(ms(total_cold))),
                    ("solve_warm_ms", Json::Num(ms(total_warm))),
                    ("warm_strictly_faster", Json::Bool(warm_strictly_faster)),
                    ("parallel_strictly_faster", Json::Bool(parallel_strictly_faster)),
                ]),
            ),
            ("ablation", Json::Array(ablation)),
            ("daemon", daemon),
            (
                "lint",
                obj([
                    ("hits", Json::Int(lint_hits as i64)),
                    ("misses", Json::Int(lint_misses as i64)),
                    ("hit_rate", Json::Num(lint_rate)),
                ]),
            ),
        ]);
        std::fs::write(REPORT_PATH, report.render() + "\n").expect("write BENCH_solver.json");
        println!("wrote {REPORT_PATH}");
    }

    if assert_ablation && !parallel_strictly_faster {
        report_ablation_failure(parallel_solve, sequential_solve);
    }
}

fn report_ablation_failure(parallel_solve: Duration, sequential_solve: Duration) {
    eprintln!(
        "solver_cache: ablation regression — workers=auto ({:.3} ms) is not \
         strictly faster than workers=1 ({:.3} ms) with the cache on",
        ms(parallel_solve),
        ms(sequential_solve)
    );
    std::process::exit(1);
}

/// Locates the release `dmlc` binary by walking up from the bench
/// executable (`target/<profile>/deps/solver_cache-*` → `target/<profile>/dmlc`).
fn find_dmlc() -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    exe.ancestors().skip(1).find_map(|dir| {
        let candidate = dir.join("dmlc");
        candidate.is_file().then_some(candidate)
    })
}

/// Cold process-per-check vs warm-daemon wall times over the paper suite.
/// "Cold" spawns a fresh `dmlc check` per compile; "warm" drives one
/// `dmlc serve` daemon over stdio, after a priming round, so requests land
/// on a hot goal cache, worker pool, and per-file state: each re-check of
/// an unchanged file replays its last report. Both sides include full
/// request round-trip time.
fn bench_daemon(dmlc: &std::path::Path, warmup: usize, iters: usize) -> Json {
    use dml::serve::protocol::request_line;
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::process::{Command, Stdio};
    use std::time::Instant;

    let dir = std::env::temp_dir().join(format!("dml-bench-daemon-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let files: Vec<(&str, std::path::PathBuf, String)> = benchmarks()
        .into_iter()
        .map(|b| {
            let src = bench_source(&b.program);
            let path = dir.join(format!("{}.dml", b.program.name));
            std::fs::write(&path, &src).expect("write bench program");
            (b.program.name, path, src)
        })
        .collect();
    let rounds = (warmup + iters).max(1);

    // Cold: every check pays process startup + a from-scratch compile.
    let mut cold_best = vec![Duration::MAX; files.len()];
    let mut cold_total = Duration::MAX;
    for round in 0..rounds {
        let mut total = Duration::ZERO;
        for (i, (name, path, _)) in files.iter().enumerate() {
            let t0 = Instant::now();
            let out = Command::new(dmlc).arg("check").arg(path).output().expect("dmlc runs");
            let took = t0.elapsed();
            assert!(
                out.status.success(),
                "dmlc check {name} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            total += took;
            if round >= warmup.min(rounds - 1) && took < cold_best[i] {
                cold_best[i] = took;
            }
        }
        if round >= warmup.min(rounds - 1) && total < cold_total {
            cold_total = total;
        }
    }

    // Warm: one daemon, all requests over its stdio protocol.
    let mut child = Command::new(dmlc)
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("dmlc serve spawns");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut next_id: i64 = 0;
    let mut ask = |method: &str, params: Vec<(&str, Json)>| -> (Duration, Json) {
        next_id += 1;
        let line = request_line(next_id, method, params);
        let t0 = Instant::now();
        stdin.write_all(line.as_bytes()).expect("write request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        let took = t0.elapsed();
        let parsed = Json::parse(response.trim()).expect("daemon speaks JSON");
        assert!(parsed.get("error").is_none(), "daemon error: {response}");
        (took, parsed)
    };
    let check_params = |name: &str, src: &str| {
        vec![("source", Json::Str(src.to_string())), ("path", Json::Str(name.to_string()))]
    };
    // Priming round: pays the daemon's own cold compiles, untimed — the
    // steady state being measured is "editor re-checks against a warm
    // service", not daemon boot.
    for (name, _, src) in &files {
        let _ = ask("check", check_params(name, src));
    }
    let mut warm_best = vec![Duration::MAX; files.len()];
    let mut warm_total = Duration::MAX;
    for _ in 0..rounds {
        let mut total = Duration::ZERO;
        for (i, (name, _, src)) in files.iter().enumerate() {
            let (took, response) = ask("check", check_params(name, src));
            let incremental =
                response.get("result").and_then(|r| r.get("incremental")).and_then(Json::as_bool);
            assert_eq!(incremental, Some(true), "warm {name} re-check reuses verdicts");
            total += took;
            if took < warm_best[i] {
                warm_best[i] = took;
            }
        }
        if total < warm_total {
            warm_total = total;
        }
    }
    let (_, _) = ask("shutdown", Vec::new());
    drop(stdin);
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);

    let mut rows = Vec::new();
    for (i, (name, _, _)) in files.iter().enumerate() {
        println!(
            "solver_cache/daemon/{name}: cold process {:.3} ms, warm daemon {:.3} ms",
            ms(cold_best[i]),
            ms(warm_best[i])
        );
        rows.push(obj([
            ("name", Json::Str(name.to_string())),
            ("cold_process_ms", Json::Num(ms(cold_best[i]))),
            ("warm_daemon_ms", Json::Num(ms(warm_best[i]))),
        ]));
    }
    let speedup =
        if warm_total.is_zero() { f64::INFINITY } else { ms(cold_total) / ms(warm_total) };
    println!(
        "solver_cache/daemon totals: cold process {:.3} ms, warm daemon {:.3} ms \
         ({speedup:.1}x speedup; target >= 5x)",
        ms(cold_total),
        ms(warm_total)
    );
    obj([
        ("available", Json::Bool(true)),
        ("benchmarks", Json::Array(rows)),
        ("cold_process_ms", Json::Num(ms(cold_total))),
        ("warm_daemon_ms", Json::Num(ms(warm_total))),
        ("daemon_speedup", Json::Num(speedup)),
    ])
}
