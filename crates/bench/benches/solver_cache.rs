//! Cold- vs warm-cache solve times over the paper benchmarks, a
//! {workers} × {cache} ablation, and a machine-readable `BENCH_solver.json`
//! report.
//!
//! Flags (after `--`):
//! * `--smoke` — one round per measurement (CI smoke mode);
//! * `--json`  — additionally write `BENCH_solver.json` at the repo root;
//! * `--assert-ablation` — exit nonzero if the `workers=auto, cache=true`
//!   ablation row regresses against `workers=1, cache=true` (the CI guard
//!   that keeps the parallel solver a net win). Each round times the two
//!   back to back, and `workers=auto` wins a round when it is *strictly
//!   faster* where the machine has parallelism to exploit, or at most 5%
//!   slower on a single-core runner — where `workers=auto` resolves to the
//!   sequential path, a strict win is physically meaningless and the
//!   parallel plumbing must cost nothing. "Regresses" means it wins no
//!   more than half of the rounds.
//!
//! "Cold" compiles each benchmark with a fresh solver (empty verdict
//! cache), so it measures a genuinely cold compile; "warm" compiles
//! against a solver that already solved the same program, so every
//! cacheable goal is answered from the verdict cache (generation runs in
//! full either way, so only the cold generation time is reported). Every
//! round compiles the whole suite, so each program's times and the suite
//! totals come from the same rounds. The lint section runs the lint pass
//! twice on the compile's own solver and reports the second pass's hit
//! rate (its entailment queries repeat exactly).
//!
//! The daemon section compares a fresh `dmlc check` process per compile
//! against one warm `dmlc serve` daemon answering the same checks over
//! its stdio protocol (`daemon_speedup` in the report; target ≥5x). It
//! needs the release `dmlc` binary and is skipped with a log line when
//! the binary isn't built.

use dml::experiments::{bench_source, benchmarks};
use dml::{CompileStats, Compiler};
use dml_bench::{hit_rate, sample, timed, write_report, Args, Spread};
use dml_obs::json::{obj, Json};
use dml_solver::{Solver, SolverOptions};
use std::time::Duration;

fn main() {
    let args = Args::from_env();
    let (warmup, n) = args.rounds(1, 5);

    let sources: Vec<(&str, String)> =
        benchmarks().iter().map(|b| (b.program.name, bench_source(&b.program))).collect();
    let k = sources.len();
    let compile_all = |compiler: &dyn Fn(usize) -> Compiler| -> Vec<CompileStats> {
        let stats = |(i, (_, src)): (usize, &(&str, String))| {
            compiler(i).compile(src).expect("compiles").stats().clone()
        };
        sources.iter().enumerate().map(stats).collect()
    };

    // Cold: a fresh solver (empty verdict cache) for every compile. A
    // round reports each program's generation and solve time, then the
    // two suite totals.
    let mut cold_stats = Vec::new();
    let cold = sample(warmup, n, || {
        cold_stats = compile_all(&|_| Compiler::new());
        let gen: Vec<Duration> = cold_stats.iter().map(|s| s.generation_time).collect();
        let solve: Vec<Duration> = cold_stats.iter().map(|s| s.solve_time).collect();
        let totals = vec![gen.iter().sum(), solve.iter().sum()];
        [gen, solve, totals].concat()
    });
    let (cold_gen, rest) = cold.split_at(k);
    let (cold_solve, cold_totals) = rest.split_at(k);

    // Warm: per program, a shared solver primed by one untimed compile.
    let shared: Vec<Solver> = sources
        .iter()
        .map(|(_, src)| {
            let solver = Solver::new(SolverOptions::default());
            Compiler::new().with_solver(&solver).compile(src).expect("compiles");
            solver
        })
        .collect();
    let mut warm_stats = Vec::new();
    let warm = sample(warmup, n, || {
        warm_stats = compile_all(&|i| Compiler::new().with_solver(&shared[i]));
        let mut solve: Vec<Duration> = warm_stats.iter().map(|s| s.solve_time).collect();
        solve.push(solve.iter().sum());
        solve
    });
    let (warm_solve, warm_total) = warm.split_at(k);

    let mut rows = Vec::new();
    for (i, (name, _)) in sources.iter().enumerate() {
        let (cold, warm) = (&cold_stats[i], &warm_stats[i]);
        println!("solver_cache/{name}/cold: solve {}", cold_solve[i]);
        println!("solver_cache/{name}/warm: solve {}", warm_solve[i]);
        let warm_rate = hit_rate(warm.solver.cache_hits as u64, warm.solver.cache_misses as u64);
        rows.push(obj([
            ("name", Json::Str(name.to_string())),
            ("constraints", Json::Int(cold.constraints as i64)),
            ("goals", Json::Int(cold.goals as i64)),
            ("gen_ms", cold_gen[i].to_json()),
            ("solve_cold_ms", cold_solve[i].to_json()),
            ("solve_warm_ms", warm_solve[i].to_json()),
            ("fm_combinations", Json::Int(cold.solver.fm_combinations as i64)),
            ("warm_cache_hit_rate", Json::Num(warm_rate)),
        ]));
    }

    // Ablation: {workers 1 / auto} × {cache on / off}, total solve time
    // across the whole suite with one fresh solver per config+benchmark.
    // Every round times all four configs back to back.
    let configs: [(Option<usize>, &str, bool); 4] =
        [(Some(1), "1", true), (Some(1), "1", false), (None, "auto", true), (None, "auto", false)];
    // Each round's (workers=auto, workers=1) pair with the cache on;
    // `sample` runs the warm-up rounds first.
    let mut pairs: Vec<(Duration, Duration)> = Vec::new();
    let ablation = sample(warmup, n, || {
        let round = configs.map(|(workers, _, cache)| {
            let opts = SolverOptions::default().with_workers(workers).with_cache(cache);
            let stats = compile_all(&|_| Compiler::new().solver_options(opts));
            stats.iter().map(|s| s.solve_time).sum::<Duration>()
        });
        pairs.push((round[2], round[0]));
        round
    });
    let pairs = &pairs[warmup..];
    let mut ablation_rows = Vec::new();
    for (&(_, label, cache), spread) in configs.iter().zip(&ablation) {
        println!("solver_cache/ablation/workers={label},cache={cache}: {spread}");
        ablation_rows.push(obj([
            ("workers", Json::Str(label.to_string())),
            ("cache", Json::Bool(cache)),
            ("solve_ms", spread.to_json()),
        ]));
    }
    // Parallel solving must be a net win over sequential on the very suite
    // the paper reports, in more than half of the rounds: one comparison of
    // medians flips under host load. On a machine with no parallelism to
    // exploit (`available_parallelism == 1`), `workers=auto` resolves
    // to the sequential path, so a *strict* win is physically meaningless
    // there; a round instead asserts the parallel plumbing costs nothing
    // (within a 5% noise allowance of sequential).
    let parallelism_available = dml_solver::available_parallelism() > 1;
    let (parallel_solve, sequential_solve) = (ablation[2].median, ablation[0].median);
    let round_wins = pairs
        .iter()
        .filter(|&&(parallel, sequential)| {
            if parallelism_available {
                parallel < sequential
            } else {
                parallel <= sequential.mul_f64(1.05)
            }
        })
        .count();
    let parallel_strictly_faster = 2 * round_wins > pairs.len();
    println!(
        "solver_cache/ablation: workers=auto {parallel_solve:.3} ms vs workers=1 \
         {sequential_solve:.3} ms, medians; auto won {round_wins} of {} rounds ({})",
        pairs.len(),
        match (parallelism_available, parallel_strictly_faster) {
            (true, true) => "parallel < sequential in most rounds",
            (false, true) => "single core: parallel plumbing within noise of sequential",
            (_, false) => "PARALLEL REGRESSION",
        }
    );

    // Lint pass: the second run's entailment queries repeat the first's,
    // so with the compile's own solver they hit the shared cache.
    let (mut lint_hits, mut lint_misses) = (0u64, 0u64);
    for (_, src) in &sources {
        let c = Compiler::new().compile(src).expect("compiles");
        let _ = c.lints(); // first pass warms lint-only entries
        let (h0, m0) = (c.solver().cache().hits(), c.solver().cache().misses());
        let _ = c.lints();
        lint_hits += c.solver().cache().hits() - h0;
        lint_misses += c.solver().cache().misses() - m0;
    }
    let lint_rate = hit_rate(lint_hits, lint_misses);
    println!(
        "solver_cache/lint: {lint_hits} hits, {lint_misses} misses ({:.0}% hit rate) on the \
         repeated lint pass",
        lint_rate * 100.0
    );

    // Daemon: a fresh `dmlc check` process per compile (cold) vs one warm
    // `dmlc serve` answering the same checks over its wire protocol. This
    // is the number `dmlc serve` exists for: the daemon amortises process
    // startup, the goal cache, and per-file state across requests.
    let daemon = match find_dmlc() {
        Some(dmlc) => bench_daemon(&dmlc, &sources, (warmup, n)),
        None => {
            println!(
                "solver_cache/daemon: skipped (dmlc binary not found near the bench \
                 executable; run `cargo build --release -p dml-cli` first)"
            );
            obj([("available", Json::Bool(false))])
        }
    };

    let (gen_total, cold_total, warm_total) = (cold_totals[0], cold_totals[1], warm_total[0]);
    let warm_strictly_faster = warm_total.median < cold_total.median;
    println!(
        "solver_cache/totals: gen {gen_total}; solve cold {cold_total}; solve warm {warm_total} \
         ({})",
        if warm_strictly_faster { "warm < cold" } else { "WARM NOT FASTER" }
    );

    write_report(
        &args,
        "solver",
        "solver_cache",
        None,
        [
            ("benchmarks", Json::Array(rows)),
            (
                "totals",
                obj([
                    ("gen_ms", gen_total.to_json()),
                    ("solve_cold_ms", cold_total.to_json()),
                    ("solve_warm_ms", warm_total.to_json()),
                    ("warm_strictly_faster", Json::Bool(warm_strictly_faster)),
                    ("parallel_strictly_faster", Json::Bool(parallel_strictly_faster)),
                    ("parallel_round_wins", Json::Int(round_wins as i64)),
                ]),
            ),
            ("ablation", Json::Array(ablation_rows)),
            ("daemon", daemon),
            (
                "lint",
                obj([
                    ("hits", Json::Int(lint_hits as i64)),
                    ("misses", Json::Int(lint_misses as i64)),
                    ("hit_rate", Json::Num(lint_rate)),
                ]),
            ),
        ],
    );

    if args.flag("--assert-ablation") && !parallel_strictly_faster {
        eprintln!(
            "solver_cache: ablation regression — workers=auto won {round_wins} of {} rounds \
             against workers=1 with the cache on (medians {parallel_solve:.3} ms vs \
             {sequential_solve:.3} ms)",
            pairs.len()
        );
        std::process::exit(1);
    }
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
/// on a hot goal cache and per-file state: each re-check of
/// an unchanged file replays its last report. Both sides include full
/// request round-trip time. A round reports every file, then the total.
fn bench_daemon(
    dmlc: &std::path::Path,
    sources: &[(&str, String)],
    (warmup, n): (usize, usize),
) -> Json {
    use dml::serve::protocol::request_line;
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("dml-bench-daemon-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let files: Vec<(&str, std::path::PathBuf, &str)> = sources
        .iter()
        .map(|(name, src)| {
            let path = dir.join(format!("{name}.dml"));
            std::fs::write(&path, src).expect("write bench program");
            (*name, path, src.as_str())
        })
        .collect();
    let with_total = |mut times: Vec<Duration>| {
        times.push(times.iter().sum());
        times
    };

    // Cold: every check pays process startup + a from-scratch compile.
    let cold = sample(warmup, n, || {
        with_total(
            files
                .iter()
                .map(|(name, path, _)| {
                    timed(|| {
                        let out = Command::new(dmlc).arg("check").arg(path).output();
                        let out = out.expect("dmlc runs");
                        let stderr = String::from_utf8_lossy(&out.stderr);
                        assert!(out.status.success(), "dmlc check {name} failed: {stderr}");
                    })
                })
                .collect(),
        )
    });

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
        let mut response = String::new();
        let took = timed(|| {
            stdin.write_all(line.as_bytes()).expect("write request");
            reader.read_line(&mut response).expect("read response")
        });
        let parsed = Json::parse(response.trim()).expect("daemon speaks JSON");
        assert!(parsed.get("error").is_none(), "daemon error: {response}");
        (took, parsed)
    };
    let check = |name: &str, src: &str| {
        vec![("source", Json::Str(src.to_string())), ("path", Json::Str(name.to_string()))]
    };
    // Priming round: pays the daemon's own cold compiles, untimed — the
    // steady state being measured is "editor re-checks against a warm
    // service", not daemon boot.
    for (name, _, src) in &files {
        ask("check", check(name, src));
    }
    let warm = sample(warmup, n, || {
        let mut times = Vec::with_capacity(files.len() + 1);
        for (name, _, src) in &files {
            let (took, response) = ask("check", check(name, src));
            times.push(took);
            let incremental =
                response.get("result").and_then(|r| r.get("incremental")).and_then(Json::as_bool);
            assert_eq!(incremental, Some(true), "warm {name} re-check reuses verdicts");
        }
        with_total(times)
    });
    ask("shutdown", Vec::new());
    drop(stdin);
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);

    let mut rows = Vec::new();
    for (i, (name, _, _)) in files.iter().enumerate() {
        println!("solver_cache/daemon/{name}: cold process {}; warm daemon {}", cold[i], warm[i]);
        rows.push(obj([
            ("name", Json::Str(name.to_string())),
            ("cold_process_ms", cold[i].to_json()),
            ("warm_daemon_ms", warm[i].to_json()),
        ]));
    }
    let (cold_total, warm_total): (Spread, Spread) = (cold[files.len()], warm[files.len()]);
    let speedup =
        if warm_total.median > 0.0 { cold_total.median / warm_total.median } else { f64::INFINITY };
    println!(
        "solver_cache/daemon totals: cold process {cold_total}; warm daemon {warm_total} \
         ({speedup:.1}x speedup of the medians; target >= 5x)"
    );
    obj([
        ("available", Json::Bool(true)),
        ("benchmarks", Json::Array(rows)),
        ("cold_process_ms", cold_total.to_json()),
        ("warm_daemon_ms", warm_total.to_json()),
        ("daemon_speedup", Json::Num(speedup)),
    ])
}
