//! `goals`: the solver alone, with no constraint generation.
//!
//! 20 000 seeded goals from `dml_oracle::gen_goal`, decided one at a time
//! by `Solver::decide`. Every pass starts a fresh single-worker solver,
//! and the warm-up decides a different goal stream, so the cache only
//! catches the few goals that repeat within a pass: lowering, DNF,
//! Fourier–Motzkin and witness search do the work. After timing, the
//! independent oracle re-decides every goal; a solver `Proven` the oracle
//! refutes, or a `Refuted` it proves, is a failure.

use super::{
    bench_layer, cache_counters, end_to_end, overhead_pct, peak_rss_mib, repeat_setup,
    solver_counters, time_ms, total_rate, RunConfig, RunOutput,
};
use crate::inputs::{goal_stream, warmup_goals};
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{median, tail};
use dml_index::Verdict;
use dml_oracle::{OracleVerdict, DEFAULT_BOUND};
use dml_solver::{Goal, Solver, SolverOptions, SolverStats};
use std::time::{Duration, Instant};

/// Passes the traced run makes over the goal stream.
const TRACED_PASSES: usize = 3;

fn fresh_solver() -> Solver {
    Solver::new(SolverOptions::default().with_workers(Some(1)))
}

/// The `goals` workload.
pub(super) fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    let n = cfg.sizes.goals_per_pass;
    let mut report = Report::new("goals", cfg.seed, cfg.traced);
    let mut gen_times = Vec::new();
    let ((goals, mut gen), setup_s) = repeat_setup(cfg.sizes.setups, || {
        let (stream, gen_ms) = time_ms(|| goal_stream(cfg.seed, n));
        gen_times.push(gen_ms / 1e3);
        let (warm, mut warm_gen) = warmup_goals(cfg.seed, n);
        let solver = fresh_solver();
        let mut stats = SolverStats::default();
        for g in &warm {
            std::hint::black_box(solver.decide(g, &mut warm_gen, &mut stats));
        }
        Ok(stream)
    })?;

    // Passes over the goal stream until the deadline; a pass cut short by
    // the deadline still counts its decided goals.
    let mut op_ms = Vec::with_capacity(n * 8);
    let mut first: Vec<Option<Verdict>> = vec![None; n];
    let mut decided = vec![0u64; n];
    let mut pass_ms = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    'passes: loop {
        let solver = fresh_solver();
        let mut stats = SolverStats::default();
        let pass_start = Instant::now();
        for (i, goal) in goals.iter().enumerate() {
            let (v, ms) = time_ms(|| solver.decide(goal, &mut gen, &mut stats));
            op_ms.push(ms);
            decided[i] += 1;
            match &first[i] {
                None => first[i] = Some(v),
                Some(f) if *f != v => {
                    report.fail(format!("goal {i}: {f} then {v} on a fresh solver"))
                }
                Some(_) => {}
            }
            if Instant::now() >= deadline {
                break 'passes;
            }
        }
        pass_ms.push(pass_start.elapsed().as_secs_f64() * 1e3);
    }

    let rss_mib = peak_rss_mib()?;

    // The oracle runs after timing, once per distinct goal.
    for (i, goal) in goals.iter().enumerate() {
        let Some(v) = &first[i] else { continue };
        let error = oracle_disagrees(goal, v).map(|e| format!("goal {i}: {e}"));
        for _ in 0..decided[i] {
            report.attempt(error.clone());
        }
    }

    if !cfg.traced {
        let work = op_ms.len() as f64;
        end_to_end(&mut report, &setup_s, total_rate(work, &op_ms), &op_ms, rss_mib)?;
        return Ok(RunOutput { report, spans: None });
    }

    // Every traced pass repeats the first untraced one: a fresh solver
    // over the same goals. The counters are those of one pass.
    let mut rec = Recorder::new();
    let mut traced_ms = Vec::with_capacity(TRACED_PASSES);
    let mut counters = (SolverStats::default(), 0, 0);
    for pass in 0..TRACED_PASSES {
        let solver = fresh_solver();
        let mut stats = SolverStats::default();
        let (mut proven, mut refuted) = (0usize, 0usize);
        let ms = rec.span("solver.pass", pass as u64, |rec| {
            let t0 = Instant::now();
            for (i, goal) in goals.iter().enumerate() {
                let request = (pass * n + i) as u64;
                let v = rec
                    .span("solver.decide", request, |_| solver.decide(goal, &mut gen, &mut stats));
                match v {
                    Verdict::Proven => proven += 1,
                    Verdict::Refuted => refuted += 1,
                    _ => {}
                }
                if first[i].as_ref().is_some_and(|f| *f != v) {
                    report.fail(format!("traced goal {i}: {v}, untraced {:?}", first[i]));
                }
            }
            t0.elapsed().as_secs_f64() * 1e3
        });
        traced_ms.push(ms);
        stats.goals = n;
        stats.proven = proven;
        stats.refuted = refuted;
        counters = (stats, solver.cache().hits() as usize, solver.cache().misses() as usize);
    }
    // A full untraced pass is the baseline; a run too short for one
    // compares per-goal means instead.
    let untraced_ms = median(&pass_ms)
        .unwrap_or_else(|| op_ms.iter().sum::<f64>() / op_ms.len() as f64 * n as f64);
    let overhead = overhead_pct(median(&traced_ms).expect("traced passes"), untraced_ms);
    bench_layer(&mut report, &gen_times, overhead, TRACED_PASSES)?;

    let decide_us: Vec<f64> =
        rec.durations_ms("solver.decide", None).iter().map(|ms| ms * 1e3).collect();
    let t = tail(&decide_us).expect("at least one goal");
    let per_pass = rec.total_ms("solver.decide") / TRACED_PASSES as f64;
    report.push("solver.solve_ms", "ms", per_pass, decide_us.len(), "decide per pass")?;
    report.push(
        "solver.decide_p50_us",
        "us",
        median(&decide_us).expect("goals"),
        t.samples,
        "median",
    )?;
    report.push("solver.decide_tail_us", "us", t.value, t.samples, t.label())?;
    let (stats, hits, misses) = counters;
    solver_counters(&mut report, &stats, n)?;
    cache_counters(&mut report, hits, misses)?;
    Ok(RunOutput { report, spans: Some(rec) })
}

/// `Some` when the oracle definitely contradicts the solver's verdict.
fn oracle_disagrees(goal: &Goal, verdict: &Verdict) -> Option<String> {
    match (verdict, dml_oracle::decide(goal, DEFAULT_BOUND)) {
        (Verdict::Proven, OracleVerdict::Refuted(model)) => {
            Some(format!("solver proved {goal}, oracle countermodel {model:?}"))
        }
        (Verdict::Refuted, OracleVerdict::Proven) => {
            Some(format!("solver refuted {goal}, oracle proved it"))
        }
        _ => None,
    }
}
