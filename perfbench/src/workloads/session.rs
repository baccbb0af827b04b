//! `edit_session`: an editor talking to `dmlc serve`.
//!
//! One in-process `Session` (the core of `dmlc serve`) checks a file of
//! about 400 obligations again and again while a seeded script edits it:
//! half the requests change one annotated body, a quarter swap a unit for
//! a different one, a quarter re-check the file unchanged. Body edits
//! leave the signature alone, so the session can reuse the verdicts of
//! every other declaration; structural edits cannot. This exercises the
//! caches that are written as well as read: the gen memo, the goal cache
//! and the per-declaration reuse plan.

use super::{
    bench_layer, cache_counters, end_to_end, overhead_pct, peak_rss_mib, repeat_setup, stamp_error,
    time_ms, total_rate, until_deadline, RunConfig, RunOutput,
};
use crate::inputs::{EditKind, EditRequest, EditScript};
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::{median, tail};
use dml::{CheckOutcome, Compiler, Session};

const PATH: &str = "edit.dml";

/// Requests checked during set-up after the first, cold one: one group
/// of four, so every seed warms up on the same mix of edit kinds.
const WARMUP_REQUESTS: usize = 4;

/// Requests the traced run replays (at most as many as were timed).
const TRACED_REQUESTS: usize = 200;

/// `Some` when a check's report disagrees with the request's stamp.
fn check_error(outcome: &Result<CheckOutcome, String>, req: &EditRequest) -> Option<String> {
    let error = match outcome {
        Ok(o) => stamp_error(&o.report.text, &req.expected)?,
        Err(e) => e.clone(),
    };
    Some(format!("{} edit: {error}", req.kind.name()))
}

/// A session that has checked the script's file once, cold, then a few
/// warm-up edits.
fn start(mut script: EditScript, report: &mut Report) -> (Session, EditScript) {
    dml::clear_gen_memo();
    let mut session = Session::new(Compiler::new());
    let first = script.current(EditKind::Unchanged);
    report.attempt(check_error(&session.check(Some(PATH), &first.source), &first));
    for _ in 0..WARMUP_REQUESTS {
        let req = script.next();
        report.attempt(check_error(&session.check(Some(PATH), &req.source), &req));
    }
    (session, script)
}

/// The `edit_session` workload.
pub(super) fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    let n = cfg.sizes.session_obligations;
    let mut report = Report::new("edit_session", cfg.seed, cfg.traced);
    let mut setup_report = Report::new("edit_session", cfg.seed, cfg.traced);
    let mut gen_times = Vec::new();
    let ((mut session, mut script), setup_s) = repeat_setup(cfg.sizes.setups, || {
        let (script, gen_ms) = time_ms(|| EditScript::new(cfg.seed, n));
        gen_times.push(gen_ms / 1e3);
        Ok(start(script, &mut setup_report))
    })?;
    report.absorb_failures(setup_report, "set-up");

    let mut op_ms = Vec::new();
    until_deadline(cfg.seconds, || {
        let req = script.next();
        let (outcome, ms) = time_ms(|| session.check(Some(PATH), &req.source));
        op_ms.push(ms);
        report.attempt(check_error(&outcome, &req));
        Ok(true)
    })?;
    let rss_mib = peak_rss_mib()?;
    if !cfg.traced {
        let work = op_ms.len() as f64;
        end_to_end(&mut report, &setup_s, total_rate(work, &op_ms), &op_ms, rss_mib)?;
        return Ok(RunOutput { report, spans: None });
    }

    // Replay the start of the same request stream on a fresh session.
    let replayed = op_ms.len().min(TRACED_REQUESTS);
    let mut replay_setup = Report::new("edit_session", cfg.seed, cfg.traced);
    let (mut session, mut script) = start(EditScript::new(cfg.seed, n), &mut replay_setup);
    report.absorb_failures(replay_setup, "traced set-up");
    let mut rec = Recorder::new();
    let mut outcomes = Vec::with_capacity(replayed);
    for i in 0..replayed {
        let req = script.next();
        let outcome =
            rec.tagged_span("core.session_check", req.kind.name().into(), i as u64, |_| {
                session.check(Some(PATH), &req.source)
            });
        if let Some(e) = check_error(&outcome, &req) {
            report.fail(format!("traced: {e}"));
        }
        outcomes.push((req.kind, outcome));
    }
    let traced_ms = rec.total_ms("core.session_check");
    let untraced_ms: f64 = op_ms[..replayed].iter().sum();
    bench_layer(&mut report, &gen_times, overhead_pct(traced_ms, untraced_ms), replayed)?;
    session_layers(&mut report, &rec, &outcomes)?;
    Ok(RunOutput { report, spans: Some(rec) })
}

fn session_layers(
    report: &mut Report,
    rec: &Recorder,
    outcomes: &[(EditKind, Result<CheckOutcome, String>)],
) -> Result<(), String> {
    for kind in EditKind::ALL {
        let ms = rec.durations_ms("core.session_check", Some(kind.name()));
        let p50 = median(&ms).unwrap_or(0.0);
        let t = tail(&ms);
        let checks: Vec<&CheckOutcome> = outcomes
            .iter()
            .filter(|(k, _)| *k == kind)
            .filter_map(|(_, o)| o.as_ref().ok())
            .collect();
        let incremental = checks.iter().filter(|o| o.incremental).count();
        let name = kind.name();
        report.push(&format!("core.session_check_p50_ms.{name}"), "ms", p50, ms.len(), "median")?;
        report.push(
            &format!("core.session_check_tail_ms.{name}"),
            "ms",
            t.map_or(0.0, |t| t.value),
            ms.len(),
            t.map_or("none".to_string(), |t| t.label()),
        )?;
        report.push(
            &format!("core.session_incremental_ratio.{name}"),
            "ratio",
            incremental as f64 / checks.len().max(1) as f64,
            checks.len(),
            "incremental / requests",
        )?;
    }
    let checks: Vec<&CheckOutcome> = outcomes.iter().filter_map(|(_, o)| o.as_ref().ok()).collect();
    let n = checks.len().max(1) as f64;
    let gen: f64 = checks.iter().map(|o| o.stats.generation_time.as_secs_f64() * 1e3).sum();
    let solve: f64 = checks.iter().map(|o| o.stats.solve_time.as_secs_f64() * 1e3).sum();
    let reused: usize = checks.iter().map(|o| o.stats.obligations_reused).sum();
    let constraints: usize = checks.iter().map(|o| o.stats.constraints).sum();
    report.push("core.session_gen_ms", "ms", gen / n, checks.len(), "mean per request")?;
    report.push("core.session_solve_ms", "ms", solve / n, checks.len(), "mean per request")?;
    report.push(
        "core.session_reused_ratio",
        "ratio",
        reused as f64 / constraints.max(1) as f64,
        constraints,
        "reused / obligations",
    )?;
    report.push("solver.solve_ms", "ms", solve, checks.len(), "total solve_time")?;
    let hits = checks.iter().map(|o| o.stats.solver.cache_hits).sum();
    let misses = checks.iter().map(|o| o.stats.solver.cache_misses).sum();
    cache_counters(report, hits, misses)
}
