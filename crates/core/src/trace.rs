//! Proof-trace rendering: `dmlc explain` and `dmlc check --trace-out`.
//!
//! Both compile exactly as `dmlc check` does, then make one explain pass
//! over the finished [`Compiled`]: every obligation's goals are extracted
//! again from its constraint ([`extract_goals`], the split the compile
//! made), numbered from 1 across obligations, and the goals to be printed
//! are decided again through [`dml_solver::Solver::explain`]. That records
//! each goal's event story — canonicalization, DNF split, every
//! Fourier–Motzkin elimination round, fuel, witness search, verdict —
//! without reading or writing the verdict cache, so observing a compile
//! changes nothing the compile did, and a story depends on its goal alone.
//! The pass turns into the two user-facing artifacts:
//!
//! * [`render_explain`] — a deterministic, human-readable per-goal proof
//!   trace. Wall times are never shown, so the output is byte-identical
//!   across worker counts, cache settings and warm or cold caches.
//! * [`chrome_trace`] — a Chrome trace-event-format timeline (the
//!   compile's pipeline phases on one row, the explained goals on
//!   another) carrying per-goal wall time, fuel spent, the full event
//!   stream, and cache shard occupancy. Wall-clock numbers vary run to run
//!   by nature; the *shape* (event names, tags, metadata keys) is the
//!   stable contract documented in `docs/ARCHITECTURE.md`.

use crate::pipeline::Compiled;
use dml_elab::Obligation;
use dml_index::Verdict;
use dml_obs::json::{obj, Json};
use dml_obs::{ChromeTrace, GoalTrace};
use dml_solver::goal::extract_goals;
use dml_solver::{Goal, SolverStats};
use std::fmt::Write as _;

/// One obligation with the goals the explain pass decided again.
struct ObligationTrace<'c> {
    obligation: &'c Obligation,
    goals: Vec<GoalRecord>,
}

/// One goal decided again: its number (1-based, across obligations), the
/// goal sequent `∀ctx. hyps ⊃ concl`, the verdict and the event story.
struct GoalRecord {
    number: usize,
    goal: Goal,
    verdict: Verdict,
    trace: GoalTrace,
}

/// The explain pass: every obligation of `compiled` with those of its
/// goals that `select` accepts (by number) decided again, and the number
/// of goals in all. Fresh variables come from past the compile's, so none
/// clashes with a variable of a goal.
fn explain_pass(
    compiled: &Compiled,
    select: impl Fn(usize) -> bool,
) -> (Vec<ObligationTrace<'_>>, usize) {
    let solver = compiled.solver();
    let mut gen = compiled.var_gen().clone();
    let mut total = 0;
    let traces = compiled
        .obligations()
        .iter()
        .map(|(obligation, _)| {
            let goals = extract_goals(&obligation.constraint, &mut SolverStats::default());
            let first = total + 1;
            total += goals.len();
            let goals = goals
                .into_iter()
                .zip(first..)
                .filter(|&(_, number)| select(number))
                .map(|(goal, number)| {
                    let (verdict, trace) = solver.explain(&goal, &mut gen);
                    GoalRecord { number, goal, verdict, trace }
                })
                .collect();
            ObligationTrace { obligation, goals }
        })
        .collect();
    (traces, total)
}

/// Renders the per-goal proof traces of a compile.
///
/// Goals are numbered globally (1-based, generation order); `goal_filter`
/// restricts the output to a single goal, and only that goal is decided
/// again. The rendering is deterministic: wall times never appear, so the
/// same program produces byte-identical output for every `workers`/`cache`
/// configuration.
///
/// # Errors
///
/// The message `dmlc explain` prints for a `goal_filter` outside
/// `1..=goals`.
pub fn render_explain(
    compiled: &Compiled,
    src: &str,
    goal_filter: Option<usize>,
) -> Result<String, String> {
    let (traces, total) = explain_pass(compiled, |n| goal_filter.is_none_or(|want| want == n));
    let mut out = String::new();
    match goal_filter {
        Some(n) if n == 0 || n > total => {
            return Err(match total {
                0 => format!("goal {n} does not exist: the program has no solver goals"),
                1 => format!("goal {n} does not exist: the only valid goal is 1"),
                _ => format!("goal {n} does not exist: valid goals are 1..={total}"),
            })
        }
        Some(_) => {}
        None => {
            let _ = writeln!(out, "proof trace: {} obligation(s), {total} goal(s)", traces.len());
        }
    }
    for ot in &traces {
        for rec in &ot.goals {
            let _ = writeln!(out);
            let _ =
                writeln!(out, "goal {} of {total}: {}", rec.number, ot.obligation.trace_event(src));
            if !rec.goal.ctx.is_empty() {
                let ctx: Vec<String> =
                    rec.goal.ctx.iter().map(|(v, s)| format!("{v} : {s}")).collect();
                let _ = writeln!(out, "  forall {}", ctx.join(", "));
            }
            for h in &rec.goal.hyps {
                let _ = writeln!(out, "  hyp    {h}");
            }
            let _ = writeln!(out, "  |-     {}", rec.goal.concl);
            for ev in &rec.trace.events {
                let _ = writeln!(out, "    {ev}");
            }
        }
    }
    if goal_filter.is_none() {
        let residual = compiled.residual_checks();
        if !residual.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "residual runtime checks:");
            for rc in &residual {
                let _ = writeln!(out, "  {}", rc.trace_event(src));
            }
        }
    }
    Ok(out)
}

/// Builds the Chrome trace-event timeline of a compile.
///
/// Layout: row 0 (`pipeline`) carries the compile's generation and solve
/// phase spans plus obligation/residual instants; row 1 (`goals`) lays
/// the explain pass's goal spans out *sequentially* from their measured
/// durations — a synthetic timeline reflecting cost per goal, not
/// concurrent scheduling. `otherData` carries program metadata, total
/// fuel, the compile's cache hits and misses, and per-shard verdict cache
/// occupancy.
pub fn chrome_trace(compiled: &Compiled, src: &str, program: &str) -> ChromeTrace {
    let mut t = ChromeTrace::new();
    t.name_thread(0, "pipeline");
    t.name_thread(1, "goals");
    let stats = compiled.stats();
    let gen_us = stats.generation_time.as_micros() as u64;
    let solve_us = stats.solve_time.as_micros() as u64;
    t.span(
        "generation",
        "pipeline",
        0,
        0,
        gen_us,
        obj(vec![("constraints", Json::Int(stats.constraints as i64))]),
    );
    t.span(
        "solve",
        "pipeline",
        0,
        gen_us,
        solve_us,
        obj(vec![("goals", Json::Int(stats.goals as i64))]),
    );
    let mut ts = gen_us;
    let mut fuel_total = 0u64;
    for ot in explain_pass(compiled, |_| true).0 {
        t.instant(
            &format!("obligation: {}", ot.obligation.kind),
            "elab",
            0,
            gen_us,
            ot.obligation.trace_event(src).args(),
        );
        for rec in &ot.goals {
            fuel_total += rec.trace.fuel_spent;
            let dur = (rec.trace.wall_ns / 1_000).max(1);
            let events: Vec<Json> = rec
                .trace
                .events
                .iter()
                .map(|e| obj(vec![("tag", Json::Str(e.tag().into())), ("args", e.args())]))
                .collect();
            t.span(
                &format!("goal {}", rec.number),
                "solver",
                1,
                ts,
                dur,
                obj(vec![
                    ("verdict", Json::Str(rec.verdict.to_string())),
                    ("fuel", Json::Int(rec.trace.fuel_spent as i64)),
                    ("wall_ns", Json::Int(rec.trace.wall_ns as i64)),
                    ("events", Json::Array(events)),
                ]),
            );
            ts += dur;
        }
    }
    for rc in compiled.residual_checks() {
        t.instant(
            &format!("residual: {}", rc.prim),
            "residual",
            0,
            gen_us + solve_us,
            rc.trace_event(src).args(),
        );
    }
    let shards: Vec<Json> =
        compiled.solver().cache().shard_sizes().iter().map(|&s| Json::Int(s as i64)).collect();
    t.meta("program", Json::Str(program.into()));
    t.meta("constraints", Json::Int(stats.constraints as i64));
    t.meta("goals", Json::Int(stats.goals as i64));
    t.meta("fuelSpent", Json::Int(fuel_total as i64));
    t.meta("cacheHits", Json::Int(stats.solver.cache_hits as i64));
    t.meta("cacheMisses", Json::Int(stats.solver.cache_misses as i64));
    t.meta("cacheShardSizes", Json::Array(shards));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Compiler;

    const VERIFIED: &str = "\
fun first(v) = sub(v, 0)
where first <| {n:nat | n > 0} int array(n) -> int
";

    #[test]
    fn explain_renders_goals_and_verdicts() {
        let c = Compiler::new().compile(VERIFIED).unwrap();
        let text = render_explain(&c, VERIFIED, None).unwrap();
        assert!(text.contains("proof trace:"), "{text}");
        assert!(text.contains("goal 1 of"), "{text}");
        assert!(text.contains("verdict: proven"), "{text}");
        assert!(!text.contains("cache "), "explain prints no cache events: {text}");
    }

    #[test]
    fn explain_goal_filter_selects_one_goal() {
        let c = Compiler::new().compile(VERIFIED).unwrap();
        let all = render_explain(&c, VERIFIED, None).unwrap();
        let one = render_explain(&c, VERIFIED, Some(1)).unwrap();
        assert!(one.contains("goal 1 of"), "{one}");
        assert!(one.len() < all.len(), "filtered output is a subset");
        let missing = render_explain(&c, VERIFIED, Some(999)).unwrap_err();
        assert!(missing.contains("does not exist"), "{missing}");
    }

    /// A goal filter decides exactly the goal it names again, while the
    /// numbering still counts every goal.
    #[test]
    fn goal_filter_decides_one_goal_again() {
        let src = dml_programs::bsearch::SOURCE;
        let c = Compiler::new().compile(src).unwrap();
        let (traces, total) = explain_pass(&c, |n| n == 5);
        assert_eq!(total, c.stats().goals);
        assert_eq!(traces.len(), c.obligations().len());
        let decided: Vec<usize> =
            traces.iter().flat_map(|t| t.goals.iter().map(|r| r.number)).collect();
        assert_eq!(decided, [5]);
        let (all, _) = explain_pass(&c, |_| true);
        let numbers: Vec<usize> =
            all.iter().flat_map(|t| t.goals.iter().map(|r| r.number)).collect();
        assert_eq!(numbers, (1..=total).collect::<Vec<_>>());
    }

    /// A program with no obligations has no goals to explain.
    #[test]
    fn explain_without_goals_renders_an_empty_trace() {
        let src = "fun id(x) = x\n";
        let c = Compiler::new().compile(src).unwrap();
        assert_eq!(
            render_explain(&c, src, None).unwrap(),
            "proof trace: 0 obligation(s), 0 goal(s)\n"
        );
        assert_eq!(
            render_explain(&c, src, Some(1)).unwrap_err(),
            "goal 1 does not exist: the program has no solver goals"
        );
    }

    #[test]
    fn explain_shows_unknown_reason_and_residual_for_nonlinear_goals() {
        let src = "fun get(m, i, j) = sub(m, i * j)\n\
                   where get <| {n:nat, i:nat, j:nat} int array(n) * int(i) * int(j) -> int\n";
        let c = Compiler::new().compile(src).unwrap();
        let text = render_explain(&c, src, None).unwrap();
        assert!(text.contains("non-linear"), "{text}");
        assert!(text.contains("fuel:"), "{text}");
        assert!(text.contains("residual runtime checks:"), "{text}");
    }

    #[test]
    fn chrome_trace_has_phases_goals_and_metadata() {
        let c = Compiler::new().compile(VERIFIED).unwrap();
        let rendered = chrome_trace(&c, VERIFIED, "first").render();
        assert!(rendered.contains(r#""name":"generation""#), "{rendered}");
        assert!(rendered.contains(r#""name":"solve""#), "{rendered}");
        assert!(rendered.contains(r#""name":"goal 1""#), "{rendered}");
        assert!(rendered.contains(r#""cacheShardSizes":["#), "{rendered}");
        assert!(rendered.contains(r#""schemaVersion":2"#), "{rendered}");
        assert!(rendered.contains(r#""program":"first""#), "{rendered}");
        assert!(!rendered.contains(r#""tag":"cache""#), "{rendered}");
    }

    /// Observing leaves the run alone: a warm compile is all cache hits,
    /// the trace reports exactly those, and neither rendering looks up or
    /// adds a verdict.
    #[test]
    fn observing_a_warm_compile_leaves_its_cache_alone() {
        let src = dml_programs::bsearch::SOURCE;
        let session = Compiler::new();
        session.compile(src).unwrap();
        let warm = session.compile(src).unwrap();
        let s = &warm.stats().solver;
        assert!(
            s.cache_hits > 0 && s.cache_misses == 0,
            "{} hits, {} misses",
            s.cache_hits,
            s.cache_misses
        );
        let cache = warm.solver().cache();
        let before = (cache.hits(), cache.misses(), cache.len());
        let trace = chrome_trace(&warm, src, "bsearch").render();
        render_explain(&warm, src, None).unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), before);
        let hits = format!(r#""cacheHits":{}"#, s.cache_hits);
        assert!(trace.contains(&hits) && trace.contains(r#""cacheMisses":0"#), "{trace}");
    }
}
