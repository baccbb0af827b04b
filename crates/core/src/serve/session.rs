//! The long-lived check session behind `dmlc serve`.
//!
//! A [`Session`] owns one reusable [`Compiler`] handle — one canonical
//! goal cache, one worker pool — plus per-file
//! state and per-request statistics. A file's state is its last
//! successful check: the source text and rendered report body, replayed
//! when the same path is re-checked byte for byte, and its verdicts by
//! declaration, reused when it is re-checked after an edit. The
//! transport layer ([`crate::serve::server`]) is a thin loop over it, and
//! it can just as well be embedded in-process (tests and benches do).

use super::incremental::{self, FileState};
use crate::pipeline::{Compiled, Compiler, PipelineError};
use crate::report::{report_body, CheckReport};
use dml_obs::json::{obj, Json};
use std::collections::HashMap;
use std::time::Instant;

/// Everything a `check` request reports back.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The rendered report, byte-identical in its stable body to one-shot
    /// `dmlc check` of the same source (see [`crate::report`]).
    pub report: CheckReport,
    /// Whether the program fully verified.
    pub fully_verified: bool,
    /// Whether any verdicts were reused from the file's previous check
    /// (always, when the check replayed it).
    pub incremental: bool,
    /// The compile's statistics (including `obligations_reused` and the
    /// solver cache counters for this request alone).
    pub stats: crate::pipeline::CompileStats,
}

/// Per-session counters, surfaced by the `stats` request.
#[derive(Debug, Default)]
pub struct SessionStats {
    /// Requests handled, by method name.
    pub requests: HashMap<&'static str, u64>,
    /// `check` requests answered with a report (failed checks are not
    /// counted): the `stats` reply's `checkLatency.count`.
    pub check_latency: u64,
}

/// A persistent check service: one configured compiler session serving
/// many requests.
#[derive(Debug)]
pub struct Session {
    compiler: Compiler,
    files: HashMap<String, FileState>,
    stats: SessionStats,
    started: Instant,
}

impl Session {
    /// Wraps a configured compiler handle. The handle's solver session
    /// (and its caches) live as long as the `Session`. The solver worker
    /// pool is prewarmed eagerly so the first request doesn't pay the
    /// thread-spawn cost.
    pub fn new(compiler: Compiler) -> Session {
        dml_solver::pool::prewarm();
        Session {
            compiler,
            files: HashMap::new(),
            stats: SessionStats::default(),
            started: Instant::now(),
        }
    }

    /// The underlying compiler handle.
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// Checks `src`. With a `path`, the session remembers the file's last
    /// successful check: a byte-identical re-check replays its report, and
    /// an edited one re-solves only changed declarations (see
    /// `serve/incremental.rs`). Verdicts and report bodies are identical
    /// to a from-scratch check either way.
    ///
    /// # Errors
    ///
    /// The rendered [`PipelineError`] — the same text one-shot `dmlc`
    /// prints — for parse/type/elaboration failures (and, under a strict
    /// compiler, unproven obligations). A failed check clears the file's
    /// incremental state.
    pub fn check(&mut self, path: Option<&str>, src: &str) -> Result<CheckOutcome, String> {
        *self.stats.requests.entry("check").or_insert(0) += 1;
        let replayed = path.and_then(|p| self.files.get(p)).and_then(|prior| prior.replay(src));
        let outcome = match replayed {
            Some(outcome) => outcome,
            None => self.compile_check(path, src).map_err(|e| {
                if let Some(p) = path {
                    self.files.remove(p);
                }
                e.to_string()
            })?,
        };
        self.stats.check_latency += 1;
        Ok(outcome)
    }

    /// Parses `src` once, compiles it with the reuse plan of the file's
    /// previous state, and remembers the new state.
    fn compile_check(
        &mut self,
        path: Option<&str>,
        src: &str,
    ) -> Result<CheckOutcome, PipelineError> {
        let program = dml_syntax::parse_program(src).map_err(PipelineError::Parse)?;
        let fingerprint = path.map(|_| incremental::fingerprint(src, &program));
        let prior = path.and_then(|p| self.files.get(p));
        let plan =
            fingerprint.as_ref().zip(prior).and_then(|(fp, prior)| incremental::plan(fp, prior));
        let compiled = self.compiler.compile_program(program, plan.as_ref())?;
        let body = report_body(&compiled, src);
        let outcome = CheckOutcome {
            report: body.with_header(compiled.stats()),
            fully_verified: compiled.fully_verified(),
            incremental: compiled.stats().obligations_reused > 0,
            stats: compiled.stats().clone(),
        };
        if let (Some(p), Some(fp)) = (path, fingerprint) {
            self.files.insert(p.to_string(), incremental::remember(&fp, src, &compiled, body));
        }
        Ok(outcome)
    }

    /// Renders proof traces for `src` — byte-identical to one-shot
    /// `dmlc explain`. The compile runs through the session's warm cache;
    /// the explain pass decides each printed goal again without it, so
    /// what the cache holds cannot change the text.
    ///
    /// # Errors
    ///
    /// The rendered compile error, or the goal-range message one-shot
    /// `dmlc explain` prints when `goal` is out of range.
    pub fn explain(&mut self, src: &str, goal: Option<usize>) -> Result<String, String> {
        *self.stats.requests.entry("explain").or_insert(0) += 1;
        let compiled = self.compiler.compile(src).map_err(|e| e.to_string())?;
        crate::trace::render_explain(&compiled, src, goal)
    }

    /// Runs annotation inference on `src`, returning the human report (or
    /// the JSON report when `json` is set) exactly as one-shot
    /// `dmlc infer` prints it.
    ///
    /// # Errors
    ///
    /// The rendered compile error.
    pub fn infer(&mut self, src: &str, json: bool) -> Result<String, String> {
        *self.stats.requests.entry("infer").or_insert(0) += 1;
        let compiled = self.compiler.clone().infer(true).compile(src).map_err(|e| e.to_string())?;
        let report = compiled
            .infer_report()
            .ok_or_else(|| "inference produced no report (internal error)".to_string())?;
        Ok(if json { report.render_json(src) + "\n" } else { report.render_human(src) })
    }

    /// The `stats` response payload: request counters, the count of
    /// answered checks and the goal cache's cumulative counters.
    pub fn stats_json(&self) -> Json {
        let cache = self.compiler.solver().cache();
        let mut methods: Vec<(&str, Json)> =
            self.stats.requests.iter().map(|(m, n)| (*m, Json::Int(*n as i64))).collect();
        methods.sort_by_key(|(m, _)| *m);
        obj(vec![
            ("uptimeMs", Json::Num(self.started.elapsed().as_secs_f64() * 1e3)),
            ("requests", obj(methods)),
            ("checkLatency", obj(vec![("count", Json::Int(self.stats.check_latency as i64))])),
            (
                "cache",
                obj(vec![
                    ("hits", Json::Int(cache.hits() as i64)),
                    ("misses", Json::Int(cache.misses() as i64)),
                    ("entries", Json::Int(cache.len() as i64)),
                ]),
            ),
            ("filesTracked", Json::Int(self.files.len() as i64)),
        ])
    }

    /// Session statistics (for embedding; the wire shape is
    /// [`Session::stats_json`]).
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Compiles without any session side effects — the escape hatch for
    /// embedders needing a [`Compiled`] (machine construction, lints)
    /// rather than a report.
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile`].
    pub fn compile(&self, src: &str) -> Result<Compiled, PipelineError> {
        self.compiler.compile(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const TWO_FUNS: &str = "\
fun first(v) = sub(v, 0)
where first <| {n:nat | n > 0} int array(n) -> int

fun second(v) = sub(v, 1)
where second <| {n:nat | n > 1} int array(n) -> int
";

    /// A byte-identical re-check replays the last report: every
    /// obligation reused, nothing generated, solved or looked up.
    #[test]
    fn repeat_check_is_fully_incremental() {
        let mut s = Session::new(Compiler::new());
        let first = s.check(Some("a.dml"), TWO_FUNS).unwrap();
        assert!(!first.incremental);
        assert!(first.fully_verified);
        let second = s.check(Some("a.dml"), TWO_FUNS).unwrap();
        assert!(second.incremental);
        assert!(second.fully_verified);
        assert_eq!(second.report.ok, first.report.ok);
        assert_eq!(second.stats.constraints, first.stats.constraints);
        assert_eq!(second.stats.obligations_reused, second.stats.constraints);
        assert_eq!(second.stats.goals, 0, "nothing reached the solver");
        assert_eq!(second.stats.generation_time, Duration::ZERO);
        assert_eq!(second.stats.solve_time, Duration::ZERO);
        assert_eq!(second.stats.solver.cache_hits + second.stats.solver.cache_misses, 0);
        assert_eq!(
            crate::report::stable_body(&first.report.text),
            crate::report::stable_body(&second.report.text),
        );
        let header = second.report.text.lines().nth(1).unwrap();
        assert_eq!(
            header,
            format!(
                "solve timing: 0 goals solved ({} obligations reused), \
                 0.0 ms generation, 0.0 ms solving",
                first.stats.constraints
            )
        );
    }

    /// A whitespace-only change is compiled, not replayed, but every
    /// declaration's text is unchanged, so the reuse plan still answers
    /// every obligation.
    #[test]
    fn whitespace_change_recompiles_and_reuses_every_obligation() {
        let mut s = Session::new(Compiler::new());
        let first = s.check(Some("w.dml"), TWO_FUNS).unwrap();
        let shifted = format!("\n\n{TWO_FUNS}\n");
        let second = s.check(Some("w.dml"), &shifted).unwrap();
        assert!(second.incremental);
        assert!(second.stats.generation_time > Duration::ZERO, "generation ran");
        assert_eq!(second.stats.obligations_reused, second.stats.constraints);
        assert_eq!(second.stats.constraints, first.stats.constraints);
        assert_eq!(second.stats.goals, 0);
        assert_eq!(
            crate::report::stable_body(&first.report.text),
            crate::report::stable_body(&second.report.text),
        );
    }

    /// Replaying keeps the file's per-declaration verdicts, so an edit
    /// after a replay still reuses the untouched declaration.
    #[test]
    fn edit_after_replay_reuses_untouched_decls() {
        let mut s = Session::new(Compiler::new());
        let cold = s.check(Some("r.dml"), TWO_FUNS).unwrap();
        let replayed = s.check(Some("r.dml"), TWO_FUNS).unwrap();
        assert_eq!(replayed.stats.generation_time, Duration::ZERO);
        let edited = TWO_FUNS.replace("sub(v, 1)", "sub(v, 1 - 1 + 1)");
        let warm = s.check(Some("r.dml"), &edited).unwrap();
        assert!(warm.incremental);
        assert!(warm.stats.obligations_reused > 0, "first() verdicts reused");
        assert!(warm.stats.goals > 0 && warm.stats.goals < cold.stats.goals);
        assert!(warm.fully_verified);
    }

    #[test]
    fn one_decl_edit_resolves_only_that_decl() {
        let mut s = Session::new(Compiler::new());
        let cold = s.check(Some("b.dml"), TWO_FUNS).unwrap();
        let edited = TWO_FUNS.replace("sub(v, 1)", "sub(v, 1 - 1 + 1)");
        let warm = s.check(Some("b.dml"), &edited).unwrap();
        assert!(warm.incremental);
        assert!(warm.stats.obligations_reused > 0, "first() verdicts reused");
        assert!(
            warm.stats.goals < cold.stats.goals,
            "only the edited decl's goals were solved: {} vs {}",
            warm.stats.goals,
            cold.stats.goals
        );
        assert!(warm.fully_verified);
    }

    #[test]
    fn pathless_checks_skip_incremental_state() {
        let mut s = Session::new(Compiler::new());
        s.check(None, TWO_FUNS).unwrap();
        let again = s.check(None, TWO_FUNS).unwrap();
        assert!(!again.incremental, "no path, no file state");
        // The goal cache still answers everything.
        assert_eq!(again.stats.solver.cache_misses, 0);
    }

    /// After a failed check the next identical check compiles again
    /// rather than replaying the state from before the failure.
    #[test]
    fn compile_error_clears_file_state() {
        let mut s = Session::new(Compiler::new());
        s.check(Some("c.dml"), TWO_FUNS).unwrap();
        assert!(s.check(Some("c.dml"), "fun broken(").is_err());
        let after = s.check(Some("c.dml"), TWO_FUNS).unwrap();
        assert!(!after.incremental, "state was cleared by the failed check");
        assert!(after.stats.generation_time > Duration::ZERO, "compiled, not replayed");
        assert!(after.stats.goals > 0);
        assert_eq!(after.stats.obligations_reused, 0);
    }

    /// The session parses each source once; a parse failure renders the
    /// same text as one-shot `dmlc check`.
    #[test]
    fn parse_error_matches_one_shot() {
        let mut s = Session::new(Compiler::new());
        let daemon = s.check(Some("p.dml"), "fun broken(").unwrap_err();
        let one_shot = Compiler::new().compile("fun broken(").unwrap_err().to_string();
        assert_eq!(daemon, one_shot);
    }

    #[test]
    fn explain_matches_one_shot_byte_for_byte() {
        let mut s = Session::new(Compiler::new());
        s.check(Some("d.dml"), TWO_FUNS).unwrap(); // warm the session
        let daemon = s.explain(TWO_FUNS, None).unwrap();
        let compiled = Compiler::new().compile(TWO_FUNS).unwrap();
        let one_shot = crate::trace::render_explain(&compiled, TWO_FUNS, None).unwrap();
        assert_eq!(daemon, one_shot);
    }
}
