//! Batched multi-file checking over one warm compiler session.
//!
//! `dmlc check --jobs N <files...>` is a *check farm*: every file in the
//! batch compiles against the same session solver, so canonically-equal
//! goals dedupe across files exactly as they do across requests of a
//! long-lived `dmlc serve` daemon. The fan-out is the solver's own
//! work-stealing loop ([`fan_out`]) over `N` scoped threads, all compiling
//! through one clone of the session handle (cloning *after* the session
//! solver exists shares its verdict cache — see [`Compiler`]). While
//! files fan out, each one solves on its own thread: only one level of
//! parallelism runs at a time.
//!
//! Reporting is deterministic: results come back in input order, each
//! file renders through the same [`check_report`] the single-file path
//! uses, and the merged text is byte-identical to a sequential loop of
//! `dmlc check <file>` calls modulo the volatile timing/cache lines
//! ([`crate::report::VOLATILE_PREFIXES`]) — which is exactly the
//! contract the `--jobs` regression test pins.

use crate::pipeline::Compiler;
use crate::report::{check_report, CheckReport};
use dml_solver::fan_out;

/// One input of a batch: a display name (the path) and its source.
#[derive(Debug, Clone)]
pub struct BatchEntry {
    /// Display name used in the merged report's `== name ==` headers.
    pub name: String,
    /// DML source text.
    pub source: String,
}

/// Per-file outcome of a batch check.
#[derive(Debug)]
pub struct BatchFileResult {
    /// The entry's display name, in input order.
    pub name: String,
    /// The rendered report, when the pipeline ran to completion
    /// (permissive-mode residuals included).
    pub report: Option<CheckReport>,
    /// The pipeline error, otherwise (parse error, strict-mode
    /// rejection, ...), rendered exactly as the single-file path prints
    /// it to stderr.
    pub error: Option<String>,
    /// Obligations the file generated (0 on error).
    pub constraints: usize,
    /// Solver goals the file examined (0 on error).
    pub goals: usize,
}

impl BatchFileResult {
    /// `true` when the file checked cleanly (residual checks allowed in
    /// permissive mode, same as the single-file exit code).
    pub fn ok(&self) -> bool {
        self.report.as_ref().is_some_and(|r| r.ok)
    }
}

/// Whole-batch totals. Cache counters are measured on the shared session
/// solver across the entire batch, so they are exact even when per-file
/// attribution races under `--jobs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchSummary {
    /// Files checked.
    pub files: usize,
    /// Files that failed (pipeline error or strict rejection).
    pub failed: usize,
    /// Total obligations generated.
    pub constraints: usize,
    /// Total solver goals examined.
    pub goals: usize,
    /// Session-cache hits across the batch.
    pub cache_hits: u64,
    /// Session-cache misses across the batch.
    pub cache_misses: u64,
}

impl BatchSummary {
    /// One-line human summary (stderr material: the counters are
    /// workload-dependent, not part of the deterministic report body).
    pub fn render(&self) -> String {
        format!(
            "batch: {} file(s), {} failed; {} constraints, {} goals; \
             solver cache: {} hits, {} misses",
            self.files,
            self.failed,
            self.constraints,
            self.goals,
            self.cache_hits,
            self.cache_misses
        )
    }
}

/// The result of [`check_batch`]: per-file results in input order plus
/// batch totals.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-file outcomes, in input order regardless of completion order.
    pub results: Vec<BatchFileResult>,
    /// Whole-batch totals.
    pub summary: BatchSummary,
}

impl BatchOutcome {
    /// `true` when every file checked cleanly.
    pub fn ok(&self) -> bool {
        self.summary.failed == 0
    }

    /// The deterministic merged report: per file, a `== name ==` header
    /// followed by its report text (or `error: ...` for pipeline
    /// failures). Stripping [`crate::report::VOLATILE_PREFIXES`] lines
    /// makes this byte-identical across jobs counts and cache states.
    pub fn merged_report(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&format!("== {} ==\n", r.name));
            match (&r.report, &r.error) {
                (Some(rep), _) => out.push_str(&rep.text),
                (None, Some(e)) => out.push_str(&format!("error: {e}\n")),
                (None, None) => out.push_str("error: skipped\n"),
            }
        }
        out
    }
}

/// Checks every entry against `compiler`'s session, fanning across
/// `jobs` worker threads (1 = sequential; the result is identical either
/// way, only wall time changes). The session solver is initialized
/// before any worker spawns, so all of them share one goal cache.
pub fn check_batch(compiler: &Compiler, entries: &[BatchEntry], jobs: usize) -> BatchOutcome {
    // Force the session solver into existence so the clone below shares
    // it (cloning a virgin handle would fork the session).
    let cache = compiler.solver().cache();
    let snapshot = (cache.hits(), cache.misses());

    // Files fanning out solve sequentially each: nesting the solver's
    // own fan-out under N jobs would start N × workers threads.
    let jobs = jobs.clamp(1, entries.len().max(1));
    let compiler = if jobs > 1 { compiler.clone().workers(1) } else { compiler.clone() };
    let results = fan_out(jobs, entries.len(), |i| {
        let entry = &entries[i];
        match compiler.compile(&entry.source) {
            Ok(compiled) => {
                let stats = compiled.stats();
                BatchFileResult {
                    name: entry.name.clone(),
                    report: Some(check_report(&compiled, &entry.source)),
                    error: None,
                    constraints: stats.constraints,
                    goals: stats.goals,
                }
            }
            Err(e) => BatchFileResult {
                name: entry.name.clone(),
                report: None,
                error: Some(e.to_string()),
                constraints: 0,
                goals: 0,
            },
        }
    });

    let mut summary = BatchSummary {
        files: results.len(),
        cache_hits: cache.hits() - snapshot.0,
        cache_misses: cache.misses() - snapshot.1,
        ..BatchSummary::default()
    };
    for r in &results {
        if !r.ok() {
            summary.failed += 1;
        }
        summary.constraints += r.constraints;
        summary.goals += r.goals;
    }
    BatchOutcome { results, summary }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::stable_body;

    /// `i + 1 < n ⊃ i < n` needs real Fourier–Motzkin work (a guard that
    /// syntactically contains the conclusion would take the assumption
    /// fast path and never touch the cache).
    const PROVEN: &str = "fun f(v, i) = sub(v, i)\n\
                          where f <| {n:nat, i:nat | i + 1 < n} int array(n) * int(i) -> int\n";
    const RESIDUAL: &str = "fun g(v, i) = sub(v, i)\n";
    /// α-equivalent to [`PROVEN`] under a different name: same canonical
    /// goals, so a shared session serves it from cache.
    const PROVEN_TWIN: &str = "fun ff(w, j) = sub(w, j)\n\
                               where ff <| {n:nat, i:nat | i + 1 < n} int array(n) * int(i) -> int\n";
    const BROKEN: &str = "fun h(v, i) = sub(v\n";

    fn entries() -> Vec<BatchEntry> {
        vec![
            BatchEntry { name: "a.dml".into(), source: PROVEN.into() },
            BatchEntry { name: "b.dml".into(), source: RESIDUAL.into() },
            BatchEntry { name: "c.dml".into(), source: PROVEN_TWIN.into() },
        ]
    }

    #[test]
    fn parallel_batch_matches_sequential_modulo_volatile_lines() {
        let entries = entries();
        let seq = check_batch(&Compiler::new().workers(1), &entries, 1);
        let par = check_batch(&Compiler::new().workers(1), &entries, 3);
        assert_eq!(stable_body(&seq.merged_report()), stable_body(&par.merged_report()));
        assert!(seq.ok() && par.ok());
        assert_eq!(seq.summary.files, 3);
        assert_eq!(seq.summary.constraints, par.summary.constraints);
    }

    #[test]
    fn results_come_back_in_input_order() {
        let entries = entries();
        let out = check_batch(&Compiler::new(), &entries, 2);
        let names: Vec<&str> = out.results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["a.dml", "b.dml", "c.dml"]);
    }

    #[test]
    fn pipeline_errors_mark_the_batch_failed_without_aborting_it() {
        let mut entries = entries();
        entries.push(BatchEntry { name: "d.dml".into(), source: BROKEN.into() });
        let out = check_batch(&Compiler::new().workers(1), &entries, 2);
        assert!(!out.ok());
        assert_eq!(out.summary.failed, 1);
        assert!(out.results[3].error.is_some());
        assert!(out.merged_report().contains("== d.dml ==\nerror: "));
        // The healthy files still checked.
        assert!(out.results[0].ok() && out.results[1].ok() && out.results[2].ok());
    }

    #[test]
    fn shared_session_dedupes_goals_across_files() {
        // `a.dml` and `c.dml` are α-equivalent: the second compile must
        // hit the session cache, not re-solve.
        let entries = entries();
        let compiler = Compiler::new().workers(1);
        let out = check_batch(&compiler, &entries, 1);
        assert!(out.summary.cache_hits > 0, "{:?}", out.summary);
    }
}
