//! The canonical `check` report, shared by one-shot `dmlc check` and the
//! `dmlc serve` daemon.
//!
//! Both paths render through [`check_report`], so their verdict lines are
//! byte-identical by construction: the daemon's determinism contract. The
//! header renders from a compile's statistics and the body from the
//! compiled program, so the daemon can replay a stored body under a fresh
//! header. The timing and cache lines are the only run-dependent content;
//! consumers that diff reports strip lines starting with the
//! [`VOLATILE_PREFIXES`].

use crate::pipeline::{CompileStats, Compiled};
use std::fmt::Write as _;

/// Line prefixes whose content varies run to run (wall-clock timing,
/// cache hit/miss counters). Everything else in a check report is
/// deterministic per source and solver budget.
pub const VOLATILE_PREFIXES: [&str; 2] = ["solver cache:", "solve timing:"];

/// A rendered check report plus the exit status it implies.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// The full human-readable report, one trailing newline included.
    pub text: String,
    /// `false` exactly when the program is ill-typed (a failed non-check
    /// obligation) — residual runtime checks alone keep this `true` in
    /// permissive mode.
    pub ok: bool,
}

/// Renders the standard `check` report for a compiled program: three
/// header lines from its statistics (constraint count, then the volatile
/// timing and cache lines), followed by the deterministic body.
pub fn check_report(compiled: &Compiled, src: &str) -> CheckReport {
    report_body(compiled, src).with_header(compiled.stats())
}

impl CheckReport {
    /// This report body (see [`report_body`]) under the header lines of
    /// `stats`.
    pub(crate) fn with_header(&self, stats: &CompileStats) -> CheckReport {
        CheckReport { text: report_header(stats) + &self.text, ok: self.ok }
    }
}

/// The report's three header lines, rendered from a compile's statistics
/// alone: the constraint count, then the volatile timing and cache lines.
fn report_header(stats: &CompileStats) -> String {
    let mut text = String::new();
    let _ = writeln!(text, "{} constraints generated", stats.constraints);
    // Goals and reuse counts are volatile alongside the wall times: an
    // incremental daemon recompile solves fewer goals (reusing the rest)
    // than the byte-identical one-shot compile of the same source.
    let _ = writeln!(
        text,
        "solve timing: {} goals solved ({} obligations reused), \
         {:.1} ms generation, {:.1} ms solving",
        stats.goals,
        stats.obligations_reused,
        stats.generation_time.as_secs_f64() * 1e3,
        stats.solve_time.as_secs_f64() * 1e3,
    );
    let _ = writeln!(
        text,
        "solver cache: {} hits, {} misses",
        stats.solver.cache_hits, stats.solver.cache_misses,
    );
    text
}

/// Everything below the header, deterministic per source and solver
/// budget: proven/unproven site counts, exhaustiveness warnings, and
/// either the fully-verified line or the residual-check listing.
pub(crate) fn report_body(compiled: &Compiled, src: &str) -> CheckReport {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "proven check sites: {}; unproven: {}",
        compiled.proven_sites().len(),
        compiled.unproven_sites().len()
    );
    for (site, con) in compiled.match_warnings() {
        let _ = writeln!(
            text,
            "warning: match at {site} may not be exhaustive (constructor `{con}` \
             not provably impossible)"
        );
    }
    if compiled.fully_verified() {
        text.push_str("fully verified: all run-time checks at proven sites are eliminated\n");
        return CheckReport { text, ok: true };
    }
    // Not fully verified. In permissive mode, unproven *check* obligations
    // degrade gracefully to residual runtime checks; only failed type
    // obligations (index equations, guards) make the program ill-typed.
    let residual = compiled.residual_checks();
    for rc in &residual {
        let _ = writeln!(text, "{rc}");
    }
    if !compiled.elimination().blocking().is_empty() {
        text.push_str("NOT fully verified; unproven obligations:\n\n");
        text.push_str(&compiled.explain_failures(src));
        CheckReport { text, ok: false }
    } else {
        let _ = writeln!(
            text,
            "{} residual runtime check(s) remain (permissive mode; \
             use --strict to make this an error)",
            residual.len()
        );
        CheckReport { text, ok: true }
    }
}

/// Strips the volatile (timing/cache) lines from a check report, leaving
/// the deterministic body that can be byte-compared across runs, worker
/// counts, cache states, and one-shot vs daemon paths. Used by the CI
/// daemon smoke test and available to any consumer diffing reports.
pub fn stable_body(report: &str) -> String {
    report
        .lines()
        .filter(|l| !VOLATILE_PREFIXES.iter().any(|p| l.starts_with(p)))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;

    #[test]
    fn verified_report_matches_legacy_shape() {
        let src = "fun first(v) = sub(v, 0)\n\
                   where first <| {n:nat | n > 0} int array(n) -> int\n";
        let compiled = Compiler::new().compile(src).unwrap();
        let r = check_report(&compiled, src);
        assert!(r.ok);
        assert!(r.text.contains("constraints generated"), "{}", r.text);
        assert!(r.text.contains("proven check sites: 1; unproven: 0"), "{}", r.text);
        assert!(r.text.ends_with("eliminated\n"), "{}", r.text);
    }

    #[test]
    fn residual_report_lists_checks_and_stays_ok() {
        let src = "fun get(v, i) = sub(v, i)\n";
        let compiled = Compiler::new().compile(src).unwrap();
        let r = check_report(&compiled, src);
        assert!(r.ok, "residual checks are not errors in permissive mode");
        assert!(r.text.contains("residual runtime check(s) remain"), "{}", r.text);
    }

    #[test]
    fn stable_body_drops_only_volatile_lines() {
        let src = "fun first(v) = sub(v, 0)\n\
                   where first <| {n:nat | n > 0} int array(n) -> int\n";
        let compiled = Compiler::new().compile(src).unwrap();
        let r = check_report(&compiled, src);
        let body = stable_body(&r.text);
        assert!(!body.contains("solver cache:"));
        assert!(!body.contains("solve timing:"));
        assert!(body.contains("proven check sites:"));
        // The same program compiled fresh yields the same stable body.
        let again = Compiler::new().compile(src).unwrap();
        assert_eq!(body, stable_body(&check_report(&again, src).text));
    }
}
