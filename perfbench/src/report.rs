//! Metric lines and the result record of one run.
//!
//! A run prints one human-readable line per metric (name, value, unit and
//! sample count), then, as the last line of standard output, one JSON
//! object with exactly the keys `correct`, `attempted`, `failed` and
//! `metrics`. Values are printed with every digit `f64` carries.

use crate::spec::Spec;
use std::fmt::Write as _;

/// `true` for a name made of `[A-Za-z0-9_.-]`, starting with a letter or
/// digit, at most 64 characters long.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, validated by [`valid_name`].
    pub name: String,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: String,
    /// The value, finite.
    pub value: f64,
    /// Samples the value summarises (0 for a layer the workload bypasses).
    pub samples: usize,
    /// How the value was taken (`median`, `p99.9`, ...), for the human line.
    pub how: String,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this is a traced run (per-layer metrics).
    pub traced: bool,
    /// Operations attempted in the timed part.
    pub attempted: u64,
    /// Operations whose output failed its correctness check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    metrics: Vec<Metric>,
}

/// Failure descriptions kept per run; the count is always exact.
const FAILURES_KEPT: usize = 8;

impl Report {
    /// An empty report for one run.
    pub fn new(workload: &str, seed: u64, traced: bool) -> Report {
        Report { workload: workload.to_string(), seed, traced, ..Report::default() }
    }

    /// Records a metric.
    ///
    /// # Errors
    ///
    /// An invalid or repeated name, or a value that is not finite.
    pub fn push(
        &mut self,
        name: &str,
        unit: &str,
        value: f64,
        samples: usize,
        how: impl Into<String>,
    ) -> Result<(), String> {
        if !valid_name(name) {
            return Err(format!("metric name {name:?} is outside [A-Za-z0-9_.-]"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        if self.metrics.iter().any(|m| m.name == name) {
            return Err(format!("metric {name} recorded twice"));
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples,
            how: how.into(),
        });
        Ok(())
    }

    /// Counts one attempted operation, and a failure when `error` is set.
    pub fn attempt(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.fail(e);
        }
    }

    /// Counts a failed check that is not tied to one attempt.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.failures.len() < FAILURES_KEPT {
            self.failures.push(error);
        }
    }

    /// Adds the failures of a side check (set-up, the traced pass) to this
    /// report, prefixed with `context`.
    pub fn absorb_failures(&mut self, side: Report, context: &str) {
        self.failed += side.failed;
        for f in side.failures {
            if self.failures.len() < FAILURES_KEPT {
                self.failures.push(format!("{context}: {f}"));
            }
        }
    }

    /// The metrics recorded so far.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Checks the recorded metrics against `spec`. A traced run reports 0
    /// for every layer the workload bypasses; an untraced run must have
    /// recorded every end-to-end metric itself. Metrics come out in the
    /// order `BENCHMARK.json` lists them.
    ///
    /// # Errors
    ///
    /// A metric the spec does not name, a unit that differs from the
    /// spec's, or (untraced) a missing end-to-end metric.
    pub fn conform(&mut self, spec: &Spec) -> Result<(), String> {
        let wanted = spec.metrics(self.traced);
        for m in &self.metrics {
            match wanted.iter().find(|w| w.name == m.name) {
                None => return Err(format!("metric {} is not in BENCHMARK.json", m.name)),
                Some(w) if w.unit != m.unit => {
                    return Err(format!("metric {} has unit {}, not {}", m.name, m.unit, w.unit))
                }
                Some(_) => {}
            }
        }
        let mut ordered = Vec::with_capacity(wanted.len());
        for w in wanted {
            match self.metrics.iter().position(|m| m.name == w.name) {
                Some(i) => ordered.push(self.metrics.swap_remove(i)),
                None if self.traced => ordered.push(Metric {
                    name: w.name.clone(),
                    unit: w.unit.clone(),
                    value: 0.0,
                    samples: 0,
                    how: "bypassed".to_string(),
                }),
                None => return Err(format!("end-to-end metric {} was not measured", w.name)),
            }
        }
        self.metrics = ordered;
        Ok(())
    }

    /// `true` when every attempted operation passed its check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// One line per metric: `metric <name> = <value> <unit> (<how>, n=<samples>)`.
    pub fn human_lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "metric {} = {} {} ({}, n={})",
                m.name, m.value, m.unit, m.how, m.samples
            );
        }
        let _ = writeln!(
            out,
            "failure_rate = {} ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        out
    }

    fn metrics_json(&self, with_samples: bool) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let samples = if with_samples {
                    format!(", \"samples\": {}", m.samples)
                } else {
                    String::new()
                };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{samples}}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(false)
        )
    }

    /// The record `--out` writes and `compare` reads: the result line's
    /// fields plus the workload, the seed and each metric's sample count.
    pub fn result_record(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
            self.workload,
            self.seed,
            self.traced,
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(true)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_outside_the_alphabet_are_rejected() {
        let mut r = Report::new("w", 1, false);
        for bad in ["", "a b", "a/b", "lat\"ency", ".hidden", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
            assert!(r.push(bad, "ms", 1.0, 1, "median").is_err(), "{bad:?}");
        }
        for good in ["latency_p50_ms", "solver.cache_hits", "native.bcopy.gain_pct", "9-a"] {
            assert!(valid_name(good), "{good:?}");
        }
    }

    #[test]
    fn push_rejects_non_finite_values_and_duplicates() {
        let mut r = Report::new("w", 1, false);
        assert!(r.push("a", "ms", f64::NAN, 1, "median").is_err());
        r.push("a", "ms", 1.0, 1, "median").unwrap();
        assert!(r.push("a", "ms", 2.0, 1, "median").is_err());
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut r = Report::new("w", 1, false);
        r.push("latency_ms", "ms", 0.123_456_789_012_345, 9, "median").unwrap();
        r.attempt(None);
        let line = r.result_line();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"latency_ms": {"value": 0.123456789012345, "unit": "ms"}}}"#
        );
        let parsed = dml::serve::Value::parse(&line).expect("valid JSON");
        assert!(parsed.get("metrics").and_then(|m| m.get("latency_ms")).is_some());
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = Report::new("w", 1, false);
        r.attempt(None);
        r.attempt(Some("stamp mismatch".into()));
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r.human_lines().contains("FAILED: stamp mismatch"));
    }
}
