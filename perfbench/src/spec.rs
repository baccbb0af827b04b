//! The benchmark's description, read from `BENCHMARK.json` at the root of
//! the repository: workloads, metric names, units, directions and bounds.
//! Every run checks the metrics it prints against this file, so the file
//! and the program cannot drift apart.

use dml::serve::Value;
use std::sync::OnceLock;

/// The text of `BENCHMARK.json`, embedded at build time.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` per layer).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Seconds one run measures for.
    pub run_seconds: u64,
    /// Metrics an untraced run prints.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics a traced run prints.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses a `BENCHMARK.json` text.
    ///
    /// # Errors
    ///
    /// A description of the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Value::parse(text)?;
        let list = |key: &str| match root.get(key) {
            Some(Value::Array(items)) => Ok(items.as_slice()),
            _ => Err(format!("BENCHMARK.json: `{key}` is not an array")),
        };
        let field = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without string `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = field(m, "better")?;
                    let bound = match m.get("bound") {
                        Some(Value::Num(b)) => Some(*b),
                        None => None,
                        Some(_) => return Err("BENCHMARK.json: `bound` is not a number".into()),
                    };
                    Ok(MetricSpec {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        higher_is_better: match better.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                        },
                        bound,
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_i64)
                .and_then(|s| u64::try_from(s).ok())
                .ok_or("BENCHMARK.json: `run_seconds` is not a whole number")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run prints: per-layer when traced, else end-to-end.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// The embedded `BENCHMARK.json`, parsed once.
///
/// # Panics
///
/// When the embedded file does not parse — a build of a broken checkout.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| Spec::parse(BENCHMARK_JSON).expect("embedded BENCHMARK.json parses"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_spec_parses_with_bounds_on_every_end_to_end_metric() {
        let s = spec();
        assert!(s.workloads.len() >= 2);
        assert!(s.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        let largest = s.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
    }

    #[test]
    fn rejects_an_unknown_direction() {
        let text = r#"{"workloads": [], "run_seconds": 1, "per_layer": [],
            "end_to_end": [{"name": "x", "unit": "s", "better": "sideways", "bound": 0.1}]}"#;
        assert!(Spec::parse(text).unwrap_err().contains("sideways"));
    }
}
