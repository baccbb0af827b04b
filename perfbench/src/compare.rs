//! `compare`: two sets of result records, metric by metric.
//!
//! For every workload and end-to-end metric it gives both sets' medians
//! and quartiles, the share of seed-paired runs the second set wins, and
//! a verdict under the metric's bound from `BENCHMARK.json`:
//!
//! * **improved** — the second set wins at least nine tenths of the pairs
//!   (ties count for neither) and the medians differ by more than the
//!   first set's interquartile distance;
//! * **unresolved** — either set's spread exceeds the bound, unless every
//!   run of the second set is better than every run of the first;
//! * **regressed** — the second median is worse than the first by more
//!   than the bound;
//! * **no-worse** — otherwise.

use crate::spec::{MetricSpec, Spec};
use crate::stats::{quartiles, Quartiles};
use dml::serve::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One run's record, as `--out` writes it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl RunRecord {
    /// Parses one record.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a missing field.
    pub fn parse(text: &str) -> Result<RunRecord, String> {
        let v = Value::parse(text.trim())?;
        let workload =
            v.get("workload").and_then(Value::as_str).ok_or("record without workload")?;
        let seed = match v.get("seed") {
            Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => *n as u64,
            _ => return Err("record without a whole seed".into()),
        };
        let Some(Value::Object(fields)) = v.get("metrics") else {
            return Err("record without metrics".into());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in fields {
            match m.get("value") {
                Some(Value::Num(x)) => metrics.insert(name.clone(), *x),
                _ => return Err(format!("metric {name} without a value")),
            };
        }
        Ok(RunRecord { workload: workload.to_string(), seed, metrics })
    }
}

/// Reads every `*.json` record in `dir`.
///
/// # Errors
///
/// An unreadable directory or file, or a record that does not parse.
pub fn load_dir(dir: &Path) -> Result<Vec<RunRecord>, String> {
    let mut records = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            records.push(RunRecord::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    Ok(records)
}

/// The outcome of comparing one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond noise.
    Improved,
    /// Not worse by more than the bound.
    NoWorse,
    /// Worse by more than the bound.
    Regressed,
    /// Too noisy, or too few runs, to say.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no-worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// First set's quartiles (`None` with fewer than two runs).
    pub base: Option<Quartiles>,
    /// Second set's quartiles.
    pub change: Option<Quartiles>,
    /// Seed-paired runs.
    pub pairs: usize,
    /// Share of pairs the second set wins.
    pub win_share: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric from the two sets' values (`pairs` holds the
/// seed-matched `(base, change)` values).
pub fn judge(spec: &MetricSpec, base: &[f64], change: &[f64], pairs: &[(f64, f64)]) -> Row {
    let better = |x: f64, y: f64| if spec.higher_is_better { x > y } else { x < y };
    let wins = pairs.iter().filter(|(a, b)| better(*b, *a)).count();
    let win_share = if pairs.is_empty() { 0.0 } else { wins as f64 / pairs.len() as f64 };
    let (qa, qb) = (quartiles(base), quartiles(change));
    let verdict = match (qa, qb) {
        (Some(a), Some(b)) => {
            let bound = spec.bound.unwrap_or(0.0);
            let worse_by =
                if spec.higher_is_better { a.median - b.median } else { b.median - a.median }
                    / a.median.abs();
            let every_run_better = change.iter().all(|&y| base.iter().all(|&x| better(y, x)));
            if win_share >= 0.9
                && (b.median - a.median).abs() > (a.q3 - a.q1)
                && better(b.median, a.median)
            {
                Verdict::Improved
            } else if a.relative_spread().max(b.relative_spread()) > bound && !every_run_better {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Regressed
            } else {
                Verdict::NoWorse
            }
        }
        _ => Verdict::Unresolved,
    };
    Row {
        workload: String::new(),
        metric: spec.name.clone(),
        base: qa,
        change: qb,
        pairs: pairs.len(),
        win_share,
        verdict,
    }
}

/// Compares every workload × end-to-end metric of two record sets.
pub fn compare(spec: &Spec, base: &[RunRecord], change: &[RunRecord]) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        let of = |set: &[RunRecord]| -> Vec<RunRecord> {
            let mut v: Vec<RunRecord> =
                set.iter().filter(|r| &r.workload == workload).cloned().collect();
            v.sort_by_key(|r| r.seed);
            v
        };
        let (a, b) = (of(base), of(change));
        if a.is_empty() && b.is_empty() {
            continue;
        }
        for m in &spec.end_to_end {
            let values = |set: &[RunRecord]| -> Vec<f64> {
                set.iter().filter_map(|r| r.metrics.get(&m.name).copied()).collect()
            };
            let pairs: Vec<(f64, f64)> = a
                .iter()
                .filter_map(|ra| {
                    let rb = b.iter().find(|rb| rb.seed == ra.seed)?;
                    Some((*ra.metrics.get(&m.name)?, *rb.metrics.get(&m.name)?))
                })
                .collect();
            let mut row = judge(m, &values(&a), &values(&b), &pairs);
            row.workload = workload.clone();
            rows.push(row);
        }
    }
    rows
}

/// A fixed-width table of `rows`.
pub fn render(rows: &[Row]) -> String {
    let q = |q: Option<Quartiles>| {
        q.map_or("-".to_string(), |q| format!("{:.6} [{:.6}, {:.6}]", q.median, q.q1, q.q3))
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<13} {:<17} {:<40} {:<40} {:>6} {:>9}  verdict",
        "workload",
        "metric",
        "base median [q1, q3]",
        "change median [q1, q3]",
        "pairs",
        "win share"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<13} {:<17} {:<40} {:<40} {:>6} {:>9.2}  {}",
            r.workload,
            r.metric,
            q(r.base),
            q(r.change),
            r.pairs,
            r.win_share,
            r.verdict.label()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    fn paired(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    #[test]
    fn same_values_are_no_worse() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let row = judge(&metric(false, 0.1), &a, &a, &paired(&a, &a));
        assert_eq!(row.verdict, Verdict::NoWorse);
        assert_eq!(row.win_share, 0.0, "ties count for neither side");
    }

    #[test]
    fn a_consistent_large_gain_is_improved() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let b = [8.0, 8.1, 7.9, 8.0, 8.05];
        let row = judge(&metric(false, 0.1), &a, &b, &paired(&a, &b));
        assert_eq!(row.verdict, Verdict::Improved);
        assert_eq!(row.win_share, 1.0);
        // The same move on a higher-is-better metric is a regression.
        let row = judge(&metric(true, 0.1), &a, &b, &paired(&a, &b));
        assert_eq!(row.verdict, Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = [5.0, 10.0, 15.0, 10.0, 12.0];
        let b = [11.0, 6.0, 14.0, 10.0, 9.0];
        let row = judge(&metric(false, 0.1), &a, &b, &paired(&a, &b));
        assert_eq!(row.verdict, Verdict::Unresolved);
    }

    #[test]
    fn too_few_runs_are_unresolved() {
        let row = judge(&metric(false, 0.1), &[1.0], &[1.0], &[(1.0, 1.0)]);
        assert_eq!(row.verdict, Verdict::Unresolved);
    }

    #[test]
    fn records_round_trip_through_the_parser() {
        let text = r#"{"workload": "goals", "seed": 7, "traced": false, "correct": true,
            "attempted": 3, "failed": 0,
            "metrics": {"latency_p50_ms": {"value": 0.25, "unit": "ms", "samples": 3}}}"#;
        let r = RunRecord::parse(text).unwrap();
        assert_eq!((r.workload.as_str(), r.seed), ("goals", 7));
        assert_eq!(r.metrics["latency_p50_ms"], 0.25);
    }
}
