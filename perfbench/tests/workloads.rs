//! Every workload, at `--smoke` sizes: no failed check, and exactly the
//! metrics `BENCHMARK.json` lists, in its order and with its units.

use perfbench::inputs::Sizes;
use perfbench::report::Report;
use perfbench::spec::spec;
use perfbench::workloads::{run, RunConfig, WORKLOADS};
use std::path::PathBuf;

fn smoke(workload: &str, traced: bool) -> Report {
    let cfg = RunConfig {
        seed: 17,
        seconds: 0.2,
        traced,
        sizes: Sizes::SMOKE,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    };
    let output = run(workload, &cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert_eq!(output.spans.is_some(), traced, "{workload}: spans exactly when traced");
    let mut report = output.report;
    report.conform(spec()).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(report.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(report.failed, 0, "{workload}: {:?}", report.failures);
    report
}

fn names(report: &Report) -> Vec<&str> {
    report.metrics().iter().map(|m| m.name.as_str()).collect()
}

#[test]
fn workloads_match_the_spec() {
    assert_eq!(spec().workloads, WORKLOADS);
}

#[test]
fn untraced_smoke_runs_are_clean_and_print_every_end_to_end_metric() {
    let wanted: Vec<&str> = spec().end_to_end.iter().map(|m| m.name.as_str()).collect();
    for w in WORKLOADS {
        let report = smoke(w, false);
        assert_eq!(names(&report), wanted, "{w}");
        for m in report.metrics() {
            assert!(m.value > 0.0 && m.samples > 0, "{w}: {m:?} must never be 0");
        }
        let line = perfbench::report::Report::result_line(&report);
        let parsed = dml::serve::Value::parse(&line).expect("result line is JSON");
        let dml::serve::Value::Object(fields) = parsed else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{w}");
    }
}

#[test]
fn traced_smoke_runs_are_clean_and_print_every_per_layer_metric() {
    let wanted: Vec<&str> = spec().per_layer.iter().map(|m| m.name.as_str()).collect();
    for w in WORKLOADS {
        let report = smoke(w, true);
        assert_eq!(names(&report), wanted, "{w}");
        let measured = |name: &str| {
            report.metrics().iter().find(|m| m.name == name).is_some_and(|m| m.samples > 0)
        };
        assert!(measured("bench.tracing_overhead_pct"), "{w}: tracing overhead reported");
        if w == "batch" || w == "megafile" {
            assert!(measured("core.unaccounted_pct"), "{w}: unaccounted share reported");
            assert!(measured("elab.obligations"), "{w}: generation layers measured");
        }
    }
}
