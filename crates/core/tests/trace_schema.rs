//! Validates `dmlc check --trace-out` output against the trace schema
//! documented in `docs/ARCHITECTURE.md` ("Trace-event schema"), read back
//! with the workspace's own JSON parser. CI checks the same file with
//! Python's `json` module as an independent validator.

use dml::{chrome_trace, Compiler};
use dml_obs::json::Json;

/// Every tag of schema version 2.
const KNOWN_TAGS: &[&str] = &[
    "obligation",
    "fast_path",
    "canonicalized",
    "hypothesis_dropped",
    "lowered",
    "dnf",
    "system_start",
    "tightened",
    "eliminate",
    "contradiction",
    "fuel",
    "witness",
    "residual",
    "verdict",
];

#[test]
fn trace_out_json_matches_documented_schema() {
    let src = include_str!("../../../examples/residual.dml");
    let compiled = Compiler::new().compile(src).expect("compiles");
    let rendered = chrome_trace(&compiled, src, "residual.dml").render();
    let root = Json::parse(&rendered).expect("trace is valid JSON");

    // Top level: traceEvents array, displayTimeUnit, otherData object.
    let events = root.get("traceEvents").expect("traceEvents").as_array().expect("array");
    assert!(!events.is_empty());
    assert_eq!(root.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
    let other = root.get("otherData").expect("otherData");
    assert_eq!(other.get("schemaVersion").unwrap().as_i64(), Some(2));
    for key in ["program", "constraints", "goals", "fuelSpent", "cacheShardSizes"] {
        assert!(other.get(key).is_some(), "otherData.{key} missing");
    }
    let shards = other.get("cacheShardSizes").unwrap().as_array().unwrap();
    assert_eq!(shards.len(), 16, "one entry per verdict-cache shard");

    // Every event: ph in X|i|M, integer pid/tid; spans carry ts+dur+args.
    let mut goal_spans = 0usize;
    for ev in events {
        let ph = ev.get("ph").expect("ph").as_str().expect("ph is a string");
        assert!(matches!(ph, "X" | "i" | "M"), "unknown phase {ph:?}");
        assert!(ev.get("pid").unwrap().as_i64().is_some());
        assert!(ev.get("tid").unwrap().as_i64().is_some());
        match ph {
            "X" => {
                assert!(ev.get("ts").unwrap().as_f64().is_some());
                assert!(ev.get("dur").unwrap().as_f64().is_some());
                let name = ev.get("name").unwrap().as_str().unwrap();
                if let Some(rest) = name.strip_prefix("goal ") {
                    goal_spans += 1;
                    assert!(rest.parse::<usize>().is_ok(), "goal span name {name:?}");
                    let args = ev.get("args").unwrap();
                    assert!(args.get("verdict").unwrap().as_str().is_some());
                    assert!(args.get("fuel").unwrap().as_f64().is_some());
                    assert!(args.get("wall_ns").unwrap().as_f64().is_some());
                    for entry in args.get("events").unwrap().as_array().unwrap() {
                        let tag = entry.get("tag").unwrap().as_str().unwrap();
                        assert!(KNOWN_TAGS.contains(&tag), "unknown event tag {tag:?}");
                        assert!(entry.get("args").is_some());
                    }
                }
            }
            "i" => {
                assert_eq!(ev.get("s").unwrap().as_str(), Some("g"));
                assert!(ev.get("ts").unwrap().as_f64().is_some());
            }
            "M" => assert_eq!(ev.get("name").unwrap().as_str(), Some("thread_name")),
            _ => unreachable!(),
        }
    }
    assert_eq!(goal_spans, compiled.stats().goals, "one span per solver goal");
    assert!(!rendered.contains(r#""tag":"cache""#), "schema 2 has no cache event");

    // The residual example keeps a nonlinear check: a residual instant and
    // a nonzero Unknown verdict must be present.
    assert!(rendered.contains(r#""name":"residual: sub""#), "{rendered}");
    assert!(rendered.contains("non-linear"), "{rendered}");
}
