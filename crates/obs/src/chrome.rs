//! Chrome trace-event-format writer.
//!
//! Produces the JSON Object Format understood by `chrome://tracing` and
//! Perfetto: a top-level object with a `traceEvents` array of complete
//! (`"ph":"X"`) and instant (`"ph":"i"`) events, plus `otherData` metadata.
//! `dmlc check --trace-out` uses this to lay out pipeline phases and
//! per-goal solver spans on a timeline.
//!
//! Timestamps (`ts`) and durations (`dur`) are microseconds, per the
//! format. The goal spans written by the pipeline are laid out
//! *sequentially* from measured per-goal durations — a synthetic timeline
//! that reflects cost per goal, not concurrent wall-clock scheduling.

use crate::json::{obj, Json};

/// Builder for one Chrome-format trace file.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<Json>,
    other: Vec<(String, Json)>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a complete (`"ph":"X"`) span. `ts_us`/`dur_us` are microseconds;
    /// `tid` picks the timeline row.
    pub fn span(&mut self, name: &str, cat: &str, tid: u32, ts_us: u64, dur_us: u64, args: Json) {
        self.events.push(obj(vec![
            ("name", Json::Str(name.to_string())),
            ("cat", Json::Str(cat.to_string())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Int(ts_us as i64)),
            ("dur", Json::Int(dur_us as i64)),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(i64::from(tid))),
            ("args", args),
        ]));
    }

    /// Add a global instant (`"ph":"i"`) event.
    pub fn instant(&mut self, name: &str, cat: &str, tid: u32, ts_us: u64, args: Json) {
        self.events.push(obj(vec![
            ("name", Json::Str(name.to_string())),
            ("cat", Json::Str(cat.to_string())),
            ("ph", Json::Str("i".into())),
            ("s", Json::Str("g".into())),
            ("ts", Json::Int(ts_us as i64)),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(i64::from(tid))),
            ("args", args),
        ]));
    }

    /// Name a timeline row via a `thread_name` metadata event.
    pub fn name_thread(&mut self, tid: u32, name: &str) {
        self.events.push(obj(vec![
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(i64::from(tid))),
            ("args", obj(vec![("name", Json::Str(name.to_string()))])),
        ]));
    }

    /// Attach a key under the top-level `otherData` object.
    pub fn meta(&mut self, key: &str, value: Json) {
        self.other.push((key.to_string(), value));
    }

    /// Number of events added so far (metadata events included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no events were added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Render the complete trace file.
    pub fn render(&self) -> String {
        let mut other =
            vec![("schemaVersion".to_string(), Json::Int(i64::from(crate::SCHEMA_VERSION)))];
        other.extend(self.other.iter().cloned());
        obj(vec![
            ("traceEvents", Json::Array(self.events.clone())),
            ("displayTimeUnit", Json::Str("ms".into())),
            ("otherData", Json::Object(other)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_loadable_shape() {
        let mut t = ChromeTrace::new();
        t.name_thread(0, "pipeline");
        t.span("solve", "solver", 0, 10, 250, obj(vec![("goals", Json::Int(3))]));
        t.instant("residual", "elab", 0, 260, Json::Object(vec![]));
        t.meta("program", Json::Str("bsearch".into()));
        let out = t.render();
        assert!(out.starts_with(r#"{"traceEvents":["#));
        assert!(out.contains(r#""ph":"X","ts":10,"dur":250"#));
        assert!(out.contains(r#""ph":"i","s":"g""#));
        assert!(out.contains(r#""schemaVersion":2"#));
        assert!(out.contains(r#""program":"bsearch""#));
        assert!(out.ends_with("}"));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn non_ascii_goal_labels_survive_escaping() {
        // Goal labels come from user source (variable names, notes) and
        // may carry non-ASCII. JSON only *requires* escaping quotes,
        // backslashes, and control characters; multi-byte UTF-8 passes
        // through raw and must not be mangled or double-escaped.
        let mut t = ChromeTrace::new();
        t.span("0 ≤ ν∧ν < länge", "solver", 0, 0, 5, Json::Object(vec![]));
        t.name_thread(0, "goals — φ");
        let out = t.render();
        assert!(out.contains(r#""name":"0 ≤ ν∧ν < länge""#), "raw UTF-8 must pass through: {out}");
        assert!(out.contains(r#""name":"goals — φ""#));
        assert!(!out.contains("\\u00"), "no spurious unicode escapes: {out}");
    }

    #[test]
    fn control_chars_and_quotes_in_labels_are_escaped() {
        let mut t = ChromeTrace::new();
        t.instant("a\"b\\c\nd\te\u{1}f", "cat", 0, 0, Json::Object(vec![]));
        let out = t.render();
        let expected = concat!(r#""name":"a\"b\\c\nd\te"#, "\\u0001", r#"f""#);
        assert!(out.contains(expected), "{out}");
    }
}
