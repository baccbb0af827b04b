//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions: a name, start and end relative to the recorder's
//! origin, the enclosing span, and the request the span belongs to.
//! Nothing is written until the run ends ([`Recorder::to_json`]).

use dml_obs::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `types.phase1`.
    pub name: &'static str,
    /// Free-form tag (edit kind, program and variant), empty when unused.
    pub tag: String,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (file, goal, edit, binary run) the span belongs to.
    pub request: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans; nesting follows the call structure of
/// [`Recorder::span`].
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Runs `f` inside a span named `name`. Spans opened inside `f` become
    /// its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        self.tagged_span(name, String::new(), request, f)
    }

    /// [`Recorder::span`] with a tag.
    pub fn tagged_span<T>(
        &mut self,
        name: &'static str,
        tag: String,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, tag, start_ns: 0, end_ns: 0, parent, request });
        self.open.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of the spans named `name` (and tagged
    /// `tag`, when given), in opening order.
    pub fn durations_ms(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Total duration in milliseconds of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name, None).iter().sum()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Self time in milliseconds summed per span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// The spans as a JSON array, each with its self time.
    pub fn to_json(&self) -> Json {
        let own = self.self_times_ns();
        Json::Array(
            self.spans
                .iter()
                .zip(own)
                .map(|(s, own)| {
                    obj(vec![
                        ("name", Json::Str(s.name.to_string())),
                        ("tag", Json::Str(s.tag.clone())),
                        ("start_ns", Json::Int(s.start_ns as i64)),
                        ("end_ns", Json::Int(s.end_ns as i64)),
                        ("self_ns", Json::Int(own as i64)),
                        ("parent", s.parent.map_or(Json::Int(-1), |p| Json::Int(p as i64))),
                        ("request", Json::Int(s.request as i64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, tag: String::new(), start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let rec = Recorder {
            origin: Instant::now(),
            spans: vec![
                span("root", 0, 100, None),
                span("a", 10, 40, Some(0)),
                // Overlaps `a`: the union 10..60 is covered once, not twice.
                span("b", 30, 60, Some(0)),
                span("leaf", 35, 45, Some(2)),
                span("c", 90, 120, Some(0)),
            ],
            open: Vec::new(),
        };
        // root: 100 - (10..60 + 90..100) = 40; b: 30 - 10 = 20.
        assert_eq!(rec.self_times_ns(), vec![40, 30, 20, 10, 30]);
        let by_name = rec.self_ms_by_name();
        assert_eq!(by_name["root"], 40.0 / 1e6);
    }

    #[test]
    fn nested_spans_record_parents_and_requests() {
        let mut rec = Recorder::new();
        let v = rec.span("outer", 7, |rec| rec.span("inner", 7, |_| std::hint::black_box(41)) + 1);
        assert_eq!(v, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let own = rec.self_times_ns();
        assert_eq!(own[0] + own[1], spans[0].duration_ns());
    }
}
