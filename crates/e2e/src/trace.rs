//! Bench-side spans: recorded around calls into public functions only,
//! kept in memory, written as one JSON array when the run ends.
//!
//! A span is `(id, parent, name, start, end)` on the recorder's clock. Two
//! kinds are not timed directly: *synthesised* spans, laid out from timings a
//! public result struct reports (`RpaResult`), and *folded* spans, which
//! stand for `count` short calls whose accumulated time is `end − start`
//! (one span per operator application would outweigh the applications).

use mbrpa_serve::json::{obj, s, JsonValue};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub parent: Option<SpanId>,
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    /// Calls this span stands for (1 unless folded).
    pub count: u64,
    /// How the interval was obtained: `timed`, `synthesised` or `folded`.
    pub kind: &'static str,
}

pub struct Recorder {
    epoch: Instant,
    /// One id per workload run, shared by every span of the run.
    pub run_id: String,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(run_id: String) -> Self {
        Recorder {
            epoch: Instant::now(),
            run_id,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// An instant taken elsewhere, on this recorder's clock.
    pub fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64()
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Open a timed span; close it with [`Recorder::end`].
    pub fn begin(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.now();
        self.push(Span {
            parent,
            name: name.to_string(),
            start_s: now,
            end_s: now,
            count: 1,
            kind: "timed",
        })
    }

    /// Close a span and return its duration in seconds.
    pub fn end(&self, id: SpanId) -> f64 {
        let now = self.now();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans[id].end_s = now;
        now - spans[id].start_s
    }

    /// Time `f` as a child of `parent`; returns its result and duration.
    pub fn time<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, f64) {
        let id = self.begin(name, parent);
        let out = f(id);
        (out, self.end(id))
    }

    /// Record an interval that was not timed by this recorder.
    pub fn add(
        &self,
        name: &str,
        parent: Option<SpanId>,
        start_s: f64,
        duration_s: f64,
        count: u64,
        kind: &'static str,
    ) -> SpanId {
        self.push(Span {
            parent,
            name: name.to_string(),
            start_s,
            end_s: start_s + duration_s,
            count,
            kind,
        })
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Seconds of `parent`'s interval covered by at least one direct child
/// (children clipped to the parent, overlaps counted once).
pub fn child_coverage(spans: &[Span], parent: SpanId) -> f64 {
    let (lo, hi) = (spans[parent].start_s, spans[parent].end_s);
    let mut parts: Vec<(f64, f64)> = spans
        .iter()
        .filter(|c| c.parent == Some(parent))
        .map(|c| (c.start_s.max(lo), c.end_s.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    parts.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut cursor = lo;
    for (a, b) in parts {
        if b > cursor {
            covered += b - a.max(cursor);
            cursor = b;
        }
    }
    covered
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_time(spans: &[Span], id: SpanId) -> f64 {
    spans[id].end_s - spans[id].start_s - child_coverage(spans, id)
}

/// Total self time per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, f64, u64)> {
    let mut rows: Vec<(String, f64, u64)> = Vec::new();
    for (id, span) in spans.iter().enumerate() {
        let t = self_time(spans, id);
        match rows.iter_mut().find(|r| r.0 == span.name) {
            Some(row) => {
                row.1 += t;
                row.2 += span.count;
            }
            None => rows.push((span.name.clone(), t, span.count)),
        }
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

pub fn to_json(run_id: &str, spans: &[Span]) -> JsonValue {
    let items = spans
        .iter()
        .enumerate()
        .map(|(id, sp)| {
            obj(vec![
                ("id", JsonValue::Num(id as f64)),
                (
                    "parent",
                    sp.parent
                        .map_or(JsonValue::Null, |p| JsonValue::Num(p as f64)),
                ),
                ("name", s(&sp.name)),
                ("start_s", JsonValue::Num(sp.start_s)),
                ("end_s", JsonValue::Num(sp.end_s)),
                ("self_s", JsonValue::Num(self_time(spans, id))),
                ("count", JsonValue::Num(sp.count as f64)),
                ("kind", s(sp.kind)),
            ])
        })
        .collect();
    obj(vec![
        ("run_id", s(run_id)),
        ("spans", JsonValue::Arr(items)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, name: &str, start_s: f64, end_s: f64) -> Span {
        Span {
            parent,
            name: name.to_string(),
            start_s,
            end_s,
            count: 1,
            kind: "timed",
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root 0..10; children 1..4 and 3..6 overlap (union 5 s); a third
        // child sticks out past the parent and is clipped to 9..10
        let spans = vec![
            span(None, "root", 0.0, 10.0),
            span(Some(0), "a", 1.0, 4.0),
            span(Some(0), "b", 3.0, 6.0),
            span(Some(0), "c", 9.0, 12.0),
            span(Some(1), "leaf", 1.5, 2.0),
        ];
        assert!((child_coverage(&spans, 0) - 6.0).abs() < 1e-12);
        assert!((self_time(&spans, 0) - 4.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 2.5).abs() < 1e-12);
        assert!((self_time(&spans, 4) - 0.5).abs() < 1e-12);
        // grandchildren do not count against the root
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0].0, "root");
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let rec = Recorder::new("run-1".to_string());
        let (inner, outer_s) = rec.time("outer", None, |outer| {
            rec.time("inner", Some(outer), |_| 7).0
        });
        assert_eq!(inner, 7);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_s - spans[0].start_s <= outer_s + 1e-9);
        let doc = to_json(&rec.run_id, &spans);
        let text = doc.to_json();
        let back = mbrpa_serve::json::parse(&text).unwrap();
        assert_eq!(back.get("spans").unwrap().as_arr().unwrap().len(), 2);
    }
}
