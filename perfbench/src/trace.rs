//! The span recorder of the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call it
//! makes into a layer's public functions; nothing inside the program is
//! instrumented. A span has a layer, a name, a start and an end (seconds
//! since the recorder's origin), the span that caused it, and a request
//! id shared by every span of one operation. Spans stay in memory until
//! the run ends.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its children cover. Children may overlap — two scheduler workers
//! run jobs under one search span at once — so coverage is the length of
//! the union of the children's intervals, clipped to the parent.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub req: u64,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Thread-safe in-memory span store.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the recorder was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent further spans.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(Span {
                layer,
                name,
                parent,
                req,
                start: self.now(),
                end: f64::NAN,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now();
        self.spans.lock().expect("span store poisoned")[id].end = end;
        out
    }

    /// [`span`](Self::span) for a call whose result the caller keeps
    /// itself; returns the span's duration in seconds.
    pub fn timed(
        &self,
        layer: &'static str,
        name: &'static str,
        req: u64,
        f: impl FnOnce(),
    ) -> f64 {
        let start = self.now();
        f();
        let end = self.now();
        self.record(Span {
            layer,
            name,
            parent: None,
            req,
            start,
            end,
        });
        end - start
    }

    /// Records an already-measured interval.
    pub fn record(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        spans.len() - 1
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Total length of the union of `intervals`.
pub fn union_len(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            children[p].push((s.start.max(parent.start), s.end.min(parent.end)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration() - union_len(kids))
        .collect()
}

/// Per layer: (span count, summed duration, summed self time).
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, self_time) in spans.iter().zip(own) {
        let e = out.entry(s.layer).or_default();
        e.0 += 1;
        e.1 += s.duration();
        e.2 += self_time;
    }
    out
}

/// Share of `[from, to]` that no span of a layer other than `root_layer`
/// covers (the operation spans the benchmark wraps around each call
/// belong to `root_layer` and do not count as coverage).
pub fn uncovered_frac(spans: &[Span], root_layer: &str, from: f64, to: f64) -> f64 {
    let mut iv: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.layer != root_layer)
        .map(|s| (s.start.max(from), s.end.min(to)))
        .collect();
    let wall = to - from;
    if wall <= 0.0 {
        return 0.0;
    }
    1.0 - union_len(&mut iv) / wall
}

/// Summed duration per request id of spans named `name`.
pub fn per_request(spans: &[Span], name: &str) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.req).or_insert(0.0) += s.duration();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<SpanId>, start: f64, end: f64) -> Span {
        Span {
            layer,
            name: layer,
            parent,
            req: 0,
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_skips_empty_intervals() {
        assert_eq!(union_len(&mut [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(union_len(&mut [(4.0, 4.0), (2.0, 1.0)]), 0.0);
        assert_eq!(union_len(&mut []), 0.0);
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        // root [0, 10]; one child [2, 5]; a grandchild [3, 4].
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 2.0, 5.0),
            span("b", Some(1), 3.0, 4.0),
        ];
        assert_eq!(self_times(&spans), vec![7.0, 2.0, 1.0]);
    }

    #[test]
    fn overlapping_children_from_two_workers_count_once() {
        // Two workers run jobs under one search: [1, 6] and [2, 8]
        // overlap on [2, 6]; the union covers [1, 8] = 7 of the 10.
        let spans = vec![
            span("search", None, 0.0, 10.0),
            span("job", Some(0), 1.0, 6.0),
            span("job", Some(0), 2.0, 8.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 3.0);
        // Self times never go negative, and per-layer sums keep the
        // summed (not unioned) duration of the busy layer.
        let totals = layer_totals(&spans);
        assert_eq!(totals["job"], (2, 11.0, 11.0));
        assert_eq!(totals["search"], (1, 10.0, 3.0));
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("p", None, 0.0, 4.0), span("c", Some(0), 3.0, 9.0)];
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn uncovered_share_ignores_the_operation_spans() {
        let spans = vec![
            span("bench", None, 0.0, 10.0),
            span("kernels", Some(0), 0.0, 4.0),
            span("scheduler", Some(0), 3.0, 6.0),
        ];
        let u = uncovered_frac(&spans, "bench", 0.0, 10.0);
        assert!((u - 0.4).abs() < 1e-12, "{u}");
    }

    #[test]
    fn recorder_nests_spans_across_threads() {
        let rec = Recorder::new();
        rec.span("bench", "op", None, 7, |root| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| rec.span("scheduler", "job", Some(root), 7, |_| ()));
                }
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.req == 7 && s.end >= s.start));
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert!(self_times(&spans).iter().all(|&t| t >= 0.0));
    }
}
