//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each
//! layer's public functions (the program itself carries no spans), kept
//! in memory, and written out once when the run ends. Each span has a
//! name, start, end, parent and query id; a layer's self time is its
//! span duration minus the part its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::metrics::json_str;

/// One finished span. Times are seconds since the tracer started.
pub struct Span {
    pub name: &'static str,
    /// Free-form detail, e.g. the kernel a `gpu_sim.launch` replayed.
    pub detail: String,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub query: Option<u64>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Single-threaded span recorder: the benchmark drives every layer
/// from one thread, so an open-span stack gives each span its parent.
pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.t0.elapsed().as_secs_f64();
        self.tracer.spans.borrow_mut()[self.id].end_s = end;
        // Guards are scoped, so the innermost open span is this one.
        self.tracer.open.borrow_mut().pop();
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn span(&self, name: &'static str, detail: &str, query: Option<u64>) -> SpanGuard<'_> {
        let start = self.t0.elapsed().as_secs_f64();
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name,
            detail: detail.to_string(),
            start_s: start,
            end_s: start,
            parent,
            query,
        });
        self.open.borrow_mut().push(id);
        SpanGuard { tracer: self, id }
    }

    /// Records an already-finished interval (for events timed elsewhere,
    /// such as a query's completion observed after the fact).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        query: Option<u64>,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            detail: String::new(),
            start_s: at(start),
            end_s: at(end),
            parent,
            query,
        });
        spans.len() - 1
    }

    /// Index of the innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.borrow().last().copied()
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Total duration of spans named `name` recorded at index `from`
    /// or later.
    pub fn total_s(&self, name: &str, from: usize) -> f64 {
        self.spans.borrow()[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .sum()
    }

    /// Number of spans per name.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for s in self.spans.borrow().iter() {
            *out.entry(s.name).or_insert(0) += 1;
        }
        out
    }

    /// Self time per span name: duration minus the union of its
    /// children's intervals (sibling query spans overlap, so the union
    /// rather than the sum is subtracted).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_s, s.end_s));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_s), b.min(s.end_s));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            *out.entry(s.name).or_insert(0.0) += (s.duration_s() - covered).max(0.0);
        }
        out
    }

    /// All spans plus the run context, as one JSON document.
    pub fn to_json(&self, context: &[(&str, String)]) -> String {
        let mut s = String::from("{\n  \"context\": {");
        for (i, (k, v)) in context.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}: {}", json_str(k), json_str(v));
        }
        s.push_str("},\n  \"self_time_s\": {");
        for (i, (k, v)) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}: {v}", json_str(k));
        }
        s.push_str("},\n  \"spans\": [\n");
        let spans = self.spans.borrow();
        for (i, sp) in spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let query = sp.query.map_or("null".to_string(), |q| q.to_string());
            let comma = if i + 1 < spans.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"id\": {i}, \"name\": {}, \"detail\": {}, \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}, \"query\": {query}}}{comma}",
                json_str(sp.name),
                json_str(&sp.detail),
                sp.start_s,
                sp.end_s
            );
        }
        s.push_str("  ]\n}\n");
        s
    }
}
