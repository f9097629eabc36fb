//! In-memory spans recorded by the benchmark's own code around calls into
//! the library's public functions. Spans are written once, at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// How a span relates to its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Runs inside the parent's interval.
    Nested,
    /// Re-executes part of the parent's work after the parent ended (the
    /// replay of a real call through public functions).
    Replay,
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Name of the timed call.
    pub name: String,
    /// Request the span belongs to.
    pub request: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Relation to the parent.
    pub link: Link,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    /// Every span, in start order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &str, request: u64, parent: Option<usize>, link: Link) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            request,
            parent,
            link,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Records a span around `f`.
    pub fn time<T>(
        &mut self,
        name: &str,
        request: u64,
        parent: Option<usize>,
        link: Link,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request, parent, link);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another thread's spans, re-indexing their parents.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The trace as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let link = match s.link {
                Link::Nested => "nested",
                Link::Replay => "replay",
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"link\":\"{link}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.request,
                s.start_ns,
                s.end_ns,
                self_time_ns(&self.spans, i)
            );
        }
        out
    }
}

/// Self time of span `id`: its duration minus the part covered by its
/// children. Nested children cover the union of their intervals, clipped
/// to the parent's; a replayed child covers its whole duration. The
/// result is negative when a replay took longer than the real call.
pub fn self_time_ns(spans: &[Span], id: usize) -> i64 {
    let parent = &spans[id];
    let mut nested: Vec<(u64, u64)> = Vec::new();
    let mut replayed = 0u64;
    for s in spans.iter().filter(|s| s.parent == Some(id)) {
        match s.link {
            Link::Replay => replayed += s.duration_ns(),
            Link::Nested => {
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if a < b {
                    nested.push((a, b));
                }
            }
        }
    }
    nested.sort_unstable();
    let mut covered = 0u64;
    let mut reach = 0u64;
    for (a, b) in nested {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent.duration_ns() as i64 - covered as i64 - replayed as i64
}

/// `1 − Σ children / root` for span `root`, by durations.
pub fn unattributed_share(spans: &[Span], root: usize) -> f64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(Span::duration_ns)
        .sum();
    1.0 - children as f64 / spans[root].duration_ns().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, link: Link, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s".to_string(),
            request: 1,
            parent,
            link,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_subtract_their_union() {
        let spans = vec![
            span(None, Link::Nested, 0, 100),
            span(Some(0), Link::Nested, 10, 30),
            span(Some(0), Link::Nested, 20, 50), // overlaps the first
            span(Some(0), Link::Nested, 90, 130), // runs past the parent
            span(Some(1), Link::Nested, 12, 18), // grandchild: not the root's
        ];
        // Covered: [10, 50) ∪ [90, 100) = 50.
        assert_eq!(self_time_ns(&spans, 0), 50);
        assert_eq!(self_time_ns(&spans, 1), 14);
        assert_eq!(self_time_ns(&spans, 4), 6);
    }

    #[test]
    fn replayed_children_subtract_their_durations() {
        let spans = vec![
            span(None, Link::Nested, 0, 100),
            span(Some(0), Link::Replay, 200, 260),
            span(Some(0), Link::Replay, 260, 290),
            span(Some(2), Link::Nested, 265, 285),
        ];
        assert_eq!(self_time_ns(&spans, 0), 10);
        assert_eq!(self_time_ns(&spans, 2), 10);
        assert!((unattributed_share(&spans, 0) - 0.1).abs() < 1e-12);
        // A replay slower than the real call leaves negative self time.
        let slow = vec![
            span(None, Link::Nested, 0, 100),
            span(Some(0), Link::Replay, 100, 220),
        ];
        assert_eq!(self_time_ns(&slow, 0), -20);
    }

    #[test]
    fn absorb_reindexes_parents() {
        let epoch = Instant::now();
        let mut a = Trace::new(epoch);
        a.time("a", 1, None, Link::Nested, || ());
        let mut b = Trace::new(epoch);
        let root = b.begin("root", 2, None, Link::Nested);
        b.time("child", 2, Some(root), Link::Nested, || ());
        b.end(root);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert!(a.to_jsonl().lines().count() == 3);
    }
}
