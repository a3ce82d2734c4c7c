//! In-memory spans around the calls the traced run makes into each layer.
//!
//! A span has a name, start, end, the span that caused it and the request
//! it served. Spans and counts are kept in memory and written out once,
//! when the run ends. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover (children on other
//! threads may overlap; their union is what is subtracted).

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request this span served, if any.
    pub request: Option<u64>,
    /// Layer-qualified name, e.g. `server.http.parse`.
    pub name: &'static str,
    /// Start, ns after the tracer was created.
    pub start_ns: u64,
    /// End, ns after the tracer was created.
    pub end_ns: u64,
}

/// Collects spans and counts from any thread.
pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    /// Reserve a span id (to hand to children before the span closes).
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span with the reserved id `id`.
    pub fn span_with<R>(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("tracer lock poisoned by a panicking probe")
            .push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        r
    }

    /// Run `f` inside a fresh span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        self.span_with(self.id(), name, parent, request, f)
    }

    /// Add `n` to the count `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self
            .counts
            .lock()
            .expect("tracer lock poisoned by a panicking probe")
            .entry(name)
            .or_insert(0) += n;
    }

    /// Everything recorded so far.
    pub fn finish(self) -> (Vec<Span>, BTreeMap<&'static str, u64>) {
        (
            self.spans
                .into_inner()
                .expect("tracer lock poisoned by a panicking probe"),
            self.counts
                .into_inner()
                .expect("tracer lock poisoned by a panicking probe"),
        )
    }
}

/// Per span name: how many spans, their total duration and their total
/// self time, in ns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus child coverage).
    pub self_ns: u64,
}

/// Self time of every span, aggregated by name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| coverage(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered.min(dur);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn coverage(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Write spans (one JSON object per line) and counts to `path`.
pub fn write(
    path: &std::path::Path,
    spans: &[Span],
    counts: &BTreeMap<&'static str, u64>,
) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            f,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            opt(s.parent),
            opt(s.request),
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    for (k, v) in counts {
        writeln!(f, "{{\"count\":\"{k}\",\"value\":{v}}}")?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: Some(1),
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_coverage() {
        // root [0,100]: children [10,30] and [20,50] overlap (union 40) and
        // [90,120] sticks out past the root (only 10 counts).
        // child 2 [10,30] has a grandchild [12,18]: self 20 - 6 = 14.
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 30),
            span(3, Some(1), "a", 20, 50),
            span(4, Some(1), "b", 90, 120),
            span(5, Some(2), "c", 12, 18),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["root"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t["a"],
            LayerTime {
                count: 2,
                total_ns: 50,
                self_ns: 14 + 30
            }
        );
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["c"].self_ns, 6);
    }

    #[test]
    fn child_covering_everything_leaves_no_self_time() {
        let spans = vec![span(1, None, "root", 5, 10), span(2, Some(1), "x", 0, 20)];
        assert_eq!(self_times(&spans)["root"].self_ns, 0);
    }

    #[test]
    fn tracer_records_nesting_and_counts() {
        let t = Tracer::default();
        let root = t.id();
        t.span_with(root, "root", None, Some(7), || {
            t.span("child", Some(root), Some(7), || t.count("work", 3));
        });
        t.count("work", 2);
        let (spans, counts) = t.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(root));
        assert_eq!(counts["work"], 5);
        let times = self_times(&spans);
        assert!(times["root"].self_ns <= times["root"].total_ns);
    }
}
