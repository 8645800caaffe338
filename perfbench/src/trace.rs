//! In-memory span tracer for the traced run mode.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a public layer function (`geometry.read_sgmy`, `core.step`, ...), never
//! inside the program. Each span carries its name, start and end (ns
//! since the tracer was created), the span that caused it and a request
//! id shared by the spans of one operation. Spans stay in memory until
//! the run ends and are then written out as JSON lines.
//!
//! A disabled tracer runs the wrapped call and nothing else, so the
//! timed (untraced) run pays one branch per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Unique id (1-based; 0 is never used).
    pub id: u64,
    /// Span that caused this one, if any.
    pub parent: Option<u64>,
    /// Operation this span belongs to (step, frame, job round, ...).
    pub request: u64,
    /// `layer.call`, e.g. `core.step`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl SpanRec {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    /// Open spans of the current thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder shared by every thread of a run.
pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer that records only once [`Tracer::set_enabled`] turns it on.
    pub fn new() -> Self {
        Tracer {
            on: AtomicBool::new(false),
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turn recording on or off. Toggled between phases, while no other
    /// thread records (the ranks wait at a barrier around the toggle).
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::SeqCst)
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for operation `request`. The
    /// parent is the innermost span open on this thread (see
    /// [`Tracer::adopt`] for spans started on another thread).
    pub fn span<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| s.borrow().last().copied());
        STACK.with(|s| s.borrow_mut().push(id));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(SpanRec {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// The innermost span open on this thread, to hand to worker
    /// threads through [`Tracer::adopt`].
    pub fn current(&self) -> Option<u64> {
        STACK.with(|s| s.borrow().last().copied())
    }

    /// Run `f` with `parent` (a span open on another thread) as the
    /// parent of the spans `f` records on this thread.
    pub fn adopt<R>(&self, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        let Some(p) = parent else { return f() };
        STACK.with(|s| s.borrow_mut().push(p));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }

    /// Write the recorded spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time per layer, in seconds: each span's duration minus the part
/// of its interval covered by its child spans (children on several
/// threads may overlap; their union is subtracted once).
pub fn self_time_by_layer(spans: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer()).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            request: 0,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            rec(1, None, "bench.timed", 0, 1_000),
            // Two overlapping children on different threads: union 0..600.
            rec(2, Some(1), "core.step", 0, 500),
            rec(3, Some(1), "core.step", 100, 600),
            // A grandchild is charged to its own parent only.
            rec(4, Some(2), "geometry.read_sgmy", 0, 200),
        ];
        let t = self_time_by_layer(&spans);
        assert!((t["bench"] - 400e-9).abs() < 1e-15);
        assert!((t["core"] - (300e-9 + 500e-9)).abs() < 1e-15);
        assert!((t["geometry"] - 200e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_sets_parents() {
        let tr = Tracer::new();
        assert_eq!(tr.span("core.step", 0, || 7), 7);
        assert!(tr.spans().is_empty());
        tr.set_enabled(true);
        tr.span("bench.timed", 1, || {
            let p = tr.current();
            std::thread::scope(|s| {
                s.spawn(|| tr.adopt(p, || tr.span("core.step", 1, || ())));
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "bench.timed").unwrap();
        let inner = spans.iter().find(|s| s.name == "core.step").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
