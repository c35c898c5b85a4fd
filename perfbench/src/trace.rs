//! In-memory spans for traced runs.
//!
//! A span is a name, the operation it belongs to, its parent span, and its
//! start and end. Spans are recorded from the benchmark's own files around
//! the calls into each layer's public functions, kept in memory, written
//! out as a TSV file when the run ends, and turned into self times: a
//! span's duration minus the part its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans per thread, innermost last.
    open: HashMap<ThreadId, Vec<usize>>,
}

/// A span recorder shared by reference (the measurement backend and the
/// store I/O wrappers record through `&self`).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            inner: Mutex::new(Inner { spans: Vec::with_capacity(1 << 16), open: HashMap::new() }),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("tracer lock: a span recorder panicked")
    }

    /// Opens a span as a child of the calling thread's innermost open span.
    pub fn open(&self, name: &'static str, op: u64) -> usize {
        let start_ns = self.now();
        let mut inner = self.lock();
        let id = inner.spans.len();
        let stack = inner.open.entry(std::thread::current().id()).or_default();
        let parent = stack.last().copied();
        stack.push(id);
        inner.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns });
        id
    }

    /// Closes the calling thread's innermost open span, which must be `id`.
    pub fn close(&self, id: usize) {
        let end_ns = self.now();
        let mut inner = self.lock();
        let stack = inner.open.entry(std::thread::current().id()).or_default();
        assert_eq!(stack.pop(), Some(id), "spans close innermost first");
        inner.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, op);
        let out = f();
        self.close(id);
        out
    }

    /// Number of spans recorded so far (a mark for [`Tracer::totals_since`]).
    #[must_use]
    pub fn mark(&self) -> usize {
        self.lock().spans.len()
    }

    /// Per name: (count, total ns, self ns) over the spans recorded since
    /// `mark`. Self time subtracts the durations of direct children.
    #[must_use]
    pub fn totals_since(&self, mark: usize) -> BTreeMap<&'static str, Totals> {
        let inner = self.lock();
        totals(&inner.spans[mark..], mark)
    }

    /// Writes every span as TSV (`name op parent start_ns end_ns`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let inner = self.lock();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\top\tparent\tstart_ns\tend_ns")?;
        for s in &inner.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(out, "{}\t{}\t{parent}\t{}\t{}", s.name, s.op, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Aggregate of the spans of one name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Totals of `spans`, whose first element has absolute index `base`.
fn totals(spans: &[Span], base: usize) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span { name, op: 0, parent, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("op", None, 0, 100),
            span("stage", Some(0), 10, 60),
            span("sim", Some(1), 20, 50),
            span("stage", Some(0), 60, 90),
        ];
        let t = totals(&spans, 0);
        assert_eq!(t["op"], Totals { count: 1, total_ns: 100, self_ns: 20 });
        assert_eq!(t["stage"], Totals { count: 2, total_ns: 80, self_ns: 50 });
        assert_eq!(t["sim"], Totals { count: 1, total_ns: 30, self_ns: 30 });
    }

    #[test]
    fn totals_since_a_mark_ignore_earlier_parents() {
        let tracer = Tracer::new();
        tracer.span("before", 0, || ());
        let mark = tracer.mark();
        tracer.span("op", 1, || tracer.span("stage", 1, || ()));
        let t = tracer.totals_since(mark);
        assert_eq!(t.len(), 2);
        assert_eq!(t["op"].count, 1);
        assert!(t["op"].total_ns >= t["stage"].total_ns);
        assert_eq!(t["op"].self_ns + t["stage"].total_ns, t["op"].total_ns);
    }
}
