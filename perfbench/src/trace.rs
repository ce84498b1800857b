//! In-memory span recorder for the traced run.
//!
//! A span wraps one call the benchmark makes into a public function of the
//! workspace. Spans carry a name, start and end (nanoseconds since the
//! recorder's origin), the index of their parent span and a request id; they
//! stay in memory while the workload runs and are written out as JSON lines
//! when it ends. A disabled recorder runs the wrapped call and records
//! nothing, so the untraced run pays one branch per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Request (or iteration) the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder; each client thread owns its own and the
/// spans are merged with [`Tracer::absorb`] when the thread is joined.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `call` inside a span named `name`; spans opened while it runs
    /// become its children.
    pub fn span<T>(&self, name: &'static str, request: u64, call: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return call();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let value = call();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        value
    }

    /// Records a span measured elsewhere (a client request timed around
    /// the socket exchange).
    pub fn record(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.borrow_mut().push(Span {
                name,
                start_ns: self.ns_since_origin(start),
                end_ns: self.ns_since_origin(end),
                parent: self.open.borrow().last().copied(),
                request,
            });
        }
    }

    /// Appends another recorder's spans, keeping their parent links valid.
    pub fn absorb(&self, other: Tracer) {
        let mut spans = self.spans.borrow_mut();
        let offset = spans.len();
        spans.extend(other.spans.into_inner().into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Durations (milliseconds) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Per span name: count, total time and self time (milliseconds). A
    /// span's self time is its duration minus the part its children cover;
    /// children of one span run one after another, so that part is the sum
    /// of their durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut table: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ns) {
            let entry = table.entry(span.name).or_insert((0, 0.0, 0.0));
            entry.0 += 1;
            entry.1 += span.duration_ns() as f64 / 1e6;
            entry.2 += span.duration_ns().saturating_sub(children) as f64 / 1e6;
        }
        table
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans.borrow().iter() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.request
            )?;
        }
        out.flush()
    }

    fn now_ns(&self) -> u64 {
        self.ns_since_origin(Instant::now())
    }

    fn ns_since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new(true, Instant::now());
        tracer.span("outer", 0, || {
            tracer.span("inner", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let table = tracer.self_times();
        let (count, total, own) = table["outer"];
        let (_, inner_total, inner_own) = table["inner"];
        assert_eq!(count, 1);
        assert!(inner_total >= 5.0);
        assert_eq!(inner_total, inner_own);
        assert!((own - (total - inner_total)).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false, Instant::now());
        assert_eq!(tracer.span("call", 0, || 7), 7);
        assert!(tracer.self_times().is_empty());
    }
}
