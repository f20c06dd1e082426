//! In-memory span recorder for the traced run.
//!
//! A span covers one public call the benchmark makes into a layer (or one
//! workload step that groups such calls). Spans are appended to a vector
//! while the workload runs and written out only when it ends, so the
//! recorder does no I/O on the measured path. With tracing off the
//! recorder keeps nothing and only runs the closure.

use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.fleet_sim.step_window`.
    pub name: &'static str,
    /// Index of the enclosing span (the workload step or round).
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Nesting follows the call structure: a span opened
/// inside another span's closure records it as its parent.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Number of spans recorded so far; two marks delimit the spans
    /// [`Tracer::durations`] reads.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Durations, in nanoseconds, of the spans called `name` among those
    /// recorded in `range`, in call order.
    pub fn durations(&self, range: &Range<usize>, name: &str) -> Vec<u64> {
        self.spans[range.clone()]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new(true);
        t.span("step", |t| {
            t.span("call", |_| ());
            t.span("call", |_| ());
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.durations(&(0..t.mark()), "call").len(), 2);
        assert!(t.spans[0].end_ns >= t.spans[2].end_ns);
    }

    #[test]
    fn off_recorder_keeps_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("step", |t| t.span("call", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.mark(), 0);
    }
}
