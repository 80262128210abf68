//! Spans recorded from the benchmark's own files around calls into each
//! layer. A span has a name, start and end (nanoseconds since the run
//! began), the span that caused it, and the visit it belongs to. Spans
//! stay in memory and are written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub visit: Option<u32>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// One thread's span buffer. Threads keep their own tracer and the
/// buffers are appended after the join. A tracer made with
/// [`Tracer::off`] records nothing: untraced runs use it.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: a new span's parent.
    stack: Vec<SpanId>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            enabled: true,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now())
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, visit: Option<u32>) -> SpanId {
        if !self.enabled {
            return SpanId::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            visit,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`, and return its
    /// length in seconds (0 when the tracer is off).
    pub fn close(&mut self, id: SpanId) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].secs()
    }

    /// Run `f` inside a span and return its result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, None);
        let out = f();
        self.close(id);
        out
    }

    /// Take another tracer's spans (from a joined thread) into this one,
    /// re-basing their ids; their roots hang under `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: Option<SpanId>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of every span named `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Share of span `root`'s interval covered by the union of its direct
    /// children (children on different threads may overlap).
    pub fn child_coverage(&self, root: SpanId) -> f64 {
        let r = &self.spans[root];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        children.sort_unstable();
        let (mut covered, mut reach) = (0u64, r.start_ns);
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        covered as f64 / (r.end_ns - r.start_ns).max(1) as f64
    }

    /// Render every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, ",\"parent\":{p}");
                }
                None => out.push_str(",\"parent\":null"),
            }
            match s.visit {
                Some(v) => {
                    let _ = write!(out, ",\"visit\":{v}");
                }
                None => out.push_str(",\"visit\":null"),
            }
            out.push_str("}\n");
        }
        out
    }
}
