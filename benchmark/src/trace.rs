//! Spans recorded from outside the program.
//!
//! The traced run wraps calls into each layer's public functions in spans:
//! name, start, end, the span that caused it, and the request chunk it
//! belongs to. A span covers a *chunk* of calls (≥ 64), so the two clock
//! reads it costs stay far below the work it times. Spans stay in memory
//! and are written out when the run ends. A layer's self time is its spans'
//! duration minus the part their child spans cover.

use crate::clock::now_ns;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Handle of an open or closed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// The request chunk (or sweep cell) the span belongs to.
    pub chunk: u32,
}

/// An in-memory span recorder. When disabled, entering and leaving a span
/// reads no clock and stores nothing — which is how the cost of tracing is
/// measured: the same replay once with a live recorder and once without.
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, chunk: u32) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            chunk,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and anything opened inside it that was left open).
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled || id.0 == NO_PARENT {
            return;
        }
        let end = now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end;
            if top == id.0 {
                break;
            }
        }
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, chunk: u32, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, chunk);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total and self time per span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub spans: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by direct child spans.
    pub self_ns: u64,
}

/// Sums spans by name; a span's self time is its duration minus its direct
/// children's durations (children are sequential and nested, so the part of
/// the interval they cover is the sum of their lengths).
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let layer = out.entry(s.name).or_default();
        layer.spans += 1;
        layer.total_ns += total;
        layer.self_ns += total.saturating_sub(children);
    }
    out
}

/// Writes the spans as one JSON document.
pub fn write_json(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> io::Result<()> {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\", \"spans\": ["
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"chunk\": {}}}",
            s.name, s.start_ns, s.end_ns, s.chunk
        );
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            chunk: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // rung [0,100] ⊃ apply [10,40] ⊃ submit [15,35]; rung ⊃ pump [50,90].
        let spans = vec![
            span("rung", 0, 100, None),
            span("apply", 10, 40, Some(0)),
            span("submit", 15, 35, Some(1)),
            span("pump", 50, 90, Some(0)),
            span("apply", 100, 130, None),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["rung"].total_ns, 100);
        assert_eq!(t["rung"].self_ns, 100 - 30 - 40);
        assert_eq!(t["apply"].spans, 2);
        assert_eq!(t["apply"].total_ns, 60);
        assert_eq!(t["apply"].self_ns, 10 + 30);
        assert_eq!(t["submit"].self_ns, 20);
        assert_eq!(t["pump"].self_ns, 40);
        // Self times partition the root spans' time exactly.
        let roots: u64 = 100 + 30;
        assert_eq!(t.values().map(|l| l.self_ns).sum::<u64>(), roots);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 7);
        let got = t.span("inner", 7, || 42);
        t.exit(outer);
        assert_eq!(got, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].chunk, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        let id = off.enter("outer", 0);
        assert_eq!(off.span("inner", 0, || 1), 1);
        off.exit(id);
        assert!(off.spans().is_empty());
    }
}
