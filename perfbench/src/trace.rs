//! In-memory spans around the load generator's calls into the `Service`.
//!
//! A span has a name, a start and an end, and the span that caused it.
//! A span's self time is its duration minus the part of it that its
//! child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span, times in nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary crossed (`submit`, `flush`, `pump`, `wait`, …).
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (≥ start).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operations the span covers (commands submitted, responses
    /// redeemed, deliveries pumped).
    pub ops: u64,
}

/// Span recorder. When disabled, `begin`/`end` cost one branch.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (or of nothing, when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { origin: Instant::now(), enabled, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end: start, parent, ops: 0 });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close `id`, crediting it with `ops` operations.
    pub fn end(&mut self, id: SpanId, ops: u64) {
        let Some(i) = id.0 else { return };
        let end = self.now_ns();
        let span = &mut self.spans[i];
        span.end = end;
        span.ops = ops;
        if let Some(pos) = self.open.iter().rposition(|&o| o == i) {
            self.open.truncate(pos);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
    /// Summed operation counts.
    pub ops: u64,
}

/// Aggregate spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end - s.start;
        t.self_ns += self_ns;
        t.ops += s.ops;
    }
    out
}
