//! Benchmark-side spans: each wraps one call into a layer's public function
//! and records its parent, its duration and the allocations made while it
//! was open, so self time and self allocations (the span's minus its
//! direct children's) can be reported per layer. Spans live in an
//! in-memory buffer and are summarized when the run ends; the buffer's own
//! growth is not counted.

use crate::alloc::{self, Allocs};
use std::collections::BTreeMap;
use std::time::Instant;

/// Sentinel parent of a root span.
pub const ROOT: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `service.submit`.
    pub name: &'static str,
    /// Index of the parent span in the same buffer, or [`ROOT`].
    pub parent: u32,
    /// Request the span belongs to (shared by all spans of one request).
    pub request: u64,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
    /// Allocations made, by any thread, while the span was open.
    pub allocs: Allocs,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// A span buffer.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// For each reserved-but-unclosed span: its allocation reading at open.
    open_at: Vec<(u32, Allocs)>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open_at: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a closed span; returns its index (to parent later spans).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        (start, end): (Instant, Instant),
        allocs: Allocs,
    ) -> u32 {
        let span = Span {
            name,
            parent,
            request,
            start: self.ns(start),
            end: self.ns(end),
            allocs,
        };
        alloc::untracked(|| self.spans.push(span));
        (self.spans.len() - 1) as u32
    }

    /// Run `f` as a span named `name`, returning its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let a0 = alloc::totals();
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let a1 = alloc::totals();
        self.push(name, parent, request, (t0, t1), a1 - a0);
        out
    }

    /// Reserve a parent span before its children run; close it with
    /// [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, request: u64) -> u32 {
        let now = Instant::now();
        let idx = self.push(name, ROOT, request, (now, now), Allocs::default());
        alloc::untracked(|| self.open_at.push((idx, alloc::totals())));
        idx
    }

    /// Close the most recently opened span.
    pub fn close(&mut self) {
        let (idx, at_open) = self.open_at.pop().expect("close follows open");
        let end = self.ns(Instant::now());
        let span = &mut self.spans[idx as usize];
        span.end = end;
        span.allocs = alloc::totals() - at_open;
    }

    /// Every span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans named `name`.
    pub fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s Span> + 's {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations (ns) of every span named `name`, sorted.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut v: Vec<u64> = self.named(name).map(Span::ns).collect();
        v.sort_unstable();
        v
    }

    /// Σ allocations of the spans named `name`, and how many there are.
    pub fn allocs(&self, name: &str) -> (Allocs, u64) {
        let mut sum = Allocs::default();
        let mut n = 0;
        for s in self.named(name) {
            sum += s.allocs;
            n += 1;
        }
        (sum, n)
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// Per-name totals over a buffer.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    /// Spans seen.
    pub count: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ self time (duration minus direct children), ns.
    pub self_ns: u64,
    /// Σ allocations.
    pub allocs: u64,
    /// Σ self allocations (the span's minus its direct children's).
    pub self_allocs: u64,
}

/// Totals by span name (ordered by name).
pub fn totals(rec: &Recorder) -> BTreeMap<&'static str, SpanTotals> {
    let spans = rec.spans();
    let mut kids = vec![(0u64, 0u64); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let k = &mut kids[s.parent as usize];
            k.0 += s.ns();
            k.1 += s.allocs.count;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, (kid_ns, kid_allocs)) in spans.iter().zip(kids) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.ns();
        t.self_ns += s.ns().saturating_sub(kid_ns);
        t.allocs += s.allocs.count;
        t.self_allocs += s.allocs.count.saturating_sub(kid_allocs);
    }
    out
}
