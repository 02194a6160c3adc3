//! Bench-side spans: recorded around the calls into each layer, kept in
//! memory, and written out as JSON lines when the run ends.
//!
//! Per-element calls (one decode, one merge step, one session push) are
//! folded by a [`Meter`] into a single span per layer per pass, so the
//! trace grows with passes, not with elements.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span within its [`Trace`].
pub type SpanId = usize;

/// One recorded span. `busy` is the time spent inside the layer's calls
/// (the whole interval for a single call); `calls` how many calls it folds.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start: Instant,
    pub end: Instant,
    pub busy: Duration,
    pub calls: u64,
}

/// An in-memory span tree.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    /// What one clock read costs on this host.
    pub clock: Duration,
}

impl Default for Trace {
    fn default() -> Self {
        Trace { origin: Instant::now(), spans: Vec::new(), clock: clock_read_cost() }
    }
}

/// The cost of one `Instant::now()`: the median over batches of
/// back-to-back reads.
fn clock_read_cost() -> Duration {
    const READS: u32 = 10_000;
    let mut batches: Vec<Duration> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            start.elapsed() / READS
        })
        .collect();
    batches.sort();
    batches[batches.len() / 2]
}

impl Trace {
    /// The time that `calls` timed calls spend reading the clock outside
    /// their own intervals: of the two reads around a call, about one
    /// read's worth falls before the start or after the end.
    pub fn clock_between(&self, calls: u64) -> Duration {
        self.clock * u32::try_from(calls).unwrap_or(u32::MAX)
    }

    /// Record a span that folds `calls` calls with `busy` total time.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        busy: Duration,
        calls: u64,
    ) -> SpanId {
        self.spans.push(Span { name, parent, start, end, busy, calls });
        self.spans.len() - 1
    }

    /// Record a single call spanning `[start, end]`.
    pub fn call(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.record(name, parent, start, end, end - start, 1)
    }

    /// Start a single-call span now; [`Trace::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.call(name, parent, now, now)
    }

    /// End a span opened with [`Trace::open`].
    pub fn close(&mut self, id: SpanId) {
        let span = &mut self.spans[id];
        span.end = Instant::now();
        span.busy = span.end - span.start;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's busy time minus the busy time of its direct children.
    pub fn self_time(&self, id: SpanId) -> Duration {
        let children: Duration =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(|s| s.busy).sum();
        self.spans[id].busy.saturating_sub(children)
    }

    /// Write one JSON object per span (times in µs since the trace began).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.3},\
                 \"end_us\":{:.3},\"busy_us\":{:.3},\"self_us\":{:.3},\"calls\":{}}}",
                s.name,
                us(s.start - self.origin),
                us(s.end - self.origin),
                us(s.busy),
                us(self.self_time(id)),
                s.calls,
            )
            .expect("string write");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Accumulates the busy time of repeated calls into one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Meter {
    pub busy: Duration,
    pub calls: u64,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl Meter {
    /// Count one call that ran from `start` to `end`.
    #[inline]
    pub fn add(&mut self, start: Instant, end: Instant) {
        self.busy += end - start;
        self.calls += 1;
        self.first.get_or_insert(start);
        self.last = Some(end);
    }

    /// Run `f`, counted as one call when `on`.
    #[inline]
    pub fn time<T>(&mut self, on: bool, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(start, Instant::now());
        out
    }

    /// Fold another meter's calls into this one.
    pub fn merge(&mut self, other: &Meter) {
        self.busy += other.busy;
        self.calls += other.calls;
        self.first = match (self.first, other.first) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last = self.last.max(other.last);
    }

    /// Fold the calls into one span under `parent` (an empty meter spans
    /// the instant `at`).
    pub fn into_span(
        self,
        trace: &mut Trace,
        name: &'static str,
        parent: SpanId,
        at: Instant,
    ) -> SpanId {
        trace.record(
            name,
            Some(parent),
            self.first.unwrap_or(at),
            self.last.unwrap_or(at),
            self.busy,
            self.calls,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut trace = Trace::default();
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let root = trace.call("pass", None, t0, t0 + ms(10));
        let merge = trace.record("routing.merge", Some(root), t0, t0 + ms(9), ms(6), 100);
        trace.record("mrt.read", Some(merge), t0, t0 + ms(9), ms(4), 100);
        assert_eq!(trace.self_time(merge), ms(2));
        assert_eq!(trace.self_time(root), ms(4));
    }

    #[test]
    fn meter_folds_calls() {
        let mut trace = Trace::default();
        let t0 = Instant::now();
        let root = trace.call("pass", None, t0, t0 + Duration::from_millis(5));
        let mut meter = Meter::default();
        meter.add(t0, t0 + Duration::from_micros(3));
        meter.add(t0 + Duration::from_micros(10), t0 + Duration::from_micros(12));
        let id = meter.into_span(&mut trace, "core.session", root, t0);
        let span = &trace.spans()[id];
        assert_eq!((span.busy, span.calls), (Duration::from_micros(5), 2));
        assert_eq!(span.end - span.start, Duration::from_micros(12));
    }
}
