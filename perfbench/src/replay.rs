//! `archive_replay`: the paper's batch job. One pass decodes every
//! collector archive, merges the streams, runs one inference session
//! that drains closed events into the analytics pipeline after every
//! chunk of elements, and finalizes the report.

use std::time::Instant;

use bh_core::{AnalyticsPipeline, EventAccumulator};
use bh_routing::{BgpElem, ElemSource, MergedSource, MrtElemSource};

use crate::trace::Meter;
use crate::world::World;
use crate::{ms, push_session_counters, Pass, Tracing};

/// Elements between two drains of closed events.
const DRAIN_EVERY: u64 = 1_000;

/// A source whose `next_elem` calls are timed when `on`.
struct Timed<S> {
    inner: S,
    on: bool,
    meter: Meter,
}

impl<S: ElemSource> ElemSource for Timed<S> {
    fn next_elem(&mut self) -> Option<&BgpElem> {
        let start = self.on.then(Instant::now);
        let elem = self.inner.next_elem();
        if let Some(start) = start {
            self.meter.add(start, Instant::now());
        }
        elem
    }
}

pub fn pass(world: &World, tracing: Option<&mut Tracing>) -> Pass {
    let on = tracing.is_some();
    let begin = Instant::now();
    let sources: Vec<_> = world
        .archives
        .iter()
        .map(|a| Timed {
            inner: MrtElemSource::from_bytes(a.bytes.clone(), a.dataset, a.collector),
            on,
            meter: Meter::default(),
        })
        .collect();
    let mut merged = MergedSource::new(sources);
    let mut session = world.study.session(&world.refdata).build();
    let mut pipeline = AnalyticsPipeline::new(world.refdata.clone(), world.analytics);

    // Each layer is timed around its own calls only, so work in the pass
    // that no layer call accounts for shows up as a gap.
    let (mut merge, mut push, mut analytics) =
        (Meter::default(), Meter::default(), Meter::default());
    let (mut elems, mut drains) = (0u64, 0u64);
    loop {
        // Timed by hand: the element borrows the source.
        let start = on.then(Instant::now);
        let elem = merged.next_elem();
        if let Some(start) = start {
            merge.add(start, Instant::now());
        }
        let Some(elem) = elem else { break };
        push.time(on, || session.push(elem));
        elems += 1;
        if elems.is_multiple_of(DRAIN_EVERY) {
            analytics.time(on, || session.drain_closed_into(&mut pipeline));
            drains += 1;
        }
    }
    let open_events = session.open_event_count();
    let (summary, report) = analytics.time(on, || {
        let summary = session.finish_with(&mut pipeline);
        (summary, pipeline.finalize())
    });
    let end = Instant::now();

    let mut pass = Pass::new(end - begin, elems);
    let (mut records_read, mut records_skipped) = (0, 0);
    let mut read = Meter::default();
    let sources = merged.into_sources();
    for source in &sources {
        if let Some(err) = source.inner.error() {
            pass.fail(format!("decode error: {err}"));
        }
        records_read += source.inner.records_read();
        records_skipped += source.inner.records_skipped();
        read.merge(&source.meter);
    }
    if records_skipped > 0 {
        pass.fail(format!("{records_skipped} records skipped"));
    }
    if elems != world.fingerprint.elems {
        pass.fail(format!("decoded {elems} elems, archives hold {}", world.fingerprint.elems));
    }
    if summary != world.reference.summary {
        pass.fail("stream summary differs from the in-memory reference".to_owned());
    }
    if report != world.reference.report {
        pass.fail("analytics report differs from the in-memory reference".to_owned());
    }

    if let Some(t) = tracing {
        let root = t.trace.call("pass", Some(t.parent), begin, end);
        let merge_span = merge.into_span(t.trace, "routing.merge", root, begin);
        // Decode runs inside the merge's calls to its sources.
        read.into_span(t.trace, "mrt.read", merge_span, begin);
        push.into_span(t.trace, "core.session", root, begin);
        analytics.into_span(t.trace, "core.analytics", root, begin);
        let s = &mut *t.samples;
        let n = elems.max(1) as f64;
        s.push("mrt.read.busy_ms", ms(read.busy));
        s.push("mrt.read.ns_per_elem", read.busy.as_nanos() as f64 / n);
        s.push("mrt.read.records_read", records_read as f64);
        s.push("mrt.read.records_skipped", records_skipped as f64);
        s.push("mrt.read.bytes_in", world.fingerprint.bytes as f64);
        s.push("routing.merge.self_ms", ms(merge.busy.saturating_sub(read.busy)));
        s.push("routing.merge.elems_out", elems as f64);
        s.push("routing.merge.sources", sources.len() as f64);
        s.push("core.session.busy_ms", ms(push.busy));
        s.push("core.session.ns_per_elem", push.busy.as_nanos() as f64 / n);
        push_session_counters(s, &summary, open_events);
        s.push("core.analytics.busy_ms", ms(analytics.busy));
        s.push("core.analytics.events_observed", report.durations.len() as f64);
        s.push("core.analytics.drains", drains as f64);
        // The stages are the layers' calls and the clock reads between them.
        let calls = merge.calls + push.calls + analytics.calls;
        let clock = t.trace.clock_between(calls);
        t.trace.record("bench.trace", Some(root), begin, end, clock, calls);
        pass.stages = Some((merge.busy + push.busy + analytics.busy + clock, end - begin));
    }
    pass
}
