//! `live_tail`: the near-real-time service. One pass replays the
//! archives into a `LiveFleet` daemon on a virtual clock in one-minute
//! ticks, as fast as the ticks run, with one in-process client polling
//! the line protocol as a real poller would; the pass ends with the
//! drained report.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bh_bgp_types::time::SimDuration;
use bh_core::AnalyticsPipeline;
use bh_live::{handle_command, LiveFleet, LiveFleetConfig, QueryRunner};
use bh_routing::Clock;
use bh_workloads::{ReplayFeed, VirtualClock};

use crate::stats::{median, tail};
use crate::trace::Meter;
use crate::world::World;
use crate::{ms, push_session_counters, us, Pass, Tracing};

/// Simulated time per tick.
const QUANTUM: SimDuration = SimDuration::mins(1);
/// Busy ticks between two polls of the client: it polls after every
/// tick that ingested something.
const POLL_EVERY: u64 = 1;
/// Polls between two `report` requests.
const REPORT_EVERY: u64 = 4;

/// The line-protocol commands the client sends.
#[derive(Clone, Copy)]
enum Command {
    Status,
    EventsSince,
    Report,
}

impl Command {
    const ALL: [Command; 3] = [Command::Status, Command::EventsSince, Command::Report];

    fn label(self) -> &'static str {
        match self {
            Command::Status => "status",
            Command::EventsSince => "events_since",
            Command::Report => "report",
        }
    }
}

#[derive(Default, Clone, Copy)]
struct CommandStats {
    calls: u64,
    busy: Duration,
    reply_bytes: u64,
    err: u64,
}

/// The in-process poller: reads status, fetches events incrementally
/// from its cursor, and now and then asks for the report.
struct Client {
    max_latency: u64,
    cursor: u64,
    polls: u64,
    stats: [CommandStats; 3],
    latencies_us: Vec<f64>,
    failures: Vec<String>,
}

impl Client {
    fn new(max_latency: SimDuration) -> Self {
        Client {
            max_latency: max_latency.as_secs(),
            cursor: 0,
            polls: 0,
            stats: [CommandStats::default(); 3],
            latencies_us: Vec::new(),
            failures: Vec::new(),
        }
    }

    fn call(&mut self, query: &QueryRunner, command: Command, line: &str) -> String {
        let start = Instant::now();
        let reply = handle_command(query, line);
        let took = start.elapsed();
        let stats = &mut self.stats[command as usize];
        stats.calls += 1;
        stats.busy += took;
        stats.reply_bytes += reply.len() as u64;
        self.latencies_us.push(us(took));
        if reply.starts_with("err") {
            stats.err += 1;
            self.failures.push(format!("`{line}` answered `{reply}`"));
        }
        reply
    }

    fn poll(&mut self, query: &QueryRunner) {
        let status = self.call(query, Command::Status, "status");
        let line = format!("events-since {}", self.cursor);
        let events = self.call(query, Command::EventsSince, &line);
        self.check_events(&events);
        self.polls += 1;
        // The daemon publishes its first report at its first checkpoint.
        let has_report = field(&status, "checkpoints").is_some_and(|c| c != "0");
        if self.polls.is_multiple_of(REPORT_EVERY) && has_report {
            self.call(query, Command::Report, "report");
        }
    }

    /// Events must continue the cursor without a gap, and every closed
    /// event must have been published within the latency budget.
    fn check_events(&mut self, reply: &str) {
        let mut lines = reply.lines();
        if !lines.next().is_some_and(|l| l.starts_with("ok events ")) {
            return; // an `err` reply, already counted
        }
        for line in lines {
            let seq = field(line, "seq").and_then(|s| s.parse::<u64>().ok());
            if seq != Some(self.cursor) {
                self.failures.push(format!("expected event {}, got `{line}`", self.cursor));
                return;
            }
            self.cursor += 1;
            let latency = field(line, "latency").and_then(|s| s.parse::<u64>().ok());
            if field(line, "end") != Some("open") && latency.is_none_or(|l| l > self.max_latency) {
                self.failures.push(format!("event over the latency budget: `{line}`"));
            }
        }
    }
}

/// The value of `key=value` in a protocol line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

pub fn pass(world: &World, tracing: Option<&mut Tracing>) -> Pass {
    let on = tracing.is_some();
    let begin = Instant::now();
    let config = LiveFleetConfig::default();
    let (mut feed, handles) = ReplayFeed::new(&world.archives);
    let clock = VirtualClock::new(world.start);
    let mut daemon = LiveFleet::new(
        world.study.session(&world.refdata),
        AnalyticsPipeline::new(world.refdata.clone(), world.analytics),
        &handles,
        Arc::new(clock.clone()),
        config,
    );
    let query = daemon.query_runner();
    let mut client = Client::new(config.max_latency);

    // Pump and step are each timed around their own call only, so tick
    // work neither accounts for shows up as a gap.
    let (mut pump, mut step) = (Meter::default(), Meter::default());
    let mut ticks = Meter::default();
    let (mut busy_ticks, mut idle_ticks, mut elems, mut records) = (0u64, 0u64, 0u64, 0u64);
    let mut busy_tick_us = Vec::new();
    let mut checkpoint_ticks = Vec::new();
    let mut checkpoints = 0;
    while !(feed.finished() && daemon.drained()) {
        let tick = Instant::now();
        let due = clock.now();
        records += pump.time(on, || feed.pump(due)) as u64;
        let n = step.time(on, || daemon.step());
        match feed.next_due() {
            // Nothing was due: jump to the next record instead of
            // ticking through the idle stretch minute by minute.
            Some(due) if n == 0 => clock.set(due),
            _ => clock.advance(QUANTUM),
        }
        let tick_end = Instant::now();
        if on {
            ticks.add(tick, tick_end);
        }
        if n == 0 {
            idle_ticks += 1;
            continue;
        }
        busy_ticks += 1;
        elems += n;
        busy_tick_us.push(us(tick_end - tick));
        if on {
            let now = query.status().checkpoints;
            if now != checkpoints {
                checkpoints = now;
                checkpoint_ticks.push(us(tick_end - tick));
            }
        }
        if busy_ticks.is_multiple_of(POLL_EVERY) {
            client.poll(&query);
        }
    }
    let open_events = query.status().open_events;
    let (summary, report) = daemon.finish();
    // The final poll collects what the drain emitted.
    client.poll(&query);
    let end = Instant::now();

    let mut pass = Pass::new(end - begin, elems);
    pass.attempted += client.stats.iter().map(|s| s.calls).sum::<u64>();
    for failure in client.failures.drain(..) {
        pass.fail(failure);
    }
    let status = query.status();
    if elems != world.fingerprint.elems || status.elems != elems {
        pass.fail(format!("ingested {elems} elems, archives hold {}", world.fingerprint.elems));
    }
    if client.cursor != status.events_emitted {
        pass.fail(format!("client saw {} of {} events", client.cursor, status.events_emitted));
    }
    if status.max_latency_seen > config.max_latency {
        pass.fail(format!("worst emission latency {}s", status.max_latency_seen.as_secs()));
    }
    if summary != world.reference.summary {
        pass.fail("drained stream summary differs from the in-memory reference".to_owned());
    }
    if report != world.reference.report {
        pass.fail("drained report differs from the in-memory reference".to_owned());
    }

    if let Some(t) = tracing {
        let root = t.trace.call("pass", Some(t.parent), begin, end);
        let tick_span = ticks.into_span(t.trace, "live.tick", root, begin);
        pump.into_span(t.trace, "workloads.live", tick_span, begin);
        step.into_span(t.trace, "live.daemon", tick_span, begin);
        let wire_busy = client.stats.iter().map(|s| s.busy).sum();
        let wire_calls = client.stats.iter().map(|s| s.calls).sum();
        t.trace.record("live.wire", Some(root), begin, end, wire_busy, wire_calls);
        let s = &mut *t.samples;
        s.push("workloads.live.pump_busy_ms", ms(pump.busy));
        s.push("workloads.live.records_pumped", records as f64);
        s.push("live.daemon.step_busy_ms", ms(step.busy));
        s.push("live.daemon.busy_ticks", busy_ticks as f64);
        s.push("live.daemon.tick_us_p50", median(&busy_tick_us));
        s.push("live.daemon.tick_us_tail", tail(&busy_tick_us).unwrap_or(0.0));
        s.push("live.daemon.idle_ticks", idle_ticks as f64);
        s.push("live.daemon.idle_tick_ratio", idle_ticks as f64 / (busy_ticks + idle_ticks) as f64);
        s.push("live.daemon.elems_per_busy_tick", elems as f64 / busy_ticks.max(1) as f64);
        s.push("live.daemon.checkpoints", status.checkpoints as f64);
        s.push("live.daemon.checkpoint_tick_us_p50", median(&checkpoint_ticks));
        s.push("live.daemon.events_emitted", status.events_emitted as f64);
        s.push("live.daemon.max_latency_seen_s", status.max_latency_seen.as_secs() as f64);
        for command in Command::ALL {
            let c = client.stats[command as usize];
            let name = |metric: &str| format!("live.wire.{}.{metric}", command.label());
            s.push(&name("calls"), c.calls as f64);
            s.push(&name("busy_us"), us(c.busy));
            s.push(&name("reply_bytes"), c.reply_bytes as f64);
            s.push(&name("err"), c.err as f64);
        }
        s.push("live.wire.query_us_p50", median(&client.latencies_us));
        s.push("live.wire.query_us_tail", tail(&client.latencies_us).unwrap_or(0.0));
        push_session_counters(s, &summary, open_events);
        // The stages are the layers' calls and the clock reads between them.
        let clock = t.trace.clock_between(pump.calls + step.calls);
        t.trace.record("bench.trace", Some(tick_span), begin, end, clock, pump.calls + step.calls);
        pass.stages = Some((pump.busy + step.busy + clock, ticks.busy));
    }
    pass
}
