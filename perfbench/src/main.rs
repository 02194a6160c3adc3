//! The repository benchmark: three workloads driven through the layers'
//! public functions, each output checked against an oracle, every
//! end-to-end metric printed by name with its unit, and, in a separate
//! traced run, per-layer spans recorded around the calls into each layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload archive_replay --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for what each workload and metric is for.

mod live;
mod replay;
mod sim;
mod stats;
mod trace;
mod world;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bh_core::StreamSummary;

use crate::stats::median;
use crate::trace::{SpanId, Trace};
use crate::world::{check_recorded, scenario_for, Scale, World};

/// Metrics of the untraced run, as `(name, unit)`; every workload
/// reports all of them.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("elems_per_s", "elem/s"), ("pass_ms_p50", "ms"), ("peak_rss_mb", "MiB")];

/// Metrics of the traced run, as `(name, unit)`. A layer that a workload
/// does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.gen.build_ms", "ms"),
    ("irr.dictionary_ms", "ms"),
    ("routing.sim.busy_ms", "ms"),
    ("routing.sim.announcements", "count"),
    ("routing.sim.elems_out", "count"),
    ("routing.sim.elems_per_announcement", "ratio"),
    ("routing.sim.import_rejects", "count"),
    ("routing.sim.convergence_failures", "count"),
    ("mrt.write.busy_ms", "ms"),
    ("mrt.write.ns_per_elem", "ns/elem"),
    ("mrt.write.bytes_out", "B"),
    ("mrt.write.archives", "count"),
    ("mrt.read.busy_ms", "ms"),
    ("mrt.read.ns_per_elem", "ns/elem"),
    ("mrt.read.records_read", "count"),
    ("mrt.read.records_skipped", "count"),
    ("mrt.read.bytes_in", "B"),
    ("routing.merge.self_ms", "ms"),
    ("routing.merge.elems_out", "count"),
    ("routing.merge.sources", "count"),
    ("core.session.busy_ms", "ms"),
    ("core.session.ns_per_elem", "ns/elem"),
    ("core.session.tagged_announcements", "count"),
    ("core.session.cleaned", "count"),
    ("core.session.implicit_withdrawals", "count"),
    ("core.session.explicit_withdrawals", "count"),
    ("core.session.bundled_detections", "count"),
    ("core.session.control_suppressed", "count"),
    ("core.session.interned_paths", "count"),
    ("core.session.interned_community_sets", "count"),
    ("core.session.open_events", "count"),
    ("core.session.tagged_per_elem", "ratio"),
    ("core.session.paths_per_elem", "ratio"),
    ("core.analytics.busy_ms", "ms"),
    ("core.analytics.events_observed", "count"),
    ("core.analytics.drains", "count"),
    ("workloads.live.pump_busy_ms", "ms"),
    ("workloads.live.records_pumped", "count"),
    ("live.daemon.step_busy_ms", "ms"),
    ("live.daemon.busy_ticks", "count"),
    ("live.daemon.tick_us_p50", "us"),
    ("live.daemon.tick_us_tail", "us"),
    ("live.daemon.idle_ticks", "count"),
    ("live.daemon.idle_tick_ratio", "ratio"),
    ("live.daemon.elems_per_busy_tick", "ratio"),
    ("live.daemon.checkpoints", "count"),
    ("live.daemon.checkpoint_tick_us_p50", "us"),
    ("live.daemon.events_emitted", "count"),
    ("live.daemon.max_latency_seen_s", "s"),
    ("live.wire.status.calls", "count"),
    ("live.wire.status.busy_us", "us"),
    ("live.wire.status.reply_bytes", "B"),
    ("live.wire.status.err", "count"),
    ("live.wire.events_since.calls", "count"),
    ("live.wire.events_since.busy_us", "us"),
    ("live.wire.events_since.reply_bytes", "B"),
    ("live.wire.events_since.err", "count"),
    ("live.wire.report.calls", "count"),
    ("live.wire.report.busy_us", "us"),
    ("live.wire.report.reply_bytes", "B"),
    ("live.wire.report.err", "count"),
    ("live.wire.query_us_p50", "us"),
    ("live.wire.query_us_tail", "us"),
    ("bench.oracle.build_ms", "ms"),
    ("bench.trace.overhead_pct", "%"),
    ("bench.trace.stage_gap_pct", "%"),
    ("bench.trace.clock_ns", "ns"),
    ("bench.trace.spans", "count"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The traced run's stage sum must be within this share of the time it
/// accounts for.
const STAGE_SUM_TOLERANCE: f64 = 0.10;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Per-layer samples of the traced run, by metric name; a metric's value
/// is the median of its samples.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.0.entry(name.to_owned()).or_default().push(value);
    }

    fn value(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// Where a traced call records its span and samples.
pub struct Tracing<'a> {
    pub trace: &'a mut Trace,
    pub samples: &'a mut Samples,
    pub parent: SpanId,
}

/// The session counters every session-backed workload reports.
pub fn push_session_counters(s: &mut Samples, summary: &StreamSummary, open_events: usize) {
    let stats = &summary.stats;
    let elems = stats.elems.max(1) as f64;
    s.push("core.session.tagged_announcements", stats.tagged_announcements as f64);
    s.push("core.session.cleaned", stats.cleaned as f64);
    s.push("core.session.implicit_withdrawals", stats.implicit_withdrawals as f64);
    s.push("core.session.explicit_withdrawals", stats.explicit_withdrawals as f64);
    s.push("core.session.bundled_detections", stats.bundled_detections as f64);
    s.push("core.session.control_suppressed", stats.control_suppressed as f64);
    s.push("core.session.interned_paths", summary.paths.len() as f64);
    s.push("core.session.interned_community_sets", summary.community_sets.len() as f64);
    s.push("core.session.open_events", open_events as f64);
    s.push("core.session.tagged_per_elem", stats.tagged_announcements as f64 / elems);
    s.push("core.session.paths_per_elem", summary.paths.len() as f64 / elems);
}

/// One pass of a workload.
pub struct Pass {
    pub wall: Duration,
    pub elems: u64,
    /// Checked operations attempted: the pass itself plus any queries.
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Traced passes: the summed busy time of the stages' own calls, and
    /// the wall time they must account for.
    pub stages: Option<(Duration, Duration)>,
}

impl Pass {
    pub fn new(wall: Duration, elems: u64) -> Self {
        Pass { wall, elems, attempted: 1, failures: Vec::new(), stages: None }
    }

    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    fn failed_ops(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ArchiveReplay,
    ScenarioSim,
    LiveTail,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::ArchiveReplay, Workload::ScenarioSim, Workload::LiveTail];

    fn name(self) -> &'static str {
        match self {
            Workload::ArchiveReplay => "archive_replay",
            Workload::ScenarioSim => "scenario_sim",
            Workload::LiveTail => "live_tail",
        }
    }

    fn pass(self, world: &World, tracing: Option<&mut Tracing>) -> Pass {
        match self {
            Workload::ArchiveReplay => replay::pass(world, tracing),
            Workload::ScenarioSim => sim::pass(world, tracing),
            Workload::LiveTail => live::pass(world, tracing),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

const USAGE: &str = "usage: bh-perfbench --workload <archive_replay|scenario_sim|live_tail> \
                     --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            scale: Scale::Small,
        })
    }
}

/// What a run prints: notes for people, then the result line.
pub struct Outcome {
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run passes until `seconds` have gone by (at least one pass). A pass
/// that panics counts as one failed operation.
fn measure(
    seconds: f64,
    workload: Workload,
    world: &World,
    mut tracing: Option<&mut Tracing>,
) -> Vec<Pass> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    while passes.is_empty() || Instant::now() < deadline {
        let start = Instant::now();
        let pass = catch_unwind(AssertUnwindSafe(|| workload.pass(world, tracing.as_deref_mut())))
            .unwrap_or_else(|_| {
                let mut pass = Pass::new(start.elapsed(), 0);
                pass.fail("the pass panicked".to_owned());
                pass
            });
        passes.push(pass);
    }
    passes
}

/// Hand the heap pages that earlier work freed back to the kernel, then
/// reset this process's peak resident set size to its current one, so
/// that [`peak_rss_mb`] covers what runs after the call and not what the
/// allocator kept from before it. Returns whether the kernel accepted the
/// reset.
fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns free heap memory to
        // the kernel; it touches no live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(args: &Args) -> Outcome {
    let workload = args.workload;
    let mut notes = vec![format!(
        "workload={} seed={} scale={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.scale.label(),
        args.seconds,
        u8::from(args.trace)
    )];
    let mut trace = Trace::default();
    let mut samples = Samples::default();
    let root = trace.open("run", None);
    let (mut attempted, mut failed) = (0u64, 0u64);

    let scenario = scenario_for(args.scale, args.seed);
    notes.push(format!("scenario seed {}", scenario.seed));

    // Set-up, several times over; each must build the same input.
    let mut setup_s = Vec::new();
    let mut world: Option<World> = None;
    for _ in 0..SETUPS {
        let previous = world.take().map(|w| w.fingerprint);
        let parent = trace.open("setup", Some(root));
        let start = Instant::now();
        let mut tracing = Tracing { trace: &mut trace, samples: &mut samples, parent };
        let built = World::build(args.scale, &scenario, args.trace.then_some(&mut tracing));
        setup_s.push(start.elapsed().as_secs_f64());
        trace.close(parent);
        attempted += 1;
        if previous.is_some_and(|fp| fp != built.fingerprint) {
            failed += 1;
            notes.push("FAILED: set-up is not deterministic".to_owned());
        }
        world = Some(built);
    }
    let world = world.expect("at least one set-up");
    notes.push(format!(
        "input: {}; {}",
        world.fingerprint.describe(),
        check_recorded(args.scale, args.seed, &world.fingerprint)
    ));

    // The peak RSS covers the passes, not the set-ups before them.
    if !reset_peak_rss() {
        notes.push("peak RSS could not be reset: peak_rss_mb includes set-up".to_owned());
    }

    // One untimed warm-up pass, oracle-checked like the rest.
    let mut passes = measure(0.0, workload, &world, None);
    let warmup = passes.len();
    let timed = if args.trace {
        let untraced = measure(args.seconds / 2.0, workload, &world, None);
        let parent = trace.open("traced", Some(root));
        let mut tracing = Tracing { trace: &mut trace, samples: &mut samples, parent };
        let mut traced = measure(args.seconds / 2.0, workload, &world, Some(&mut tracing));
        trace.close(parent);
        for pass in &mut traced {
            if let Some((stages, wall)) = pass.stages {
                let gap = 1.0 - stages.as_secs_f64() / wall.as_secs_f64();
                samples.push("bench.trace.stage_gap_pct", 100.0 * gap);
                if gap.abs() > STAGE_SUM_TOLERANCE {
                    pass.fail(format!(
                        "stages account for {:.1}% of the traced time",
                        100.0 * (1.0 - gap)
                    ));
                }
            }
        }
        let wall = |p: &[Pass]| median(&p.iter().map(|p| ms(p.wall)).collect::<Vec<_>>());
        let overhead = 100.0 * (wall(&traced) / wall(&untraced) - 1.0);
        samples.push("bench.trace.overhead_pct", overhead);
        notes.push(format!(
            "tracing overhead {overhead:.1}% ({} untraced vs {} traced passes)",
            untraced.len(),
            traced.len()
        ));
        passes.extend(untraced);
        passes.extend(traced);
        &passes[warmup..]
    } else {
        passes.extend(measure(args.seconds, workload, &world, None));
        &passes[warmup..]
    };

    for pass in &passes {
        attempted += pass.attempted;
        failed += pass.failed_ops();
        for why in &pass.failures {
            notes.push(format!("FAILED: {why}"));
        }
    }
    notes.push(format!(
        "passes={} (+{warmup} warm-up) ops={attempted} failed={failed}",
        timed.len()
    ));

    let metrics = if args.trace {
        trace.close(root);
        samples.push("bench.trace.spans", trace.spans().len() as f64);
        samples.push("bench.trace.clock_ns", trace.clock.as_nanos() as f64);
        let path = spans_path(args);
        match trace.write_jsonl(&path) {
            Ok(()) => notes.push(format!("spans: {}", path.display())),
            Err(e) => notes.push(format!("spans not written to {}: {e}", path.display())),
        }
        PER_LAYER.iter().map(|&(name, unit)| (name, samples.value(name), unit)).collect()
    } else {
        let walls: Vec<f64> = timed.iter().map(|p| ms(p.wall)).collect();
        let rates: Vec<f64> = timed.iter().map(|p| p.elems as f64 / p.wall.as_secs_f64()).collect();
        let mut sorted = walls.clone();
        sorted.sort_by(f64::total_cmp);
        let q = |f: f64| sorted[((sorted.len() - 1) as f64 * f).round() as usize];
        notes.push(format!(
            "pass_ms quartiles {:.3} / {:.3} / {:.3}, min {:.3}, max {:.3}",
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.0),
            q(1.0)
        ));
        let value = |name: &str| match name {
            "setup_s" => median(&setup_s),
            "elems_per_s" => median(&rates),
            "pass_ms_p50" => median(&walls),
            "peak_rss_mb" => peak_rss_mb(),
            _ => unreachable!("END_TO_END names are matched above"),
        };
        END_TO_END.iter().map(|&(name, unit)| (name, value(name), unit)).collect()
    };
    Outcome { notes, attempted, failed, metrics }
}

/// Where a traced run writes its spans: inside the benchmark's directory.
fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "spans-{}-{}-seed{}.jsonl",
        args.workload.name(),
        args.scale.label(),
        args.seed
    ))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload, trace: bool) -> Args {
        Args { workload, seed: 7, seconds: 0.2, trace, scale: Scale::Tiny }
    }

    #[test]
    fn every_workload_passes_its_oracles_and_reports_every_metric() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let outcome = run(&tiny(workload, trace));
                let notes = outcome.notes.join("\n");
                assert_eq!(outcome.failed, 0, "{}:\n{notes}", workload.name());
                assert!(outcome.attempted > 1);
                let expected = if trace { PER_LAYER } else { END_TO_END };
                let names: Vec<_> = outcome.metrics.iter().map(|m| (m.0, m.2)).collect();
                assert_eq!(names, expected);
                for (name, value, _) in &outcome.metrics {
                    assert!(value.is_finite(), "{name} = {value}");
                    assert!(trace || *value > 0.0, "{} {name} = {value}", workload.name());
                }
                assert!(outcome.json().starts_with("{\"correct\": true, \"attempted\": "));
            }
        }
    }

    #[test]
    fn a_corrupted_archive_byte_is_a_failed_operation() {
        let scenario = scenario_for(Scale::Tiny, 7);
        let mut world = World::build(Scale::Tiny, &scenario, None);
        let biggest = (0..world.archives.len())
            .max_by_key(|&i| world.archives[i].bytes.len())
            .expect("the scenario wrote archives");
        let mut bytes = world.archives[biggest].bytes.to_vec();
        // The address family of the first BGP4MP record (12-byte MRT
        // header, then peer and local AS and the interface index).
        bytes[12 + 10] ^= 0xff;
        world.archives[biggest].bytes = bytes.into();
        for workload in [Workload::ArchiveReplay, Workload::LiveTail] {
            let passes = measure(0.0, workload, &world, None);
            let failed: u64 = passes.iter().map(Pass::failed_ops).sum();
            assert!(failed >= 1, "{} accepted a corrupted archive", workload.name());
        }
    }

    #[test]
    fn benchmark_json_lists_the_runner_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
        }
        let entries = json.matches("\"name\":").count();
        assert_eq!(entries, Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn arguments_are_all_required() {
        let parse = |line: &str| Args::parse(line.split_whitespace().map(str::to_owned));
        let args = parse("--workload live_tail --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!((args.workload, args.seed, args.trace), (Workload::LiveTail, 3, true));
        assert_eq!(args.scale, Scale::Small);
        assert!(parse("--workload live_tail --seed 3 --seconds 10").is_err());
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload live_tail --seed x --seconds 10 --trace 0").is_err());
        assert!(parse("--workload live_tail --seed 3 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload live_tail --seed 3 --seconds 1 --trace yes").is_err());
    }
}
