//! Set-up shared by every workload: the Small world, one seeded
//! scenario, its per-collector MRT archives, the input fingerprint and
//! the oracle reference.

use std::sync::Arc;
use std::time::Instant;

use bh_bench::{Study, StudyScale};
use bh_bgp_types::time::SimTime;
use bh_core::{
    AnalyticsConfig, AnalyticsPipeline, AnalyticsReport, EventAccumulator, ReferenceData,
    StreamSummary,
};
use bh_irr::{BlackholeDictionary, CorpusGenerator};
use bh_routing::{merge_streams, split_by_collector, CollectorConfig, DataSource, SliceSource};
use bh_topology::{Topology, TopologyBuilder};
use bh_workloads::{fleet_archives, run, CollectorArchive, ScenarioConfig, ScenarioOutput};

use crate::{Samples, Tracing};

/// The world (topology, documentation corpus, collector deployment) is
/// the same for every run; `--seed` picks the scenario played on it.
pub const WORLD_SEED: u64 = 42;

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's scale: the ~230-AS Small world.
    Small,
    /// The ~60-AS Tiny world, for self-tests.
    Tiny,
}

impl Scale {
    pub fn label(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Tiny => "tiny",
        }
    }

    fn study(self) -> StudyScale {
        match self {
            Scale::Small => StudyScale::Small,
            Scale::Tiny => StudyScale::Tiny,
        }
    }

    fn topology(self) -> Topology {
        TopologyBuilder::new(self.study().topology_config(WORLD_SEED)).build()
    }

    fn collectors(self) -> CollectorConfig {
        self.study().collector_config(WORLD_SEED ^ 0x3434)
    }

    /// The visibility-window scenario of scenario seed `seed`, with the
    /// library's own traffic mix (its sample of base prefixes announced at
    /// the window start, then the attacks and the operators' blackholing),
    /// over a window cut to `days` days.
    fn scenario(self, seed: u64) -> ScenarioConfig {
        let (days, attacks_per_day) = match self {
            Scale::Small => (2, 6.0),
            Scale::Tiny => (2, 5.0),
        };
        let mut config = ScenarioConfig::visibility_window(seed, attacks_per_day);
        config.calendar.window_end =
            SimTime::from_unix((config.calendar.window_start.day_index() + days) * 86_400);
        config
    }

    /// How many of the stream's first elements the workload keeps, so that
    /// every run seed gives the decoders the same amount of input.
    fn kept_elems(self) -> usize {
        match self {
            Scale::Small => 60_000,
            Scale::Tiny => usize::MAX,
        }
    }
}

/// The Small benchmark's scenario seeds; run seed `s` plays
/// `SMALL_SCENARIOS[s % 15]`. They were picked once, when the benchmark
/// was defined, in two steps. From scenario seeds 1–400, those whose
/// stream holds 60,000 to 80,000 elements, whose simulation took within
/// about 10% of the median (~350 ms on a 2-vCPU AMD EPYC host, median of
/// seven runs) and whose first 60,000 elements fill 5.0–5.26 MB of
/// archives: 26 seeds. Of these, the 16 whose mean `archive_replay` and
/// `live_tail` pass times over two 4-second runs and whose simulation time
/// were all within 9% of the 26 seeds' medians; the most typical one is
/// the held-out scenario. Run seeds so differ in content but hardly in
/// cost, and a later change to the simulator cannot change which
/// scenarios are played.
const SMALL_SCENARIOS: [u64; 15] =
    [14, 73, 79, 123, 139, 210, 217, 223, 260, 268, 310, 324, 330, 347, 370];

/// The held-out run seed: no change is written against it, and it plays
/// a scenario that no other run seed plays.
pub const HELD_OUT_SEED: u64 = 9001;
const HELD_OUT_SCENARIO: u64 = 224;

/// The scenario that run seed `seed` plays.
pub fn scenario_for(scale: Scale, seed: u64) -> ScenarioConfig {
    let scenario_seed = match scale {
        Scale::Small if seed == HELD_OUT_SEED => HELD_OUT_SCENARIO,
        Scale::Small => SMALL_SCENARIOS[(seed % SMALL_SCENARIOS.len() as u64) as usize],
        Scale::Tiny => seed,
    };
    scale.scenario(scenario_seed)
}

/// What identifies a workload's input: a change to any field means the
/// workload changed, whatever the timings say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub elems: u64,
    pub archives: usize,
    pub bytes: u64,
    /// FNV-1a over every archive's label, length and bytes, in
    /// `(dataset, collector)` order.
    pub hash: u64,
}

impl Fingerprint {
    /// Fingerprint archives given as `(dataset, collector, bytes, elems)`
    /// in `(dataset, collector)` order.
    pub fn of<'a>(archives: impl IntoIterator<Item = (DataSource, u16, &'a [u8], u64)>) -> Self {
        let mut fp = Fingerprint { elems: 0, archives: 0, bytes: 0, hash: 0xcbf2_9ce4_8422_2325 };
        let mut feed = |bytes: &[u8]| {
            for b in bytes {
                fp.hash = (fp.hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut totals = (0u64, 0usize, 0u64);
        for (dataset, collector, bytes, elems) in archives {
            feed(dataset.label().as_bytes());
            feed(&collector.to_be_bytes());
            feed(&(bytes.len() as u64).to_be_bytes());
            feed(bytes);
            totals.0 += elems;
            totals.1 += 1;
            totals.2 += bytes.len() as u64;
        }
        Fingerprint { elems: totals.0, archives: totals.1, bytes: totals.2, ..fp }
    }

    /// Fingerprint archives as `fleet_archives` returns them.
    pub fn of_archives(archives: &[CollectorArchive]) -> Self {
        Self::of(archives.iter().map(|a| (a.dataset, a.collector, &a.bytes[..], a.elems)))
    }

    pub fn describe(&self) -> String {
        format!(
            "elems={} archives={} bytes={} hash={:016x}",
            self.elems, self.archives, self.bytes, self.hash
        )
    }
}

/// The oracle: what a fresh session makes of the in-memory stream, with
/// no MRT encode or decode and no streaming merge in the way.
pub struct Reference {
    pub summary: StreamSummary,
    pub report: AnalyticsReport,
}

/// Everything a workload starts from.
pub struct World {
    pub study: Study,
    pub refdata: Arc<ReferenceData>,
    pub analytics: AnalyticsConfig,
    pub scenario: ScenarioConfig,
    /// How many of the stream's first elements the workload keeps.
    pub elems: usize,
    pub archives: Vec<CollectorArchive>,
    /// Time of the stream's first element (the live replay's start).
    pub start: SimTime,
    pub fingerprint: Fingerprint,
    pub reference: Reference,
}

impl World {
    /// Build the world and play `scenario` on it. With tracing, each
    /// layer's call gets a span and its time a sample.
    pub fn build(
        scale: Scale,
        scenario: &ScenarioConfig,
        mut tracing: Option<&mut Tracing>,
    ) -> World {
        let t = Instant::now();
        let topology = scale.topology();
        timed(&mut tracing, "topology.gen", "topology.gen.build_ms", t);

        let t = Instant::now();
        let corpus = CorpusGenerator::new(&topology, WORLD_SEED ^ 0x1212).generate();
        let dict = Arc::new(BlackholeDictionary::build(&corpus));
        timed(&mut tracing, "irr", "irr.dictionary_ms", t);

        let study =
            Study { topology, collector_config: scale.collectors(), dict, seed: WORLD_SEED };
        let deployment = study.deployment();
        let refdata = study.refdata_for(&deployment);

        let t = Instant::now();
        let output = run(&study.topology, deployment, scenario);
        timed(&mut tracing, "routing.sim", "routing.sim.busy_ms", t);
        let analytics =
            AnalyticsConfig::window(scenario.calendar.window_start, scenario.calendar.window_end);
        let elems = &output.elems[..output.elems.len().min(scale.kept_elems())];

        let t = Instant::now();
        let archives = fleet_archives(elems).expect("workspace archives serialize");
        let written = t.elapsed();
        timed(&mut tracing, "mrt.write", "mrt.write.busy_ms", t);
        let fingerprint = Fingerprint::of_archives(&archives);
        if let Some(t) = tracing.as_deref_mut() {
            let s = &mut *t.samples;
            push_sim_counters(s, &output);
            s.push("mrt.write.ns_per_elem", written.as_nanos() as f64 / elems.len().max(1) as f64);
            s.push("mrt.write.bytes_out", fingerprint.bytes as f64);
            s.push("mrt.write.archives", archives.len() as f64);
        }

        // The stream exactly as the archives' readers will merge it.
        let t = Instant::now();
        let merged = merge_streams(split_by_collector(elems).into_values().collect::<Vec<_>>());
        let start = merged.first().map_or(scenario.calendar.window_start, |e| e.time);
        let mut session = study.session(&refdata).build();
        session.ingest(&mut SliceSource::new(&merged));
        let mut pipeline = AnalyticsPipeline::new(refdata.clone(), analytics);
        let summary = session.finish_with(&mut pipeline);
        let reference = Reference { summary, report: pipeline.finalize() };
        timed(&mut tracing, "bench.oracle", "bench.oracle.build_ms", t);

        World {
            study,
            refdata,
            analytics,
            scenario: scenario.clone(),
            elems: elems.len(),
            archives,
            start,
            fingerprint,
            reference,
        }
    }
}

/// The counters of one `bh_workloads::run` call.
pub fn push_sim_counters(s: &mut Samples, output: &ScenarioOutput) {
    let simulated = output.elems.len() as f64;
    s.push("routing.sim.announcements", output.announcements as f64);
    s.push("routing.sim.elems_out", simulated);
    s.push("routing.sim.elems_per_announcement", simulated / output.announcements.max(1) as f64);
    let rejects = output.run_stats.import_rejects.values().sum::<u64>();
    s.push("routing.sim.import_rejects", rejects as f64);
    s.push("routing.sim.convergence_failures", output.run_stats.convergence_failures as f64);
}

/// Record a set-up call that began at `start` as a span and a sample.
fn timed(
    tracing: &mut Option<&mut Tracing>,
    span: &'static str,
    metric: &'static str,
    start: Instant,
) {
    if let Some(t) = tracing.as_deref_mut() {
        let end = Instant::now();
        t.trace.call(span, Some(t.parent), start, end);
        t.samples.push(metric, crate::ms(end - start));
    }
}

/// Fingerprints recorded when the benchmark was defined, one line per
/// `scale seed elems archives bytes hash`.
const RECORDED: &str = include_str!("../fingerprints.tsv");

/// Compare `fp` with the recorded fingerprint of `(scale, seed)`.
pub fn check_recorded(scale: Scale, seed: u64, fp: &Fingerprint) -> String {
    let recorded = RECORDED.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        (f.len() == 6 && f[0] == scale.label() && f[1] == seed.to_string())
            .then(|| f[2..].join(" "))
    });
    let mine = format!("{} {} {} {:016x}", fp.elems, fp.archives, fp.bytes, fp.hash);
    match recorded {
        None => "no recorded fingerprint for this seed".to_owned(),
        Some(r) if r == mine => "matches the recorded fingerprint".to_owned(),
        Some(r) => format!("WORKLOAD CHANGED: recorded {r}, now {mine}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_held_out_seed_plays_its_scenario() {
        assert!(!SMALL_SCENARIOS.contains(&HELD_OUT_SCENARIO));
        assert_eq!(scenario_for(Scale::Small, HELD_OUT_SEED).seed, HELD_OUT_SCENARIO);
        assert_eq!(scenario_for(Scale::Small, 42).seed, SMALL_SCENARIOS[42 % 15]);
    }

    #[test]
    fn fingerprint_sees_labels_and_bytes() {
        let a = Fingerprint::of([(DataSource::Ris, 0, &b"abc"[..], 3)]);
        assert_eq!((a.elems, a.archives, a.bytes), (3, 1, 3));
        assert_ne!(a, Fingerprint::of([(DataSource::Ris, 1, &b"abc"[..], 3)]));
        assert_ne!(a, Fingerprint::of([(DataSource::Ris, 0, &b"abd"[..], 3)]));
        assert_eq!(a, Fingerprint::of([(DataSource::Ris, 0, &b"abc"[..], 3)]));
    }
}
