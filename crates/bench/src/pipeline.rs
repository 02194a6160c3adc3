//! The end-to-end study pipeline at configurable scale.
//!
//! Mirrors the paper's pipeline exactly:
//!
//! 1. the Internet exists (topology + collector deployment),
//! 2. operators document their blackhole communities (corpus),
//! 3. the dictionary is mined from the corpus (§4.1),
//! 4. attacks happen and operators react (scenario → BGP simulation),
//! 5. collectors observe, the session infers (§4.2),
//! 6. analytics reproduce the tables and figures.
//!
//! Scenario runs build **one** collector deployment and thread it
//! through simulation *and* reference data, so the metadata the
//! inference consults always matches the sessions that observed the
//! stream (and the deployment is computed once, not twice).

use std::sync::Arc;

use bh_bgp_types::time::SimTime;
use bh_core::{
    score_events, AnalyticsConfig, AnalyticsPipeline, AnalyticsReport, ConfusionReport,
    EngineConfig, EventAccumulator, InferenceResult, InferenceSession, ReferenceData,
    SessionBuilder, StreamSummary,
};
use bh_irr::{BlackholeDictionary, Corpus, CorpusGenerator, NegativeControls};
use bh_routing::{deploy, BgpElem, CollectorConfig, CollectorDeployment, ElemSource, SliceSource};
use bh_topology::{PolicyTable, Topology, TopologyBuilder, TopologyConfig};
use bh_workloads::{
    merged_archives, run, run_adversarial, run_with_policies, AdversarialConfig, AdversarialOutput,
    CollectorArchive, ScenarioConfig, ScenarioOutput,
};

/// Pipeline scale: trade fidelity for wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyScale {
    /// ~60 ASes — unit-test speed.
    Tiny,
    /// ~230 ASes — bench default: minutes-scale full runs, shape-faithful.
    Small,
    /// The full Table-2-scale Internet (~1,150 ASes) — example/demo runs.
    Full,
    /// The CAIDA-shaped ~75k-AS internet with power-law customer degrees
    /// — the propagation-engine scale tier. Whole-study runs at this
    /// scale are hours; it exists for the propagation benches and the
    /// massive smoke path.
    Massive,
}

impl StudyScale {
    /// Topology configuration for the scale.
    pub fn topology_config(self, seed: u64) -> TopologyConfig {
        match self {
            StudyScale::Tiny => TopologyConfig::tiny(seed),
            StudyScale::Small => TopologyConfig {
                seed,
                tier1_count: 8,
                transit_count: 70,
                content_count: 80,
                enterprise_count: 30,
                edu_count: 15,
                unknown_count: 15,
                ixp_count: 12,
                bh_transit: bh_topology::ProviderCounts { documented: 40, undocumented: 16 },
                bh_ixp: 10,
                bh_content: bh_topology::ProviderCounts { documented: 5, undocumented: 3 },
                bh_edu: bh_topology::ProviderCounts { documented: 3, undocumented: 0 },
                bh_enterprise: bh_topology::ProviderCounts { documented: 2, undocumented: 1 },
                bh_unknown: bh_topology::ProviderCounts { documented: 3, undocumented: 1 },
                peeringdb_coverage: 0.72,
                power_law_degrees: false,
            },
            StudyScale::Full => TopologyConfig { seed, ..Default::default() },
            StudyScale::Massive => TopologyConfig::massive(seed),
        }
    }

    /// Collector configuration for the scale.
    pub fn collector_config(self, seed: u64) -> CollectorConfig {
        match self {
            StudyScale::Tiny => CollectorConfig::tiny(seed),
            StudyScale::Small => CollectorConfig {
                seed,
                ris_peers: 18,
                rv_peers: 14,
                pch_ixp_coverage: 0.6,
                cdn_peers: 90,
                full_table_fraction: 0.5,
            },
            StudyScale::Full | StudyScale::Massive => {
                CollectorConfig { seed, ..Default::default() }
            }
        }
    }
}

/// A fully assembled study environment.
pub struct Study {
    /// The synthetic Internet.
    pub topology: Topology,
    /// Collector deployment (kept for re-deployments).
    pub collector_config: CollectorConfig,
    /// The mined, documented dictionary (shared by every session).
    pub dict: Arc<BlackholeDictionary>,
    /// Base RNG seed.
    pub seed: u64,
}

/// One scenario run, end to end: the collector stream, the inference
/// result, the accumulator-computed analytics report, and the reference
/// data that matches the deployment which observed the stream.
pub struct StudyRun {
    /// Scenario output (elements + ground truth).
    pub output: ScenarioOutput,
    /// Inference over the whole stream.
    pub result: InferenceResult,
    /// The reference data the inference used (built from the same
    /// deployment that produced `output`).
    pub refdata: Arc<ReferenceData>,
    /// The analytics window/now/grouping parameters of this run (the
    /// scenario calendar, with the paper's 5-minute grouping timeout).
    pub analytics: AnalyticsConfig,
    /// Every paper table/figure of this run, computed by the
    /// [`AnalyticsPipeline`] accumulators — field for field equal to the
    /// batch functions over `result`.
    pub report: AnalyticsReport,
}

/// One adversarial run, end to end: the labelled workload's output,
/// the inference over its collector stream, and the confusion report
/// scoring that inference against the simulator's ground truth.
pub struct AdversarialRun {
    /// Workload output (elements + cooperative ground truth + labels).
    pub output: AdversarialOutput,
    /// Inference over the whole stream.
    pub result: InferenceResult,
    /// The reference data the inference used.
    pub refdata: Arc<ReferenceData>,
    /// Precision/recall/per-kind false-positive attribution.
    pub report: ConfusionReport,
}

impl Study {
    /// Build the environment: topology, corpus, dictionary.
    pub fn build(scale: StudyScale, seed: u64) -> Self {
        let topology = TopologyBuilder::new(scale.topology_config(seed)).build();
        let corpus = CorpusGenerator::new(&topology, seed ^ 0x1212).generate();
        let dict = Arc::new(BlackholeDictionary::build(&corpus));
        Study { topology, collector_config: scale.collector_config(seed ^ 0x3434), dict, seed }
    }

    /// A fresh collector deployment (deterministic for a given study).
    pub fn deployment(&self) -> CollectorDeployment {
        deploy(&self.topology, &self.collector_config)
    }

    /// Reference data matching a specific deployment.
    pub fn refdata_for(&self, deployment: &CollectorDeployment) -> Arc<ReferenceData> {
        Arc::new(ReferenceData::build(&self.topology, deployment))
    }

    /// Reference data for a fresh (deterministic) deployment.
    pub fn refdata(&self) -> Arc<ReferenceData> {
        self.refdata_for(&self.deployment())
    }

    /// A session builder over this study's dictionary and the given
    /// reference data.
    pub fn session(&self, refdata: &Arc<ReferenceData>) -> SessionBuilder {
        SessionBuilder::new(self.dict.clone(), refdata.clone())
    }

    /// One-shot inference over an in-memory element stream.
    pub fn infer(&self, refdata: &Arc<ReferenceData>, elems: &[BgpElem]) -> InferenceResult {
        self.infer_with_config(refdata, elems, EngineConfig::default())
    }

    /// Inference with explicit session configuration (ablations).
    pub fn infer_with_config(
        &self,
        refdata: &Arc<ReferenceData>,
        elems: &[BgpElem],
        config: EngineConfig,
    ) -> InferenceResult {
        let mut session: InferenceSession = self.session(refdata).config(config).build();
        session.ingest(&mut SliceSource::new(elems));
        session.finish()
    }

    /// One-shot inference over any element source — e.g. a
    /// [`MergedSource`](bh_routing::MergedSource) over many archives.
    pub fn infer_source<S: ElemSource + ?Sized>(
        &self,
        refdata: &Arc<ReferenceData>,
        source: &mut S,
    ) -> InferenceResult {
        let mut session = self.session(refdata).build();
        session.ingest(source);
        session.finish()
    }

    /// The full multi-collector historical path: per-collector MRT
    /// archives → [`merged_archives`] → one inference session. Panics if
    /// any archive fails to decode cleanly or skips a record — benches
    /// and tests want that loud.
    pub fn infer_fleet(
        &self,
        refdata: &Arc<ReferenceData>,
        archives: &[CollectorArchive],
    ) -> InferenceResult {
        let mut stream = merged_archives(archives);
        let result = self.infer_source(refdata, &mut stream);
        for source in stream.into_sources() {
            assert!(source.error().is_none(), "fleet archive error: {:?}", source.error());
            assert_eq!(source.records_skipped(), 0, "fleet archive skipped records");
        }
        result
    }

    /// An [`AnalyticsPipeline`] with every paper-metric accumulator
    /// registered over this study's reference data.
    pub fn analytics_pipeline(
        &self,
        refdata: &Arc<ReferenceData>,
        config: AnalyticsConfig,
    ) -> AnalyticsPipeline {
        AnalyticsPipeline::new(refdata.clone(), config)
    }

    /// One-pass streaming inference **and** analytics: closed events are
    /// drained into the pipeline every `drain_every` elements and the
    /// session finishes straight into it, so the full event `Vec` is
    /// never materialized. Returns the summary (census, counters,
    /// visibility) and the finalized report.
    pub fn infer_streaming_analytics(
        &self,
        refdata: &Arc<ReferenceData>,
        elems: &[BgpElem],
        config: AnalyticsConfig,
        drain_every: u64,
    ) -> (StreamSummary, AnalyticsReport) {
        let mut session = self.session(refdata).build();
        let mut pipeline = self.analytics_pipeline(refdata, config);
        let mut source = SliceSource::new(elems);
        let mut n = 0u64;
        while let Some(elem) = source.next_elem() {
            session.push(elem);
            n += 1;
            if n.is_multiple_of(drain_every.max(1)) {
                session.drain_closed_into(&mut pipeline);
            }
        }
        let summary = session.finish_with(&mut pipeline);
        (summary, pipeline.finalize())
    }

    /// Run a scenario and infer over its stream with ONE deployment:
    /// the same collector set observes and parameterizes the refdata.
    /// The analytics report comes from the same accumulators the
    /// streaming paths use, fed from the materialized result; the fold
    /// is one pass over the events — milliseconds against the
    /// multi-second simulation — so every run carries its report.
    fn scenario_run(&self, config: &ScenarioConfig) -> StudyRun {
        self.scenario_run_with(config, None)
    }

    fn scenario_run_with(
        &self,
        config: &ScenarioConfig,
        policies: Option<&PolicyTable>,
    ) -> StudyRun {
        let deployment = self.deployment();
        let refdata = self.refdata_for(&deployment);
        let analytics =
            AnalyticsConfig::window(config.calendar.window_start, config.calendar.window_end);
        let output = match policies {
            None => run(&self.topology, deployment, config),
            Some(table) => run_with_policies(&self.topology, deployment, config, table),
        };
        let result = self.infer(&refdata, &output.elems);
        let mut pipeline = self.analytics_pipeline(&refdata, analytics);
        pipeline.observe_result(&result);
        let report = pipeline.finalize();
        StudyRun { output, result, refdata, analytics, report }
    }

    /// The standard short visibility run used by most benches: `days`
    /// days at `rate` attacks/day inside the Aug-2016+ window.
    pub fn visibility_run(&self, days: u64, rate: f64) -> StudyRun {
        let mut config = ScenarioConfig::visibility_window(self.seed ^ 0x7777, rate);
        config.calendar.window_end =
            SimTime::from_unix((config.calendar.window_start.day_index() + days) * 86_400);
        self.scenario_run(&config)
    }

    /// [`visibility_run`](Self::visibility_run) with a per-AS
    /// [`PolicyTable`] installed on the simulator. An empty table is
    /// property-tested bit-identical to the plain run — this is the
    /// policy-overhead bench's comparison axis.
    pub fn visibility_run_with_policies(
        &self,
        days: u64,
        rate: f64,
        policies: &PolicyTable,
    ) -> StudyRun {
        let mut config = ScenarioConfig::visibility_window(self.seed ^ 0x7777, rate);
        config.calendar.window_end =
            SimTime::from_unix((config.calendar.window_start.day_index() + days) * 86_400);
        self.scenario_run_with(&config, Some(policies))
    }

    /// Run an adversarial workload end to end: simulate, infer over the
    /// collector stream, and score the inference against the workload's
    /// ground-truth labels.
    pub fn adversarial_run(&self, config: &AdversarialConfig) -> AdversarialRun {
        self.adversarial_run_with(self.dict.clone(), None, config)
    }

    /// [`adversarial_run`](Self::adversarial_run) with an injected
    /// dictionary and optional negative controls — the comparison axis
    /// for scoring the classifier: a trap-poisoned
    /// [`Study::naive_dict`] with and without
    /// [`CommunityClassifier::negative_controls`](bh_irr::CommunityClassifier::negative_controls).
    pub fn adversarial_run_with(
        &self,
        dict: Arc<BlackholeDictionary>,
        controls: Option<Arc<NegativeControls>>,
        config: &AdversarialConfig,
    ) -> AdversarialRun {
        let deployment = self.deployment();
        let refdata = self.refdata_for(&deployment);
        let output = run_adversarial(&self.topology, deployment, config);
        let mut builder = SessionBuilder::new(dict, refdata.clone());
        if let Some(controls) = controls {
            builder = builder.negative_controls(controls);
        }
        let mut session = builder.build();
        session.ingest(&mut SliceSource::new(&output.elems));
        let result = session.finish();
        let report = score_events(config.name.clone(), &result.events, output.labels.clone());
        AdversarialRun { output, result, refdata, report }
    }

    /// Regenerate this study's documentation corpus (the build does not
    /// retain it; same seed, so byte-identical to what the dictionary
    /// was mined from).
    pub fn corpus(&self) -> Corpus {
        CorpusGenerator::new(&self.topology, self.seed ^ 0x1212).generate()
    }

    /// The naive, stem-only dictionary over the same corpus: the
    /// dictionary-only baseline whose trap-poisoned blackhole map the
    /// classifier's negative controls are scored against.
    pub fn naive_dict(&self) -> Arc<BlackholeDictionary> {
        Arc::new(BlackholeDictionary::build_naive(&self.corpus()))
    }

    /// The longitudinal run (Fig. 4): the full Dec 2014 – Mar 2017 window
    /// at `rate` attacks/day (scaled down vs. reality; shape-preserving).
    pub fn longitudinal_run(&self, rate: f64) -> StudyRun {
        let config = ScenarioConfig::study(self.seed ^ 0x9999, rate);
        self.scenario_run(&config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_study_builds_and_infers() {
        let study = Study::build(StudyScale::Tiny, 5);
        let run = study.visibility_run(4, 6.0);
        assert!(!run.output.ground_truth.is_empty());
        assert!(
            !run.result.events.is_empty(),
            "inference found no events from {} truths",
            run.output.ground_truth.len()
        );
    }

    #[test]
    fn dictionary_quality_at_small_scale() {
        let study = Study::build(StudyScale::Small, 7);
        let v = study.dict.validate_against(&study.topology);
        assert!(v.precision() >= 0.99, "precision {}", v.precision());
        assert!(v.recall() >= 0.95, "recall {}", v.recall());
        assert_eq!(v.undocumented_leaks, 0);
    }

    #[test]
    fn run_refdata_matches_observing_deployment() {
        let study = Study::build(StudyScale::Tiny, 9);
        let run = study.visibility_run(2, 4.0);
        // The refdata threaded through the run reflects the exact
        // deployment that observed the stream: every session peer is a
        // direct feed of its platform (deploy() is deterministic, so a
        // fresh deployment reproduces the one the run used).
        for session in study.deployment().sessions() {
            assert!(
                run.refdata.has_direct_feed(session.dataset, session.peer_asn),
                "session {:?}/{} missing from refdata",
                session.dataset,
                session.peer_asn
            );
        }
    }

    #[test]
    fn run_report_matches_batch_analytics() {
        use bh_core::{daily_series, group_events, table3, table4};

        let study = Study::build(StudyScale::Tiny, 13);
        let run = study.visibility_run(3, 6.0);
        assert!(!run.result.events.is_empty());
        // The report the run carries equals the batch functions.
        assert_eq!(run.report.table3, table3(&run.result, &run.refdata));
        assert_eq!(run.report.table4, table4(&run.result.events, &run.refdata));
        assert_eq!(
            run.report.daily,
            daily_series(&run.result.events, run.analytics.window_start, run.analytics.window_end)
        );
        assert_eq!(
            run.report.periods,
            group_events(&run.result.events, run.analytics.grouping_timeout)
        );
    }

    #[test]
    fn fleet_ingestion_matches_merged_materialized() {
        let study = Study::build(StudyScale::Tiny, 19);
        let run = study.visibility_run(2, 4.0);
        let archives = run.output.fleet_archives().expect("archives serialize");
        assert!(archives.len() >= 2);
        // The reference is the same merged order the fleet yields,
        // materialized: MRT normalizes NEXT_HOP, which the inference
        // ignores, so results are bit-identical.
        let merged = bh_routing::merge_streams(
            bh_routing::split_by_collector(&run.output.elems).into_values().collect(),
        );
        let expected = study.infer(&run.refdata, &merged);
        assert_eq!(study.infer_fleet(&run.refdata, &archives), expected);
    }

    #[test]
    fn streaming_analytics_match_run_report() {
        let study = Study::build(StudyScale::Tiny, 17);
        let run = study.visibility_run(2, 5.0);
        let (summary, report) =
            study.infer_streaming_analytics(&run.refdata, &run.output.elems, run.analytics, 512);
        assert_eq!(summary.stats, run.result.stats);
        assert_eq!(summary.per_dataset, run.result.per_dataset);
        assert_eq!(report, run.report);
    }
}
