//! Multi-collector fleet ingestion: golden equivalence of the k-way
//! merge against `merge_streams`, bit-identical inference over merged
//! and archive-ingested streams, checkpoint/resume taken mid-merge, and
//! the Small-scale end-to-end archive → merge → streaming-analytics run.

use std::sync::OnceLock;

use proptest::prelude::*;

use bh_bench::{Study, StudyRun, StudyScale};
use bh_bgp_types::as_path::AsPath;
use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::{Community, CommunitySet};
use bh_bgp_types::time::SimTime;
use bh_core::EventAccumulator;
use bh_routing::{
    collect_source, merge_streams, split_by_collector, BgpElem, DataSource, ElemSource, ElemType,
    MergedSource, SliceSource,
};
use bh_workloads::{fleet_archives_for, merged_archives};

// ---- arbitrary collector streams ------------------------------------------

/// The collector labels an arbitrary elem set is split across.
const LABELS: [(DataSource, u16); 6] = [
    (DataSource::Ris, 0),
    (DataSource::Ris, 3),
    (DataSource::RouteViews, 1),
    (DataSource::Pch, 0),
    (DataSource::Cdn, 2),
    (DataSource::Cdn, 9),
];

type ElemFields = (u64, u32, bool, u32, u8, Vec<u32>, Vec<u32>);

/// Raw draws for one element; [`mk_elem`] stamps the collector label.
fn arb_fields() -> impl Strategy<Value = ElemFields> {
    (
        0u64..5_000,
        1u32..100_000,
        any::<bool>(),
        any::<u32>(),
        1u8..=32,
        prop::collection::vec(1u32..50_000, 1..4),
        prop::collection::vec(any::<u32>(), 0..3),
    )
}

/// Build one element under a `(dataset, collector)` label, in a shape
/// that survives the MRT round trip verbatim (announces carry an
/// explicit NEXT_HOP; withdrawals carry no attributes).
fn mk_elem(fields: ElemFields, dataset: DataSource, collector: u16) -> BgpElem {
    let (t, peer, announce, net, len, hops, comms) = fields;
    BgpElem {
        time: SimTime::from_unix(t),
        dataset,
        collector,
        peer_asn: Asn::new(peer),
        peer_ip: "198.51.100.7".parse().unwrap(),
        elem_type: if announce { ElemType::Announce } else { ElemType::Withdraw },
        prefix: bh_bgp_types::prefix::Ipv4Prefix::from_raw(net, len),
        as_path: if announce {
            AsPath::from_sequence(hops.into_iter().map(Asn::new).collect::<Vec<_>>())
        } else {
            AsPath::empty()
        },
        communities: if announce {
            CommunitySet::from_classic(comms.into_iter().map(Community).collect())
        } else {
            CommunitySet::new()
        },
        next_hop: announce.then(|| "203.0.113.66".parse().unwrap()),
    }
}

/// An arbitrary elem set split across the [`LABELS`] collector streams,
/// each stream time-sorted (the per-collector arrival order every real
/// archive has). Some streams come out empty — that is part of the
/// property.
fn arb_streams() -> impl Strategy<Value = Vec<Vec<BgpElem>>> {
    prop::collection::vec((0usize..LABELS.len(), arb_fields()), 0..240).prop_map(|pairs| {
        let mut streams: Vec<Vec<BgpElem>> = vec![Vec::new(); LABELS.len()];
        for (pick, fields) in pairs {
            let (dataset, collector) = LABELS[pick];
            streams[pick].push(mk_elem(fields, dataset, collector));
        }
        for stream in &mut streams {
            stream.sort_by_key(|e| e.time);
        }
        streams
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Golden order: for arbitrary elem sets split across arbitrary
    /// collector streams, the k-way `MergedSource` yields exactly the
    /// `merge_streams` order.
    #[test]
    fn merged_source_yields_exact_merge_streams_order(streams in arb_streams()) {
        let expected = merge_streams(streams.clone());
        let sources: Vec<SliceSource<'_>> = streams.iter().map(SliceSource::from).collect();
        let merged = collect_source(MergedSource::new(sources));
        prop_assert_eq!(merged, expected);
    }
}

// ---- bit-identical inference ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })] // full pipeline per case

    /// The `InferenceResult` over a fleet-ingested scenario is
    /// bit-identical to single-source ingestion of the materialized
    /// merged stream — for both the `MergedSource` over in-memory
    /// streams and `merged_archives` over the MRT archives.
    #[test]
    fn fleet_inference_is_bit_identical_to_single_source(seed in 0u64..200) {
        let study = Study::build(StudyScale::Tiny, seed);
        let StudyRun { output, refdata, .. } = study.visibility_run(2, 5.0);

        let streams: Vec<Vec<BgpElem>> =
            split_by_collector(&output.elems).into_values().collect();
        let merged = merge_streams(streams.clone());
        let expected = study.infer(&refdata, &merged);

        // Sequential k-way merge over in-memory sources.
        let sources: Vec<SliceSource<'_>> = streams.iter().map(SliceSource::from).collect();
        let via_merge = study.infer_source(&refdata, &mut MergedSource::new(sources));
        prop_assert_eq!(&via_merge, &expected);

        // Merged stream over MRT archives.
        let archives = output.fleet_archives().expect("archives serialize");
        let via_fleet = study.infer_fleet(&refdata, &archives);
        prop_assert_eq!(&via_fleet, &expected);
    }
}

// ---- checkpoint/resume mid-merge ------------------------------------------

#[test]
fn checkpoint_resume_mid_fleet_ingest_equals_uninterrupted_run() {
    let study = Study::build(StudyScale::Tiny, 91);
    let StudyRun { output, refdata, .. } = study.visibility_run(3, 6.0);
    let archives = output.fleet_archives().expect("archives serialize");

    // Uninterrupted run.
    let expected = study.infer_fleet(&refdata, &archives);

    // Same merged stream, suspended mid-ingest: checkpoint the session,
    // drop it, resume in a fresh one, and drain the *same* live stream.
    let mut stream = merged_archives(&archives);
    let mut first = study.session(&refdata).build();
    let mut consumed = 0u64;
    let pause_at = (output.elems.len() / 2) as u64;
    while consumed < pause_at {
        let Some(elem) = stream.next_elem() else { break };
        first.push(elem);
        consumed += 1;
    }
    assert_eq!(consumed, pause_at, "stream ended before the pause point");
    let checkpoint = first.checkpoint();
    assert!(
        checkpoint.open_events() + checkpoint.pending_closed() > 0 || first.stats().elems > 0,
        "degenerate: the checkpoint captured no progress"
    );
    drop(first);

    let mut resumed = study.session(&refdata).resume(checkpoint);
    let rest = resumed.ingest(&mut stream);
    assert!(stream.into_sources().iter().all(|s| s.error().is_none()));
    assert_eq!(consumed + rest, output.elems.len() as u64);
    assert_eq!(resumed.finish(), expected);
}

// ---- Small-scale end-to-end -----------------------------------------------

/// One Small-scale environment for the end-to-end acceptance test (the
/// ~230-AS build cost dominates; see pipeline_properties.rs).
fn small_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::build(StudyScale::Small, 42))
}

/// The acceptance run: scenario → per-collector MRT archives (including
/// the deployment's silent collectors) → `merged_archives` → one session
/// draining closed events into the `AnalyticsPipeline` produces the same
/// summary and `AnalyticsReport` as the materialized path.
#[test]
fn small_scale_fleet_to_streaming_analytics_matches_materialized_path() {
    let study = small_study();
    let StudyRun { output, refdata, analytics, .. } = study.visibility_run(3, 5.0);
    let archives =
        fleet_archives_for(&study.deployment(), &output.elems).expect("archives serialize");
    assert!(archives.len() > 8, "expected a real fleet, got {}", archives.len());

    // Materialized path: merge into a Vec, batch inference, then the
    // accumulators over the finished result.
    let merged = merge_streams(split_by_collector(&output.elems).into_values().collect());
    let batch = study.infer(&refdata, &merged);
    let mut batch_pipeline = study.analytics_pipeline(&refdata, analytics);
    batch_pipeline.observe_result(&batch);
    let batch_report = batch_pipeline.finalize();

    // Streaming path: archive sources → merge → session, closed events
    // drained into the pipeline as they go. No stream-sized Vec anywhere.
    let mut session = study.session(&refdata).build();
    let mut pipeline = study.analytics_pipeline(&refdata, analytics);
    let mut stream = merged_archives(&archives);
    let mut ingested = 0u64;
    while let Some(elem) = stream.next_elem() {
        session.push(elem);
        ingested += 1;
        if ingested.is_multiple_of(1_000) {
            session.drain_closed_into(&mut pipeline);
        }
    }
    for source in stream.into_sources() {
        assert!(source.error().is_none(), "archive error: {:?}", source.error());
    }
    assert_eq!(ingested, output.elems.len() as u64, "every element must stream through");
    let summary = session.finish_with(&mut pipeline);
    let report = pipeline.finalize();

    assert_eq!(summary.stats, batch.stats);
    assert_eq!(summary.census, batch.census);
    assert_eq!(summary.per_dataset, batch.per_dataset);
    assert_eq!(report, batch_report, "streamed AnalyticsReport diverged");
    assert!(!report.table3.is_empty());
}
