//! Streaming-analytics equivalence: every paper table/figure computed
//! by a mergeable [`EventAccumulator`] — fed mid-stream, out of order,
//! or split across accumulators and merged in any grouping — equals the
//! batch function over the materialized event list.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use bh_bench::{Study, StudyRun, StudyScale};
use bh_bgp_types::asn::Asn;
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_core::prelude::*;
use bh_routing::DataSource;

/// One Small-scale environment shared by the golden tests: building the
/// ~230-AS topology and corpus dominates wall-clock.
fn small_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::build(StudyScale::Small, 42))
}

/// The golden acceptance test: on a Small-scale scenario, the streamed
/// single-session report is field-for-field equal to every batch
/// function.
#[test]
fn streamed_reports_equal_batch_functions() {
    let study = small_study();
    let StudyRun { output, result, refdata, analytics, report } = study.visibility_run(4, 6.0);
    assert!(!result.events.is_empty(), "degenerate run: nothing inferred");

    // The report (computed by the accumulators) against each batch fn.
    assert_eq!(report.table3, table3(&result, &refdata));
    assert_eq!(report.table4, table4(&result.events, &refdata));
    assert_eq!(
        report.daily,
        daily_series(&result.events, analytics.window_start, analytics.window_end)
    );
    assert_eq!(report.prefixes_per_provider, prefixes_per_provider(&result.events, &refdata));
    assert_eq!(report.prefixes_per_user, prefixes_per_user(&result.events, &refdata));
    let (provider_countries, user_countries) = per_country(&result.events, &refdata);
    assert_eq!(report.provider_countries, provider_countries);
    assert_eq!(report.user_countries, user_countries);
    assert_eq!(report.providers_per_event, providers_per_event(&result.events));
    assert_eq!(report.distance_histogram, distance_histogram(&result.events));
    assert_eq!(report.durations, durations(&result.events, analytics.now));
    assert_eq!(report.periods, group_events(&result.events, analytics.grouping_timeout));
    assert_eq!(report.blackholed_prefixes, blackholed_prefixes(&result.events));

    // One-pass streaming (drain mid-stream, finish into the pipeline,
    // never materializing the event Vec) produces the identical report.
    let (summary, streamed) =
        study.infer_streaming_analytics(&refdata, &output.elems, analytics, 1_000);
    assert_eq!(summary.stats, result.stats);
    assert_eq!(summary.census, result.census);
    assert_eq!(summary.per_dataset, result.per_dataset);
    assert_eq!(streamed, report);
}

/// Reference data for the synthetic-event property tests.
fn tiny_refdata() -> Arc<ReferenceData> {
    static REFDATA: OnceLock<Arc<ReferenceData>> = OnceLock::new();
    REFDATA.get_or_init(|| Study::build(StudyScale::Tiny, 5).refdata()).clone()
}

/// A synthetic event from small generator components.
#[allow(clippy::type_complexity)]
fn build_event(
    (prefix_sel, start, dur): (u8, u32, Option<u32>),
    (providers, users, distances, bundled): (BTreeSet<u8>, BTreeSet<u8>, BTreeSet<u8>, bool),
) -> BlackholeEvent {
    let prefix = format!("198.51.{}.{}/32", prefix_sel % 4, prefix_sel).parse().unwrap();
    let providers: BTreeSet<ProviderId> = providers
        .into_iter()
        .map(|p| {
            if p == 0 {
                ProviderId::Ixp(bh_topology::IxpId(0))
            } else {
                ProviderId::As(Asn::new(64_000 + p as u32))
            }
        })
        .collect();
    let distances: BTreeSet<DetectionDistance> = distances
        .into_iter()
        .map(|d| if d == 0 { DetectionDistance::NoPath } else { DetectionDistance::Hops(d) })
        .collect();
    BlackholeEvent {
        prefix,
        providers,
        users: users.into_iter().map(|u| Asn::new(65_000 + u as u32)).collect(),
        start: SimTime::from_unix(start as u64),
        end: dur.map(|d| SimTime::from_unix(start as u64 + d as u64)),
        peer_count: 1,
        datasets: BTreeSet::from([DataSource::Ris]),
        distances,
        bundled_detection: bundled,
    }
}

fn arb_events() -> impl Strategy<Value = Vec<BlackholeEvent>> {
    prop::collection::vec(
        (
            (0u8..8, 0u32..5_000, prop::option::of(0u32..2_000)),
            (
                prop::collection::btree_set(0u8..5, 1..4),
                prop::collection::btree_set(0u8..5, 0..4),
                prop::collection::btree_set(0u8..4, 1..3),
                any::<bool>(),
            ),
        )
            .prop_map(|(timing, content)| build_event(timing, content)),
        1..40,
    )
}

fn pipeline_over(events: &[BlackholeEvent]) -> AnalyticsPipeline {
    let config = AnalyticsConfig::window(SimTime::ZERO, SimTime::ZERO + SimDuration::days(1));
    let mut pipeline = AnalyticsPipeline::new(tiny_refdata(), config);
    for event in events {
        pipeline.observe(event);
    }
    pipeline
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
    })]

    /// Every registered accumulator is merge-associative and
    /// commutative: splitting an arbitrary event multiset three ways
    /// and folding the parts in any grouping or order finalizes to the
    /// same report as one accumulator fed everything.
    #[test]
    fn every_accumulator_is_merge_associative(
        events in arb_events(),
        split_a in 0usize..40,
        split_b in 0usize..40,
    ) {
        let cut_a = split_a % (events.len() + 1);
        let cut_b = cut_a + (split_b % (events.len() - cut_a + 1));
        let (ab, c) = events.split_at(cut_b);
        let (a, b) = ab.split_at(cut_a);

        let reference = pipeline_over(&events).finalize();

        // (A + B) + C
        let mut left = pipeline_over(a);
        left.merge(pipeline_over(b));
        left.merge(pipeline_over(c));
        prop_assert_eq!(left.finalize(), reference.clone());

        // A + (B + C)
        let mut right_tail = pipeline_over(b);
        right_tail.merge(pipeline_over(c));
        let mut right = pipeline_over(a);
        right.merge(right_tail);
        prop_assert_eq!(right.finalize(), reference.clone());

        // (C + B) + A — commutativity of the same fold.
        let mut rev = pipeline_over(c);
        rev.merge(pipeline_over(b));
        rev.merge(pipeline_over(a));
        prop_assert_eq!(rev.finalize(), reference.clone());

        // Observation order within one accumulator is irrelevant too.
        let mut reversed_events = events.clone();
        reversed_events.reverse();
        prop_assert_eq!(pipeline_over(&reversed_events).finalize(), reference);
    }

    /// The period accumulator (the trickiest merge: gap-tolerant
    /// interval coalescing) independently agrees with the batch sweep
    /// under arbitrary splits.
    #[test]
    fn period_accumulator_matches_batch_grouping(
        events in arb_events(),
        timeout_secs in 0u64..1_200,
        split in 0usize..40,
    ) {
        let timeout = SimDuration::secs(timeout_secs);
        let batch = group_events(&events, timeout);

        let cut = split % (events.len() + 1);
        let (a, b) = events.split_at(cut);
        let mut left = PeriodAccumulator::new(timeout);
        for e in a {
            left.observe(e);
        }
        let mut right = PeriodAccumulator::new(timeout);
        for e in b {
            right.observe(e);
        }
        right.merge(left);
        prop_assert_eq!(right.finalize(), batch);
    }
}
