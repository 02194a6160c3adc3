//! Property-based cross-crate invariants: random short scenarios must
//! always satisfy the structural guarantees the analyses rely on.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use proptest::prelude::*;

use bh_bench::{Study, StudyRun, StudyScale};
use bh_bgp_types::time::SimDuration;
use bh_core::group_events;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case runs a full pipeline; keep the count low
    })]

    #[test]
    fn pipeline_invariants_hold(seed in 0u64..500, days in 2u64..5, rate in 2.0f64..8.0) {
        let study = Study::build(StudyScale::Tiny, seed);
        let StudyRun { output, result, .. } = study.visibility_run(days, rate);

        // 1. No false-positive prefixes.
        let truth: BTreeSet<_> = output.ground_truth.iter().map(|t| t.prefix).collect();
        for e in &result.events {
            prop_assert!(truth.contains(&e.prefix), "false positive {}", e.prefix);
        }

        // 2. Time sanity: start <= end, events within the window.
        for e in &result.events {
            if let Some(end) = e.end {
                prop_assert!(e.start <= end);
            }
            prop_assert!(!e.providers.is_empty(), "event without providers");
            prop_assert!(e.peer_count >= 1);
        }

        // 3. Grouping invariants at any timeout.
        for timeout in [0u64, 60, 300, 3600] {
            let periods = group_events(&result.events, SimDuration::secs(timeout));
            prop_assert!(periods.len() <= result.events.len());
            let period_events: usize = periods.iter().map(|p| p.event_count).sum();
            prop_assert_eq!(period_events, result.events.len());
            for p in &periods {
                prop_assert!(p.event_count >= 1);
            }
        }

        // 4. Dataset visibility unions equal event prefixes.
        let mut union = BTreeSet::new();
        for vis in result.per_dataset.values() {
            union.extend(vis.prefixes.iter().copied());
        }
        let event_prefixes: BTreeSet<_> = result.events.iter().map(|e| e.prefix).collect();
        prop_assert_eq!(union, event_prefixes);

        // 5. Census totals are bounded by processed announcements.
        prop_assert!(result.census.total_observations() <= result.stats.elems);
    }

    #[test]
    fn session_is_deterministic(seed in 0u64..200) {
        let study = Study::build(StudyScale::Tiny, seed);
        let refdata = study.refdata();
        let StudyRun { output, .. } = study.visibility_run(2, 4.0);
        let a = study.infer(&refdata, &output.elems);
        let b = study.infer(&refdata, &output.elems);
        prop_assert_eq!(a, b);
    }
}

/// One Small-scale environment shared by every Small-scale case:
/// building the ~230-AS topology and corpus dominates the test's
/// wall-clock, and the property varies the scenario, not the Internet.
fn small_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::build(StudyScale::Small, 42))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 3, // each case simulates days of BGP at Small scale
    })]

    /// The policy-extension no-op guarantee: installing an *empty*
    /// `PolicyTable` compiles to nothing, so a Small-scale run with it
    /// is bit-identical — element for element, event for event — to
    /// the pre-extension baseline path.
    #[test]
    fn empty_policy_table_is_bit_identical_to_baseline(
        days in 2u64..4,
        rate in 2.0f64..6.0,
    ) {
        let study = small_study();
        let baseline = study.visibility_run(days, rate);
        let with_table =
            study.visibility_run_with_policies(days, rate, &bh_topology::PolicyTable::new());

        prop_assert_eq!(&with_table.output.elems, &baseline.output.elems);
        prop_assert_eq!(
            with_table.output.ground_truth.len(),
            baseline.output.ground_truth.len()
        );
        prop_assert_eq!(&with_table.output.run_stats, &baseline.output.run_stats);
        prop_assert_eq!(&with_table.result, &baseline.result);
    }
}
