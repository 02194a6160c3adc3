//! Engine-equivalence properties: the three-phase rank-scheduled
//! propagation engine must be *bit-identical* to the sequential queue
//! engine — same collector elements, same ground truth, same
//! announcement counts — on any scenario, with or without a policy
//! table installed. These properties
//! are what lets `Massive`-scale runs switch engines for speed without
//! re-validating any analysis downstream.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use proptest::prelude::*;

use bh_bench::StudyScale;
use bh_routing::{deploy, CollectorConfig, EngineMode};
use bh_topology::{
    PolicyTable, Relationship, Roa, RoaTable, Topology, TopologyBuilder, TopologyConfig,
};
use bh_workloads::{run_with_engine, ScenarioConfig, ScenarioOutput};

/// Full ROA coverage of every originated prefix at its exact length:
/// the announcements themselves validate `Valid`, while the /32
/// blackhole routes come out `Invalid` (too specific) — so an ROV
/// deployment actually drops routes in these runs.
fn roas_for(topology: &Topology) -> RoaTable {
    let mut roas = RoaTable::new();
    for info in topology.ases() {
        for &prefix in &info.prefixes {
            roas.insert(Roa { prefix, origin: info.asn, max_length: prefix.length() });
        }
    }
    roas
}

/// ROV at half the transit candidates, with real ROAs loaded.
fn rov_table(topology: &Topology) -> PolicyTable {
    let mut table = PolicyTable::new();
    table.set_roas(roas_for(topology));
    table.deploy_rov_fraction(topology, 0.5);
    table
}

/// RFC 9234 Only-to-Customers on the Tier-1 clique plus one deliberate
/// route leaker — the adversarial pairing the policy workloads use.
fn otc_leaker_table(topology: &Topology) -> PolicyTable {
    let mut table = PolicyTable::new();
    let mut leaker_picked = false;
    for info in topology.ases() {
        match info.tier {
            bh_topology::Tier::Tier1 => table.entry(info.asn).only_to_customers = true,
            bh_topology::Tier::Transit if !leaker_picked => {
                table.entry(info.asn).leaker = true;
                leaker_picked = true;
            }
            _ => {}
        }
    }
    table
}

fn run_tiny(seed: u64, policies: Option<&PolicyTable>, engine: EngineMode) -> ScenarioOutput {
    let topology = TopologyBuilder::new(TopologyConfig::tiny(55)).build();
    let deployment = deploy(&topology, &CollectorConfig::tiny(6));
    run_with_engine(&topology, deployment, &ScenarioConfig::short(seed, 2, 5.0), policies, engine)
}

fn assert_identical(a: &ScenarioOutput, b: &ScenarioOutput) {
    assert_eq!(a.elems, b.elems, "collector element streams diverge");
    assert_eq!(a.announcements, b.announcements);
    assert_eq!(a.ground_truth.len(), b.ground_truth.len());
    for (x, y) in a.ground_truth.iter().zip(&b.ground_truth) {
        assert_eq!(x.prefix, y.prefix);
        assert_eq!(x.phases, y.phases);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case runs four full Tiny scenarios
    })]

    /// Queue and phased engines are bit-identical on random Tiny
    /// scenarios, bare and under an ROV deployment.
    #[test]
    fn engines_agree_on_tiny_scenarios(seed in 0u64..500) {
        let queue = run_tiny(seed, None, EngineMode::Queue);
        let phased = run_tiny(seed, None, EngineMode::Phased);
        assert_identical(&queue, &phased);
        prop_assert!(!queue.elems.is_empty(), "scenario produced no elems");

        let topology = TopologyBuilder::new(TopologyConfig::tiny(55)).build();
        let rov = rov_table(&topology);
        let queue = run_tiny(seed, Some(&rov), EngineMode::Queue);
        let phased = run_tiny(seed, Some(&rov), EngineMode::Phased);
        assert_identical(&queue, &phased);
    }
}

/// One Small-scale topology shared across the expensive cases below.
fn small_env() -> &'static (Topology, CollectorConfig) {
    static ENV: OnceLock<(Topology, CollectorConfig)> = OnceLock::new();
    ENV.get_or_init(|| {
        let topology = TopologyBuilder::new(StudyScale::Small.topology_config(42)).build();
        (topology, StudyScale::Small.collector_config(42 ^ 0x3434))
    })
}

fn run_small(policies: Option<&PolicyTable>, engine: EngineMode) -> ScenarioOutput {
    let (topology, collector_config) = small_env();
    let deployment = deploy(topology, collector_config);
    run_with_engine(topology, deployment, &ScenarioConfig::short(42, 2, 5.0), policies, engine)
}

#[test]
fn engines_agree_at_small_scale() {
    let queue = run_small(None, EngineMode::Queue);
    let phased = run_small(None, EngineMode::Phased);
    assert_identical(&queue, &phased);
    assert!(!queue.elems.is_empty());
}

#[test]
fn engines_agree_at_small_scale_with_rov() {
    let (topology, _) = small_env();
    let rov = rov_table(topology);
    assert!(rov.deployed_count() > 0, "ROV table deployed nowhere");
    let queue = run_small(Some(&rov), EngineMode::Queue);
    let phased = run_small(Some(&rov), EngineMode::Phased);
    assert_identical(&queue, &phased);
    // The policy actually bit: the ROV extension rejected imports.
    let extension_rejects: u64 = queue.run_stats.extension_rejects.values().sum();
    assert!(extension_rejects > 0, "ROV never rejected anything");
}

#[test]
fn engines_agree_at_small_scale_with_otc_and_leaker() {
    let (topology, _) = small_env();
    let table = otc_leaker_table(topology);
    assert!(table.deployed_count() >= 2, "need OTC deployers and a leaker");
    let queue = run_small(Some(&table), EngineMode::Queue);
    let phased = run_small(Some(&table), EngineMode::Phased);
    assert_identical(&queue, &phased);
}

/// The rank order the phased schedule relies on: a provider always
/// ranks strictly above each of its customers (customer-cone depth),
/// and every AS is ranked.
#[test]
fn provider_ranks_exceed_customer_ranks() {
    for config in [TopologyConfig::tiny(55), StudyScale::Small.topology_config(42)] {
        let topology = TopologyBuilder::new(config).build();
        let ranks = topology.propagation_ranks();
        let mut checked = 0usize;
        let mut seen = BTreeSet::new();
        for info in topology.ases() {
            let mine = ranks.rank_of(info.asn).expect("every AS is ranked");
            seen.insert(info.asn);
            for &(neighbor, rel) in topology.neighbors(info.asn) {
                if rel == Relationship::Customer {
                    let theirs = ranks.rank_of(neighbor).expect("every AS is ranked");
                    assert!(
                        mine > theirs,
                        "provider {} rank {mine} <= customer {neighbor} rank {theirs}",
                        info.asn
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "topology has no provider/customer pairs");
        assert_eq!(seen.len(), ranks.len(), "rank table and topology disagree on AS count");
    }
}
