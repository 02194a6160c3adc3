//! Rank-scheduled propagation at `Massive` scale.
//!
//! Floods the CAIDA-shaped ~75k-AS topology with full announce+withdraw
//! cycles from stub origins and compares the two propagation engines:
//!
//! * `queue` — the sequential FIFO engine (the seed trajectory);
//! * `phased_1` — the three-phase rank schedule: the pure algorithmic
//!   win (customer routes land before provider routes, so best paths
//!   settle without withdraw/re-announce churn).
//!
//! Both engines are property-tested bit-identical (see
//! `tests/tests/phased_propagation.rs`); this bench asserts stream
//! equality once at startup and then measures. `MASSIVE_AS_COUNT`
//! shrinks the topology for smoke runs.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::CommunitySet;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_routing::{deploy, Announcement, BgpSimulator, CollectorConfig, EngineMode};
use bh_topology::{Tier, Topology, TopologyBuilder, TopologyConfig};

fn floods_for(topology: &Topology) -> Vec<(Asn, Ipv4Prefix)> {
    topology
        .ases()
        .filter(|i| i.tier == Tier::Stub && !i.prefixes.is_empty())
        .take(2)
        .map(|i| (i.asn, i.prefixes[0]))
        .collect()
}

fn flood_cycle(sim: &mut BgpSimulator<'_>, floods: &[(Asn, Ipv4Prefix)]) -> usize {
    let mut total = 0usize;
    for &(origin, prefix) in floods {
        sim.announce(
            SimTime::from_unix(1_000),
            &Announcement::simple(origin, prefix, CommunitySet::new()),
        );
        total += sim.drain_elems().len();
        sim.withdraw(SimTime::from_unix(2_000), origin, prefix);
        total += sim.drain_elems().len();
    }
    total
}

fn bench(c: &mut Criterion) {
    let as_count: usize =
        std::env::var("MASSIVE_AS_COUNT").ok().and_then(|v| v.parse().ok()).unwrap_or(75_000);
    let topology = TopologyBuilder::new(TopologyConfig::massive_scaled(42, as_count)).build();
    let ranks = Arc::new(topology.propagation_ranks());
    let floods = floods_for(&topology);
    assert!(!floods.is_empty(), "massive topology has no stub origins");

    let collector_config = CollectorConfig { seed: 42, ..Default::default() };
    let mk_sim = |mode: EngineMode| {
        let mut sim = BgpSimulator::new(&topology, deploy(&topology, &collector_config), 42);
        sim.set_engine_mode(mode);
        sim.set_propagation_ranks(Arc::clone(&ranks));
        sim
    };

    // One equality pass before timing: same elems from both engines.
    let reference = {
        let mut sim = mk_sim(EngineMode::Queue);
        let mut elems = Vec::new();
        for &(origin, prefix) in &floods {
            sim.announce(
                SimTime::from_unix(1_000),
                &Announcement::simple(origin, prefix, CommunitySet::new()),
            );
            sim.withdraw(SimTime::from_unix(2_000), origin, prefix);
        }
        elems.extend(sim.drain_elems());
        elems
    };
    let phased = {
        let mut sim = mk_sim(EngineMode::Phased);
        for &(origin, prefix) in &floods {
            sim.announce(
                SimTime::from_unix(1_000),
                &Announcement::simple(origin, prefix, CommunitySet::new()),
            );
            sim.withdraw(SimTime::from_unix(2_000), origin, prefix);
        }
        sim.drain_elems()
    };
    assert_eq!(reference, phased, "queue and phased engines must emit identically");
    println!(
        "propagation_massive: {} ASes, max rank {}, {} floods, {} elems/cycle",
        topology.as_count(),
        ranks.max_rank(),
        floods.len(),
        reference.len()
    );

    let mut group = c.benchmark_group("propagation_massive");
    group.sample_size(5); // ~12 s per flood cycle at full scale
    group.throughput(Throughput::Elements(reference.len().max(1) as u64));

    let mut sim = mk_sim(EngineMode::Queue);
    group.bench_function("queue", |b| b.iter(|| flood_cycle(&mut sim, &floods)));
    // The row keeps its `_1` suffix from when the phased engine took a
    // thread count, so the bench trajectory stays comparable.
    let mut sim = mk_sim(EngineMode::Phased);
    group.bench_function("phased_1", |b| b.iter(|| flood_cycle(&mut sim, &floods)));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
