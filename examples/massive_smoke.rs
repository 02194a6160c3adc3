//! Bounded-time smoke test of the `Massive` scale path: build the
//! CAIDA-shaped ~75k-AS topology, compute propagation ranks, and run one
//! announce/withdraw propagation step through both engines, checking
//! they agree. CI runs this under a hard timeout so the scale path
//! cannot silently rot; `MASSIVE_AS_COUNT` shrinks it for quick local
//! runs.

use std::sync::Arc;
use std::time::Instant;

use bh_bgp_types::community::CommunitySet;
use bh_bgp_types::time::SimTime;
use bh_routing::{deploy, Announcement, BgpSimulator, CollectorConfig, EngineMode};
use bh_topology::{Tier, TopologyBuilder, TopologyConfig};

fn main() {
    let as_count: usize =
        std::env::var("MASSIVE_AS_COUNT").ok().and_then(|v| v.parse().ok()).unwrap_or(75_000);
    let t0 = Instant::now();
    let topology = TopologyBuilder::new(TopologyConfig::massive_scaled(7, as_count)).build();
    println!(
        "topology: {} ASes, {} IXPs in {:?}",
        topology.as_count(),
        topology.ixps().len(),
        t0.elapsed()
    );
    let t1 = Instant::now();
    let ranks = Arc::new(topology.propagation_ranks());
    println!("ranks: max_rank {} in {:?}", ranks.max_rank(), t1.elapsed());
    let edges: usize = topology.ases().map(|i| topology.neighbors(i.asn).len()).sum();
    println!("adjacency entries: {edges}");

    // One announce/withdraw flood through both engines from a stub
    // origin; the element streams must be bit-identical.
    let (origin, prefix) = topology
        .ases()
        .find(|i| i.tier == Tier::Stub && !i.prefixes.is_empty())
        .map(|i| (i.asn, i.prefixes[0]))
        .expect("massive topology has a stub origin with a prefix");
    let collector_config = CollectorConfig { seed: 7, ..Default::default() };
    let flood = |mode: EngineMode| {
        let t = Instant::now();
        let mut sim = BgpSimulator::new(&topology, deploy(&topology, &collector_config), 7);
        sim.set_engine_mode(mode);
        sim.set_propagation_ranks(Arc::clone(&ranks));
        sim.announce(
            SimTime::from_unix(1_000),
            &Announcement::simple(origin, prefix, CommunitySet::new()),
        );
        sim.withdraw(SimTime::from_unix(2_000), origin, prefix);
        let elems = sim.drain_elems();
        println!("{mode:?}: {} elems in {:?}", elems.len(), t.elapsed());
        elems
    };
    let queue = flood(EngineMode::Queue);
    let phased = flood(EngineMode::Phased);
    assert_eq!(queue, phased, "queue and phased engines must emit identically");
    assert!(!queue.is_empty(), "flood produced no collector elements");
    println!("engines agree on {} elems", queue.len());
}
