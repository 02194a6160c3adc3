//! Pinned simulator output: one FNV-1a digest per scenario over the
//! per-collector MRT archives, the run's rejection accounting and the
//! ground truth.
//!
//! The engine-equivalence suite compares the queue engine against the
//! phased engine, but both run the same per-work propagation core, so a
//! change to that core moves both sides together and passes unseen.
//! The digests were recorded on the core before its per-AS node-table
//! rewrite, which left them unchanged; any change to what the simulator
//! emits, rejects or reports fails here. If a routing change is *meant*
//! to move the output, re-pin the constants and say why in the change
//! log.

use bh_bench::StudyScale;
use bh_routing::{deploy, CollectorConfig, EngineMode};
use bh_topology::{
    CommunityScrub, PolicyTable, Roa, RoaTable, Tier, Topology, TopologyBuilder, TopologyConfig,
};
use bh_workloads::{fleet_archives, run_with_engine, ScenarioConfig, ScenarioOutput};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Digest of everything a scenario run hands downstream: the archive
/// bytes per collector, the announcement and rejection counts, and the
/// ground-truth prefixes, ON phases and accepting providers.
fn digest(out: &ScenarioOutput) -> u64 {
    let mut h = Fnv::new();
    let archives = fleet_archives(&out.elems).expect("scenario output encodes");
    h.u64(archives.len() as u64);
    for archive in &archives {
        h.str(&archive.name);
        h.u64(archive.elems);
        h.u64(archive.bytes.len() as u64);
        h.bytes(&archive.bytes);
    }
    h.u64(out.announcements);
    let stats = &out.run_stats;
    for (reason, n) in stats.import_rejects.iter().chain(&stats.trigger_rejects) {
        h.str(reason.label());
        h.u64(*n);
    }
    for (name, n) in &stats.extension_rejects {
        h.str(name);
        h.u64(*n);
    }
    h.u64(stats.exports_suppressed);
    h.u64(stats.exports_forced);
    h.u64(stats.convergence_failures);
    h.u64(out.ground_truth.len() as u64);
    for event in &out.ground_truth {
        h.u64(u64::from(event.prefix.network_bits()));
        h.u64(u64::from(event.prefix.length()));
        h.u64(event.phases.len() as u64);
        for (start, end) in &event.phases {
            h.u64(start.unix());
            h.u64(end.unix());
        }
        h.u64(event.accepted.len() as u64);
        for asn in &event.accepted {
            h.u64(u64::from(asn.value()));
        }
    }
    h.0
}

/// Which policy table a case installs.
#[derive(Debug, Clone, Copy)]
enum Table {
    Bare,
    Rov,
    OtcLeaker,
    Scrub,
}

fn table_for(topology: &Topology, table: Table) -> Option<PolicyTable> {
    let mut policies = PolicyTable::new();
    match table {
        Table::Bare => return None,
        Table::Rov => {
            // Exact-length ROAs: announcements validate, /32 blackhole
            // routes come out Invalid, so ROV actually drops routes.
            let mut roas = RoaTable::new();
            for info in topology.ases() {
                for &prefix in &info.prefixes {
                    roas.insert(Roa { prefix, origin: info.asn, max_length: prefix.length() });
                }
            }
            policies.set_roas(roas);
            policies.deploy_rov_fraction(topology, 0.5);
        }
        Table::OtcLeaker => {
            let mut leaker_picked = false;
            for info in topology.ases() {
                match info.tier {
                    Tier::Tier1 => policies.entry(info.asn).only_to_customers = true,
                    Tier::Transit if !leaker_picked => {
                        policies.entry(info.asn).leaker = true;
                        leaker_picked = true;
                    }
                    _ => {}
                }
            }
        }
        Table::Scrub => {
            // Every other transit AS strips every offered trigger on
            // export, so bundled signals are laundered part of the way.
            let triggers: Vec<_> = topology
                .ases()
                .filter_map(|info| info.blackhole_offering.as_ref())
                .flat_map(|o| o.communities.iter().copied())
                .collect();
            for info in topology.ases().filter(|i| i.tier == Tier::Transit).step_by(2) {
                policies.entry(info.asn).scrub = Some(CommunityScrub {
                    strip_all: false,
                    strip: triggers.clone(),
                    rewrite: vec![],
                });
            }
        }
    }
    assert!(policies.deployed_count() > 0, "{table:?} table deploys nothing");
    Some(policies)
}

fn tiny_digest(seed: u64, table: Table, engine: EngineMode) -> u64 {
    let topology = TopologyBuilder::new(TopologyConfig::tiny(55)).build();
    let deployment = deploy(&topology, &CollectorConfig::tiny(6));
    let policies = table_for(&topology, table);
    let out = run_with_engine(
        &topology,
        deployment,
        &ScenarioConfig::short(seed, 2, 5.0),
        policies.as_ref(),
        engine,
    );
    assert!(!out.elems.is_empty(), "seed {seed} {table:?}: no elems");
    digest(&out)
}

/// `(seed, table, queue digest, phased digest)` for the Tiny cases. The
/// two engines emit identical elems but reach the fixpoint along
/// different trajectories, so their rejection counts — and digests —
/// differ.
const TINY: [(u64, Table, u64, u64); 12] = [
    (3, Table::Bare, 0x25c5_2f3d_0176_8198, 0x50db_ae12_6e25_c412),
    (3, Table::Rov, 0x23da_c2be_3c45_35f6, 0x45ce_5d04_6064_c2b4),
    (3, Table::OtcLeaker, 0xc67c_5ce9_85db_d1a3, 0xbbe9_752f_8746_c750),
    (3, Table::Scrub, 0xe171_aedd_8dae_e8ff, 0x6b72_dd08_fde1_8252),
    (42, Table::Bare, 0x14dc_b93c_ea8e_1526, 0xd39c_46da_6cf0_cc8b),
    (42, Table::Rov, 0x669c_478b_530e_74f3, 0x72b0_db0f_4332_2a0b),
    (42, Table::OtcLeaker, 0xb35c_26e4_3fd8_4443, 0xaed3_b5b1_0526_b823),
    (42, Table::Scrub, 0x11ef_bdbc_4973_32fc, 0xc70f_3cf9_9ea0_7caf),
    (311, Table::Bare, 0xd16b_9980_083a_d490, 0x76dd_0da7_fc48_aa56),
    (311, Table::Rov, 0x5853_4c6e_63c3_9ef2, 0x646f_2f5d_69de_219c),
    (311, Table::OtcLeaker, 0x5979_7812_70c4_94c2, 0x6ad0_6490_a70a_cdf5),
    (311, Table::Scrub, 0x0cea_c9d0_c548_76f8, 0x8929_67f8_3289_c6fe),
];

/// The Small-world `ScenarioConfig::short(42, 2, 5.0)` run.
const SMALL: u64 = 0xbfeb_6726_849a_4dd9;

#[test]
fn tiny_scenarios_match_pinned_digests() {
    let mut wrong = Vec::new();
    for (seed, table, queue, phased) in TINY {
        for (engine, pinned) in [(EngineMode::Queue, queue), (EngineMode::Phased, phased)] {
            let got = tiny_digest(seed, table, engine);
            if got != pinned {
                wrong.push(format!("seed {seed} {table:?} {engine:?}: {got:#018x}"));
            }
        }
    }
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}

#[test]
fn small_scenario_matches_pinned_digest() {
    let topology = TopologyBuilder::new(StudyScale::Small.topology_config(42)).build();
    let deployment = deploy(&topology, &StudyScale::Small.collector_config(42 ^ 0x3434));
    let out = run_with_engine(
        &topology,
        deployment,
        &ScenarioConfig::short(42, 2, 5.0),
        None,
        EngineMode::Queue,
    );
    assert_eq!(digest(&out), SMALL, "Small digest moved: {:#018x}", digest(&out));
}
