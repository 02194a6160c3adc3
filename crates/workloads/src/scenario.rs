//! The end-to-end scenario driver: attack calendar → operator reactions →
//! BGP simulation → collector element stream + ground truth.

use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::CommunitySet;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_routing::{
    AnnounceScope, Announcement, BgpElem, BgpSimulator, CollectorDeployment, EngineMode, RunStats,
};
use bh_topology::{NetworkType, PolicyTable, Tier, Topology};

use crate::attacks::{AttackCalendar, SPIKES};
use crate::reaction::{
    capable_providers, plan_reaction, Action, GroundTruthEvent, ReactionConfig, TimedAction,
};

/// Scenario configuration.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// RNG seed (independent of topology/collector seeds).
    pub seed: u64,
    /// The attack calendar.
    pub calendar: AttackCalendar,
    /// Reaction tunables.
    pub reaction: ReactionConfig,
    /// Fraction of potential users already using blackholing at window
    /// start (the paper's user population grew ×4 → ~0.25).
    pub initial_adoption: f64,
    /// How many base prefixes to announce at start (they carry the
    /// providers' tag communities and anchor the Fig. 2 census).
    pub base_prefix_sample: usize,
    /// Mean attacked hosts per attack.
    pub attack_intensity: f64,
    /// Include the Fig. 4(c) named spikes (incl. the spike-A
    /// misconfiguration).
    pub include_spikes: bool,
}

impl ScenarioConfig {
    /// A short test scenario: `days` days at the start of the study
    /// window, modest rates.
    pub fn short(seed: u64, days: u64, attacks_per_day: f64) -> Self {
        let mut calendar = AttackCalendar::study(attacks_per_day);
        calendar.window_end =
            SimTime::from_unix((calendar.window_start.day_index() + days) * 86_400);
        ScenarioConfig {
            seed,
            calendar,
            reaction: ReactionConfig::default(),
            initial_adoption: 0.6,
            base_prefix_sample: 40,
            attack_intensity: 1.5,
            include_spikes: false,
        }
    }

    /// The full study window (Dec 2014 – Mar 2017) at a configurable
    /// daily attack rate.
    pub fn study(seed: u64, attacks_per_day: f64) -> Self {
        ScenarioConfig {
            seed,
            calendar: AttackCalendar::study(attacks_per_day),
            reaction: ReactionConfig::default(),
            initial_adoption: 0.25,
            base_prefix_sample: 120,
            attack_intensity: 1.5,
            include_spikes: true,
        }
    }

    /// The visibility window (Aug 2016 – Mar 2017): Tables 3/4, Figs 5–8.
    pub fn visibility_window(seed: u64, attacks_per_day: f64) -> Self {
        let mut config = Self::study(seed, attacks_per_day);
        config.calendar.window_start = bh_bgp_types::time::study::visibility_start();
        config.initial_adoption = 0.8; // adoption had mostly happened
        config
    }

    /// The `Massive` tier: a short, low-rate calendar sized for the
    /// CAIDA-scale (~75k-AS) topology, where every announcement floods
    /// the whole graph. Pair with
    /// [`bh_topology::TopologyConfig::massive`] and the phased engine
    /// via [`run_with_engine`].
    pub fn massive(seed: u64) -> Self {
        let mut config = Self::short(seed, 1, 2.0);
        config.base_prefix_sample = 8;
        config
    }
}

/// Scenario output: the collector stream and the ground truth to validate
/// inference against.
#[derive(Debug)]
pub struct ScenarioOutput {
    /// Every element observed at every collector session, time-ordered.
    pub elems: Vec<BgpElem>,
    /// Ground-truth blackholing reactions.
    pub ground_truth: Vec<GroundTruthEvent>,
    /// Days simulated.
    pub days: u64,
    /// Total announcements injected.
    pub announcements: u64,
    /// Per-reason / per-extension rejection accounting from the run.
    pub run_stats: RunStats,
}

impl ScenarioOutput {
    /// The collector stream as an [`bh_routing::ElemSource`] — the
    /// simulator-backed producer for streaming inference sessions.
    pub fn elem_source(&self) -> bh_routing::SliceSource<'_> {
        bh_routing::SliceSource::new(&self.elems)
    }
}

/// Run a scenario on a fresh simulator over `topology`.
pub fn run(
    topology: &Topology,
    deployment: CollectorDeployment,
    config: &ScenarioConfig,
) -> ScenarioOutput {
    run_inner(topology, deployment, config, None, EngineMode::Queue)
}

/// [`run`], with a per-AS [`PolicyTable`] installed on the simulator
/// before any announcement. An empty table installs nothing and is
/// property-tested bit-identical to [`run`].
pub fn run_with_policies(
    topology: &Topology,
    deployment: CollectorDeployment,
    config: &ScenarioConfig,
    policies: &PolicyTable,
) -> ScenarioOutput {
    run_inner(topology, deployment, config, Some(policies), EngineMode::Queue)
}

/// [`run`], selecting the propagation engine (and optionally a policy
/// table). Both engines produce bit-identical output. `Phased` is the
/// fast path only for `Massive`-scale floods; at `Small` scale it is
/// slower, which is why [`run`] uses `Queue`: over ten paired 10 s
/// perfbench `scenario_sim` runs (seeds 1–10) on a 2-core x86-64 box,
/// `Phased` lost every pair, with a median `pass_ms_p50` of 1316 ms
/// against 1076 ms (+22%).
pub fn run_with_engine(
    topology: &Topology,
    deployment: CollectorDeployment,
    config: &ScenarioConfig,
    policies: Option<&PolicyTable>,
    engine: EngineMode,
) -> ScenarioOutput {
    run_inner(topology, deployment, config, policies, engine)
}

fn run_inner(
    topology: &Topology,
    deployment: CollectorDeployment,
    config: &ScenarioConfig,
    policies: Option<&PolicyTable>,
    engine: EngineMode,
) -> ScenarioOutput {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut sim = BgpSimulator::new(topology, deployment, config.seed ^ 0x5151);
    sim.set_engine_mode(engine);
    if let Some(table) = policies {
        sim.install_policies(table);
    }
    let mut truths: Vec<GroundTruthEvent> = Vec::new();
    let mut actions: Vec<TimedAction> = Vec::new();

    // ---- candidate users with adoption dates ---------------------------
    // Content networks are over-represented among blackholing users
    // (18% of users originate 43% of blackholed prefixes).
    let mut users: Vec<(Asn, NetworkType)> = topology
        .ases()
        .filter(|i| i.tier == Tier::Stub || i.tier == Tier::Transit)
        .filter(|i| i.network_type != NetworkType::Ixp)
        .filter(|i| !i.prefixes.is_empty())
        .filter(|i| !capable_providers(topology, i.asn).is_empty())
        .map(|i| (i.asn, i.network_type))
        .collect();
    users.sort_by_key(|(asn, _)| *asn);
    let total_days = config.calendar.days().max(1);
    let adoption_day: std::collections::BTreeMap<Asn, u64> = users
        .iter()
        .map(|(asn, _)| {
            let day = if rng.gen_bool(config.initial_adoption) {
                0
            } else {
                rng.gen_range(0..total_days)
            };
            (*asn, day)
        })
        .collect();
    let weights: Vec<u32> = users
        .iter()
        .map(|(_, ty)| match ty {
            NetworkType::Content => 6,
            NetworkType::TransitAccess => 2,
            NetworkType::Enterprise => 2,
            NetworkType::EducationResearchNfp => 1,
            _ => 1,
        })
        .collect();
    let picker = WeightedIndex::new(&weights).expect("non-empty user pool");

    // ---- base prefixes (census anchoring) --------------------------------
    let mut base: Vec<(Asn, Ipv4Prefix)> =
        topology.ases().flat_map(|i| i.prefixes.iter().map(move |p| (i.asn, *p))).collect();
    base.sort();
    let base_sample: Vec<(Asn, Ipv4Prefix)> = base
        .choose_multiple(&mut rng, config.base_prefix_sample.min(base.len()))
        .copied()
        .collect();
    for (origin, prefix) in &base_sample {
        // The origin's providers tag customer routes; carry a sample of
        // those tags so the census sees "other" communities on coarse
        // prefixes (Fig. 2's red-cross population).
        let mut communities = CommunitySet::new();
        for p in topology.providers_of(*origin) {
            if let Some(info) = topology.as_info(p) {
                for c in info.tag_communities.iter().take(2) {
                    communities.insert(*c);
                }
            }
        }
        actions.push(TimedAction {
            time: config.calendar.window_start,
            action: Action::Announce(Announcement::simple(*origin, *prefix, communities)),
            truth: None,
        });
    }

    // ---- attacks ---------------------------------------------------------
    for day in 0..total_days {
        let n_attacks = config.calendar.sample_attacks(&mut rng, day);
        let day_start = config.calendar.day(day);
        for _ in 0..n_attacks {
            let (user, _) = users[picker.sample(&mut rng)];
            if adoption_day[&user] > day {
                continue; // victim has not adopted blackholing yet
            }
            let start = day_start + SimDuration::secs(rng.gen_range(0..86_000));
            let duration = SimDuration::mins(rng.gen_range(5..240));
            let reaction_actions = plan_reaction(
                &mut rng,
                topology,
                &config.reaction,
                user,
                start,
                duration,
                config.attack_intensity,
                &mut truths,
            );
            actions.extend(reaction_actions);
        }

        // Spike A: the accidental full-table blackholing (<2 minutes).
        if config.include_spikes {
            if let Some(spike) = config.calendar.spike_on(day) {
                if spike.is_misconfiguration
                    && config.calendar.day(day).ymd() == (spike.year, spike.month, spike.day)
                {
                    actions.extend(plan_accident(&mut rng, topology, day_start, &mut truths));
                }
            }
        }
    }

    // ---- execute ----------------------------------------------------------
    actions.sort_by_key(|a| a.time.unix());
    let announcements =
        actions.iter().filter(|a| matches!(a.action, Action::Announce(_))).count() as u64;
    for timed in &actions {
        match &timed.action {
            Action::Announce(a) => {
                let outcome = sim.announce(timed.time, a);
                if let Some(idx) = timed.truth {
                    for asn in outcome.accepted_by {
                        if !truths[idx].accepted.contains(&asn) {
                            truths[idx].accepted.push(asn);
                        }
                    }
                }
            }
            Action::Withdraw { origin, prefix } => {
                sim.withdraw(timed.time, *origin, *prefix);
            }
        }
    }

    ScenarioOutput {
        run_stats: sim.run_stats().clone(),
        elems: sim.drain_elems(),
        ground_truth: truths,
        days: total_days,
        announcements,
    }
}

/// Spike A: a European academic network accidentally blackholes its
/// entire routing table for under two minutes.
fn plan_accident(
    rng: &mut StdRng,
    topology: &Topology,
    day_start: SimTime,
    truths: &mut Vec<GroundTruthEvent>,
) -> Vec<TimedAction> {
    let mut actions = Vec::new();
    // Pick an education network in Europe with capable providers.
    let candidate = topology
        .ases()
        .find(|i| {
            i.network_type == NetworkType::EducationResearchNfp
                && !i.prefixes.is_empty()
                && !capable_providers(topology, i.asn).is_empty()
        })
        .or_else(|| {
            topology
                .ases()
                .find(|i| !i.prefixes.is_empty() && !capable_providers(topology, i.asn).is_empty())
        });
    let Some(info) = candidate else { return actions };
    let providers = capable_providers(topology, info.asn);
    let mut communities = CommunitySet::new();
    for p in &providers {
        for c in &p.communities {
            communities.insert(*c);
        }
    }
    let start = day_start + SimDuration::hours(10);
    let end = start + SimDuration::secs(rng.gen_range(60..115));

    // "Entire routing table": every constituent /24 of its space (capped).
    let mut count = 0;
    for allocation in &info.prefixes {
        let slices = 1u64 << (24u8.saturating_sub(allocation.length()) as u32);
        for k in 0..slices.min(160) {
            let Some(addr) = allocation.nth_addr(k * 256) else { break };
            let Ok(p24) = Ipv4Prefix::new(addr, 24) else { break };
            let truth_index = truths.len();
            truths.push(GroundTruthEvent {
                prefix: p24,
                user: info.asn,
                requested: providers.iter().map(|p| p.provider).collect(),
                accepted: Vec::new(),
                phases: vec![(start, end)],
                bundled: true,
                no_export: false,
                irr_registered: true,
                implicit_withdraw: false,
            });
            actions.push(TimedAction {
                time: start,
                action: Action::Announce(Announcement {
                    origin: info.asn,
                    prefix: p24,
                    communities: communities.clone(),
                    scope: AnnounceScope::AllNeighbors,
                    irr_registered: true,
                    prepend: 1,
                }),
                truth: Some(truth_index),
            });
            actions.push(TimedAction {
                time: end,
                action: Action::Withdraw { origin: info.asn, prefix: p24 },
                truth: Some(truth_index),
            });
            count += 1;
        }
    }
    let _ = count;
    actions
}

/// The named spikes, re-exported for reporting.
pub fn spike_table() -> &'static [crate::attacks::Spike] {
    SPIKES
}

#[cfg(test)]
mod tests {
    use bh_routing::{deploy, CollectorConfig, DataSource, ElemType};
    use bh_topology::{TopologyBuilder, TopologyConfig};

    use super::*;

    fn run_short(seed: u64, days: u64, rate: f64) -> ScenarioOutput {
        let t = TopologyBuilder::new(TopologyConfig::tiny(55)).build();
        let d = deploy(&t, &CollectorConfig::tiny(6));
        run(&t, d, &ScenarioConfig::short(seed, days, rate))
    }

    #[test]
    fn scenario_produces_elems_and_truth() {
        let out = run_short(1, 3, 6.0);
        assert!(out.announcements > 0);
        assert!(!out.ground_truth.is_empty(), "no blackholing events generated");
        assert!(!out.elems.is_empty(), "collectors saw nothing");
        assert_eq!(out.days, 3);
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = run_short(42, 2, 5.0);
        let b = run_short(42, 2, 5.0);
        assert_eq!(a.elems.len(), b.elems.len());
        assert_eq!(a.ground_truth.len(), b.ground_truth.len());
        for (x, y) in a.ground_truth.iter().zip(&b.ground_truth) {
            assert_eq!(x.prefix, y.prefix);
            assert_eq!(x.phases, y.phases);
        }
    }

    #[test]
    fn elems_are_time_ordered_per_execution() {
        let out = run_short(7, 2, 5.0);
        for w in out.elems.windows(2) {
            assert!(w[0].time <= w[1].time, "elems out of order");
        }
    }

    #[test]
    fn some_blackholes_are_accepted() {
        let out = run_short(3, 3, 8.0);
        let accepted = out.ground_truth.iter().filter(|t| !t.accepted.is_empty()).count();
        assert!(
            accepted * 3 > out.ground_truth.len(),
            "too few accepted: {accepted}/{}",
            out.ground_truth.len()
        );
    }

    #[test]
    fn tagged_elems_reach_collectors() {
        let out = run_short(5, 3, 8.0);
        let tagged = out
            .elems
            .iter()
            .filter(|e| e.elem_type == ElemType::Announce && !e.communities.is_empty())
            .count();
        assert!(tagged > 0, "no tagged announcements visible");
        // At least two platforms observe something.
        let datasets: std::collections::BTreeSet<DataSource> =
            out.elems.iter().map(|e| e.dataset).collect();
        assert!(datasets.len() >= 2, "only {datasets:?}");
    }

    #[test]
    fn ground_truth_phases_inside_window() {
        let out = run_short(9, 4, 5.0);
        let window_start = AttackCalendar::study(1.0).window_start;
        for truth in &out.ground_truth {
            assert!(truth.start() >= window_start);
            assert!(truth.end() > truth.start());
        }
    }
}
