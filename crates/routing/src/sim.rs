//! The BGP propagation simulator.
//!
//! Event-driven and deterministic: callers inject origin announcements and
//! withdrawals; the engine propagates them through the relationship graph
//! under Gao-Rexford export policy and the blackhole acceptance rules, and
//! emits [`BgpElem`]s at every collector session whose view changes — the
//! stream the inference engine consumes, with all of the paper's
//! visibility mechanics reproduced:
//!
//! * direct feeds from blackholing providers (tagged routes visible),
//! * community bundling (tagged routes visible via *non-provider*
//!   neighbors even when no provider propagates),
//! * NO_EXPORT suppression (routes invisible except to the CDN's internal
//!   sessions),
//! * IXP route-server redistribution with PCH route-server views
//!   (peer-ip inside the peering LAN),
//! * providers that strip their trigger community or suppress propagation.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::net::IpAddr;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bh_bgp_types::as_path::AsPath;
use bh_bgp_types::asn::Asn;
use bh_bgp_types::bogon::BogonFilter;
use bh_bgp_types::community::CommunitySet;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_topology::{Ixp, OriginIndex, PolicyTable, PropagationRanks, Relationship, Topology};

use crate::collector::{CollectorDeployment, CollectorSession, FeedKind};
use crate::elem::{BgpElem, DataSource, ElemType};
use crate::extensions::{PolicyEngine, RunStats};
use crate::policy::{
    import_decision, local_pref_for, may_export, AuthContext, ImportDecision, RejectReason,
    SessionBehavior,
};

/// Which neighbors an origin announcement is sent to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnounceScope {
    /// All of the origin's neighbors (the *bundling* pattern: one
    /// advertisement with every provider's community attached, sent
    /// everywhere — §4.2/Fig. 3's ASC2).
    AllNeighbors,
    /// Only the listed neighbors (the *targeted* pattern: a separate
    /// advertisement per provider — Fig. 3's ASC1).
    Neighbors(Vec<Asn>),
}

/// One origin announcement.
#[derive(Debug, Clone)]
pub struct Announcement {
    /// The announcing AS (the blackholing user, for blackhole routes).
    pub origin: Asn,
    /// The prefix.
    pub prefix: Ipv4Prefix,
    /// Attached communities (may bundle several providers' triggers, may
    /// include NO_EXPORT).
    pub communities: CommunitySet,
    /// Delivery scope.
    pub scope: AnnounceScope,
    /// Whether the (prefix, origin) pair is correctly registered in the
    /// IRR (misconfigured users are not — §10).
    pub irr_registered: bool,
    /// Origin-side path prepending (1 = no prepending).
    pub prepend: usize,
}

impl Announcement {
    /// A plain announcement to everyone, registered, no prepending.
    pub fn simple(origin: Asn, prefix: Ipv4Prefix, communities: CommunitySet) -> Self {
        Announcement {
            origin,
            prefix,
            communities,
            scope: AnnounceScope::AllNeighbors,
            irr_registered: true,
            prepend: 1,
        }
    }
}

/// What happened to a blackhole request at each triggered provider.
/// Both vectors are in canonical (ASN-sorted) order, so the queue and
/// phased engines report identical outcomes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnnounceOutcome {
    /// Providers that accepted and installed the blackhole.
    pub accepted_by: Vec<Asn>,
    /// Providers where a trigger matched but the request was rejected.
    pub rejected_by: Vec<(Asn, RejectReason)>,
}

/// Propagation engine selection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EngineMode {
    /// The original single FIFO work queue — sequential, trajectory
    /// exactly as the seed engine.
    #[default]
    Queue,
    /// Three valley-free phases scheduled by propagation rank — up to
    /// providers in ascending rank order, across peers and route
    /// servers in waves, down to customers in descending rank order —
    /// with the work *within* each rank processed in ascending target
    /// ASN order. Emits a bit-identical elem stream to
    /// [`EngineMode::Queue`] (property-tested), and does strictly less
    /// redundant work: rank order delivers highest-preference customer
    /// routes first, so an AS's best route never flips mid-flood the way
    /// FIFO churn makes it.
    Phased,
}

/// Typed propagation failure — the graceful replacement for the old
/// "propagation did not converge" panic, so `Massive` runs degrade into
/// an error the caller can skip past instead of aborting the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationError {
    /// The step cap was reached before the work queue drained (a policy
    /// dispute wheel, e.g. dueling leakers, can oscillate forever).
    NoConvergence {
        /// Work items processed before giving up.
        steps: u64,
    },
}

impl std::fmt::Display for PropagationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PropagationError::NoConvergence { steps } => {
                write!(f, "propagation did not converge after {steps} steps")
            }
        }
    }
}

impl std::error::Error for PropagationError {}

/// A route as held in an Adj-RIB-In slot.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RouteEntry {
    /// Path as received (first hop = the neighbor that sent it; for
    /// origin advertisements this is the origin itself).
    as_path: AsPath,
    communities: CommunitySet,
    learned_from: Asn,
    /// How the *receiver* relates to `learned_from`.
    learned_rel: Relationship,
    local_pref: u32,
    is_blackhole: bool,
    irr_registered: bool,
    next_hop: Option<IpAddr>,
    /// RFC 9234-style only-to-customers mark, set and read by the
    /// `OnlyToCustomers` policy extension. Always `false` when no
    /// policies are installed, so route equality (and therefore
    /// propagation and emission) is unchanged on the extensions-off
    /// path.
    leak_marked: bool,
}

#[derive(Debug, Clone, Default)]
struct PrefixState {
    /// Candidates keyed by sending neighbor.
    candidates: BTreeMap<Asn, RouteEntry>,
    /// What we last advertised per neighbor.
    advertised: BTreeMap<Asn, RouteEntry>,
    /// The best route the last neighbor-advertisement pass ran against.
    /// Outbound adverts are a pure function of `best` (offering and
    /// policies are fixed for a run), so when best is unchanged the
    /// whole neighbor loop is skipped — the scratch-work win that makes
    /// withdraw/re-announce churn cheap at `Massive` scale.
    advert_basis: Option<RouteEntry>,
}

impl PrefixState {
    fn best(&self) -> Option<&RouteEntry> {
        self.candidates.values().max_by(|a, b| {
            a.local_pref
                .cmp(&b.local_pref)
                .then(b.as_path.hop_len().cmp(&a.as_path.hop_len()))
                .then(b.learned_from.cmp(&a.learned_from))
        })
    }
}

/// Key for per-session emitted state: (dataset, collector, session peer,
/// prefix, attributed peer) — the last component distinguishes the
/// per-member views of a route-server session.
type EmitKey = (DataSource, u16, Asn, Ipv4Prefix, Asn);

#[derive(Debug, Clone)]
enum Work {
    Announce { to: Asn, from: Asn, prefix: Ipv4Prefix, route: RouteEntry },
    Withdraw { to: Asn, from: Asn, prefix: Ipv4Prefix },
}

impl Work {
    fn target(&self) -> Asn {
        match self {
            Work::Announce { to, .. } | Work::Withdraw { to, .. } => *to,
        }
    }

    fn source(&self) -> Asn {
        match self {
            Work::Announce { from, .. } | Work::Withdraw { from, .. } => *from,
        }
    }
}

/// The simulator.
pub struct BgpSimulator<'a> {
    topology: &'a Topology,
    origin_index: OriginIndex,
    deployment: CollectorDeployment,
    behaviors: HashMap<Asn, SessionBehavior>,
    state: HashMap<Asn, HashMap<Ipv4Prefix, PrefixState>>,
    /// Which neighbors each (origin, prefix) was directly sent to, with
    /// the sent route (for withdraws and scope changes).
    origin_adverts: HashMap<(Asn, Ipv4Prefix), BTreeMap<Asn, RouteEntry>>,
    emitted: HashMap<EmitKey, (AsPath, CommunitySet)>,
    elems: Vec<BgpElem>,
    bogons: BogonFilter,
    /// Compiled per-AS policy extensions; `None` (the default, and the
    /// result of installing an empty [`PolicyTable`]) runs the exact
    /// pre-extension code path.
    policies: Option<PolicyEngine>,
    /// Per-reason / per-extension rejection accounting, kept even when
    /// no policies are installed (counters never perturb routing).
    stats: RunStats,
    /// Which propagation engine `announce`/`withdraw` run.
    mode: EngineMode,
    /// Customer-cone depth ranks, computed lazily on the first phased
    /// run (or injected via [`BgpSimulator::set_propagation_ranks`] so
    /// benchmarks amortize the computation across simulator instances).
    ranks: Option<Arc<PropagationRanks>>,
    /// route-server ASN → index into `topology.ixps()` (replaces the
    /// linear `ixp_by_route_server` scan on the hot path).
    rs_index: HashMap<Asn, usize>,
    /// (AS, prefix) pairs whose visible state may have changed since the
    /// last flush. Emissions are reconstructed from final state at
    /// flush time, which is what makes both engines emit identically.
    dirty: BTreeSet<(Asn, Ipv4Prefix)>,
    /// Reused seed-neighbor scratch buffer (no per-announce alloc).
    scratch_neighbors: Vec<Asn>,
}

impl<'a> BgpSimulator<'a> {
    /// Build a simulator. `seed` controls per-AS session behavior
    /// (host-route acceptance) only.
    pub fn new(topology: &'a Topology, deployment: CollectorDeployment, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut behaviors = HashMap::new();
        for info in topology.ases() {
            behaviors.insert(
                info.asn,
                SessionBehavior {
                    host_routes_from_customers: rng.gen_bool(0.9),
                    host_routes_from_peers: rng.gen_bool(0.25),
                },
            );
        }
        let rs_index =
            topology.ixps().iter().enumerate().map(|(i, ixp)| (ixp.route_server_asn, i)).collect();
        BgpSimulator {
            topology,
            origin_index: topology.origin_index(),
            deployment,
            behaviors,
            state: HashMap::new(),
            origin_adverts: HashMap::new(),
            emitted: HashMap::new(),
            elems: Vec::new(),
            bogons: BogonFilter::new(),
            policies: None,
            stats: RunStats::default(),
            mode: EngineMode::Queue,
            ranks: None,
            rs_index,
            dirty: BTreeSet::new(),
            scratch_neighbors: Vec::new(),
        }
    }

    /// Select the propagation engine. Both modes produce bit-identical
    /// collector elems and outcomes; `Phased` is the faster one at
    /// `Massive` scale and the slower one at `Small` scale.
    pub fn set_engine_mode(&mut self, mode: EngineMode) {
        self.mode = mode;
    }

    /// The propagation engine currently selected.
    pub fn engine_mode(&self) -> EngineMode {
        self.mode
    }

    /// Inject precomputed propagation ranks (must be for this topology).
    /// The phased engine otherwise computes them lazily on first use.
    pub fn set_propagation_ranks(&mut self, ranks: Arc<PropagationRanks>) {
        self.ranks = Some(ranks);
    }

    /// Install (compile) a policy table. An empty table uninstalls:
    /// the simulator then runs the extensions-off fast path, which is
    /// property-tested bit-identical to the pre-extension baseline.
    /// Returns `true` when at least one extension was installed.
    pub fn install_policies(&mut self, table: &PolicyTable) -> bool {
        self.policies = PolicyEngine::compile(table);
        self.policies.is_some()
    }

    /// Per-`RejectReason` and per-extension rejection counts so far.
    pub fn run_stats(&self) -> &RunStats {
        &self.stats
    }

    /// Reset the rejection counters (e.g. between workload phases).
    pub fn reset_run_stats(&mut self) {
        self.stats = RunStats::default();
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// The collector deployment in use.
    pub fn deployment(&self) -> &CollectorDeployment {
        &self.deployment
    }

    /// Override one AS's session behavior (scenarios use this to model
    /// specific router configurations, e.g. members that do or do not
    /// accept /32s).
    pub fn set_behavior(&mut self, asn: Asn, behavior: SessionBehavior) {
        self.behaviors.insert(asn, behavior);
    }

    /// The session behavior of an AS.
    pub fn behavior(&self, asn: Asn) -> SessionBehavior {
        self.behaviors.get(&asn).copied().unwrap_or_default()
    }

    /// Drain the accumulated collector elements (time-ordered as emitted).
    pub fn drain_elems(&mut self) -> Vec<BgpElem> {
        std::mem::take(&mut self.elems)
    }

    /// Peek at accumulated elements.
    pub fn elems(&self) -> &[BgpElem] {
        &self.elems
    }

    /// Does `asn` currently hold a blackhole-flagged route for `prefix`?
    /// (Ground-truth query for data-plane simulation.)
    pub fn is_blackholed_at(&self, asn: Asn, prefix: &Ipv4Prefix) -> bool {
        self.state
            .get(&asn)
            .and_then(|m| m.get(prefix))
            .is_some_and(|ps| ps.candidates.values().any(|r| r.is_blackhole))
    }

    /// All ASes currently holding a blackhole route for `prefix`.
    pub fn blackholing_ases_for(&self, prefix: &Ipv4Prefix) -> Vec<Asn> {
        let mut out: Vec<Asn> = self
            .state
            .iter()
            .filter(|(_, m)| {
                m.get(prefix).is_some_and(|ps| ps.candidates.values().any(|r| r.is_blackhole))
            })
            .map(|(asn, _)| *asn)
            .collect();
        out.sort_unstable();
        out
    }

    /// Inject an announcement; returns blackhole acceptance outcomes.
    /// On non-convergence the run stops gracefully (counted in
    /// [`RunStats::convergence_failures`]); use
    /// [`BgpSimulator::try_announce`] to observe the error.
    pub fn announce(&mut self, time: SimTime, announcement: &Announcement) -> AnnounceOutcome {
        self.announce_impl(time, announcement).0
    }

    /// Like [`BgpSimulator::announce`], surfacing the propagation error.
    pub fn try_announce(
        &mut self,
        time: SimTime,
        announcement: &Announcement,
    ) -> Result<AnnounceOutcome, PropagationError> {
        let (outcome, result) = self.announce_impl(time, announcement);
        result.map(|()| outcome)
    }

    fn announce_impl(
        &mut self,
        time: SimTime,
        announcement: &Announcement,
    ) -> (AnnounceOutcome, Result<(), PropagationError>) {
        let mut outcome = AnnounceOutcome::default();
        if announcement.prefix.length() < 8 {
            return (outcome, Ok(())); // never less specific than /8
        }
        // Martian space never propagates (routers filter it on ingress);
        // host routes are checked against the same bogon table.
        if !self.bogons.is_routable(&announcement.prefix) {
            return (outcome, Ok(()));
        }
        let origin = announcement.origin;
        let mut communities = announcement.communities.clone();
        let mut prepend = announcement.prepend.max(1);
        if let Some(engine) = &self.policies {
            engine.origin(
                self.topology,
                origin,
                &announcement.prefix,
                &mut communities,
                &mut prepend,
            );
            prepend = prepend.max(1);
        }
        let mut path = AsPath::empty();
        path.prepend(origin, prepend);
        let route = RouteEntry {
            as_path: path,
            communities,
            learned_from: origin,
            learned_rel: Relationship::Peer, // placeholder; set per receiver
            local_pref: 0,
            is_blackhole: false,
            irr_registered: announcement.irr_registered,
            next_hop: None,
            leak_marked: false,
        };

        self.scratch_neighbors.clear();
        match &announcement.scope {
            AnnounceScope::AllNeighbors => {
                let topology = self.topology;
                self.scratch_neighbors.extend(topology.neighbors(origin).iter().map(|(n, _)| *n));
            }
            AnnounceScope::Neighbors(list) => self.scratch_neighbors.extend_from_slice(list),
        }

        let mut seeds: Vec<Work> = Vec::with_capacity(self.scratch_neighbors.len());
        let adverts = self.origin_adverts.entry((origin, announcement.prefix)).or_default();
        let previously: Vec<Asn> = adverts.keys().copied().collect();
        for &n in &self.scratch_neighbors {
            adverts.insert(n, route.clone());
            seeds.push(Work::Announce {
                to: n,
                from: origin,
                prefix: announcement.prefix,
                route: route.clone(),
            });
        }
        for n in previously {
            if !self.scratch_neighbors.contains(&n) {
                adverts.remove(&n);
                seeds.push(Work::Withdraw { to: n, from: origin, prefix: announcement.prefix });
            }
        }

        let result = self.run(seeds, &mut outcome);
        // Canonical outcome order, independent of engine and work order.
        outcome.accepted_by.sort_unstable();
        outcome.rejected_by.sort_unstable_by_key(|(a, _)| *a);
        self.flush_emissions(time);
        (outcome, result)
    }

    /// Withdraw an origin's prefix everywhere it was advertised. Like
    /// [`BgpSimulator::announce`], non-convergence degrades gracefully.
    pub fn withdraw(&mut self, time: SimTime, origin: Asn, prefix: Ipv4Prefix) {
        let _ = self.withdraw_impl(time, origin, prefix);
    }

    /// Like [`BgpSimulator::withdraw`], surfacing the propagation error.
    pub fn try_withdraw(
        &mut self,
        time: SimTime,
        origin: Asn,
        prefix: Ipv4Prefix,
    ) -> Result<(), PropagationError> {
        self.withdraw_impl(time, origin, prefix)
    }

    fn withdraw_impl(
        &mut self,
        time: SimTime,
        origin: Asn,
        prefix: Ipv4Prefix,
    ) -> Result<(), PropagationError> {
        let Some(adverts) = self.origin_adverts.remove(&(origin, prefix)) else {
            return Ok(());
        };
        let seeds: Vec<Work> =
            adverts.into_keys().map(|n| Work::Withdraw { to: n, from: origin, prefix }).collect();
        let mut outcome = AnnounceOutcome::default();
        let result = self.run(seeds, &mut outcome);
        self.flush_emissions(time);
        result
    }

    // ---- engine ---------------------------------------------------------

    fn run(
        &mut self,
        seeds: Vec<Work>,
        outcome: &mut AnnounceOutcome,
    ) -> Result<(), PropagationError> {
        let result = match self.mode {
            EngineMode::Queue => self.run_queue(seeds, outcome),
            EngineMode::Phased => self.run_phased(seeds, outcome),
        };
        if result.is_err() {
            self.stats.convergence_failures += 1;
        }
        result
    }

    /// The sequential engine: one FIFO work queue.
    fn run_queue(
        &mut self,
        seeds: Vec<Work>,
        outcome: &mut AnnounceOutcome,
    ) -> Result<(), PropagationError> {
        let ctx = SimCtx {
            topology: self.topology,
            origin_index: &self.origin_index,
            behaviors: &self.behaviors,
            policies: self.policies.as_ref(),
            rs_index: &self.rs_index,
        };
        let cap = (self.topology.as_count() as u64 + 10) * 10_000;
        let mut steps: u64 = 0;
        let mut queue: VecDeque<Work> = seeds.into();
        let mut generated: Vec<Work> = Vec::new();
        while let Some(work) = queue.pop_front() {
            steps += 1;
            if steps >= cap {
                return Err(PropagationError::NoConvergence { steps });
            }
            let me = work.target();
            let mut node = NodeState {
                me,
                prefixes: self.state.entry(me).or_default(),
                out: &mut generated,
                stats: &mut self.stats,
                outcome,
                dirty: &mut self.dirty,
            };
            process_work(&ctx, &mut node, work);
            queue.extend(generated.drain(..));
        }
        Ok(())
    }

    /// The rank-scheduled engine: three valley-free phases per round —
    /// customer→provider work in ascending rank order, peer/route-server
    /// work in waves, provider→customer work in descending rank order —
    /// repeated until quiescent. Rank order delivers the
    /// highest-preference customer routes first, so an AS's best route
    /// settles without the withdraw/re-announce churn a FIFO trajectory
    /// produces. Work within one rank group runs target by target in
    /// ascending ASN order (see [`Self::process_group`]).
    fn run_phased(
        &mut self,
        seeds: Vec<Work>,
        outcome: &mut AnnounceOutcome,
    ) -> Result<(), PropagationError> {
        let ranks = match &self.ranks {
            Some(r) => Arc::clone(r),
            None => {
                let r = Arc::new(self.topology.propagation_ranks());
                self.ranks = Some(Arc::clone(&r));
                r
            }
        };
        let max_rank = ranks.max_rank() as usize;
        let mut up: Vec<Vec<Work>> = vec![Vec::new(); max_rank + 1];
        let mut across: Vec<Work> = Vec::new();
        let mut down: Vec<Vec<Work>> = vec![Vec::new(); max_rank + 1];
        let cap = (self.topology.as_count() as u64 + 10) * 10_000;
        let mut steps: u64 = 0;
        classify_works(self.topology, &ranks, seeds, &mut up, &mut across, &mut down);
        loop {
            let mut progressed = false;
            // Phase 1: up. Routes climbing to providers, lowest rank
            // first; work generated for higher ranks joins this sweep.
            for r in 0..=max_rank {
                while !up[r].is_empty() {
                    let works = std::mem::take(&mut up[r]);
                    progressed = true;
                    steps += works.len() as u64;
                    if steps >= cap {
                        return Err(PropagationError::NoConvergence { steps });
                    }
                    let out = self.process_group(works, outcome);
                    classify_works(self.topology, &ranks, out, &mut up, &mut across, &mut down);
                }
            }
            // Phase 2: across. Peer and route-server redistribution, in
            // waves until locally quiescent (route-server chains).
            while !across.is_empty() {
                let works = std::mem::take(&mut across);
                progressed = true;
                steps += works.len() as u64;
                if steps >= cap {
                    return Err(PropagationError::NoConvergence { steps });
                }
                let out = self.process_group(works, outcome);
                classify_works(self.topology, &ranks, out, &mut up, &mut across, &mut down);
            }
            // Phase 3: down. Routes descending to customers, highest
            // rank first; lower-rank work joins this sweep.
            for r in (0..=max_rank).rev() {
                while !down[r].is_empty() {
                    let works = std::mem::take(&mut down[r]);
                    progressed = true;
                    steps += works.len() as u64;
                    if steps >= cap {
                        return Err(PropagationError::NoConvergence { steps });
                    }
                    let out = self.process_group(works, outcome);
                    classify_works(self.topology, &ranks, out, &mut up, &mut across, &mut down);
                }
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    /// Process one rank group of work items: targets in ascending ASN
    /// order, each target's works in arrival order. Processing a work
    /// item touches only the target's own per-prefix state, so the order
    /// between targets changes nothing but the order of the generated
    /// work, which is ASN-ordered and therefore deterministic.
    fn process_group(&mut self, works: Vec<Work>, outcome: &mut AnnounceOutcome) -> Vec<Work> {
        let mut by_target: BTreeMap<Asn, Vec<Work>> = BTreeMap::new();
        for work in works {
            by_target.entry(work.target()).or_default().push(work);
        }
        let ctx = SimCtx {
            topology: self.topology,
            origin_index: &self.origin_index,
            behaviors: &self.behaviors,
            policies: self.policies.as_ref(),
            rs_index: &self.rs_index,
        };
        let mut generated: Vec<Work> = Vec::new();
        for (me, works) in by_target {
            let mut node = NodeState {
                me,
                prefixes: self.state.entry(me).or_default(),
                out: &mut generated,
                stats: &mut self.stats,
                outcome,
                dirty: &mut self.dirty,
            };
            for work in works {
                process_work(&ctx, &mut node, work);
            }
        }
        generated
    }

    /// Reconstruct collector emissions from final state for every
    /// (AS, prefix) pair dirtied since the last flush. Emitting from
    /// the converged state (rather than along the propagation
    /// trajectory) is what makes the queue and phased engines produce
    /// bit-identical elem streams: propagation order affects only
    /// transient state, and the best-path fixpoint is unique.
    fn flush_emissions(&mut self, time: SimTime) {
        if self.dirty.is_empty() {
            return;
        }
        let topology = self.topology;
        let dirty = std::mem::take(&mut self.dirty);
        for &(me, prefix) in &dirty {
            let ps = self.state.get(&me).and_then(|m| m.get(&prefix));
            if let Some(&idx) = self.rs_index.get(&me) {
                // Route-server node: refresh the PCH per-member views,
                // attributing each route to the member that sent it,
                // with its peering-LAN address.
                let ixp = &topology.ixps()[idx];
                for session in self.deployment.sessions_at(me) {
                    if !matches!(session.feed, FeedKind::RouteServerView(_)) {
                        continue;
                    }
                    for &member in &ixp.members {
                        let visible = ps.and_then(|ps| ps.candidates.get(&member)).map(|r| {
                            let mut out = r.clone();
                            if ixp.route_server_in_path {
                                out.as_path.prepend(me, 1);
                            }
                            out
                        });
                        let peer_ip =
                            ixp.member_lan_ip(member).map(IpAddr::V4).unwrap_or(session.peer_ip);
                        let key: EmitKey =
                            (session.dataset, session.collector, session.peer_asn, prefix, member);
                        emit_diff(
                            &mut self.emitted,
                            &mut self.elems,
                            time,
                            key,
                            session,
                            peer_ip,
                            prefix,
                            member,
                            visible.as_ref(),
                        );
                    }
                }
            } else {
                let best = ps.and_then(|p| p.best());
                for session in self.deployment.sessions_at(me) {
                    match session.feed {
                        FeedKind::RouteServerView(_) => {
                            // only meaningful at route-server nodes
                        }
                        FeedKind::Full | FeedKind::CustomerOnly | FeedKind::Internal => {
                            let visible: Option<&RouteEntry> = match (session.feed, best) {
                                (_, None) => None,
                                (FeedKind::Full, Some(b)) => {
                                    if b.communities.has_no_export() {
                                        None
                                    } else {
                                        Some(b)
                                    }
                                }
                                (FeedKind::CustomerOnly, Some(b)) => {
                                    if b.communities.has_no_export()
                                        || b.learned_rel != Relationship::Customer
                                    {
                                        None
                                    } else {
                                        Some(b)
                                    }
                                }
                                (FeedKind::Internal, Some(b)) => {
                                    // Internal sessions prefer the blackhole
                                    // candidate when one exists (it is the
                                    // operationally interesting route).
                                    Some(
                                        ps.expect("best implies state")
                                            .candidates
                                            .values()
                                            .find(|r| r.is_blackhole)
                                            .unwrap_or(b),
                                    )
                                }
                                (FeedKind::RouteServerView(_), Some(_)) => unreachable!(),
                            };
                            // The peer prepends itself when exporting to
                            // the collector, exactly like any other eBGP
                            // export.
                            let exported = visible.map(|r| {
                                let mut out = r.clone();
                                out.as_path.prepend(me, 1);
                                out
                            });
                            let key: EmitKey =
                                (session.dataset, session.collector, session.peer_asn, prefix, me);
                            emit_diff(
                                &mut self.emitted,
                                &mut self.elems,
                                time,
                                key,
                                session,
                                session.peer_ip,
                                prefix,
                                me,
                                exported.as_ref(),
                            );
                        }
                    }
                }
            }
        }
    }
}

// ---- shared propagation core -------------------------------------------
//
// Both engines run the exact same per-work processing; the functions
// below take an explicit read-only context plus a per-AS state view
// instead of `&mut self`, so each engine borrows the simulator's
// read-only tables and the target AS's mutable state side by side.

/// Read-only propagation context, shared by every work item of a run.
struct SimCtx<'a> {
    topology: &'a Topology,
    origin_index: &'a OriginIndex,
    behaviors: &'a HashMap<Asn, SessionBehavior>,
    policies: Option<&'a PolicyEngine>,
    /// route-server ASN → index into `topology.ixps()`.
    rs_index: &'a HashMap<Asn, usize>,
}

impl SimCtx<'_> {
    fn ixp_of(&self, asn: Asn) -> Option<&Ixp> {
        self.rs_index.get(&asn).map(|&i| &self.topology.ixps()[i])
    }
}

/// Mutable state of the one AS a work item targets. Processing a work
/// item touches nothing outside this view — that isolation is what
/// makes the phased engine's within-rank order irrelevant to the result.
struct NodeState<'a> {
    me: Asn,
    prefixes: &'a mut HashMap<Ipv4Prefix, PrefixState>,
    out: &'a mut Vec<Work>,
    stats: &'a mut RunStats,
    outcome: &'a mut AnnounceOutcome,
    dirty: &'a mut BTreeSet<(Asn, Ipv4Prefix)>,
}

/// Sort generated work into the three valley-free phases by the role of
/// the *sender* as seen from the receiver: a route arriving from a
/// customer is climbing (up), one from a provider is descending (down),
/// and anything else — peers, route servers, unknown senders — is
/// lateral.
fn classify_works(
    topology: &Topology,
    ranks: &PropagationRanks,
    works: Vec<Work>,
    up: &mut [Vec<Work>],
    across: &mut Vec<Work>,
    down: &mut [Vec<Work>],
) {
    for work in works {
        match topology.rel_between(work.target(), work.source()) {
            Some(Relationship::Customer) => {
                let r = ranks.rank_of(work.target()).unwrap_or(0) as usize;
                up[r.min(up.len() - 1)].push(work);
            }
            Some(Relationship::Provider) => {
                let r = ranks.rank_of(work.target()).unwrap_or(0) as usize;
                down[r.min(down.len() - 1)].push(work);
            }
            _ => across.push(work),
        }
    }
}

fn process_work(ctx: &SimCtx<'_>, node: &mut NodeState<'_>, work: Work) {
    match work {
        Work::Announce { from, prefix, route, .. } => {
            process_announce(ctx, node, from, prefix, route);
        }
        Work::Withdraw { from, prefix, .. } => {
            process_withdraw(ctx, node, from, prefix);
        }
    }
}

fn process_announce(
    ctx: &SimCtx<'_>,
    node: &mut NodeState<'_>,
    from: Asn,
    prefix: Ipv4Prefix,
    mut route: RouteEntry,
) {
    let me = node.me;
    if route.as_path.contains(me) {
        node.stats.record_import_reject(RejectReason::LoopDetected);
        // Loop prevention is treat-as-withdraw: any previously held
        // candidate from this neighbor is gone, which keeps the
        // converged state independent of delivery order.
        match ctx.ixp_of(me) {
            Some(ixp) => rs_remove_candidate(ctx, node, ixp, from, prefix),
            None => remove_candidate(ctx, node, from, prefix),
        }
        return;
    }
    let Some(rel) = ctx.topology.rel_between(me, from) else {
        return; // targeted announce to a non-neighbor: silently dropped
    };

    // Route-server node? Special redistribution semantics. Policy
    // extensions deliberately do not hook route servers: they are
    // transparent redistribution points, not policy actors, and PCH
    // visibility depends on that transparency.
    if let Some(ixp) = ctx.ixp_of(me) {
        process_at_route_server(ctx, node, ixp, from, prefix, route);
        return;
    }

    // Policy-extension import hooks run before the Gao-Rexford
    // import — they model the ingress filters (ROV, peerlock,
    // path-end, OTC) a router applies ahead of route acceptance.
    if let Some(engine) = ctx.policies {
        if engine
            .import(
                ctx.topology,
                node.stats,
                me,
                from,
                rel,
                &prefix,
                &route.as_path,
                &route.communities,
                &mut route.leak_marked,
            )
            .is_err()
        {
            remove_candidate(ctx, node, from, prefix);
            return;
        }
    }

    let behavior = ctx.behaviors.get(&me).copied().unwrap_or_default();
    let origin = route.as_path.origin().unwrap_or(from);
    let auth_ctx = AuthContext {
        topology: ctx.topology,
        origin,
        sender: from,
        allocation_owner: ctx.origin_index.origin_of(&prefix),
        irr_registered: route.irr_registered,
    };
    let import =
        import_decision(me, rel, &prefix, &route.communities, behavior, ctx.topology, &auth_ctx);
    // Record trigger-specific rejections for ground truth even when
    // the route is otherwise accepted as a plain route.
    if let Some(reason) = import.trigger_rejection {
        node.stats.record_trigger_reject(reason);
        if !node.outcome.rejected_by.iter().any(|(a, _)| *a == me) {
            node.outcome.rejected_by.push((me, reason));
        }
    }

    match import.decision {
        ImportDecision::Reject(reason) => {
            node.stats.record_import_reject(reason);
            // A previously held candidate from this neighbor is gone.
            remove_candidate(ctx, node, from, prefix);
            return;
        }
        ImportDecision::Blackhole => {
            route.is_blackhole = true;
            if !node.outcome.accepted_by.contains(&me) {
                node.outcome.accepted_by.push(me);
            }
        }
        ImportDecision::Regular => {
            // A blackhole route redistributed by a route server keeps
            // its drop semantics at members (next-hop is the null
            // interface). Anywhere else the flag must not travel: a
            // transit AS holding a propagated /32 merely routes toward
            // the provider that discards.
            route.is_blackhole =
                route.is_blackhole && rel == Relationship::RouteServer && route.next_hop.is_some();
        }
    }
    route.learned_rel = rel;
    route.local_pref = local_pref_for(rel);

    let ps = node.prefixes.entry(prefix).or_default();
    let unchanged = ps.candidates.get(&from) == Some(&route);
    ps.candidates.insert(from, route);
    if unchanged {
        return; // no state change: stop propagation
    }
    after_change(ctx, node, prefix);
}

fn remove_candidate(ctx: &SimCtx<'_>, node: &mut NodeState<'_>, from: Asn, prefix: Ipv4Prefix) {
    let Some(ps) = node.prefixes.get_mut(&prefix) else {
        return;
    };
    if ps.candidates.remove(&from).is_none() {
        return;
    }
    after_change(ctx, node, prefix);
}

fn process_withdraw(ctx: &SimCtx<'_>, node: &mut NodeState<'_>, from: Asn, prefix: Ipv4Prefix) {
    match ctx.ixp_of(node.me) {
        Some(ixp) => rs_remove_candidate(ctx, node, ixp, from, prefix),
        None => remove_candidate(ctx, node, from, prefix),
    }
}

/// After a candidate change at `me`: recompute best, update neighbor
/// advertisements, and mark the pair dirty for the emission flush.
fn after_change(ctx: &SimCtx<'_>, node: &mut NodeState<'_>, prefix: Ipv4Prefix) {
    let me = node.me;
    node.dirty.insert((me, prefix));
    let topology = ctx.topology;
    let offering = topology.as_info(me).and_then(|i| i.blackhole_offering.as_ref());
    let Some(ps) = node.prefixes.get_mut(&prefix) else {
        return;
    };
    let best = ps.best().cloned();
    if ps.advert_basis == best {
        return; // adverts are a pure function of best: nothing to redo
    }

    // Determine the outbound advertisement per neighbor.
    for &(n, to_rel) in topology.neighbors(me) {
        // Each `None` arm mirrors one distinct suppression rule of the
        // paper; keeping them separate (with their comments) documents
        // the policy even though the bodies coincide.
        #[allow(clippy::if_same_then_else)]
        let advert: Option<RouteEntry> = match &best {
            None => None,
            Some(best) => {
                if n == best.learned_from {
                    None // never advertise back to the sender
                } else if best.communities.has_no_export() {
                    None // explicit NO_EXPORT: honored by everyone
                } else if best.is_blackhole && offering.is_some_and(|o| o.honors_no_export) {
                    None // RFC 7999-compliant provider suppresses
                } else {
                    // Valley-free verdict, then policy-extension
                    // export hooks (scrub / OTC marking / leaker
                    // override). The hard suppressions above are
                    // never overridable — NO_EXPORT and RFC 7999
                    // compliance hold even at a leaker.
                    let default_allowed = may_export(Some(best.learned_rel), to_rel);
                    let decided = match ctx.policies {
                        None => default_allowed.then(|| best.clone()),
                        Some(engine) => {
                            let mut out = best.clone();
                            let allowed = engine.export(
                                topology,
                                node.stats,
                                me,
                                n,
                                to_rel,
                                best.learned_rel,
                                &prefix,
                                &best.as_path,
                                &mut out.communities,
                                &mut out.leak_marked,
                                default_allowed,
                            );
                            allowed.then_some(out)
                        }
                    };
                    match decided {
                        None => None, // valley-free (or policy) suppression
                        Some(mut out) => {
                            out.as_path.prepend(me, 1);
                            if best.is_blackhole {
                                if let Some(o) = offering {
                                    if o.strips_community {
                                        out.communities.retain(|c| !o.is_trigger(*c));
                                    }
                                }
                            }
                            Some(out)
                        }
                    }
                }
            }
        };

        let unchanged = match (&advert, ps.advertised.get(&n)) {
            (None, None) => true,
            (Some(a), Some(o)) => a == o,
            _ => false,
        };
        if unchanged {
            continue;
        }
        match advert {
            Some(a) => {
                node.out.push(Work::Announce { to: n, from: me, prefix, route: a.clone() });
                ps.advertised.insert(n, a);
            }
            None => {
                ps.advertised.remove(&n);
                node.out.push(Work::Withdraw { to: n, from: me, prefix });
            }
        }
    }
    ps.advert_basis = best;
}

/// Compare with the session's previously emitted state; emit announce
/// or withdraw elems as needed.
#[allow(clippy::too_many_arguments)] // flat emission context, called from one place per feed kind
fn emit_diff(
    emitted: &mut HashMap<EmitKey, (AsPath, CommunitySet)>,
    elems: &mut Vec<BgpElem>,
    time: SimTime,
    key: EmitKey,
    session: &CollectorSession,
    peer_ip: IpAddr,
    prefix: Ipv4Prefix,
    attributed_peer: Asn,
    visible: Option<&RouteEntry>,
) {
    let old = emitted.get(&key);
    match visible {
        Some(route) => {
            let sig = (route.as_path.clone(), route.communities.clone());
            if old == Some(&sig) {
                return;
            }
            emitted.insert(key, sig);
            elems.push(BgpElem {
                time,
                dataset: session.dataset,
                collector: session.collector,
                peer_asn: attributed_peer,
                peer_ip,
                elem_type: ElemType::Announce,
                prefix,
                as_path: route.as_path.clone(),
                communities: route.communities.clone(),
                next_hop: route.next_hop,
            });
        }
        None => {
            if old.is_none() {
                return;
            }
            emitted.remove(&key);
            elems.push(BgpElem {
                time,
                dataset: session.dataset,
                collector: session.collector,
                peer_asn: attributed_peer,
                peer_ip,
                elem_type: ElemType::Withdraw,
                prefix,
                as_path: AsPath::empty(),
                communities: CommunitySet::new(),
                next_hop: None,
            });
        }
    }
}

// ---- route servers --------------------------------------------------

fn process_at_route_server(
    ctx: &SimCtx<'_>,
    node: &mut NodeState<'_>,
    ixp: &Ixp,
    from: Asn,
    prefix: Ipv4Prefix,
    mut route: RouteEntry,
) {
    let me = node.me;
    if !ixp.has_member(from) {
        return; // only members speak to the route server
    }
    let offering = ctx.topology.as_info(me).and_then(|i| i.blackhole_offering.as_ref());

    // Import filter at the route server.
    let triggered = offering.is_some_and(|o| {
        route.communities.iter().any(|c| o.is_trigger(c))
            || o.large_community.is_some_and(|l| route.communities.contains_large(l))
    });
    if triggered {
        let o = offering.expect("triggered implies offering");
        if !o.accepts_length(prefix.length()) {
            if !node.outcome.rejected_by.iter().any(|(a, _)| *a == me) {
                node.outcome.rejected_by.push((me, RejectReason::LengthRejected));
            }
            rs_remove_candidate(ctx, node, ixp, from, prefix);
            return;
        }
        // Route servers filter on IRR registration: misconfigured
        // users' blackhole requests are not redistributed (§10).
        let origin = route.as_path.origin().unwrap_or(from);
        let auth_ctx = AuthContext {
            topology: ctx.topology,
            origin,
            sender: from,
            allocation_owner: ctx.origin_index.origin_of(&prefix),
            irr_registered: route.irr_registered,
        };
        if !crate::policy::auth_ok(o.auth, &auth_ctx) {
            if !node.outcome.rejected_by.iter().any(|(a, _)| *a == me) {
                node.outcome.rejected_by.push((me, RejectReason::AuthFailed));
            }
            rs_remove_candidate(ctx, node, ixp, from, prefix);
            return;
        }
        route.is_blackhole = true;
        route.next_hop = o.blackhole_ip.map(IpAddr::V4);
        if !node.outcome.accepted_by.contains(&me) {
            node.outcome.accepted_by.push(me);
        }
    } else if prefix.is_more_specific_than(24) {
        // Untagged host routes are not redistributed by route servers.
        rs_remove_candidate(ctx, node, ixp, from, prefix);
        return;
    }
    route.learned_rel = Relationship::RouteServer;
    route.local_pref = local_pref_for(Relationship::RouteServer);

    let ps = node.prefixes.entry(prefix).or_default();
    let unchanged = ps.candidates.get(&from) == Some(&route);
    ps.candidates.insert(from, route);
    if unchanged {
        return;
    }
    rs_redistribute(node, ixp, prefix);
}

fn rs_remove_candidate(
    _ctx: &SimCtx<'_>,
    node: &mut NodeState<'_>,
    ixp: &Ixp,
    from: Asn,
    prefix: Ipv4Prefix,
) {
    let Some(ps) = node.prefixes.get_mut(&prefix) else {
        return;
    };
    if ps.candidates.remove(&from).is_none() {
        return;
    }
    rs_redistribute(node, ixp, prefix);
}

/// Re-advertise the route server's choice to every member after any
/// change to its candidate set: each member receives the best remaining
/// candidate contributed by *another* member (shortest AS path, then
/// lowest contributor ASN), or a withdraw when none is left.
///
/// Advertising the post-change best — not the triggering change — is
/// what keeps the members' view a pure function of the route server's
/// final candidate set: a member holds exactly one candidate per route
/// server session, so forwarding every contribution would leave
/// whichever arrived last, an artifact of delivery order that the queue
/// and phased engines would disagree on. The PCH route-server views are
/// reconstructed from the final candidate set at flush time;
/// propagation only marks the pair dirty.
fn rs_redistribute(node: &mut NodeState<'_>, ixp: &Ixp, prefix: Ipv4Prefix) {
    let me = node.me;
    node.dirty.insert((me, prefix));
    static EMPTY: BTreeMap<Asn, RouteEntry> = BTreeMap::new();
    let candidates = node.prefixes.get(&prefix).map(|ps| &ps.candidates).unwrap_or(&EMPTY);
    for &member in &ixp.members {
        let best = candidates
            .iter()
            .filter(|&(&contributor, _)| contributor != member)
            .min_by_key(|&(&contributor, route)| (route.as_path.hop_len(), contributor));
        match best {
            Some((_, route)) => {
                let mut out = route.clone();
                if ixp.route_server_in_path {
                    out.as_path.prepend(me, 1);
                }
                node.out.push(Work::Announce { to: member, from: me, prefix, route: out });
            }
            None => {
                node.out.push(Work::Withdraw { to: member, from: me, prefix });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use bh_bgp_types::community::Community;
    use bh_topology::{BlackholeAuth, NetworkType, Tier};

    use crate::collector::{CollectorConfig, CollectorSession};

    use super::*;

    /// Hand-built topology:
    ///
    /// ```text
    ///        T1a ===== T1b          (tier-1 peers)
    ///        /  \        \
    ///      P1    P2      T1b's customer: peerAS
    ///        \  /
    ///        USER (originates 30.0.0.0/16)
    ///  USER also peers with peerAS.
    /// ```
    /// P1 and P2 offer blackholing (P1: 0xP1:666, honors no-export;
    /// P2: strips its community, propagates).
    struct Fixture {
        topology: Topology,
        t1a: Asn,
        p1: Asn,
        p2: Asn,
        user: Asn,
        peer_as: Asn,
    }

    fn fixture() -> Fixture {
        use bh_topology::{AsInfo, BlackholeOffering, DocumentationChannel};
        use std::collections::BTreeMap;

        let t1a = Asn::new(10);
        let t1b = Asn::new(11);
        let p1 = Asn::new(20);
        let p2 = Asn::new(21);
        let user = Asn::new(30);
        let peer_as = Asn::new(40);

        let mk = |asn: Asn,
                  tier: Tier,
                  prefixes: Vec<&str>,
                  offering: Option<BlackholeOffering>| AsInfo {
            asn,
            tier,
            network_type: NetworkType::TransitAccess,
            country: "DE",
            prefixes: prefixes.iter().map(|p| p.parse().unwrap()).collect(),
            blackhole_offering: offering,
            tag_communities: vec![],
            tag_classes: vec![],
            tag_large_communities: vec![],
            in_peeringdb: true,
        };
        let offer = |asn: Asn, honors: bool, strips: bool| BlackholeOffering {
            communities: vec![Community::from_parts(asn.value() as u16, 666)],
            large_community: None,
            min_accepted_length: 25,
            documentation: DocumentationChannel::Irr,
            auth: BlackholeAuth::OriginOrCone,
            blackhole_ip: None,
            strips_community: strips,
            honors_no_export: honors,
        };

        let mut ases = BTreeMap::new();
        ases.insert(t1a, mk(t1a, Tier::Tier1, vec!["50.0.0.0/12"], None));
        ases.insert(t1b, mk(t1b, Tier::Tier1, vec!["51.0.0.0/12"], None));
        ases.insert(p1, mk(p1, Tier::Transit, vec!["52.0.0.0/14"], Some(offer(p1, true, false))));
        ases.insert(p2, mk(p2, Tier::Transit, vec!["53.0.0.0/14"], Some(offer(p2, false, true))));
        ases.insert(user, mk(user, Tier::Stub, vec!["30.0.0.0/16"], None));
        ases.insert(peer_as, mk(peer_as, Tier::Stub, vec!["54.0.0.0/16"], None));

        let edges = vec![
            (t1a, t1b, Relationship::Peer),
            (t1a, p1, Relationship::Customer),
            (t1a, p2, Relationship::Customer),
            (t1b, peer_as, Relationship::Customer),
            (p1, user, Relationship::Customer),
            (p2, user, Relationship::Customer),
            (user, peer_as, Relationship::Peer),
        ];
        Fixture { topology: Topology::assemble(ases, edges, vec![]), t1a, p1, p2, user, peer_as }
    }

    fn session(dataset: DataSource, asn: Asn, feed: FeedKind) -> CollectorSession {
        CollectorSession {
            dataset,
            collector: 0,
            peer_asn: asn,
            peer_ip: "192.0.2.9".parse().unwrap(),
            feed,
        }
    }

    fn deployment_with(sessions: Vec<CollectorSession>) -> CollectorDeployment {
        let mut d = CollectorDeployment::default();
        for s in sessions {
            d.add_session(s);
        }
        d
    }

    fn bh_communities(provider: Asn) -> CommunitySet {
        CommunitySet::from_classic(vec![Community::from_parts(provider.value() as u16, 666)])
    }

    /// Deterministic behaviors: everyone accepts host routes from
    /// customers, nobody from peers (tests override as needed).
    fn pin_behaviors(sim: &mut BgpSimulator<'_>, f: &Fixture) {
        for asn in [f.t1a, f.p1, f.p2, f.user, f.peer_as] {
            sim.set_behavior(asn, SessionBehavior::default());
        }
        sim.set_behavior(Asn::new(11), SessionBehavior::default());
    }

    #[test]
    fn regular_announcement_floods_valley_free() {
        let f = fixture();
        let d = deployment_with(vec![session(DataSource::Ris, f.t1a, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        let outcome = sim.announce(
            SimTime::from_unix(100),
            &Announcement::simple(f.user, "30.0.0.0/16".parse().unwrap(), CommunitySet::new()),
        );
        assert!(outcome.accepted_by.is_empty());
        let elems = sim.drain_elems();
        // T1a sees the route via its customers P1/P2.
        assert!(!elems.is_empty());
        let announce = elems.iter().find(|e| e.is_announce()).unwrap();
        assert_eq!(announce.prefix, "30.0.0.0/16".parse().unwrap());
        assert_eq!(announce.as_path.origin(), Some(f.user));
        // Valley-free: path is T1a ← {P1|P2} ← user.
        assert_eq!(announce.as_path.hop_len(), 3);
        assert_eq!(announce.as_path.first(), Some(f.t1a));
    }

    #[test]
    fn blackhole_accepted_at_provider() {
        let f = fixture();
        let d = deployment_with(vec![]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        let outcome = sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "30.0.1.1/32".parse().unwrap(),
                communities: bh_communities(f.p1),
                scope: AnnounceScope::Neighbors(vec![f.p1]),
                irr_registered: true,
                prepend: 1,
            },
        );
        assert_eq!(outcome.accepted_by, vec![f.p1]);
        assert!(outcome.rejected_by.is_empty());
        assert!(sim.is_blackholed_at(f.p1, &"30.0.1.1/32".parse().unwrap()));
        assert!(!sim.is_blackholed_at(f.p2, &"30.0.1.1/32".parse().unwrap()));
    }

    #[test]
    fn rfc_compliant_provider_suppresses_propagation() {
        // P1 honors no-export: T1a must never learn the /32.
        let f = fixture();
        let d = deployment_with(vec![session(DataSource::Ris, f.t1a, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "30.0.1.1/32".parse().unwrap(),
                communities: bh_communities(f.p1),
                scope: AnnounceScope::Neighbors(vec![f.p1]),
                irr_registered: true,
                prepend: 1,
            },
        );
        assert!(sim.drain_elems().is_empty());
    }

    #[test]
    fn non_compliant_provider_propagates_with_stripped_community() {
        // P2 strips its community but does propagate.
        let f = fixture();
        let d = deployment_with(vec![session(DataSource::Ris, f.t1a, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "30.0.1.1/32".parse().unwrap(),
                communities: bh_communities(f.p2),
                scope: AnnounceScope::Neighbors(vec![f.p2]),
                irr_registered: true,
                prepend: 1,
            },
        );
        let elems = sim.drain_elems();
        let announce = elems.iter().find(|e| e.is_announce()).expect("T1a sees the /32");
        assert_eq!(announce.prefix, "30.0.1.1/32".parse().unwrap());
        // The trigger was stripped.
        assert!(!announce.communities.contains(Community::from_parts(f.p2.value() as u16, 666)));
        // Provider is on the path.
        assert!(announce.as_path.contains(f.p2));
    }

    #[test]
    fn bundling_is_visible_via_non_provider_neighbors() {
        // USER bundles P1+P2 triggers and announces to ALL neighbors,
        // including peerAS which has a collector session. Even though P1
        // suppresses and P2 strips, the bundle is visible via peerAS with
        // both communities intact (Fig. 3's key mechanism).
        let f = fixture();
        let d = deployment_with(vec![session(DataSource::RouteViews, f.peer_as, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        sim.set_behavior(
            f.peer_as,
            SessionBehavior { host_routes_from_customers: true, host_routes_from_peers: true },
        );
        let mut communities = bh_communities(f.p1);
        communities.merge(&bh_communities(f.p2));
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "30.0.1.1/32".parse().unwrap(),
                communities: communities.clone(),
                scope: AnnounceScope::AllNeighbors,
                irr_registered: true,
                prepend: 1,
            },
        );
        let elems = sim.drain_elems();
        let seen = elems.iter().find(|e| e.is_announce() && e.peer_asn == f.peer_as);
        // peerAS accepts the /32 from its peer only if its session
        // behavior allows host routes from peers; the chosen seed does.
        let announce = seen.expect("bundled announcement visible at peerAS");
        assert!(announce.communities.contains(Community::from_parts(f.p1.value() as u16, 666)));
        assert!(announce.communities.contains(Community::from_parts(f.p2.value() as u16, 666)));
        // Neither provider is on the path (no-path / bundling case).
        assert!(!announce.as_path.contains(f.p1));
        assert!(!announce.as_path.contains(f.p2));
    }

    #[test]
    fn no_export_hides_from_public_but_not_internal() {
        let f = fixture();
        let d = deployment_with(vec![
            session(DataSource::Ris, f.p1, FeedKind::Full),
            session(DataSource::Cdn, f.p1, FeedKind::Internal),
        ]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        let mut communities = bh_communities(f.p1);
        communities.insert(Community::NO_EXPORT);
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "30.0.1.1/32".parse().unwrap(),
                communities,
                scope: AnnounceScope::Neighbors(vec![f.p1]),
                irr_registered: true,
                prepend: 1,
            },
        );
        let elems = sim.drain_elems();
        assert!(
            elems.iter().all(|e| e.dataset != DataSource::Ris),
            "RIS must not see a NO_EXPORT route"
        );
        let cdn = elems.iter().find(|e| e.dataset == DataSource::Cdn);
        assert!(cdn.is_some(), "CDN internal session sees NO_EXPORT routes");
        assert!(cdn.unwrap().communities.has_no_export());
    }

    #[test]
    fn direct_feed_sees_tagged_route() {
        // P2 has a RIS session: the tagged /32 is visible there even
        // before propagation (direct feed).
        let f = fixture();
        let d = deployment_with(vec![session(DataSource::Ris, f.p2, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "30.0.1.1/32".parse().unwrap(),
                communities: bh_communities(f.p2),
                scope: AnnounceScope::Neighbors(vec![f.p2]),
                irr_registered: true,
                prepend: 1,
            },
        );
        let elems = sim.drain_elems();
        let announce = elems.iter().find(|e| e.is_announce()).expect("direct feed elem");
        assert_eq!(announce.peer_asn, f.p2);
        // Direct feeds retain the tag (stripping applies on neighbor
        // export, not on the provider's own collector session).
        assert!(announce.communities.contains(Community::from_parts(f.p2.value() as u16, 666)));
        assert_eq!(announce.as_path.distance_from_peer(f.p2), Some(0));
    }

    #[test]
    fn withdraw_generates_withdraw_elems() {
        let f = fixture();
        let d = deployment_with(vec![session(DataSource::Ris, f.p2, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        let prefix: Ipv4Prefix = "30.0.1.1/32".parse().unwrap();
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix,
                communities: bh_communities(f.p2),
                scope: AnnounceScope::Neighbors(vec![f.p2]),
                irr_registered: true,
                prepend: 1,
            },
        );
        sim.withdraw(SimTime::from_unix(200), f.user, prefix);
        let elems = sim.drain_elems();
        let withdraw =
            elems.iter().find(|e| e.elem_type == ElemType::Withdraw).expect("withdraw elem");
        assert_eq!(withdraw.prefix, prefix);
        assert_eq!(withdraw.time, SimTime::from_unix(200));
        assert!(!sim.is_blackholed_at(f.p2, &prefix));
    }

    #[test]
    fn unauthorized_blackhole_is_rejected() {
        // USER requests blackholing of peerAS's space: auth failure at P1.
        let f = fixture();
        let d = deployment_with(vec![]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        let outcome = sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "54.0.1.1/32".parse().unwrap(),
                communities: bh_communities(f.p1),
                scope: AnnounceScope::Neighbors(vec![f.p1]),
                irr_registered: true,
                prepend: 1,
            },
        );
        assert!(outcome.accepted_by.is_empty());
        assert_eq!(outcome.rejected_by, vec![(f.p1, RejectReason::AuthFailed)]);
    }

    #[test]
    fn prepending_does_not_break_user_inference() {
        let f = fixture();
        let d = deployment_with(vec![session(DataSource::Ris, f.t1a, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "30.0.1.1/32".parse().unwrap(),
                communities: bh_communities(f.p2),
                scope: AnnounceScope::Neighbors(vec![f.p2]),
                irr_registered: true,
                prepend: 3,
            },
        );
        let elems = sim.drain_elems();
        let announce = elems.iter().find(|e| e.is_announce()).unwrap();
        assert!(announce.as_path.has_prepending());
        assert_eq!(announce.as_path.hop_before(f.p2), Some(f.user));
    }

    #[test]
    fn reannouncement_without_community_updates_state() {
        // The implicit-withdrawal signal: re-announce without the tag.
        let f = fixture();
        let d = deployment_with(vec![session(DataSource::Ris, f.p2, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        let prefix: Ipv4Prefix = "30.0.1.1/32".parse().unwrap();
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix,
                communities: bh_communities(f.p2),
                scope: AnnounceScope::Neighbors(vec![f.p2]),
                irr_registered: true,
                prepend: 1,
            },
        );
        assert!(sim.is_blackholed_at(f.p2, &prefix));
        sim.announce(
            SimTime::from_unix(160),
            &Announcement {
                origin: f.user,
                prefix,
                communities: CommunitySet::new(),
                scope: AnnounceScope::Neighbors(vec![f.p2]),
                irr_registered: true,
                prepend: 1,
            },
        );
        assert!(!sim.is_blackholed_at(f.p2, &prefix));
        let elems = sim.drain_elems();
        // Two announcements at the direct feed: tagged then untagged.
        let announces: Vec<_> =
            elems.iter().filter(|e| e.is_announce() && e.peer_asn == f.p2).collect();
        assert_eq!(announces.len(), 2);
        assert!(!announces[0].communities.is_empty());
        assert!(announces[1].communities.is_empty());
    }

    #[test]
    fn route_server_redistributes_and_pch_attributes_members() {
        use bh_topology::{TopologyBuilder, TopologyConfig};
        // Generated topology: find an IXP with blackholing and ≥2 members.
        let t = TopologyBuilder::new(TopologyConfig::tiny(21)).build();
        let ixp = t
            .ixps()
            .iter()
            .find(|ixp| {
                ixp.members.len() >= 2
                    && t.as_info(ixp.route_server_asn)
                        .is_some_and(|i| i.blackhole_offering.is_some())
            })
            .expect("blackholing IXP exists")
            .clone();
        let member = *ixp
            .members
            .iter()
            .find(|m| !t.as_info(**m).unwrap().prefixes.is_empty())
            .expect("member with address space");
        let victim = t.as_info(member).unwrap().prefixes[0];
        let host = victim.nth_addr(7).map(Ipv4Prefix::host).unwrap();

        let d = crate::collector::deploy(
            &t,
            &CollectorConfig { pch_ixp_coverage: 1.0, ..CollectorConfig::tiny(5) },
        );
        let mut sim = BgpSimulator::new(&t, d, 9);
        let trigger = t
            .as_info(ixp.route_server_asn)
            .unwrap()
            .blackhole_offering
            .as_ref()
            .unwrap()
            .primary_community();
        let outcome = sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: member,
                prefix: host,
                communities: CommunitySet::from_classic(vec![trigger]),
                scope: AnnounceScope::Neighbors(vec![ixp.route_server_asn]),
                irr_registered: true,
                prepend: 1,
            },
        );
        assert!(outcome.accepted_by.contains(&ixp.route_server_asn));
        let elems = sim.drain_elems();
        let pch: Vec<_> =
            elems.iter().filter(|e| e.dataset == DataSource::Pch && e.prefix == host).collect();
        assert!(!pch.is_empty(), "PCH route-server view sees the blackhole");
        for e in &pch {
            assert_eq!(e.peer_asn, member, "attributed to the announcing member");
            match e.peer_ip {
                IpAddr::V4(ip) => assert!(ixp.peering_lan.contains_addr(ip)),
                IpAddr::V6(_) => panic!("LAN addresses are IPv4"),
            }
            assert!(e.communities.contains(trigger));
            // Blackhole next-hop set by the route server.
            assert!(e.next_hop.is_some());
        }
    }

    #[test]
    fn route_server_rejects_unregistered_member_routes() {
        use bh_topology::{TopologyBuilder, TopologyConfig};
        let t = TopologyBuilder::new(TopologyConfig::tiny(21)).build();
        let ixp = t
            .ixps()
            .iter()
            .find(|ixp| {
                ixp.members.len() >= 2
                    && t.as_info(ixp.route_server_asn)
                        .is_some_and(|i| i.blackhole_offering.is_some())
            })
            .expect("blackholing IXP exists")
            .clone();
        let member =
            *ixp.members.iter().find(|m| !t.as_info(**m).unwrap().prefixes.is_empty()).unwrap();
        let victim = t.as_info(member).unwrap().prefixes[0];
        let host = victim.nth_addr(7).map(Ipv4Prefix::host).unwrap();
        let d = crate::collector::deploy(
            &t,
            &CollectorConfig { pch_ixp_coverage: 1.0, ..CollectorConfig::tiny(5) },
        );
        let mut sim = BgpSimulator::new(&t, d, 9);
        let trigger = t
            .as_info(ixp.route_server_asn)
            .unwrap()
            .blackhole_offering
            .as_ref()
            .unwrap()
            .primary_community();
        let outcome = sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: member,
                prefix: host,
                communities: CommunitySet::from_classic(vec![trigger]),
                scope: AnnounceScope::Neighbors(vec![ixp.route_server_asn]),
                irr_registered: false, // misconfigured user
                prepend: 1,
            },
        );
        assert!(outcome.accepted_by.is_empty());
        assert!(outcome
            .rejected_by
            .iter()
            .any(|(asn, r)| *asn == ixp.route_server_asn && *r == RejectReason::AuthFailed));
        assert!(sim.drain_elems().iter().all(|e| e.prefix != host));
    }

    // ---- policy extensions ----------------------------------------------

    #[test]
    fn run_stats_count_per_reason_rejections() {
        let f = fixture();
        let mut sim = BgpSimulator::new(&f.topology, deployment_with(vec![]), 1);
        pin_behaviors(&mut sim, &f);

        // USER requests blackholing of peerAS's space: AuthFailed at
        // P1, but the route is still imported as a plain route, so it
        // lands in trigger_rejects, not import_rejects.
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "54.0.1.0/25".parse().unwrap(),
                communities: bh_communities(f.p1),
                scope: AnnounceScope::Neighbors(vec![f.p1]),
                irr_registered: true,
                prepend: 1,
            },
        );
        assert_eq!(
            sim.run_stats().trigger_rejects.get(&RejectReason::AuthFailed),
            Some(&1),
            "inert trigger counted as trigger rejection"
        );

        // An untagged host route bundled everywhere: peers reject it
        // TooSpecific (pin_behaviors: nobody accepts /32s from peers).
        sim.announce(
            SimTime::from_unix(200),
            &Announcement::simple(f.user, "30.0.2.1/32".parse().unwrap(), CommunitySet::new()),
        );
        assert!(
            sim.run_stats().import_rejects_for(RejectReason::TooSpecific) > 0,
            "peer sessions reject untagged host routes"
        );

        // Flooding a regular prefix exercises loop prevention.
        sim.announce(
            SimTime::from_unix(300),
            &Announcement::simple(f.user, "30.0.0.0/16".parse().unwrap(), CommunitySet::new()),
        );
        assert!(sim.run_stats().import_rejects_for(RejectReason::LoopDetected) > 0);

        let total = sim.run_stats().total_import_rejects();
        assert!(total > 0);
        sim.reset_run_stats();
        assert_eq!(sim.run_stats().total_import_rejects(), 0);
    }

    #[test]
    fn rov_with_strict_roas_filters_blackhole_host_routes() {
        use bh_topology::{PolicyTable, RoaTable};

        let f = fixture();
        let host: Ipv4Prefix = "30.0.1.1/32".parse().unwrap();
        let request = Announcement {
            origin: f.user,
            prefix: host,
            communities: bh_communities(f.p1),
            scope: AnnounceScope::Neighbors(vec![f.p1]),
            irr_registered: true,
            prepend: 1,
        };

        // Without policies the provider accepts the blackhole.
        let mut sim = BgpSimulator::new(&f.topology, deployment_with(vec![]), 1);
        pin_behaviors(&mut sim, &f);
        assert_eq!(sim.announce(SimTime::from_unix(100), &request).accepted_by, vec![f.p1]);

        // Strict ROAs (max_length = allocation length) + ROV at the
        // provider: the /32 is RPKI-Invalid and never reaches trigger
        // evaluation.
        let mut table = PolicyTable::new();
        table.set_roas(RoaTable::strict_from_topology(&f.topology));
        table.entry(f.p1).rov = true;
        let mut sim = BgpSimulator::new(&f.topology, deployment_with(vec![]), 1);
        pin_behaviors(&mut sim, &f);
        assert!(sim.install_policies(&table));
        let outcome = sim.announce(SimTime::from_unix(100), &request);
        assert!(outcome.accepted_by.is_empty(), "ROV rejects the RPKI-Invalid host route");
        assert!(!sim.is_blackholed_at(f.p1, &host));
        assert_eq!(sim.run_stats().import_rejects_for(RejectReason::RovInvalid), 1);
        assert_eq!(sim.run_stats().extension_rejects.get("rov"), Some(&1));
    }

    #[test]
    fn empty_table_installs_nothing() {
        let f = fixture();
        let mut sim = BgpSimulator::new(&f.topology, deployment_with(vec![]), 1);
        assert!(!sim.install_policies(&bh_topology::PolicyTable::new()));
    }

    #[test]
    fn leaker_forces_export_and_otc_contains_it() {
        use bh_topology::PolicyTable;

        let t1b = Asn::new(11);
        let f = fixture();
        let prefix: Ipv4Prefix = "30.0.0.0/16".parse().unwrap();

        // peer_as learns user's prefix over their peering; valley-free
        // forbids re-exporting a peer route to its provider T1b.
        let mut table = PolicyTable::new();
        table.entry(f.peer_as).leaker = true;
        let mut sim = BgpSimulator::new(&f.topology, deployment_with(vec![]), 1);
        pin_behaviors(&mut sim, &f);
        sim.install_policies(&table);
        sim.announce(
            SimTime::from_unix(100),
            &Announcement::simple(f.user, prefix, CommunitySet::new()),
        );
        assert!(sim.run_stats().exports_forced > 0, "leaker forces the peer route upward");

        // With OTC at both ends, peer_as marks the peer-learned route
        // and T1b drops the marked route from its customer: the leak is
        // contained and accounted.
        let mut table = PolicyTable::new();
        table.entry(f.peer_as).leaker = true;
        table.entry(f.peer_as).only_to_customers = true;
        table.entry(t1b).only_to_customers = true;
        let mut sim = BgpSimulator::new(&f.topology, deployment_with(vec![]), 1);
        pin_behaviors(&mut sim, &f);
        sim.install_policies(&table);
        sim.announce(
            SimTime::from_unix(100),
            &Announcement::simple(f.user, prefix, CommunitySet::new()),
        );
        assert!(sim.run_stats().import_rejects_for(RejectReason::RouteLeak) > 0);
        assert_eq!(
            sim.run_stats().extension_rejects.get("only-to-customers"),
            Some(&sim.run_stats().import_rejects_for(RejectReason::RouteLeak))
        );
    }

    #[test]
    fn scrub_strips_bundled_trigger_on_export() {
        use bh_topology::{CommunityScrub, PolicyTable};

        let f = fixture();
        let host: Ipv4Prefix = "30.0.1.1/32".parse().unwrap();
        let mut communities = bh_communities(f.p1);
        communities.merge(&bh_communities(f.p2));
        let request = Announcement {
            origin: f.user,
            prefix: host,
            communities,
            scope: AnnounceScope::Neighbors(vec![f.p2]),
            irr_registered: true,
            prepend: 1,
        };
        let p1_trigger = Community::from_parts(f.p1.value() as u16, 666);

        // Baseline: P2 strips only its own trigger, so T1a still sees
        // P1's bundled community on the propagated route.
        let d = deployment_with(vec![session(DataSource::Ris, f.t1a, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        sim.announce(SimTime::from_unix(100), &request);
        let elems = sim.drain_elems();
        assert!(elems.iter().any(|e| e.communities.contains(p1_trigger)));

        // A community-scrub extension at P2 also removes P1's trigger:
        // the bundled signal is laundered before it reaches T1a.
        let mut table = PolicyTable::new();
        table.entry(f.p2).scrub =
            Some(CommunityScrub { strip_all: false, strip: vec![p1_trigger], rewrite: vec![] });
        let d = deployment_with(vec![session(DataSource::Ris, f.t1a, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        sim.install_policies(&table);
        sim.announce(SimTime::from_unix(100), &request);
        let elems = sim.drain_elems();
        assert!(!elems.is_empty());
        assert!(elems.iter().all(|e| !e.communities.contains(p1_trigger)));
    }
}
