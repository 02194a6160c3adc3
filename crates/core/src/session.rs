//! Streaming inference sessions — §4.2 of the paper as an *online*
//! algorithm.
//!
//! The methodology, faithfully:
//!
//! * dictionary-driven tagging of announcements,
//! * disambiguation of shared communities via the AS path,
//! * IXP detection via route-server ASN on the path *or* peer-ip inside a
//!   PeeringDB peering LAN,
//! * blackholing-user inference (the AS-hop before the provider, after
//!   prepending removal; the peer-as for route-server views; the origin
//!   for bundled detections),
//! * per-(prefix, peer) state with explicit *and* implicit withdrawals,
//! * cross-peer correlation into prefix-level events,
//! * initialization from a RIB dump with "starting time zero",
//! * a community/prefix-length census feeding the extended-dictionary
//!   inference (Fig. 2).
//!
//! The API shape: a [`SessionBuilder`] assembles an owned
//! [`InferenceSession`] (dictionary and reference data behind [`Arc`], so
//! sessions are `Send` and outlive no borrow). Elements arrive one at a
//! time via [`InferenceSession::push`] — or from any
//! [`ElemSource`] via [`InferenceSession::ingest`], including a
//! [`MergedSource`](bh_routing::MergedSource) merging a whole
//! multi-collector archive set — and finished events can be handed to
//! consumers mid-stream with [`InferenceSession::drain_closed`].
//! [`InferenceSession::checkpoint`] snapshots the mutable state so a
//! long-running scan can be suspended and resumed
//! ([`SessionBuilder::resume`]) — including mid-merge, since the merged
//! stream is just another source.

use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;
use std::sync::Arc;

use bh_bgp_types::asn::Asn;
use bh_bgp_types::bogon::BogonFilter;
use bh_bgp_types::community::Community;
use bh_bgp_types::hash::{FxHashMap, FxHashSet};
use bh_bgp_types::intern::{CommunitySetId, CommunitySetTable, PathId, PathTable};
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_irr::{BlackholeDictionary, CommunityPrefixCensus, NegativeControls};
use bh_routing::{BgpElem, DataSource, ElemSource, ElemType, PeerKey};

use crate::accumulate::{EventAccumulator, EventCollector};
use crate::events::{BlackholeEvent, DetectionDistance, ProviderId};
use crate::refdata::ReferenceData;

/// One provider detection extracted from a single announcement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// The inferred provider.
    pub provider: ProviderId,
    /// The inferred blackholing user.
    pub user: Option<Asn>,
    /// Collector-to-provider distance (Fig. 7(c)).
    pub distance: DetectionDistance,
    /// The triggering community.
    pub community: Community,
}

/// Counters for session behavior (useful for pipeline benchmarking and
/// methodology diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Elements processed.
    pub elems: u64,
    /// Announcements carrying at least one dictionary community.
    pub tagged_announcements: u64,
    /// Announcements dropped by data cleaning (bogons).
    pub cleaned: u64,
    /// Detections discarded because an ambiguous community had no
    /// candidate provider on the AS path.
    pub ambiguous_unresolved: u64,
    /// Implicit withdrawals observed (re-announcement without tags).
    pub implicit_withdrawals: u64,
    /// Explicit withdrawals that ended a peer observation.
    pub explicit_withdrawals: u64,
    /// Detections that relied on community bundling (no provider on path).
    pub bundled_detections: u64,
    /// Announcements whose every dictionary-matched community was a
    /// negative control (classified location/informational) — the
    /// candidate event was suppressed instead of opened.
    pub control_suppressed: u64,
}

/// Per-dataset visibility accumulators (Table 3 inputs).
///
/// Hash-backed sets: one membership insert runs per *tagged
/// announcement* (the prefix set grows to every blackholed prefix of
/// the stream), and every consumer is order-insensitive — Table 3 only
/// counts, differences, and unions them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatasetVisibility {
    /// Providers observed via this platform.
    pub providers: FxHashSet<ProviderId>,
    /// Users observed via this platform.
    pub users: FxHashSet<Asn>,
    /// Prefixes observed via this platform.
    pub prefixes: FxHashSet<Ipv4Prefix>,
}

impl DatasetVisibility {
    /// Union another accumulator into this one (the
    /// [`VisibilityAccumulator`](crate::VisibilityAccumulator) fold).
    pub fn merge(&mut self, other: &DatasetVisibility) {
        self.providers.extend(other.providers.iter().copied());
        self.users.extend(other.users.iter().copied());
        self.prefixes.extend(other.prefixes.iter().copied());
    }
}

#[derive(Debug, Clone, Default)]
struct OpenEvent {
    providers: BTreeSet<ProviderId>,
    users: BTreeSet<Asn>,
    start: SimTime,
    open_peers: BTreeSet<PeerKey>,
    all_peers: BTreeSet<PeerKey>,
    datasets: BTreeSet<DataSource>,
    distances: BTreeSet<DetectionDistance>,
    bundled: bool,
}

/// Configuration toggles — the ablation switches called out in DESIGN.md.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Detect via community bundling when the provider is absent from the
    /// path (§4.2; disabling this is the Fig. 7(c) ablation — the paper
    /// credits bundling with ~half of all inferences).
    pub bundling_detection: bool,
    /// Track state per (prefix, peer) and correlate (the paper's method).
    /// Disabled, state collapses to per-prefix only — the Fig. 8
    /// ablation showing why per-peer tracking matters.
    pub per_peer_state: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { bundling_detection: true, per_peer_state: true }
    }
}

/// Detection distance per the paper's 1-indexed convention, saturating
/// rather than wrapping on pathological (>254-hop) paths.
fn detection_hops(distance_from_peer: usize) -> DetectionDistance {
    DetectionDistance::Hops(u8::try_from(distance_from_peer.saturating_add(1)).unwrap_or(u8::MAX))
}

/// Builds [`InferenceSession`]s.
///
/// The dictionary and reference data travel behind [`Arc`]: one snapshot
/// is shared by every session built from it, with no lifetime tie
/// between the session and its inputs.
#[derive(Clone)]
pub struct SessionBuilder {
    pub(crate) dict: Arc<BlackholeDictionary>,
    pub(crate) refdata: Arc<ReferenceData>,
    pub(crate) config: EngineConfig,
    pub(crate) controls: Option<Arc<NegativeControls>>,
}

impl SessionBuilder {
    /// Start from a dictionary and reference-data snapshot.
    pub fn new(dict: Arc<BlackholeDictionary>, refdata: Arc<ReferenceData>) -> Self {
        SessionBuilder { dict, refdata, config: EngineConfig::default(), controls: None }
    }

    /// Install a negative-control set: classic communities the classifier
    /// deemed location/informational are dropped from detection plans, so
    /// an announcement whose *only* dictionary-matched communities are
    /// controls opens no candidate event (counted in
    /// [`EngineStats::control_suppressed`]). Like the dictionary, controls
    /// travel on the builder — they are not part of a checkpoint. The
    /// default (no controls) leaves the session byte-identical to the
    /// pre-classifier behavior.
    pub fn negative_controls(mut self, controls: Arc<NegativeControls>) -> Self {
        self.controls = Some(controls);
        self
    }

    /// Replace the whole configuration (ablations).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Toggle bundling detection (Fig. 7(c) ablation).
    pub fn bundling_detection(mut self, on: bool) -> Self {
        self.config.bundling_detection = on;
        self
    }

    /// Toggle per-(prefix, peer) state tracking (Fig. 8 ablation).
    pub fn per_peer_state(mut self, on: bool) -> Self {
        self.config.per_peer_state = on;
        self
    }

    /// Build a fresh session.
    pub fn build(self) -> InferenceSession {
        InferenceSession {
            dict: self.dict,
            refdata: self.refdata,
            config: self.config,
            controls: self.controls,
            bogons: BogonFilter::new(),
            state: SessionState::default(),
        }
    }

    /// Build a session that resumes from a [`SessionCheckpoint`].
    ///
    /// The checkpoint's configuration wins over the builder's: the
    /// resumed session continues the stream under exactly the semantics
    /// the snapshotted state was built with (mixing per-peer modes
    /// mid-stream would strand open events).
    pub fn resume(self, checkpoint: SessionCheckpoint) -> InferenceSession {
        let mut session = self.config(checkpoint.config).build();
        session.state = checkpoint.state;
        session
    }
}

/// The mutable inference state — everything a checkpoint must capture.
#[derive(Debug, Clone, Default)]
struct SessionState {
    census: CommunityPrefixCensus,
    open: FxHashMap<Ipv4Prefix, OpenEvent>,
    closed: Vec<BlackholeEvent>,
    per_dataset: BTreeMap<DataSource, DatasetVisibility>,
    stats: EngineStats,
    // Intern tables: every distinct AS path / community set observed
    // collapses to one Arc-shared canonical handle, so the per-path
    // deprepend and content-hash memos are computed once per *distinct*
    // value rather than once per announcement.
    paths: PathTable,
    community_sets: CommunitySetTable,
    // Per-interned-set detection plan, indexed by `CommunitySetId`: the
    // set's communities (classic, plus the large-community display
    // forms) that have dictionary candidates. Dictionary probes run once
    // per *distinct* set; the overwhelmingly common untagged set gets an
    // empty plan and `detect` returns without touching the path.
    plans: Vec<DetectionPlan>,
    // Parallel to `plans`: true when the set *would* have had dictionary
    // candidates but every one was dropped by the negative controls —
    // announcements hitting such a set are counted as suppressed.
    plan_suppressed: Vec<bool>,
    // Census tallies deferred per (set, length-bucket): one counter
    // bump per announcement here, replayed in bulk into the BTree-backed
    // census whenever it is actually read. Replay is commutative, so
    // flush order cannot perturb the result.
    census_pending: FxHashMap<(CommunitySetId, u8), u64>,
    // Memoized §4.2 detection outcomes. Detection is a pure function of
    // (community set, AS path, peer) under the session's fixed
    // dictionary and reference data, and real streams repeat the same
    // combination constantly (every prefix of an update shares one
    // attribute block; peers re-announce). The key is two interned ids
    // plus the peer identity; the outcome carries the detections *and*
    // the counter deltas so stats stay per-announcement exact on hits.
    detections: FxHashMap<DetectionKey, Arc<DetectionOutcome>>,
}

/// Memo key for one (community set, AS path, peer) combination.
type DetectionKey = (CommunitySetId, PathId, IpAddr, Asn);

/// A memoized detection result: what `detect` found for one key, plus
/// the per-call stats increments to replay on every cache hit.
#[derive(Debug, Clone, Default)]
struct DetectionOutcome {
    detections: Vec<Detection>,
    ambiguous: u64,
    bundled: u64,
}

/// The dictionary candidates for one interned community set: every
/// community of the set (large ones via their display form) whose
/// candidate-provider list is non-empty. Shared behind `Arc` so `detect`
/// can hold the plan while mutating session state.
type DetectionPlan = Arc<[(Community, Box<[Asn]>)]>;

/// Build the detection plan for a community set (once per distinct set).
/// Returns the plan plus whether any classic candidate was dropped by the
/// negative controls. RFC 8092 large-community triggers are always
/// provider-documented and never filtered.
fn build_plan(
    dict: &BlackholeDictionary,
    set: &bh_bgp_types::community::CommunitySet,
    controls: Option<&NegativeControls>,
) -> (DetectionPlan, bool) {
    let mut entries = Vec::new();
    let mut filtered = false;
    for community in set.iter() {
        let candidates = dict.providers_for(community);
        if candidates.is_empty() {
            continue;
        }
        if controls.is_some_and(|ctl| ctl.contains(community)) {
            filtered = true;
            continue;
        }
        entries.push((community, candidates.into_boxed_slice()));
    }
    for large in set.iter_large() {
        let candidates = dict.providers_for_large(large);
        if !candidates.is_empty() {
            // Attribute large-community detections to a synthetic classic
            // community for uniform bookkeeping (high half of the global
            // admin, value 666 — purely presentational).
            let display = Community::from_parts((large.global_admin & 0xFFFF) as u16, 666);
            entries.push((display, candidates.into_boxed_slice()));
        }
    }
    let suppressed = filtered && entries.is_empty();
    (entries.into(), suppressed)
}

impl SessionState {
    /// Replay the deferred (set, length) census tallies into the
    /// BTree-backed census. Replay is commutative, so the drain order of
    /// the pending map cannot perturb the result.
    fn flush_census(&mut self) {
        for ((set_id, length), count) in self.census_pending.drain() {
            let communities: Vec<Community> = self.community_sets.resolve(set_id).iter().collect();
            self.census.record_repeated(&communities, length, count);
        }
    }
}

/// An opaque snapshot of a session's mutable state.
///
/// Produced by [`InferenceSession::checkpoint`]; a new session picks it
/// up via [`SessionBuilder::resume`] and continues the stream exactly
/// where the original left off — including the original's
/// configuration, which travels with the snapshot. Closed events not
/// yet handed out by [`InferenceSession::drain_closed`] travel with the
/// checkpoint too.
#[derive(Debug, Clone)]
pub struct SessionCheckpoint {
    state: SessionState,
    config: EngineConfig,
}

impl SessionCheckpoint {
    /// Events still open (active) at snapshot time.
    pub fn open_events(&self) -> usize {
        self.state.open.len()
    }

    /// Closed events captured in the snapshot (not yet drained).
    pub fn pending_closed(&self) -> usize {
        self.state.closed.len()
    }
}

/// The streaming inference session — the owned replacement for the old
/// borrowed `InferenceEngine<'a>`.
pub struct InferenceSession {
    dict: Arc<BlackholeDictionary>,
    refdata: Arc<ReferenceData>,
    config: EngineConfig,
    controls: Option<Arc<NegativeControls>>,
    bogons: BogonFilter,
    state: SessionState,
}

impl InferenceSession {
    /// Shorthand for `SessionBuilder::new(dict, refdata).build()`.
    pub fn new(dict: Arc<BlackholeDictionary>, refdata: Arc<ReferenceData>) -> Self {
        SessionBuilder::new(dict, refdata).build()
    }

    /// Session statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.state.stats
    }

    /// The community/prefix-length census (Fig. 2, extended dictionary).
    ///
    /// Takes `&mut self`: per-announcement tallies are deferred into a
    /// (set, length) counter and replayed into the census on read.
    pub fn census(&mut self) -> &CommunityPrefixCensus {
        self.state.flush_census();
        &self.state.census
    }

    /// Per-dataset visibility accumulators.
    pub fn dataset_visibility(&self) -> &BTreeMap<DataSource, DatasetVisibility> {
        &self.state.per_dataset
    }

    /// Events currently open (active, not yet ended).
    pub fn open_event_count(&self) -> usize {
        self.state.open.len()
    }

    /// The interned AS paths observed so far (one entry per distinct
    /// path; every repeat shares its allocation).
    pub fn interned_paths(&self) -> &PathTable {
        &self.state.paths
    }

    /// The interned community sets observed so far.
    pub fn interned_community_sets(&self) -> &CommunitySetTable {
        &self.state.community_sets
    }

    /// Initialize from a RIB dump: tagged prefixes present in the table
    /// start with time zero ("we cannot accurately pinpoint the start
    /// time … we use an initial starting time of zero").
    pub fn initialize_from_rib(&mut self, state: &[BgpElem]) {
        for elem in state {
            self.push_rib(elem);
        }
    }

    /// Push one RIB-dump entry (start time zero); the streaming sibling
    /// of [`InferenceSession::initialize_from_rib`].
    pub fn push_rib(&mut self, elem: &BgpElem) {
        if elem.elem_type == ElemType::Announce {
            self.process_announce(elem, SimTime::ZERO);
        }
    }

    /// Process one element in arrival order.
    pub fn push(&mut self, elem: &BgpElem) {
        match elem.elem_type {
            ElemType::Announce => self.process_announce(elem, elem.time),
            ElemType::Withdraw => self.process_withdraw(elem),
        }
    }

    /// Drain every element of a source, in order; returns how many were
    /// processed. Constant memory for streaming sources.
    pub fn ingest<S: ElemSource + ?Sized>(&mut self, source: &mut S) -> u64 {
        let mut n = 0;
        while let Some(elem) = source.next_elem() {
            self.push(elem);
            n += 1;
        }
        n
    }

    /// Hand out the events closed so far and forget them; the mid-stream
    /// consumer API. The union of everything drained plus the events of
    /// the final [`InferenceSession::finish`] equals exactly what one
    /// batch run would have produced.
    pub fn drain_closed(&mut self) -> Vec<BlackholeEvent> {
        std::mem::take(&mut self.state.closed)
    }

    /// Stream the events closed so far into an accumulator and forget
    /// them; returns how many were folded in. The constant-memory
    /// sibling of [`InferenceSession::drain_closed`]: nothing is handed
    /// out, so no event `Vec` ever accumulates.
    pub fn drain_closed_into<A: EventAccumulator>(&mut self, accumulator: &mut A) -> usize {
        let n = self.state.closed.len();
        for event in self.state.closed.drain(..) {
            accumulator.observe_owned(event);
        }
        n
    }

    /// Snapshot the mutable state (and configuration) for later
    /// [`SessionBuilder::resume`].
    pub fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint { state: self.state.clone(), config: self.config }
    }

    /// Finish: close nothing (events still active stay open with
    /// `end: None`) and return every remaining event plus final census
    /// and stats. Thin wrapper over
    /// [`InferenceSession::finish_with`] and an [`EventCollector`].
    pub fn finish(self) -> InferenceResult {
        let mut collector = EventCollector::default();
        let summary = self.finish_with(&mut collector);
        InferenceResult {
            events: collector.finalize(),
            census: summary.census,
            stats: summary.stats,
            per_dataset: summary.per_dataset,
        }
    }

    /// Finish by streaming every remaining event (undrained closed ones
    /// first, then the still-open ones with `end: None`) into an
    /// accumulator, plus the final per-dataset visibility via
    /// [`EventAccumulator::observe_visibility`]. Returns the summary
    /// outputs (census, counters, visibility); the full event `Vec` is
    /// never materialized.
    pub fn finish_with<A: EventAccumulator>(mut self, accumulator: &mut A) -> StreamSummary {
        self.state.flush_census();
        self.drain_closed_into(accumulator);
        let open: Vec<Ipv4Prefix> = self.state.open.keys().copied().collect();
        for prefix in open {
            let oe = self.state.open.remove(&prefix).expect("key exists");
            accumulator.observe_owned(Self::to_event(prefix, oe, None));
        }
        accumulator.observe_visibility(&self.state.per_dataset);
        StreamSummary {
            census: self.state.census,
            stats: self.state.stats,
            per_dataset: self.state.per_dataset,
            paths: self.state.paths,
            community_sets: self.state.community_sets,
        }
    }

    // ---- internals -------------------------------------------------------

    fn to_event(prefix: Ipv4Prefix, oe: OpenEvent, end: Option<SimTime>) -> BlackholeEvent {
        BlackholeEvent {
            prefix,
            providers: oe.providers,
            users: oe.users,
            start: oe.start,
            end,
            peer_count: oe.all_peers.len(),
            datasets: oe.datasets,
            distances: oe.distances,
            bundled_detection: oe.bundled,
        }
    }

    /// The §4.2 detection procedure for one announcement.
    pub fn detect(&mut self, elem: &BgpElem) -> Vec<Detection> {
        let (set_id, plan) = self.plan_for(elem);
        match self.detect_planned(elem, set_id, plan) {
            Some(outcome) => outcome.detections.clone(),
            None => Vec::new(),
        }
    }

    /// The detection plan for this element's community set, built on the
    /// set's first appearance and cached under its interned id.
    fn plan_for(&mut self, elem: &BgpElem) -> (CommunitySetId, DetectionPlan) {
        let set_id = self.state.community_sets.intern(&elem.communities);
        let idx = set_id.0 as usize;
        if idx == self.state.plans.len() {
            let (plan, suppressed) =
                build_plan(&self.dict, &elem.communities, self.controls.as_deref());
            self.state.plans.push(plan);
            self.state.plan_suppressed.push(suppressed);
        }
        (set_id, self.state.plans[idx].clone())
    }

    /// Detection with the element's plan already resolved. Returns the
    /// memoized outcome for this (set, path, peer) key — computing it on
    /// first sight — or `None` when the plan is empty (nothing tagged).
    fn detect_planned(
        &mut self,
        elem: &BgpElem,
        set_id: CommunitySetId,
        plan: DetectionPlan,
    ) -> Option<Arc<DetectionOutcome>> {
        // Intern the path: repeats of the same path (the common case —
        // one announcement per prefix per path) resolve to one canonical
        // Arc, so the deprepend below is memoized across the stream.
        let path_id = self.state.paths.intern(&elem.as_path);
        // The hot exit: no community of this set is in the dictionary,
        // so there is nothing to detect and no path work to do.
        if plan.is_empty() {
            return None;
        }
        let key: DetectionKey = (set_id, path_id, elem.peer_ip, elem.peer_asn);
        if let Some(outcome) = self.state.detections.get(&key) {
            let outcome = Arc::clone(outcome);
            self.state.stats.bundled_detections += outcome.bundled;
            self.state.stats.ambiguous_unresolved += outcome.ambiguous;
            return Some(outcome);
        }

        let mut outcome = DetectionOutcome::default();
        let path = self.state.paths.resolve(path_id).clone().without_prepending();
        let refdata = Arc::clone(&self.refdata);
        let bundling = self.config.bundling_detection;

        let mut consider = |community: Community, candidates: &[Asn]| {
            if candidates.is_empty() {
                return;
            }
            let unambiguous = candidates.len() == 1;
            let mut resolved_any = false;
            for &candidate in candidates {
                if let Some(ixp) = refdata.ixp_of_route_server(candidate) {
                    // IXP provider: route-server ASN on path, or peer-ip
                    // inside the IXP's peering LAN.
                    if path.contains(candidate) {
                        let user = path.hop_before(candidate);
                        let distance = if refdata.ixp_of_peer_ip(elem.peer_ip) == Some(ixp) {
                            DetectionDistance::Hops(0)
                        } else {
                            detection_hops(path.distance_from_peer(candidate).unwrap_or(0))
                        };
                        outcome.detections.push(Detection {
                            provider: ProviderId::Ixp(ixp),
                            user,
                            distance,
                            community,
                        });
                        resolved_any = true;
                    } else if refdata.ixp_of_peer_ip(elem.peer_ip) == Some(ixp) {
                        outcome.detections.push(Detection {
                            provider: ProviderId::Ixp(ixp),
                            user: Some(elem.peer_asn),
                            distance: DetectionDistance::Hops(0),
                            community,
                        });
                        resolved_any = true;
                    }
                } else if path.contains(candidate) {
                    // The hop before the provider — skipping route-server
                    // ASNs, which appear on paths when a provider learned
                    // the route across an IXP (the RS is not the user).
                    let mut rest = path.iter_asns().skip_while(|&a| a != candidate);
                    rest.next(); // the provider hop itself
                    let user = rest
                        .find(|&a| refdata.ixp_of_route_server(a).is_none())
                        .or(Some(candidate));
                    outcome.detections.push(Detection {
                        provider: ProviderId::As(candidate),
                        user,
                        distance: detection_hops(path.distance_from_peer(candidate).unwrap_or(0)),
                        community,
                    });
                    resolved_any = true;
                } else if unambiguous && bundling {
                    // Bundled community: the provider never propagated the
                    // route, but the unambiguous tag identifies it.
                    outcome.detections.push(Detection {
                        provider: ProviderId::As(candidate),
                        user: path.origin(),
                        distance: DetectionDistance::NoPath,
                        community,
                    });
                    outcome.bundled += 1;
                    resolved_any = true;
                }
            }
            if !resolved_any {
                outcome.ambiguous += 1;
            }
        };

        for (community, candidates) in plan.iter() {
            consider(*community, candidates);
        }

        outcome.detections.sort_by_key(|d| d.provider);
        outcome.detections.dedup_by_key(|d| d.provider);
        self.state.stats.bundled_detections += outcome.bundled;
        self.state.stats.ambiguous_unresolved += outcome.ambiguous;
        let outcome = Arc::new(outcome);
        self.state.detections.insert(key, Arc::clone(&outcome));
        Some(outcome)
    }

    fn process_announce(&mut self, elem: &BgpElem, start_time: SimTime) {
        self.state.stats.elems += 1;
        // Data cleaning (§3): bogons and <-/8 never considered.
        if !self.bogons.is_routable(&elem.prefix) {
            self.state.stats.cleaned += 1;
            return;
        }
        // Census of every community on every announcement (Fig. 2
        // input), deferred as one (set, length-bucket) counter bump.
        // Interning the set (O(1) on repeats via the memoized content
        // hash) keys both the tally and the cached detection plan.
        let (set_id, plan) = self.plan_for(elem);
        *self.state.census_pending.entry((set_id, elem.prefix.length())).or_insert(0) += 1;
        if self.state.plan_suppressed[set_id.0 as usize] {
            // Every dictionary match was a negative control: no candidate
            // event. The announcement still falls through to the
            // implicit-withdrawal logic below, exactly like an untagged one.
            self.state.stats.control_suppressed += 1;
        }

        let detections = self.detect_planned(elem, set_id, plan);
        let detections: &[Detection] =
            detections.as_ref().map(|o| o.detections.as_slice()).unwrap_or(&[]);
        let peer = elem.peer_key();

        if detections.is_empty() {
            // Implicit withdrawal: previously blackholed at this peer,
            // now announced without tags (§4.2).
            if let Some(oe) = self.state.open.get_mut(&elem.prefix) {
                if oe.open_peers.remove(&peer) {
                    self.state.stats.implicit_withdrawals += 1;
                    if oe.open_peers.is_empty() {
                        let oe = self.state.open.remove(&elem.prefix).expect("open event exists");
                        self.state.closed.push(Self::to_event(elem.prefix, oe, Some(elem.time)));
                    }
                }
            }
            return;
        }
        self.state.stats.tagged_announcements += 1;

        let oe = self
            .state
            .open
            .entry(elem.prefix)
            .or_insert_with(|| OpenEvent { start: start_time, ..Default::default() });
        if self.config.per_peer_state {
            oe.open_peers.insert(peer);
        } else {
            // Ablation: single logical peer — de-activations seen by any
            // peer close the event.
            oe.open_peers.insert(PeerKey {
                dataset: peer.dataset,
                collector: 0,
                peer_asn: Asn::new(0),
            });
        }
        oe.all_peers.insert(peer);
        oe.datasets.insert(elem.dataset);
        let vis = self.state.per_dataset.entry(elem.dataset).or_default();
        vis.prefixes.insert(elem.prefix);
        for d in detections {
            oe.providers.insert(d.provider);
            oe.distances.insert(d.distance);
            if d.distance == DetectionDistance::NoPath {
                oe.bundled = true;
            }
            if let Some(user) = d.user {
                oe.users.insert(user);
                vis.users.insert(user);
            }
            vis.providers.insert(d.provider);
        }
    }

    fn process_withdraw(&mut self, elem: &BgpElem) {
        self.state.stats.elems += 1;
        let peer = if self.config.per_peer_state {
            elem.peer_key()
        } else {
            PeerKey { dataset: elem.dataset, collector: 0, peer_asn: Asn::new(0) }
        };
        if let Some(oe) = self.state.open.get_mut(&elem.prefix) {
            if oe.open_peers.remove(&peer) {
                self.state.stats.explicit_withdrawals += 1;
                if oe.open_peers.is_empty() {
                    let oe = self.state.open.remove(&elem.prefix).expect("open event exists");
                    self.state.closed.push(Self::to_event(elem.prefix, oe, Some(elem.time)));
                }
            }
        }
    }
}

/// The non-event outputs of a session: what
/// [`InferenceSession::finish_with`] returns when the events themselves
/// streamed into an accumulator instead of materializing.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// The community/prefix-length census.
    pub census: CommunityPrefixCensus,
    /// Session counters.
    pub stats: EngineStats,
    /// Per-dataset visibility (Table 3 inputs).
    pub per_dataset: BTreeMap<DataSource, DatasetVisibility>,
    /// Every distinct AS path the session observed, interned. Compares
    /// as a *set* (id assignment order is an artifact of arrival order).
    pub paths: PathTable,
    /// Every distinct community set the session observed, interned.
    pub community_sets: CommunitySetTable,
}

/// Everything a session produced.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceResult {
    /// All inferred events (closed ones have `end: Some(_)`).
    pub events: Vec<BlackholeEvent>,
    /// The community/prefix-length census.
    pub census: CommunityPrefixCensus,
    /// Session counters.
    pub stats: EngineStats,
    /// Per-dataset visibility (Table 3 inputs).
    pub per_dataset: BTreeMap<DataSource, DatasetVisibility>,
}

#[cfg(test)]
mod tests {
    use bh_bgp_types::as_path::AsPath;
    use bh_bgp_types::community::CommunitySet;
    use bh_routing::{deploy, CollectorConfig, SliceSource};
    use bh_topology::{TopologyBuilder, TopologyConfig};

    use super::*;

    struct Setup {
        dict: Arc<BlackholeDictionary>,
        refdata: Arc<ReferenceData>,
        provider: Asn,
        community: Community,
    }

    fn setup() -> Setup {
        let t = TopologyBuilder::new(TopologyConfig::tiny(31)).build();
        let d = deploy(&t, &CollectorConfig::tiny(4));
        let refdata = Arc::new(ReferenceData::build(&t, &d));
        let mut dict = BlackholeDictionary::default();
        let provider = Asn::new(64_777); // not in the topology: pure unit test
        let community = Community::from_parts(777, 666);
        dict.insert_validated(provider, community);
        Setup { dict: Arc::new(dict), refdata, provider, community }
    }

    impl Setup {
        fn session(&self) -> InferenceSession {
            InferenceSession::new(self.dict.clone(), self.refdata.clone())
        }

        fn builder(&self) -> SessionBuilder {
            SessionBuilder::new(self.dict.clone(), self.refdata.clone())
        }
    }

    fn announce(
        prefix: &str,
        time: u64,
        path: &str,
        communities: Vec<Community>,
        peer: u32,
    ) -> BgpElem {
        BgpElem {
            time: SimTime::from_unix(time),
            dataset: DataSource::Ris,
            collector: 0,
            peer_asn: Asn::new(peer),
            peer_ip: "198.51.100.7".parse().unwrap(),
            elem_type: ElemType::Announce,
            prefix: prefix.parse().unwrap(),
            as_path: path.parse().unwrap(),
            communities: CommunitySet::from_classic(communities),
            next_hop: None,
        }
    }

    fn withdraw(prefix: &str, time: u64, peer: u32) -> BgpElem {
        BgpElem {
            time: SimTime::from_unix(time),
            dataset: DataSource::Ris,
            collector: 0,
            peer_asn: Asn::new(peer),
            peer_ip: "198.51.100.7".parse().unwrap(),
            elem_type: ElemType::Withdraw,
            prefix: prefix.parse().unwrap(),
            as_path: AsPath::empty(),
            communities: CommunitySet::new(),
            next_hop: None,
        }
    }

    #[test]
    fn negative_controls_suppress_control_only_announcements() {
        let s = setup();
        // A stolen tag that a naive dictionary mislabeled as a trigger.
        let tag = Community::from_parts(888, 100);
        let mut dict = (*s.dict).clone();
        dict.insert_validated(Asn::new(64_888), tag);
        let dict = Arc::new(dict);
        let mut controls = NegativeControls::default();
        controls.insert(tag);
        let controls = Arc::new(controls);

        let tag_only = announce("130.149.1.66/32", 10, "100 64888 200", vec![tag], 100);
        let genuine = announce("130.149.2.66/32", 11, "100 64777 200", vec![s.community], 100);
        let both = announce("130.149.3.66/32", 12, "100 64777 200", vec![s.community, tag], 100);

        // Without controls the stolen tag opens a (false) event.
        let mut naive = SessionBuilder::new(dict.clone(), s.refdata.clone()).build();
        naive.push(&tag_only);
        assert_eq!(naive.open_event_count(), 1);
        assert_eq!(naive.stats().control_suppressed, 0);

        // With controls it is suppressed; genuine triggers still detect,
        // even when the control rides along on the same announcement.
        let mut session =
            SessionBuilder::new(dict, s.refdata.clone()).negative_controls(controls).build();
        session.push(&tag_only);
        session.push(&genuine);
        session.push(&both);
        assert_eq!(session.open_event_count(), 2);
        let stats = session.stats();
        assert_eq!(stats.control_suppressed, 1);
        assert_eq!(stats.tagged_announcements, 2);
        let result = session.finish();
        assert!(result.events.iter().all(|e| e.providers.contains(&ProviderId::As(s.provider))));
    }

    #[test]
    fn absent_controls_and_empty_controls_are_identical() {
        let s = setup();
        let stream = vec![
            announce("130.149.1.66/32", 10, "100 64777 200", vec![s.community], 100),
            announce("130.149.1.66/32", 50, "100 64777 200", vec![], 100),
            announce("130.149.2.66/32", 60, "100 300 200", vec![s.community], 100),
            withdraw("130.149.2.66/32", 90, 100),
        ];
        let run = |builder: SessionBuilder| {
            let mut session = builder.build();
            for elem in &stream {
                session.push(elem);
            }
            session.finish()
        };
        let without = run(s.builder());
        let with_empty = run(s.builder().negative_controls(Arc::new(NegativeControls::default())));
        assert_eq!(without.events, with_empty.events);
        assert_eq!(without.stats, with_empty.stats);
        assert_eq!(without.census, with_empty.census);
        assert_eq!(with_empty.stats.control_suppressed, 0);
    }

    #[test]
    fn session_interns_paths_and_community_sets() {
        let s = setup();
        let mut session = s.session();
        // Three announcements, two distinct paths / community sets: the
        // intern tables dedup, and the summary carries them out.
        let a1 = announce("130.149.1.66/32", 10, "100 64777 200", vec![s.community], 100);
        let a2 = announce("130.149.1.67/32", 11, "100 64777 200", vec![s.community], 100);
        let a3 = announce("130.149.1.68/32", 12, "300 64777 200", vec![], 100);
        session.push(&a1);
        session.push(&a2);
        session.push(&a3);
        assert_eq!(session.interned_paths().len(), 2);
        assert_eq!(session.interned_community_sets().len(), 2);
        let canonical = session.interned_paths().canonical(&a1.as_path).unwrap().clone();
        assert_eq!(canonical, a2.as_path, "equal paths share one canonical entry");

        let summary = session.finish_with(&mut EventCollector::default());
        assert_eq!(summary.paths.len(), 2);
        assert_eq!(summary.community_sets.len(), 2);
    }

    #[test]
    fn basic_event_lifecycle() {
        let s = setup();
        let mut session = s.session();
        session.push(&announce("9.9.9.9/32", 100, "100 64777 64999", vec![s.community], 100));
        session.push(&withdraw("9.9.9.9/32", 160, 100));
        let result = session.finish();
        assert_eq!(result.events.len(), 1);
        let e = &result.events[0];
        assert_eq!(e.prefix, "9.9.9.9/32".parse().unwrap());
        assert_eq!(e.start, SimTime::from_unix(100));
        assert_eq!(e.end, Some(SimTime::from_unix(160)));
        assert_eq!(e.providers, BTreeSet::from([ProviderId::As(s.provider)]));
        assert_eq!(e.users, BTreeSet::from([Asn::new(64_999)]));
        assert!(!e.bundled_detection);
        assert_eq!(result.stats.explicit_withdrawals, 1);
    }

    #[test]
    fn user_is_hop_before_provider_after_deprepending() {
        let s = setup();
        let mut session = s.session();
        session.push(&announce(
            "9.9.9.9/32",
            100,
            "100 64777 64777 64999 64999 64999",
            vec![s.community],
            100,
        ));
        let result = session.finish();
        assert_eq!(result.events[0].users, BTreeSet::from([Asn::new(64_999)]));
        // Distance counts deprepended hops: peer(100)=pos0, provider pos1
        // → distance 2 per the paper's 1-indexed convention.
        assert!(result.events[0].distances.contains(&DetectionDistance::Hops(2)));
    }

    #[test]
    fn pathological_path_distance_saturates_instead_of_wrapping() {
        // A >254-hop path must clamp the detection distance at u8::MAX,
        // not wrap around (regression: the old `as u8` cast wrapped).
        let s = setup();
        let mut session = s.session();
        let mut hops: Vec<String> = (1..=300u32).map(|k| (1000 + k).to_string()).collect();
        hops.push(s.provider.value().to_string());
        hops.push("64999".to_string());
        session.push(&announce("9.9.9.9/32", 100, &hops.join(" "), vec![s.community], 1001));
        let result = session.finish();
        assert_eq!(result.events.len(), 1);
        assert_eq!(
            result.events[0].distances,
            BTreeSet::from([DetectionDistance::Hops(u8::MAX)]),
            "301-hop distance must saturate at 255"
        );
    }

    #[test]
    fn bundled_detection_when_provider_absent() {
        let s = setup();
        let mut session = s.session();
        session.push(&announce("9.9.9.9/32", 100, "100 200 64999", vec![s.community], 100));
        let result = session.finish();
        assert_eq!(result.events.len(), 1);
        let e = &result.events[0];
        assert!(e.bundled_detection);
        assert!(e.distances.contains(&DetectionDistance::NoPath));
        assert_eq!(e.users, BTreeSet::from([Asn::new(64_999)])); // origin
        assert_eq!(result.stats.bundled_detections, 1);
    }

    #[test]
    fn bundling_ablation_disables_no_path_detection() {
        let s = setup();
        let mut session = s.builder().bundling_detection(false).build();
        session.push(&announce("9.9.9.9/32", 100, "100 200 64999", vec![s.community], 100));
        let result = session.finish();
        assert!(result.events.is_empty());
    }

    #[test]
    fn ambiguous_community_requires_path_presence() {
        let s = setup();
        let mut dict = (*s.dict).clone();
        let shared = Community::from_parts(0, 666);
        dict.insert_validated(Asn::new(501), shared);
        dict.insert_validated(Asn::new(502), shared);
        let mut session = InferenceSession::new(Arc::new(dict), s.refdata.clone());
        // Neither 501 nor 502 on path: skipped.
        session.push(&announce("9.9.9.9/32", 100, "100 200 300", vec![shared], 100));
        assert_eq!(session.stats().ambiguous_unresolved, 1);
        // 502 on path: resolved to 502 only.
        session.push(&announce("8.8.8.8/32", 100, "100 502 300", vec![shared], 100));
        let result = session.finish();
        assert_eq!(result.events.len(), 1);
        assert_eq!(result.events[0].providers, BTreeSet::from([ProviderId::As(Asn::new(502))]));
    }

    #[test]
    fn implicit_withdrawal_closes_event() {
        let s = setup();
        let mut session = s.session();
        session.push(&announce("9.9.9.9/32", 100, "100 64777 64999", vec![s.community], 100));
        // Re-announcement without the tag: implicit withdrawal.
        session.push(&announce("9.9.9.9/32", 200, "100 64777 64999", vec![], 100));
        let result = session.finish();
        assert_eq!(result.events.len(), 1);
        assert_eq!(result.events[0].end, Some(SimTime::from_unix(200)));
        assert_eq!(result.stats.implicit_withdrawals, 1);
    }

    #[test]
    fn per_peer_correlation_takes_last_close() {
        let s = setup();
        let mut session = s.session();
        session.push(&announce("9.9.9.9/32", 100, "100 64777 64999", vec![s.community], 100));
        session.push(&announce("9.9.9.9/32", 110, "200 64777 64999", vec![s.community], 200));
        // First peer withdraws early; second keeps it until 500.
        session.push(&withdraw("9.9.9.9/32", 150, 100));
        // Still open: only one of two peers closed.
        assert_eq!(session.open_event_count(), 1);
        session.push(&withdraw("9.9.9.9/32", 500, 200));
        let result = session.finish();
        assert_eq!(result.events.len(), 1);
        assert_eq!(result.events[0].start, SimTime::from_unix(100));
        assert_eq!(result.events[0].end, Some(SimTime::from_unix(500)));
        assert_eq!(result.events[0].peer_count, 2);
    }

    #[test]
    fn per_peer_ablation_closes_on_first_withdrawal() {
        let s = setup();
        let mut session = s.builder().per_peer_state(false).build();
        session.push(&announce("9.9.9.9/32", 100, "100 64777 64999", vec![s.community], 100));
        session.push(&announce("9.9.9.9/32", 110, "200 64777 64999", vec![s.community], 200));
        session.push(&withdraw("9.9.9.9/32", 150, 100));
        let result = session.finish();
        // Collapsed state: the early withdrawal ends the event.
        assert_eq!(result.events[0].end, Some(SimTime::from_unix(150)));
    }

    #[test]
    fn rib_initialization_uses_time_zero() {
        let s = setup();
        let mut session = s.session();
        let rib = vec![announce("9.9.9.9/32", 10_000, "100 64777 64999", vec![s.community], 100)];
        session.initialize_from_rib(&rib);
        session.push(&withdraw("9.9.9.9/32", 10_500, 100));
        let result = session.finish();
        assert_eq!(result.events[0].start, SimTime::ZERO);
        assert_eq!(result.events[0].end, Some(SimTime::from_unix(10_500)));
    }

    #[test]
    fn on_off_pattern_yields_multiple_events() {
        let s = setup();
        let mut session = s.session();
        for k in 0..3u64 {
            let t0 = 1000 + k * 300;
            session.push(&announce("9.9.9.9/32", t0, "100 64777 64999", vec![s.community], 100));
            session.push(&withdraw("9.9.9.9/32", t0 + 60, 100));
        }
        let result = session.finish();
        assert_eq!(result.events.len(), 3);
        for e in &result.events {
            assert_eq!(e.duration(SimTime::ZERO).as_secs(), 60);
        }
    }

    #[test]
    fn open_events_survive_finish_with_no_end() {
        let s = setup();
        let mut session = s.session();
        session.push(&announce("9.9.9.9/32", 100, "100 64777 64999", vec![s.community], 100));
        let result = session.finish();
        assert_eq!(result.events.len(), 1);
        assert_eq!(result.events[0].end, None);
    }

    #[test]
    fn bogon_announcements_are_cleaned() {
        let s = setup();
        let mut session = s.session();
        session.push(&announce("10.0.0.1/32", 100, "100 64777 64999", vec![s.community], 100));
        let result = session.finish();
        assert!(result.events.is_empty());
        assert_eq!(result.stats.cleaned, 1);
    }

    #[test]
    fn ixp_detection_via_route_server_on_path() {
        // Use a real generated topology so refdata has IXPs.
        let t = TopologyBuilder::new(TopologyConfig::tiny(31)).build();
        let d = deploy(&t, &CollectorConfig::tiny(4));
        let refdata = Arc::new(ReferenceData::build(&t, &d));
        let ixp = t.ixps()[0].clone();
        let mut dict = BlackholeDictionary::default();
        dict.insert_validated(ixp.route_server_asn, Community::BLACKHOLE);
        let mut session = InferenceSession::new(Arc::new(dict), refdata);
        let member = ixp.members[0];
        let elem = announce(
            "9.9.9.9/32",
            100,
            &format!("100 {} {}", ixp.route_server_asn.value(), member.value()),
            vec![Community::BLACKHOLE],
            100,
        );
        session.push(&elem);
        let result = session.finish();
        assert_eq!(result.events.len(), 1);
        assert_eq!(result.events[0].providers, BTreeSet::from([ProviderId::Ixp(ixp.id)]));
        assert_eq!(result.events[0].users, BTreeSet::from([member]));
    }

    #[test]
    fn ixp_detection_via_peer_ip_in_lan() {
        let t = TopologyBuilder::new(TopologyConfig::tiny(31)).build();
        let d = deploy(&t, &CollectorConfig::tiny(4));
        let refdata = Arc::new(ReferenceData::build(&t, &d));
        let ixp = t.ixps()[0].clone();
        let mut dict = BlackholeDictionary::default();
        dict.insert_validated(ixp.route_server_asn, Community::BLACKHOLE);
        let mut session = InferenceSession::new(Arc::new(dict), refdata);
        let member = ixp.members[0];
        let mut elem = announce(
            "9.9.9.9/32",
            100,
            &format!("{member_v}", member_v = member.value()),
            vec![Community::BLACKHOLE],
            member.value(),
        );
        elem.peer_ip = ixp.member_lan_ip(member).map(std::net::IpAddr::V4).unwrap();
        elem.dataset = DataSource::Pch;
        session.push(&elem);
        let result = session.finish();
        assert_eq!(result.events.len(), 1);
        let e = &result.events[0];
        assert_eq!(e.providers, BTreeSet::from([ProviderId::Ixp(ixp.id)]));
        // User = peer-as; distance 0 (collector at the IXP).
        assert_eq!(e.users, BTreeSet::from([member]));
        assert!(e.distances.contains(&DetectionDistance::Hops(0)));
    }

    #[test]
    fn census_records_all_tagged_and_untagged_communities() {
        let s = setup();
        let mut session = s.session();
        let other = Community::from_parts(555, 80);
        session.push(&announce(
            "9.9.9.9/32",
            100,
            "100 64777 64999",
            vec![s.community, other],
            100,
        ));
        session.push(&announce("7.0.0.0/16", 100, "100 300", vec![other], 100));
        let result = session.finish();
        assert_eq!(result.census.occurrences(s.community), 1);
        assert_eq!(result.census.occurrences(other), 2);
        assert!(result.census.cooccurs(other, s.community));
    }

    #[test]
    fn multi_provider_bundle_yields_multi_provider_event() {
        let s = setup();
        let mut dict = (*s.dict).clone();
        let c2 = Community::from_parts(888, 666);
        dict.insert_validated(Asn::new(64_888), c2);
        let mut session = InferenceSession::new(Arc::new(dict), s.refdata.clone());
        session.push(&announce("9.9.9.9/32", 100, "100 64999", vec![s.community, c2], 100));
        let result = session.finish();
        assert_eq!(result.events.len(), 1);
        assert_eq!(result.events[0].providers.len(), 2);
    }

    #[test]
    fn ingest_equals_push_loop() {
        let s = setup();
        let elems = vec![
            announce("9.9.9.9/32", 100, "100 64777 64999", vec![s.community], 100),
            withdraw("9.9.9.9/32", 160, 100),
            announce("8.8.8.8/32", 200, "100 64777 64999", vec![s.community], 100),
        ];
        let mut by_push = s.session();
        for e in &elems {
            by_push.push(e);
        }
        let mut by_ingest = s.session();
        assert_eq!(by_ingest.ingest(&mut SliceSource::new(&elems)), 3);
        assert_eq!(by_push.finish(), by_ingest.finish());
    }

    #[test]
    fn merged_multi_collector_ingest_equals_materialized_merge() {
        use bh_routing::{merge_streams, MergedSource};

        let s = setup();
        // Two collector streams, interleaved in time.
        let mut ris = vec![
            announce("9.9.9.9/32", 100, "100 64777 64999", vec![s.community], 100),
            withdraw("9.9.9.9/32", 300, 100),
        ];
        ris[0].collector = 0;
        ris[1].collector = 0;
        let mut rv = vec![
            announce("9.9.9.9/32", 200, "200 64777 64999", vec![s.community], 200),
            withdraw("9.9.9.9/32", 400, 200),
        ];
        for e in &mut rv {
            e.dataset = DataSource::RouteViews;
            e.collector = 1;
        }

        let mut by_push = s.session();
        for e in merge_streams(vec![ris.clone(), rv.clone()]) {
            by_push.push(&e);
        }

        let mut by_merge = s.session();
        let merged = &mut MergedSource::new(vec![SliceSource::new(&ris), SliceSource::new(&rv)]);
        assert_eq!(by_merge.ingest(merged), 4);
        assert_eq!(by_merge.finish(), by_push.finish());
    }

    #[test]
    fn drain_closed_hands_out_events_mid_stream() {
        let s = setup();
        let mut session = s.session();
        session.push(&announce("9.9.9.9/32", 100, "100 64777 64999", vec![s.community], 100));
        session.push(&withdraw("9.9.9.9/32", 160, 100));
        let drained = session.drain_closed();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].end, Some(SimTime::from_unix(160)));
        // Drained events do not reappear.
        assert!(session.drain_closed().is_empty());
        session.push(&announce("8.8.8.8/32", 200, "100 64777 64999", vec![s.community], 100));
        let result = session.finish();
        assert_eq!(result.events.len(), 1);
        assert_eq!(result.events[0].prefix, "8.8.8.8/32".parse().unwrap());
        // Stats keep covering the whole stream.
        assert_eq!(result.stats.elems, 3);
    }

    #[test]
    fn checkpoint_resume_continues_exactly() {
        let s = setup();
        let elems = vec![
            announce("9.9.9.9/32", 100, "100 64777 64999", vec![s.community], 100),
            announce("8.8.8.8/32", 120, "100 64777 64999", vec![s.community], 100),
            withdraw("9.9.9.9/32", 160, 100),
            withdraw("8.8.8.8/32", 180, 100),
        ];
        // One shot.
        let mut oneshot = s.session();
        for e in &elems {
            oneshot.push(e);
        }
        let expected = oneshot.finish();

        // Suspend after two elements, resume in a fresh session.
        let mut first = s.session();
        first.push(&elems[0]);
        first.push(&elems[1]);
        let checkpoint = first.checkpoint();
        assert_eq!(checkpoint.open_events(), 2);
        assert_eq!(checkpoint.pending_closed(), 0);
        drop(first);
        let mut resumed = s.builder().resume(checkpoint);
        resumed.push(&elems[2]);
        resumed.push(&elems[3]);
        assert_eq!(resumed.finish(), expected);
    }

    #[test]
    fn resume_keeps_the_checkpointed_configuration() {
        // An ablated (collapsed-peer) session checkpointed mid-stream
        // must resume with the same semantics even if the resuming
        // builder was left at defaults — otherwise real-peer withdrawals
        // could never match the collapsed PeerKey and events would
        // stay open forever.
        let s = setup();
        let mut ablated = s.builder().per_peer_state(false).build();
        ablated.push(&announce("9.9.9.9/32", 100, "100 64777 64999", vec![s.community], 100));
        ablated.push(&announce("9.9.9.9/32", 110, "200 64777 64999", vec![s.community], 200));
        let checkpoint = ablated.checkpoint();
        // Resume from a default-config builder: checkpoint config wins.
        let mut resumed = s.builder().resume(checkpoint);
        resumed.push(&withdraw("9.9.9.9/32", 150, 100));
        let result = resumed.finish();
        assert_eq!(result.events.len(), 1);
        assert_eq!(result.events[0].end, Some(SimTime::from_unix(150)));
    }

    #[test]
    fn checkpoint_carries_undrained_closed_events() {
        let s = setup();
        let mut session = s.session();
        session.push(&announce("9.9.9.9/32", 100, "100 64777 64999", vec![s.community], 100));
        session.push(&withdraw("9.9.9.9/32", 160, 100));
        let checkpoint = session.checkpoint();
        assert_eq!(checkpoint.pending_closed(), 1);
        let resumed = s.builder().resume(checkpoint);
        assert_eq!(resumed.finish().events.len(), 1);
    }
}
