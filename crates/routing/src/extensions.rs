//! Pluggable per-AS policy extensions over the Gao-Rexford core.
//!
//! [`crate::policy`] is the *invariant* layer: relationship preferences,
//! valley-free exports, and blackhole trigger evaluation, identical at
//! every AS. This module is the *configurable* layer on top: a
//! [`PolicyExtension`] trait with hooks at the three places a real
//! router's policy config attaches —
//!
//! * **origin** (`on_origin`): rewrite communities / prepending as the
//!   route is first announced,
//! * **import** (`on_import`): accept or reject a route *before* the
//!   Gao-Rexford import runs, optionally mutating route state,
//! * **export** (`on_export`): veto ([`ExportAction::Suppress`]) or
//!   override ([`ExportAction::Force`]) the valley-free `may_export`
//!   verdict and scrub outgoing communities.
//!
//! Concrete extensions ship for ROV (against a [`RoaTable`]),
//! peerlock-lite, RFC 9234-style only-to-customers, community
//! strip/rewrite, path-end validation, and a deliberately misbehaving
//! route leaker. A [`PolicyEngine`] compiles a declarative
//! [`PolicyTable`] (from `bh-topology`) into per-AS hook chains; ASes
//! absent from the table pay nothing, and an empty table compiles to an
//! engine the simulator refuses to install — keeping the extensions-off
//! path bit-identical to the pre-extension baseline.
//!
//! Hooks run at regular ASes only. IXP route servers keep their own
//! fixed redistribution semantics (`sim.rs`): they are transparent
//! multipliers, not policy actors, and the paper's PCH visibility
//! depends on that transparency.

use std::collections::BTreeMap;

use bh_bgp_types::as_path::AsPath;
use bh_bgp_types::community::CommunitySet;
use bh_bgp_types::hash::FxHashMap;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::Asn;
use bh_topology::{AsPolicy, CommunityScrub, PolicyTable, Relationship, RoaTable, RpkiValidity};
use bh_topology::{Tier, Topology};

use crate::policy::RejectReason;

/// Context handed to [`PolicyExtension::on_origin`]: the announcement
/// as the origin AS is about to push it to its neighbors.
pub struct OriginCx<'a> {
    pub origin: Asn,
    pub prefix: &'a Ipv4Prefix,
    /// Communities attached to the announcement; mutable so origin-side
    /// scrubbing/rewriting applies before the first export.
    pub communities: &'a mut CommunitySet,
    /// Extra origin prepends (0 = announce the plain path).
    pub prepend: &'a mut usize,
    pub topology: &'a Topology,
}

/// Context handed to [`PolicyExtension::on_import`]: a route arriving
/// at `me` from neighbor `from`, before the Gao-Rexford import runs.
pub struct ImportCx<'a> {
    pub me: Asn,
    pub from: Asn,
    /// `me`'s relationship to `from` (`Customer` means the sender is
    /// `me`'s customer — the `local_pref_for` convention).
    pub rel: Relationship,
    pub prefix: &'a Ipv4Prefix,
    pub as_path: &'a AsPath,
    pub communities: &'a CommunitySet,
    /// The route's only-to-customers mark (RFC 9234's OTC attribute);
    /// extensions may read it to detect leaks and set it to contain
    /// them downstream.
    pub leak_marked: &'a mut bool,
    pub topology: &'a Topology,
    pub roas: &'a RoaTable,
}

/// Context handed to [`PolicyExtension::on_export`]: `me`'s best route
/// about to be advertised to neighbor `to`.
pub struct ExportCx<'a> {
    pub me: Asn,
    pub to: Asn,
    /// `me`'s relationship to `to` (`Customer` means the receiver is
    /// `me`'s customer).
    pub to_rel: Relationship,
    /// How the best route was learned.
    pub learned_rel: Relationship,
    pub prefix: &'a Ipv4Prefix,
    pub as_path: &'a AsPath,
    /// Outgoing copy of the route's communities; scrub extensions edit
    /// this without touching the stored route.
    pub communities: &'a mut CommunitySet,
    /// Outgoing copy of the only-to-customers mark.
    pub leak_marked: &'a mut bool,
    /// The valley-free `may_export` verdict the core already computed.
    pub default_allowed: bool,
    pub topology: &'a Topology,
}

/// What an export hook wants done with the advertisement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportAction {
    /// Defer to the core verdict (and any other extension).
    Default,
    /// Never advertise to this neighbor. Dominates `Force`.
    Suppress,
    /// Advertise even where valley-free export forbids it (leaks).
    Force,
}

/// A per-AS policy hook. All hooks default to no-ops so an extension
/// implements only the phases it cares about.
pub trait PolicyExtension: Send + Sync {
    /// Stable name used for per-extension rejection accounting.
    fn name(&self) -> &'static str;

    fn on_origin(&self, _cx: &mut OriginCx<'_>) {}

    /// `Err(reason)` rejects the route before the Gao-Rexford import.
    fn on_import(&self, _cx: &mut ImportCx<'_>) -> Result<(), RejectReason> {
        Ok(())
    }

    fn on_export(&self, _cx: &mut ExportCx<'_>) -> ExportAction {
        ExportAction::Default
    }
}

/// RFC 6811 route-origin validation: drop RPKI-Invalid routes. Under a
/// strict ROA table (max_length = allocation length) this filters every
/// RTBH host route at deploying ASes — the blackholing-vs-ROV tension
/// the adversarial workloads quantify.
pub struct Rov;

impl PolicyExtension for Rov {
    fn name(&self) -> &'static str {
        "rov"
    }

    fn on_import(&self, cx: &mut ImportCx<'_>) -> Result<(), RejectReason> {
        let Some(origin) = cx.as_path.origin() else {
            return Ok(());
        };
        match cx.roas.validity(cx.prefix, origin) {
            RpkiValidity::Invalid => Err(RejectReason::RovInvalid),
            RpkiValidity::Valid | RpkiValidity::NotFound => Ok(()),
        }
    }
}

/// Peerlock-lite: a route learned from a customer or peer that carries
/// a Tier-1 ASN (other than the sender itself) must be a leak — under
/// valley-free export no Tier-1 ever appears downstream of a non-Tier-1
/// on a legitimate customer/peer path.
pub struct PeerlockLite;

impl PolicyExtension for PeerlockLite {
    fn name(&self) -> &'static str {
        "peerlock-lite"
    }

    fn on_import(&self, cx: &mut ImportCx<'_>) -> Result<(), RejectReason> {
        if !matches!(
            cx.rel,
            Relationship::Customer | Relationship::Peer | Relationship::RouteServer
        ) {
            return Ok(());
        }
        for asn in cx.as_path.iter_asns() {
            if asn == cx.from {
                continue;
            }
            if cx.topology.as_info(asn).is_some_and(|info| info.tier == Tier::Tier1) {
                return Err(RejectReason::PeerlockViolation);
            }
        }
        Ok(())
    }
}

/// RFC 9234-style only-to-customers: mark routes learned from providers
/// or peers; a *marked* route arriving from a customer or peer means a
/// leak already happened upstream, so drop it. Exports to customers and
/// peers also set the mark, containing leaks one hop out even when the
/// leaker itself deploys nothing.
pub struct OnlyToCustomers;

impl PolicyExtension for OnlyToCustomers {
    fn name(&self) -> &'static str {
        "only-to-customers"
    }

    fn on_import(&self, cx: &mut ImportCx<'_>) -> Result<(), RejectReason> {
        match cx.rel {
            Relationship::Customer | Relationship::Peer | Relationship::RouteServer => {
                if *cx.leak_marked {
                    return Err(RejectReason::RouteLeak);
                }
                if cx.rel != Relationship::Customer {
                    // Learned from a lateral peer: may only go to my
                    // customers from here on.
                    *cx.leak_marked = true;
                }
                Ok(())
            }
            Relationship::Provider => {
                *cx.leak_marked = true;
                Ok(())
            }
        }
    }

    fn on_export(&self, cx: &mut ExportCx<'_>) -> ExportAction {
        if matches!(cx.to_rel, Relationship::Customer | Relationship::Peer) {
            *cx.leak_marked = true;
        }
        ExportAction::Default
    }
}

/// Path-end validation (the lightweight BGPsec alternative): the hop
/// adjacent to the origin must be a real topology neighbor of the
/// origin. Catches forged-origin hijacks that graft a victim origin
/// onto an attacker path.
pub struct PathEnd;

impl PolicyExtension for PathEnd {
    fn name(&self) -> &'static str {
        "path-end"
    }

    fn on_import(&self, cx: &mut ImportCx<'_>) -> Result<(), RejectReason> {
        let Some(origin) = cx.as_path.origin() else {
            return Ok(());
        };
        if cx.topology.as_info(origin).is_none() {
            return Ok(()); // unknown origin: nothing to validate against
        }
        let hops: Vec<Asn> = cx.as_path.iter_asns().collect();
        let Some(last_hop) = hops.iter().rev().find(|a| **a != origin) else {
            return Ok(()); // origin-only path: a direct session
        };
        if cx.topology.neighbors(origin).iter().any(|(n, _)| n == last_hop) {
            Ok(())
        } else {
            Err(RejectReason::PathEndInvalid)
        }
    }
}

/// Community strip/rewrite on export, from the per-AS
/// [`CommunityScrub`] config. Models transit networks that launder
/// customer-attached informational communities — the behavior that
/// erodes community-based inference visibility.
pub struct CommunityScrubExt {
    scrub: CommunityScrub,
}

impl CommunityScrubExt {
    pub fn new(scrub: CommunityScrub) -> Self {
        Self { scrub }
    }
}

impl PolicyExtension for CommunityScrubExt {
    fn name(&self) -> &'static str {
        "community-scrub"
    }

    fn on_export(&self, cx: &mut ExportCx<'_>) -> ExportAction {
        if self.scrub.strip_all {
            cx.communities.retain(|_| false);
        } else {
            for c in &self.scrub.strip {
                cx.communities.remove(*c);
            }
        }
        for (from, to) in &self.scrub.rewrite {
            if cx.communities.remove(*from) {
                cx.communities.insert(*to);
            }
        }
        ExportAction::Default
    }
}

/// Deliberate misbehavior: export every best route to every neighbor,
/// ignoring the valley-free rule. The route-leak workloads install this
/// at chosen transit ASes to create the leak traffic the inference must
/// not misread as blackholing. NO_EXPORT and RFC 7999 suppression are
/// hard rules in the simulator and are never leaked through.
pub struct Leaker;

impl PolicyExtension for Leaker {
    fn name(&self) -> &'static str {
        "leaker"
    }

    fn on_export(&self, cx: &mut ExportCx<'_>) -> ExportAction {
        if cx.default_allowed {
            ExportAction::Default
        } else {
            ExportAction::Force
        }
    }
}

/// Per-`RejectReason` and per-extension accounting for one simulator
/// run. Counters only — recording a rejection never perturbs routing,
/// which the empty-table bit-identity property depends on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Routes actually rejected on import (candidate removed), by
    /// reason. Includes the Gao-Rexford core reasons (`LoopDetected`,
    /// `TooSpecific`) and every extension reason.
    pub import_rejects: BTreeMap<RejectReason, u64>,
    /// Blackhole triggers that matched but did not fire (`AuthFailed`,
    /// `LengthRejected`); the route itself still imported normally.
    pub trigger_rejects: BTreeMap<RejectReason, u64>,
    /// Import rejections attributed to a named policy extension.
    pub extension_rejects: BTreeMap<&'static str, u64>,
    /// Advertisements vetoed by an export hook.
    pub exports_suppressed: u64,
    /// Advertisements forced past the valley-free rule (leaks).
    pub exports_forced: u64,
    /// Propagation runs that hit the step cap and were abandoned
    /// (`PropagationError::NoConvergence` surfaced to the caller).
    pub convergence_failures: u64,
}

impl RunStats {
    pub fn record_import_reject(&mut self, reason: RejectReason) {
        *self.import_rejects.entry(reason).or_insert(0) += 1;
    }

    pub fn record_trigger_reject(&mut self, reason: RejectReason) {
        *self.trigger_rejects.entry(reason).or_insert(0) += 1;
    }

    fn record_extension_reject(&mut self, reason: RejectReason, name: &'static str) {
        self.record_import_reject(reason);
        *self.extension_rejects.entry(name).or_insert(0) += 1;
    }

    pub fn import_rejects_for(&self, reason: RejectReason) -> u64 {
        self.import_rejects.get(&reason).copied().unwrap_or(0)
    }

    pub fn total_import_rejects(&self) -> u64 {
        self.import_rejects.values().sum()
    }
}

/// One AS's compiled hook chain, in a fixed deterministic order:
/// validation first (ROV, peerlock, path-end, OTC), then mutation
/// (scrub), then misbehavior (leaker).
struct Compiled {
    extensions: Vec<Box<dyn PolicyExtension>>,
}

impl Compiled {
    fn from_policy(policy: &AsPolicy) -> Option<Self> {
        let mut extensions: Vec<Box<dyn PolicyExtension>> = Vec::new();
        if policy.rov {
            extensions.push(Box::new(Rov));
        }
        if policy.peerlock_lite {
            extensions.push(Box::new(PeerlockLite));
        }
        if policy.path_end {
            extensions.push(Box::new(PathEnd));
        }
        if policy.only_to_customers {
            extensions.push(Box::new(OnlyToCustomers));
        }
        if let Some(scrub) = &policy.scrub {
            if !scrub.is_noop() {
                extensions.push(Box::new(CommunityScrubExt::new(scrub.clone())));
            }
        }
        if policy.leaker {
            extensions.push(Box::new(Leaker));
        }
        if extensions.is_empty() {
            None
        } else {
            Some(Self { extensions })
        }
    }
}

/// A [`PolicyTable`] compiled into per-AS hook chains, ready for the
/// simulator. ASes without policies are absent from the map and pay a
/// single hash probe per hook site.
pub struct PolicyEngine {
    per_as: FxHashMap<Asn, Compiled>,
    roas: RoaTable,
}

impl PolicyEngine {
    /// Compile a declarative table. Returns `None` when the table is
    /// empty — the simulator then skips installation entirely, keeping
    /// the extensions-off fast path byte-for-byte identical.
    pub fn compile(table: &PolicyTable) -> Option<Self> {
        if table.is_empty() {
            return None;
        }
        let mut per_as = FxHashMap::default();
        for (asn, policy) in table.iter() {
            if let Some(compiled) = Compiled::from_policy(policy) {
                per_as.insert(asn, compiled);
            }
        }
        Some(Self { per_as, roas: table.roas().clone() })
    }

    /// Number of ASes with at least one compiled extension.
    pub fn deployed_count(&self) -> usize {
        self.per_as.len()
    }

    /// Run the origin hooks of `origin`'s extensions.
    pub fn origin(
        &self,
        topology: &Topology,
        origin: Asn,
        prefix: &Ipv4Prefix,
        communities: &mut CommunitySet,
        prepend: &mut usize,
    ) {
        let Some(compiled) = self.per_as.get(&origin) else {
            return;
        };
        let mut cx = OriginCx { origin, prefix, communities, prepend, topology };
        for ext in &compiled.extensions {
            ext.on_origin(&mut cx);
        }
    }

    /// Run `me`'s import hooks; the first `Err` rejects the route and
    /// is recorded against the extension that raised it.
    #[allow(clippy::too_many_arguments)] // one parameter per BGP attribute of the event
    pub fn import(
        &self,
        topology: &Topology,
        stats: &mut RunStats,
        me: Asn,
        from: Asn,
        rel: Relationship,
        prefix: &Ipv4Prefix,
        as_path: &AsPath,
        communities: &CommunitySet,
        leak_marked: &mut bool,
    ) -> Result<(), RejectReason> {
        let Some(compiled) = self.per_as.get(&me) else {
            return Ok(());
        };
        let mut cx = ImportCx {
            me,
            from,
            rel,
            prefix,
            as_path,
            communities,
            leak_marked,
            topology,
            roas: &self.roas,
        };
        for ext in &compiled.extensions {
            if let Err(reason) = ext.on_import(&mut cx) {
                stats.record_extension_reject(reason, ext.name());
                return Err(reason);
            }
        }
        Ok(())
    }

    /// Run `me`'s export hooks over the core's valley-free verdict.
    /// `Suppress` dominates `Force` dominates the default.
    #[allow(clippy::too_many_arguments)] // one parameter per BGP attribute of the event
    pub fn export(
        &self,
        topology: &Topology,
        stats: &mut RunStats,
        me: Asn,
        to: Asn,
        to_rel: Relationship,
        learned_rel: Relationship,
        prefix: &Ipv4Prefix,
        as_path: &AsPath,
        communities: &mut CommunitySet,
        leak_marked: &mut bool,
        default_allowed: bool,
    ) -> bool {
        let Some(compiled) = self.per_as.get(&me) else {
            return default_allowed;
        };
        let mut cx = ExportCx {
            me,
            to,
            to_rel,
            learned_rel,
            prefix,
            as_path,
            communities,
            leak_marked,
            default_allowed,
            topology,
        };
        let mut suppressed = false;
        let mut forced = false;
        for ext in &compiled.extensions {
            match ext.on_export(&mut cx) {
                ExportAction::Default => {}
                ExportAction::Suppress => suppressed = true,
                ExportAction::Force => forced = true,
            }
        }
        if suppressed {
            if default_allowed {
                stats.exports_suppressed += 1;
            }
            false
        } else if forced {
            if !default_allowed {
                stats.exports_forced += 1;
            }
            true
        } else {
            default_allowed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_bgp_types::community::Community;

    #[test]
    fn empty_table_compiles_to_nothing() {
        let mut table = PolicyTable::new();
        assert!(PolicyEngine::compile(&table).is_none());
        // All-off entries still compile to nothing.
        table.entry(Asn(65001));
        assert!(PolicyEngine::compile(&table).is_none());
        table.entry(Asn(65001)).rov = true;
        let engine = PolicyEngine::compile(&table).expect("non-empty table compiles");
        assert_eq!(engine.deployed_count(), 1);
    }

    #[test]
    fn scrub_strips_and_rewrites() {
        let scrub = CommunityScrub {
            strip_all: false,
            strip: vec![Community::from_parts(65001, 666)],
            rewrite: vec![(Community::from_parts(65001, 100), Community::from_parts(65002, 200))],
        };
        let ext = CommunityScrubExt::new(scrub);
        let mut communities = CommunitySet::new();
        communities.insert(Community::from_parts(65001, 666));
        communities.insert(Community::from_parts(65001, 100));
        communities.insert(Community::from_parts(65001, 300));
        let prefix: Ipv4Prefix = "10.0.0.1/32".parse().unwrap();
        let path = AsPath::from_sequence(vec![Asn(65001)]);
        let topology = Topology::assemble(std::collections::BTreeMap::new(), vec![], vec![]);
        let mut leak_marked = false;
        let mut cx = ExportCx {
            me: Asn(65009),
            to: Asn(65010),
            to_rel: Relationship::Customer,
            learned_rel: Relationship::Customer,
            prefix: &prefix,
            as_path: &path,
            communities: &mut communities,
            leak_marked: &mut leak_marked,
            default_allowed: true,
            topology: &topology,
        };
        assert_eq!(ext.on_export(&mut cx), ExportAction::Default);
        assert!(!communities.contains(Community::from_parts(65001, 666)));
        assert!(!communities.contains(Community::from_parts(65001, 100)));
        assert!(communities.contains(Community::from_parts(65002, 200)));
        assert!(communities.contains(Community::from_parts(65001, 300)));
    }

    #[test]
    fn otc_marks_and_rejects() {
        let ext = OnlyToCustomers;
        let prefix: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let path = AsPath::from_sequence(vec![Asn(65001)]);
        let communities = CommunitySet::new();
        let topology = Topology::assemble(std::collections::BTreeMap::new(), vec![], vec![]);
        let roas = RoaTable::new();

        // Learned from a provider: mark set, accepted.
        let mut leak_marked = false;
        let mut cx = ImportCx {
            me: Asn(65002),
            from: Asn(65001),
            rel: Relationship::Provider,
            prefix: &prefix,
            as_path: &path,
            communities: &communities,
            leak_marked: &mut leak_marked,
            topology: &topology,
            roas: &roas,
        };
        assert!(ext.on_import(&mut cx).is_ok());
        assert!(leak_marked);

        // A marked route arriving from a customer is a leak.
        let mut leak_marked = true;
        let mut cx = ImportCx {
            me: Asn(65002),
            from: Asn(65003),
            rel: Relationship::Customer,
            prefix: &prefix,
            as_path: &path,
            communities: &communities,
            leak_marked: &mut leak_marked,
            topology: &topology,
            roas: &roas,
        };
        assert_eq!(cx.me, Asn(65002));
        assert_eq!(ext.on_import(&mut cx), Err(RejectReason::RouteLeak));
    }

    #[test]
    fn run_stats_accumulate_by_reason() {
        let mut stats = RunStats::default();
        stats.record_import_reject(RejectReason::LoopDetected);
        stats.record_import_reject(RejectReason::LoopDetected);
        stats.record_trigger_reject(RejectReason::AuthFailed);
        stats.record_extension_reject(RejectReason::RovInvalid, "rov");
        assert_eq!(stats.import_rejects_for(RejectReason::LoopDetected), 2);
        assert_eq!(stats.import_rejects_for(RejectReason::RovInvalid), 1);
        assert_eq!(stats.trigger_rejects.get(&RejectReason::AuthFailed), Some(&1));
        assert_eq!(stats.extension_rejects.get("rov"), Some(&1));
        assert_eq!(stats.total_import_rejects(), 3);
    }
}
