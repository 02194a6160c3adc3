//! The assembled topology: AS map, relationship graph, IXPs, and the
//! derived structures the rest of the pipeline queries (customer cones,
//! peering-LAN lookup, origin lookup).

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::net::{IpAddr, Ipv4Addr};

use serde::Serialize;

use bh_bgp_types::asn::Asn;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::trie::PrefixTrie;

use crate::types::{AsInfo, Ixp, IxpId, NetworkType, Relationship};

/// The synthetic Internet: ASes, edges, IXPs.
#[derive(Debug, Clone, Serialize)]
pub struct Topology {
    ases: BTreeMap<Asn, AsInfo>,
    /// Adjacency: for each AS, its neighbors with the relationship as seen
    /// from that AS.
    adjacency: BTreeMap<Asn, Vec<(Asn, Relationship)>>,
    ixps: Vec<Ixp>,
}

impl Topology {
    /// Assemble from parts (used by the generator; edges are given once,
    /// from the first AS's perspective, and mirrored automatically).
    pub fn assemble(
        ases: BTreeMap<Asn, AsInfo>,
        edges: Vec<(Asn, Asn, Relationship)>,
        ixps: Vec<Ixp>,
    ) -> Self {
        let mut adjacency: BTreeMap<Asn, Vec<(Asn, Relationship)>> = BTreeMap::new();
        for asn in ases.keys() {
            adjacency.insert(*asn, Vec::new());
        }
        for (a, b, rel) in edges {
            adjacency.entry(a).or_default().push((b, rel));
            adjacency.entry(b).or_default().push((a, rel.reverse()));
        }
        for neighbors in adjacency.values_mut() {
            neighbors.sort_unstable_by_key(|(asn, _)| *asn);
            neighbors.dedup();
        }
        Topology { ases, adjacency, ixps }
    }

    /// All ASes.
    pub fn ases(&self) -> impl Iterator<Item = &AsInfo> {
        self.ases.values()
    }

    /// Number of ASes.
    pub fn as_count(&self) -> usize {
        self.ases.len()
    }

    /// Look up an AS.
    pub fn as_info(&self, asn: Asn) -> Option<&AsInfo> {
        self.ases.get(&asn)
    }

    /// Mutable AS lookup (scenario drivers adjust offerings).
    pub fn as_info_mut(&mut self, asn: Asn) -> Option<&mut AsInfo> {
        self.ases.get_mut(&asn)
    }

    /// All IXPs.
    pub fn ixps(&self) -> &[Ixp] {
        &self.ixps
    }

    /// Look up an IXP.
    pub fn ixp(&self, id: IxpId) -> Option<&Ixp> {
        self.ixps.get(id.0 as usize)
    }

    /// The IXP whose route server uses this ASN, if any.
    pub fn ixp_by_route_server(&self, asn: Asn) -> Option<&Ixp> {
        self.ixps.iter().find(|ixp| ixp.route_server_asn == asn)
    }

    /// Neighbors of an AS with relationships as seen from it.
    pub fn neighbors(&self, asn: Asn) -> &[(Asn, Relationship)] {
        self.adjacency.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The relationship `me` has with `neighbor`, if they are adjacent.
    ///
    /// Binary search over the adjacency list ([`Topology::assemble`]
    /// sorts each list by ASN), so this is `O(log degree)` even at hub
    /// ASes with tens of thousands of customers. If the generator ever
    /// emitted two different relationships for the same pair, the first
    /// entry wins — matching a linear scan.
    pub fn rel_between(&self, me: Asn, neighbor: Asn) -> Option<Relationship> {
        let neighbors = self.neighbors(me);
        let i = neighbors.partition_point(|(asn, _)| *asn < neighbor);
        match neighbors.get(i) {
            Some((asn, rel)) if *asn == neighbor => Some(*rel),
            _ => None,
        }
    }

    /// Compute per-AS propagation ranks (customer-cone depth): the rank
    /// of an AS is the length of the longest customer chain below it, so
    /// every provider edge strictly increases rank. Stubs are rank 0;
    /// tier-1s sit at the top. Phased propagation engines use this to
    /// schedule the valley-free passes (up in ascending rank order, down
    /// in descending order); no two ASes at the same rank are in a
    /// provider/customer relation.
    ///
    /// Computed by Kahn-style longest-path over the customer→provider
    /// DAG. Relationship cycles (which the generator never emits, but a
    /// loaded graph might carry) are drained onto a single rank above
    /// everything acyclic, keeping the schedule well-defined.
    pub fn propagation_ranks(&self) -> PropagationRanks {
        let index = AsnIndex::from_topology(self);
        let n = index.len();
        let mut ranks = vec![0u32; n];
        // pending[i] = number of customers of AS i not yet ranked.
        let mut pending = vec![0u32; n];
        for (&asn, neighbors) in &self.adjacency {
            let i = index.index_of(asn).expect("adjacency ASN in index");
            pending[i] =
                neighbors.iter().filter(|(_, rel)| *rel == Relationship::Customer).count() as u32;
        }
        let mut queue: VecDeque<usize> =
            (0..n).filter(|&i| pending[i] == 0).collect::<Vec<_>>().into();
        let mut ranked = 0usize;
        let mut max_rank = 0u32;
        while let Some(i) = queue.pop_front() {
            ranked += 1;
            max_rank = max_rank.max(ranks[i]);
            let asn = index.asn_at(i).expect("dense index in range");
            for &(neighbor, rel) in self.neighbors(asn) {
                // My providers sit at least one rank above me.
                if rel == Relationship::Provider {
                    let p = index.index_of(neighbor).expect("neighbor in index");
                    ranks[p] = ranks[p].max(ranks[i] + 1);
                    pending[p] -= 1;
                    if pending[p] == 0 {
                        queue.push_back(p);
                    }
                }
            }
        }
        if ranked < n {
            // Provider/customer cycle: park the unranked remainder on a
            // rank of their own so every provider edge out of the acyclic
            // part still increases rank.
            max_rank += 1;
            for i in 0..n {
                if pending[i] > 0 {
                    ranks[i] = max_rank;
                }
            }
        }
        PropagationRanks { index, ranks, max_rank }
    }

    /// Providers of an AS.
    pub fn providers_of(&self, asn: Asn) -> Vec<Asn> {
        self.rel_neighbors(asn, Relationship::Provider)
    }

    /// Customers of an AS.
    pub fn customers_of(&self, asn: Asn) -> Vec<Asn> {
        self.rel_neighbors(asn, Relationship::Customer)
    }

    /// Peers of an AS (bilateral only; route-server sessions are separate).
    pub fn peers_of(&self, asn: Asn) -> Vec<Asn> {
        self.rel_neighbors(asn, Relationship::Peer)
    }

    fn rel_neighbors(&self, asn: Asn, rel: Relationship) -> Vec<Asn> {
        self.neighbors(asn).iter().filter(|(_, r)| *r == rel).map(|(n, _)| *n).collect()
    }

    /// The customer cone of an AS: itself plus everything reachable by
    /// repeatedly following customer links (Luckie et al.). Providers use
    /// this for blackhole authentication ("accept a blackhole community if
    /// the request comes from the originator of the prefix or a provider
    /// that has this prefix in its customer cone").
    pub fn customer_cone(&self, asn: Asn) -> BTreeSet<Asn> {
        let mut cone = BTreeSet::new();
        let mut queue = VecDeque::new();
        cone.insert(asn);
        queue.push_back(asn);
        while let Some(current) = queue.pop_front() {
            for customer in self.customers_of(current) {
                if cone.insert(customer) {
                    queue.push_back(customer);
                }
            }
        }
        cone
    }

    /// The upstream (provider) cone: every AS reachable by repeatedly
    /// following provider links. Used for Atlas-style probe grouping.
    pub fn provider_cone(&self, asn: Asn) -> BTreeSet<Asn> {
        let mut cone = BTreeSet::new();
        let mut queue = VecDeque::new();
        cone.insert(asn);
        queue.push_back(asn);
        while let Some(current) = queue.pop_front() {
            for provider in self.providers_of(current) {
                if cone.insert(provider) {
                    queue.push_back(provider);
                }
            }
        }
        cone
    }

    /// Is `target`'s origin within `provider`'s customer cone?
    pub fn in_customer_cone(&self, provider: Asn, target: Asn) -> bool {
        // BFS with early exit (avoids materializing the full cone).
        if provider == target {
            return true;
        }
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        seen.insert(provider);
        queue.push_back(provider);
        while let Some(current) = queue.pop_front() {
            for customer in self.customers_of(current) {
                if customer == target {
                    return true;
                }
                if seen.insert(customer) {
                    queue.push_back(customer);
                }
            }
        }
        false
    }

    /// Build the origin lookup: prefix → originating AS.
    pub fn origin_index(&self) -> OriginIndex {
        let mut trie = PrefixTrie::new();
        for info in self.ases.values() {
            for prefix in &info.prefixes {
                trie.insert(*prefix, info.asn);
            }
        }
        OriginIndex { trie }
    }

    /// Build the peering-LAN lookup: IP → IXP (the PeeringDB query used by
    /// the inference's peer-ip detection path).
    pub fn lan_index(&self) -> LanIndex {
        let mut trie = PrefixTrie::new();
        for ixp in &self.ixps {
            trie.insert(ixp.peering_lan, ixp.id);
        }
        LanIndex { trie }
    }

    /// ASes of a given ground-truth network type.
    pub fn ases_of_type(&self, ty: NetworkType) -> Vec<Asn> {
        self.ases.values().filter(|info| info.network_type == ty).map(|info| info.asn).collect()
    }

    /// All blackholing providers (ground truth).
    pub fn blackholing_providers(&self) -> Vec<Asn> {
        self.ases.values().filter(|info| info.offers_blackholing()).map(|info| info.asn).collect()
    }

    /// "Routed transit ASes": ASes with at least one customer — the paper's
    /// denominator for adoption growth (§6).
    pub fn transit_as_count(&self) -> usize {
        self.ases.keys().filter(|&&asn| !self.customers_of(asn).is_empty()).count()
    }

    /// Degree statistics, used by the CAIDA-style classifier.
    pub fn degrees(&self, asn: Asn) -> Degrees {
        let mut d = Degrees::default();
        for (_, rel) in self.neighbors(asn) {
            match rel {
                Relationship::Customer => d.customers += 1,
                Relationship::Provider => d.providers += 1,
                Relationship::Peer => d.peers += 1,
                Relationship::RouteServer => d.route_servers += 1,
            }
        }
        d
    }
}

/// Degree counts per relationship type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Degrees {
    /// Customer links.
    pub customers: usize,
    /// Provider links.
    pub providers: usize,
    /// Bilateral peers.
    pub peers: usize,
    /// Route-server sessions.
    pub route_servers: usize,
}

/// Prefix → origin AS lookup.
#[derive(Debug, Clone)]
pub struct OriginIndex {
    trie: PrefixTrie<Asn>,
}

impl OriginIndex {
    /// The AS originating the most specific covering block of `prefix`.
    pub fn origin_of(&self, prefix: &Ipv4Prefix) -> Option<Asn> {
        self.trie.covering(prefix).map(|(_, asn)| *asn)
    }

    /// The AS whose allocation contains `addr`.
    pub fn origin_of_addr(&self, addr: Ipv4Addr) -> Option<Asn> {
        self.trie.longest_match(addr).map(|(_, asn)| *asn)
    }

    /// Number of indexed allocations.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }
}

/// IP → IXP peering-LAN lookup.
#[derive(Debug, Clone)]
pub struct LanIndex {
    trie: PrefixTrie<IxpId>,
}

impl LanIndex {
    /// Which IXP's peering LAN contains this address?
    pub fn ixp_of_ip(&self, ip: IpAddr) -> Option<IxpId> {
        match ip {
            IpAddr::V4(v4) => self.trie.longest_match(v4).map(|(_, id)| *id),
            IpAddr::V6(_) => None,
        }
    }
}

/// A compact map from ASN to a dense index (used by simulators that keep
/// per-AS vectors).
#[derive(Debug, Clone, Default)]
pub struct AsnIndex {
    map: HashMap<Asn, usize>,
    order: Vec<Asn>,
}

impl AsnIndex {
    /// Build from the topology's AS set (deterministic order).
    pub fn from_topology(topology: &Topology) -> Self {
        let mut index = AsnIndex::default();
        for info in topology.ases() {
            index.map.insert(info.asn, index.order.len());
            index.order.push(info.asn);
        }
        index
    }

    /// Dense index of an ASN.
    pub fn index_of(&self, asn: Asn) -> Option<usize> {
        self.map.get(&asn).copied()
    }

    /// ASN at a dense index.
    pub fn asn_at(&self, idx: usize) -> Option<Asn> {
        self.order.get(idx).copied()
    }

    /// Number of ASNs.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Per-AS propagation ranks (customer-cone depth), plus the dense
/// [`AsnIndex`] they are keyed by. Built once per topology by
/// [`Topology::propagation_ranks`] and shared (it is cheap to clone the
/// Arc'd wrapper callers usually put around it) across simulator
/// instances — at 75k ASes the Kahn pass is the expensive part, not the
/// lookups.
#[derive(Debug, Clone)]
pub struct PropagationRanks {
    index: AsnIndex,
    ranks: Vec<u32>,
    max_rank: u32,
}

impl PropagationRanks {
    /// The rank of an AS (0 for stubs; `None` for unknown ASNs).
    pub fn rank_of(&self, asn: Asn) -> Option<u32> {
        self.index.index_of(asn).map(|i| self.ranks[i])
    }

    /// The highest rank present.
    pub fn max_rank(&self) -> u32 {
        self.max_rank
    }

    /// The dense index ranks are keyed by.
    pub fn index(&self) -> &AsnIndex {
        &self.index
    }

    /// Rank at a dense index (panics if out of range).
    pub fn rank_at(&self, idx: usize) -> u32 {
        self.ranks[idx]
    }

    /// Number of ranked ASes.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Is the rank table empty?
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use crate::types::Tier;

    use super::*;

    fn mk_as(asn: u32, ty: NetworkType) -> AsInfo {
        AsInfo {
            asn: Asn::new(asn),
            tier: Tier::Stub,
            network_type: ty,
            country: "DE",
            prefixes: vec![],
            blackhole_offering: None,
            tag_communities: vec![],
            tag_classes: vec![],
            tag_large_communities: vec![],
            in_peeringdb: true,
        }
    }

    /// 1 (tier-1) ← 2 (transit) ← 3 (stub); 2 peers with 4; 5 isolated.
    fn small_topology() -> Topology {
        let mut ases = BTreeMap::new();
        for (asn, ty) in [
            (1, NetworkType::TransitAccess),
            (2, NetworkType::TransitAccess),
            (3, NetworkType::Content),
            (4, NetworkType::TransitAccess),
            (5, NetworkType::Enterprise),
        ] {
            ases.insert(Asn::new(asn), mk_as(asn, ty));
        }
        let edges = vec![
            (Asn::new(1), Asn::new(2), Relationship::Customer), // 2 is customer of 1
            (Asn::new(2), Asn::new(3), Relationship::Customer), // 3 is customer of 2
            (Asn::new(2), Asn::new(4), Relationship::Peer),
        ];
        Topology::assemble(ases, edges, vec![])
    }

    #[test]
    fn adjacency_is_mirrored() {
        let t = small_topology();
        assert_eq!(t.customers_of(Asn::new(1)), vec![Asn::new(2)]);
        assert_eq!(t.providers_of(Asn::new(2)), vec![Asn::new(1)]);
        assert_eq!(t.peers_of(Asn::new(2)), vec![Asn::new(4)]);
        assert_eq!(t.peers_of(Asn::new(4)), vec![Asn::new(2)]);
        assert!(t.neighbors(Asn::new(5)).is_empty());
    }

    #[test]
    fn customer_cone_is_transitive() {
        let t = small_topology();
        let cone = t.customer_cone(Asn::new(1));
        assert_eq!(cone, BTreeSet::from([Asn::new(1), Asn::new(2), Asn::new(3)]));
        // Peers are not in the cone.
        assert!(!cone.contains(&Asn::new(4)));
        // Stub cone is itself.
        assert_eq!(t.customer_cone(Asn::new(3)).len(), 1);
    }

    #[test]
    fn provider_cone_walks_up() {
        let t = small_topology();
        let cone = t.provider_cone(Asn::new(3));
        assert_eq!(cone, BTreeSet::from([Asn::new(1), Asn::new(2), Asn::new(3)]));
    }

    #[test]
    fn in_customer_cone_early_exit() {
        let t = small_topology();
        assert!(t.in_customer_cone(Asn::new(1), Asn::new(3)));
        assert!(t.in_customer_cone(Asn::new(2), Asn::new(3)));
        assert!(t.in_customer_cone(Asn::new(3), Asn::new(3)));
        assert!(!t.in_customer_cone(Asn::new(3), Asn::new(1)));
        assert!(!t.in_customer_cone(Asn::new(4), Asn::new(3)));
    }

    #[test]
    fn transit_count_counts_ases_with_customers() {
        let t = small_topology();
        assert_eq!(t.transit_as_count(), 2); // AS1 and AS2
    }

    #[test]
    fn origin_index_resolves_most_specific() {
        let mut ases = BTreeMap::new();
        let mut a = mk_as(10, NetworkType::TransitAccess);
        a.prefixes = vec!["20.0.0.0/8".parse().unwrap()];
        let mut b = mk_as(11, NetworkType::Content);
        b.prefixes = vec!["20.1.0.0/16".parse().unwrap()];
        ases.insert(a.asn, a);
        ases.insert(b.asn, b);
        let t = Topology::assemble(ases, vec![], vec![]);
        let idx = t.origin_index();
        assert_eq!(idx.origin_of(&"20.1.2.3/32".parse().unwrap()), Some(Asn::new(11)));
        assert_eq!(idx.origin_of(&"20.9.0.0/16".parse().unwrap()), Some(Asn::new(10)));
        assert_eq!(idx.origin_of(&"21.0.0.0/8".parse().unwrap()), None);
        assert_eq!(idx.origin_of_addr("20.1.9.9".parse().unwrap()), Some(Asn::new(11)));
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn lan_index_finds_ixp() {
        let ixp = Ixp {
            id: IxpId(0),
            name: "X".into(),
            route_server_asn: Asn::new(64700),
            route_server_in_path: true,
            peering_lan: "185.1.0.0/24".parse().unwrap(),
            members: vec![],
            country: "DE",
        };
        let t = Topology::assemble(BTreeMap::new(), vec![], vec![ixp]);
        let idx = t.lan_index();
        assert_eq!(idx.ixp_of_ip("185.1.0.5".parse().unwrap()), Some(IxpId(0)));
        assert_eq!(idx.ixp_of_ip("185.2.0.5".parse().unwrap()), None);
        assert_eq!(idx.ixp_of_ip("2001:db8::1".parse().unwrap()), None);
        assert!(t.ixp_by_route_server(Asn::new(64700)).is_some());
        assert!(t.ixp_by_route_server(Asn::new(1)).is_none());
    }

    #[test]
    fn degrees_count_by_relationship() {
        let t = small_topology();
        let d = t.degrees(Asn::new(2));
        assert_eq!(d, Degrees { customers: 1, providers: 1, peers: 1, route_servers: 0 });
    }

    #[test]
    fn rel_between_matches_linear_scan() {
        let t = small_topology();
        for info in t.ases() {
            for probe in t.ases() {
                let linear = t
                    .neighbors(info.asn)
                    .iter()
                    .find(|(n, _)| *n == probe.asn)
                    .map(|(_, rel)| *rel);
                assert_eq!(t.rel_between(info.asn, probe.asn), linear);
            }
        }
        assert_eq!(t.rel_between(Asn::new(1), Asn::new(2)), Some(Relationship::Customer));
        assert_eq!(t.rel_between(Asn::new(2), Asn::new(1)), Some(Relationship::Provider));
        assert_eq!(t.rel_between(Asn::new(2), Asn::new(4)), Some(Relationship::Peer));
        assert_eq!(t.rel_between(Asn::new(1), Asn::new(3)), None);
        assert_eq!(t.rel_between(Asn::new(999), Asn::new(1)), None);
    }

    #[test]
    fn propagation_ranks_increase_along_provider_edges() {
        // 1 ← 2 ← 3, 2 — 4 (peer), 5 isolated.
        let t = small_topology();
        let ranks = t.propagation_ranks();
        assert_eq!(ranks.rank_of(Asn::new(3)), Some(0));
        assert_eq!(ranks.rank_of(Asn::new(2)), Some(1));
        assert_eq!(ranks.rank_of(Asn::new(1)), Some(2));
        // Peers and isolated ASes sit wherever their customer depth puts
        // them — no customers means rank 0.
        assert_eq!(ranks.rank_of(Asn::new(4)), Some(0));
        assert_eq!(ranks.rank_of(Asn::new(5)), Some(0));
        assert_eq!(ranks.max_rank(), 2);
        assert_eq!(ranks.len(), 5);
        assert!(ranks.rank_of(Asn::new(999)).is_none());
        // The invariant the phased engine relies on.
        for info in t.ases() {
            for &(neighbor, rel) in t.neighbors(info.asn) {
                if rel == Relationship::Provider {
                    assert!(ranks.rank_of(neighbor).unwrap() > ranks.rank_of(info.asn).unwrap());
                }
            }
        }
    }

    #[test]
    fn propagation_ranks_tolerate_cycles() {
        // 1 ↔ 2 mutual providers (a cycle), 3 a customer of 2.
        let mut ases = BTreeMap::new();
        for asn in [1, 2, 3] {
            ases.insert(Asn::new(asn), mk_as(asn, NetworkType::TransitAccess));
        }
        let edges = vec![
            (Asn::new(1), Asn::new(2), Relationship::Customer),
            (Asn::new(2), Asn::new(1), Relationship::Customer),
            (Asn::new(2), Asn::new(3), Relationship::Customer),
        ];
        let t = Topology::assemble(ases, edges, vec![]);
        let ranks = t.propagation_ranks();
        // 3 is acyclic and ranked 0; the cycle members get parked above.
        assert_eq!(ranks.rank_of(Asn::new(3)), Some(0));
        assert_eq!(ranks.rank_of(Asn::new(1)), Some(ranks.max_rank()));
        assert_eq!(ranks.rank_of(Asn::new(2)), Some(ranks.max_rank()));
        assert!(ranks.max_rank() >= 1);
    }

    #[test]
    fn asn_index_round_trips() {
        let t = small_topology();
        let idx = AsnIndex::from_topology(&t);
        assert_eq!(idx.len(), 5);
        for info in t.ases() {
            let i = idx.index_of(info.asn).unwrap();
            assert_eq!(idx.asn_at(i), Some(info.asn));
        }
        assert!(idx.index_of(Asn::new(999)).is_none());
    }
}
