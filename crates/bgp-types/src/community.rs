//! BGP community attribute families.
//!
//! Communities are the paper's central signal: blackholing is triggered by
//! tagging an announcement with a provider-specific community such as
//! `3356:9999`, an IXP community, or the RFC 7999 well-known `65535:666`.
//! The dictionary work (§4.1) also cares about the *format*: "the most
//! popular community format is 32 bits, where the first 16 bits refer to
//! the ASN"; extended (RFC 4360) and large (RFC 8092) communities exist but
//! "their adoption is limited" (6 of 307 networks, 1 for blackholing).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::asn::Asn;
use crate::error::ParseError;

/// A classic RFC 1997 32-bit community, displayed as `high:low`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Community(pub u32);

impl Community {
    /// Well-known `NO_EXPORT` (RFC 1997): do not advertise outside the AS.
    ///
    /// RFC 7999 *requires* blackhole announcements to carry this — the paper
    /// finds many networks do not comply (§5.2, §9).
    pub const NO_EXPORT: Community = Community(0xFFFF_FF01);
    /// Well-known `NO_ADVERTISE` (RFC 1997).
    pub const NO_ADVERTISE: Community = Community(0xFFFF_FF02);
    /// Well-known `NO_EXPORT_SUBCONFED` (RFC 1997).
    pub const NO_EXPORT_SUBCONFED: Community = Community(0xFFFF_FF03);
    /// RFC 7999 `BLACKHOLE` community, `65535:666`. Adopted by 47 of the 49
    /// IXPs in the paper's dictionary.
    pub const BLACKHOLE: Community = Community(0xFFFF_029A);

    /// Build a community from `asn:value` halves.
    pub const fn from_parts(asn: u16, value: u16) -> Self {
        Community(((asn as u32) << 16) | value as u32)
    }

    /// The high 16 bits, conventionally an ASN.
    pub const fn asn_part(self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The low 16 bits, the operator-defined value.
    pub const fn value_part(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }

    /// The high 16 bits as an [`Asn`].
    pub const fn asn(self) -> Asn {
        Asn::new(self.asn_part() as u32)
    }

    /// Does the high half name a public ASN? Communities like `65535:666`
    /// or `0:666` fail this test and need provider disambiguation via the
    /// AS path (§4.2).
    pub fn has_public_asn(self) -> bool {
        self.asn().is_public()
    }

    /// Is this one of the four RFC 1997 / RFC 7999 well-known communities?
    pub fn is_well_known(self) -> bool {
        matches!(
            self,
            Community::NO_EXPORT
                | Community::NO_ADVERTISE
                | Community::NO_EXPORT_SUBCONFED
                | Community::BLACKHOLE
        )
    }

    /// Raw 32-bit value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.asn_part(), self.value_part())
    }
}

impl FromStr for Community {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (hi, lo) = s
            .split_once(':')
            .ok_or_else(|| ParseError::new(format!("missing ':' in community {s:?}")))?;
        let hi: u16 =
            hi.parse().map_err(|_| ParseError::new(format!("bad high half in community {s:?}")))?;
        let lo: u16 =
            lo.parse().map_err(|_| ParseError::new(format!("bad low half in community {s:?}")))?;
        Ok(Community::from_parts(hi, lo))
    }
}

/// An RFC 4360 extended community (8 bytes: type, subtype, 6 value bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ExtendedCommunity {
    /// High-order type byte (IANA transitive/non-transitive etc.).
    pub type_high: u8,
    /// Sub-type byte.
    pub type_low: u8,
    /// Six value bytes.
    pub value: [u8; 6],
}

impl ExtendedCommunity {
    /// Two-octet-AS-specific extended community (type 0x00), the common
    /// shape for operators who moved their tagging to extended communities.
    pub fn two_octet_as(asn: u16, local: u32, subtype: u8) -> Self {
        let mut value = [0u8; 6];
        value[..2].copy_from_slice(&asn.to_be_bytes());
        value[2..].copy_from_slice(&local.to_be_bytes());
        ExtendedCommunity { type_high: 0x00, type_low: subtype, value }
    }

    /// Raw 8-byte encoding.
    pub fn to_bytes(self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[0] = self.type_high;
        out[1] = self.type_low;
        out[2..].copy_from_slice(&self.value);
        out
    }

    /// Decode from 8 bytes.
    pub fn from_bytes(b: [u8; 8]) -> Self {
        let mut value = [0u8; 6];
        value.copy_from_slice(&b[2..]);
        ExtendedCommunity { type_high: b[0], type_low: b[1], value }
    }
}

impl fmt::Display for ExtendedCommunity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ext:{:02x}{:02x}", self.type_high, self.type_low)?;
        for b in self.value {
            write!(f, ":{b:02x}")?;
        }
        Ok(())
    }
}

/// An RFC 8092 large community: `GlobalAdmin:LocalData1:LocalData2`,
/// each 32 bits — introduced for 32-bit ASNs. One network in the paper's
/// dictionary blackholes with these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LargeCommunity {
    /// Global administrator, conventionally the operator's (32-bit) ASN.
    pub global_admin: u32,
    /// First local data part.
    pub local_1: u32,
    /// Second local data part.
    pub local_2: u32,
}

impl LargeCommunity {
    /// Construct from the three parts.
    pub const fn new(global_admin: u32, local_1: u32, local_2: u32) -> Self {
        LargeCommunity { global_admin, local_1, local_2 }
    }

    /// The global administrator as an ASN.
    pub const fn asn(self) -> Asn {
        Asn::new(self.global_admin)
    }
}

impl fmt::Display for LargeCommunity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.global_admin, self.local_1, self.local_2)
    }
}

impl FromStr for LargeCommunity {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        let mut next = |what| {
            parts
                .next()
                .ok_or_else(|| ParseError::new(format!("large community {s:?} missing {what}")))?
                .parse::<u32>()
                .map_err(|_| ParseError::new(format!("bad {what} in large community {s:?}")))
        };
        let ga = next("global admin")?;
        let l1 = next("local data 1")?;
        let l2 = next("local data 2")?;
        if parts.next().is_some() {
            return Err(ParseError::new(format!("too many parts in large community {s:?}")));
        }
        Ok(LargeCommunity::new(ga, l1, l2))
    }
}

/// Any of the three community families on one announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AnyCommunity {
    /// Classic RFC 1997.
    Classic(Community),
    /// RFC 4360 extended.
    Extended(ExtendedCommunity),
    /// RFC 8092 large.
    Large(LargeCommunity),
}

impl fmt::Display for AnyCommunity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnyCommunity::Classic(c) => c.fmt(f),
            AnyCommunity::Extended(c) => c.fmt(f),
            AnyCommunity::Large(c) => c.fmt(f),
        }
    }
}

impl From<Community> for AnyCommunity {
    fn from(c: Community) -> Self {
        AnyCommunity::Classic(c)
    }
}

impl From<LargeCommunity> for AnyCommunity {
    fn from(c: LargeCommunity) -> Self {
        AnyCommunity::Large(c)
    }
}

impl From<ExtendedCommunity> for AnyCommunity {
    fn from(c: ExtendedCommunity) -> Self {
        AnyCommunity::Extended(c)
    }
}

/// Shared community storage plus a memoized content hash. Equality and
/// hashing are defined purely over the three sorted vectors, so two
/// inners with equal content are interchangeable.
#[derive(Debug, Default)]
struct SetInner {
    classic: Vec<Community>,
    large: Vec<LargeCommunity>,
    extended: Vec<ExtendedCommunity>,
    hash: OnceLock<u64>,
}

impl SetInner {
    /// Clone the content with a fresh (unpopulated) hash cache.
    fn copy_content(&self) -> SetInner {
        SetInner {
            classic: self.classic.clone(),
            large: self.large.clone(),
            extended: self.extended.clone(),
            hash: OnceLock::new(),
        }
    }
}

fn empty_set_inner() -> Arc<SetInner> {
    static EMPTY: OnceLock<Arc<SetInner>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(SetInner::default())).clone()
}

/// The set of communities attached to one announcement.
///
/// Kept as small sorted vectors: announcements carry few communities, and
/// deterministic iteration order keeps the whole pipeline reproducible.
///
/// Like [`crate::AsPath`], the storage lives behind an [`Arc`]: cloning
/// (done per element by the merge heap and the per-prefix fan-out)
/// bumps a reference count, mutation is
/// copy-on-write, and the content hash is memoized per allocation so
/// repeated hashing (census maps, interning) is O(1) after the first.
#[derive(Clone)]
pub struct CommunitySet {
    inner: Arc<SetInner>,
}

impl Default for CommunitySet {
    fn default() -> Self {
        CommunitySet::new()
    }
}

impl CommunitySet {
    /// Empty set. Shares one static allocation, so the per-withdrawal
    /// empty set is free.
    pub fn new() -> Self {
        CommunitySet { inner: empty_set_inner() }
    }

    /// Build from classic communities.
    pub fn from_classic(mut communities: Vec<Community>) -> Self {
        communities.sort_unstable();
        communities.dedup();
        if communities.is_empty() {
            return CommunitySet::new();
        }
        CommunitySet { inner: Arc::new(SetInner { classic: communities, ..SetInner::default() }) }
    }

    /// Copy-on-write access for the mutators: splits off a private copy
    /// if the allocation is shared, and invalidates the memoized hash
    /// either way (the caller is about to change the content).
    fn make_mut(&mut self) -> &mut SetInner {
        if Arc::get_mut(&mut self.inner).is_none() {
            self.inner = Arc::new(self.inner.copy_content());
        }
        let inner = Arc::get_mut(&mut self.inner).expect("just made unique");
        inner.hash = OnceLock::new();
        inner
    }

    /// Do two handles share one allocation? (True after a `clone`, or
    /// when both came from the same intern-table entry.)
    pub fn shares_allocation(&self, other: &CommunitySet) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Insert a classic community (idempotent, keeps sort order).
    pub fn insert(&mut self, c: Community) {
        if self.contains(c) {
            return;
        }
        let inner = self.make_mut();
        if let Err(pos) = inner.classic.binary_search(&c) {
            inner.classic.insert(pos, c);
        }
    }

    /// Insert a large community.
    pub fn insert_large(&mut self, c: LargeCommunity) {
        if self.contains_large(c) {
            return;
        }
        let inner = self.make_mut();
        if let Err(pos) = inner.large.binary_search(&c) {
            inner.large.insert(pos, c);
        }
    }

    /// Insert an extended community.
    pub fn insert_extended(&mut self, c: ExtendedCommunity) {
        if self.inner.extended.binary_search(&c).is_ok() {
            return;
        }
        let inner = self.make_mut();
        if let Err(pos) = inner.extended.binary_search(&c) {
            inner.extended.insert(pos, c);
        }
    }

    /// Remove a classic community; returns whether it was present.
    pub fn remove(&mut self, c: Community) -> bool {
        if !self.contains(c) {
            return false;
        }
        let inner = self.make_mut();
        match inner.classic.binary_search(&c) {
            Ok(pos) => {
                inner.classic.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Does the set contain this classic community?
    pub fn contains(&self, c: Community) -> bool {
        self.inner.classic.binary_search(&c).is_ok()
    }

    /// Does the set contain this large community?
    pub fn contains_large(&self, c: LargeCommunity) -> bool {
        self.inner.large.binary_search(&c).is_ok()
    }

    /// Does the announcement carry `NO_EXPORT`?
    pub fn has_no_export(&self) -> bool {
        self.contains(Community::NO_EXPORT)
    }

    /// Iterate classic communities in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = Community> + '_ {
        self.inner.classic.iter().copied()
    }

    /// Iterate large communities in sorted order.
    pub fn iter_large(&self) -> impl Iterator<Item = LargeCommunity> + '_ {
        self.inner.large.iter().copied()
    }

    /// Iterate extended communities in sorted order.
    pub fn iter_extended(&self) -> impl Iterator<Item = ExtendedCommunity> + '_ {
        self.inner.extended.iter().copied()
    }

    /// Iterate over every community as [`AnyCommunity`].
    pub fn iter_all(&self) -> impl Iterator<Item = AnyCommunity> + '_ {
        self.inner
            .classic
            .iter()
            .copied()
            .map(AnyCommunity::Classic)
            .chain(self.inner.large.iter().copied().map(AnyCommunity::Large))
            .chain(self.inner.extended.iter().copied().map(AnyCommunity::Extended))
    }

    /// Number of classic communities.
    pub fn len(&self) -> usize {
        self.inner.classic.len()
    }

    /// Total number of communities of all families.
    pub fn total_len(&self) -> usize {
        self.inner.classic.len() + self.inner.large.len() + self.inner.extended.len()
    }

    /// Is the set completely empty?
    pub fn is_empty(&self) -> bool {
        self.inner.classic.is_empty()
            && self.inner.large.is_empty()
            && self.inner.extended.is_empty()
    }

    /// Retain only classic communities satisfying the predicate —
    /// the primitive behind provider-side community stripping.
    pub fn retain(&mut self, mut f: impl FnMut(&Community) -> bool) {
        if self.inner.classic.iter().all(&mut f) {
            return; // nothing to strip — keep sharing the allocation
        }
        self.make_mut().classic.retain(f);
    }

    /// Union with another set (classic + large + extended).
    pub fn merge(&mut self, other: &CommunitySet) {
        if self.shares_allocation(other) {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        for c in other.iter() {
            self.insert(c);
        }
        for c in other.iter_large() {
            self.insert_large(c);
        }
        for c in other.iter_extended() {
            self.insert_extended(c);
        }
    }

    /// The memoized content hash: a deterministic hash of all three
    /// families, computed once per allocation. `Hash` forwards to this.
    pub fn content_hash(&self) -> u64 {
        *self.inner.hash.get_or_init(|| {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            self.inner.classic.hash(&mut hasher);
            self.inner.large.hash(&mut hasher);
            self.inner.extended.hash(&mut hasher);
            hasher.finish()
        })
    }
}

impl PartialEq for CommunitySet {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
            || (self.inner.classic == other.inner.classic
                && self.inner.large == other.inner.large
                && self.inner.extended == other.inner.extended)
    }
}

impl Eq for CommunitySet {}

impl Hash for CommunitySet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.content_hash());
    }
}

impl fmt::Debug for CommunitySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommunitySet")
            .field("classic", &self.inner.classic)
            .field("large", &self.inner.large)
            .field("extended", &self.inner.extended)
            .finish()
    }
}

impl FromIterator<Community> for CommunitySet {
    fn from_iter<T: IntoIterator<Item = Community>>(iter: T) -> Self {
        CommunitySet::from_classic(iter.into_iter().collect())
    }
}

impl fmt::Display for CommunitySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for c in self.iter_all() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_parts_round_trip() {
        let c = Community::from_parts(3356, 9999);
        assert_eq!(c.asn_part(), 3356);
        assert_eq!(c.value_part(), 9999);
        assert_eq!(c.to_string(), "3356:9999");
        assert_eq!("3356:9999".parse::<Community>().unwrap(), c);
    }

    #[test]
    fn blackhole_constant_is_rfc7999() {
        assert_eq!(Community::BLACKHOLE.to_string(), "65535:666");
        assert_eq!("65535:666".parse::<Community>().unwrap(), Community::BLACKHOLE);
        assert!(Community::BLACKHOLE.is_well_known());
        assert!(!Community::BLACKHOLE.has_public_asn());
    }

    #[test]
    fn no_export_constant() {
        assert_eq!(Community::NO_EXPORT.asn_part(), 65535);
        assert_eq!(Community::NO_EXPORT.value_part(), 0xFF01);
        assert!(Community::NO_EXPORT.is_well_known());
    }

    #[test]
    fn public_asn_detection() {
        assert!(Community::from_parts(3356, 666).has_public_asn());
        assert!(!Community::from_parts(0, 666).has_public_asn());
        assert!(!Community::from_parts(65535, 666).has_public_asn());
        assert!(!Community::from_parts(64512, 666).has_public_asn());
    }

    #[test]
    fn parse_rejects_bad_communities() {
        assert!("3356".parse::<Community>().is_err());
        assert!("foo:666".parse::<Community>().is_err());
        assert!("3356:bar".parse::<Community>().is_err());
        assert!("70000:1".parse::<Community>().is_err()); // >16-bit half
    }

    #[test]
    fn large_community_round_trip() {
        let c = LargeCommunity::new(196_608, 666, 0);
        assert_eq!(c.to_string(), "196608:666:0");
        assert_eq!("196608:666:0".parse::<LargeCommunity>().unwrap(), c);
        assert!("1:2".parse::<LargeCommunity>().is_err());
        assert!("1:2:3:4".parse::<LargeCommunity>().is_err());
    }

    #[test]
    fn extended_community_bytes_round_trip() {
        let c = ExtendedCommunity::two_octet_as(3356, 666, 0x02);
        let bytes = c.to_bytes();
        assert_eq!(ExtendedCommunity::from_bytes(bytes), c);
        assert_eq!(bytes[0], 0x00);
        assert_eq!(bytes[1], 0x02);
        assert_eq!(u16::from_be_bytes([bytes[2], bytes[3]]), 3356);
    }

    #[test]
    fn set_insert_is_sorted_and_deduped() {
        let mut set = CommunitySet::new();
        set.insert(Community::from_parts(20, 1));
        set.insert(Community::from_parts(10, 1));
        set.insert(Community::from_parts(20, 1));
        let v: Vec<_> = set.iter().collect();
        assert_eq!(v, vec![Community::from_parts(10, 1), Community::from_parts(20, 1)]);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn set_contains_and_remove() {
        let mut set: CommunitySet =
            vec![Community::from_parts(1, 1), Community::from_parts(2, 2)].into_iter().collect();
        assert!(set.contains(Community::from_parts(1, 1)));
        assert!(set.remove(Community::from_parts(1, 1)));
        assert!(!set.contains(Community::from_parts(1, 1)));
        assert!(!set.remove(Community::from_parts(1, 1)));
    }

    #[test]
    fn set_merge_unions_families() {
        let mut a = CommunitySet::from_classic(vec![Community::from_parts(1, 1)]);
        let mut b = CommunitySet::from_classic(vec![Community::from_parts(2, 2)]);
        b.insert_large(LargeCommunity::new(1, 2, 3));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert!(a.contains_large(LargeCommunity::new(1, 2, 3)));
        assert_eq!(a.total_len(), 3);
    }

    #[test]
    fn set_retain_strips() {
        let mut set: CommunitySet = vec![
            Community::from_parts(3356, 666),
            Community::from_parts(3356, 9999),
            Community::BLACKHOLE,
        ]
        .into_iter()
        .collect();
        set.retain(|c| c.value_part() != 9999);
        assert!(!set.contains(Community::from_parts(3356, 9999)));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_set() {
        let mut set = CommunitySet::from_classic(vec![
            Community::from_parts(2, 2),
            Community::from_parts(1, 1),
        ]);
        set.insert_large(LargeCommunity::new(9, 9, 9));
        assert_eq!(set.to_string(), "1:1 2:2 9:9:9");
    }

    #[test]
    fn iter_all_covers_every_family() {
        let mut set = CommunitySet::new();
        set.insert(Community::from_parts(1, 1));
        set.insert_large(LargeCommunity::new(2, 2, 2));
        set.insert_extended(ExtendedCommunity::two_octet_as(3, 3, 0));
        assert_eq!(set.iter_all().count(), 3);
        assert!(!set.is_empty());
    }

    #[test]
    fn clone_is_shared_and_cow_isolates_mutation() {
        let a = CommunitySet::from_classic(vec![Community::BLACKHOLE]);
        let b = a.clone();
        assert!(a.shares_allocation(&b));
        let mut c = b.clone();
        c.insert(Community::NO_EXPORT);
        assert!(!c.shares_allocation(&a));
        assert_eq!(a.len(), 1, "COW must not leak into siblings");
        assert_eq!(c.len(), 2);
        // No-op mutations keep sharing the allocation.
        let mut d = a.clone();
        d.insert(Community::BLACKHOLE);
        d.retain(|_| true);
        assert!(!d.remove(Community::NO_ADVERTISE));
        d.merge(&a);
        assert!(d.shares_allocation(&a));
    }

    #[test]
    fn equal_sets_hash_equal_regardless_of_provenance() {
        let a = CommunitySet::from_classic(vec![
            Community::from_parts(2, 2),
            Community::from_parts(1, 1),
        ]);
        let mut b = CommunitySet::new();
        b.insert(Community::from_parts(1, 1));
        b.insert(Community::from_parts(2, 2));
        assert!(!a.shares_allocation(&b));
        assert_eq!(a, b);
        assert_eq!(a.content_hash(), b.content_hash());
        // The lazy hash memo is interior mutability that never affects
        // Eq/Hash, so CommunitySet is a sound HashSet key despite the lint.
        #[allow(clippy::mutable_key_type)]
        let mut seen = std::collections::HashSet::new();
        seen.insert(a);
        assert!(seen.contains(&b));
        // All empty sets share the static allocation.
        assert!(CommunitySet::new().shares_allocation(&CommunitySet::default()));
        assert!(CommunitySet::from_classic(Vec::new()).shares_allocation(&CommunitySet::new()));
    }
}
