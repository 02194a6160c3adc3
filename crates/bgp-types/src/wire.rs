//! Binary wire codec for BGP UPDATE messages (RFC 4271, AS4 paths per
//! RFC 6793).
//!
//! This is the payload layer of the `bh-mrt` MRT writer/reader: the
//! simulator serializes every routing event into genuine BGP wire bytes
//! wrapped in MRT `BGP4MP_MESSAGE_AS4` records, so the inference pipeline
//! parses the same byte format it would parse from RouteViews/RIS archives.
//!
//! Scope (explicit, smoltcp-style):
//! * Encoded: ORIGIN, AS_PATH (4-byte ASNs), NEXT_HOP, MED, LOCAL_PREF,
//!   ATOMIC_AGGREGATE, AGGREGATOR, COMMUNITIES, EXTENDED/LARGE COMMUNITIES,
//!   IPv4 NLRI + withdrawals.
//! * Not encoded: MP_REACH/MP_UNREACH (IPv6 NLRI travels through the
//!   structured model, not the wire), ADD-PATH, attribute fragmentation.
//! * Unknown attributes are skipped on decode (tolerant reader), matching
//!   how measurement pipelines must treat arbitrary archive data.

use std::net::{IpAddr, Ipv4Addr};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::as_path::{AsPath, AsPathSegment};
use crate::asn::Asn;
use crate::attrs::{type_code, Origin, PathAttributes};
use crate::community::{Community, ExtendedCommunity, LargeCommunity};
use crate::error::CodecError;
use crate::prefix::Ipv4Prefix;
use crate::update::BgpUpdate;

/// BGP message types (header `type` octet).
pub mod msg_type {
    /// OPEN.
    pub const OPEN: u8 = 1;
    /// UPDATE.
    pub const UPDATE: u8 = 2;
    /// NOTIFICATION.
    pub const NOTIFICATION: u8 = 3;
    /// KEEPALIVE.
    pub const KEEPALIVE: u8 = 4;
}

/// Length of the fixed BGP message header (marker + length + type).
pub const BGP_HEADER_LEN: usize = 19;

/// Maximum BGP message size (RFC 4271).
pub const BGP_MAX_MESSAGE_LEN: usize = 4096;

const ATTR_FLAG_OPTIONAL: u8 = 0x80;
const ATTR_FLAG_TRANSITIVE: u8 = 0x40;
const ATTR_FLAG_EXTENDED_LEN: u8 = 0x10;

/// Encode one IPv4 NLRI element: length octet + minimal network bytes.
pub fn encode_nlri(buf: &mut BytesMut, prefix: &Ipv4Prefix) {
    buf.put_u8(prefix.length());
    let octets = prefix.network().octets();
    let nbytes = prefix.length().div_ceil(8) as usize;
    buf.put_slice(&octets[..nbytes]);
}

/// Decode one IPv4 NLRI element.
pub fn decode_nlri(buf: &mut Bytes) -> Result<Ipv4Prefix, CodecError> {
    CodecError::ensure("nlri length", buf.remaining(), 1)?;
    let len = buf.get_u8();
    if len > 32 {
        return Err(CodecError::BadLength { what: "nlri prefix length", value: len as usize });
    }
    let nbytes = len.div_ceil(8) as usize;
    CodecError::ensure("nlri network", buf.remaining(), nbytes)?;
    let mut octets = [0u8; 4];
    buf.copy_to_slice(&mut octets[..nbytes]);
    Ok(Ipv4Prefix::from_raw(u32::from_be_bytes(octets), len))
}

fn put_attr_header(buf: &mut BytesMut, flags: u8, code: u8, len: usize) -> Result<(), CodecError> {
    if len > 255 {
        let len = CodecError::fit_u16("path attribute", len)?;
        buf.put_u8(flags | ATTR_FLAG_EXTENDED_LEN);
        buf.put_u8(code);
        buf.put_u16(len);
    } else {
        buf.put_u8(flags);
        buf.put_u8(code);
        buf.put_u8(len as u8);
    }
    Ok(())
}

fn encode_as_path(path: &AsPath) -> BytesMut {
    let mut body = BytesMut::new();
    for seg in path.segments() {
        let asns = seg.asns();
        // RFC limits a segment to 255 ASNs; split long prepends.
        for chunk in asns.chunks(255) {
            body.put_u8(seg.type_code());
            body.put_u8(chunk.len() as u8);
            for asn in chunk {
                body.put_u32(asn.value());
            }
        }
    }
    body
}

fn decode_as_path(mut body: Bytes) -> Result<AsPath, CodecError> {
    let mut segments = Vec::new();
    while body.has_remaining() {
        CodecError::ensure("as-path segment header", body.remaining(), 2)?;
        let seg_type = body.get_u8();
        let count = body.get_u8() as usize;
        CodecError::ensure("as-path segment body", body.remaining(), count * 4)?;
        let mut asns = Vec::with_capacity(count);
        for _ in 0..count {
            asns.push(Asn::new(body.get_u32()));
        }
        match seg_type {
            1 => segments.push(AsPathSegment::Set(asns)),
            2 => segments.push(AsPathSegment::Sequence(asns)),
            other => {
                return Err(CodecError::BadValue {
                    what: "as-path segment type",
                    value: other as u64,
                })
            }
        }
    }
    // Merge adjacent sequences produced by chunking on encode.
    let mut merged: Vec<AsPathSegment> = Vec::with_capacity(segments.len());
    for seg in segments {
        match (merged.last_mut(), seg) {
            (Some(AsPathSegment::Sequence(tail)), AsPathSegment::Sequence(next)) => {
                tail.extend(next);
            }
            (_, seg) => merged.push(seg),
        }
    }
    Ok(AsPath::from_segments(merged))
}

/// Encode the path attributes section (without the leading 2-byte total
/// length, which belongs to the UPDATE body). Fails with
/// [`CodecError::TooLong`] if one attribute exceeds the 65,535 bytes its
/// extended length field can carry.
pub fn encode_attributes(attrs: &PathAttributes) -> Result<BytesMut, CodecError> {
    let mut out = BytesMut::new();
    let wk = ATTR_FLAG_TRANSITIVE; // well-known mandatory
    let opt = ATTR_FLAG_OPTIONAL | ATTR_FLAG_TRANSITIVE;

    put_attr_header(&mut out, wk, type_code::ORIGIN, 1)?;
    out.put_u8(attrs.origin.code());

    let path = encode_as_path(&attrs.as_path);
    put_attr_header(&mut out, wk, type_code::AS_PATH, path.len())?;
    out.put_slice(&path);

    if let Some(IpAddr::V4(nh)) = attrs.next_hop {
        put_attr_header(&mut out, wk, type_code::NEXT_HOP, 4)?;
        out.put_slice(&nh.octets());
    }

    if let Some(med) = attrs.med {
        put_attr_header(&mut out, ATTR_FLAG_OPTIONAL, type_code::MED, 4)?;
        out.put_u32(med);
    }

    if let Some(lp) = attrs.local_pref {
        put_attr_header(&mut out, wk, type_code::LOCAL_PREF, 4)?;
        out.put_u32(lp);
    }

    if attrs.atomic_aggregate {
        put_attr_header(&mut out, wk, type_code::ATOMIC_AGGREGATE, 0)?;
    }

    if let Some((asn, id)) = attrs.aggregator {
        put_attr_header(&mut out, opt, type_code::AGGREGATOR, 8)?;
        out.put_u32(asn.value());
        out.put_slice(&id.octets());
    }

    if !attrs.communities.is_empty() {
        put_attr_header(&mut out, opt, type_code::COMMUNITIES, attrs.communities.len() * 4)?;
        for c in attrs.communities.iter() {
            out.put_u32(c.raw());
        }
    }

    let ext: Vec<ExtendedCommunity> = attrs.communities.iter_extended().collect();
    if !ext.is_empty() {
        put_attr_header(&mut out, opt, type_code::EXTENDED_COMMUNITIES, ext.len() * 8)?;
        for c in ext {
            out.put_slice(&c.to_bytes());
        }
    }

    let large: Vec<LargeCommunity> = attrs.communities.iter_large().collect();
    if !large.is_empty() {
        put_attr_header(&mut out, opt, type_code::LARGE_COMMUNITIES, large.len() * 12)?;
        for c in large {
            out.put_u32(c.global_admin);
            out.put_u32(c.local_1);
            out.put_u32(c.local_2);
        }
    }

    Ok(out)
}

/// Decode a path attributes section.
pub fn decode_attributes(mut buf: Bytes) -> Result<PathAttributes, CodecError> {
    let mut attrs = PathAttributes::default();
    let mut seen = [false; 256];
    while buf.has_remaining() {
        CodecError::ensure("attribute header", buf.remaining(), 3)?;
        let flags = buf.get_u8();
        let code = buf.get_u8();
        let len = if flags & ATTR_FLAG_EXTENDED_LEN != 0 {
            CodecError::ensure("attribute extended length", buf.remaining(), 2)?;
            buf.get_u16() as usize
        } else {
            buf.get_u8() as usize
        };
        CodecError::ensure("attribute body", buf.remaining(), len)?;
        if seen[code as usize] {
            return Err(CodecError::DuplicateAttribute(code));
        }
        seen[code as usize] = true;
        let mut body = buf.split_to(len);
        match code {
            type_code::ORIGIN => {
                CodecError::ensure("origin", body.remaining(), 1)?;
                let v = body.get_u8();
                attrs.origin = Origin::from_code(v)
                    .ok_or(CodecError::BadValue { what: "origin", value: v as u64 })?;
            }
            type_code::AS_PATH => {
                attrs.as_path = decode_as_path(body)?;
            }
            type_code::NEXT_HOP => {
                CodecError::ensure("next hop", body.remaining(), 4)?;
                let mut octets = [0u8; 4];
                body.copy_to_slice(&mut octets);
                attrs.next_hop = Some(IpAddr::V4(Ipv4Addr::from(octets)));
            }
            type_code::MED => {
                CodecError::ensure("med", body.remaining(), 4)?;
                attrs.med = Some(body.get_u32());
            }
            type_code::LOCAL_PREF => {
                CodecError::ensure("local pref", body.remaining(), 4)?;
                attrs.local_pref = Some(body.get_u32());
            }
            type_code::ATOMIC_AGGREGATE => {
                attrs.atomic_aggregate = true;
            }
            type_code::AGGREGATOR => {
                CodecError::ensure("aggregator", body.remaining(), 8)?;
                let asn = Asn::new(body.get_u32());
                let mut octets = [0u8; 4];
                body.copy_to_slice(&mut octets);
                attrs.aggregator = Some((asn, Ipv4Addr::from(octets)));
            }
            type_code::COMMUNITIES => {
                if len % 4 != 0 {
                    return Err(CodecError::BadLength { what: "communities", value: len });
                }
                while body.has_remaining() {
                    attrs.communities.insert(Community(body.get_u32()));
                }
            }
            type_code::EXTENDED_COMMUNITIES => {
                if len % 8 != 0 {
                    return Err(CodecError::BadLength { what: "extended communities", value: len });
                }
                while body.has_remaining() {
                    let mut raw = [0u8; 8];
                    body.copy_to_slice(&mut raw);
                    attrs.communities.insert_extended(ExtendedCommunity::from_bytes(raw));
                }
            }
            type_code::LARGE_COMMUNITIES => {
                if len % 12 != 0 {
                    return Err(CodecError::BadLength { what: "large communities", value: len });
                }
                while body.has_remaining() {
                    let c = LargeCommunity::new(body.get_u32(), body.get_u32(), body.get_u32());
                    attrs.communities.insert_large(c);
                }
            }
            _ => {
                // Tolerant reader: unknown attribute, skip.
            }
        }
    }
    Ok(attrs)
}

/// How many distinct attribute blocks [`AttrCache`] holds before it resets.
///
/// Real archive streams repeat a small working set of attribute blocks
/// (one per active path), so a few thousand entries cover a collector dump;
/// the flush-on-full policy keeps the worst case (adversarially unique
/// blocks) at a bounded memory cost with no LRU bookkeeping on the hot path.
pub const ATTR_CACHE_CAP: usize = 4096;

/// A memo table for decoded attribute blocks.
///
/// BGP UPDATE streams are heavily repetitive: the same serialized attribute
/// block (path + communities + next hop) arrives once per announced prefix.
/// The cache keys on the *raw attribute bytes* — an O(1)-sliced [`Bytes`]
/// view of the archive buffer, hashed by content — and stores the decoded
/// [`PathAttributes`]. Because `AsPath` and `CommunitySet` are Arc-backed
/// handles, a cache hit clones in O(1) and every element decoded from the
/// same block *shares* one allocation, which is what makes downstream
/// interning and hashing cheap.
#[derive(Debug, Default)]
pub struct AttrCache {
    map: crate::hash::FxHashMap<Bytes, PathAttributes>,
    hits: u64,
    misses: u64,
}

impl AttrCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cache hits so far (attribute blocks served without re-decoding).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far (attribute blocks actually decoded).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of distinct attribute blocks currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Decode `raw`, serving repeats from the memo table.
    pub fn decode(&mut self, raw: Bytes) -> Result<PathAttributes, CodecError> {
        if let Some(hit) = self.map.get(&raw) {
            self.hits += 1;
            return Ok(hit.clone());
        }
        let attrs = decode_attributes(raw.clone())?;
        self.misses += 1;
        if self.map.len() >= ATTR_CACHE_CAP {
            self.map.clear();
        }
        self.map.insert(raw, attrs.clone());
        Ok(attrs)
    }
}

/// Encode a full BGP UPDATE *message* (header + body) for the IPv4 routes
/// of `update`. IPv6 routes are ignored by this wire path (see module docs).
///
/// Fails with [`CodecError::TooLong`] when the withdrawn routes, the path
/// attributes or the whole message exceed the 65,535 bytes their 2-byte
/// length fields can carry. Note that [`decode_update_message`] accepts
/// at most [`BGP_MAX_MESSAGE_LEN`] bytes.
pub fn encode_update_message(update: &BgpUpdate) -> Result<BytesMut, CodecError> {
    let mut body = BytesMut::new();

    // Withdrawn routes.
    let mut withdrawn = BytesMut::new();
    for p in update.withdrawn_v4() {
        encode_nlri(&mut withdrawn, p);
    }
    body.put_u16(CodecError::fit_u16("withdrawn routes", withdrawn.len())?);
    body.put_slice(&withdrawn);

    // Path attributes (only when there are announcements).
    if update.announced_v4().next().is_some() {
        let attrs = encode_attributes(&update.attrs)?;
        body.put_u16(CodecError::fit_u16("path attributes", attrs.len())?);
        body.put_slice(&attrs);
        for p in update.announced_v4() {
            encode_nlri(&mut body, p);
        }
    } else {
        body.put_u16(0);
    }

    let len = CodecError::fit_u16("bgp message", BGP_HEADER_LEN + body.len())?;
    let mut msg = BytesMut::with_capacity(BGP_HEADER_LEN + body.len());
    msg.put_slice(&[0xFF; 16]); // marker
    msg.put_u16(len);
    msg.put_u8(msg_type::UPDATE);
    msg.put_slice(&body);
    Ok(msg)
}

/// Decode a full BGP UPDATE message (header + body) back into a
/// [`BgpUpdate`]. Returns `Ok(None)` for non-UPDATE messages (KEEPALIVEs
/// inside archives are legal and skipped).
pub fn decode_update_message(buf: Bytes) -> Result<Option<BgpUpdate>, CodecError> {
    decode_update_message_cached(buf, None)
}

/// [`decode_update_message`] with an optional [`AttrCache`] memoizing the
/// attribute-block decode. `decode_update_message(b)` is exactly
/// `decode_update_message_cached(b, None)`; passing a cache changes only
/// *sharing* (equal blocks yield Arc-shared `PathAttributes`), never the
/// decoded values.
pub fn decode_update_message_cached(
    mut buf: Bytes,
    cache: Option<&mut AttrCache>,
) -> Result<Option<BgpUpdate>, CodecError> {
    CodecError::ensure("bgp header", buf.remaining(), BGP_HEADER_LEN)?;
    if buf[..16] != [0xFF; 16] {
        return Err(CodecError::BadValue { what: "bgp marker", value: buf[0] as u64 });
    }
    buf.advance(16);
    let msg_len = buf.get_u16() as usize;
    if !(BGP_HEADER_LEN..=BGP_MAX_MESSAGE_LEN).contains(&msg_len) {
        return Err(CodecError::BadLength { what: "bgp message length", value: msg_len });
    }
    let kind = buf.get_u8();
    let body_len = msg_len - BGP_HEADER_LEN;
    CodecError::ensure("bgp body", buf.remaining(), body_len)?;
    let mut body = buf.split_to(body_len);
    if kind != msg_type::UPDATE {
        return Ok(None);
    }

    CodecError::ensure("withdrawn length", body.remaining(), 2)?;
    let withdrawn_len = body.get_u16() as usize;
    CodecError::ensure("withdrawn routes", body.remaining(), withdrawn_len)?;
    let mut withdrawn_buf = body.split_to(withdrawn_len);
    let mut withdrawn = Vec::new();
    while withdrawn_buf.has_remaining() {
        withdrawn.push(decode_nlri(&mut withdrawn_buf)?);
    }

    CodecError::ensure("attributes length", body.remaining(), 2)?;
    let attrs_len = body.get_u16() as usize;
    CodecError::ensure("attributes", body.remaining(), attrs_len)?;
    let attrs_buf = body.split_to(attrs_len);
    let attrs = if attrs_len > 0 {
        match cache {
            Some(cache) => cache.decode(attrs_buf)?,
            None => decode_attributes(attrs_buf)?,
        }
    } else {
        PathAttributes::default()
    };

    let mut update = BgpUpdate::new(attrs);
    while body.has_remaining() {
        let p = decode_nlri(&mut body)?;
        update.announce_v4(p);
    }
    for p in withdrawn {
        update.withdraw_v4(p);
    }
    Ok(Some(update))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::{Community, CommunitySet};

    fn sample_attrs() -> PathAttributes {
        let mut communities = CommunitySet::from_classic(vec![
            Community::from_parts(3356, 9999),
            Community::BLACKHOLE,
            Community::NO_EXPORT,
        ]);
        communities.insert_large(LargeCommunity::new(196_608, 666, 0));
        communities.insert_extended(ExtendedCommunity::two_octet_as(3356, 7, 2));
        PathAttributes {
            origin: Origin::Incomplete,
            as_path: "6939 3356 64500 64500".parse().unwrap(),
            next_hop: Some("192.0.2.66".parse().unwrap()),
            med: Some(50),
            local_pref: Some(120),
            atomic_aggregate: true,
            aggregator: Some((Asn::new(64500), Ipv4Addr::new(10, 0, 0, 1))),
            communities,
        }
    }

    #[test]
    fn nlri_round_trip_various_lengths() {
        for s in [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "10.20.0.0/15",
            "192.0.2.0/24",
            "192.0.2.55/32",
            "128.0.0.0/1",
        ] {
            let p: Ipv4Prefix = s.parse().unwrap();
            let mut buf = BytesMut::new();
            encode_nlri(&mut buf, &p);
            let mut bytes = buf.freeze();
            assert_eq!(decode_nlri(&mut bytes).unwrap(), p, "{s}");
            assert!(!bytes.has_remaining());
        }
    }

    #[test]
    fn nlri_rejects_bad_length() {
        let mut bytes = Bytes::from_static(&[40, 1, 2, 3, 4, 5]);
        assert!(matches!(decode_nlri(&mut bytes), Err(CodecError::BadLength { .. })));
    }

    #[test]
    fn nlri_rejects_truncation() {
        let mut bytes = Bytes::from_static(&[24, 1]);
        assert!(matches!(decode_nlri(&mut bytes), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn attributes_round_trip() {
        let attrs = sample_attrs();
        let encoded = encode_attributes(&attrs).unwrap().freeze();
        let decoded = decode_attributes(encoded).unwrap();
        assert_eq!(decoded, attrs);
    }

    #[test]
    fn attributes_reject_duplicates() {
        let attrs = PathAttributes::default();
        let mut encoded = encode_attributes(&attrs).unwrap();
        let copy = encoded.clone();
        encoded.put_slice(&copy); // every attribute duplicated
        assert!(matches!(
            decode_attributes(encoded.freeze()),
            Err(CodecError::DuplicateAttribute(_))
        ));
    }

    #[test]
    fn unknown_attributes_are_skipped() {
        let mut encoded = encode_attributes(&PathAttributes::default()).unwrap();
        // Append an unknown optional-transitive attribute (code 200).
        encoded.put_u8(0xC0);
        encoded.put_u8(200);
        encoded.put_u8(2);
        encoded.put_u16(0xBEEF);
        let decoded = decode_attributes(encoded.freeze()).unwrap();
        assert_eq!(decoded, PathAttributes::default());
    }

    #[test]
    fn long_prepend_survives_segment_chunking() {
        let mut path = AsPath::from_sequence(vec![Asn::new(64500)]);
        path.prepend(Asn::new(3356), 300); // forces 255-ASN chunk split
        let attrs = PathAttributes { as_path: path.clone(), ..Default::default() };
        let decoded = decode_attributes(encode_attributes(&attrs).unwrap().freeze()).unwrap();
        assert_eq!(decoded.as_path.asns(), path.asns());
        assert_eq!(decoded.as_path.without_prepending().to_string(), "3356 64500");
    }

    #[test]
    fn update_message_round_trip() {
        let mut update = BgpUpdate::new(sample_attrs());
        update.announce_v4("130.149.1.1/32".parse().unwrap());
        update.announce_v4("192.0.2.0/24".parse().unwrap());
        update.withdraw_v4("198.51.100.0/24".parse().unwrap());
        let encoded = encode_update_message(&update).unwrap().freeze();
        let decoded = decode_update_message(encoded).unwrap().unwrap();
        assert_eq!(decoded, update);
    }

    #[test]
    fn withdrawal_only_update_round_trip() {
        let mut update = BgpUpdate::new(PathAttributes::default());
        update.withdraw_v4("130.149.1.1/32".parse().unwrap());
        let encoded = encode_update_message(&update).unwrap().freeze();
        let decoded = decode_update_message(encoded).unwrap().unwrap();
        assert_eq!(decoded.withdrawn_v4().count(), 1);
        assert_eq!(decoded.announced_v4().count(), 0);
    }

    #[test]
    fn attr_cache_decodes_identically_and_shares_allocations() {
        let mut update = BgpUpdate::new(sample_attrs());
        update.announce_v4("192.0.2.0/24".parse().unwrap());
        let encoded = encode_update_message(&update).unwrap().freeze();

        let mut cache = AttrCache::new();
        let first =
            decode_update_message_cached(encoded.clone(), Some(&mut cache)).unwrap().unwrap();
        let second =
            decode_update_message_cached(encoded.clone(), Some(&mut cache)).unwrap().unwrap();
        let uncached = decode_update_message(encoded).unwrap().unwrap();

        assert_eq!(first, uncached, "cache must not change decoded values");
        assert_eq!(second, uncached);
        assert_eq!(cache.misses(), 1, "second decode must hit the memo table");
        assert_eq!(cache.hits(), 1);
        assert!(
            first.attrs.as_path.shares_allocation(&second.attrs.as_path),
            "cache hits must hand out Arc-shared paths"
        );
        assert!(first.attrs.communities.shares_allocation(&second.attrs.communities));
    }

    #[test]
    fn attr_cache_flushes_at_capacity() {
        let mut cache = AttrCache::new();
        for i in 0..(ATTR_CACHE_CAP + 10) {
            let attrs = PathAttributes { med: Some(i as u32), ..Default::default() };
            let raw = encode_attributes(&attrs).unwrap().freeze();
            assert_eq!(cache.decode(raw).unwrap(), attrs);
        }
        assert!(cache.len() <= ATTR_CACHE_CAP, "cache exceeded its cap");
        assert_eq!(cache.hits(), 0);
    }

    /// An attribute block of `n` classic communities.
    fn with_communities(n: u32) -> PathAttributes {
        PathAttributes {
            as_path: "64500".parse().unwrap(),
            communities: CommunitySet::from_classic((0..n).map(Community).collect()),
            ..Default::default()
        }
    }

    /// A withdrawal-only UPDATE whose encoded message is exactly `len`
    /// bytes: 23 bytes of framing, host routes of 5 bytes each, and one
    /// shorter prefix (1–5 bytes) making up the rest.
    fn withdrawals_of_message_len(len: usize) -> BgpUpdate {
        let nlri = len - BGP_HEADER_LEN - 4;
        let hosts = (nlri - 1) / 5;
        let rest = nlri - hosts * 5;
        let mut update = BgpUpdate::new(PathAttributes::default());
        for k in 0..hosts as u32 {
            update.withdraw_v4(Ipv4Prefix::from_raw(0x0A00_0000 + k, 32));
        }
        update.withdraw_v4(Ipv4Prefix::from_raw(0xC000_0200, (rest as u8 - 1) * 8));
        update
    }

    #[test]
    fn attribute_length_field_carries_65535_and_refuses_65536() {
        let mut buf = BytesMut::new();
        put_attr_header(&mut buf, 0, type_code::COMMUNITIES, 65_535).unwrap();
        assert_eq!(&buf[2..], &[0xFF, 0xFF]);
        assert_eq!(
            put_attr_header(&mut buf, 0, type_code::COMMUNITIES, 65_536),
            Err(CodecError::TooLong { what: "path attribute", len: 65_536, max: 65_535 })
        );
    }

    #[test]
    fn largest_communities_attribute_round_trips_and_one_more_is_refused() {
        // 16,383 communities fill 65,532 bytes, the largest multiple of 4
        // the extended length field carries; one more needs 65,536.
        let fits = with_communities(16_383);
        let decoded = decode_attributes(encode_attributes(&fits).unwrap().freeze()).unwrap();
        assert_eq!(decoded, fits);
        assert_eq!(
            encode_attributes(&with_communities(16_384)),
            Err(CodecError::TooLong { what: "path attribute", len: 65_536, max: 65_535 })
        );
    }

    #[test]
    fn update_message_length_field_carries_65535_and_refuses_65536() {
        let fits = encode_update_message(&withdrawals_of_message_len(65_535)).unwrap();
        assert_eq!(fits.len(), 65_535);
        assert_eq!(u16::from_be_bytes([fits[16], fits[17]]), u16::MAX);
        assert_eq!(
            encode_update_message(&withdrawals_of_message_len(65_536)),
            Err(CodecError::TooLong { what: "bgp message", len: 65_536, max: 65_535 })
        );
        // A withdrawn-routes section past its own 2-byte field.
        assert_eq!(
            encode_update_message(&withdrawals_of_message_len(65_536 + BGP_HEADER_LEN + 4)),
            Err(CodecError::TooLong { what: "withdrawn routes", len: 65_536, max: 65_535 })
        );
    }

    #[test]
    fn non_update_messages_are_skipped() {
        let mut msg = BytesMut::new();
        msg.put_slice(&[0xFF; 16]);
        msg.put_u16(BGP_HEADER_LEN as u16);
        msg.put_u8(msg_type::KEEPALIVE);
        assert_eq!(decode_update_message(msg.freeze()).unwrap(), None);
    }

    #[test]
    fn bad_marker_rejected() {
        let mut update = BgpUpdate::new(PathAttributes::default());
        update.withdraw_v4("10.0.0.0/8".parse().unwrap());
        let mut encoded = encode_update_message(&update).unwrap();
        encoded[0] = 0x00;
        assert!(decode_update_message(encoded.freeze()).is_err());
    }

    #[test]
    fn truncated_message_rejected() {
        let mut update = BgpUpdate::new(sample_attrs());
        update.announce_v4("130.149.1.1/32".parse().unwrap());
        let encoded = encode_update_message(&update).unwrap().freeze();
        for cut in [1, BGP_HEADER_LEN - 1, BGP_HEADER_LEN + 1, encoded.len() - 1] {
            let slice = encoded.slice(..cut);
            assert!(decode_update_message(slice).is_err(), "cut at {cut}");
        }
    }
}
