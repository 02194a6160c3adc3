//! MRT writer: serializes simulated collector output into archive bytes.

use std::io::Write;
use std::net::IpAddr;

use bytes::{BufMut, BytesMut};

use bh_bgp_types::asn::Asn;
use bh_bgp_types::error::CodecError;
use bh_bgp_types::time::SimTime;
use bh_bgp_types::update::BgpUpdate;
use bh_bgp_types::wire;

use crate::record::{
    bgp4mp_subtype, mrt_type, td2_subtype, BgpState, MrtError, PeerIndexTable, RibEntry,
};

/// Streaming MRT writer over any [`Write`] sink.
///
/// Emits `BGP4MP/MESSAGE_AS4`, `BGP4MP/STATE_CHANGE_AS4`, and
/// `TABLE_DUMP_V2` records with correct length framing, so the output is a
/// structurally valid MRT archive. A length that does not fit its field
/// fails the write with [`CodecError::TooLong`] (as [`MrtError::Codec`])
/// before anything reaches the sink.
pub struct MrtWriter<W: Write> {
    sink: W,
    records_written: u64,
    bytes_written: u64,
}

impl<W: Write> MrtWriter<W> {
    /// Wrap a sink.
    pub fn new(sink: W) -> Self {
        MrtWriter { sink, records_written: 0, bytes_written: 0 }
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Number of bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Consume the writer, returning the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }

    fn write_record(
        &mut self,
        timestamp: SimTime,
        mrt_ty: u16,
        subtype: u16,
        body: &[u8],
    ) -> Result<(), MrtError> {
        let mut header = BytesMut::with_capacity(12);
        header.put_u32(timestamp.unix() as u32);
        header.put_u16(mrt_ty);
        header.put_u16(subtype);
        header.put_u32(body.len() as u32);
        self.sink.write_all(&header)?;
        self.sink.write_all(body)?;
        self.records_written += 1;
        self.bytes_written += (header.len() + body.len()) as u64;
        Ok(())
    }

    fn put_addr_pair(buf: &mut BytesMut, peer_ip: IpAddr, local_ip: IpAddr) {
        // AFI + addresses. Mixed-family pairs are not representable in
        // BGP4MP; treat the peer address family as authoritative.
        match (peer_ip, local_ip) {
            (IpAddr::V4(p), IpAddr::V4(l)) => {
                buf.put_u16(1); // AFI IPv4
                buf.put_slice(&p.octets());
                buf.put_slice(&l.octets());
            }
            (IpAddr::V6(p), IpAddr::V6(l)) => {
                buf.put_u16(2); // AFI IPv6
                buf.put_slice(&p.octets());
                buf.put_slice(&l.octets());
            }
            (IpAddr::V4(p), IpAddr::V6(_)) => {
                buf.put_u16(1);
                buf.put_slice(&p.octets());
                buf.put_slice(&[0u8; 4]);
            }
            (IpAddr::V6(p), IpAddr::V4(_)) => {
                buf.put_u16(2);
                buf.put_slice(&p.octets());
                buf.put_slice(&[0u8; 16]);
            }
        }
    }

    /// Write one UPDATE as a `BGP4MP/MESSAGE_AS4` record.
    pub fn write_update(
        &mut self,
        timestamp: SimTime,
        peer_asn: Asn,
        peer_ip: IpAddr,
        local_asn: Asn,
        local_ip: IpAddr,
        update: &BgpUpdate,
    ) -> Result<(), MrtError> {
        let mut body = BytesMut::new();
        body.put_u32(peer_asn.value());
        body.put_u32(local_asn.value());
        body.put_u16(0); // interface index
        Self::put_addr_pair(&mut body, peer_ip, local_ip);
        let msg = wire::encode_update_message(update)?;
        body.put_slice(&msg);
        self.write_record(timestamp, mrt_type::BGP4MP, bgp4mp_subtype::MESSAGE_AS4, &body)
    }

    /// Write a `BGP4MP/STATE_CHANGE_AS4` record.
    #[allow(clippy::too_many_arguments)]
    pub fn write_state_change(
        &mut self,
        timestamp: SimTime,
        peer_asn: Asn,
        peer_ip: IpAddr,
        local_asn: Asn,
        local_ip: IpAddr,
        old_state: BgpState,
        new_state: BgpState,
    ) -> Result<(), MrtError> {
        let mut body = BytesMut::new();
        body.put_u32(peer_asn.value());
        body.put_u32(local_asn.value());
        body.put_u16(0);
        Self::put_addr_pair(&mut body, peer_ip, local_ip);
        body.put_u16(old_state.code());
        body.put_u16(new_state.code());
        self.write_record(timestamp, mrt_type::BGP4MP, bgp4mp_subtype::STATE_CHANGE_AS4, &body)
    }

    /// Write a `TABLE_DUMP_V2/PEER_INDEX_TABLE` record. Must precede the
    /// RIB entries that reference it.
    pub fn write_peer_index_table(
        &mut self,
        timestamp: SimTime,
        table: &PeerIndexTable,
    ) -> Result<(), MrtError> {
        let mut body = BytesMut::new();
        body.put_slice(&table.collector_id);
        let name = table.view_name.as_bytes();
        body.put_u16(CodecError::fit_u16("peer table view name", name.len())?);
        body.put_slice(name);
        body.put_u16(CodecError::fit_u16("peer table peer count", table.peers.len())?);
        for peer in &table.peers {
            // Peer type: bit 0 = IPv6 address, bit 1 = 4-byte ASN (always).
            match peer.ip {
                IpAddr::V4(v4) => {
                    body.put_u8(0b10);
                    body.put_slice(&peer.bgp_id);
                    body.put_slice(&v4.octets());
                }
                IpAddr::V6(v6) => {
                    body.put_u8(0b11);
                    body.put_slice(&peer.bgp_id);
                    body.put_slice(&v6.octets());
                }
            }
            body.put_u32(peer.asn.value());
        }
        self.write_record(timestamp, mrt_type::TABLE_DUMP_V2, td2_subtype::PEER_INDEX_TABLE, &body)
    }

    /// Write one `TABLE_DUMP_V2/RIB_IPV4_UNICAST` record.
    pub fn write_rib_entry(&mut self, timestamp: SimTime, rib: &RibEntry) -> Result<(), MrtError> {
        let mut body = BytesMut::new();
        body.put_u32(rib.sequence);
        wire::encode_nlri(&mut body, &rib.prefix);
        body.put_u16(CodecError::fit_u16("rib entry count", rib.entries.len())?);
        for entry in &rib.entries {
            body.put_u16(entry.peer_index);
            body.put_u32(entry.originated.unix() as u32);
            let attrs = wire::encode_attributes(&entry.attrs)?;
            body.put_u16(CodecError::fit_u16("rib entry attributes", attrs.len())?);
            body.put_slice(&attrs);
        }
        self.write_record(timestamp, mrt_type::TABLE_DUMP_V2, td2_subtype::RIB_IPV4_UNICAST, &body)
    }
}

#[cfg(test)]
mod tests {
    use bh_bgp_types::attrs::PathAttributes;
    use bh_bgp_types::community::{Community, CommunitySet};

    use super::*;
    use crate::read::MrtBytesReader;
    use crate::record::{MrtRecordBody, PeerEntry, RibPeerEntry};

    fn peer_table(name: &str, peers: usize) -> PeerIndexTable {
        let peer = PeerEntry::new(Asn::new(1), "10.0.0.1".parse().unwrap());
        PeerIndexTable::new([9, 9, 9, 9], name, vec![peer; peers])
    }

    fn rib(entries: Vec<RibPeerEntry>) -> RibEntry {
        RibEntry { sequence: 0, prefix: "192.0.2.0/24".parse().unwrap(), entries }
    }

    fn rib_peer(attrs: PathAttributes) -> RibPeerEntry {
        RibPeerEntry { peer_index: 0, originated: SimTime::from_unix(1), attrs }
    }

    /// Write with `write`; on success, decode the one record back.
    fn write_one(
        write: impl FnOnce(&mut MrtWriter<&mut Vec<u8>>) -> Result<(), MrtError>,
    ) -> Result<MrtRecordBody, MrtError> {
        let mut buf = Vec::new();
        let result = write(&mut MrtWriter::new(&mut buf));
        if let Err(e) = result {
            assert!(buf.is_empty(), "a refused record must not reach the sink");
            return Err(e);
        }
        Ok(MrtBytesReader::new(buf).next_record()?.expect("one record").body)
    }

    fn assert_too_long(result: Result<MrtRecordBody, MrtError>, field: &str) {
        match result {
            Err(MrtError::Codec(CodecError::TooLong { what, len: 65_536, max: 65_535 })) => {
                assert_eq!(what, field)
            }
            other => panic!("expected {field} to be refused at 65,536, got {other:?}"),
        }
    }

    #[test]
    fn peer_table_length_fields_carry_65535_and_refuse_65536() {
        let t = SimTime::from_unix(1);
        let name = "x".repeat(65_535);
        match write_one(|w| w.write_peer_index_table(t, &peer_table(&name, 1))).unwrap() {
            MrtRecordBody::PeerIndexTable(table) => assert_eq!(table.view_name, name),
            other => panic!("unexpected record {other:?}"),
        }
        let name = "x".repeat(65_536);
        let over = write_one(|w| w.write_peer_index_table(t, &peer_table(&name, 1)));
        assert_too_long(over, "peer table view name");

        match write_one(|w| w.write_peer_index_table(t, &peer_table("x", 65_535))).unwrap() {
            MrtRecordBody::PeerIndexTable(table) => assert_eq!(table.peers.len(), 65_535),
            other => panic!("unexpected record {other:?}"),
        }
        let over = write_one(|w| w.write_peer_index_table(t, &peer_table("x", 65_536)));
        assert_too_long(over, "peer table peer count");
    }

    #[test]
    fn rib_entry_count_carries_65535_and_refuses_65536() {
        let t = SimTime::from_unix(1);
        let entries = vec![rib_peer(PathAttributes::default()); 65_535];
        match write_one(|w| w.write_rib_entry(t, &rib(entries))).unwrap() {
            MrtRecordBody::RibIpv4(entry) => assert_eq!(entry.entries.len(), 65_535),
            other => panic!("unexpected record {other:?}"),
        }
        let entries = vec![rib_peer(PathAttributes::default()); 65_536];
        assert_too_long(write_one(|w| w.write_rib_entry(t, &rib(entries))), "rib entry count");
    }

    #[test]
    fn rib_attribute_length_carries_65535_and_refuses_65536() {
        let communities = |n: u32| CommunitySet::from_classic((0..n).map(Community).collect());
        // ORIGIN (4) + empty AS_PATH (3) + COMMUNITIES (4 + 4n): 65,535 at
        // n = 16,381.
        let fits = PathAttributes { communities: communities(16_381), ..Default::default() };
        assert_eq!(wire::encode_attributes(&fits).unwrap().len(), 65_535);
        let t = SimTime::from_unix(1);
        match write_one(|w| w.write_rib_entry(t, &rib(vec![rib_peer(fits.clone())]))).unwrap() {
            MrtRecordBody::RibIpv4(entry) => assert_eq!(entry.entries[0].attrs, fits),
            other => panic!("unexpected record {other:?}"),
        }
        // A one-hop AS_PATH (9) and ATOMIC_AGGREGATE (3) shift the block
        // to 65,536 at n = 16,379.
        let over = PathAttributes {
            as_path: "64500".parse().unwrap(),
            atomic_aggregate: true,
            communities: communities(16_379),
            ..Default::default()
        };
        assert_eq!(wire::encode_attributes(&over).unwrap().len(), 65_536);
        let over = write_one(|w| w.write_rib_entry(t, &rib(vec![rib_peer(over)])));
        assert_too_long(over, "rib entry attributes");
    }

    #[test]
    fn update_with_too_many_communities_is_refused() {
        let attrs = PathAttributes {
            communities: CommunitySet::from_classic((0..16_384).map(Community).collect()),
            ..Default::default()
        };
        let mut update = BgpUpdate::new(attrs);
        update.announce_v4("192.0.2.0/24".parse().unwrap());
        let ip: IpAddr = "10.0.0.1".parse().unwrap();
        let t = SimTime::from_unix(1);
        let result = write_one(|w| w.write_update(t, Asn::new(1), ip, Asn::new(2), ip, &update));
        assert_too_long(result, "path attribute");
    }

    #[test]
    fn update_longer_than_a_bgp_message_is_refused() {
        // 1,100 communities fit the attribute's length field but make a
        // message past the 4,096 bytes the decoder accepts.
        let attrs = PathAttributes {
            communities: CommunitySet::from_classic((0..1_100).map(Community).collect()),
            ..Default::default()
        };
        let mut update = BgpUpdate::new(attrs);
        update.announce_v4("192.0.2.0/24".parse().unwrap());
        let ip: IpAddr = "10.0.0.1".parse().unwrap();
        let t = SimTime::from_unix(1);
        match write_one(|w| w.write_update(t, Asn::new(1), ip, Asn::new(2), ip, &update)) {
            Err(MrtError::Codec(CodecError::TooLong {
                what: "bgp message", max: 4_096, ..
            })) => {}
            other => panic!("expected the message to be refused, got {other:?}"),
        }
    }

    #[test]
    fn writer_counts_records_and_bytes() {
        let mut buf = Vec::new();
        let mut w = MrtWriter::new(&mut buf);
        let update = BgpUpdate::withdraw("10.0.0.0/8".parse().unwrap());
        w.write_update(
            SimTime::from_unix(1),
            Asn::new(1),
            "10.0.0.1".parse().unwrap(),
            Asn::new(2),
            "10.0.0.2".parse().unwrap(),
            &update,
        )
        .unwrap();
        assert_eq!(w.records_written(), 1);
        let bytes = w.bytes_written();
        assert!(bytes > 12);
        assert_eq!(buf.len() as u64, bytes);
    }

    #[test]
    fn header_framing_is_correct() {
        let mut buf = Vec::new();
        let mut w = MrtWriter::new(&mut buf);
        let table = PeerIndexTable::new(
            [9, 9, 9, 9],
            "x",
            vec![PeerEntry::new(Asn::new(1), "10.0.0.1".parse().unwrap())],
        );
        w.write_peer_index_table(SimTime::from_unix(42), &table).unwrap();
        // timestamp
        assert_eq!(u32::from_be_bytes(buf[0..4].try_into().unwrap()), 42);
        // type / subtype
        assert_eq!(u16::from_be_bytes(buf[4..6].try_into().unwrap()), mrt_type::TABLE_DUMP_V2);
        assert_eq!(
            u16::from_be_bytes(buf[6..8].try_into().unwrap()),
            td2_subtype::PEER_INDEX_TABLE
        );
        // length matches remaining bytes
        let len = u32::from_be_bytes(buf[8..12].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - 12);
    }

    #[test]
    fn ipv6_peer_addressing_is_encoded() {
        let mut buf = Vec::new();
        let mut w = MrtWriter::new(&mut buf);
        let update = BgpUpdate::new(PathAttributes::default());
        w.write_update(
            SimTime::from_unix(1),
            Asn::new(1),
            "2001:db8::1".parse().unwrap(),
            Asn::new(2),
            "2001:db8::2".parse().unwrap(),
            &update,
        )
        .unwrap();
        // AFI field (after 4+4+2 bytes of ASNs + ifindex, 12-byte header).
        let afi = u16::from_be_bytes(buf[12 + 10..12 + 12].try_into().unwrap());
        assert_eq!(afi, 2);
    }
}
