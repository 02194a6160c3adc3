//! # bh-mrt — MRT (RFC 6396) archive reader/writer
//!
//! The paper's pipeline ingests BGP archives in MRT format (RouteViews,
//! RIPE RIS and PCH all publish MRT; BGPStream parses it). The allowed
//! dependency set has no MRT parser, so this crate implements the format
//! from scratch:
//!
//! * **BGP4MP / BGP4MP_ET** `MESSAGE_AS4` and `STATE_CHANGE_AS4` records —
//!   the "updates" files. Message payloads are genuine BGP wire bytes
//!   encoded/decoded by [`bh_bgp_types::wire`].
//! * **TABLE_DUMP_V2** `PEER_INDEX_TABLE` + `RIB_IPV4_UNICAST` records —
//!   the "rib" snapshot files used to initialize inference ("Initialization
//!   Based on BGP Table Dump", §4.2).
//!
//! Scope notes (explicit, smoltcp-style): IPv4 AFI end-to-end (the study is
//! 96.6 % IPv4 and evaluates IPv4 only); `MESSAGE` (2-byte-AS) records are
//! *read* but not written; unknown record types are surfaced as
//! [`MrtRecordBody::Unknown`] so tolerant consumers can skip them, matching
//! how real pipelines must handle archive noise.
//!
//! The reader is incremental and framing-safe: records are length-prefixed,
//! reads never over-consume, and torn/corrupt records produce typed errors
//! that callers may either propagate or skip ([`ReadMode::Tolerant`]).

pub mod read;
pub mod record;
pub mod tail;
pub mod write;

pub use bh_bgp_types::wire::AttrCache;
pub use read::{MessageStream, MrtBytesReader, MrtReader, ReadMode};
pub use record::{
    Bgp4mpMessage, Bgp4mpStateChange, BgpState, MrtError, MrtRecord, MrtRecordBody, PeerEntry,
    PeerIndexTable, RibEntry, RibPeerEntry,
};
pub use tail::TailingReader;
pub use write::MrtWriter;

#[cfg(test)]
mod round_trip_tests {
    use std::net::IpAddr;

    use bh_bgp_types::asn::Asn;
    use bh_bgp_types::attrs::PathAttributes;
    use bh_bgp_types::community::{Community, CommunitySet};
    use bh_bgp_types::time::SimTime;
    use bh_bgp_types::update::BgpUpdate;

    use super::*;

    fn sample_update() -> BgpUpdate {
        let attrs = PathAttributes::basic(
            "6939 3356 64500".parse().unwrap(),
            "203.0.113.66".parse::<IpAddr>().unwrap(),
        )
        .with_communities(CommunitySet::from_classic(vec![
            Community::from_parts(3356, 9999),
            Community::NO_EXPORT,
        ]));
        let mut update = BgpUpdate::new(attrs);
        update.announce_v4("130.149.1.1/32".parse().unwrap());
        update
    }

    #[test]
    fn full_archive_round_trip() {
        let mut buf = Vec::new();
        {
            let mut writer = MrtWriter::new(&mut buf);
            let peers = vec![
                PeerEntry::new(Asn::new(6939), "198.32.176.20".parse().unwrap()),
                PeerEntry::new(Asn::new(3257), "198.32.176.21".parse().unwrap()),
            ];
            let table = PeerIndexTable::new([10, 0, 0, 255], "test-view", peers);
            writer.write_peer_index_table(SimTime::from_unix(1000), &table).unwrap();

            let rib = RibEntry {
                sequence: 0,
                prefix: "130.149.0.0/16".parse().unwrap(),
                entries: vec![RibPeerEntry {
                    peer_index: 0,
                    originated: SimTime::from_unix(900),
                    attrs: sample_update().attrs.clone(),
                }],
            };
            writer.write_rib_entry(SimTime::from_unix(1000), &rib).unwrap();

            writer
                .write_update(
                    SimTime::from_unix(1100),
                    Asn::new(6939),
                    "198.32.176.20".parse().unwrap(),
                    Asn::new(65_000),
                    "198.32.176.1".parse().unwrap(),
                    &sample_update(),
                )
                .unwrap();

            writer
                .write_state_change(
                    SimTime::from_unix(1200),
                    Asn::new(6939),
                    "198.32.176.20".parse().unwrap(),
                    Asn::new(65_000),
                    "198.32.176.1".parse().unwrap(),
                    BgpState::Established,
                    BgpState::Idle,
                )
                .unwrap();
        }

        let records: Vec<MrtRecord> = MrtReader::new(&buf[..]).collect::<Result<_, _>>().unwrap();
        assert_eq!(records.len(), 4);
        assert!(matches!(records[0].body, MrtRecordBody::PeerIndexTable(_)));
        match &records[1].body {
            MrtRecordBody::RibIpv4(rib) => {
                assert_eq!(rib.prefix, "130.149.0.0/16".parse().unwrap());
                assert_eq!(rib.entries.len(), 1);
            }
            other => panic!("unexpected: {other:?}"),
        }
        match &records[2].body {
            MrtRecordBody::Message(m) => {
                assert_eq!(m.peer_asn, Asn::new(6939));
                assert_eq!(m.update.as_ref().unwrap(), &sample_update());
            }
            other => panic!("unexpected: {other:?}"),
        }
        match &records[3].body {
            MrtRecordBody::StateChange(sc) => {
                assert_eq!(sc.old_state, BgpState::Established);
                assert_eq!(sc.new_state, BgpState::Idle);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(records[2].timestamp, SimTime::from_unix(1100));
    }
}
