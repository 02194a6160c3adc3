//! MRT reader: incremental, framing-safe parsing of archive bytes.

use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use bytes::{Buf, Bytes};

use bh_bgp_types::asn::Asn;
use bh_bgp_types::error::CodecError;
use bh_bgp_types::time::SimTime;
use bh_bgp_types::wire::{self, AttrCache};

use crate::record::{
    bgp4mp_subtype, mrt_type, td2_subtype, Bgp4mpMessage, Bgp4mpStateChange, BgpState, MrtError,
    MrtRecord, MrtRecordBody, PeerEntry, PeerIndexTable, RibEntry, RibPeerEntry,
};

/// Upper bound on a single MRT record body; anything larger is treated as
/// corruption rather than allocating unbounded memory (defensive parsing).
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// How the reader reacts to malformed records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadMode {
    /// Propagate the first error (default).
    #[default]
    Strict,
    /// Skip records whose *payload* fails to decode, but still propagate
    /// framing-level failures (truncated header/body). This mirrors how
    /// production pipelines survive archive noise without silently
    /// misaligning the record stream.
    Tolerant,
}

/// A source of BGP4MP *messages* — the record type that carries routing
/// updates — decoded from an MRT archive.
///
/// Implemented by [`MrtReader`] (incremental reads from any [`Read`]
/// source) and [`MrtBytesReader`] (zero-copy slicing of an in-memory
/// archive buffer). Consumers like `bh_routing::MrtElemSource` are generic
/// over this trait, so the same element stream runs over either framing
/// strategy.
pub trait MessageStream {
    /// Next BGP4MP message, or `Ok(None)` at EOF. Non-message records
    /// (state changes, RIB dumps, unknown types) are skipped without
    /// buffering.
    fn next_message(&mut self) -> Result<Option<(SimTime, Bgp4mpMessage)>, MrtError>;

    /// Records successfully decoded so far.
    fn records_read(&self) -> u64;

    /// Records skipped (tolerant mode only).
    fn records_skipped(&self) -> u64;
}

/// Streaming MRT reader over any [`Read`] source; iterates
/// [`MrtRecord`]s.
pub struct MrtReader<R: Read> {
    source: R,
    mode: ReadMode,
    records_read: u64,
    records_skipped: u64,
    finished: bool,
    cache: AttrCache,
}

impl<R: Read> MrtReader<R> {
    /// Strict reader.
    pub fn new(source: R) -> Self {
        MrtReader {
            source,
            mode: ReadMode::Strict,
            records_read: 0,
            records_skipped: 0,
            finished: false,
            cache: AttrCache::new(),
        }
    }

    /// Tolerant reader (skips undecodable payloads).
    pub fn tolerant(source: R) -> Self {
        MrtReader { mode: ReadMode::Tolerant, ..Self::new(source) }
    }

    /// Records successfully decoded so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Records skipped (tolerant mode only).
    pub fn records_skipped(&self) -> u64 {
        self.records_skipped
    }

    /// The reader's error-handling mode.
    pub fn mode(&self) -> ReadMode {
        self.mode
    }

    /// The attribute-block memo table (hit/miss counters for diagnostics).
    pub fn attr_cache(&self) -> &AttrCache {
        &self.cache
    }

    /// Read the 12-byte common header; `Ok(None)` at clean EOF.
    fn read_header(&mut self) -> Result<Option<(SimTime, u16, u16, u32)>, MrtError> {
        let mut header = [0u8; 12];
        let mut filled = 0;
        while filled < header.len() {
            let n = self.source.read(&mut header[filled..])?;
            if n == 0 {
                if filled == 0 {
                    return Ok(None); // clean EOF between records
                }
                return Err(CodecError::Truncated {
                    what: "mrt header",
                    needed: header.len(),
                    available: filled,
                }
                .into());
            }
            filled += n;
        }
        let ts = u32::from_be_bytes(header[0..4].try_into().unwrap());
        let ty = u16::from_be_bytes(header[4..6].try_into().unwrap());
        let subtype = u16::from_be_bytes(header[6..8].try_into().unwrap());
        let len = u32::from_be_bytes(header[8..12].try_into().unwrap());
        Ok(Some((SimTime::from_unix(ts as u64), ty, subtype, len)))
    }

    fn read_body(&mut self, len: u32) -> Result<Bytes, MrtError> {
        if len > MAX_RECORD_LEN {
            return Err(MrtError::OversizedRecord(len));
        }
        let mut body = vec![0u8; len as usize];
        let mut filled = 0;
        while filled < body.len() {
            let n = self.source.read(&mut body[filled..])?;
            if n == 0 {
                return Err(CodecError::Truncated {
                    what: "mrt body",
                    needed: body.len(),
                    available: filled,
                }
                .into());
            }
            filled += n;
        }
        Ok(Bytes::from(body))
    }

    /// Decode records until the next BGP4MP *message* (the record type
    /// that carries routing updates), or `Ok(None)` at EOF.
    ///
    /// This is the streaming entry point for updates-file consumers:
    /// state changes, RIB records, and unknown record types are skipped
    /// without buffering, so archives of any size are read with constant
    /// memory.
    pub fn next_message(&mut self) -> Result<Option<(SimTime, Bgp4mpMessage)>, MrtError> {
        while let Some(record) = self.next_record()? {
            if let MrtRecordBody::Message(msg) = record.body {
                return Ok(Some((record.timestamp, msg)));
            }
        }
        Ok(None)
    }

    /// Decode the next record, or `Ok(None)` at EOF.
    pub fn next_record(&mut self) -> Result<Option<MrtRecord>, MrtError> {
        loop {
            if self.finished {
                return Ok(None);
            }
            let Some((timestamp, ty, subtype, len)) = self.read_header()? else {
                self.finished = true;
                return Ok(None);
            };
            let body = self.read_body(len)?;
            match decode_body(ty, subtype, body, Some(&mut self.cache)) {
                Ok(body) => {
                    self.records_read += 1;
                    return Ok(Some(MrtRecord { timestamp, body }));
                }
                Err(e) => match self.mode {
                    ReadMode::Strict => return Err(e),
                    ReadMode::Tolerant => {
                        self.records_skipped += 1;
                        continue;
                    }
                },
            }
        }
    }
}

impl<R: Read> Iterator for MrtReader<R> {
    type Item = Result<MrtRecord, MrtError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_record() {
            Ok(Some(rec)) => Some(Ok(rec)),
            Ok(None) => None,
            Err(e) => {
                // After a framing error the stream offset is unreliable;
                // stop rather than emit garbage.
                self.finished = true;
                Some(Err(e))
            }
        }
    }
}

impl<R: Read> MessageStream for MrtReader<R> {
    fn next_message(&mut self) -> Result<Option<(SimTime, Bgp4mpMessage)>, MrtError> {
        MrtReader::next_message(self)
    }

    fn records_read(&self) -> u64 {
        MrtReader::records_read(self)
    }

    fn records_skipped(&self) -> u64 {
        MrtReader::records_skipped(self)
    }
}

/// Zero-copy MRT reader over an in-memory archive buffer.
///
/// Where [`MrtReader`] copies every record body out of its [`Read`] source
/// into a fresh allocation, this reader holds the whole archive as one
/// [`Bytes`] and frames records by *slicing*: each body is an O(1)
/// refcounted view of the archive buffer, and the attribute blocks handed
/// to the wire decoder (and memoized in the [`AttrCache`]) alias the same
/// allocation. The only per-record copies left are the decoded structured
/// values themselves.
///
/// Reads the same format, honors the same [`ReadMode`] semantics, and
/// yields bit-identical records to `MrtReader` over the same bytes.
pub struct MrtBytesReader {
    buf: Bytes,
    mode: ReadMode,
    records_read: u64,
    records_skipped: u64,
    finished: bool,
    cache: AttrCache,
}

impl MrtBytesReader {
    /// Strict reader over `archive`.
    pub fn new(archive: impl Into<Bytes>) -> Self {
        MrtBytesReader {
            buf: archive.into(),
            mode: ReadMode::Strict,
            records_read: 0,
            records_skipped: 0,
            finished: false,
            cache: AttrCache::new(),
        }
    }

    /// Tolerant reader (skips undecodable payloads).
    pub fn tolerant(archive: impl Into<Bytes>) -> Self {
        MrtBytesReader { mode: ReadMode::Tolerant, ..Self::new(archive) }
    }

    /// Records successfully decoded so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Records skipped (tolerant mode only).
    pub fn records_skipped(&self) -> u64 {
        self.records_skipped
    }

    /// The reader's error-handling mode.
    pub fn mode(&self) -> ReadMode {
        self.mode
    }

    /// The attribute-block memo table (hit/miss counters for diagnostics).
    pub fn attr_cache(&self) -> &AttrCache {
        &self.cache
    }

    /// Slice the 12-byte common header off the buffer; `Ok(None)` at clean
    /// EOF.
    fn read_header(&mut self) -> Result<Option<(SimTime, u16, u16, u32)>, MrtError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        if self.buf.remaining() < 12 {
            return Err(CodecError::Truncated {
                what: "mrt header",
                needed: 12,
                available: self.buf.remaining(),
            }
            .into());
        }
        let ts = self.buf.get_u32();
        let ty = self.buf.get_u16();
        let subtype = self.buf.get_u16();
        let len = self.buf.get_u32();
        Ok(Some((SimTime::from_unix(ts as u64), ty, subtype, len)))
    }

    fn read_body(&mut self, len: u32) -> Result<Bytes, MrtError> {
        if len > MAX_RECORD_LEN {
            return Err(MrtError::OversizedRecord(len));
        }
        let len = len as usize;
        if self.buf.remaining() < len {
            return Err(CodecError::Truncated {
                what: "mrt body",
                needed: len,
                available: self.buf.remaining(),
            }
            .into());
        }
        Ok(self.buf.split_to(len))
    }

    /// Decode records until the next BGP4MP *message*, or `Ok(None)` at
    /// EOF. See [`MrtReader::next_message`].
    pub fn next_message(&mut self) -> Result<Option<(SimTime, Bgp4mpMessage)>, MrtError> {
        while let Some(record) = self.next_record()? {
            if let MrtRecordBody::Message(msg) = record.body {
                return Ok(Some((record.timestamp, msg)));
            }
        }
        Ok(None)
    }

    /// Decode the next record, or `Ok(None)` at EOF.
    pub fn next_record(&mut self) -> Result<Option<MrtRecord>, MrtError> {
        loop {
            if self.finished {
                return Ok(None);
            }
            let Some((timestamp, ty, subtype, len)) = self.read_header()? else {
                self.finished = true;
                return Ok(None);
            };
            let body = self.read_body(len)?;
            match decode_body(ty, subtype, body, Some(&mut self.cache)) {
                Ok(body) => {
                    self.records_read += 1;
                    return Ok(Some(MrtRecord { timestamp, body }));
                }
                Err(e) => match self.mode {
                    ReadMode::Strict => return Err(e),
                    ReadMode::Tolerant => {
                        self.records_skipped += 1;
                        continue;
                    }
                },
            }
        }
    }
}

impl Iterator for MrtBytesReader {
    type Item = Result<MrtRecord, MrtError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_record() {
            Ok(Some(rec)) => Some(Ok(rec)),
            Ok(None) => None,
            Err(e) => {
                // After a framing error the stream offset is unreliable;
                // stop rather than emit garbage.
                self.finished = true;
                Some(Err(e))
            }
        }
    }
}

impl MessageStream for MrtBytesReader {
    fn next_message(&mut self) -> Result<Option<(SimTime, Bgp4mpMessage)>, MrtError> {
        MrtBytesReader::next_message(self)
    }

    fn records_read(&self) -> u64 {
        MrtBytesReader::records_read(self)
    }

    fn records_skipped(&self) -> u64 {
        MrtBytesReader::records_skipped(self)
    }
}

fn get_addr(buf: &mut Bytes, afi: u16) -> Result<IpAddr, MrtError> {
    match afi {
        1 => {
            CodecError::ensure("ipv4 address", buf.remaining(), 4)?;
            let mut o = [0u8; 4];
            buf.copy_to_slice(&mut o);
            Ok(IpAddr::V4(Ipv4Addr::from(o)))
        }
        2 => {
            CodecError::ensure("ipv6 address", buf.remaining(), 16)?;
            let mut o = [0u8; 16];
            buf.copy_to_slice(&mut o);
            Ok(IpAddr::V6(Ipv6Addr::from(o)))
        }
        other => Err(CodecError::BadValue { what: "afi", value: other as u64 }.into()),
    }
}

pub(crate) fn decode_body(
    ty: u16,
    subtype: u16,
    mut body: Bytes,
    cache: Option<&mut AttrCache>,
) -> Result<MrtRecordBody, MrtError> {
    let original_len = body.len();
    match (ty, subtype) {
        (mrt_type::BGP4MP | mrt_type::BGP4MP_ET, sub) => {
            if ty == mrt_type::BGP4MP_ET {
                CodecError::ensure("et microseconds", body.remaining(), 4)?;
                let _micros = body.get_u32();
            }
            let as4 = matches!(sub, bgp4mp_subtype::MESSAGE_AS4 | bgp4mp_subtype::STATE_CHANGE_AS4);
            let (peer_asn, local_asn) = if as4 {
                CodecError::ensure("as4 header", body.remaining(), 10)?;
                (Asn::new(body.get_u32()), Asn::new(body.get_u32()))
            } else {
                CodecError::ensure("as2 header", body.remaining(), 6)?;
                (Asn::new(body.get_u16() as u32), Asn::new(body.get_u16() as u32))
            };
            let _ifindex = body.get_u16();
            CodecError::ensure("afi", body.remaining(), 2)?;
            let afi = body.get_u16();
            let peer_ip = get_addr(&mut body, afi)?;
            let local_ip = get_addr(&mut body, afi)?;
            match sub {
                bgp4mp_subtype::MESSAGE | bgp4mp_subtype::MESSAGE_AS4 => {
                    let update = wire::decode_update_message_cached(body, cache)?;
                    Ok(MrtRecordBody::Message(Bgp4mpMessage {
                        peer_asn,
                        local_asn,
                        peer_ip,
                        local_ip,
                        update,
                    }))
                }
                bgp4mp_subtype::STATE_CHANGE | bgp4mp_subtype::STATE_CHANGE_AS4 => {
                    CodecError::ensure("state change", body.remaining(), 4)?;
                    let old = body.get_u16();
                    let new = body.get_u16();
                    let old_state = BgpState::from_code(old)
                        .ok_or(CodecError::BadValue { what: "old state", value: old as u64 })?;
                    let new_state = BgpState::from_code(new)
                        .ok_or(CodecError::BadValue { what: "new state", value: new as u64 })?;
                    Ok(MrtRecordBody::StateChange(Bgp4mpStateChange {
                        peer_asn,
                        local_asn,
                        peer_ip,
                        local_ip,
                        old_state,
                        new_state,
                    }))
                }
                other => Ok(MrtRecordBody::Unknown {
                    mrt_type: ty,
                    subtype: other,
                    length: original_len,
                }),
            }
        }
        (mrt_type::TABLE_DUMP_V2, td2_subtype::PEER_INDEX_TABLE) => {
            CodecError::ensure("peer index header", body.remaining(), 8)?;
            let mut collector_id = [0u8; 4];
            body.copy_to_slice(&mut collector_id);
            let name_len = body.get_u16() as usize;
            CodecError::ensure("view name", body.remaining(), name_len)?;
            let name_bytes = body.split_to(name_len);
            let view_name = String::from_utf8_lossy(&name_bytes).into_owned();
            CodecError::ensure("peer count", body.remaining(), 2)?;
            let count = body.get_u16() as usize;
            let mut peers = Vec::with_capacity(count);
            for _ in 0..count {
                CodecError::ensure("peer entry", body.remaining(), 5)?;
                let peer_type = body.get_u8();
                let mut bgp_id = [0u8; 4];
                body.copy_to_slice(&mut bgp_id);
                let ip = get_addr(&mut body, if peer_type & 0b01 != 0 { 2 } else { 1 })?;
                let asn = if peer_type & 0b10 != 0 {
                    CodecError::ensure("peer asn", body.remaining(), 4)?;
                    Asn::new(body.get_u32())
                } else {
                    CodecError::ensure("peer asn", body.remaining(), 2)?;
                    Asn::new(body.get_u16() as u32)
                };
                peers.push(PeerEntry { bgp_id, ip, asn });
            }
            Ok(MrtRecordBody::PeerIndexTable(PeerIndexTable { collector_id, view_name, peers }))
        }
        (mrt_type::TABLE_DUMP_V2, td2_subtype::RIB_IPV4_UNICAST) => {
            CodecError::ensure("rib header", body.remaining(), 4)?;
            let sequence = body.get_u32();
            let prefix = wire::decode_nlri(&mut body)?;
            CodecError::ensure("rib entry count", body.remaining(), 2)?;
            let count = body.get_u16() as usize;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                CodecError::ensure("rib entry", body.remaining(), 8)?;
                let peer_index = body.get_u16();
                let originated = SimTime::from_unix(body.get_u32() as u64);
                let attr_len = body.get_u16() as usize;
                CodecError::ensure("rib attributes", body.remaining(), attr_len)?;
                let attrs = wire::decode_attributes(body.split_to(attr_len))?;
                entries.push(RibPeerEntry { peer_index, originated, attrs });
            }
            Ok(MrtRecordBody::RibIpv4(RibEntry { sequence, prefix, entries }))
        }
        (ty, subtype) => Ok(MrtRecordBody::Unknown { mrt_type: ty, subtype, length: original_len }),
    }
}

#[cfg(test)]
mod tests {
    use bh_bgp_types::attrs::PathAttributes;
    use bh_bgp_types::update::BgpUpdate;

    use super::*;
    use crate::write::MrtWriter;

    fn one_update_archive() -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = MrtWriter::new(&mut buf);
        let mut update = BgpUpdate::new(PathAttributes::basic(
            "6939 64500".parse().unwrap(),
            "10.0.0.9".parse().unwrap(),
        ));
        update.announce_v4("130.149.1.1/32".parse().unwrap());
        w.write_update(
            SimTime::from_unix(5),
            Asn::new(6939),
            "10.0.0.1".parse().unwrap(),
            Asn::new(65000),
            "10.0.0.2".parse().unwrap(),
            &update,
        )
        .unwrap();
        buf
    }

    #[test]
    fn empty_input_is_clean_eof() {
        let mut r = MrtReader::new(&[][..]);
        assert!(r.next_record().unwrap().is_none());
        assert!(r.next().is_none());
    }

    #[test]
    fn truncated_header_is_error() {
        let buf = one_update_archive();
        let mut r = MrtReader::new(&buf[..6]);
        assert!(matches!(r.next_record(), Err(MrtError::Codec(_))));
    }

    #[test]
    fn truncated_body_is_error() {
        let buf = one_update_archive();
        let mut r = MrtReader::new(&buf[..buf.len() - 3]);
        assert!(matches!(r.next_record(), Err(MrtError::Codec(_))));
    }

    #[test]
    fn iterator_stops_after_framing_error() {
        let buf = one_update_archive();
        let mut it = MrtReader::new(&buf[..buf.len() - 3]);
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none());
    }

    #[test]
    fn oversized_record_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&mrt_type::BGP4MP.to_be_bytes());
        buf.extend_from_slice(&bgp4mp_subtype::MESSAGE_AS4.to_be_bytes());
        buf.extend_from_slice(&(MAX_RECORD_LEN + 1).to_be_bytes());
        let mut r = MrtReader::new(&buf[..]);
        assert!(matches!(r.next_record(), Err(MrtError::OversizedRecord(_))));
    }

    #[test]
    fn unknown_record_types_pass_through() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u32.to_be_bytes());
        buf.extend_from_slice(&99u16.to_be_bytes()); // unknown type
        buf.extend_from_slice(&0u16.to_be_bytes());
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        let mut r = MrtReader::new(&buf[..]);
        let rec = r.next_record().unwrap().unwrap();
        assert!(matches!(rec.body, MrtRecordBody::Unknown { mrt_type: 99, subtype: 0, length: 3 }));
    }

    #[test]
    fn tolerant_mode_skips_corrupt_payload_and_keeps_framing() {
        let mut buf = Vec::new();
        // Record 1: corrupt payload (BGP4MP MESSAGE_AS4 with garbage body
        // of plausible length).
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&mrt_type::BGP4MP.to_be_bytes());
        buf.extend_from_slice(&bgp4mp_subtype::MESSAGE_AS4.to_be_bytes());
        buf.extend_from_slice(&4u32.to_be_bytes());
        buf.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        // Record 2: a valid update.
        buf.extend_from_slice(&one_update_archive());

        // Strict reader errors.
        let mut strict = MrtReader::new(&buf[..]);
        assert!(strict.next_record().is_err());

        // Tolerant reader recovers the second record.
        let mut tolerant = MrtReader::tolerant(&buf[..]);
        let rec = tolerant.next_record().unwrap().unwrap();
        assert!(matches!(rec.body, MrtRecordBody::Message(_)));
        assert!(tolerant.next_record().unwrap().is_none());
        assert_eq!(tolerant.records_skipped(), 1);
        assert_eq!(tolerant.records_read(), 1);
    }

    #[test]
    fn tolerant_mode_counts_every_skip_across_the_stream() {
        // Corrupt records interleaved with valid ones: each skip is
        // counted and every valid record still decodes.
        let corrupt = |buf: &mut Vec<u8>| {
            buf.extend_from_slice(&1u32.to_be_bytes());
            buf.extend_from_slice(&mrt_type::BGP4MP.to_be_bytes());
            buf.extend_from_slice(&bgp4mp_subtype::MESSAGE_AS4.to_be_bytes());
            buf.extend_from_slice(&4u32.to_be_bytes());
            buf.extend_from_slice(&[0xba, 0xad, 0xf0, 0x0d]);
        };
        let mut buf = Vec::new();
        corrupt(&mut buf);
        buf.extend_from_slice(&one_update_archive());
        corrupt(&mut buf);
        corrupt(&mut buf);
        buf.extend_from_slice(&one_update_archive());

        let mut r = MrtReader::tolerant(&buf[..]);
        assert_eq!(r.mode(), ReadMode::Tolerant);
        let mut read = 0;
        while r.next_record().unwrap().is_some() {
            read += 1;
        }
        assert_eq!(read, 2);
        assert_eq!(r.records_read(), 2);
        assert_eq!(r.records_skipped(), 3);
    }

    #[test]
    fn et_records_fold_microseconds() {
        // Hand-build a BGP4MP_ET STATE_CHANGE_AS4.
        let mut body = Vec::new();
        body.extend_from_slice(&123_456u32.to_be_bytes()); // microseconds
        body.extend_from_slice(&6939u32.to_be_bytes());
        body.extend_from_slice(&65000u32.to_be_bytes());
        body.extend_from_slice(&0u16.to_be_bytes());
        body.extend_from_slice(&1u16.to_be_bytes()); // AFI v4
        body.extend_from_slice(&[10, 0, 0, 1]);
        body.extend_from_slice(&[10, 0, 0, 2]);
        body.extend_from_slice(&6u16.to_be_bytes());
        body.extend_from_slice(&1u16.to_be_bytes());
        let mut buf = Vec::new();
        buf.extend_from_slice(&99u32.to_be_bytes());
        buf.extend_from_slice(&mrt_type::BGP4MP_ET.to_be_bytes());
        buf.extend_from_slice(&bgp4mp_subtype::STATE_CHANGE_AS4.to_be_bytes());
        buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
        buf.extend_from_slice(&body);
        let mut r = MrtReader::new(&buf[..]);
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.timestamp, SimTime::from_unix(99));
        match rec.body {
            MrtRecordBody::StateChange(sc) => {
                assert_eq!(sc.old_state, BgpState::Established);
                assert_eq!(sc.new_state, BgpState::Idle);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn as2_message_records_are_read() {
        // Hand-build a legacy MESSAGE (2-byte AS) record with a KEEPALIVE.
        let mut body = Vec::new();
        body.extend_from_slice(&6939u16.to_be_bytes());
        body.extend_from_slice(&65000u16.to_be_bytes());
        body.extend_from_slice(&0u16.to_be_bytes());
        body.extend_from_slice(&1u16.to_be_bytes());
        body.extend_from_slice(&[10, 0, 0, 1]);
        body.extend_from_slice(&[10, 0, 0, 2]);
        body.extend_from_slice(&[0xFF; 16]);
        body.extend_from_slice(&19u16.to_be_bytes());
        body.push(4); // KEEPALIVE
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&mrt_type::BGP4MP.to_be_bytes());
        buf.extend_from_slice(&bgp4mp_subtype::MESSAGE.to_be_bytes());
        buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
        buf.extend_from_slice(&body);
        let mut r = MrtReader::new(&buf[..]);
        let rec = r.next_record().unwrap().unwrap();
        match rec.body {
            MrtRecordBody::Message(m) => {
                assert_eq!(m.peer_asn, Asn::new(6939));
                assert!(m.update.is_none()); // KEEPALIVE → no update
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn next_message_skips_non_message_records() {
        // State change, then an update: next_message lands on the update.
        let mut buf = Vec::new();
        {
            let mut w = MrtWriter::new(&mut buf);
            w.write_state_change(
                SimTime::from_unix(1),
                Asn::new(6939),
                "10.0.0.1".parse().unwrap(),
                Asn::new(65000),
                "10.0.0.2".parse().unwrap(),
                BgpState::Idle,
                BgpState::Established,
            )
            .unwrap();
        }
        buf.extend_from_slice(&one_update_archive());
        let mut r = MrtReader::new(&buf[..]);
        let (time, msg) = r.next_message().unwrap().unwrap();
        assert_eq!(time, SimTime::from_unix(5));
        assert_eq!(msg.peer_asn, Asn::new(6939));
        assert!(msg.update.is_some());
        assert!(r.next_message().unwrap().is_none());
    }

    #[test]
    fn multi_record_stream_reads_in_order() {
        let mut buf = Vec::new();
        for _ in 0..5 {
            buf.extend_from_slice(&one_update_archive());
        }
        let records: Vec<_> = MrtReader::new(&buf[..]).collect::<Result<_, _>>().unwrap();
        assert_eq!(records.len(), 5);
    }

    #[test]
    fn bytes_reader_matches_read_reader() {
        let mut buf = Vec::new();
        for _ in 0..5 {
            buf.extend_from_slice(&one_update_archive());
        }
        let copied: Vec<_> = MrtReader::new(&buf[..]).collect::<Result<_, _>>().unwrap();
        let sliced: Vec<_> = MrtBytesReader::new(buf).collect::<Result<_, _>>().unwrap();
        assert_eq!(copied, sliced);
    }

    #[test]
    fn bytes_reader_repeated_attr_blocks_hit_the_cache() {
        let mut buf = Vec::new();
        for _ in 0..4 {
            buf.extend_from_slice(&one_update_archive());
        }
        let mut r = MrtBytesReader::new(buf);
        while r.next_message().unwrap().is_some() {}
        assert_eq!(r.records_read(), 4);
        assert_eq!(r.attr_cache().misses(), 1, "identical attr blocks decode once");
        assert_eq!(r.attr_cache().hits(), 3);
    }

    #[test]
    fn bytes_reader_empty_input_is_clean_eof() {
        let mut r = MrtBytesReader::new(Vec::new());
        assert!(r.next_record().unwrap().is_none());
        assert!(r.next().is_none());
    }

    #[test]
    fn bytes_reader_truncation_and_tolerance_match_read_reader() {
        let buf = one_update_archive();
        // Truncated header.
        let mut r = MrtBytesReader::new(buf[..6].to_vec());
        assert!(matches!(r.next_record(), Err(MrtError::Codec(_))));
        // Truncated body, and the iterator stops after the framing error.
        let mut it = MrtBytesReader::new(buf[..buf.len() - 3].to_vec());
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none());
        // Tolerant mode skips a corrupt payload but keeps framing.
        let mut noisy = Vec::new();
        noisy.extend_from_slice(&1u32.to_be_bytes());
        noisy.extend_from_slice(&mrt_type::BGP4MP.to_be_bytes());
        noisy.extend_from_slice(&bgp4mp_subtype::MESSAGE_AS4.to_be_bytes());
        noisy.extend_from_slice(&4u32.to_be_bytes());
        noisy.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        noisy.extend_from_slice(&buf);
        let mut tolerant = MrtBytesReader::tolerant(noisy);
        assert_eq!(tolerant.mode(), ReadMode::Tolerant);
        let rec = tolerant.next_record().unwrap().unwrap();
        assert!(matches!(rec.body, MrtRecordBody::Message(_)));
        assert!(tolerant.next_record().unwrap().is_none());
        assert_eq!(tolerant.records_skipped(), 1);
        assert_eq!(tolerant.records_read(), 1);
    }

    #[test]
    fn bytes_reader_bodies_alias_the_archive_buffer() {
        // The reader must slice, not copy: drain a two-record archive and
        // confirm the per-record work left no body-sized allocations by
        // checking the messages decode equal through both paths while the
        // bytes reader's source buffer is shared (Bytes::from(Vec) is
        // zero-copy, so any equal output proves the slicing path).
        let mut buf = Vec::new();
        buf.extend_from_slice(&one_update_archive());
        buf.extend_from_slice(&one_update_archive());
        let shared = Bytes::from(buf);
        let mut r = MrtBytesReader::new(shared.clone());
        let mut n = 0;
        while let Some((time, msg)) = r.next_message().unwrap() {
            assert_eq!(time, SimTime::from_unix(5));
            assert!(msg.update.is_some());
            n += 1;
        }
        assert_eq!(n, 2);
    }
}
