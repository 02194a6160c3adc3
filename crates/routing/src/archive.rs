//! MRT export: serialize the collector element stream into archive bytes.
//!
//! The inference pipeline can consume [`BgpElem`]s directly (the live
//! BGPStream path) or parse MRT archives produced here (the historical
//! path) — both exercised by the integration tests, proving the wire
//! format carries everything the inference needs.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::IpAddr;

use bh_bgp_types::attrs::PathAttributes;
use bh_bgp_types::time::SimTime;
use bh_bgp_types::update::BgpUpdate;
use bh_mrt::{Bgp4mpMessage, MessageStream, MrtBytesReader, MrtError, MrtReader, MrtWriter};
use bytes::Bytes;

use crate::elem::{BgpElem, DataSource, ElemType};
use crate::source::ElemSource;

/// Write a stream of elems as `BGP4MP/MESSAGE_AS4` records, one archive
/// per call (callers typically split by platform).
pub fn write_updates<W: Write>(sink: W, elems: &[BgpElem]) -> Result<u64, MrtError> {
    let mut writer = MrtWriter::new(sink);
    for elem in elems {
        let mut update = match elem.elem_type {
            ElemType::Announce => {
                let attrs = PathAttributes {
                    as_path: elem.as_path.clone(),
                    next_hop: Some(elem.next_hop.unwrap_or(elem.peer_ip)),
                    communities: elem.communities.clone(),
                    ..Default::default()
                };
                let mut u = BgpUpdate::new(attrs);
                u.announce_v4(elem.prefix);
                u
            }
            ElemType::Withdraw => BgpUpdate::withdraw(elem.prefix.into()),
        };
        // Local side of the session: a synthetic collector address.
        let local_ip: IpAddr = "192.0.2.254".parse().expect("static address");
        let update_taken = std::mem::replace(&mut update, BgpUpdate::withdraw(elem.prefix.into()));
        writer.write_update(
            elem.time,
            elem.peer_asn,
            elem.peer_ip,
            bh_bgp_types::asn::Asn::new(64_512),
            local_ip,
            &update_taken,
        )?;
    }
    Ok(writer.records_written())
}

/// Flatten one BGP4MP message into elems, labelled with the archive's
/// platform/collector identity.
pub(crate) fn elems_of_message(
    time: SimTime,
    msg: &Bgp4mpMessage,
    dataset: DataSource,
    collector: u16,
    out: &mut VecDeque<BgpElem>,
) {
    let Some(update) = &msg.update else { return };
    for prefix in update.announced_v4() {
        out.push_back(BgpElem {
            time,
            dataset,
            collector,
            peer_asn: msg.peer_asn,
            peer_ip: msg.peer_ip,
            elem_type: ElemType::Announce,
            prefix: *prefix,
            as_path: update.attrs.as_path.clone(),
            communities: update.attrs.communities.clone(),
            next_hop: update.attrs.next_hop,
        });
    }
    for prefix in update.withdrawn_v4() {
        out.push_back(BgpElem {
            time,
            dataset,
            collector,
            peer_asn: msg.peer_asn,
            peer_ip: msg.peer_ip,
            elem_type: ElemType::Withdraw,
            prefix: *prefix,
            as_path: Default::default(),
            communities: Default::default(),
            next_hop: None,
        });
    }
}

/// A streaming [`ElemSource`] over an MRT updates archive: records are
/// decoded one at a time from any [`MessageStream`] — an [`MrtReader`]
/// over any [`Read`] (a file, a socket, a decompressor), so archives of
/// any size are consumed with constant memory, or an [`MrtBytesReader`]
/// slicing an in-memory archive buffer with zero per-record copies — the
/// historical-path equivalent of a live BGPStream feed.
///
/// The MRT wire format does not carry the platform/collector labels, so
/// the caller supplies them (matching how real pipelines know which
/// archive belongs to which collector).
///
/// Decode errors end the stream; inspect [`MrtElemSource::error`] (or
/// recover it with [`MrtElemSource::take_error`]) after exhaustion to
/// distinguish clean EOF from a torn archive.
pub struct MrtElemSource<M> {
    reader: M,
    dataset: DataSource,
    collector: u16,
    queue: VecDeque<BgpElem>,
    current: Option<BgpElem>,
    error: Option<MrtError>,
}

impl<R: Read> MrtElemSource<MrtReader<R>> {
    /// Strict streaming reader (the first malformed record ends the
    /// stream with an error).
    pub fn new(source: R, dataset: DataSource, collector: u16) -> Self {
        Self::from_reader(MrtReader::new(source), dataset, collector)
    }

    /// Tolerant streaming reader (skips undecodable payloads, like
    /// production pipelines surviving archive noise).
    pub fn tolerant(source: R, dataset: DataSource, collector: u16) -> Self {
        Self::from_reader(MrtReader::tolerant(source), dataset, collector)
    }
}

impl MrtElemSource<MrtBytesReader> {
    /// Strict zero-copy source over an in-memory archive: record bodies
    /// and attribute blocks are refcounted slices of `archive`, never
    /// copies (`Bytes::from(Vec<u8>)` is itself zero-copy).
    pub fn from_bytes(archive: impl Into<Bytes>, dataset: DataSource, collector: u16) -> Self {
        Self::from_reader(MrtBytesReader::new(archive), dataset, collector)
    }

    /// Tolerant zero-copy source (skips undecodable payloads).
    pub fn from_bytes_tolerant(
        archive: impl Into<Bytes>,
        dataset: DataSource,
        collector: u16,
    ) -> Self {
        Self::from_reader(MrtBytesReader::tolerant(archive), dataset, collector)
    }
}

impl<M: MessageStream> MrtElemSource<M> {
    /// Wrap an already-configured message stream.
    pub fn from_reader(reader: M, dataset: DataSource, collector: u16) -> Self {
        MrtElemSource {
            reader,
            dataset,
            collector,
            queue: VecDeque::new(),
            current: None,
            error: None,
        }
    }

    /// The decode error that ended the stream, if any.
    pub fn error(&self) -> Option<&MrtError> {
        self.error.as_ref()
    }

    /// Recover the decode error that ended the stream, if any.
    pub fn take_error(&mut self) -> Option<MrtError> {
        self.error.take()
    }

    /// MRT records decoded so far (per-archive accounting).
    pub fn records_read(&self) -> u64 {
        self.reader.records_read()
    }

    /// MRT records skipped so far (tolerant readers only).
    pub fn records_skipped(&self) -> u64 {
        self.reader.records_skipped()
    }

    /// Mutable access to the underlying message stream — the hook that
    /// lets a live consumer feed a growable reader (e.g.
    /// [`bh_mrt::TailingReader::extend`]) between polls: `next_elem`
    /// returning `None` without an [`error`](Self::error) means "nothing
    /// decodable *yet*", and the source re-polls the reader on the next
    /// call rather than latching EOF.
    pub fn reader_mut(&mut self) -> &mut M {
        &mut self.reader
    }
}

impl<M: MessageStream> ElemSource for MrtElemSource<M> {
    fn next_elem(&mut self) -> Option<&BgpElem> {
        while self.queue.is_empty() {
            if self.error.is_some() {
                return None;
            }
            match self.reader.next_message() {
                Ok(Some((time, msg))) => {
                    elems_of_message(time, &msg, self.dataset, self.collector, &mut self.queue);
                }
                Ok(None) => return None,
                Err(e) => {
                    self.error = Some(e);
                    return None;
                }
            }
        }
        self.current = self.queue.pop_front();
        self.current.as_ref()
    }
}

/// Read an archive produced by [`write_updates`] back into elems — the
/// materializing convenience over [`MrtElemSource`].
///
/// Since the result holds the whole stream anyway, the source is slurped
/// into one buffer and decoded through the zero-copy
/// [`MrtBytesReader`] path: one allocation for the archive instead of
/// one per record body, with attribute blocks sliced, not copied.
pub fn read_updates<R: Read>(
    mut source: R,
    dataset: DataSource,
    collector: u16,
) -> Result<Vec<BgpElem>, MrtError> {
    let mut archive = Vec::new();
    source.read_to_end(&mut archive).map_err(bh_mrt::MrtError::from)?;
    let mut src = MrtElemSource::from_bytes(archive, dataset, collector);
    let mut out = Vec::new();
    while let Some(elem) = src.next_elem() {
        out.push(elem.clone());
    }
    match src.take_error() {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Split elems by platform — the coarse shape real archives come in.
pub fn split_by_dataset(elems: Vec<BgpElem>) -> BTreeMap<DataSource, Vec<BgpElem>> {
    let mut out: BTreeMap<DataSource, Vec<BgpElem>> = BTreeMap::new();
    for elem in elems {
        out.entry(elem.dataset).or_default().push(elem);
    }
    out
}

/// Split elems by `(dataset, collector)` — one bucket per archive a
/// real pipeline would download, preserving per-collector arrival
/// order. The MRT wire format does not carry these labels, so an
/// archive per pair keeps every [`PeerKey`](crate::elem::PeerKey)
/// reconstructible on read-back.
pub fn split_by_collector(elems: &[BgpElem]) -> BTreeMap<(DataSource, u16), Vec<BgpElem>> {
    let mut out: BTreeMap<(DataSource, u16), Vec<BgpElem>> = BTreeMap::new();
    for elem in elems {
        out.entry((elem.dataset, elem.collector)).or_default().push(elem.clone());
    }
    out
}

/// Merge several collector streams into one time-ordered stream (stable:
/// ties keep `(dataset, collector)` then stream order) — the BGPStream
/// merge the paper's pipeline performs across RIS + RV collectors.
///
/// This flatten-and-stable-sort is the *specification* of the merge
/// order: [`MergedSource`](crate::merge::MergedSource) reproduces it
/// one element at a time, which
/// the golden-equivalence property tests in `tests/` prove against this
/// independent implementation. Materializing callers keep this
/// zero-clone shape; streaming consumers should use the sources and
/// skip the `Vec`.
pub fn merge_streams(mut streams: Vec<Vec<BgpElem>>) -> Vec<BgpElem> {
    let mut merged: Vec<BgpElem> = streams.drain(..).flatten().collect();
    merged.sort_by_key(|e| (e.time, e.dataset, e.collector));
    merged
}

/// Round-trip helper used by tests and benches: elems → MRT bytes → elems.
pub fn mrt_round_trip(elems: &[BgpElem]) -> Result<Vec<BgpElem>, MrtError> {
    let mut buf = Vec::new();
    write_updates(&mut buf, elems)?;
    let dataset = elems.first().map(|e| e.dataset).unwrap_or(DataSource::Ris);
    let collector = elems.first().map(|e| e.collector).unwrap_or(0);
    read_updates(&buf[..], dataset, collector)
}

/// A timestamp suitable for archive names.
pub fn archive_stamp(time: SimTime) -> String {
    let (y, m, d) = time.ymd();
    format!(
        "{y:04}{m:02}{d:02}.{:02}{:02}",
        (time.unix() % 86_400) / 3600,
        (time.unix() % 3600) / 60
    )
}

#[cfg(test)]
mod tests {
    use bh_bgp_types::community::{Community, CommunitySet};

    use super::*;

    fn sample_elems() -> Vec<BgpElem> {
        let mk = |t: u64, ty: ElemType| BgpElem {
            time: SimTime::from_unix(t),
            dataset: DataSource::Ris,
            collector: 3,
            peer_asn: bh_bgp_types::asn::Asn::new(6939),
            peer_ip: "80.81.192.1".parse().unwrap(),
            elem_type: ty,
            prefix: "130.149.1.1/32".parse().unwrap(),
            as_path: if ty == ElemType::Announce {
                "6939 3356 64500".parse().unwrap()
            } else {
                Default::default()
            },
            communities: if ty == ElemType::Announce {
                CommunitySet::from_classic(vec![Community::from_parts(3356, 9999)])
            } else {
                Default::default()
            },
            next_hop: None,
        };
        vec![mk(100, ElemType::Announce), mk(200, ElemType::Withdraw)]
    }

    #[test]
    fn mrt_round_trip_preserves_elems() {
        let elems = sample_elems();
        let back = mrt_round_trip(&elems).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].prefix, elems[0].prefix);
        assert_eq!(back[0].as_path, elems[0].as_path);
        assert_eq!(back[0].communities, elems[0].communities);
        assert_eq!(back[0].peer_asn, elems[0].peer_asn);
        assert_eq!(back[0].peer_ip, elems[0].peer_ip);
        assert_eq!(back[0].time, elems[0].time);
        assert_eq!(back[1].elem_type, ElemType::Withdraw);
    }

    #[test]
    fn streaming_source_matches_materializing_read() {
        let elems = sample_elems();
        let mut buf = Vec::new();
        write_updates(&mut buf, &elems).unwrap();

        let mut src = MrtElemSource::new(&buf[..], DataSource::Ris, 3);
        let mut streamed = Vec::new();
        while let Some(elem) = src.next_elem() {
            streamed.push(elem.clone());
        }
        assert!(src.error().is_none());
        assert_eq!(streamed, read_updates(&buf[..], DataSource::Ris, 3).unwrap());
        assert_eq!(streamed.len(), 2);
    }

    #[test]
    fn bytes_source_matches_read_source() {
        let elems = sample_elems();
        let mut buf = Vec::new();
        write_updates(&mut buf, &elems).unwrap();

        let mut via_read = MrtElemSource::new(&buf[..], DataSource::Ris, 3);
        let mut via_bytes = MrtElemSource::from_bytes(buf.clone(), DataSource::Ris, 3);
        loop {
            let a = via_read.next_elem().cloned();
            let b = via_bytes.next_elem().cloned();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert!(via_read.error().is_none());
        assert!(via_bytes.error().is_none());
        assert_eq!(via_read.records_read(), via_bytes.records_read());

        // Torn archives surface the same way through both paths.
        buf.truncate(buf.len() - 4);
        let mut torn = MrtElemSource::from_bytes_tolerant(buf, DataSource::Ris, 3);
        let mut n = 0;
        while torn.next_elem().is_some() {
            n += 1;
        }
        assert_eq!(n, 1);
        assert!(torn.take_error().is_some(), "framing tears propagate even in tolerant mode");
    }

    #[test]
    fn streaming_source_surfaces_torn_archives() {
        let elems = sample_elems();
        let mut buf = Vec::new();
        write_updates(&mut buf, &elems).unwrap();
        buf.truncate(buf.len() - 4); // tear the final record

        let mut src = MrtElemSource::new(&buf[..], DataSource::Ris, 3);
        let mut n = 0;
        while src.next_elem().is_some() {
            n += 1;
        }
        assert_eq!(n, 1, "the intact first record still streams");
        assert!(src.take_error().is_some(), "the tear is reported");
        assert!(read_updates(&buf[..], DataSource::Ris, 3).is_err());
    }

    #[test]
    fn merge_orders_by_time() {
        let mut a = sample_elems();
        a[0].time = SimTime::from_unix(500);
        a[1].time = SimTime::from_unix(100);
        let mut b = sample_elems();
        b[0].time = SimTime::from_unix(300);
        b[0].dataset = DataSource::Pch;
        b[1].time = SimTime::from_unix(200);
        b[1].dataset = DataSource::Pch;
        let merged = merge_streams(vec![a, b]);
        let times: Vec<u64> = merged.iter().map(|e| e.time.unix()).collect();
        assert_eq!(times, vec![100, 200, 300, 500]);
    }

    #[test]
    fn merge_streams_equals_stable_flatten_sort_on_unsorted_input() {
        // The pre-MergedSource contract: streams need not be sorted, and
        // equal keys keep flatten order (stream index, then position).
        let mut elems = Vec::new();
        for (t, collector, peer) in
            [(300u64, 1u16, 1u32), (100, 1, 2), (100, 1, 3), (200, 0, 4), (100, 1, 5)]
        {
            let mut e = sample_elems()[0].clone();
            e.time = SimTime::from_unix(t);
            e.collector = collector;
            e.peer_asn = bh_bgp_types::asn::Asn::new(peer);
            elems.push(e);
        }
        let streams = vec![elems[..2].to_vec(), elems[2..].to_vec()];
        let mut expected: Vec<BgpElem> = streams.concat();
        expected.sort_by_key(|e| (e.time, e.dataset, e.collector));
        assert_eq!(merge_streams(streams), expected);
        // Equal-key order: stream 0's (100,1) before stream 1's two.
        let peers: Vec<u32> = expected.iter().map(|e| e.peer_asn.value()).collect();
        assert_eq!(peers, vec![2, 3, 5, 4, 1]);
    }

    #[test]
    fn split_by_collector_partitions_per_archive() {
        let mut elems = sample_elems();
        elems[1].collector = 4;
        elems.push({
            let mut e = elems[0].clone();
            e.dataset = DataSource::Cdn;
            e
        });
        let split = split_by_collector(&elems);
        assert_eq!(split.len(), 3);
        assert_eq!(split[&(DataSource::Ris, 3)].len(), 1);
        assert_eq!(split[&(DataSource::Ris, 4)].len(), 1);
        assert_eq!(split[&(DataSource::Cdn, 3)].len(), 1);
    }

    #[test]
    fn split_partitions_by_platform() {
        let mut elems = sample_elems();
        elems[1].dataset = DataSource::Cdn;
        let split = split_by_dataset(elems);
        assert_eq!(split.len(), 2);
        assert_eq!(split[&DataSource::Ris].len(), 1);
        assert_eq!(split[&DataSource::Cdn].len(), 1);
    }

    #[test]
    fn archive_stamp_format() {
        let t = SimTime::from_ymd_hms(2016, 9, 20, 13, 45, 0);
        assert_eq!(archive_stamp(t), "20160920.1345");
    }
}
