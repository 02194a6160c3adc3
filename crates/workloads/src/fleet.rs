//! Per-collector MRT archive generation — the bridge from a simulated
//! scenario to a realistic multi-collector ingestion workload.
//!
//! Real pipelines do not receive one merged stream: they download one
//! updates archive *per collector* (RIS `rrc00`–`rrc23`, Route Views
//! `route-views2`, …) and merge at read time. This module partitions a
//! [`ScenarioOutput`] the same way: one [`CollectorArchive`] per
//! `(dataset, collector)` pair of the deployment, serialized with
//! [`write_updates`] and named with [`archive_stamp`], so a synthetic
//! RIS + RV + PCH + CDN fleet can be written out and re-ingested end to
//! end through [`merged_archives`].

use bh_mrt::{MrtBytesReader, MrtError};
use bh_routing::archive::{archive_stamp, split_by_collector, write_updates};
use bh_routing::{BgpElem, CollectorDeployment, DataSource, MergedSource, MrtElemSource};
use bytes::Bytes;

use crate::scenario::ScenarioOutput;

/// One serialized per-collector updates archive.
#[derive(Debug, Clone)]
pub struct CollectorArchive {
    /// Platform the archive belongs to.
    pub dataset: DataSource,
    /// Collector id within the platform.
    pub collector: u16,
    /// BGPStream-style archive name
    /// (`<platform>.rc<collector>.updates.<stamp>.mrt`).
    pub name: String,
    /// The MRT bytes, refcounted so every reader of the archive slices
    /// one allocation instead of copying it.
    pub bytes: Bytes,
    /// Elements serialized into the archive.
    pub elems: u64,
}

fn archive_of(
    dataset: DataSource,
    collector: u16,
    elems: &[BgpElem],
) -> Result<CollectorArchive, MrtError> {
    let mut bytes = Vec::new();
    write_updates(&mut bytes, elems)?;
    let stamp = elems.first().map(|e| archive_stamp(e.time)).unwrap_or_else(|| "empty".into());
    Ok(CollectorArchive {
        dataset,
        collector,
        name: format!("{}.rc{collector:02}.updates.{stamp}.mrt", dataset.label().to_lowercase()),
        bytes: Bytes::from(bytes),
        elems: elems.len() as u64,
    })
}

/// Partition an element stream into per-collector archives. Only
/// collectors that observed something appear; see
/// [`fleet_archives_for`] to cover a whole deployment including silent
/// collectors.
pub fn fleet_archives(elems: &[BgpElem]) -> Result<Vec<CollectorArchive>, MrtError> {
    split_by_collector(elems)
        .into_iter()
        .map(|((dataset, collector), bucket)| archive_of(dataset, collector, &bucket))
        .collect()
}

/// Partition an element stream into one archive per `(dataset,
/// collector)` pair of `deployment` — silent collectors yield empty
/// archives, exactly like a real quiet interval. The partition is
/// lossless: elements labelled with a pair the deployment does not
/// know (a stream from an older or foreign deployment) still get their
/// archive rather than being dropped.
pub fn fleet_archives_for(
    deployment: &CollectorDeployment,
    elems: &[BgpElem],
) -> Result<Vec<CollectorArchive>, MrtError> {
    let buckets = split_by_collector(elems);
    let mut ids = deployment.collector_ids();
    ids.extend(buckets.keys().copied());
    ids.into_iter()
        .map(|(dataset, collector)| {
            let bucket = buckets.get(&(dataset, collector)).map(Vec::as_slice).unwrap_or(&[]);
            archive_of(dataset, collector, bucket)
        })
        .collect()
}

/// One time-ordered stream over a set of archives: a strict zero-copy
/// [`MrtElemSource`] per archive, k-way merged in the
/// [`merge_streams`](bh_routing::merge_streams) order. A decode error
/// ends only its own archive's stream; check each source's
/// [`error`](MrtElemSource::error) via
/// [`into_sources`](MergedSource::into_sources) once the merge is
/// exhausted.
pub fn merged_archives(
    archives: &[CollectorArchive],
) -> MergedSource<MrtElemSource<MrtBytesReader>> {
    MergedSource::new(
        archives
            .iter()
            .map(|a| MrtElemSource::from_bytes(a.bytes.clone(), a.dataset, a.collector))
            .collect(),
    )
}

impl ScenarioOutput {
    /// The collector stream as per-collector MRT archives — the input
    /// shape of [`merged_archives`].
    pub fn fleet_archives(&self) -> Result<Vec<CollectorArchive>, MrtError> {
        fleet_archives(&self.elems)
    }
}

#[cfg(test)]
mod tests {
    use bh_bgp_types::community::{Community, CommunitySet};
    use bh_bgp_types::time::SimTime;
    use bh_routing::{
        collect_source, deploy, merge_streams, CollectorConfig, ElemSource, ElemType,
    };
    use bh_topology::{TopologyBuilder, TopologyConfig};

    use super::*;
    use crate::scenario::{run, ScenarioConfig};

    fn scenario() -> (CollectorDeployment, ScenarioOutput) {
        let t = TopologyBuilder::new(TopologyConfig::tiny(55)).build();
        let d = deploy(&t, &CollectorConfig::tiny(6));
        let output = run(&t, d.clone(), &ScenarioConfig::short(3, 3, 6.0));
        (d, output)
    }

    #[test]
    fn archives_partition_the_stream_losslessly() {
        let (_, output) = scenario();
        let archives = output.fleet_archives().expect("serialization succeeds");
        assert!(archives.len() >= 2, "expected several collectors");
        let total: u64 = archives.iter().map(|a| a.elems).sum();
        assert_eq!(total, output.elems.len() as u64);
        for archive in &archives {
            assert!(archive.name.contains("updates."));
            assert!(archive.name.starts_with(&archive.dataset.label().to_lowercase()));
            assert_eq!(archive.elems == 0, archive.bytes.is_empty());
        }
    }

    #[test]
    fn deployment_archives_include_silent_collectors() {
        let (deployment, output) = scenario();
        let archives = fleet_archives_for(&deployment, &output.elems).expect("serialize");
        assert_eq!(archives.len(), deployment.collector_ids().len());
        let observed = output.fleet_archives().unwrap();
        assert!(archives.len() >= observed.len());
        let total: u64 = archives.iter().map(|a| a.elems).sum();
        assert_eq!(total, output.elems.len() as u64);
    }

    #[test]
    fn deployment_archives_keep_foreign_collector_elems() {
        // Elements labelled with a pair the deployment never deployed
        // (e.g. a stream recorded under an older deployment) must not
        // be silently dropped.
        let (deployment, output) = scenario();
        let mut elems = output.elems.clone();
        let foreign = 999u16;
        assert!(!deployment.collector_ids().contains(&(DataSource::Ris, foreign)));
        elems[0].dataset = DataSource::Ris;
        elems[0].collector = foreign;
        let archives = fleet_archives_for(&deployment, &elems).expect("serialize");
        let total: u64 = archives.iter().map(|a| a.elems).sum();
        assert_eq!(total, elems.len() as u64, "foreign-labelled elems were dropped");
        assert!(archives
            .iter()
            .any(|a| a.dataset == DataSource::Ris && a.collector == foreign && a.elems == 1));
    }

    #[test]
    fn fleet_reingestion_reproduces_the_merged_stream() {
        let (deployment, output) = scenario();
        let archives = fleet_archives_for(&deployment, &output.elems).expect("serialize");
        let mut stream = merged_archives(&archives);
        let streamed = collect_source(&mut stream);
        assert!(stream.into_sources().iter().all(|s| s.error().is_none()));
        assert_eq!(streamed.len(), output.elems.len());

        let expected =
            merge_streams(split_by_collector(&output.elems).into_values().collect::<Vec<_>>());
        assert_eq!(streamed.len(), expected.len());
        // MRT normalizes the NEXT_HOP (absent → peer address), so compare
        // everything the inference consumes.
        for (got, want) in streamed.iter().zip(&expected) {
            assert_eq!(got.time, want.time);
            assert_eq!(got.dataset, want.dataset);
            assert_eq!(got.collector, want.collector);
            assert_eq!(got.peer_asn, want.peer_asn);
            assert_eq!(got.peer_ip, want.peer_ip);
            assert_eq!(got.elem_type, want.elem_type);
            assert_eq!(got.prefix, want.prefix);
            assert_eq!(got.as_path, want.as_path);
            assert_eq!(got.communities, want.communities);
        }
    }

    fn elem(t: u64, dataset: DataSource, collector: u16, peer: u32) -> BgpElem {
        BgpElem {
            time: SimTime::from_unix(t),
            dataset,
            collector,
            peer_asn: bh_bgp_types::asn::Asn::new(peer),
            peer_ip: "198.51.100.9".parse().unwrap(),
            elem_type: ElemType::Announce,
            prefix: "130.149.0.0/17".parse().unwrap(),
            as_path: "100 200 300".parse().unwrap(),
            communities: CommunitySet::from_classic(vec![Community::from_parts(100, 666)]),
            next_hop: Some("198.51.100.9".parse().unwrap()),
        }
    }

    fn archive(elems: &[BgpElem]) -> CollectorArchive {
        let (dataset, collector) =
            elems.first().map_or((DataSource::Cdn, 7), |e| (e.dataset, e.collector));
        archive_of(dataset, collector, elems).expect("write succeeds")
    }

    /// Three interleaved collectors, the third sparse.
    fn three_collectors() -> Vec<Vec<BgpElem>> {
        vec![
            (0..40).map(|k| elem(10 + k * 3, DataSource::Ris, 0, 11)).collect(),
            (0..40).map(|k| elem(11 + k * 2, DataSource::RouteViews, 1, 22)).collect(),
            (0..10).map(|k| elem(10 + k * 9, DataSource::Pch, 2, 33)).collect(),
        ]
    }

    #[test]
    fn fleet_yields_the_merge_streams_order() {
        let streams = three_collectors();
        let archives: Vec<_> = streams.iter().map(|s| archive(s)).collect();
        let mut merged = merged_archives(&archives);
        assert_eq!(merged.source_count(), 3);
        let streamed = collect_source(&mut merged);
        let sources = merged.into_sources();
        assert!(sources.iter().all(|s| s.error().is_none() && s.records_read() > 0));
        assert_eq!(streamed, merge_streams(streams), "must equal the materialized merge");
    }

    #[test]
    fn bytes_archives_match_the_read_path() {
        let streams = three_collectors();
        let archives: Vec<_> = streams.iter().map(|s| archive(s)).collect();
        let read_sources = archives
            .iter()
            .map(|a| MrtElemSource::new(&a.bytes[..], a.dataset, a.collector))
            .collect();
        let via_read = collect_source(MergedSource::new(read_sources));
        assert_eq!(collect_source(merged_archives(&archives)), via_read);
        assert_eq!(via_read.len(), 90);
    }

    #[test]
    fn empty_archives_stream_nothing_but_report() {
        let mut merged = merged_archives(&[archive(&[])]);
        assert!(merged.next_elem().is_none());
        let sources = merged.into_sources();
        assert!(sources[0].error().is_none());
        assert_eq!(sources[0].records_read(), 0);
    }

    #[test]
    fn torn_archive_is_reported_not_hidden() {
        let elems: Vec<BgpElem> = (0..5).map(|k| elem(k, DataSource::Ris, 0, 9)).collect();
        let mut torn = archive(&elems);
        torn.bytes = torn.bytes.slice(..torn.bytes.len() - 4);
        let mut merged = merged_archives(&[torn]);
        assert_eq!(collect_source(&mut merged).len(), 4, "intact records still stream");
        assert!(merged.into_sources()[0].error().is_some());
    }

    #[test]
    fn tolerant_fleet_counts_skipped_records() {
        // A corrupt-payload record, then valid ones: tolerant sources
        // skip and count, the strict `merged_archives` stops with an error.
        let elems: Vec<BgpElem> = (0..3).map(|k| elem(k, DataSource::Ris, 0, 9)).collect();
        let mut noisy = Vec::new();
        noisy.extend_from_slice(&1u32.to_be_bytes());
        noisy.extend_from_slice(&16u16.to_be_bytes()); // BGP4MP
        noisy.extend_from_slice(&4u16.to_be_bytes()); // MESSAGE_AS4
        noisy.extend_from_slice(&4u32.to_be_bytes());
        noisy.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        noisy.extend_from_slice(&archive(&elems).bytes);
        let noisy = Bytes::from(noisy);

        let tolerant = MrtElemSource::from_bytes_tolerant(noisy.clone(), DataSource::Ris, 0);
        let mut merged = MergedSource::new(vec![tolerant]);
        assert_eq!(collect_source(&mut merged).len(), 3);
        let sources = merged.into_sources();
        assert!(sources[0].error().is_none());
        assert_eq!(sources[0].records_skipped(), 1);

        let strict = CollectorArchive { bytes: noisy, ..archive(&elems) };
        let mut merged = merged_archives(&[strict]);
        assert!(collect_source(&mut merged).is_empty());
        assert!(merged.into_sources()[0].error().is_some());
    }
}
