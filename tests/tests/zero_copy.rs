//! Zero-copy decode equivalence: the sliced [`MrtBytesReader`] path
//! (with its attribute-block memo cache and Arc-shared handles) must be
//! observationally identical to the copying [`MrtReader`] path — same
//! records, same [`BgpElem`] streams, same [`InferenceResult`]s — on
//! arbitrary round-tripped archives. Interning is checked the same way:
//! tables built in any order are set-equal, and re-interning keeps
//! already-issued ids stable.

use std::sync::OnceLock;

use proptest::prelude::*;

use bh_bench::{Study, StudyScale};
use bh_bgp_types::as_path::AsPath;
use bh_bgp_types::asn::Asn;
use bh_bgp_types::attrs::{Origin, PathAttributes};
use bh_bgp_types::community::{Community, CommunitySet, LargeCommunity};
use bh_bgp_types::intern::{InternTable, PathTable};
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_bgp_types::update::BgpUpdate;
use bh_mrt::{MrtBytesReader, MrtReader, MrtWriter};
use bh_routing::archive::MrtElemSource;
use bh_routing::{DataSource, ElemSource, MergedSource};

const PEER_IP: &str = "198.51.100.44";
const LOCAL_IP: &str = "192.0.2.254";

/// Serialized-update generator: a plausible mix of tagged announcements,
/// repeated attribute blocks (the cache's hot case), and withdrawals.
type UpdateFields =
    (u64, u32, Vec<u32>, Vec<u32>, Vec<(u32, u32, u32)>, Vec<(u32, u8)>, Vec<(u32, u8)>);

fn arb_update_fields() -> impl Strategy<Value = Vec<UpdateFields>> {
    prop::collection::vec(
        (
            0u64..4_000_000_000,
            1u32..65_000,
            prop::collection::vec(1u32..64, 0..4), // small ASN pool: repeats
            prop::collection::vec(1u32..16, 0..3), // small community pool
            prop::collection::vec((1u32..8, 1u32..8, 1u32..8), 0..2),
            prop::collection::vec((any::<u32>(), 8u8..=32), 0..3),
            prop::collection::vec((any::<u32>(), 8u8..=32), 0..3),
        ),
        0..24,
    )
}

fn write_archive(draws: &[UpdateFields]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut writer = MrtWriter::new(&mut buf);
    for (t, peer, hops, comms, large, announced, withdrawn) in draws {
        let attrs = if announced.is_empty() {
            PathAttributes::default()
        } else {
            let mut communities =
                CommunitySet::from_classic(comms.iter().map(|&c| Community(c)).collect::<Vec<_>>());
            for &(a, b, c) in large {
                communities.insert_large(LargeCommunity::new(a, b, c));
            }
            PathAttributes {
                origin: Origin::Igp,
                as_path: AsPath::from_sequence(
                    hops.iter().map(|&a| Asn::new(a)).collect::<Vec<_>>(),
                ),
                next_hop: Some("203.0.113.66".parse().unwrap()),
                communities,
                ..Default::default()
            }
        };
        let mut update = BgpUpdate::new(attrs);
        for &(net, len) in announced {
            update.announce_v4(Ipv4Prefix::from_raw(net, len));
        }
        for &(net, len) in withdrawn {
            update.withdraw_v4(Ipv4Prefix::from_raw(net, len));
        }
        writer
            .write_update(
                SimTime::from_unix(*t),
                Asn::new(*peer),
                PEER_IP.parse().unwrap(),
                Asn::new(64_512),
                LOCAL_IP.parse().unwrap(),
                &update,
            )
            .expect("update writes");
    }
    buf
}

fn drain<S: ElemSource>(mut source: S) -> Vec<bh_routing::BgpElem> {
    let mut out = Vec::new();
    while let Some(elem) = source.next_elem() {
        out.push(elem.clone());
    }
    out
}

proptest! {
    /// Record-level equivalence: both readers decode the same archive to
    /// the same record sequence.
    #[test]
    fn bytes_reader_equals_read_reader(draws in arb_update_fields()) {
        let archive = write_archive(&draws);
        let copied: Vec<_> = MrtReader::new(&archive[..])
            .collect::<Result<_, _>>()
            .expect("valid archive");
        let sliced: Vec<_> = MrtBytesReader::new(archive)
            .collect::<Result<_, _>>()
            .expect("valid archive");
        prop_assert_eq!(copied, sliced);
    }

    /// Elem-level equivalence: the zero-copy source streams the same
    /// `BgpElem`s as the copying source, in the same order.
    #[test]
    fn bytes_source_equals_read_source(draws in arb_update_fields()) {
        let archive = write_archive(&draws);
        let via_read =
            drain(MrtElemSource::new(&archive[..], DataSource::Ris, 7));
        let via_bytes = drain(MrtElemSource::from_bytes(archive, DataSource::Ris, 7));
        prop_assert_eq!(&via_read, &via_bytes);
    }

    /// Intern tables are order-insensitive sets with stable ids: interning
    /// the same values in any order yields equal tables, and resolving an
    /// id issued before more values arrive still returns the same value
    /// after them.
    #[test]
    fn intern_tables_dedup_and_keep_ids_stable(
        a in prop::collection::vec(prop::collection::vec(1u32..32, 0..5), 0..12),
        b in prop::collection::vec(prop::collection::vec(1u32..32, 0..5), 0..12),
    ) {
        let paths_of = |draws: &[Vec<u32>]| -> Vec<AsPath> {
            draws
                .iter()
                .map(|hops| {
                    AsPath::from_sequence(hops.iter().map(|&h| Asn::new(h)).collect::<Vec<_>>())
                })
                .collect()
        };
        let (left, right) = (paths_of(&a), paths_of(&b));

        // Order-insensitivity.
        let mut fwd = PathTable::new();
        let mut rev = PathTable::new();
        for p in &left {
            fwd.intern(p);
        }
        for p in left.iter().rev() {
            rev.intern(p);
        }
        prop_assert_eq!(&fwd, &rev);

        // Id stability as more values arrive.
        let issued: Vec<_> = left.iter().map(|p| fwd.intern(p)).collect();
        for p in &right {
            fwd.intern(p);
        }
        for (p, id) in left.iter().zip(&issued) {
            prop_assert_eq!(fwd.resolve(*id), p); // new values must not move an issued id
        }
        // The table is the set union.
        let mut expect = InternTable::new();
        for p in left.iter().chain(&right) {
            expect.intern(p);
        }
        prop_assert_eq!(&fwd, &expect);
    }
}

/// One Small-scale environment shared by the golden tests below.
fn small_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::build(StudyScale::Small, 42))
}

/// The golden end-to-end check: a realistic multi-collector archive set
/// run through the copying merged stream and the zero-copy
/// `merged_archives` stream produces bit-identical `InferenceResult`s.
#[test]
fn zero_copy_inference_equals_read_path_inference() {
    let study = small_study();
    let run = study.visibility_run(4, 6.0);
    let refdata = run.refdata;
    let archives = run.output.fleet_archives().expect("archives serialize");
    assert!(archives.len() >= 2, "need a real fleet");

    let read_sources: Vec<_> =
        archives.iter().map(|a| MrtElemSource::new(&a.bytes[..], a.dataset, a.collector)).collect();
    let via_read = study.infer_source(&refdata, &mut MergedSource::new(read_sources));

    let via_bytes = study.infer_fleet(&refdata, &archives);
    assert_eq!(via_read, via_bytes, "zero-copy merged stream diverged");

    assert!(!via_read.events.is_empty(), "degenerate run: nothing inferred");
}
