//! Fleet ingestion: the multi-collector historical path, end to end.
//!
//! ```text
//! cargo run --release -p bh-examples --example fleet_ingestion
//! ```
//!
//! Simulates a scenario, partitions the collector stream into one MRT
//! updates archive per `(platform, collector)` — the shape real
//! pipelines download from RIS/Route Views/PCH — then re-ingests the
//! whole archive set through `merged_archives`: one zero-copy reader per
//! archive under a k-way timestamp merge, feeding one inference session
//! that drains closed events straight into the analytics accumulators.
//! No `Vec<BgpElem>` of the stream ever exists on this path, and the
//! result is bit-identical to the materialized baseline.

use bh_bench::{Study, StudyRun, StudyScale};
use bh_core::prelude::*;
use bh_examples::section;
use bh_routing::{merge_streams, split_by_collector, ElemSource};
use bh_workloads::merged_archives;

fn main() {
    section("1. simulate and partition into per-collector archives");
    let study = Study::build(StudyScale::Small, 7);
    let StudyRun { output, refdata, analytics, .. } = study.visibility_run(7, 10.0);
    let archives = output.fleet_archives().expect("archives serialize");
    let total_bytes: usize = archives.iter().map(|a| a.bytes.len()).sum();
    println!(
        "{} elems partitioned into {} archives ({} KiB total), e.g.:",
        output.elems.len(),
        archives.len(),
        total_bytes / 1024
    );
    for archive in archives.iter().take(4) {
        println!("  {:<40} {:>7} elems", archive.name, archive.elems);
    }

    section("2. archives → k-way merge → session + streaming analytics");
    let mut session = study.session(&refdata).build();
    let mut pipeline = study.analytics_pipeline(&refdata, analytics);
    let mut stream = merged_archives(&archives);
    let mut ingested = 0u64;
    while let Some(elem) = stream.next_elem() {
        session.push(elem);
        ingested += 1;
        if ingested.is_multiple_of(4_096) {
            session.drain_closed_into(&mut pipeline);
        }
    }
    let sources = stream.into_sources();
    for source in &sources {
        assert!(source.error().is_none(), "archive error: {:?}", source.error());
    }
    let summary = session.finish_with(&mut pipeline);
    let fleet_report = pipeline.finalize();
    println!(
        "{} readers decoded {} records; {} elems ingested",
        sources.len(),
        sources.iter().map(|s| s.records_read()).sum::<u64>(),
        ingested
    );
    println!(
        "inference: {} elems, {} tagged announcements, {} blackholed prefixes",
        summary.stats.elems,
        summary.stats.tagged_announcements,
        fleet_report.blackholed_prefixes.len()
    );

    section("3. golden check vs the materialized baseline");
    let merged = merge_streams(split_by_collector(&output.elems).into_values().collect());
    let (batch_summary, batch_report) =
        study.infer_streaming_analytics(&refdata, &merged, analytics, 4_096);
    assert_eq!(batch_summary.stats, summary.stats, "stats diverged");
    assert_eq!(batch_report, fleet_report, "analytics diverged");
    println!("fleet AnalyticsReport == materialized AnalyticsReport ✓");
    println!(
        "table 3 rows: {} | daily series days: {} | grouped periods: {}",
        fleet_report.table3.len(),
        fleet_report.daily.len(),
        fleet_report.periods.len()
    );
}
