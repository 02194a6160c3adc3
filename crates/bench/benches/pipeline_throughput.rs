//! Pipeline throughput: the systems-performance benches — MRT codec
//! throughput, propagation rate, and inference rate (elements/second)
//! in every execution mode: **batch** (one-shot over a materialized
//! slice), **streaming** (incremental push with mid-stream event
//! draining), **streaming with inline analytics** (closed events drain
//! straight into the AnalyticsPipeline accumulators; the full event Vec
//! is never materialized), and the **fleet ingestion** modes
//! (materialized merge vs constant-memory merged stream). Not a paper
//! artifact; these quantify the implementation itself.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use bh_bench::{Study, StudyRun, StudyScale};
use bh_routing::archive::{mrt_round_trip, read_updates, write_updates};
use bh_routing::{merge_streams, BgpElem, ElemSource, MrtElemSource, SliceSource};
use bh_workloads::merged_archives;

fn bench(c: &mut Criterion) {
    let study = Study::build(StudyScale::Small, 42);
    let StudyRun { output, refdata, analytics, .. } = study.visibility_run(6, 6.0);
    let elems = &output.elems;
    println!(
        "pipeline input: {} elems from {} announcements over {} days",
        elems.len(),
        output.announcements,
        output.days
    );

    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Elements(elems.len() as u64));
    // Batch: materialized slice in, one result out (the old API shape).
    group.bench_function("inference_batch", |b| b.iter(|| study.infer(&refdata, elems)));
    // Streaming: push one element at a time, hand closed events to the
    // consumer every ~4k elements — the constant-memory online mode.
    group.bench_function("inference_streaming", |b| {
        b.iter(|| {
            let mut session = study.session(&refdata).build();
            let mut source = SliceSource::new(elems);
            let mut handed_out = 0usize;
            let mut n = 0u64;
            while let Some(elem) = source.next_elem() {
                session.push(elem);
                n += 1;
                if n.is_multiple_of(4096) {
                    handed_out += session.drain_closed().len();
                }
            }
            let result = session.finish();
            handed_out + result.events.len()
        })
    });
    // Streaming with inline analytics: closed events drain straight
    // into the AnalyticsPipeline accumulators, so every paper figure
    // falls out of the same pass and the full event Vec is NEVER
    // materialized — the constant-memory archive-scan mode.
    group.bench_function("inference_streaming_analytics", |b| {
        b.iter(|| {
            let (summary, report) =
                study.infer_streaming_analytics(&refdata, elems, analytics, 4096);
            (summary.stats.elems, report.table3.len())
        })
    });
    group.bench_function("mrt_write", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(1 << 20);
            write_updates(&mut buf, elems).expect("write succeeds");
            buf
        })
    });
    group.bench_function("mrt_round_trip", |b| {
        b.iter(|| mrt_round_trip(elems).expect("round trip succeeds"))
    });
    // The full historical path: per-collector MRT archives (the shape
    // real pipelines download) → streaming sources → one session, with
    // no intermediate Vec<BgpElem>. The wire format does not carry the
    // platform/collector labels, so one archive per (dataset,
    // collector) keeps every PeerKey intact — same workload as above.
    let archives = output.fleet_archives().expect("fleet archives serialize");
    group.bench_function("inference_from_mrt_stream", |b| {
        b.iter(|| {
            let mut session = study.session(&refdata).build();
            for archive in &archives {
                let mut source = MrtElemSource::from_bytes(
                    archive.bytes.clone(),
                    archive.dataset,
                    archive.collector,
                );
                session.ingest(&mut source);
                assert!(source.error().is_none());
            }
            session.finish().events.len()
        })
    });
    // ---- fleet ingestion modes -------------------------------------------
    // The same per-collector archive set, ingested two ways:
    //
    // * materialized — decode every archive into a Vec, merge_streams,
    //   then infer (peak memory = whole stream);
    // * merged-stream — k MrtElemSources under a k-way MergedSource heap
    //   (`merged_archives`), no Vec<BgpElem> ever (constant memory).
    group.bench_function("fleet_materialized_merge", |b| {
        b.iter(|| {
            let streams: Vec<Vec<BgpElem>> = archives
                .iter()
                .map(|a| read_updates(&a.bytes[..], a.dataset, a.collector).expect("decodes"))
                .collect();
            let merged = merge_streams(streams);
            study.infer(&refdata, &merged).events.len()
        })
    });
    group.bench_function("fleet_merged_stream", |b| {
        b.iter(|| study.infer_source(&refdata, &mut merged_archives(&archives)).events.len())
    });
    group.finish();

    // Propagation rate: full scenario at Tiny scale (fresh simulator
    // every iteration).
    let tiny = Study::build(StudyScale::Tiny, 7);
    let mut group = c.benchmark_group("propagation");
    group.sample_size(10);
    group.bench_function("scenario_4days_tiny", |b| b.iter(|| tiny.visibility_run(4, 6.0)));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
