//! Fig. 4 — longitudinal adoption: daily providers / users / prefixes
//! over Dec 2014 – Mar 2017, with the named DDoS spikes.

use criterion::{criterion_group, criterion_main, Criterion};

use bh_analysis::{render_series, Series};
use bh_bench::{Study, StudyRun, StudyScale};
use bh_bgp_types::time::study as window;
use bh_core::{daily_series, DailySeriesAccumulator, EventAccumulator};
use bh_workloads::SPIKES;

fn bench(c: &mut Criterion) {
    let study = Study::build(StudyScale::Tiny, 42);
    // Tiny topology but the full 2.3-year calendar, scaled attack rate.
    let StudyRun { output, result, report, .. } = study.longitudinal_run(2.0);

    let series =
        daily_series(&result.events, window::longitudinal_start(), window::longitudinal_end());
    assert_eq!(series, report.daily, "streamed accumulator must equal the batch series");
    let to_points = |f: fn(&bh_core::DailyPoint) -> usize| -> Vec<(f64, f64)> {
        series.iter().map(|p| (p.day.day_index() as f64, f(p) as f64)).collect()
    };
    println!(
        "{}",
        render_series(
            "Fig 4: daily blackholing activity",
            &[
                Series::new("providers", to_points(|p| p.providers)),
                Series::new("users", to_points(|p| p.users)),
                Series::new("prefixes", to_points(|p| p.prefixes)),
            ],
        )
    );

    // Growth factors: mean of first vs last 60 days.
    let head = 60.min(series.len());
    let growth = |f: fn(&bh_core::DailyPoint) -> usize| -> f64 {
        let first: f64 =
            series.iter().take(head).map(|p| f(p) as f64).sum::<f64>() / head.max(1) as f64;
        let last: f64 =
            series.iter().rev().take(head).map(|p| f(p) as f64).sum::<f64>() / head.max(1) as f64;
        if first > 0.0 {
            last / first
        } else {
            f64::INFINITY
        }
    };
    println!("shape: provider growth x{:.1} (paper: ~x2.5)", growth(|p| p.providers));
    println!("shape: user growth     x{:.1} (paper: ~x4)", growth(|p| p.users));
    println!("shape: prefix growth   x{:.1} (paper: ~x6)", growth(|p| p.prefixes));

    // Spikes: each named attack day should beat its local baseline.
    for spike in SPIKES {
        let day =
            bh_bgp_types::time::SimTime::from_ymd(spike.year, spike.month, spike.day).day_index();
        let idx = (day - window::longitudinal_start().day_index()) as usize;
        if idx < 7 || idx + 1 >= series.len() {
            continue;
        }
        let baseline: f64 =
            series[idx - 7..idx].iter().map(|p| p.prefixes as f64).sum::<f64>() / 7.0;
        let on_day = series[idx].prefixes as f64;
        println!(
            "spike {} ({}): prefixes {} vs 7-day baseline {:.1} -> x{:.1}",
            spike.label,
            spike.description,
            on_day,
            baseline,
            if baseline > 0.0 { on_day / baseline } else { f64::INFINITY }
        );
    }
    println!(
        "events: {} inferred over {} days ({} ground-truth reactions)\n",
        result.events.len(),
        output.days,
        output.ground_truth.len()
    );

    c.bench_function("fig4/daily_series", |b| {
        b.iter(|| {
            daily_series(&result.events, window::longitudinal_start(), window::longitudinal_end())
        })
    });
    // One-pass form: the same fold as an explicit mergeable accumulator
    // (the shape a streaming session drains into).
    c.bench_function("fig4/streaming_accumulator", |b| {
        b.iter(|| {
            let mut acc = DailySeriesAccumulator::new(
                window::longitudinal_start(),
                window::longitudinal_end(),
            );
            for event in &result.events {
                acc.observe(event);
            }
            acc.finalize()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
