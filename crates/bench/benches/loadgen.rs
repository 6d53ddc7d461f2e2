//! `loadgen` — cost of the traffic-shaped load generator itself: stream
//! synthesis per profile, end-to-end deterministic replay, and histogram
//! recording.
//!
//! Synthesis and replay are benched separately so a regression report
//! says *which* stage moved: synthesis is single-threaded RNG work, the
//! replay row covers the per-session controllers and stats aggregation
//! (run deterministic here, on the calling thread like every replay). The
//! histogram row bounds the per-sample overhead the latency numbers
//! themselves carry.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpga_rt_loadgen::{run, synthesize, ArrivalProfile, LatencyHistogram, LoadConfig, LoadSpec};
use std::hint::black_box;

const OPS: usize = 2_000;

fn spec_for(profile: ArrivalProfile) -> LoadSpec {
    LoadSpec { profile, ops: OPS, sessions: 16, columns: 100, seed: 20070326 }
}

fn bench_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("loadgen_synthesize");
    for profile in ArrivalProfile::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(profile),
            &spec_for(profile),
            |b, spec| b.iter(|| black_box(synthesize(spec).unwrap().len())),
        );
    }
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("loadgen_replay");
    for profile in ArrivalProfile::all() {
        let config = LoadConfig {
            ops: OPS,
            sessions: 16,
            columns: 100,
            deterministic: true,
            ..LoadConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(profile), &config, |b, config| {
            b.iter(|| {
                let report = run(&[profile], config).unwrap();
                black_box(report.profiles[0].admits)
            })
        });
    }
    group.finish();
}

fn bench_histogram(c: &mut Criterion) {
    // A deterministic spread of values across the exact and log-scale
    // bucket ranges, pre-generated so the row times `record` alone.
    let values: Vec<u64> = (0..100_000u64).map(|i| (i * 2_654_435_761) % 5_000_000).collect();
    c.bench_function("loadgen_histogram_record_100k", |b| {
        b.iter(|| {
            let mut hist = LatencyHistogram::new();
            for &v in &values {
                hist.record(v);
            }
            black_box(hist.quantile(0.99))
        })
    });
}

criterion_group!(benches, bench_synthesis, bench_replay, bench_histogram);
criterion_main!(benches);
