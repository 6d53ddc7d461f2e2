//! `sweep_throughput` — tasksets/sec of the pool-backed acceptance-ratio
//! sweep engine, in two dimensions on one fixed population (fig3a, 5 bins
//! × 40 tasksets, DP/GN1/GN2/AnyOf):
//!
//! * **worker scaling** — 1, 2 and all-core pools on the default (batch)
//!   kernel; because the engine is deterministic in the worker count,
//!   every row evaluates the *identical* work.
//! * **kernel comparison** — the batch path (one packed SoA pass for all
//!   four series) against the closure ("scalar") evaluators, whose
//!   `SchedTest::check` builds a report per series on the same analysis
//!   kernel, at one worker (`kernel_speedup_report` prints the ratio; the
//!   acceptance criterion is batch ≥ 1.5× scalar).
//!
//! Worker counts honour `FPGA_RT_BENCH_MAX_WORKERS`
//! ([`fpga_rt_bench::bench_worker_counts`]) so CI perf jobs can pin the
//! suite to single-worker rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpga_rt_bench::bench_worker_counts;
use fpga_rt_exp::sweep::{
    analysis_evaluators, analysis_evaluators_scalar, run_pool_sweep, PoolSweepConfig,
};
use fpga_rt_gen::{FigureWorkload, UtilizationBins};
use std::hint::black_box;

const BINS: usize = 5;
const PER_BIN: usize = 40;

fn config(workers: usize) -> PoolSweepConfig {
    let mut config = PoolSweepConfig::new(FigureWorkload::fig3a(), PER_BIN, 20070326);
    config.bins = UtilizationBins::new(0.0, 1.0, BINS);
    config.workers = workers;
    config
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_throughput");
    for workers in bench_worker_counts() {
        group.bench_with_input(BenchmarkId::new("batch", workers), &workers, |b, &w| {
            let evaluators = analysis_evaluators();
            b.iter(|| black_box(run_pool_sweep(&config(w), &evaluators)))
        });
    }
    // One scalar row at the noise-minimal worker count anchors the kernel
    // comparison inside the tracked bench set.
    group.bench_with_input(BenchmarkId::new("scalar", 1usize), &1usize, |b, &w| {
        let evaluators = analysis_evaluators_scalar();
        b.iter(|| black_box(run_pool_sweep(&config(w), &evaluators)))
    });
    group.finish();
}

fn best_time(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Direct tasksets/sec and worker-speedup figures on the batch kernel
/// (the criterion shim only prints ns/iter of the whole sweep).
fn speedup_report(_c: &mut Criterion) {
    let evaluators = analysis_evaluators();
    let time = |workers: usize| {
        best_time(|| drop(black_box(run_pool_sweep(&config(workers), &evaluators))))
    };
    let units = (BINS * PER_BIN) as f64;
    let base = time(1);
    println!("sweep_throughput: workers=1     {:>10.0} tasksets/sec (baseline)", units / base);
    for workers in bench_worker_counts().into_iter().skip(1) {
        let t = time(workers);
        println!(
            "sweep_throughput: workers={workers:<5} {:>10.0} tasksets/sec ({:.2}x speedup)",
            units / t,
            base / t
        );
    }
}

/// Batch-vs-scalar kernel ratio at one worker on the fig-3 population —
/// the kernel's acceptance criterion (≥ 1.5×).
fn kernel_speedup_report(_c: &mut Criterion) {
    let batch_evals = analysis_evaluators();
    let scalar_evals = analysis_evaluators_scalar();
    let units = (BINS * PER_BIN) as f64;
    let scalar = best_time(|| drop(black_box(run_pool_sweep(&config(1), &scalar_evals))));
    let batch = best_time(|| drop(black_box(run_pool_sweep(&config(1), &batch_evals))));
    println!(
        "sweep_throughput: kernel=scalar w1 {:>10.0} tasksets/sec, kernel=batch w1 {:>10.0} \
         tasksets/sec ({:.2}x, acceptance ≥ 1.50x)",
        units / scalar,
        units / batch,
        scalar / batch
    );
}

criterion_group!(benches, bench_sweep, speedup_report, kernel_speedup_report);
criterion_main!(benches);
