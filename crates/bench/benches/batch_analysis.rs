//! `batch_analysis` — the analysis kernel's packed batch path against the
//! closure ("scalar") DP/GN1/GN2/AnyOf evaluators on fixed 256-taskset
//! populations from every figure distribution.
//!
//! Both rows run the same kernel and evaluate the identical verdicts, so
//! the ratio is pure evaluator overhead: a pack, report rows and
//! `format!`ed notes per series, and the composite's component re-runs on
//! the closure side, versus one packed pass for all four series on the
//! batch side. `kernel_report` prints the tasksets/sec ratio directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpga_rt_analysis::{BatchAnalyzer, TaskSetBatch};
use fpga_rt_bench::figure_tasksets;
use fpga_rt_exp::sweep::analysis_evaluators_scalar;
use fpga_rt_gen::FigureWorkload;
use fpga_rt_model::TaskSet;
use std::hint::black_box;

const POPULATION: usize = 256;

fn population(workload: &FigureWorkload) -> Vec<TaskSet<f64>> {
    figure_tasksets(workload, POPULATION, 20070326)
}

/// Closure path: every evaluator of [`analysis_evaluators_scalar`] on
/// every taskset.
fn run_scalar(tasksets: &[TaskSet<f64>], device: &fpga_rt_model::Fpga) -> usize {
    let evaluators = analysis_evaluators_scalar();
    let mut accepted = 0usize;
    for ts in tasksets {
        for ev in &evaluators {
            if ev.accepts(ts, device) {
                accepted += 1;
            }
        }
    }
    accepted
}

/// Batch kernel: pack once into the reused SoA store, one pass for all
/// four series.
fn run_batch(
    tasksets: &[TaskSet<f64>],
    device: &fpga_rt_model::Fpga,
    batch: &mut TaskSetBatch,
    out: &mut Vec<fpga_rt_analysis::BatchVerdicts>,
) -> usize {
    batch.clear();
    for ts in tasksets {
        batch.push(ts);
    }
    BatchAnalyzer::new().analyze_batch(batch, device, out);
    out.iter()
        .map(|v| {
            usize::from(v.dp.accepted)
                + usize::from(v.gn1.accepted)
                + usize::from(v.gn2.accepted)
                + usize::from(v.any_of.accepted)
        })
        .sum()
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_analysis");
    for workload in FigureWorkload::all() {
        let tasksets = population(&workload);
        let device = workload.device();
        group.bench_with_input(
            BenchmarkId::new("scalar", workload.id),
            &tasksets,
            |b, tasksets| b.iter(|| black_box(run_scalar(tasksets, &device))),
        );
        let mut batch = TaskSetBatch::new();
        let mut out = Vec::new();
        group.bench_with_input(BenchmarkId::new("batch", workload.id), &tasksets, |b, tasksets| {
            b.iter(|| black_box(run_batch(tasksets, &device, &mut batch, &mut out)))
        });
    }
    group.finish();
}

/// Direct tasksets/sec comparison per figure (the criterion shim only
/// prints ns/iter).
fn kernel_report(_c: &mut Criterion) {
    for workload in FigureWorkload::all() {
        let tasksets = population(&workload);
        let device = workload.device();
        let time = |f: &mut dyn FnMut() -> usize| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let start = std::time::Instant::now();
                black_box(f());
                best = best.min(start.elapsed().as_secs_f64());
            }
            best
        };
        let scalar = time(&mut || run_scalar(&tasksets, &device));
        let mut batch = TaskSetBatch::new();
        let mut out = Vec::new();
        let batched = time(&mut || run_batch(&tasksets, &device, &mut batch, &mut out));
        println!(
            "batch_analysis: {:<6} scalar {:>9.0} ts/s, batch {:>9.0} ts/s ({:.2}x)",
            workload.id,
            POPULATION as f64 / scalar,
            POPULATION as f64 / batched,
            scalar / batched
        );
    }
}

criterion_group!(benches, bench_kernels, kernel_report);
criterion_main!(benches);
