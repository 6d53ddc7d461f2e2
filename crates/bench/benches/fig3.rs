//! Bench target for Figures 3(a)/3(b): the per-bin sweep kernel — generate
//! one binned taskset and evaluate the full series (DP, GN1, GN2, SIM-NF,
//! SIM-FkF) — at both figure sizes (4 and 10 tasks), through the sweep
//! engine on one pool worker. Full regeneration is
//! `fpga-rt study figures --figure fig3a` (and `fig3b`).

use criterion::{criterion_group, criterion_main, Criterion};
use fpga_rt_exp::acceptance::standard_evaluators;
use fpga_rt_exp::sweep::{run_pool_sweep, PoolSweepConfig};
use fpga_rt_gen::FigureWorkload;
use std::hint::black_box;

fn bench_fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3");
    group.sample_size(10);
    for workload in [FigureWorkload::fig3a(), FigureWorkload::fig3b()] {
        // Reduced-scale sweep: full bin count, few samples, short horizon —
        // the same code path as the figure, sized for a benchmark.
        let evaluators = standard_evaluators(10.0);
        group.bench_function(format!("{}/sweep-5-per-bin", workload.id), |b| {
            b.iter(|| {
                let mut config = PoolSweepConfig::new(workload, 5, 99);
                config.workers = 1; // measure the kernel, not the parallelism
                black_box(run_pool_sweep(&config, &evaluators))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
