//! Bench target for Figures 4(a)/4(b): the constrained-distribution sweep
//! kernels (spatially-heavy/temporally-light and the converse), through the
//! sweep engine on one pool worker. Full regeneration is
//! `fpga-rt study figures --figure fig4a` (and `fig4b`).

use criterion::{criterion_group, criterion_main, Criterion};
use fpga_rt_exp::acceptance::standard_evaluators;
use fpga_rt_exp::sweep::{run_pool_sweep, PoolSweepConfig};
use fpga_rt_gen::FigureWorkload;
use std::hint::black_box;

fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4");
    group.sample_size(10);
    for workload in [FigureWorkload::fig4a(), FigureWorkload::fig4b()] {
        let evaluators = standard_evaluators(10.0);
        group.bench_function(format!("{}/sweep-5-per-bin", workload.id), |b| {
            b.iter(|| {
                let mut config = PoolSweepConfig::new(workload, 5, 99);
                config.workers = 1;
                black_box(run_pool_sweep(&config, &evaluators))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
