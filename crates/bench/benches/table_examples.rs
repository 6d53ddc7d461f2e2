//! Bench target for Tables 1–3: cost of one full verdict-matrix evaluation
//! (DP + GN1 + GN2) per table, in `f64` and in exact rational arithmetic.
//! Regenerating the tables themselves is `fpga-rt tables`; this target
//! measures the kernel the reproduction rests on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fpga_rt_exp::tables::{paper_tables, table_device, VerdictRow};
use std::hint::black_box;

fn bench_tables(c: &mut Criterion) {
    let dev = table_device();
    let cases = paper_tables();

    let mut group = c.benchmark_group("tables");
    for case in &cases {
        group.bench_function(format!("{}/f64", case.name), |b| {
            b.iter_batched(
                || case.taskset.clone(),
                |ts| black_box(VerdictRow::evaluate(&ts, &dev)),
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("{}/exact", case.name), |b| {
            b.iter_batched(
                || case.taskset_exact.clone(),
                |ts| black_box(VerdictRow::evaluate(&ts, &dev)),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);
