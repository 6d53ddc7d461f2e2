//! Runtime cost of the configuration ablations (X1–X3 in `docs/THEORY.md`,
//! "Theorem 1 — DP" to "Theorem 3 — GN2"): how much
//! slower is the GN2 dense-grid λ search than the paper's candidate points,
//! and what do the GN1/DP variants cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpga_rt_analysis::{DpTest, Gn1Test, Gn2Test, SchedTest};
use fpga_rt_bench::{device100, random_tasksets};
use std::hint::black_box;

fn bench_ablations(c: &mut Criterion) {
    let dev = device100();
    let sets = random_tasksets(10, 8, 13);
    let mut group = c.benchmark_group("ablations");

    type Variant = (&'static str, Box<dyn Fn(&fpga_rt_model::TaskSet<f64>) -> bool>);
    let variants: Vec<Variant> = vec![
        ("gn2/paper-points", Box::new(move |ts| Gn2Test::default().is_schedulable(ts, &dev))),
        ("gn2/grid-64", Box::new(move |ts| Gn2Test::with_grid_search(64).is_schedulable(ts, &dev))),
        ("gn1/denominator-di", Box::new(move |ts| Gn1Test::default().is_schedulable(ts, &dev))),
        (
            "gn1/denominator-dk",
            Box::new(move |ts| Gn1Test::bcl_faithful().is_schedulable(ts, &dev)),
        ),
        ("dp/integer-bound", Box::new(move |ts| DpTest::default().is_schedulable(ts, &dev))),
        ("dp/real-bound", Box::new(move |ts| DpTest::original_danne().is_schedulable(ts, &dev))),
    ];

    for (name, f) in &variants {
        group.bench_with_input(BenchmarkId::new(*name, sets.len()), &sets, |b, sets| {
            b.iter(|| {
                for ts in sets {
                    black_box(f(ts));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
