//! # fpga-rt-bench
//!
//! Criterion benchmark suite. One bench target per paper artifact plus the
//! ablation and substrate micro-benchmarks:
//!
//! | bench target | paper artifact / purpose |
//! |---|---|
//! | `table_examples` | Tables 1–3 verdict computation, f64 vs exact |
//! | `fig3` | Figures 3(a)/3(b) sweep kernel (analysis + simulation) |
//! | `fig4` | Figures 4(a)/4(b) sweep kernel |
//! | `test_runtime` | DP/GN1/GN2 scaling vs N (O(N)/O(N²)/O(N³)) |
//! | `sim_throughput` | event-engine throughput across schedulers/placements |
//! | `placement` | 1-D free-list micro-operations |
//! | `rational` | exact-arithmetic cost vs f64 |
//! | `ablations` | λ-search and β-denominator configuration costs |
//! | `admission` | online admission-control decisions/sec at batch 1/64/1024 |
//! | `sweep_throughput` | pool-parallel sweep engine: worker scaling + batch-vs-closure path |
//! | `conform_throughput` | pool-parallel conformance engine scaling vs worker count |
//! | `batch_analysis` | packed batch path vs per-test `check` reports (one kernel) per figure workload |
//!
//! This library only hosts shared fixture helpers; run the suite with
//! `cargo bench -p fpga-rt-bench`. Pool-backed benches honour
//! `FPGA_RT_BENCH_MAX_WORKERS` (see [`bench_worker_counts`]): CI's
//! perf-gate and bench-smoke jobs pin it to 1 so baseline comparisons are
//! not noise-dominated by thread scheduling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fpga_rt_gen::TasksetSpec;
use fpga_rt_model::{Fpga, TaskSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's evaluation device: 100 columns.
pub fn device100() -> Fpga {
    Fpga::new(100).unwrap()
}

/// Deterministic unconstrained tasksets of size `n` (paper Figure 3
/// distribution), `count` of them.
pub fn random_tasksets(n: usize, count: usize, seed: u64) -> Vec<TaskSet<f64>> {
    let spec = TasksetSpec::unconstrained(n);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| spec.generate(&mut rng)).collect()
}

/// The worker counts a pool-backed bench measures: 1, 2 and all cores,
/// clamped by the `FPGA_RT_BENCH_MAX_WORKERS` environment variable (CI
/// perf jobs pin it to 1 for low-noise, baseline-comparable rows).
pub fn bench_worker_counts() -> Vec<usize> {
    let cap = std::env::var("FPGA_RT_BENCH_MAX_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(usize::MAX);
    let all = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut counts = vec![1usize, 2];
    if all > 2 {
        counts.push(all);
    }
    counts.retain(|&w| w <= cap);
    if counts.is_empty() {
        counts.push(1);
    }
    counts
}

/// Deterministic tasksets drawn from one of the paper's figure
/// distributions (`count` draws of the raw spec, unbinned).
pub fn figure_tasksets(
    workload: &fpga_rt_gen::FigureWorkload,
    count: usize,
    seed: u64,
) -> Vec<TaskSet<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| workload.spec.generate(&mut rng)).collect()
}

/// A deterministic light taskset (normalized system utilization well below
/// 1) for simulator-throughput runs that should not stop at an early miss.
pub fn light_taskset(n: usize, seed: u64) -> TaskSet<f64> {
    let spec = TasksetSpec {
        n_tasks: n,
        period_range: (5.0, 20.0),
        exec_factor_range: (0.0, 0.25),
        area_range: (1, 30),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    spec.generate(&mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(random_tasksets(4, 3, 1), random_tasksets(4, 3, 1));
        assert_eq!(light_taskset(10, 2), light_taskset(10, 2));
        let w = fpga_rt_gen::FigureWorkload::fig3a();
        assert_eq!(figure_tasksets(&w, 3, 5), figure_tasksets(&w, 3, 5));
        assert_eq!(figure_tasksets(&w, 3, 5)[0].len(), 4);
    }

    #[test]
    fn worker_counts_start_at_one() {
        let counts = bench_worker_counts();
        assert_eq!(counts[0], 1);
        assert!(counts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn light_taskset_is_light() {
        let ts = light_taskset(10, 3);
        assert!(ts.normalized_system_utilization(&device100()) < 1.0);
    }
}
