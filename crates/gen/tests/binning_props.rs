//! Property tests for the binned generators: every produced taskset lands
//! in its bin *and* preserves the defining attribute of its figure's
//! distribution (the fidelity requirement `docs/THEORY.md`, "Model
//! definitions", calls load-bearing).

use fpga_rt_gen::{BinnedGenerator, BinningStrategy, FigureWorkload, UtilizationBins};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ScaledExec (Figures 3a/3b/4a): utilization lands in the bin, areas
    /// and periods come from the spec, and every per-task factor stays
    /// inside the spec's factor bounds.
    #[test]
    fn scaled_exec_preserves_factor_bounds(seed in 0u64..10_000, bin in 0usize..8) {
        let workload = FigureWorkload::fig4a(); // factor cap 0.3 is the bite
        let bins = UtilizationBins::new(0.0, 0.8, 8);
        let gen = BinnedGenerator::new(workload.spec, workload.device_columns, bins);
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(ts) = gen.sample_in_bin(bin, &mut rng) {
            let u = ts.system_utilization() / 100.0;
            let (lo, hi) = bins.edges(bin);
            prop_assert!(u >= lo && u < hi);
            for t in &ts {
                let f = t.time_utilization();
                prop_assert!(f <= 0.3 + 1e-9, "temporal lightness broken: {f}");
                prop_assert!((50..=100).contains(&t.area()));
                prop_assert!(t.period() >= 5.0 && t.period() < 20.0);
            }
        }
    }

    /// ScaledAreas (Figure 4b): utilization lands in the bin and *factors*
    /// are untouched (temporal heaviness preserved), areas stay in range.
    #[test]
    fn scaled_areas_preserves_temporal_heaviness(seed in 0u64..10_000, bin in 1usize..8) {
        let workload = FigureWorkload::fig4b();
        let bins = UtilizationBins::new(0.0, 0.8, 8);
        let gen = BinnedGenerator::new(workload.spec, workload.device_columns, bins)
            .with_strategy(BinningStrategy::ScaledAreas);
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(ts) = gen.sample_in_bin(bin, &mut rng) {
            let u = ts.system_utilization() / 100.0;
            let (lo, hi) = bins.edges(bin);
            prop_assert!(u >= lo && u < hi);
            for t in &ts {
                let f = t.time_utilization();
                prop_assert!(f >= 0.5 - 1e-9, "temporal heaviness broken: {f}");
                prop_assert!(f <= 1.0 + 1e-9);
                prop_assert!((1..=50).contains(&t.area()));
            }
        }
    }

    /// Rejection sampling returns only unmodified draws: factors, areas and
    /// periods all inside the raw spec ranges, utilization in the bin.
    #[test]
    fn rejection_is_verbatim(seed in 0u64..10_000) {
        let workload = FigureWorkload::fig3a();
        // Wide bins so rejection has a chance.
        let bins = UtilizationBins::new(0.0, 4.0, 4);
        let gen = BinnedGenerator::new(workload.spec, workload.device_columns, bins)
            .with_strategy(BinningStrategy::Rejection);
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(ts) = gen.sample_in_bin(1, &mut rng) {
            let u = ts.system_utilization() / 100.0;
            prop_assert!((1.0..2.0).contains(&u));
            for t in &ts {
                prop_assert!(t.time_utilization() <= 1.0 + 1e-9);
                prop_assert!((1..=100).contains(&t.area()));
            }
        }
    }
}
