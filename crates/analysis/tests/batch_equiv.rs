//! The batch kernel's bit-identity contract: [`BatchAnalyzer`] verdicts
//! **and margins** equal the scalar `DpTest`/`Gn1Test`/`Gn2Test`/
//! `AnyOfTest` — bit for bit, not approximately — across random tasksets
//! from all four figure generators' utilization bins, and on knife-edge
//! tasksets scaled so a deciding comparison sits at (or one ulp around)
//! exact equality, where any re-association of the floating-point
//! arithmetic would flip a verdict. A third population has the online
//! admission controller's shape: 20–80 tasks on 100 columns with deadlines
//! below, at and above their periods, which reaches GN2's case 2, the
//! density λ candidates and `λmax < 1` — paths the implicit-deadline
//! figure sets never take.

use fpga_rt_analysis::{
    AnalysisSeries, AnyOfTest, BatchAnalyzer, BatchVerdict, DpTest, Gn1Test, Gn2Test, SchedTest,
    ScratchSpace, TaskSetBatch, TestReport,
};
use fpga_rt_gen::{uunifast, BinnedGenerator, FigureWorkload, UtilizationBins};
use fpga_rt_model::{Fpga, TaskSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The margin the kernel mirrors: the scalar report's final check row.
fn scalar_margin(rep: &TestReport) -> Option<(f64, f64)> {
    rep.checks.last().map(|c| (c.lhs, c.rhs))
}

fn scalar_verdict(rep: &TestReport) -> BatchVerdict {
    BatchVerdict {
        accepted: rep.accepted(),
        margin: scalar_margin(rep),
        report_margin: rep.margin(),
    }
}

/// Assert all four series match the scalar tests on one taskset.
fn assert_bit_identical(ts: &TaskSet<f64>, dev: &Fpga, context: &str) {
    let mut scratch = ScratchSpace::new();
    let analyzer = BatchAnalyzer::new();
    let batch = analyzer.analyze(ts, dev, &mut scratch);
    let scalar = [
        ("DP", scalar_verdict(&DpTest::default().check(ts, dev))),
        ("GN1", scalar_verdict(&Gn1Test::default().check(ts, dev))),
        ("GN2", scalar_verdict(&Gn2Test::default().check(ts, dev))),
        ("AnyOf", scalar_verdict(&AnyOfTest::paper_suite().check(ts, dev))),
    ];
    for ((name, want), series) in scalar.into_iter().zip(AnalysisSeries::ALL) {
        let got = batch.series(series);
        assert_eq!(got, want, "{name} mismatch on {context}: {ts:?}");
        // `==` equates 0.0 and −0.0; the report margin must match in bits.
        assert_eq!(
            got.report_margin.to_bits(),
            want.report_margin.to_bits(),
            "{name} report-margin bits on {context}"
        );
        let focused = analyzer.analyze_series(series, ts, dev, &mut scratch);
        assert_eq!(focused, want, "{name} focused-kernel mismatch on {context}");
        assert_eq!(focused.report_margin.to_bits(), want.report_margin.to_bits());
    }
}

/// An admission-sized taskset for a 100-column device: `n` tasks whose
/// utilizations are a UUniFast split of `total`, periods in U(5, 20), areas
/// up to `amax`, and each deadline drawn below, at or above its period
/// (never below the execution time).
fn admission_taskset(n: usize, total: f64, amax: u32, seed: u64) -> TaskSet<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tuples: Vec<(f64, f64, f64, u32)> = uunifast(n, total, &mut rng)
        .into_iter()
        .map(|u| {
            let period: f64 = rng.gen_range(5.0..20.0);
            let exec = (u.min(1.0) * period).max(1e-3);
            let deadline = match rng.gen_range(0u32..3) {
                0 => (period * rng.gen_range(0.5..1.0)).max(exec),
                1 => period,
                _ => period * rng.gen_range(1.0..2.0),
            };
            (exec, deadline, period, rng.gen_range(1..=amax))
        })
        .collect();
    TaskSet::try_from_tuples(&tuples).expect("drawn tasks validate")
}

/// Draw one taskset from a figure workload's binned generator, exactly as
/// the sweep and conformance engines do.
fn figure_taskset(figure: usize, bin: usize, seed: u64) -> Option<(TaskSet<f64>, Fpga)> {
    let workload = FigureWorkload::all()[figure % 4];
    let generator = BinnedGenerator::new(
        workload.spec,
        workload.device_columns,
        UtilizationBins::paper_default(),
    )
    .with_strategy(workload.strategy);
    let mut rng = StdRng::seed_from_u64(seed);
    generator
        .sample_in_bin(bin % UtilizationBins::paper_default().n, &mut rng)
        .map(|ts| (ts, workload.device()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random draws from every figure generator and every utilization bin
    /// evaluate bit-identically on both kernels.
    #[test]
    fn figure_populations_are_bit_identical(figure in 0usize..4, bin in 0usize..20, seed in 0u64..u64::MAX) {
        if let Some((ts, dev)) = figure_taskset(figure, bin, seed) {
            assert_bit_identical(&ts, &dev, "figure draw");
        }
    }

    /// Knife-edge margins: rescale every execution time by a factor that
    /// pushes the DP bound's deciding comparison to (approximately) exact
    /// equality, then probe one ulp to either side. The non-strict `≤` of
    /// DP and the strict `<` of GN1/GN2 both flip on these inputs unless
    /// the kernel performs the *same* operations in the *same* order as
    /// the scalar tests — near the knife edge, bit-identity is the only
    /// equivalence that survives.
    #[test]
    fn knife_edge_margins_are_bit_identical(
        figure in 0usize..4,
        bin in 4usize..16,
        seed in 0u64..u64::MAX,
        nudge in -1i8..=1,
    ) {
        if let Some((ts, dev)) = figure_taskset(figure, bin, seed) {
            // Deciding DP comparison: US(Γ) vs Abnd·(1 − UT(τk)) + US(τk).
            // Scaling all Ck by m scales US(Γ), UT and US(τk) linearly, so
            // solve for m putting task 0's comparison at equality:
            //   m·US = Abnd·(1 − m·ut0) + m·us0
            //   m = Abnd / (US + Abnd·ut0 − us0)
            let abnd = f64::from(dev.columns()) - f64::from(ts.amax()) + 1.0;
            let us: f64 = ts.iter().map(|(_, t)| t.system_utilization()).sum();
            let ut0 = ts.task(0).time_utilization();
            let us0 = ts.task(0).system_utilization();
            let denom = us + abnd * ut0 - us0;
            if denom > 1e-9 {
                let m = (abnd / denom) * (1.0 + f64::from(nudge) * f64::EPSILON);
                // Clamp Ck at Dk so the scaled tasks stay feasible (Ck > Dk
                // would precondition-reject, which is asserted elsewhere).
                let tuples: Vec<(f64, f64, f64, u32)> = ts
                    .iter()
                    .map(|(_, t)| {
                        ((t.exec() * m).min(t.deadline()), t.deadline(), t.period(), t.area())
                    })
                    .collect();
                if let Ok(knife) = TaskSet::try_from_tuples(&tuples) {
                    assert_bit_identical(&knife, &dev, "knife edge");
                }
            }
        }
    }

    /// Admission-sized sets with constrained, implicit and post-period
    /// deadlines: verdicts, final rows and report margins are
    /// bit-identical, through GN2's case 2, the density λ candidates,
    /// `λmax < 1` and many λ attempts per task.
    #[test]
    fn admission_sized_sets_are_bit_identical(
        n in 20usize..=80,
        total in 0.2f64..2.5,
        amax in (0usize..4).prop_map(|i| [5u32, 20, 50, 90][i]),
        seed in 0u64..u64::MAX,
    ) {
        let ts = admission_taskset(n, total, amax, seed);
        assert_bit_identical(&ts, &Fpga::new(100).unwrap(), "admission-sized set");
    }

    /// Packing a population into one SoA batch and evaluating it in one
    /// pass equals per-taskset evaluation — and therefore the scalar path.
    #[test]
    fn packed_batches_match_per_taskset_analysis(bins in proptest::collection::vec((0usize..4, 0usize..20, 0u64..u64::MAX), 1..12)) {
        let mut batch = TaskSetBatch::new();
        let mut drawn = Vec::new();
        for (figure, bin, seed) in bins {
            if let Some((ts, dev)) = figure_taskset(figure, bin, seed) {
                batch.push(&ts);
                drawn.push((ts, dev));
            }
        }
        let mut out = Vec::new();
        if let Some((_, dev)) = drawn.first() {
            BatchAnalyzer::new().analyze_batch(&batch, dev, &mut out);
            assert_eq!(out.len(), drawn.len());
            let mut scratch = ScratchSpace::new();
            for ((ts, dev), got) in drawn.iter().zip(&out) {
                // All figure workloads share the 100-column device, so one
                // device serves the whole batch.
                assert_eq!(*got, BatchAnalyzer::new().analyze(ts, dev, &mut scratch));
            }
        }
    }
}

/// The paper's Table 1 in f64 is the canonical knife edge: GN2's
/// condition-2 comparison is an exact rational equality (69/25 on both
/// sides), decided by the strict `<` — the kernels must agree on it.
#[test]
fn paper_table1_knife_edge_matches() {
    let dev = Fpga::new(10).unwrap();
    let ts: TaskSet<f64> =
        TaskSet::try_from_tuples(&[(1.26, 7.0, 7.0, 9), (0.95, 5.0, 5.0, 6)]).unwrap();
    assert_bit_identical(&ts, &dev, "table 1");
    // And the DP equality of Table 1 (US = 2.76 = bound at k=2) accepts on
    // both kernels.
    let mut scratch = ScratchSpace::new();
    let v = BatchAnalyzer::new().analyze(&ts, &dev, &mut scratch);
    assert!(v.dp.accepted && !v.gn1.accepted && !v.gn2.accepted && v.any_of.accepted);
}
