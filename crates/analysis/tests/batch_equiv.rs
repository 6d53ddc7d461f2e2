//! The analysis kernel against the scalar reference (`tests/reference/`,
//! an independent copy of the three tests' arithmetic), in both of the
//! kernel's instances.
//!
//! **`f64`, bit for bit.** [`BatchAnalyzer`]'s verdicts **and margins**,
//! and the full reports of `DpTest`/`Gn1Test`/`Gn2Test`/`AnyOfTest::check`
//! (rows, notes, reasons), equal the reference's — bit for bit, not
//! approximately — across random tasksets from all four figure generators'
//! utilization bins, on knife-edge tasksets scaled so a deciding comparison
//! sits at (or one ulp around) exact equality, where any re-association of
//! the floating-point arithmetic would flip a verdict, and on sets with
//! the online admission controller's shape: 20–80 tasks on 100 columns
//! with deadlines below, at and above their periods, which reaches GN2's
//! case 2, the density λ candidates and `λmax < 1` — paths the
//! implicit-deadline figure sets never take. Every ablation configuration
//! (DP-real, GN1-bcl and GN1's printed right-hand side, GN2's printed case
//! 2, non-strict condition 2 and grid search) is compared the same way.
//!
//! **`Rat64`, row for row.** On rational-grid tasksets (denominators ≤ 64,
//! deadlines below, at and above their periods) and on Table 1 scaled by
//! rational factors, the exact reports, kernel verdicts and GN2 walkthrough
//! attempts equal the reference's whenever the kernel's exact arithmetic
//! does not overflow. The reference performs a subset of the kernel's
//! exact operations on the same values, so it cannot overflow then either.

mod reference;

use fpga_rt_analysis::{
    AnalysisSeries, AnyOfTest, ArithmeticOverflow, BatchAnalyzer, BatchVerdict, DpAreaBound,
    DpConfig, DpTest, Gn1BetaDenominator, Gn1Config, Gn1Test, Gn2Case2, Gn2Config, Gn2LambdaSearch,
    Gn2Test, SchedTest, ScratchSpace, TaskSetBatch, TestReport, Theorem,
};
use fpga_rt_gen::{uunifast, BinnedGenerator, FigureWorkload, UtilizationBins};
use fpga_rt_model::{Fpga, Rat64, TaskSet, Time};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference::{RefDp, RefGn1, RefGn2};

/// The margin the kernel reports: the report's final check row.
fn final_row(rep: &TestReport) -> Option<(f64, f64)> {
    rep.checks.last().map(|c| (c.lhs, c.rhs))
}

fn report_verdict(rep: &TestReport) -> BatchVerdict {
    BatchVerdict { accepted: rep.accepted(), margin: final_row(rep), report_margin: rep.margin() }
}

/// Reports equal row for row; in `f64` also bit for bit (`==` equates
/// 0.0 and −0.0).
fn assert_same_report(got: &TestReport, want: &TestReport, context: &str) {
    assert_eq!(got, want, "{} report on {context}", want.test);
    let bits = |r: &TestReport| -> Vec<(u64, u64)> {
        r.checks.iter().map(|c| (c.lhs.to_bits(), c.rhs.to_bits())).collect()
    };
    assert_eq!(bits(got), bits(want), "{} row bits on {context}", want.test);
    assert_eq!(got.margin().to_bits(), want.margin().to_bits(), "{} margin bits", want.test);
}

/// The reference's paper suite.
fn reference_suite<T: Time>() -> AnyOfTest<T> {
    AnyOfTest::new(
        "DP∪GN1∪GN2",
        vec![
            Box::new(RefDp(DpConfig::default())),
            Box::new(RefGn1(Gn1Config::default())),
            Box::new(RefGn2(Gn2Config::default())),
        ],
    )
}

/// Every configuration of the three theorems the workspace runs: the paper
/// defaults and each ablation variant.
fn configurations() -> Vec<Theorem> {
    let gn2 = Gn2Config::default();
    vec![
        Theorem::Dp(DpConfig::default()),
        Theorem::Dp(DpConfig { area_bound: DpAreaBound::RealValued }),
        Theorem::Gn1(Gn1Config::default()),
        Theorem::Gn1(Gn1Config {
            beta_denominator: Gn1BetaDenominator::WindowDk,
            ..Gn1Config::default()
        }),
        Theorem::Gn1(Gn1Config { rhs_plus_one: false, ..Gn1Config::default() }),
        Theorem::Gn2(gn2),
        Theorem::Gn2(Gn2Config { condition2_strict: false, ..gn2 }),
        Theorem::Gn2(Gn2Config { case2: Gn2Case2::PaperCkTk, ..gn2 }),
        Theorem::Gn2(Gn2Config {
            case2: Gn2Case2::PaperCkTk,
            condition2_strict: false,
            lambda_search: Gn2LambdaSearch::PaperPoints,
        }),
        Theorem::Gn2(Gn2Config { lambda_search: Gn2LambdaSearch::Grid { points: 64 }, ..gn2 }),
        Theorem::Gn2(Gn2Config { lambda_search: Gn2LambdaSearch::Grid { points: 5 }, ..gn2 }),
    ]
}

/// The kernel's test (`check` runs the kernel) and the reference's, for
/// one configuration.
fn tests<T: Time>(
    theorem: Theorem,
) -> (Box<dyn SchedTest<T> + Send + Sync>, Box<dyn SchedTest<T> + Send + Sync>) {
    match theorem {
        Theorem::Dp(c) => (Box::new(DpTest::new(c)), Box::new(RefDp(c))),
        Theorem::Gn1(c) => (Box::new(Gn1Test::new(c)), Box::new(RefGn1(c))),
        Theorem::Gn2(c) => (Box::new(Gn2Test::new(c)), Box::new(RefGn2(c))),
    }
}

/// The kernel's fallible entry point on `ts`.
fn evaluate<T: Time>(
    theorem: Theorem,
    ts: &TaskSet<T>,
    dev: &Fpga,
) -> Result<BatchVerdict, ArithmeticOverflow> {
    let mut scratch = ScratchSpace::default();
    scratch.try_pack(ts.tasks())?;
    BatchAnalyzer::new().evaluate(theorem, dev, &mut scratch, None)
}

/// Assert all four paper-default series, and every configuration through
/// `check` and `evaluate`, match the reference on one `f64` taskset.
fn assert_bit_identical(ts: &TaskSet<f64>, dev: &Fpga, context: &str) {
    let mut scratch = ScratchSpace::new();
    let analyzer = BatchAnalyzer::new();
    let batch = analyzer.analyze(ts, dev, &mut scratch);
    let reports = [
        ("DP", RefDp::default().check(ts, dev), DpTest::default().check(ts, dev)),
        ("GN1", RefGn1::default().check(ts, dev), Gn1Test::default().check(ts, dev)),
        ("GN2", RefGn2::default().check(ts, dev), Gn2Test::default().check(ts, dev)),
        ("AnyOf", reference_suite().check(ts, dev), AnyOfTest::paper_suite().check(ts, dev)),
    ];
    for ((name, want, checked), series) in reports.into_iter().zip(AnalysisSeries::ALL) {
        assert_same_report(&checked, &want, context);
        let want = report_verdict(&want);
        let got = batch.series(series);
        assert_eq!(got, want, "{name} mismatch on {context}: {ts:?}");
        assert_eq!(
            got.report_margin.to_bits(),
            want.report_margin.to_bits(),
            "{name} report-margin bits on {context}"
        );
        let focused = analyzer.analyze_series(series, ts, dev, &mut scratch);
        assert_eq!(focused, want, "{name} focused-kernel mismatch on {context}");
        assert_eq!(focused.report_margin.to_bits(), want.report_margin.to_bits());
    }
    for theorem in configurations() {
        let (kernel, reference) = tests::<f64>(theorem);
        let want = reference.check(ts, dev);
        assert_same_report(&kernel.check(ts, dev), &want, context);
        let got = evaluate(theorem, ts, dev).expect("f64 cannot overflow");
        assert_eq!(got, report_verdict(&want), "{theorem:?} evaluate on {context}");
        assert_eq!(got.report_margin.to_bits(), want.margin().to_bits());
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

/// Assert the exact instance matches the reference on one `Rat64` taskset
/// for every configuration, and GN2's walkthrough attempts for every task.
/// Returns how many configurations overflowed (and were skipped).
fn assert_exact_rows(ts: &TaskSet<Rat64>, dev: &Fpga, context: &str) -> usize {
    let mut overflowed = 0;
    for theorem in configurations() {
        let (kernel, reference) = tests::<Rat64>(theorem);
        let Ok(got) = kernel.try_check(ts, dev) else {
            overflowed += 1;
            continue;
        };
        let want = reference.check(ts, dev);
        assert_eq!(got, want, "{theorem:?} exact report on {context}: {ts:?}");
        let verdict = evaluate(theorem, ts, dev).expect("the report did not overflow");
        assert_eq!(verdict, report_verdict(&want), "{theorem:?} exact evaluate on {context}");
        if let Theorem::Gn2(config) = theorem {
            let (kernel, reference) = (Gn2Test::new(config), RefGn2(config));
            for k in 0..ts.len() {
                assert_eq!(
                    kernel.lambda_candidates(ts, k),
                    reference.lambda_candidates(ts, k),
                    "{theorem:?} λ candidates of τ{k} on {context}"
                );
                assert_eq!(
                    kernel.attempts_for_task(ts, dev, k),
                    reference.attempts_for_task(ts, dev, k),
                    "{theorem:?} attempts of τ{k} on {context}"
                );
            }
        }
    }
    overflowed
}

/// A taskset on a rational grid: each parameter `num/den` with `den ≤ 64`,
/// deadlines below, at or above their periods (never below the execution
/// time).
fn rational_grid_taskset() -> impl Strategy<Value = TaskSet<Rat64>> {
    let task = (1i64..=64, 8i64..=160, 1i64..=100, 0u32..3, 1i64..=64, 1u32..=10).prop_map(
        |(den, t_num, u100, shape, d_den, area)| {
            let period = Rat64::new(t_num, den).unwrap();
            let exec = Rat64::new((t_num * u100 / 100).max(1), den).unwrap();
            let deadline = match shape {
                0 => Rat64::new((t_num * d_den / 64).max(1), den).unwrap().max_t(exec),
                1 => period,
                _ => period + Rat64::new(d_den, den).unwrap(),
            };
            (exec, deadline, period, area)
        },
    );
    proptest::collection::vec(task, 1..6)
        .prop_map(|v| TaskSet::try_from_tuples(&v).expect("positive"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random draws from every figure generator and every utilization bin
    /// evaluate bit-identically to the reference.
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
    /// the reference — near the knife edge, bit-identity is the only
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
    /// deadlines: verdicts, rows and report margins are bit-identical,
    /// through GN2's case 2, the density λ candidates, `λmax < 1` and many
    /// λ attempts per task, for every configuration.
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
    /// pass equals per-taskset evaluation — and therefore the reference.
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

    /// Exact reports on rational-grid sets equal the reference's, row for
    /// row, for every configuration; most of them do not overflow.
    #[test]
    fn rational_grid_sets_match_exactly(ts in rational_grid_taskset(), columns in 8u32..=24) {
        let dev = Fpga::new(columns).unwrap();
        let overflowed = assert_exact_rows(&ts, &dev, "rational grid");
        prop_assert!(overflowed < configurations().len(), "every configuration overflowed on {:?}", ts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paper's Table 1 scaled by a rational factor keeps its exact
    /// knife edges (DP's equality, GN2's 69/25 = 69/25), and the exact
    /// instance decides them as the reference does.
    #[test]
    fn scaled_table1_matches_exactly(num in 1i64..=64, den in 1i64..=64) {
        let f = Rat64::new(num, den).unwrap();
        let r = |n, d| Rat64::new(n, d).unwrap() * f;
        let ts = TaskSet::try_from_tuples(&[
            (r(126, 100), r(7, 1), r(7, 1), 9),
            (r(95, 100), r(5, 1), r(5, 1), 6),
        ])
        .unwrap();
        let dev = Fpga::new(10).unwrap();
        prop_assert_eq!(assert_exact_rows(&ts, &dev, "Table 1 scaled"), 0);
        let dp = DpTest::default().try_check(&ts, &dev).unwrap();
        prop_assert!(dp.accepted() && dp.margin() == 0.0, "DP's equality at k=2 holds");
        prop_assert!(!Gn2Test::default().try_check(&ts, &dev).unwrap().accepted());
    }
}

/// The paper's Table 1 in f64 is the canonical knife edge: GN2's
/// condition-2 comparison is an exact rational equality (69/25 on both
/// sides), decided by the strict `<` — kernel and reference must agree.
#[test]
fn paper_table1_knife_edge_matches() {
    let dev = Fpga::new(10).unwrap();
    let ts: TaskSet<f64> =
        TaskSet::try_from_tuples(&[(1.26, 7.0, 7.0, 9), (0.95, 5.0, 5.0, 6)]).unwrap();
    assert_bit_identical(&ts, &dev, "table 1");
    // And the DP equality of Table 1 (US = 2.76 = bound at k=2) accepts.
    let mut scratch = ScratchSpace::new();
    let v = BatchAnalyzer::new().analyze(&ts, &dev, &mut scratch);
    assert!(v.dp.accepted && !v.gn1.accepted && !v.gn2.accepted && v.any_of.accepted);
}

/// GN2's walkthrough in f64 equals the reference's on the paper's tables
/// and on sets with deadlines off their periods, for every configuration.
#[test]
fn gn2_walkthroughs_match_in_f64() {
    let dev = Fpga::new(10).unwrap();
    for tuples in [
        vec![(1.26, 7.0, 7.0, 9), (0.95, 5.0, 5.0, 6)],
        vec![(4.5, 8.0, 8.0, 3), (8.0, 9.0, 9.0, 5)],
        vec![(2.1, 5.0, 5.0, 7), (2.0, 7.0, 7.0, 7)],
        vec![(4.0, 8.0, 5.0, 2), (1.0, 10.0, 10.0, 2)],
        vec![(1.0, 3.0, 6.0, 3), (2.0, 5.0, 9.0, 4)],
    ] {
        let ts: TaskSet<f64> = TaskSet::try_from_tuples(&tuples).unwrap();
        for theorem in configurations() {
            let Theorem::Gn2(config) = theorem else { continue };
            let (kernel, reference) = (Gn2Test::new(config), RefGn2(config));
            for k in 0..ts.len() {
                let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                assert_eq!(
                    bits(kernel.lambda_candidates(&ts, k)),
                    bits(reference.lambda_candidates(&ts, k))
                );
                assert_eq!(
                    kernel.attempts_for_task(&ts, &dev, k),
                    reference.attempts_for_task(&ts, &dev, k)
                );
                for lambda in [0.1, 0.42, 0.6, 0.95] {
                    assert_eq!(
                        kernel.evaluate_lambda(&ts, &dev, k, lambda),
                        reference.evaluate_lambda(&ts, &dev, k, lambda)
                    );
                    assert_eq!(
                        kernel.beta_lambda(ts.task(0), ts.task(k), lambda).to_bits(),
                        reference.beta_lambda(ts.task(0), ts.task(k), lambda).to_bits()
                    );
                }
            }
        }
    }
}
