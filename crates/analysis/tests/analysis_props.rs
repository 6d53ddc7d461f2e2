//! Property tests of the analysis crate's internal structure: report
//! consistency, configuration relations, and the paper's structural claims
//! about the three tests.

use fpga_rt_analysis::{
    AnyOfTest, ArithmeticOverflow, DpTest, Gn1Test, Gn2LambdaSearch, Gn2Test, SchedTest,
    TestReport, Verdict,
};
use fpga_rt_model::{Fpga, TaskSet, Time};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A `SchedTest` wrapper that counts how often it is consulted (for
/// short-circuit assertions) while delegating the verdict.
struct Counted<S> {
    inner: S,
    calls: Arc<AtomicUsize>,
}

impl<T: Time, S: SchedTest<T>> SchedTest<T> for Counted<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn try_check(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
    ) -> Result<TestReport, ArithmeticOverflow> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.try_check(taskset, device)
    }
}

/// The three default tests boxed in a chosen order.
fn suite_in_order(order: [usize; 3]) -> AnyOfTest<f64> {
    let make = |i: usize| -> Box<dyn SchedTest<f64> + Send + Sync> {
        match i {
            0 => Box::new(DpTest::default()),
            1 => Box::new(Gn1Test::default()),
            _ => Box::new(Gn2Test::default()),
        }
    };
    AnyOfTest::new("permuted", order.into_iter().map(make).collect())
}

/// Implicit-deadline tasksets with bounded utilization per task.
fn taskset(n: std::ops::Range<usize>) -> impl Strategy<Value = TaskSet<f64>> {
    proptest::collection::vec(
        (50u32..200, 1u32..99, 1u32..30).prop_map(|(t10, f100, a)| {
            let period = f64::from(t10) / 10.0;
            (period * f64::from(f100) / 100.0, period, period, a)
        }),
        n,
    )
    .prop_map(|v| TaskSet::try_from_tuples(&v).expect("positive"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Reports are internally consistent: verdict matches the per-task
    /// rows, rejection points at the first failing row, acceptance has a
    /// row per task.
    #[test]
    fn reports_are_consistent(ts in taskset(1..6)) {
        let dev = Fpga::new(40).unwrap();
        for report in [
            DpTest::default().check(&ts, &dev),
            Gn1Test::default().check(&ts, &dev),
            Gn2Test::default().check(&ts, &dev),
        ] {
            match &report.verdict {
                Verdict::Accepted => {
                    prop_assert_eq!(report.checks.len(), ts.len());
                    prop_assert!(report.checks.iter().all(|c| c.passed));
                }
                Verdict::Rejected { failing_task, .. } => {
                    let last = report.checks.last().expect("a failing row");
                    prop_assert!(!last.passed);
                    prop_assert_eq!(*failing_task, Some(last.task));
                    // Early exit: nothing after the failure.
                    prop_assert!(report.checks.iter().take(report.checks.len() - 1)
                        .all(|c| c.passed));
                }
            }
        }
    }

    /// The composite equals the disjunction of its parts.
    #[test]
    fn any_of_is_disjunction(ts in taskset(1..6)) {
        let dev = Fpga::new(40).unwrap();
        let parts = DpTest::default().is_schedulable(&ts, &dev)
            || Gn1Test::default().is_schedulable(&ts, &dev)
            || Gn2Test::default().is_schedulable(&ts, &dev);
        prop_assert_eq!(AnyOfTest::paper_suite().is_schedulable(&ts, &dev), parts);
    }

    /// The composite's verdict is independent of the order its component
    /// tests are listed in (a union is commutative).
    #[test]
    fn any_of_verdict_is_order_independent(ts in taskset(1..6)) {
        let dev = Fpga::new(40).unwrap();
        let reference = suite_in_order([0, 1, 2]).is_schedulable(&ts, &dev);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            prop_assert_eq!(
                suite_in_order(order).is_schedulable(&ts, &dev),
                reference,
                "order {:?} changed the verdict",
                order
            );
        }
    }

    /// The composite short-circuits: once a component accepts, later
    /// components are never consulted.
    #[test]
    fn any_of_short_circuits_on_first_accept(ts in taskset(1..6)) {
        let dev = Fpga::new(40).unwrap();
        for lead in 0..3usize {
            // `lead` first, then the other two instrumented with counters.
            let make = |i: usize| -> Box<dyn SchedTest<f64> + Send + Sync> {
                match i {
                    0 => Box::new(DpTest::default()),
                    1 => Box::new(Gn1Test::default()),
                    _ => Box::new(Gn2Test::default()),
                }
            };
            let lead_accepts = match lead {
                0 => DpTest::default().is_schedulable(&ts, &dev),
                1 => Gn1Test::default().is_schedulable(&ts, &dev),
                _ => Gn2Test::default().is_schedulable(&ts, &dev),
            };
            let tail: Vec<usize> = (0..3).filter(|&i| i != lead).collect();
            let counters: Vec<Arc<AtomicUsize>> =
                tail.iter().map(|_| Arc::new(AtomicUsize::new(0))).collect();
            let mut tests: Vec<Box<dyn SchedTest<f64> + Send + Sync>> = vec![make(lead)];
            for (&i, calls) in tail.iter().zip(&counters) {
                tests.push(Box::new(Counted { inner: make(i), calls: Arc::clone(calls) }));
            }
            let suite = AnyOfTest::new("instrumented", tests);
            let _ = suite.check(&ts, &dev);
            let tail_calls: usize =
                counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
            if lead_accepts {
                prop_assert_eq!(tail_calls, 0,
                    "lead test {} accepted but {} later check(s) still ran", lead, tail_calls);
            } else {
                prop_assert!(tail_calls >= 1,
                    "lead test {} rejected yet no later test was consulted", lead);
            }
        }
    }

    /// With implicit deadlines the paper's λ-candidate claim holds: GN2's
    /// case 2 (`ui > λ ∧ λ ≥ Ci/Di`) can never fire, so the Baker-λ and
    /// paper-literal case-2 variants coincide.
    #[test]
    fn gn2_case2_never_fires_for_implicit_deadlines(ts in taskset(1..6)) {
        use fpga_rt_analysis::{Gn2Case2, Gn2Config};
        let dev = Fpga::new(40).unwrap();
        let baker = Gn2Test::default();
        let paper = Gn2Test::new(Gn2Config {
            case2: Gn2Case2::PaperCkTk,
            ..Gn2Config::default()
        });
        prop_assert_eq!(
            baker.is_schedulable(&ts, &dev),
            paper.is_schedulable(&ts, &dev)
        );
    }

    /// Enlarging the λ grid never loses acceptance (candidate superset).
    #[test]
    fn gn2_grid_monotone_in_points(ts in taskset(1..5)) {
        let dev = Fpga::new(40).unwrap();
        let small = Gn2Test::with_grid_search(8);
        let large = Gn2Test::with_grid_search(64);
        if small.is_schedulable(&ts, &dev) {
            prop_assert!(large.is_schedulable(&ts, &dev));
        }
        // And both dominate the pure paper points.
        if Gn2Test::default().is_schedulable(&ts, &dev) {
            prop_assert!(small.is_schedulable(&ts, &dev));
        }
    }

    /// λ candidates are sorted, deduplicated, within [Ck/Tk, 1], and
    /// contain Ck/Tk itself whenever it is feasible.
    #[test]
    fn lambda_candidates_are_canonical(ts in taskset(1..6), k_sel in 0usize..6) {
        let dev = Fpga::new(40).unwrap();
        let _ = &dev;
        let k = k_sel % ts.len();
        let test = Gn2Test::default();
        let cands = test.lambda_candidates(&ts, k);
        let uk = ts.task(k).time_utilization();
        for w in cands.windows(2) {
            prop_assert!(w[0] < w[1], "sorted+deduped");
        }
        for &l in &cands {
            prop_assert!(l >= uk - 1e-12);
            prop_assert!(l <= 1.0 + 1e-12);
        }
        if uk <= 1.0 {
            prop_assert!(cands.iter().any(|&l| (l - uk).abs() < 1e-12));
        }
        match test.config().lambda_search {
            Gn2LambdaSearch::PaperPoints => prop_assert!(cands.len() <= ts.len() * 2 + 1),
            Gn2LambdaSearch::Grid { .. } => {}
        }
    }

    /// Adding a task never turns any rejection into an acceptance
    /// (anti-monotonicity under taskset growth) for DP.
    #[test]
    fn dp_antimonotone_in_tasks(ts in taskset(2..6)) {
        let dev = Fpga::new(40).unwrap();
        if !DpTest::default().is_schedulable(&ts, &dev) {
            // Removing the last task can only help; contrapositive check.
            let without: TaskSet<f64> = TaskSet::new(
                ts.tasks()[..ts.len() - 1].to_vec()
            ).unwrap();
            let _ = without; // direction below
        }
        // Direct form: accept(ts) ⇒ accept(ts without last task).
        if DpTest::default().is_schedulable(&ts, &dev) && ts.len() > 1 {
            let without: TaskSet<f64> =
                TaskSet::new(ts.tasks()[..ts.len() - 1].to_vec()).unwrap();
            prop_assert!(DpTest::default().is_schedulable(&without, &dev));
        }
    }

    /// Dropping any task keeps a GN1 acceptance, with deadlines below, at
    /// and above the periods. Each remaining row loses the non-negative
    /// term `Aj·min(βj, 1 − Ck/Dk)` from its left-hand side and keeps its
    /// right-hand side; the left-hand side is a sum of non-negative terms
    /// in task order, and round-to-nearest is monotone, so the f64 sum
    /// cannot grow either.
    #[test]
    fn gn1_antimonotone_in_tasks(ts in constrained_or_not(2..7), drop in 0usize..7) {
        let dev = Fpga::new(40).unwrap();
        if Gn1Test::default().is_schedulable(&ts, &dev) {
            let mut tasks = ts.tasks().to_vec();
            tasks.remove(drop % tasks.len());
            let without = TaskSet::new(tasks).unwrap();
            prop_assert!(Gn1Test::default().is_schedulable(&without, &dev));
        }
    }
}

/// Tasksets whose deadlines lie below, at or above their periods (never
/// below the execution time).
fn constrained_or_not(n: std::ops::Range<usize>) -> impl Strategy<Value = TaskSet<f64>> {
    proptest::collection::vec(
        (50u32..200, 1u32..99, 1u32..30, 50u32..200).prop_map(|(t10, f100, a, d100)| {
            let period = f64::from(t10) / 10.0;
            let exec = period * f64::from(f100) / 100.0;
            (exec, (period * f64::from(d100) / 100.0).max(exec), period, a)
        }),
        n,
    )
    .prop_map(|v| TaskSet::try_from_tuples(&v).expect("positive"))
}
