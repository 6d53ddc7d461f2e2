//! Acceptance ratios: the vocabulary behind Figures 3(a)–4(b).
//!
//! A sweep ([`crate::sweep::run_pool_sweep`]) draws `per_bin` tasksets in
//! every utilization bin, runs every [`Evaluator`] on each taskset, and
//! reports one acceptance-ratio series per evaluator as a [`SweepResult`].
//! Every (bin, sample) draws from its own [`sample_seed`] stream, so the
//! curves are independent of how the work is scheduled.

use fpga_rt_analysis::{AnalysisSeries, BatchAnalyzer, SchedTest, ScratchSpace};
use fpga_rt_model::{Fpga, TaskSet};
use fpga_rt_sim::{simulate_f64, Horizon, SchedulerKind, SimConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Shared accept/reject predicate.
type DecideFn = Arc<dyn Fn(&TaskSet<f64>, &Fpga) -> bool + Send + Sync>;

/// How an [`Evaluator`] decides: an opaque closure, or one of the four
/// analytic series routed through the allocation-free batch kernel.
#[derive(Clone)]
enum EvalKind {
    Custom(DecideFn),
    Analysis(AnalysisSeries),
}

/// A named accept/reject predicate over `f64` tasksets.
#[derive(Clone)]
pub struct Evaluator {
    /// Series name (`"DP"`, `"SIM-NF"`, ...).
    pub name: String,
    kind: EvalKind,
}

impl Evaluator {
    /// Wrap any closure.
    pub fn new(
        name: impl Into<String>,
        decide: impl Fn(&TaskSet<f64>, &Fpga) -> bool + Send + Sync + 'static,
    ) -> Self {
        Evaluator { name: name.into(), kind: EvalKind::Custom(Arc::new(decide)) }
    }

    /// Wrap an analytic schedulability test (scalar path — use
    /// [`Evaluator::analysis`] for the batch kernel).
    pub fn from_test<S>(test: S) -> Self
    where
        S: SchedTest<f64> + Send + Sync + 'static,
    {
        let name = test.name().to_string();
        Evaluator::new(name, move |ts, dev| test.is_schedulable(ts, dev))
    }

    /// One of the paper-default analytic series, evaluated through the
    /// allocation-free [`BatchAnalyzer`] kernel — bit-identical to the
    /// corresponding scalar test (and named identically, so artifacts do
    /// not churn when a runner switches kernels).
    pub fn analysis(series: AnalysisSeries) -> Self {
        Evaluator { name: series.name().to_string(), kind: EvalKind::Analysis(series) }
    }

    /// The analytic series this evaluator routes through the batch
    /// kernel, when it does.
    pub fn analysis_series(&self) -> Option<AnalysisSeries> {
        match self.kind {
            EvalKind::Analysis(series) => Some(series),
            EvalKind::Custom(_) => None,
        }
    }

    /// Wrap a simulation run (synchronous release, stop at first miss):
    /// accepted iff no deadline is missed within `horizon_factor × Tmax`.
    pub fn from_sim(kind: SchedulerKind, horizon_factor: f64) -> Self {
        let name = format!("SIM-{}", kind.name().trim_start_matches("EDF-"));
        Evaluator::new(name, move |ts, dev| {
            let cfg = SimConfig::default()
                .with_scheduler(kind.clone())
                .with_horizon(Horizon::PeriodsOfTmax(horizon_factor));
            simulate_f64(ts, dev, &cfg).map(|o| o.schedulable()).unwrap_or(false)
        })
    }

    /// Wrap a fully custom simulation configuration under an explicit
    /// series name (placement/overhead studies). The horizon in `config` is
    /// used as-is.
    pub fn from_sim_config(name: impl Into<String>, config: SimConfig) -> Self {
        Evaluator::new(name, move |ts, dev| {
            simulate_f64(ts, dev, &config).map(|o| o.schedulable()).unwrap_or(false)
        })
    }

    /// Run the predicate. One-off convenience: analysis-kind evaluators
    /// build a throwaway [`ScratchSpace`] (cheap — empty buffers allocate
    /// nothing up front); hot loops should hold one and call
    /// [`Evaluator::accepts_with`].
    pub fn accepts(&self, ts: &TaskSet<f64>, dev: &Fpga) -> bool {
        self.accepts_with(ts, dev, &mut ScratchSpace::new())
    }

    /// Run the predicate with a caller-owned scratch buffer, so repeated
    /// analysis-kind evaluations perform zero per-taskset heap allocation.
    /// Custom evaluators ignore `scratch`.
    pub fn accepts_with(&self, ts: &TaskSet<f64>, dev: &Fpga, scratch: &mut ScratchSpace) -> bool {
        match &self.kind {
            EvalKind::Custom(decide) => decide(ts, dev),
            EvalKind::Analysis(series) => {
                BatchAnalyzer::new().analyze_series(*series, ts, dev, scratch).accepted
            }
        }
    }
}

impl core::fmt::Debug for Evaluator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Evaluator({})", self.name)
    }
}

/// The paper's figure series: DP, GN1, GN2 (batch-kernel analysis, see
/// [`Evaluator::analysis`]) and the two simulations.
pub fn standard_evaluators(sim_horizon_factor: f64) -> Vec<Evaluator> {
    vec![
        Evaluator::analysis(AnalysisSeries::Dp),
        Evaluator::analysis(AnalysisSeries::Gn1),
        Evaluator::analysis(AnalysisSeries::Gn2),
        Evaluator::from_sim(SchedulerKind::EdfNf, sim_horizon_factor),
        Evaluator::from_sim(SchedulerKind::EdfFkf, sim_horizon_factor),
    ]
}

/// One x/y point of a series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Bin-center normalized system utilization.
    pub utilization: f64,
    /// Tasksets evaluated in this bin.
    pub samples: usize,
    /// Tasksets accepted.
    pub accepted: usize,
}

impl SeriesPoint {
    /// Acceptance ratio (`NaN`-free: 0 when the bin is empty).
    pub fn ratio(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.accepted as f64 / self.samples as f64
        }
    }
}

/// One evaluator's acceptance curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceptanceSeries {
    /// Evaluator name.
    pub name: String,
    /// Points in bin order.
    pub points: Vec<SeriesPoint>,
}

/// A complete sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Workload id (`"fig3a"`, ...).
    pub workload_id: String,
    /// Workload caption.
    pub caption: String,
    /// Per-evaluator series, in evaluator order.
    pub series: Vec<AcceptanceSeries>,
}

impl SweepResult {
    /// Look up a series by name.
    pub fn series_named(&self, name: &str) -> Option<&AcceptanceSeries> {
        self.series.iter().find(|s| s.name == name)
    }
}

/// Derive the RNG seed for sample `sample` of bin `bin` from the sweep's
/// base seed — stable regardless of scheduling, so the sweep and
/// conformance engines produce identical populations for any worker
/// count.
pub fn sample_seed(base: u64, bin: usize, sample: usize) -> u64 {
    // SplitMix64 over a combined index: cheap, well-distributed.
    let mut z = base
        .wrapping_add((bin as u64) << 32)
        .wrapping_add(sample as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_rt_analysis::{AnyOfTest, DpTest, Gn1Test, Gn2Test};

    #[test]
    fn simulation_evaluator_runs() {
        let ts: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(2.10, 5.0, 5.0, 7), (2.00, 7.0, 7.0, 7)]).unwrap();
        let dev = Fpga::new(10).unwrap();
        let ev = Evaluator::from_sim(SchedulerKind::EdfNf, 20.0);
        assert_eq!(ev.name, "SIM-NF");
        assert!(ev.accepts(&ts, &dev));
        let overload: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(4.9, 5.0, 5.0, 9), (4.9, 5.0, 5.0, 9)]).unwrap();
        assert!(!ev.accepts(&overload, &dev));
    }

    #[test]
    fn standard_suite_has_five_series() {
        let evals = standard_evaluators(20.0);
        let names: Vec<&str> = evals.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["DP", "GN1", "GN2", "SIM-NF", "SIM-FkF"]);
    }

    /// Analysis-kind evaluators (batch kernel) agree with the scalar
    /// tests verdict-for-verdict, and a reused scratch changes nothing.
    #[test]
    fn analysis_evaluators_match_scalar_tests() {
        let dev = Fpga::new(10).unwrap();
        let sets = [
            TaskSet::try_from_tuples(&[(1.26, 7.0, 7.0, 9), (0.95, 5.0, 5.0, 6)]).unwrap(),
            TaskSet::try_from_tuples(&[(4.50, 8.0, 8.0, 3), (8.00, 9.0, 9.0, 5)]).unwrap(),
            TaskSet::try_from_tuples(&[(2.10, 5.0, 5.0, 7), (2.00, 7.0, 7.0, 7)]).unwrap(),
        ];
        let pairs: Vec<(Evaluator, Evaluator)> = vec![
            (Evaluator::analysis(AnalysisSeries::Dp), Evaluator::from_test(DpTest::default())),
            (Evaluator::analysis(AnalysisSeries::Gn1), Evaluator::from_test(Gn1Test::default())),
            (Evaluator::analysis(AnalysisSeries::Gn2), Evaluator::from_test(Gn2Test::default())),
            (
                Evaluator::analysis(AnalysisSeries::AnyOf),
                Evaluator::from_test(AnyOfTest::paper_suite()),
            ),
        ];
        let mut scratch = ScratchSpace::new();
        for (batch, scalar) in &pairs {
            assert!(batch.analysis_series().is_some());
            assert!(scalar.analysis_series().is_none());
            for ts in &sets {
                assert_eq!(
                    batch.accepts_with(ts, &dev, &mut scratch),
                    scalar.accepts(ts, &dev),
                    "{} on {ts:?}",
                    batch.name
                );
            }
        }
    }

    #[test]
    fn sample_seed_is_injective_enough() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for bin in 0..20 {
            for sample in 0..100 {
                assert!(seen.insert(sample_seed(7, bin, sample)));
            }
        }
    }
}
