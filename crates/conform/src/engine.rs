//! The pool-parallel conformance engine.
//!
//! One *unit* of work is one `(bin, sample)` draw of the figure workload's
//! binned population ([`fpga_rt_exp::sweep::Population`], the sweep
//! engine's, so both engines see the same tasksets): classify every
//! [`ConformEvaluator`] on it against the discrete-event engine under both
//! targeted schedulers and the [`NecessaryTest`] falsifier (one
//! classification, shared with the 2-D bridge, packing the draw once),
//! and — on a violation — minimize and package a [`Counterexample`] right
//! in the worker. Units run on the population driver
//! ([`fpga_rt_pool::run_units`]), the sweep's, and fold in unit order, so
//! the aggregated [`ConformReport`] is **byte-identical across worker
//! counts** (asserted by tests, diffed in CI against committed goldens).

use crate::classify::{
    classify_draw, sim_config, simulate_targets, Classification, ConformEvaluator,
};
use crate::counterexample::{
    capture_miss_evidence, keep_capped, minimize_taskset, Counterexample, ViolationKind,
};
use fpga_rt_analysis::{NecessaryTest, SchedTest, ScratchSpace};
use fpga_rt_exp::sweep::{record_population, Draw, Population};
use fpga_rt_gen::{FigureWorkload, UtilizationBins};
use fpga_rt_model::{Fpga, TaskSet};
use fpga_rt_obs::Obs;
use fpga_rt_pool::run_units;
use fpga_rt_sim::{simulate_f64, SchedulerKind};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of a conformance run.
#[derive(Debug, Clone)]
pub struct ConformConfig {
    /// Which figure workload to draw from (its bin-filling strategy
    /// included).
    pub workload: FigureWorkload,
    /// Utilization bins (x-axis).
    pub bins: UtilizationBins,
    /// Tasksets per bin.
    pub per_bin: usize,
    /// Base RNG seed; every `(bin, sample)` derives its own stream.
    pub seed: u64,
    /// Simulation horizon as a factor of the taskset's largest period
    /// (`Horizon::PeriodsOfTmax`). Longer horizons make the falsifier more
    /// sensitive and the run slower.
    pub sim_horizon: f64,
    /// Pool worker threads (0 = all available). The report does not depend
    /// on this value.
    pub workers: usize,
    /// Telemetry handle. When enabled, workers record per-unit span
    /// histograms (`conform/evaluate_ns` for the whole classification,
    /// `conform/sim_ns` for the targeted simulations) and the aggregation
    /// adds per-bin/per-figure throughput counters. [`Obs::off`] (the
    /// [`ConformConfig::new`] default) makes all of it a no-op; the report
    /// never depends on this handle.
    pub obs: Obs,
}

impl ConformConfig {
    /// Defaults for a workload: paper bins, a 50×Tmax horizon, all cores,
    /// no telemetry.
    pub fn new(workload: FigureWorkload, per_bin: usize, seed: u64) -> Self {
        ConformConfig {
            workload,
            bins: UtilizationBins::paper_default(),
            per_bin,
            seed,
            sim_horizon: 50.0,
            workers: 0,
            obs: Obs::off(),
        }
    }
}

/// Per-bin classification tallies of one evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BinClassCounts {
    /// Bin-center normalized system utilization.
    pub utilization: f64,
    /// Tasksets classified in this bin.
    pub samples: usize,
    /// Accepted, targeted simulations clean.
    pub sound_accept: usize,
    /// Rejected, primary targeted simulation missed.
    pub sound_reject: usize,
    /// Rejected, primary targeted simulation clean (the test's
    /// conservatism).
    pub pessimistic_reject: usize,
    /// Accepted but disproved (simulation miss or necessary-test
    /// contradiction).
    pub violations: usize,
}

impl BinClassCounts {
    pub(crate) fn empty(utilization: f64) -> Self {
        BinClassCounts {
            utilization,
            samples: 0,
            sound_accept: 0,
            sound_reject: 0,
            pessimistic_reject: 0,
            violations: 0,
        }
    }

    pub(crate) fn record(&mut self, class: Classification) {
        self.samples += 1;
        match class {
            Classification::SoundAccept => self.sound_accept += 1,
            Classification::SoundReject => self.sound_reject += 1,
            Classification::PessimisticReject => self.pessimistic_reject += 1,
            Classification::SoundnessViolation => self.violations += 1,
        }
    }
}

/// One evaluator's conformance curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConformSeries {
    /// Evaluator name (`"DP"`, …).
    pub name: String,
    /// Targeted scheduler names, primary first.
    pub targets: Vec<String>,
    /// Per-bin tallies in bin order.
    pub bins: Vec<BinClassCounts>,
}

impl ConformSeries {
    /// Violations summed over all bins.
    pub fn violations(&self) -> usize {
        self.bins.iter().map(|b| b.violations).sum()
    }
}

/// One empty series per evaluator over `bins`, each target scheduler's
/// name rendered by `target`.
pub(crate) fn empty_series(
    evaluators: &[ConformEvaluator],
    bins: &UtilizationBins,
    target: impl Fn(&str) -> String,
) -> Vec<ConformSeries> {
    evaluators
        .iter()
        .map(|e| ConformSeries {
            name: e.evaluator.name.clone(),
            targets: e.targets.iter().map(|k| target(k.name())).collect(),
            bins: (0..bins.n).map(|b| BinClassCounts::empty(bins.center(b))).collect(),
        })
        .collect()
}

/// Tally one draw's classes (evaluator order) into `bin`; returns its
/// violations.
pub(crate) fn record_classes(
    series: &mut [ConformSeries],
    bin: usize,
    classes: &[Classification],
) -> usize {
    for (s, &class) in series.iter_mut().zip(classes) {
        s.bins[bin].record(class);
    }
    classes.iter().filter(|&&c| c == Classification::SoundnessViolation).count()
}

/// A complete conformance report — everything serialized is deterministic
/// for a given [`ConformConfig`] and evaluator list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConformReport {
    /// Workload id (`"fig3a"`, …).
    pub workload_id: String,
    /// Workload caption.
    pub caption: String,
    /// Simulation horizon factor (× Tmax).
    pub sim_horizon: f64,
    /// Per-evaluator series, in evaluator order.
    pub series: Vec<ConformSeries>,
    /// Units the necessary test rejected (provably infeasible draws).
    pub nec_rejects: usize,
    /// Necessary-test rejects whose simulations still ran clean within the
    /// horizon — not violations (the horizon is finite), but a measure of
    /// how blunt the finite-horizon falsifier is.
    pub nec_reject_sim_clean: usize,
    /// Violations across all evaluators and bins.
    pub total_violations: usize,
    /// Minimized evidence for the first
    /// [`MAX_COUNTEREXAMPLES`](crate::MAX_COUNTEREXAMPLES) violations, in
    /// unit order.
    pub counterexamples: Vec<Counterexample>,
}

impl ConformReport {
    /// `true` when no evaluator was disproved anywhere.
    pub fn sound(&self) -> bool {
        self.total_violations == 0
    }

    /// Look up a series by evaluator name.
    pub fn series_named(&self, name: &str) -> Option<&ConformSeries> {
        self.series.iter().find(|s| s.name == name)
    }
}

/// A completed run: the report plus engine-level counters that are *not*
/// part of the deterministic artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformOutcome {
    /// The deterministic report.
    pub report: ConformReport,
    /// Units whose generator exhausted its attempt budget.
    pub exhausted_units: usize,
    /// Units lost to a panicking evaluator/simulation (contained by the
    /// pool).
    pub failed_units: usize,
    /// The resolved pool worker count actually used.
    pub workers: usize,
}

/// What one worker sends back per drawn unit.
#[derive(Debug)]
struct UnitReport {
    bin: usize,
    classes: Vec<Classification>,
    nec_rejected: bool,
    all_sims_clean: bool,
    counterexamples: Vec<Counterexample>,
}

/// Read-only context shared by every pool worker.
struct ConformContext {
    config: ConformConfig,
    population: Population,
    device: Fpga,
    evaluators: Vec<ConformEvaluator>,
}

impl ConformContext {
    /// Evaluate one drawn taskset (pure). `scratch` is the worker's
    /// reusable pack buffer.
    fn evaluate(&self, draw: &Draw, ts: &TaskSet<f64>, scratch: &mut ScratchSpace) -> UnitReport {
        let obs = &self.config.obs;
        let unit_span = obs.span();
        let nec_rejected = !NecessaryTest.is_schedulable(ts, &self.device);
        let sim_span = obs.span();
        let sim_clean = simulate_targets(ts, &self.device, self.config.sim_horizon);
        obs.record_ns("conform/sim_ns", sim_span.elapsed_ns());
        let classes =
            classify_draw(&self.evaluators, ts, &self.device, &sim_clean, nec_rejected, scratch);
        let counterexamples = self
            .evaluators
            .iter()
            .zip(&classes)
            .filter(|(_, &class)| class == Classification::SoundnessViolation)
            .map(|(ev, _)| self.build_counterexample(ts, draw, ev, &sim_clean))
            .collect();
        obs.record_ns("conform/evaluate_ns", unit_span.elapsed_ns());
        UnitReport {
            bin: draw.bin,
            classes,
            nec_rejected,
            all_sims_clean: sim_clean.iter().all(|c| *c),
            counterexamples,
        }
    }

    fn build_counterexample(
        &self,
        ts: &TaskSet<f64>,
        draw: &Draw,
        ev: &ConformEvaluator,
        sim_clean: &[bool; 2],
    ) -> Counterexample {
        let horizon = self.config.sim_horizon;
        let accepts = |candidate: &TaskSet<f64>| ev.evaluator.accepts(candidate, &self.device);
        let (kind, scheduler) = match ev.violated_target(sim_clean) {
            Some(target) => (ViolationKind::SimMiss, Some(target.clone())),
            // No targeted simulation missed, so the violation came from
            // the necessary-test contradiction.
            None => (ViolationKind::NecessaryContradiction, None),
        };
        let minimized = match (&kind, &scheduler) {
            (ViolationKind::SimMiss, Some(target)) => {
                let cfg = sim_config(target.clone(), horizon);
                minimize_taskset(ts, |candidate| {
                    accepts(candidate)
                        && simulate_f64(candidate, &self.device, &cfg)
                            .map(|o| !o.schedulable())
                            .unwrap_or(false)
                })
            }
            _ => minimize_taskset(ts, |candidate| {
                accepts(candidate) && !NecessaryTest.is_schedulable(candidate, &self.device)
            }),
        };
        let evidence_cfg = sim_config(scheduler.clone().unwrap_or(SchedulerKind::EdfNf), horizon);
        let (first_miss, trace_tail) =
            capture_miss_evidence(&minimized, &self.device, &evidence_cfg);
        Counterexample {
            figure: self.config.workload.id.to_string(),
            bin: draw.bin,
            sample: draw.sample,
            sample_seed: draw.seed,
            evaluator: ev.evaluator.name.clone(),
            scheduler: scheduler.map(|k| k.name().to_string()),
            kind,
            device_columns: self.device.columns(),
            sim_horizon: horizon,
            tasks: minimized
                .iter()
                .map(|(_, t)| (t.exec(), t.deadline(), t.period(), t.area()))
                .collect(),
            first_miss,
            trace_tail,
        }
    }
}

/// Run a conformance sweep on the population driver. Deterministic for a
/// given `config` and evaluator list — independent of `workers`.
pub fn run_conform(config: &ConformConfig, evaluators: Vec<ConformEvaluator>) -> ConformOutcome {
    let mut series = empty_series(&evaluators, &config.bins, str::to_string);
    let population = Population::new(&config.workload, config.bins, config.per_bin, config.seed);
    let units = population.units();
    let context = Arc::new(ConformContext {
        config: config.clone(),
        population,
        device: config.workload.device(),
        evaluators,
    });
    let eval = move |scratch: &mut ScratchSpace, unit: usize| {
        let draw = context.population.draw(unit);
        draw.taskset.as_ref().map(|ts| context.evaluate(&draw, ts, scratch))
    };

    let mut nec_rejects = 0usize;
    let mut nec_reject_sim_clean = 0usize;
    let mut total_violations = 0usize;
    let mut counterexamples = Vec::new();
    let mut exhausted_units = 0usize;
    let mut failed_units = 0usize;
    let workers =
        run_units(config.workers, units, ScratchSpace::new, eval, |_, result| match result {
            Ok(Some(unit)) => {
                total_violations += record_classes(&mut series, unit.bin, &unit.classes);
                if unit.nec_rejected {
                    nec_rejects += 1;
                    nec_reject_sim_clean += usize::from(unit.all_sims_clean);
                }
                keep_capped(&mut counterexamples, unit.counterexamples);
            }
            Ok(None) => exhausted_units += 1,
            Err(_) => failed_units += 1,
        });

    record_population(
        &config.obs,
        "conform",
        config.workload.id,
        // Every evaluator classifies every sample of the bin.
        (0..config.bins.n).map(|bin| series.first().map_or(0, |s| s.bins[bin].samples)),
        exhausted_units,
        failed_units,
    );
    config.obs.add("conform/nec_rejects", nec_rejects as u64);
    config.obs.add("conform/violations", total_violations as u64);
    ConformOutcome {
        report: ConformReport {
            workload_id: config.workload.id.to_string(),
            caption: config.workload.caption.to_string(),
            sim_horizon: config.sim_horizon,
            series,
            nec_rejects,
            nec_reject_sim_clean,
            total_violations,
            counterexamples,
        },
        exhausted_units,
        failed_units,
        workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::paper_conform_evaluators;
    use crate::counterexample::MAX_COUNTEREXAMPLES;
    use fpga_rt_exp::Evaluator;
    use fpga_rt_sim::{Horizon, SimConfig};

    fn tiny_config(workers: usize) -> ConformConfig {
        let mut config = ConformConfig::new(FigureWorkload::fig3a(), 6, 42);
        config.bins = UtilizationBins::new(0.0, 1.0, 4);
        config.sim_horizon = 20.0;
        config.workers = workers;
        config
    }

    /// Chunk-size invariance is the driver's (`fpga_rt_pool::run_units`).
    #[test]
    fn conform_is_worker_count_invariant() {
        let reference = run_conform(&tiny_config(1), paper_conform_evaluators());
        for workers in [2, 4] {
            let out = run_conform(&tiny_config(workers), paper_conform_evaluators());
            assert_eq!(out.report, reference.report, "workers={workers}");
            assert_eq!(out.exhausted_units, reference.exhausted_units);
            assert_eq!(out.workers, workers);
        }
    }

    /// The batch kernel can never change an artifact: the batch and
    /// scalar paper suites produce byte-identical reports.
    #[test]
    fn batch_and_scalar_kernels_produce_identical_reports() {
        use crate::classify::paper_conform_evaluators_scalar;
        let batch = run_conform(&tiny_config(2), paper_conform_evaluators());
        let scalar = run_conform(&tiny_config(2), paper_conform_evaluators_scalar());
        assert_eq!(batch.report, scalar.report);
        assert_eq!(batch.exhausted_units, scalar.exhausted_units);
    }

    #[test]
    fn paper_suite_is_sound_on_a_small_population() {
        let out = run_conform(&tiny_config(0), paper_conform_evaluators());
        assert!(out.report.sound(), "violations: {:#?}", out.report.counterexamples);
        assert_eq!(out.failed_units, 0);
        // Shape sanity: 4 evaluators × 4 bins, tallies add up.
        assert_eq!(out.report.series.len(), 4);
        for s in &out.report.series {
            assert_eq!(s.bins.len(), 4);
            for b in &s.bins {
                assert_eq!(
                    b.samples,
                    b.sound_accept + b.sound_reject + b.pessimistic_reject + b.violations
                );
            }
        }
    }

    #[test]
    fn unsound_evaluator_is_caught_and_minimized() {
        // "Accept everything" is maximally unsound: every miss becomes a
        // violation with a minimized counterexample.
        let always = ConformEvaluator::new(
            Evaluator::new("UNSOUND-ALWAYS", |_, _| true),
            vec![fpga_rt_sim::SchedulerKind::EdfNf],
        );
        let out = run_conform(&tiny_config(0), vec![always]);
        assert!(!out.report.sound(), "high-utilization bins must contain misses");
        assert_eq!(out.report.total_violations, out.report.series[0].violations());
        let cx = &out.report.counterexamples[0];
        assert_eq!(cx.evaluator, "UNSOUND-ALWAYS");
        assert_eq!(cx.kind, ViolationKind::SimMiss);
        assert_eq!(cx.scheduler.as_deref(), Some("EDF-NF"));
        assert!(cx.first_miss.is_some());
        assert!(!cx.trace_tail.is_empty());
        assert!(!cx.tasks.is_empty() && cx.tasks.len() <= 4);
        // The evidence replays: the minimized taskset still misses.
        let ts = cx.taskset().unwrap();
        let dev = Fpga::new(cx.device_columns).unwrap();
        let cfg = SimConfig::default()
            .with_scheduler(SchedulerKind::EdfNf)
            .with_horizon(Horizon::PeriodsOfTmax(20.0));
        assert!(!simulate_f64(&ts, &dev, &cfg).unwrap().schedulable());
    }

    #[test]
    fn counterexample_cap_is_respected() {
        let always = ConformEvaluator::new(
            Evaluator::new("UNSOUND-ALWAYS", |_, _| true),
            vec![fpga_rt_sim::SchedulerKind::EdfNf],
        );
        // High-utilization bins only, so violations outnumber the cap.
        let mut config = tiny_config(0);
        config.bins = UtilizationBins::new(0.6, 1.0, 2);
        config.per_bin = 16;
        let out = run_conform(&config, vec![always]);
        assert!(
            out.report.total_violations > MAX_COUNTEREXAMPLES,
            "{}",
            out.report.total_violations
        );
        assert_eq!(out.report.counterexamples.len(), MAX_COUNTEREXAMPLES);
    }

    #[test]
    fn report_round_trips_through_json() {
        let out = run_conform(&tiny_config(0), paper_conform_evaluators());
        let json = serde_json::to_string_pretty(&out.report).unwrap();
        let back: ConformReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, out.report);
    }
}
