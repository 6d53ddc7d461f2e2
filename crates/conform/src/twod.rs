//! 2-D bridge conformance: the column-projection's verdicts against the
//! 1-D engine, with the native 2-D reality gap measured alongside.
//!
//! [`fpga_rt_2d::project_to_columns`] reserves full device height for
//! every rectangle, reducing a 2-D taskset to the paper's 1-D model. The
//! **gated** check of this mode is that the projection's analytic
//! verdicts — DP/GN1/GN2/AnyOf evaluated on the projected taskset — agree
//! with the 1-D discrete-event engine *on those projected tasksets*,
//! under exactly the theorem-given targets the 1-D conformance engine
//! uses ([`crate::classify::paper_conform_evaluators`]). Projected
//! populations have a differently-shaped area distribution than any
//! figure workload (areas are rectangle widths), so this extends the
//! soundness sweep's coverage; a violation here disproves a theorem just
//! as in the 1-D mode, and is minimized into a [`TwodCounterexample`].
//!
//! The comparison against the **native 2-D simulator** is deliberately
//! *not* gated. The projection argument proves a feasible full-height
//! 2-D schedule **exists** when the 1-D model accepts (the 1-D model's
//! free-migration assumption repacks columns at will); the greedy
//! bottom-left 2-D EDF-NF scheduler is not guaranteed to *find* that
//! schedule, and at population scale it measurably does not — a few per
//! mille of accepted draws shape-block and miss (the paper's §7 caveat:
//! "we cannot assume that a task can fit on the FPGA as long as there is
//! enough free area"). Those are *scheduling anomalies*, not theorem
//! violations, and are reported as the [`Sim1dAgreement`] matrix plus the
//! [`TwodBridgeOutcome::analytic_anomalies`] counter.
//!
//! Tallies are bucketed by the *projected* normalized utilization
//! (`US(projection)/W`), clamped into the configured bins, so the curves
//! line up with the 1-D conformance report's x-axis.
//!
//! Draws run on the population driver ([`fpga_rt_pool::run_units`]) like
//! the 1-D engine's, and each projection is classified by the 1-D
//! engine's one classification, which packs it once for all four
//! analytic series.

use crate::classify::{
    classify_draw, paper_conform_evaluators, sim_config, simulate_targets, Classification,
    ConformEvaluator,
};
use crate::counterexample::{keep_capped, minimize_with};
use crate::engine::{empty_series, record_classes, ConformReport};
use fpga_rt_2d::{
    project_to_columns, simulate_2d, Device2D, Sim2DConfig, TaskSet2D, TasksetSpec2D,
};
use fpga_rt_analysis::ScratchSpace;
use fpga_rt_exp::acceptance::sample_seed;
use fpga_rt_gen::UtilizationBins;
use fpga_rt_pool::run_units;
use fpga_rt_sim::{simulate_f64, SchedulerKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of a 2-D bridge conformance run.
#[derive(Debug, Clone)]
pub struct TwodBridgeConfig {
    /// The 2-D taskset distribution.
    pub spec: TasksetSpec2D,
    /// The grid device.
    pub device: Device2D,
    /// Bins the observed projected utilization is bucketed into.
    pub bins: UtilizationBins,
    /// Total tasksets to draw.
    pub samples: usize,
    /// Base RNG seed; every sample derives its own stream.
    pub seed: u64,
    /// Simulation horizon factor (× Tmax) for both the 1-D and the native
    /// 2-D engine.
    pub sim_horizon: f64,
    /// Pool worker threads (0 = all available).
    pub workers: usize,
}

impl TwodBridgeConfig {
    /// Defaults mirroring the `twod_bridge` integration-test workload: a
    /// 16×8 grid, rectangles up to 10×6, paper bins, 50×Tmax horizon.
    pub fn new(samples: usize, seed: u64) -> Self {
        TwodBridgeConfig {
            spec: TasksetSpec2D {
                n_tasks: 5,
                period_range: (5.0, 20.0),
                exec_factor_range: (0.0, 0.6),
                w_range: (2, 10),
                h_range: (1, 6),
            },
            device: Device2D::new(16, 8).expect("non-zero dimensions"),
            bins: UtilizationBins::paper_default(),
            samples,
            seed,
            sim_horizon: 50.0,
            workers: 0,
        }
    }
}

/// One replayable bridge counterexample: a minimized 2-D taskset whose
/// projection was accepted by an analytic test while the targeted 1-D
/// simulation of that same projection missed a deadline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TwodCounterexample {
    /// Sample index of the original draw.
    pub sample: usize,
    /// Derived per-sample RNG seed.
    pub sample_seed: u64,
    /// The analytic verdict that was disproved.
    pub evaluator: String,
    /// The targeted 1-D scheduler whose simulation of the projection
    /// missed.
    pub scheduler: String,
    /// Grid dimensions `(W, H)`.
    pub device: (u32, u32),
    /// Minimized 2-D task tuples `(C, D, T, w, h)`.
    pub tasks: Vec<(f64, f64, f64, u32, u32)>,
    /// Time of the first miss in the targeted 1-D simulation of the
    /// minimized projection.
    pub first_miss_time: Option<f64>,
}

/// Agreement matrix between the 1-D EDF-NF simulation of the projected
/// taskset and the native 2-D EDF-NF simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Sim1dAgreement {
    /// Both engines ran clean.
    pub both_clean: usize,
    /// The projection simulated clean in 1-D but the native 2-D run
    /// missed: a feasible full-height schedule exists, the greedy 2-D
    /// scheduler did not find it. A scheduling **anomaly**, not a
    /// soundness violation — measured, never gated.
    pub anomaly_1d_clean_2d_miss: usize,
    /// The projection missed in 1-D but the native 2-D run was clean —
    /// the projection's full-height pessimism at simulation level.
    pub conservative_1d_miss_2d_clean: usize,
    /// Both engines missed.
    pub both_miss: usize,
}

impl Sim1dAgreement {
    /// Draws where the two engines agreed.
    pub fn agreements(&self) -> usize {
        self.both_clean + self.both_miss
    }

    /// All draws tallied.
    pub fn total(&self) -> usize {
        self.agreements() + self.anomaly_1d_clean_2d_miss + self.conservative_1d_miss_2d_clean
    }
}

struct BridgeContext {
    config: TwodBridgeConfig,
    evaluators: Vec<ConformEvaluator>,
    sim_2d: Sim2DConfig,
}

impl BridgeContext {
    /// Evaluate one draw: classify every analytic verdict on the
    /// projection against the 1-D simulations of that projection, and
    /// record the native-2-D comparison for the measured gap.
    fn evaluate(
        &self,
        ts: &TaskSet2D<f64>,
        sample: usize,
        seed: u64,
        scratch: &mut ScratchSpace,
    ) -> BridgeUnit {
        let (ts1d, fpga) =
            project_to_columns(ts, &self.config.device).expect("generated tasksets are valid");
        let utilization = ts1d.system_utilization() / f64::from(fpga.columns());
        let sim_clean = simulate_targets(&ts1d, &fpga, self.config.sim_horizon);
        let native_clean = simulate_2d(ts, &self.config.device, &self.sim_2d)
            .expect("generated tasksets are valid")
            .schedulable();
        let classes = classify_draw(&self.evaluators, &ts1d, &fpga, &sim_clean, false, scratch);
        let anyof_accepts = self
            .evaluators
            .iter()
            .zip(&classes)
            .any(|(ev, class)| ev.evaluator.name == "AnyOf" && class.accepted());
        let counterexamples = (0..classes.len())
            .filter(|&i| classes[i] == Classification::SoundnessViolation)
            .map(|i| self.build_counterexample(ts, sample, seed, i, &sim_clean))
            .collect();
        BridgeUnit {
            classes,
            utilization,
            sim1d_clean: sim_clean[1],
            native_clean,
            analytic_anomaly: anyof_accepts && !native_clean,
            counterexamples,
        }
    }

    /// Does evaluator `index`'s accept-plus-targeted-1-D-miss violation
    /// hold for this 2-D taskset?
    fn violation_holds(&self, ts: &TaskSet2D<f64>, index: usize, target: &SchedulerKind) -> bool {
        let Ok((ts1d, fpga)) = project_to_columns(ts, &self.config.device) else { return false };
        self.evaluators[index].evaluator.accepts(&ts1d, &fpga)
            && simulate_f64(&ts1d, &fpga, &sim_config(target.clone(), self.config.sim_horizon))
                .map(|o| !o.schedulable())
                .unwrap_or(false)
    }

    fn build_counterexample(
        &self,
        ts: &TaskSet2D<f64>,
        sample: usize,
        seed: u64,
        index: usize,
        sim_clean: &[bool; 2],
    ) -> TwodCounterexample {
        let target = self.evaluators[index]
            .violated_target(sim_clean)
            .expect("a violation names its missing scheduler")
            .clone();
        let current = minimize_with(
            ts,
            |t| t.len(),
            |t, drop| {
                let remaining: Vec<_> = t
                    .tasks()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != drop)
                    .map(|(_, task)| *task)
                    .collect();
                TaskSet2D::new(remaining).ok()
            },
            |candidate| self.violation_holds(candidate, index, &target),
        );
        let first_miss_time = project_to_columns(&current, &self.config.device)
            .ok()
            .and_then(|(ts1d, fpga)| {
                simulate_f64(&ts1d, &fpga, &sim_config(target.clone(), self.config.sim_horizon))
                    .ok()
            })
            .and_then(|o| o.first_miss().map(|m| m.time));
        TwodCounterexample {
            sample,
            sample_seed: seed,
            evaluator: self.evaluators[index].evaluator.name.clone(),
            scheduler: target.name().to_string(),
            device: (self.config.device.width(), self.config.device.height()),
            tasks: current
                .tasks()
                .iter()
                .map(|t| (t.exec(), t.deadline(), t.period(), t.w(), t.h()))
                .collect(),
            first_miss_time,
        }
    }
}

struct BridgeUnit {
    classes: Vec<Classification>,
    utilization: f64,
    sim1d_clean: bool,
    native_clean: bool,
    analytic_anomaly: bool,
    counterexamples: Vec<TwodCounterexample>,
}

/// A completed bridge run: the gated tallies (reusing [`ConformReport`],
/// with workload id `"twod-bridge"`) plus the measured native-2-D gap.
#[derive(Debug, Clone, PartialEq)]
pub struct TwodBridgeOutcome {
    /// The deterministic tallies against the 1-D engine (no 1-D
    /// counterexamples inside — [`TwodBridgeOutcome::counterexamples`]
    /// carries the 2-D ones).
    pub report: ConformReport,
    /// Minimized 2-D counterexamples, capped at
    /// [`MAX_COUNTEREXAMPLES`](crate::MAX_COUNTEREXAMPLES).
    pub counterexamples: Vec<TwodCounterexample>,
    /// The measured 1-D-sim vs native-2-D-sim agreement matrix.
    pub sim1d: Sim1dAgreement,
    /// Draws AnyOf accepted whose native 2-D simulation missed — the
    /// greedy scheduler failing to realize a schedule the projection
    /// proves to exist. Measured, never gated.
    pub analytic_anomalies: usize,
    /// Draws lost to a panicking evaluator/simulation (contained by the
    /// pool; the tallies cover a correspondingly reduced population).
    pub failed_units: usize,
    /// The resolved pool worker count.
    pub workers: usize,
}

/// The serializable artifact of a bridge run (everything except the
/// engine-level worker count).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TwodBridgeArtifact {
    /// The deterministic tallies.
    pub report: ConformReport,
    /// Minimized 2-D counterexamples.
    pub counterexamples: Vec<TwodCounterexample>,
    /// The measured 1-D-sim vs native-2-D-sim agreement matrix.
    pub sim1d: Sim1dAgreement,
    /// AnyOf-accepted draws whose native 2-D simulation missed.
    pub analytic_anomalies: usize,
}

impl TwodBridgeOutcome {
    /// The deterministic artifact for `--out` files.
    pub fn artifact(&self) -> TwodBridgeArtifact {
        TwodBridgeArtifact {
            report: self.report.clone(),
            counterexamples: self.counterexamples.clone(),
            sim1d: self.sim1d,
            analytic_anomalies: self.analytic_anomalies,
        }
    }
}

/// Run the bridge conformance on the population driver. Deterministic
/// for a given config — independent of the worker count.
pub fn run_twod_bridge(config: &TwodBridgeConfig) -> TwodBridgeOutcome {
    config.spec.validate().expect("valid 2-D spec");
    let evaluators = paper_conform_evaluators();
    let mut series = empty_series(&evaluators, &config.bins, |k| format!("{k} (projected)"));
    let context = Arc::new(BridgeContext {
        evaluators,
        sim_2d: Sim2DConfig { horizon_periods: config.sim_horizon, ..Sim2DConfig::default() },
        config: config.clone(),
    });
    let eval = move |scratch: &mut ScratchSpace, sample: usize| {
        let seed = sample_seed(context.config.seed, 0, sample);
        let ts = context.config.spec.generate(&mut StdRng::seed_from_u64(seed));
        context.evaluate(&ts, sample, seed, scratch)
    };

    let mut total_violations = 0usize;
    let mut counterexamples = Vec::new();
    let mut sim1d = Sim1dAgreement::default();
    let mut analytic_anomalies = 0usize;
    let mut failed_units = 0usize;
    let workers =
        run_units(config.workers, config.samples, ScratchSpace::new, eval, |_, result| {
            // A panicking draw poisons one sample, not the run.
            let Ok(unit) = result else {
                failed_units += 1;
                return;
            };
            // Clamp the observed utilization into the configured bins so no
            // draw is dropped from the tallies.
            let bin = config
                .bins
                .index_of(unit.utilization)
                .unwrap_or(if unit.utilization < config.bins.lo { 0 } else { config.bins.n - 1 });
            total_violations += record_classes(&mut series, bin, &unit.classes);
            match (unit.sim1d_clean, unit.native_clean) {
                (true, true) => sim1d.both_clean += 1,
                (true, false) => sim1d.anomaly_1d_clean_2d_miss += 1,
                (false, true) => sim1d.conservative_1d_miss_2d_clean += 1,
                (false, false) => sim1d.both_miss += 1,
            }
            analytic_anomalies += usize::from(unit.analytic_anomaly);
            keep_capped(&mut counterexamples, unit.counterexamples);
        });

    TwodBridgeOutcome {
        report: ConformReport {
            workload_id: "twod-bridge".to_string(),
            caption: format!(
                "{}×{} grid, projection verdicts vs the 1-D engine on projected tasksets",
                config.device.width(),
                config.device.height()
            ),
            sim_horizon: config.sim_horizon,
            series,
            nec_rejects: 0,
            nec_reject_sim_clean: 0,
            total_violations,
            counterexamples: Vec::new(),
        },
        counterexamples,
        sim1d,
        analytic_anomalies,
        failed_units,
        workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workers: usize) -> TwodBridgeConfig {
        let mut config = TwodBridgeConfig::new(60, 0x2D2D);
        config.bins = UtilizationBins::new(0.0, 1.0, 5);
        config.sim_horizon = 20.0;
        config.workers = workers;
        config
    }

    #[test]
    fn bridge_is_worker_count_invariant() {
        let reference = run_twod_bridge(&tiny(1));
        let out = run_twod_bridge(&tiny(4));
        assert_eq!(out.report, reference.report);
        assert_eq!(out.counterexamples, reference.counterexamples);
        assert_eq!(out.sim1d, reference.sim1d);
        assert_eq!(out.analytic_anomalies, reference.analytic_anomalies);
        assert_eq!(out.failed_units, reference.failed_units);
    }

    #[test]
    fn bridge_is_sound_on_a_small_population() {
        let out = run_twod_bridge(&tiny(0));
        assert!(out.report.sound(), "bridge violations: {:#?}", out.counterexamples);
        assert_eq!(out.report.series.len(), 4);
        assert!(out.report.series[0].targets[0].contains("projected"));
        let total: usize = out.report.series[0].bins.iter().map(|b| b.samples).sum();
        assert_eq!(total, 60, "every draw is tallied");
        assert_eq!(out.sim1d.total(), 60, "every draw lands in the agreement matrix");
        // Anomalies are a subset of AnyOf acceptances, which are a subset
        // of clean 1-D simulations.
        let anyof: usize = out
            .report
            .series_named("AnyOf")
            .unwrap()
            .bins
            .iter()
            .map(|b| b.sound_accept + b.violations)
            .sum();
        let sim1d_clean = out.sim1d.both_clean + out.sim1d.anomaly_1d_clean_2d_miss;
        assert!(sim1d_clean >= anyof, "1-D sim clean ({sim1d_clean}) below AnyOf ({anyof})");
        assert!(out.analytic_anomalies <= anyof);
        assert_eq!(out.failed_units, 0);
    }
}
