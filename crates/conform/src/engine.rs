//! The pool-parallel conformance engine.
//!
//! One *unit* of work is one `(bin, sample)` coordinate: draw the taskset
//! from its own deterministic RNG stream
//! ([`fpga_rt_exp::acceptance::sample_seed`], shared with the sweep
//! engine), run every [`ConformEvaluator`], the [`NecessaryTest`]
//! falsifier and the discrete-event engine under both targeted schedulers
//! on it, classify, and — on a violation — minimize and package a
//! [`Counterexample`] right in the worker. Units fan out across
//! [`fpga_rt_pool::ShardedPool`] exactly like the sweep engine, so the
//! aggregated [`ConformReport`] is **byte-identical across worker counts
//! and chunk sizes** (asserted by tests and enforced in CI).

use crate::classify::{Classification, ConformEvaluator, SIM_SCHEDULERS};
use crate::counterexample::{
    capture_miss_evidence, minimize_taskset, Counterexample, ViolationKind,
};
use fpga_rt_analysis::{BatchAnalyzer, BatchVerdicts, NecessaryTest, SchedTest, ScratchSpace};
use fpga_rt_exp::acceptance::sample_seed;
use fpga_rt_gen::{BinnedGenerator, BinningStrategy, FigureWorkload, UtilizationBins};
use fpga_rt_model::{Fpga, TaskSet};
use fpga_rt_obs::Obs;
use fpga_rt_pool::{PoolConfig, ShardedPool};
use fpga_rt_sim::{simulate_f64, Horizon, SchedulerKind, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of a conformance run.
#[derive(Debug, Clone)]
pub struct ConformConfig {
    /// Which figure workload to draw from.
    pub workload: FigureWorkload,
    /// Utilization bins (x-axis).
    pub bins: UtilizationBins,
    /// Tasksets per bin.
    pub per_bin: usize,
    /// Base RNG seed; every `(bin, sample)` derives its own stream.
    pub seed: u64,
    /// Bin-filling strategy.
    pub strategy: BinningStrategy,
    /// Simulation horizon as a factor of the taskset's largest period
    /// (`Horizon::PeriodsOfTmax`). Longer horizons make the falsifier more
    /// sensitive and the run slower.
    pub sim_horizon: f64,
    /// Pool worker threads (0 = all available). The report does not depend
    /// on this value.
    pub workers: usize,
    /// Work units submitted per pool batch (bounds peak memory; the report
    /// does not depend on this value).
    pub chunk: usize,
    /// Cap on *serialized* counterexamples (all violations are counted;
    /// only the first `max_counterexamples` carry full evidence).
    pub max_counterexamples: usize,
    /// Telemetry handle. When enabled, workers record per-unit span
    /// histograms (`conform/evaluate_ns` for the whole classification,
    /// `conform/sim_ns` for the targeted simulations) and the aggregation
    /// adds per-bin/per-figure throughput counters. [`Obs::off`] (the
    /// [`ConformConfig::new`] default) makes all of it a no-op; the report
    /// never depends on this handle.
    pub obs: Obs,
}

impl ConformConfig {
    /// Defaults for a workload: paper bins, the workload's strategy, a
    /// 50×Tmax horizon, all cores, 1024-unit batches, 8 serialized
    /// counterexamples.
    pub fn new(workload: FigureWorkload, per_bin: usize, seed: u64) -> Self {
        ConformConfig {
            workload,
            bins: UtilizationBins::paper_default(),
            per_bin,
            seed,
            strategy: workload.strategy,
            sim_horizon: 50.0,
            workers: 0,
            chunk: 1024,
            max_counterexamples: 8,
            obs: Obs::off(),
        }
    }

    fn sim_config(&self, kind: SchedulerKind) -> SimConfig {
        SimConfig::default()
            .with_scheduler(kind)
            .with_horizon(Horizon::PeriodsOfTmax(self.sim_horizon))
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
    /// [`ConformConfig::max_counterexamples`] violations, in unit order.
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

/// What one worker sends back per unit.
#[derive(Debug)]
struct UnitReport {
    classes: Vec<Classification>,
    nec_rejected: bool,
    all_sims_clean: bool,
    counterexamples: Vec<Counterexample>,
}

/// Read-only context shared by every pool worker.
struct ConformContext {
    config: ConformConfig,
    generator: BinnedGenerator,
    device: Fpga,
    evaluators: Vec<ConformEvaluator>,
}

impl ConformContext {
    /// Evaluate one generated taskset (pure; shared by the pool workers
    /// and the tests). `scratch` is the worker's reusable pack buffer:
    /// analysis-kind evaluators ride the allocation-free batch kernel
    /// through it.
    fn evaluate(
        &self,
        ts: &TaskSet<f64>,
        bin: usize,
        sample: usize,
        seed: u64,
        scratch: &mut ScratchSpace,
    ) -> UnitReport {
        let obs = &self.config.obs;
        let unit_span = obs.span();
        let nec_rejected = !NecessaryTest.is_schedulable(ts, &self.device);
        let mut sim_clean = [false; 2];
        let sim_span = obs.span();
        for (i, kind) in SIM_SCHEDULERS.iter().enumerate() {
            sim_clean[i] = simulate_f64(ts, &self.device, &self.config.sim_config(kind.clone()))
                .expect("generated tasksets validate for the workload device")
                .schedulable();
        }
        obs.record_ns("conform/sim_ns", sim_span.elapsed_ns());
        let mut classes = Vec::with_capacity(self.evaluators.len());
        let mut counterexamples = Vec::new();
        // Analysis-kind evaluators share one batch-kernel pass: the
        // taskset is packed once and all four series come out of it
        // (identical verdicts to per-series evaluation — the kernel's
        // `analyze`/`analyze_series` agreement is asserted by tests).
        let mut batch_verdicts: Option<BatchVerdicts> = None;
        for ev in &self.evaluators {
            let accepted = match ev.evaluator.analysis_series() {
                Some(series) => {
                    batch_verdicts
                        .get_or_insert_with(|| {
                            BatchAnalyzer::new().analyze(ts, &self.device, scratch)
                        })
                        .series(series)
                        .accepted
                }
                None => ev.evaluator.accepts_with(ts, &self.device, scratch),
            };
            let mut class = ev.classify(accepted, &sim_clean);
            if accepted && nec_rejected {
                class = Classification::SoundnessViolation;
            }
            if class == Classification::SoundnessViolation {
                counterexamples.push(self.build_counterexample(
                    ts,
                    (bin, sample, seed),
                    ev,
                    &sim_clean,
                ));
            }
            classes.push(class);
        }
        obs.record_ns("conform/evaluate_ns", unit_span.elapsed_ns());
        UnitReport {
            classes,
            nec_rejected,
            all_sims_clean: sim_clean.iter().all(|c| *c),
            counterexamples,
        }
    }

    /// `unit` is the `(bin, sample, derived seed)` coordinate of the draw.
    fn build_counterexample(
        &self,
        ts: &TaskSet<f64>,
        unit: (usize, usize, u64),
        ev: &ConformEvaluator,
        sim_clean: &[bool; 2],
    ) -> Counterexample {
        let (bin, sample, seed) = unit;
        let accepts = |candidate: &TaskSet<f64>| ev.evaluator.accepts(candidate, &self.device);
        let (kind, scheduler) = match ev.violated_target(sim_clean) {
            Some(target) => (ViolationKind::SimMiss, Some(target.clone())),
            // No targeted simulation missed, so the violation came from
            // the necessary-test contradiction.
            None => (ViolationKind::NecessaryContradiction, None),
        };
        let minimized = match (&kind, &scheduler) {
            (ViolationKind::SimMiss, Some(target)) => {
                let cfg = self.config.sim_config(target.clone());
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
        let evidence_cfg =
            self.config.sim_config(scheduler.clone().unwrap_or(SchedulerKind::EdfNf));
        let (first_miss, trace_tail) =
            capture_miss_evidence(&minimized, &self.device, &evidence_cfg);
        Counterexample {
            figure: self.config.workload.id.to_string(),
            bin,
            sample,
            sample_seed: seed,
            evaluator: ev.evaluator.name.clone(),
            scheduler: scheduler.map(|k| k.name().to_string()),
            kind,
            device_columns: self.device.columns(),
            sim_horizon: self.config.sim_horizon,
            tasks: minimized
                .iter()
                .map(|(_, t)| (t.exec(), t.deadline(), t.period(), t.area()))
                .collect(),
            first_miss,
            trace_tail,
        }
    }
}

/// Run a conformance sweep over the shared worker pool. Deterministic for
/// a given `config` and evaluator list — independent of `workers` and
/// `chunk`.
pub fn run_conform(config: &ConformConfig, evaluators: Vec<ConformEvaluator>) -> ConformOutcome {
    let n_bins = config.bins.n;
    let per_bin = config.per_bin.max(1);
    let series_meta: Vec<(String, Vec<String>)> = evaluators
        .iter()
        .map(|e| {
            (e.evaluator.name.clone(), e.targets.iter().map(|k| k.name().to_string()).collect())
        })
        .collect();
    let context = Arc::new(ConformContext {
        generator: BinnedGenerator::new(
            config.workload.spec,
            config.workload.device_columns,
            config.bins,
        )
        .with_strategy(config.strategy),
        device: config.workload.device(),
        evaluators,
        config: config.clone(),
    });

    // The shard key only spreads work across workers; the shard state is
    // the worker's scratch buffer for the batch analysis kernel.
    let shards = 256u32;
    let mut pool: ShardedPool<usize, Option<UnitReport>> = ShardedPool::new(
        PoolConfig { workers: config.workers, shards },
        |_shard| ScratchSpace::new(),
        {
            let context = Arc::clone(&context);
            move |scratch, _shard, unit| {
                let bin = unit / context.config.per_bin.max(1);
                let sample = unit % context.config.per_bin.max(1);
                let seed = sample_seed(context.config.seed, bin, sample);
                let mut rng = StdRng::seed_from_u64(seed);
                context
                    .generator
                    .sample_in_bin(bin, &mut rng)
                    .map(|ts| context.evaluate(&ts, bin, sample, seed, scratch))
            }
        },
    );
    let workers = pool.workers();

    let mut series: Vec<ConformSeries> = series_meta
        .into_iter()
        .map(|(name, targets)| ConformSeries {
            name,
            targets,
            bins: (0..n_bins).map(|b| BinClassCounts::empty(config.bins.center(b))).collect(),
        })
        .collect();
    let mut nec_rejects = 0usize;
    let mut nec_reject_sim_clean = 0usize;
    let mut total_violations = 0usize;
    let mut counterexamples = Vec::new();
    let mut exhausted_units = 0usize;
    let mut failed_units = 0usize;

    let total_units = n_bins * per_bin;
    let chunk = config.chunk.max(1);
    let mut unit = 0usize;
    while unit < total_units {
        let upper = (unit + chunk).min(total_units);
        for u in unit..upper {
            pool.submit((u % shards as usize) as u32, u);
        }
        let results = pool.collect().expect("pool workers cannot die: panics are contained");
        for (offset, result) in results.into_iter().enumerate() {
            let bin = (unit + offset) / per_bin;
            match result {
                Ok(Some(report)) => {
                    for (e, class) in report.classes.into_iter().enumerate() {
                        series[e].bins[bin].record(class);
                        if class == Classification::SoundnessViolation {
                            total_violations += 1;
                        }
                    }
                    if report.nec_rejected {
                        nec_rejects += 1;
                        if report.all_sims_clean {
                            nec_reject_sim_clean += 1;
                        }
                    }
                    for cx in report.counterexamples {
                        if counterexamples.len() < config.max_counterexamples {
                            counterexamples.push(cx);
                        }
                    }
                }
                Ok(None) => exhausted_units += 1,
                Err(_) => failed_units += 1,
            }
        }
        unit = upper;
    }

    if config.obs.enabled() {
        // Per-bin/per-figure throughput counters, accumulated on the
        // driving thread so they are deterministic by construction.
        let obs = &config.obs;
        let mut figure_samples = 0u64;
        for bin in 0..n_bins {
            // Every evaluator classifies every sample of the bin.
            let samples = series.first().map(|s| s.bins[bin].samples as u64).unwrap_or(0);
            obs.add(&format!("conform/bin{bin:02}/samples"), samples);
            figure_samples += samples;
        }
        obs.add(&format!("conform/figure/{}/samples", config.workload.id), figure_samples);
        obs.add("conform/nec_rejects", nec_rejects as u64);
        obs.add("conform/violations", total_violations as u64);
        obs.add("conform/exhausted_units", exhausted_units as u64);
        obs.add("conform/failed_units", failed_units as u64);
    }
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
    use fpga_rt_exp::Evaluator;

    fn tiny_config(workers: usize) -> ConformConfig {
        let mut config = ConformConfig::new(FigureWorkload::fig3a(), 6, 42);
        config.bins = UtilizationBins::new(0.0, 1.0, 4);
        config.sim_horizon = 20.0;
        config.workers = workers;
        config
    }

    #[test]
    fn conform_is_worker_count_and_chunk_invariant() {
        let reference = run_conform(&tiny_config(1), paper_conform_evaluators());
        for workers in [2, 4] {
            let mut config = tiny_config(workers);
            config.chunk = 5;
            let out = run_conform(&config, paper_conform_evaluators());
            assert_eq!(out.report, reference.report, "workers={workers}");
            assert_eq!(out.exhausted_units, reference.exhausted_units);
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
        let mut config = tiny_config(0);
        config.max_counterexamples = 2;
        let out = run_conform(&config, vec![always]);
        assert!(out.report.total_violations > 2);
        assert_eq!(out.report.counterexamples.len(), 2);
    }

    #[test]
    fn report_round_trips_through_json() {
        let out = run_conform(&tiny_config(0), paper_conform_evaluators());
        let json = serde_json::to_string_pretty(&out.report).unwrap();
        let back: ConformReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, out.report);
    }
}
