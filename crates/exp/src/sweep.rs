//! The population engine: a figure workload's binned UUniFast population
//! evaluated on the workspace's one population driver
//! ([`fpga_rt_pool::run_units`]), as acceptance-ratio curves here and as
//! conformance tallies in `fpga-rt-conform`.
//!
//! * **One population** — [`Population::draw`] is the one binned draw:
//!   unit `u` is sample `u % per_bin` of bin `u / per_bin`, drawn from its
//!   own [`crate::acceptance::sample_seed`]`(seed, bin, sample)` stream, so
//!   the sweep and the conformance engine see the same tasksets, and both
//!   are byte-identical across worker counts (asserted by tests, diffed in
//!   CI against committed goldens).
//! * **Scale** — the paper's figures use a handful of ~10 000-taskset
//!   experiment groups; the driver makes 10–100× larger populations (the
//!   scale argued for by Goossens & Meumeu Yomsi's exact global-EDF work
//!   and Singh's EDF complexity-reduction results) a single function call,
//!   chunked so memory stays flat.
//! * **Containment** — a panicking evaluator poisons one work unit
//!   (counted in [`PoolSweepOutcome::failed_units`]), not the whole sweep.
//! * **Telemetry** — [`record_population`] writes both engines' per-bin,
//!   per-figure, exhausted and failed counters.
//!
//! ## Kernels
//!
//! When every evaluator is analysis-kind ([`Evaluator::analysis`] — the
//! [`analysis_evaluators`] suite), the sweep takes the **batch path**: a
//! work unit is a [`BATCH_SAMPLES`]-sample block, each worker packs its
//! block into its [`TaskSetBatch`] (structure-of-arrays columns, λ
//! candidates pre-sorted at pack time, the worker's driver state) and one
//! [`BatchAnalyzer`] pass produces all four verdicts with zero
//! per-taskset heap allocation. Any custom evaluator in the list falls
//! back to the per-sample closure ("scalar") path (with the worker's
//! [`ScratchSpace`] so analysis-kind members of a mixed list still ride
//! the packed kernel). Both paths produce bit-identical curves — the
//! closure path's `SchedTest::check` reports come from the same analysis
//! kernel, checked against [`analysis_evaluators_scalar`] — so the path
//! never shows up in artifacts.
//!
//! The result reuses [`SweepResult`], so the text/CSV renderers in
//! [`crate::output`] and `serde_json` serialization apply unchanged.
//! `fpga-rt sweep` and `fpga-rt study` wrap this module;
//! `cargo bench -p fpga-rt-bench --bench sweep_throughput` measures its
//! scaling and the batch path's speedup over the closure path.
//!
//! ```
//! use fpga_rt_exp::sweep::{run_pool_sweep, PoolSweepConfig};
//! use fpga_rt_exp::Evaluator;
//! use fpga_rt_analysis::DpTest;
//! use fpga_rt_gen::{FigureWorkload, UtilizationBins};
//!
//! let mut config = PoolSweepConfig::new(FigureWorkload::fig3a(), 4, 42);
//! config.bins = UtilizationBins::new(0.0, 1.0, 3);
//! config.workers = 2;
//! let outcome = run_pool_sweep(&config, &[Evaluator::from_test(DpTest::default())]);
//! let dp = outcome.result.series_named("DP").unwrap();
//! assert_eq!(dp.points.len(), 3);
//! assert!(dp.points[0].ratio() >= dp.points[2].ratio());
//! ```

use crate::acceptance::{sample_seed, AcceptanceSeries, Evaluator, SeriesPoint, SweepResult};
use fpga_rt_analysis::{AnalysisSeries, BatchAnalyzer, BatchVerdicts, ScratchSpace, TaskSetBatch};
use fpga_rt_gen::{BinnedGenerator, FigureWorkload, UtilizationBins};
use fpga_rt_model::TaskSet;
use fpga_rt_obs::Obs;
use fpga_rt_pool::run_units;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Samples per batch-path work unit: large enough to amortize pool
/// messaging and keep the SoA columns cache-resident, small enough that a
/// contained panic loses little. Fixed (never derived from `workers`) so
/// the unit decomposition — and therefore every artifact — is invariant in
/// the worker count.
pub const BATCH_SAMPLES: usize = 64;

/// Configuration of a pool-backed sweep.
#[derive(Debug, Clone)]
pub struct PoolSweepConfig {
    /// Which figure workload to draw from (its bin-filling strategy
    /// included).
    pub workload: FigureWorkload,
    /// Utilization bins (x-axis).
    pub bins: UtilizationBins,
    /// Tasksets per bin.
    pub per_bin: usize,
    /// Base RNG seed; every (bin, sample) derives its own stream via
    /// [`sample_seed`].
    pub seed: u64,
    /// Pool worker threads (0 = all available). The curves do not depend
    /// on this value.
    pub workers: usize,
    /// Telemetry handle. When enabled, workers record per-kernel
    /// pack/evaluate span histograms (`sweep/batch/pack_ns`,
    /// `sweep/batch/evaluate_ns`, `sweep/scalar/evaluate_ns`) and the
    /// tally adds per-bin/per-figure throughput counters. [`Obs::off`]
    /// (the [`PoolSweepConfig::new`] default) makes all of it a no-op; the
    /// curves never depend on this handle.
    pub obs: Obs,
}

impl PoolSweepConfig {
    /// Defaults for a workload: paper bins, all cores, no telemetry.
    pub fn new(workload: FigureWorkload, per_bin: usize, seed: u64) -> Self {
        PoolSweepConfig {
            workload,
            bins: UtilizationBins::paper_default(),
            per_bin,
            seed,
            workers: 0,
            obs: Obs::off(),
        }
    }
}

/// A completed pool sweep: the acceptance curves plus engine-level counters
/// that [`SweepResult`] has no room for.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSweepOutcome {
    /// The acceptance-ratio curves.
    pub result: SweepResult,
    /// Work units whose generator exhausted its attempt budget (the bin
    /// quota is reported short).
    pub exhausted_units: usize,
    /// Samples lost to a panicking evaluator (contained by the pool). On
    /// the batch path a panic poisons its whole [`BATCH_SAMPLES`] block,
    /// and every sample of the block is counted here.
    pub failed_units: usize,
    /// The resolved pool worker count the sweep actually used.
    pub workers: usize,
}

/// A figure workload's binned population: `bins.n × per_bin` units, unit
/// `u` being sample `u % per_bin` of bin `u / per_bin`.
#[derive(Debug, Clone)]
pub struct Population {
    generator: BinnedGenerator,
    per_bin: usize,
    seed: u64,
}

/// One unit of a [`Population`].
#[derive(Debug, Clone)]
pub struct Draw {
    /// Utilization bin.
    pub bin: usize,
    /// Sample index within the bin.
    pub sample: usize,
    /// The unit's RNG seed, [`sample_seed`]`(seed, bin, sample)`.
    pub seed: u64,
    /// The taskset, or `None` when the generator exhausted its attempt
    /// budget.
    pub taskset: Option<TaskSet<f64>>,
}

impl Population {
    /// The population of `workload` (with its bin-filling strategy) over
    /// `bins`, `per_bin` tasksets each, from base seed `seed`.
    pub fn new(
        workload: &FigureWorkload,
        bins: UtilizationBins,
        per_bin: usize,
        seed: u64,
    ) -> Self {
        let generator = BinnedGenerator::new(workload.spec, workload.device_columns, bins)
            .with_strategy(workload.strategy);
        Population { generator, per_bin, seed }
    }

    /// Units in the population.
    pub fn units(&self) -> usize {
        self.generator.bins.n * self.per_bin
    }

    /// Draw unit `unit` — the same taskset whoever draws it, whenever.
    pub fn draw(&self, unit: usize) -> Draw {
        let bin = unit / self.per_bin.max(1);
        let sample = unit % self.per_bin.max(1);
        let seed = sample_seed(self.seed, bin, sample);
        let taskset = self.generator.sample_in_bin(bin, &mut StdRng::seed_from_u64(seed));
        Draw { bin, sample, seed, taskset }
    }
}

/// Write a population run's counters under `engine` (`"sweep"`,
/// `"conform"`): `<engine>/binNN/samples` per bin, the figure's total as
/// `<engine>/figure/<id>/samples`, and `<engine>/exhausted_units` and
/// `<engine>/failed_units`. Called on the driving thread after the fold,
/// so the counters are deterministic by construction; a no-op unless
/// `obs` is enabled.
pub fn record_population(
    obs: &Obs,
    engine: &str,
    figure: &str,
    bin_samples: impl IntoIterator<Item = usize>,
    exhausted: usize,
    failed: usize,
) {
    if !obs.enabled() {
        return;
    }
    let mut figure_samples = 0u64;
    for (bin, samples) in bin_samples.into_iter().enumerate() {
        obs.add(&format!("{engine}/bin{bin:02}/samples"), samples as u64);
        figure_samples += samples as u64;
    }
    obs.add(&format!("{engine}/figure/{figure}/samples"), figure_samples);
    obs.add(&format!("{engine}/exhausted_units"), exhausted as u64);
    obs.add(&format!("{engine}/failed_units"), failed as u64);
}

/// The paper's analytic series — DP (Theorem 1), GN1 (Theorem 2), GN2
/// (Theorem 3) and the Section-6 composite (accept iff any test accepts),
/// reported as `AnyOf` — the evaluator set of `fpga-rt sweep`, riding the
/// batch kernel ([`Evaluator::analysis`]).
pub fn analysis_evaluators() -> Vec<Evaluator> {
    AnalysisSeries::ALL.into_iter().map(Evaluator::analysis).collect()
}

/// The same four series as scalar closures over the [`fpga_rt_analysis`]
/// test implementations — the reference the batch kernel is cross-checked
/// against (byte-identical curves, asserted by tests).
pub fn analysis_evaluators_scalar() -> Vec<Evaluator> {
    use fpga_rt_analysis::{AnyOfTest, DpTest, Gn1Test, Gn2Test, SchedTest};
    let any = AnyOfTest::paper_suite();
    vec![
        Evaluator::from_test(DpTest::default()),
        Evaluator::from_test(Gn1Test::default()),
        Evaluator::from_test(Gn2Test::default()),
        Evaluator::new("AnyOf", move |ts, dev| any.is_schedulable(ts, dev)),
    ]
}

/// Per-worker reusable buffers of the batch path: the pack buffer and the
/// verdict store reach a steady state with zero per-taskset heap
/// allocation.
#[derive(Default)]
struct BlockScratch {
    batch: TaskSetBatch,
    verdicts: Vec<BatchVerdicts>,
}

/// Run a sweep on the population driver. Deterministic for a given
/// `config` and evaluator list — independent of `workers`, and
/// independent of whether the batch or the scalar path evaluates the
/// analytic series.
pub fn run_pool_sweep(config: &PoolSweepConfig, evaluators: &[Evaluator]) -> PoolSweepOutcome {
    let population =
        Arc::new(Population::new(&config.workload, config.bins, config.per_bin, config.seed));
    let units = population.units();
    let device = config.workload.device();
    let obs = config.obs.clone();
    let mut tally = SweepTally::new(config.bins.n, evaluators.len());
    let all_analysis: Option<Vec<AnalysisSeries>> =
        evaluators.iter().map(Evaluator::analysis_series).collect();
    let workers = match all_analysis {
        // The batch path: a unit is a block, packed and evaluated in one
        // kernel pass; evaluator `e`'s verdict is bit `e` of a sample's
        // mask, so the path takes at most 8 evaluators.
        Some(series) if !series.is_empty() && series.len() <= 8 => {
            let block_units =
                move |block: usize| block * BATCH_SAMPLES..units.min((block + 1) * BATCH_SAMPLES);
            let eval = move |scratch: &mut BlockScratch, block: usize| {
                let mut masks: Vec<Option<(usize, u8)>> = Vec::with_capacity(BATCH_SAMPLES);
                let pack_span = obs.span();
                scratch.batch.clear();
                for unit in block_units(block) {
                    let draw = population.draw(unit);
                    masks.push(draw.taskset.map(|ts| {
                        scratch.batch.push(&ts);
                        (draw.bin, 0)
                    }));
                }
                obs.record_ns("sweep/batch/pack_ns", pack_span.elapsed_ns());
                let evaluate_span = obs.span();
                BatchAnalyzer::new().analyze_batch(&scratch.batch, &device, &mut scratch.verdicts);
                obs.record_ns("sweep/batch/evaluate_ns", evaluate_span.elapsed_ns());
                for ((_, mask), verdicts) in masks.iter_mut().flatten().zip(&scratch.verdicts) {
                    for (e, &s) in series.iter().enumerate() {
                        *mask |= u8::from(verdicts.series(s).accepted) << e;
                    }
                }
                masks
            };
            let blocks = units.div_ceil(BATCH_SAMPLES);
            run_units(config.workers, blocks, BlockScratch::default, eval, |block, result| {
                match result {
                    Ok(masks) => {
                        for mask in masks {
                            match mask {
                                Some((bin, mask)) => tally.record(bin, |e| mask & (1 << e) != 0),
                                None => tally.exhausted += 1,
                            }
                        }
                    }
                    // A contained panic poisons the whole block; the
                    // kernel itself is panic-free on validated tasksets,
                    // so this only fires on generator bugs.
                    Err(_) => tally.failed += block_units(block).len(),
                }
            })
        }
        // The per-sample path: each unit draws one taskset and runs every
        // evaluator on it (analysis-kind members still use the kernel
        // through the worker's scratch buffer).
        _ => {
            let evaluators: Arc<[Evaluator]> = evaluators.into();
            let eval = move |scratch: &mut ScratchSpace, unit: usize| {
                let draw = population.draw(unit);
                draw.taskset.map(|ts| {
                    let span = obs.span();
                    let verdicts: Vec<bool> = evaluators
                        .iter()
                        .map(|ev| ev.accepts_with(&ts, &device, scratch))
                        .collect();
                    obs.record_ns("sweep/scalar/evaluate_ns", span.elapsed_ns());
                    (draw.bin, verdicts)
                })
            };
            run_units(config.workers, units, ScratchSpace::new, eval, |_, result| match result {
                Ok(Some((bin, verdicts))) => tally.record(bin, |e| verdicts[e]),
                Ok(None) => tally.exhausted += 1,
                Err(_) => tally.failed += 1,
            })
        }
    };
    tally.into_outcome(config, evaluators, workers)
}

/// Accumulated per-bin per-evaluator counts; results arrive in unit
/// order, and summation would not care anyway.
struct SweepTally {
    /// `counts[bin][evaluator] = (samples, accepted)`.
    counts: Vec<Vec<(usize, usize)>>,
    exhausted: usize,
    failed: usize,
}

impl SweepTally {
    fn new(n_bins: usize, n_eval: usize) -> Self {
        SweepTally { counts: vec![vec![(0, 0); n_eval]; n_bins], exhausted: 0, failed: 0 }
    }

    /// Count one sample of `bin`, evaluator `e` accepting iff
    /// `accepted(e)`.
    fn record(&mut self, bin: usize, accepted: impl Fn(usize) -> bool) {
        for (e, cell) in self.counts[bin].iter_mut().enumerate() {
            cell.0 += 1;
            cell.1 += usize::from(accepted(e));
        }
    }

    fn into_outcome(
        self,
        config: &PoolSweepConfig,
        evaluators: &[Evaluator],
        workers: usize,
    ) -> PoolSweepOutcome {
        record_population(
            &config.obs,
            "sweep",
            config.workload.id,
            // Every evaluator sees every sample of the bin.
            self.counts.iter().map(|cells| cells.first().map_or(0, |c| c.0)),
            self.exhausted,
            self.failed,
        );
        let series = evaluators
            .iter()
            .enumerate()
            .map(|(e, ev)| AcceptanceSeries {
                name: ev.name.clone(),
                points: (0..config.bins.n)
                    .map(|bin| SeriesPoint {
                        utilization: config.bins.center(bin),
                        samples: self.counts[bin][e].0,
                        accepted: self.counts[bin][e].1,
                    })
                    .collect(),
            })
            .collect();
        PoolSweepOutcome {
            result: SweepResult {
                workload_id: config.workload.id.to_string(),
                caption: config.workload.caption.to_string(),
                series,
            },
            exhausted_units: self.exhausted,
            failed_units: self.failed,
            workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_rt_analysis::DpTest;

    fn tiny_config(workers: usize) -> PoolSweepConfig {
        let mut config = PoolSweepConfig::new(FigureWorkload::fig3a(), 8, 42);
        config.bins = UtilizationBins::new(0.0, 1.0, 5);
        config.workers = workers;
        config
    }

    /// Chunk-size invariance is the driver's (`fpga_rt_pool::run_units`).
    #[test]
    fn pool_sweep_is_worker_count_invariant() {
        let reference = run_pool_sweep(&tiny_config(1), &analysis_evaluators());
        for workers in [2, 4, 8] {
            let out = run_pool_sweep(&tiny_config(workers), &analysis_evaluators());
            assert_eq!(out.result, reference.result, "workers={workers}");
            assert_eq!(out.exhausted_units, reference.exhausted_units);
            assert_eq!(out.workers, workers);
        }
    }

    /// The batch kernel's curves are byte-identical to the scalar
    /// evaluators' for the same configuration, so the engine's choice of
    /// path can never show up in an artifact.
    #[test]
    fn batch_kernel_matches_scalar_kernel() {
        for (figure, seed) in [
            (FigureWorkload::fig3a(), 42u64),
            (FigureWorkload::fig4a(), 7),
            (FigureWorkload::fig4b(), 9),
        ] {
            let mut config = PoolSweepConfig::new(figure, 6, seed);
            config.bins = UtilizationBins::new(0.0, 1.0, 4);
            config.workers = 2;
            let batch = run_pool_sweep(&config, &analysis_evaluators());
            let scalar = run_pool_sweep(&config, &analysis_evaluators_scalar());
            assert_eq!(batch.result, scalar.result, "{}", figure.id);
            assert_eq!(batch.exhausted_units, scalar.exhausted_units);
        }
    }

    /// A strict subset of analysis series still takes the batch path and
    /// matches the scalar tests.
    #[test]
    fn partial_analysis_suite_matches_scalar() {
        let config = tiny_config(2);
        let batch = run_pool_sweep(
            &config,
            &[Evaluator::analysis(AnalysisSeries::Gn2), Evaluator::analysis(AnalysisSeries::Dp)],
        );
        let scalar = run_pool_sweep(
            &config,
            &[
                Evaluator::from_test(fpga_rt_analysis::Gn2Test::default()),
                Evaluator::from_test(DpTest::default()),
            ],
        );
        assert_eq!(batch.result, scalar.result);
    }

    #[test]
    fn sweep_shape_is_sane() {
        let r = run_pool_sweep(&tiny_config(2), &analysis_evaluators()).result;
        assert_eq!(r.workload_id, "fig3a");
        assert_eq!(r.series.len(), 4);
        for s in &r.series {
            assert_eq!(s.points.len(), 5);
            for p in &s.points {
                assert!(p.samples <= 8);
                assert!(p.accepted <= p.samples);
            }
        }
        // Acceptance at the lowest utilization must be at least as high as
        // at the highest (weak monotonicity over a coarse grid).
        let dp = r.series_named("DP").unwrap();
        assert!(dp.points[0].ratio() >= dp.points[4].ratio());
    }

    #[test]
    fn anyof_series_dominates_components() {
        let out = run_pool_sweep(&tiny_config(0), &analysis_evaluators());
        let any = out.result.series_named("AnyOf").unwrap();
        for name in ["DP", "GN1", "GN2"] {
            let s = out.result.series_named(name).unwrap();
            for (p, q) in s.points.iter().zip(&any.points) {
                assert!(q.accepted >= p.accepted, "{name} exceeds AnyOf in a bin");
            }
        }
    }

    #[test]
    fn panicking_evaluator_is_contained_per_unit() {
        let evals = vec![Evaluator::new("boom", |ts, _| {
            if ts.len() == 4 {
                panic!("taskset of 4 explodes");
            }
            true
        })];
        let out = run_pool_sweep(&tiny_config(2), &evals);
        // fig3a draws 4-task sets, so every generated unit panics; the
        // sweep still terminates with empty bins.
        assert!(out.failed_units > 0);
        let s = out.result.series_named("boom").unwrap();
        assert!(s.points.iter().all(|p| p.samples == 0));
    }
}
