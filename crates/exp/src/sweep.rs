//! The sweep engine: acceptance-ratio curves over the workspace-wide
//! deterministic worker pool ([`fpga_rt_pool::ShardedPool`]).
//!
//! * **Scale** — the paper's figures use a handful of ~10 000-taskset
//!   experiment groups; a pool sweep makes 10–100× larger populations (the
//!   scale argued for by Goossens & Meumeu Yomsi's exact global-EDF work
//!   and Singh's EDF complexity-reduction results) a single function call,
//!   batched so memory stays flat.
//! * **Determinism by construction** — every sample draws its taskset from
//!   [`crate::acceptance::sample_seed`]`(seed, bin, sample)`, so curves are
//!   byte-identical across worker counts (asserted by tests and diffed in
//!   CI).
//! * **Containment** — a panicking evaluator poisons one work unit
//!   (counted in [`PoolSweepOutcome::failed_units`]), not the whole sweep.
//!
//! ## Kernels
//!
//! When every evaluator is analysis-kind ([`Evaluator::analysis`] — the
//! [`analysis_evaluators`] suite), the engine takes the **batch path**: a
//! work unit is a [`BATCH_SAMPLES`]-sample block, each worker packs its
//! block into a per-worker [`TaskSetBatch`] (structure-of-arrays columns,
//! λ candidates pre-sorted at pack time, held in `fpga-rt-pool` shard
//! state) and one [`BatchAnalyzer`] pass produces all four verdicts with
//! zero per-taskset heap allocation. Any custom evaluator in the list
//! falls back to the per-sample closure ("scalar") path (with a per-worker
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
use fpga_rt_gen::{BinnedGenerator, BinningStrategy, FigureWorkload, UtilizationBins};
use fpga_rt_obs::Obs;
use fpga_rt_pool::{PoolConfig, ShardedPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Samples per batch-path work unit: large enough to amortize pool
/// messaging and keep the SoA columns cache-resident, small enough that a
/// contained panic loses little. Fixed (never derived from `workers` or
/// `chunk`) so the unit decomposition — and therefore every artifact — is
/// invariant in both.
pub const BATCH_SAMPLES: usize = 64;

/// Configuration of a pool-backed sweep.
#[derive(Debug, Clone)]
pub struct PoolSweepConfig {
    /// Which figure workload to draw from.
    pub workload: FigureWorkload,
    /// Utilization bins (x-axis).
    pub bins: UtilizationBins,
    /// Tasksets per bin.
    pub per_bin: usize,
    /// Base RNG seed; every (bin, sample) derives its own stream via
    /// [`sample_seed`].
    pub seed: u64,
    /// Bin-filling strategy.
    pub strategy: BinningStrategy,
    /// Pool worker threads (0 = all available). The curves do not depend
    /// on this value.
    pub workers: usize,
    /// Work units submitted per pool batch (bounds peak memory; the curves
    /// do not depend on this value).
    pub chunk: usize,
    /// Telemetry handle. When enabled, workers record per-kernel
    /// pack/evaluate span histograms (`sweep/batch/pack_ns`,
    /// `sweep/batch/evaluate_ns`, `sweep/scalar/evaluate_ns`) and the
    /// tally adds per-bin/per-figure throughput counters. [`Obs::off`]
    /// (the [`PoolSweepConfig::new`] default) makes all of it a no-op; the
    /// curves never depend on this handle.
    pub obs: Obs,
}

impl PoolSweepConfig {
    /// Defaults for a workload: paper bins, the workload's strategy, all
    /// cores, 4096-unit batches.
    pub fn new(workload: FigureWorkload, per_bin: usize, seed: u64) -> Self {
        PoolSweepConfig {
            workload,
            bins: UtilizationBins::paper_default(),
            per_bin,
            seed,
            strategy: workload.strategy,
            workers: 0,
            chunk: 4096,
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

/// Read-only context shared by every pool worker.
struct SweepContext {
    generator: BinnedGenerator,
    device: fpga_rt_model::Fpga,
    per_bin: usize,
    seed: u64,
}

impl SweepContext {
    fn new(config: &PoolSweepConfig) -> Self {
        SweepContext {
            generator: BinnedGenerator::new(
                config.workload.spec,
                config.workload.device_columns,
                config.bins,
            )
            .with_strategy(config.strategy),
            device: config.workload.device(),
            per_bin: config.per_bin,
            seed: config.seed,
        }
    }

    /// Draw the taskset of global sample index `unit`.
    fn sample(&self, unit: usize) -> Option<fpga_rt_model::TaskSet<f64>> {
        let bin = unit / self.per_bin;
        let sample = unit % self.per_bin;
        let mut rng = StdRng::seed_from_u64(sample_seed(self.seed, bin, sample));
        self.generator.sample_in_bin(bin, &mut rng)
    }
}

/// Per-sample verdicts on the scalar path: which evaluators accepted the
/// sampled taskset, or `None` when the generator could not fill the bin
/// for this sample.
type UnitVerdicts = Option<Vec<bool>>;

/// Per-sample verdicts on the batch path, packed: evaluator index `e` is
/// bit `e` — the dispatch guard caps batch-path evaluator lists at 8, far
/// above the 4 analytic series.
type SampleMask = Option<u8>;

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

/// Run a sweep over the shared worker pool. Deterministic for a given
/// `config` and evaluator list — independent of `workers` and `chunk`,
/// and independent of whether the batch or the scalar path evaluates the
/// analytic series.
pub fn run_pool_sweep(config: &PoolSweepConfig, evaluators: &[Evaluator]) -> PoolSweepOutcome {
    let all_analysis: Option<Vec<AnalysisSeries>> =
        evaluators.iter().map(Evaluator::analysis_series).collect();
    match all_analysis {
        Some(series) if !series.is_empty() && series.len() <= 8 => {
            run_batched_sweep(config, evaluators, series)
        }
        _ => run_scalar_sweep(config, evaluators),
    }
}

/// The per-sample path: each unit draws one taskset and runs every
/// evaluator on it (analysis-kind members still use the kernel through the
/// worker's scratch buffer).
fn run_scalar_sweep(config: &PoolSweepConfig, evaluators: &[Evaluator]) -> PoolSweepOutcome {
    let context = Arc::new(SweepContext::new(config));
    let evaluators_arc: Arc<[Evaluator]> = evaluators.into();

    // Stateless work: shard only spreads units across workers. 256 shards
    // keep any worker count ≤ 256 evenly loaded while staying cheap.
    let shards = 256u32;
    let mut pool: ShardedPool<usize, UnitVerdicts> = ShardedPool::new(
        PoolConfig { workers: config.workers, shards },
        |_shard| ScratchSpace::new(),
        {
            let context = Arc::clone(&context);
            let evaluators = Arc::clone(&evaluators_arc);
            let obs = config.obs.clone();
            move |scratch, _shard, unit| {
                context.sample(unit).map(|ts| {
                    let span = obs.span();
                    let verdicts: Vec<bool> = evaluators
                        .iter()
                        .map(|ev| ev.accepts_with(&ts, &context.device, scratch))
                        .collect();
                    obs.record_ns("sweep/scalar/evaluate_ns", span.elapsed_ns());
                    verdicts
                })
            }
        },
    );
    let workers = pool.workers();

    let n_bins = config.bins.n;
    let mut tally = SweepTally::new(n_bins, evaluators.len());
    let total_units = n_bins * config.per_bin;
    let chunk = config.chunk.max(1);
    let mut unit = 0usize;
    while unit < total_units {
        let upper = (unit + chunk).min(total_units);
        for u in unit..upper {
            pool.submit((u % shards as usize) as u32, u);
        }
        let results = pool.collect().expect("pool workers cannot die: panics are contained");
        for (offset, result) in results.into_iter().enumerate() {
            let bin = (unit + offset) / config.per_bin;
            match result {
                Ok(Some(verdicts)) => tally.record_bools(bin, &verdicts),
                Ok(None) => tally.exhausted += 1,
                Err(_) => tally.failed += 1,
            }
        }
        unit = upper;
    }

    tally.into_outcome(config, evaluators, workers)
}

/// The batch path: each unit is a [`BATCH_SAMPLES`]-sample block packed
/// into the worker's structure-of-arrays [`TaskSetBatch`] and evaluated in
/// one [`BatchAnalyzer`] pass.
fn run_batched_sweep(
    config: &PoolSweepConfig,
    evaluators: &[Evaluator],
    series: Vec<AnalysisSeries>,
) -> PoolSweepOutcome {
    /// Per-worker reusable buffers, built by the pool's shard-state
    /// factory: the pack buffer and the verdict store reach a steady state
    /// with zero per-taskset heap allocation.
    #[derive(Default)]
    struct BlockScratch {
        batch: TaskSetBatch,
        verdicts: Vec<BatchVerdicts>,
    }

    let context = Arc::new(SweepContext::new(config));
    let n_bins = config.bins.n;
    let total_units = n_bins * config.per_bin;
    let series: Arc<[AnalysisSeries]> = series.into();

    let shards = 256u32;
    let mut pool: ShardedPool<usize, Vec<SampleMask>> = ShardedPool::new(
        PoolConfig { workers: config.workers, shards },
        |_shard| BlockScratch::default(),
        {
            let context = Arc::clone(&context);
            let series = Arc::clone(&series);
            let obs = config.obs.clone();
            move |scratch: &mut BlockScratch, _shard, block: usize| {
                let start = block * BATCH_SAMPLES;
                let end = (start + BATCH_SAMPLES).min(total_units);
                let mut out: Vec<SampleMask> = Vec::with_capacity(end - start);
                let pack_span = obs.span();
                scratch.batch.clear();
                for unit in start..end {
                    match context.sample(unit) {
                        Some(ts) => {
                            scratch.batch.push(&ts);
                            out.push(Some(0));
                        }
                        None => out.push(None),
                    }
                }
                obs.record_ns("sweep/batch/pack_ns", pack_span.elapsed_ns());
                let evaluate_span = obs.span();
                BatchAnalyzer::new().analyze_batch(
                    &scratch.batch,
                    &context.device,
                    &mut scratch.verdicts,
                );
                obs.record_ns("sweep/batch/evaluate_ns", evaluate_span.elapsed_ns());
                let mut packed = scratch.verdicts.iter();
                for slot in out.iter_mut().filter(|s| s.is_some()) {
                    let verdicts = packed.next().expect("one verdict set per packed taskset");
                    let mut mask = 0u8;
                    for (e, &s) in series.iter().enumerate() {
                        if verdicts.series(s).accepted {
                            mask |= mask_bit(e);
                        }
                    }
                    *slot = Some(mask);
                }
                out
            }
        },
    );
    let workers = pool.workers();

    let mut tally = SweepTally::new(n_bins, evaluators.len());
    let total_blocks = total_units.div_ceil(BATCH_SAMPLES);
    let blocks_per_chunk = config.chunk.max(1).div_ceil(BATCH_SAMPLES);
    let mut block = 0usize;
    while block < total_blocks {
        let upper = (block + blocks_per_chunk).min(total_blocks);
        for b in block..upper {
            pool.submit((b % shards as usize) as u32, b);
        }
        let results = pool.collect().expect("pool workers cannot die: panics are contained");
        for (offset, result) in results.into_iter().enumerate() {
            let b = block + offset;
            let start = b * BATCH_SAMPLES;
            let end = (start + BATCH_SAMPLES).min(total_units);
            match result {
                Ok(masks) => {
                    debug_assert_eq!(masks.len(), end - start);
                    for (unit, mask) in (start..end).zip(masks) {
                        match mask {
                            Some(mask) => tally.record(unit / config.per_bin, mask),
                            None => tally.exhausted += 1,
                        }
                    }
                }
                // A contained panic poisons the whole block; the kernel
                // itself is panic-free on validated tasksets, so this only
                // fires on generator bugs.
                Err(_) => tally.failed += end - start,
            }
        }
        block = upper;
    }

    tally.into_outcome(config, evaluators, workers)
}

/// Bit of evaluator `e` in a [`SampleMask`].
fn mask_bit(e: usize) -> u8 {
    1u8 << e
}

/// Accumulated per-bin per-evaluator counts; summation is
/// order-independent, and results arrive in submission order anyway.
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

    fn record(&mut self, bin: usize, mask: u8) {
        for (e, cell) in self.counts[bin].iter_mut().enumerate() {
            cell.0 += 1;
            if mask & mask_bit(e) != 0 {
                cell.1 += 1;
            }
        }
    }

    fn record_bools(&mut self, bin: usize, verdicts: &[bool]) {
        for (cell, &ok) in self.counts[bin].iter_mut().zip(verdicts) {
            cell.0 += 1;
            if ok {
                cell.1 += 1;
            }
        }
    }

    fn into_outcome(
        self,
        config: &PoolSweepConfig,
        evaluators: &[Evaluator],
        workers: usize,
    ) -> PoolSweepOutcome {
        if config.obs.enabled() {
            // Per-bin/per-figure throughput counters, accumulated on the
            // driving thread so they are deterministic by construction.
            let obs = &config.obs;
            let mut figure_samples = 0u64;
            for (bin, cells) in self.counts.iter().enumerate() {
                // Every evaluator sees every sample of the bin.
                let samples = cells.first().map(|c| c.0 as u64).unwrap_or(0);
                obs.add(&format!("sweep/bin{bin:02}/samples"), samples);
                figure_samples += samples;
            }
            obs.add(&format!("sweep/figure/{}/samples", config.workload.id), figure_samples);
            obs.add("sweep/exhausted_units", self.exhausted as u64);
            obs.add("sweep/failed_units", self.failed as u64);
        }
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

    #[test]
    fn pool_sweep_is_worker_count_and_chunk_invariant() {
        let reference = run_pool_sweep(&tiny_config(1), &analysis_evaluators());
        for workers in [2, 4, 8] {
            let mut config = tiny_config(workers);
            config.chunk = 7;
            let out = run_pool_sweep(&config, &analysis_evaluators());
            assert_eq!(out.result, reference.result, "workers={workers}");
            assert_eq!(out.exhausted_units, reference.exhausted_units);
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
