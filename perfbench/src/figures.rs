//! `figures`: the paper-reproduction job as a stream of small requests.
//! Each request runs `run_pool_sweep` over Figures 3(a), 3(b), 4(a) and
//! 4(b), then `run_conform` on a smaller population of each, all at
//! `workers = 2`. A request's latency is its wall time, and its throughput
//! the tasksets it evaluated per second. The populations are small so that
//! a run holds well over 1000 requests, which p99 needs, and the requests
//! rotate through [`POPULATIONS`] seeded populations, so that a run's
//! figures describe many populations rather than one. Every request must
//! reproduce, curve for curve, a `workers = 1` run of its population, and
//! conformance must find no soundness violation.

use crate::stats::{median, nanos, quantile, ratio, require_samples, setup_median, RunResult};
use crate::trace::Tracer;
use crate::{mix_seed, peak_rss_mb, Params};
use fpga_rt_analysis::{BatchAnalyzer, NecessaryTest, SchedTest, ScratchSpace, TaskSetBatch};
use fpga_rt_conform::{paper_conform_evaluators, run_conform, ConformConfig, ConformReport};
use fpga_rt_exp::acceptance::{sample_seed, SweepResult};
use fpga_rt_exp::sweep::{analysis_evaluators, run_pool_sweep, PoolSweepConfig};
use fpga_rt_gen::{BinnedGenerator, FigureWorkload, UtilizationBins};
use fpga_rt_model::TaskSet;
use fpga_rt_sim::{simulate_f64, Horizon, SchedulerKind, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Worker threads of every job (the two cores the benchmark is sized for).
const WORKERS: usize = 2;
/// Sweep population: tasksets per bin over the paper's 20 bins.
const SWEEP_PER_BIN: usize = 5;
/// Conformance population: tasksets per bin over 2 bins, simulated over
/// the default horizon. With the sweep population above, conformance takes
/// about two thirds of a request.
const CONFORM_BINS: usize = 2;
const CONFORM_PER_BIN: usize = 1;
/// Seeded populations the requests rotate through.
const POPULATIONS: usize = 256;
/// Single-taskset sweeps timed for `setup_s`; the median is reported.
const SETUP_REPS: usize = 101;
/// Requests whose populations the traced run's layer probes replay.
const PROBE_REQUESTS: usize = 10;

/// Jobs per request: one sweep and one conformance run per figure.
const JOBS_PER_REQUEST: usize = 8;

fn figures() -> [FigureWorkload; 4] {
    [
        FigureWorkload::fig3a(),
        FigureWorkload::fig3b(),
        FigureWorkload::fig4a(),
        FigureWorkload::fig4b(),
    ]
}

fn sweep_config(fig: FigureWorkload, seed: u64, workers: usize) -> PoolSweepConfig {
    let mut config = PoolSweepConfig::new(fig, SWEEP_PER_BIN, seed);
    config.workers = workers;
    config
}

fn conform_config(fig: FigureWorkload, seed: u64, workers: usize) -> ConformConfig {
    let mut config = ConformConfig::new(fig, CONFORM_PER_BIN, seed);
    config.bins = UtilizationBins::new(0.0, 1.0, CONFORM_BINS);
    config.workers = workers;
    config
}

/// The outputs of one request, compared against the reference.
#[derive(Debug, Clone, PartialEq)]
struct Curves {
    sweeps: Vec<SweepResult>,
    conforms: Vec<ConformReport>,
}

/// One job's timing.
struct Job {
    conform: bool,
    start: Instant,
    end: Instant,
    tasksets: u64,
}

/// Run one request; `jobs` receives each call's timing. Returns the
/// curves and the engines' failed-unit count.
fn request(seed: u64, workers: usize, jobs: &mut Vec<Job>) -> (Curves, u64) {
    let mut curves = Curves { sweeps: Vec::new(), conforms: Vec::new() };
    let mut failed = 0;
    for fig in figures() {
        let start = Instant::now();
        let out = run_pool_sweep(&sweep_config(fig, seed, workers), &analysis_evaluators());
        let end = Instant::now();
        let tasksets =
            out.result.series.first().map_or(0, |s| s.points.iter().map(|p| p.samples).sum());
        jobs.push(Job { conform: false, start, end, tasksets: tasksets as u64 });
        failed += out.failed_units as u64;
        curves.sweeps.push(out.result);
    }
    for fig in figures() {
        let start = Instant::now();
        let out = run_conform(&conform_config(fig, seed, workers), paper_conform_evaluators());
        let end = Instant::now();
        let tasksets =
            out.report.series.first().map_or(0, |s| s.bins.iter().map(|b| b.samples).sum());
        jobs.push(Job { conform: true, start, end, tasksets: tasksets as u64 });
        failed += out.failed_units as u64;
        curves.conforms.push(out.report);
    }
    (curves, failed)
}

/// Requests until `budget` is spent (whole requests only).
struct Phase {
    jobs: Vec<Job>,
    elapsed: f64,
    /// Curves that differ from the reference, failed engine units and
    /// soundness violations.
    failed: u64,
}

impl Phase {
    /// Each request's jobs.
    fn requests(&self) -> std::slice::ChunksExact<'_, Job> {
        self.jobs.chunks_exact(JOBS_PER_REQUEST)
    }

    /// Each request's wall time (µs).
    fn latencies_us(&self) -> Vec<f64> {
        self.requests()
            .map(|r| nanos(r[JOBS_PER_REQUEST - 1].end - r[0].start) as f64 / 1e3)
            .collect()
    }

    /// Tasksets per second of each request (sweep and conformance jobs
    /// together), the median over requests.
    fn rate(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .requests()
            .map(|r| {
                let tasksets = r.iter().map(|j| j.tasksets).sum::<u64>() as f64;
                ratio(tasksets, (r[JOBS_PER_REQUEST - 1].end - r[0].start).as_secs_f64())
            })
            .collect();
        median(&mut rates)
    }

    /// Tasksets per second inside one engine's calls.
    fn tasksets_per_s(&self, conform: bool) -> f64 {
        let (n, t) =
            self.jobs.iter().filter(|j| j.conform == conform).fold((0.0, 0.0), |(n, t), j| {
                (n + j.tasksets as f64, t + (j.end - j.start).as_secs_f64())
            });
        ratio(n, t)
    }
}

/// Requests for `budget`, continuing the rotation at population `*next`.
fn measure(seeds: &[u64], references: &[Curves], next: &mut usize, budget: Duration) -> Phase {
    let mut phase = Phase { jobs: Vec::new(), elapsed: 0.0, failed: 0 };
    let start = Instant::now();
    while start.elapsed() < budget {
        let k = *next % seeds.len();
        *next += 1;
        let (curves, failed) = request(seeds[k], WORKERS, &mut phase.jobs);
        phase.failed += failed + mismatches(&curves, &references[k]);
        phase.failed += curves.conforms.iter().map(|r| r.total_violations as u64).sum::<u64>();
    }
    phase.elapsed = start.elapsed().as_secs_f64();
    phase
}

/// Curves (one per sweep or conformance job) that differ.
fn mismatches(a: &Curves, b: &Curves) -> u64 {
    let sweeps = a.sweeps.iter().zip(&b.sweeps).filter(|(x, y)| x != y).count();
    let conforms = a.conforms.iter().zip(&b.conforms).filter(|(x, y)| x != y).count();
    (sweeps + conforms) as u64
}

/// Run the figures workload.
pub fn run(params: &Params) -> Result<RunResult, String> {
    let mut tracer = Tracer::new(); // origin before every timestamp of the run
    let seed = mix_seed(params.seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let mut config = sweep_config(FigureWorkload::fig3b(), seed, WORKERS);
        config.per_bin = 1;
        config.bins = UtilizationBins::new(0.0, 1.0, 1);
        let start = Instant::now();
        let out = run_pool_sweep(&config, &analysis_evaluators());
        setups.push(start.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }

    // The oracle: every population on one worker.
    let seeds: Vec<u64> = (0..POPULATIONS as u64).map(|k| mix_seed(seed ^ k)).collect();
    let mut ref_failed = 0;
    let mut references: Vec<Curves> = seeds
        .iter()
        .map(|s| {
            let (curves, failed) = request(*s, 1, &mut Vec::new());
            ref_failed += failed;
            curves
        })
        .collect();
    if params.inject_fault {
        references[0].sweeps[0].series[0].points[0].accepted += 1;
    }

    let budget = Duration::from_secs_f64(params.seconds);
    let mut phases = Vec::new();
    let mut rss_mb = 0.0;
    let mut next = 0;
    let shares: &[f64] = if params.trace { &[0.5, 0.5] } else { &[1.0] };
    for share in shares {
        phases.push(measure(&seeds, &references, &mut next, budget.mul_f64(*share)));
        if phases.len() == 1 {
            rss_mb = peak_rss_mb(None)?;
        }
    }

    let mut result = RunResult { failed: ref_failed, ..RunResult::default() };
    for phase in &phases {
        result.attempted += phase.jobs.iter().map(|j| j.tasksets).sum::<u64>();
        result.failed += phase.failed;
    }
    let plain = &phases[0];
    eprintln!(
        "figures: {} requests, sweep {:.0} tasksets/s, conform {:.0} tasksets/s",
        phases.iter().map(|p| p.requests().len()).sum::<usize>(),
        plain.tasksets_per_s(false),
        plain.tasksets_per_s(true)
    );

    let ops_per_s = plain.rate();
    let m = &mut result.metrics;
    if !params.trace {
        let mut latency = plain.latencies_us();
        require_samples(params, latency.len(), &mut result.violations);
        m.set("setup_s", setup_median(params.workload, &mut setups));
        m.set("p50_us", quantile(&mut latency, 0.5));
        m.set("p99_us", quantile(&mut latency, 0.99));
        m.set("ops_per_s", ops_per_s);
        m.set("peak_rss_mb", rss_mb);
        return Ok(result);
    }

    let traced = &phases[1];
    for (i, chunk) in traced.requests().enumerate() {
        let root = tracer.record(
            i as u64,
            "request",
            tracer.at(chunk[0].start),
            tracer.at(chunk[JOBS_PER_REQUEST - 1].end),
            None,
        );
        for job in chunk {
            let layer = if job.conform { "conform.run_conform" } else { "sweep.run_pool_sweep" };
            tracer.record(i as u64, layer, tracer.at(job.start), tracer.at(job.end), Some(root));
        }
    }
    let path = tracer.write(params.workload, params.seed).map_err(|e| e.to_string())?;
    eprintln!("{} spans recorded, kept in {}", tracer.recorded(), path.display());
    m.set("trace.overhead", ratio(traced.rate(), ops_per_s));
    m.set("sweep.tasksets_per_s", traced.tasksets_per_s(false));
    m.set("conform.tasksets_per_s", traced.tasksets_per_s(true));
    // Coverage: a request's mean layer work, timed single-threaded by the
    // probes and split evenly over the workers, over the median request.
    let work_ns = layer_probes(&seeds[..PROBE_REQUESTS], m);
    let coverage = ratio(work_ns / WORKERS as f64 / 1e3, median(&mut traced.latencies_us()));
    m.set("trace.coverage", coverage);
    Ok(result)
}

/// Every taskset of a figure's population, as the engines draw them, and
/// the time the drawing took.
fn population(
    fig: FigureWorkload,
    bins: UtilizationBins,
    per_bin: usize,
    seed: u64,
) -> (Vec<TaskSet<f64>>, f64) {
    let generator =
        BinnedGenerator::new(fig.spec, fig.device_columns, bins).with_strategy(fig.strategy);
    let mut out = Vec::with_capacity(bins.n * per_bin);
    let start = Instant::now();
    for unit in 0..bins.n * per_bin {
        let mut rng = StdRng::seed_from_u64(sample_seed(seed, unit / per_bin, unit % per_bin));
        out.extend(generator.sample_in_bin(unit / per_bin, &mut rng));
    }
    (out, nanos(start.elapsed()) as f64)
}

/// Single-thread timings of the layers under the two engines on the
/// populations of requests seeded `seeds`: `gen`, the batch kernel, and the
/// simulator under each targeted scheduler. Returns the mean layer work of
/// one request (ns).
fn layer_probes(seeds: &[u64], m: &mut crate::stats::Metrics) -> f64 {
    let (mut gen_ns, mut sweep_n, mut batch_ns) = (0.0, 0.0, 0.0);
    let (mut fkf, mut nf, mut other, mut conform_n) = (0.0, 0.0, 0.0, 0.0);
    let mut batch = TaskSetBatch::new();
    let mut verdicts = Vec::new();
    let mut scratch = ScratchSpace::new();
    let horizon = Horizon::PeriodsOfTmax(conform_config(FigureWorkload::fig3a(), 0, 1).sim_horizon);
    for &seed in seeds {
        for fig in figures() {
            let (sets, ns) = population(fig, UtilizationBins::paper_default(), SWEEP_PER_BIN, seed);
            gen_ns += ns;
            sweep_n += sets.len() as f64;
            let device = fig.device();
            let start = Instant::now();
            for block in sets.chunks(fpga_rt_exp::sweep::BATCH_SAMPLES) {
                batch.clear();
                for ts in block {
                    batch.push(ts);
                }
                BatchAnalyzer::new().analyze_batch(&batch, &device, &mut verdicts);
                std::hint::black_box(&verdicts);
            }
            batch_ns += nanos(start.elapsed()) as f64;

            let bins = UtilizationBins::new(0.0, 1.0, CONFORM_BINS);
            let (sets, _) = population(fig, bins, CONFORM_PER_BIN, seed);
            for ts in &sets {
                let start = Instant::now();
                std::hint::black_box(NecessaryTest.is_schedulable(ts, &device));
                std::hint::black_box(BatchAnalyzer::new().analyze(ts, &device, &mut scratch));
                other += nanos(start.elapsed()) as f64;
                for (kind, total) in
                    [(SchedulerKind::EdfFkf, &mut fkf), (SchedulerKind::EdfNf, &mut nf)]
                {
                    let config = SimConfig::default().with_scheduler(kind).with_horizon(horizon);
                    let start = Instant::now();
                    std::hint::black_box(
                        simulate_f64(ts, &device, &config).map(|o| o.schedulable()).ok(),
                    );
                    *total += nanos(start.elapsed()) as f64;
                }
                conform_n += 1.0;
            }
        }
    }
    m.set("gen.ns_per_taskset", ratio(gen_ns, sweep_n));
    m.set("analysis.batch_ns_per_taskset", ratio(batch_ns, sweep_n));
    m.set("sim.ns_per_taskset.fkf", ratio(fkf, conform_n));
    m.set("sim.ns_per_taskset.nf", ratio(nf, conform_n));
    m.set("conform.sim_share", ratio(fkf + nf, fkf + nf + other));
    ratio(gen_ns + batch_ns + fkf + nf + other, seeds.len() as f64)
}
