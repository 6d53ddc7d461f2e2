//! The seven studies behind `fpga-rt study <name>`: the paper's figures,
//! the configuration ablations (X1–X3, derived in `docs/THEORY.md`) and
//! the extension studies (X5–X7, X10, X11).
//!
//! Every study except `twod` is an evaluator list swept over a figure
//! workload by [`run_pool_sweep`], so its tables are byte-identical for
//! any worker count. `twod` draws 2-D tasksets, which the figure
//! generators cannot, and fans their evaluation out on the same worker
//! pool.
//!
//! ```
//! use fpga_rt_exp::study::{Study, StudyConfig};
//! use fpga_rt_gen::FigureWorkload;
//!
//! let mut config = StudyConfig::new(Study::Ablations, 7);
//! config.figures = vec![FigureWorkload::fig3a()];
//! config.per_bin = 2;
//! let text = Study::Ablations.run(&config);
//! assert!(text.contains("== X2-gn2-lambda-search"));
//! ```

use crate::acceptance::{
    standard_evaluators, AcceptanceSeries, Evaluator, SeriesPoint, SweepResult,
};
use crate::output::render_text;
use crate::sweep::{run_pool_sweep, PoolSweepConfig};
use core::fmt::Write as _;
use fpga_rt_2d::{
    project_to_columns, simulate_2d, Device2D, Scheduler2D, Sim2DConfig, TaskSet2D, TasksetSpec2D,
};
use fpga_rt_analysis::{AnyOfTest, DpTest, Gn1Test, Gn2Test, SchedTest};
use fpga_rt_gen::FigureWorkload;
use fpga_rt_model::TaskSet;
use fpga_rt_pool::{PoolConfig, ShardedPool};
use fpga_rt_sim::{
    partition_taskset, simulate_f64, FitStrategy, Horizon, PlacementPolicy, ReconfigOverhead,
    ReleaseModel, SchedulerKind, SimConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One of the studies `fpga-rt study <name>` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Study {
    /// Figures 3(a)–4(b): DP, GN1, GN2 and EDF-NF/FkF simulation.
    Figures,
    /// X1–X3: each test's paper configuration against its variant.
    Ablations,
    /// X5: free migration against contiguous first/best/worst-fit placement.
    Placement,
    /// X6: per-column reconfiguration overhead, simulated and folded into C.
    Overhead,
    /// X7: global EDF-NF against first-fit-decreasing partitioned EDF.
    Partitioned,
    /// X11: synchronous release against random offsets and sporadic arrivals.
    Release,
    /// X10: native 2-D simulation against the column-projection bridge.
    Twod,
}

impl Study {
    /// Every study, in the order `fpga-rt help` lists them.
    pub const ALL: [Study; 7] = [
        Study::Figures,
        Study::Ablations,
        Study::Placement,
        Study::Overhead,
        Study::Partitioned,
        Study::Release,
        Study::Twod,
    ];

    /// The CLI name (`"figures"`, `"ablations"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Study::Figures => "figures",
            Study::Ablations => "ablations",
            Study::Placement => "placement",
            Study::Overhead => "overhead",
            Study::Partitioned => "partitioned",
            Study::Release => "release",
            Study::Twod => "twod",
        }
    }

    /// Look a study up by its CLI name.
    pub fn by_name(name: &str) -> Option<Study> {
        Study::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Run the study and render its report: one heading and aligned
    /// acceptance table per figure (per ablation for `ablations`), then the
    /// study's reading note.
    pub fn run(self, config: &StudyConfig) -> String {
        let mut out = match self {
            Study::Twod => {
                let device = twod_device();
                format!(
                    "2-D study on {device}: native simulation vs column projection\n{}\n",
                    render_text(&twod_sweep(config, &device))
                )
            }
            _ => config.figures.iter().map(|&w| self.figure_section(w, config)).collect(),
        };
        out.push_str(self.note());
        out
    }

    fn figure_section(self, workload: FigureWorkload, config: &StudyConfig) -> String {
        let h = config.sim_horizon;
        let id = workload.id;
        let table = |evaluators: Vec<Evaluator>| sweep_table(config, workload, &evaluators);
        match self {
            Study::Figures => format!(
                "{}  ({} tasksets/bin, seed {})\n\n",
                table(standard_evaluators(h)),
                config.per_bin,
                config.seed
            ),
            Study::Ablations => all_ablations()
                .into_iter()
                .map(|a| format!("== {} — {}\n{}\n", a.id, a.description, table(a.evaluators)))
                .collect(),
            Study::Placement => format!(
                "Placement study on {id} (EDF-NF, sim acceptance):\n{}\n",
                table(placement_evaluators(h))
            ),
            Study::Overhead => format!(
                "Overhead sensitivity on {id} (per-column reconfiguration cost):\n{}\n",
                table(overhead_evaluators(h))
            ),
            Study::Partitioned => {
                format!(
                    "Global vs partitioned EDF on {id}:\n{}\n",
                    table(partitioned_evaluators(h))
                )
            }
            Study::Release => format!(
                "Release-pattern sensitivity on {id} (EDF-NF):\n{}\n",
                table(release_evaluators(h))
            ),
            Study::Twod => unreachable!("twod draws 2-D tasksets, not figure workloads"),
        }
    }

    /// How to read the study's tables, printed once after them.
    fn note(self) -> &'static str {
        match self {
            Study::Figures | Study::Ablations | Study::Overhead => "",
            Study::Placement => {
                "Free migration is the paper's assumption; contiguous placement can only\n\
                 lose acceptance (fragmentation). The gap quantifies the assumption's cost.\n"
            }
            Study::Partitioned => {
                "P-EDF/alloc is the density-based allocation test; P-EDF/sim confirms the\n\
                 plan by simulation (alloc acceptance should imply sim acceptance).\n"
            }
            Study::Release => {
                "OFFS×k ≤ SYNC quantifies how optimistic the paper's offsets-0 upper bound\n\
                 is; the gap is the fraction of tasksets whose schedulability verdict\n\
                 depends on release phasing.\n"
            }
            Study::Twod => {
                "PROJ-ANY ≤ PROJ-SIM ≤ 2D-SIM-NF by construction; the PROJ→2D gap is the\n\
                 price of the full-height reservation, the ANY→PROJ-SIM gap is test pessimism.\n"
            }
        }
    }
}

/// Population and simulation settings of one study run.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Figure workloads, one table each, in order. `twod` ignores them.
    pub figures: Vec<FigureWorkload>,
    /// Tasksets per utilization bin.
    pub per_bin: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Pool worker threads (0 = all available). The tables do not depend
    /// on this value.
    pub workers: usize,
    /// Simulation horizon in multiples of the largest period.
    pub sim_horizon: f64,
}

impl StudyConfig {
    /// The study's defaults: every figure at 500 tasksets per bin for
    /// `figures` (≈ the paper's 10 000 per figure over 20 bins), 300 2-D
    /// tasksets per bin at a 100·Tmax horizon for `twod`, and fig3b at 200
    /// per bin for the rest. Simulations run 50·Tmax unless noted.
    pub fn new(study: Study, seed: u64) -> Self {
        let (figures, per_bin, sim_horizon) = match study {
            Study::Figures => (FigureWorkload::all(), 500, 50.0),
            Study::Twod => (Vec::new(), 300, 100.0),
            _ => (vec![FigureWorkload::fig3b()], 200, 50.0),
        };
        StudyConfig { figures, per_bin, seed, workers: 0, sim_horizon }
    }
}

/// Sweep one evaluator list over a figure workload's paper bins and
/// render the table.
fn sweep_table(config: &StudyConfig, workload: FigureWorkload, evaluators: &[Evaluator]) -> String {
    let mut sweep = PoolSweepConfig::new(workload, config.per_bin, config.seed);
    sweep.workers = config.workers;
    let outcome = run_pool_sweep(&sweep, evaluators);
    let mut text = render_text(&outcome.result);
    if outcome.failed_units > 0 {
        let _ = writeln!(
            text,
            "warning: {} samples lost to panicking evaluators",
            outcome.failed_units
        );
    }
    text
}

/// One configuration ablation: a name plus the pair of evaluators to
/// contrast on the same tasksets.
struct Ablation {
    /// Stable id (`"X1-gn1-denominator"`, ...).
    id: &'static str,
    /// What is being contrasted.
    description: &'static str,
    /// The paper configuration, then the variant.
    evaluators: Vec<Evaluator>,
}

/// The three configuration ablations:
///
/// * **X1** — GN1's β denominator: the paper's `Wi/Di` vs BCL's `Wi/Dk`.
/// * **X2** — GN2's λ search: the paper's discontinuity points vs a dense
///   grid (the grid strictly enlarges the acceptance region whenever
///   `Abnd < Amin`, e.g. Table 1).
/// * **X3** — DP's area bound: the paper's integer `A(H) − Amax + 1` vs
///   Danne & Platzner's real-valued `A(H) − Amax`.
fn all_ablations() -> Vec<Ablation> {
    vec![
        Ablation {
            id: "X1-gn1-denominator",
            description: "GN1 β denominator: paper Wi/Di vs BCL-faithful Wi/Dk",
            evaluators: vec![
                Evaluator::from_test(Gn1Test::default()),
                Evaluator::from_test(Gn1Test::bcl_faithful()),
            ],
        },
        Ablation {
            id: "X2-gn2-lambda-search",
            description: "GN2 λ candidates: paper points vs dense grid (64 pts)",
            evaluators: vec![
                Evaluator::from_test(Gn2Test::default()),
                Evaluator::from_test(Gn2Test::with_grid_search(64)),
            ],
        },
        Ablation {
            id: "X3-dp-area-bound",
            description: "DP area bound: integer A(H)−Amax+1 vs real A(H)−Amax",
            evaluators: vec![
                Evaluator::from_test(DpTest::default()),
                Evaluator::from_test(DpTest::original_danne()),
            ],
        },
    ]
}

/// EDF-NF simulation at `horizon` periods of Tmax, synchronous release.
fn nf_sim(horizon: f64) -> SimConfig {
    SimConfig::default()
        .with_scheduler(SchedulerKind::EdfNf)
        .with_horizon(Horizon::PeriodsOfTmax(horizon))
}

/// X5 — the paper's future-work question: how much schedulability is lost
/// when jobs need contiguous columns chosen without defragmentation.
fn placement_evaluators(horizon: f64) -> Vec<Evaluator> {
    let contiguous = |name: &str, fit| {
        Evaluator::from_sim_config(
            name,
            nf_sim(horizon).with_placement(PlacementPolicy::Contiguous(fit)),
        )
    };
    vec![
        Evaluator::from_sim_config("NF/free-mig", nf_sim(horizon)),
        contiguous("NF/first-fit", FitStrategy::FirstFit),
        contiguous("NF/best-fit", FitStrategy::BestFit),
        contiguous("NF/worst-fit", FitStrategy::WorstFit),
    ]
}

/// X6 — the paper's assumption 3 puts reconfiguration overhead "in the
/// range of milliseconds ... proportional to the size of area
/// reconfigured" and suggests folding it into execution times. Each
/// per-column cost gets a simulation (`SIM@`) and the paper's recipe
/// (`ANY@`): inflate every C by the task's own reconfiguration cost and
/// run the composite test.
fn overhead_evaluators(horizon: f64) -> Vec<Evaluator> {
    // Time units per column: at 0.002 a 100-column full reconfiguration
    // costs 0.2, small against periods of 5–20.
    [0.0, 0.001, 0.002, 0.005, 0.01]
        .into_iter()
        .flat_map(|oh: f64| {
            let sim = nf_sim(horizon).with_overhead(ReconfigOverhead::PerColumn(oh));
            let inflated = Evaluator::new(format!("ANY@{oh}"), move |ts, dev| {
                let tasks: Result<Vec<_>, _> = ts
                    .iter()
                    .map(|(_, t)| t.with_exec_inflated(oh * f64::from(t.area())))
                    .collect();
                match tasks.and_then(TaskSet::new) {
                    Ok(inflated) => AnyOfTest::paper_suite().is_schedulable(&inflated, dev),
                    Err(_) => false,
                }
            });
            [Evaluator::from_sim_config(format!("SIM@{oh}"), sim), inflated]
        })
        .collect()
}

/// X7 — Danne & Platzner's companion approach (the paper's reference
/// \[10\]): the first-fit-decreasing partitioned allocator and its
/// simulation against global EDF-NF.
fn partitioned_evaluators(horizon: f64) -> Vec<Evaluator> {
    vec![
        Evaluator::from_sim(SchedulerKind::EdfNf, horizon),
        Evaluator::new("P-EDF/alloc", |ts, dev| partition_taskset(ts, dev).is_ok()),
        Evaluator::new("P-EDF/sim", move |ts, dev| {
            // An allocation failure is a rejection: the scheduler cannot
            // even start.
            partition_taskset(ts, dev).is_ok_and(|plan| {
                let cfg = SimConfig::default()
                    .with_scheduler(SchedulerKind::Partitioned(plan))
                    .with_horizon(Horizon::PeriodsOfTmax(horizon));
                simulate_f64(ts, dev, &cfg).is_ok_and(|o| o.schedulable())
            })
        }),
    ]
}

/// Random offset assignments `OFFS×k` must all run clean.
const OFFSET_RUNS: u64 = 5;

/// X11 — how coarse is the paper's "coarse upper bound"? The paper
/// simulates only the synchronous pattern (`SYNC`); exact schedulability
/// needs every offset. `OFFS×k` accepts only if k random offset
/// assignments all run clean (a strictly better upper bound), and
/// `SPOR(0.3)` draws sporadic arrivals with 30% jitter (sparser arrivals,
/// so acceptance should not drop below `SYNC` on average).
fn release_evaluators(horizon: f64) -> Vec<Evaluator> {
    let base = nf_sim(horizon);
    vec![
        Evaluator::from_sim_config("SYNC", base.clone()),
        Evaluator::new(format!("OFFS×{OFFSET_RUNS}"), {
            let base = base.clone();
            move |ts, dev| {
                (0..OFFSET_RUNS).all(|i| {
                    let cfg = base
                        .clone()
                        .with_release(ReleaseModel::RandomOffsets { seed: 0xC0FFEE + i });
                    simulate_f64(ts, dev, &cfg).is_ok_and(|o| o.schedulable())
                })
            }
        }),
        Evaluator::from_sim_config(
            "SPOR(0.3)",
            base.with_release(ReleaseModel::Sporadic { jitter: 0.3, seed: 0xC0FFEE }),
        ),
    ]
}

/// The X10 device: 16 columns × 8 rows of CLBs.
fn twod_device() -> Device2D {
    Device2D::new(16, 8).expect("non-zero dimensions")
}

/// Utilization bins of the X10 study, over CLB·time per device cell.
const TWOD_BINS: usize = 10;

/// The X10 series, in [`twod_verdicts`] order.
const TWOD_SERIES: [&str; 4] = ["2D-SIM-NF", "2D-SIM-FkF", "PROJ-ANY", "PROJ-SIM"];

/// X10 — the paper's §7 future work: native 2-D EDF-NF/FkF simulation
/// (`2D-SIM-*`), DP∪GN1∪GN2 on the full-height column projection
/// (`PROJ-ANY`, sound but pessimistic), and 1-D EDF-NF simulation of the
/// projection (`PROJ-SIM`, the cost of the projection alone).
///
/// One seeded stream is rejection-sampled into the bins until each holds
/// `per_bin` 6-task sets (or the attempt budget runs out). Which draws are
/// kept depends only on the bin counts, so drawing stays sequential while
/// the evaluation fans out over the worker pool.
fn twod_sweep(config: &StudyConfig, device: &Device2D) -> SweepResult {
    let spec = TasksetSpec2D {
        n_tasks: 6,
        period_range: (5.0, 20.0),
        exec_factor_range: (0.0, 1.0),
        w_range: (2, 12),
        h_range: (1, 6),
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut samples = [0usize; TWOD_BINS];
    let mut draws: Vec<(usize, TaskSet2D<f64>)> = Vec::new();
    let mut attempts = 0usize;
    while samples.iter().any(|&n| n < config.per_bin) && attempts < config.per_bin * TWOD_BINS * 200
    {
        attempts += 1;
        let ts = spec.generate(&mut rng);
        let u = ts.system_utilization() / f64::from(device.cells());
        let bin = (u * TWOD_BINS as f64) as usize;
        if u >= 1.0 || samples[bin] >= config.per_bin {
            continue;
        }
        samples[bin] += 1;
        draws.push((bin, ts));
    }

    let draws: Arc<[(usize, TaskSet2D<f64>)]> = draws.into();
    let shards = 256u32;
    let mut pool: ShardedPool<usize, [bool; 4]> =
        ShardedPool::new(PoolConfig { workers: config.workers, shards }, |_shard| (), {
            let draws = Arc::clone(&draws);
            let (device, horizon) = (*device, config.sim_horizon);
            move |(), _shard, i: usize| twod_verdicts(&draws[i].1, &device, horizon)
        });
    for i in 0..draws.len() {
        pool.submit((i % shards as usize) as u32, i);
    }
    let verdicts = pool.collect().expect("pool workers cannot die: panics are contained");
    let mut accepted = [[0usize; 4]; TWOD_BINS];
    for ((bin, _), verdict) in draws.iter().zip(verdicts) {
        let verdict = verdict.expect("2-D evaluation of a generated taskset");
        for (count, ok) in accepted[*bin].iter_mut().zip(verdict) {
            *count += usize::from(ok);
        }
    }

    SweepResult {
        workload_id: "twod".to_string(),
        caption: format!("{} tasks on {device}, binned by CLB·time per device cell", spec.n_tasks),
        series: TWOD_SERIES
            .iter()
            .enumerate()
            .map(|(e, name)| AcceptanceSeries {
                name: name.to_string(),
                points: (0..TWOD_BINS)
                    .map(|b| SeriesPoint {
                        utilization: (b as f64 + 0.5) / TWOD_BINS as f64,
                        samples: samples[b],
                        accepted: accepted[b][e],
                    })
                    .collect(),
            })
            .collect(),
    }
}

fn twod_verdicts(ts: &TaskSet2D<f64>, device: &Device2D, horizon: f64) -> [bool; 4] {
    let native = |scheduler| {
        let cfg = Sim2DConfig { scheduler, horizon_periods: horizon, ..Sim2DConfig::default() };
        simulate_2d(ts, device, &cfg).expect("valid 2-D taskset").schedulable()
    };
    let (projected, fpga) = project_to_columns(ts, device).expect("projectable taskset");
    let projected_sim = simulate_f64(&projected, &fpga, &nf_sim(horizon)).expect("valid taskset");
    [
        native(Scheduler2D::EdfNf),
        native(Scheduler2D::EdfFkf),
        AnyOfTest::paper_suite().is_schedulable(&projected, &fpga),
        projected_sim.schedulable(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(study: Study, workers: usize) -> StudyConfig {
        let mut config = StudyConfig::new(study, 11);
        config.figures = vec![FigureWorkload::fig3a()];
        config.per_bin = 6;
        config.workers = workers;
        config.sim_horizon = 10.0;
        config
    }

    fn sweep(config: &StudyConfig, evaluators: &[Evaluator]) -> SweepResult {
        let mut sweep = PoolSweepConfig::new(config.figures[0], config.per_bin, config.seed);
        sweep.workers = config.workers;
        run_pool_sweep(&sweep, evaluators).result
    }

    #[test]
    fn names_round_trip() {
        for study in Study::ALL {
            assert_eq!(Study::by_name(study.name()), Some(study));
        }
        assert_eq!(Study::by_name("sweep"), None);
    }

    #[test]
    fn ablation_catalogue_is_complete() {
        let ids: Vec<&str> = all_ablations().iter().map(|a| a.id).collect();
        assert_eq!(ids, vec!["X1-gn1-denominator", "X2-gn2-lambda-search", "X3-dp-area-bound"]);
        for a in all_ablations() {
            assert_eq!(a.evaluators.len(), 2);
        }
    }

    /// Dominance sanity on a small sweep where a true dominance relation
    /// exists: the GN2 grid search (X2) accepts at least as much as the
    /// paper's candidate points in every bin (superset of λ candidates),
    /// and integer-bound DP accepts at least as much as real-valued DP
    /// (X3). X1's two denominators are genuinely incomparable — `Wi/Dk`
    /// shrinks β when `Di < Dk` but inflates it when `Di > Dk` — so X1 only
    /// gets a structural check.
    #[test]
    fn ablation_dominance_holds_binwise() {
        let config = small(Study::Ablations, 2);
        let ablations = all_ablations();

        let x1 = sweep(&config, &ablations[0].evaluators);
        assert_eq!(x1.series.len(), 2);
        assert_eq!(x1.series[0].name, "GN1");
        assert_eq!(x1.series[1].name, "GN1-bcl");

        let x2 = sweep(&config, &ablations[1].evaluators);
        for (p_base, p_alt) in x2.series[0].points.iter().zip(&x2.series[1].points) {
            assert!(p_alt.accepted >= p_base.accepted, "grid ⊇ paper points");
        }

        let x3 = sweep(&config, &ablations[2].evaluators);
        for (p_base, p_alt) in x3.series[0].points.iter().zip(&x3.series[1].points) {
            assert!(p_base.accepted >= p_alt.accepted, "integer bound dominates");
        }
    }

    /// Zero overhead changes nothing: `SIM@0` is plain EDF-NF simulation
    /// and `ANY@0` the uninflated composite test.
    #[test]
    fn zero_overhead_columns_match_the_plain_series() {
        let config = small(Study::Overhead, 2);
        let overhead = sweep(&config, &overhead_evaluators(config.sim_horizon));
        let plain = sweep(
            &config,
            &[
                Evaluator::from_sim(SchedulerKind::EdfNf, config.sim_horizon),
                Evaluator::from_test(AnyOfTest::paper_suite()),
            ],
        );
        assert_eq!(overhead.series[0].points, plain.series[0].points);
        assert_eq!(overhead.series[1].points, plain.series[1].points);
    }

    #[test]
    fn twod_is_worker_count_invariant() {
        let device = twod_device();
        let mut config = small(Study::Twod, 1);
        config.per_bin = 3;
        let one = twod_sweep(&config, &device);
        config.workers = 3;
        assert_eq!(twod_sweep(&config, &device), one);
        let names: Vec<&str> = one.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, TWOD_SERIES);
        for p in one.series.iter().flat_map(|s| &s.points) {
            assert!(p.accepted <= p.samples && p.samples <= 3);
        }
    }
}
