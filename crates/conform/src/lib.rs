//! # fpga-rt-conform
//!
//! Pool-parallel **conformance engine**: the empirical arbiter between the
//! paper's analytic schedulability tests and the discrete-event simulator,
//! at 10⁴–10⁵-taskset population scale.
//!
//! Theorems 1–3 are *soundness* claims — an accepted taskset never misses
//! a deadline under the targeted EDF variant. The repo proves table-sized
//! instances (`fpga-rt tables`) and spot-checks random draws
//! (`tests/soundness.rs`); this crate industrializes the cross-check the
//! way Goossens & Meumeu Yomsi's exact global-EDF test (arXiv:1012.5929)
//! and Singh's precise-EDF analysis (arXiv:1101.1718) use simulation/exact
//! oracles to audit sufficient tests:
//!
//! 1. draw UUniFast-style populations per figure bin (the sweep engine's
//!    [`fpga_rt_exp::sweep::Population`], one `(seed, bin, sample)`
//!    stream per unit, so every unit is replayable);
//! 2. run every analytic evaluator (DP/GN1/GN2/AnyOf), the necessary test
//!    as an independent falsifier, **and** the `crates/sim` EDF engine
//!    under both targeted schedulers on the same taskset;
//! 3. classify each pair into `{sound-accept, sound-reject,
//!    pessimistic-reject, SOUNDNESS-VIOLATION}`
//!    ([`Classification`]) and, for every violation, ship a *minimized*
//!    counterexample with the first-miss job trace ([`Counterexample`],
//!    serialized through [`fpga_rt_sim::Trace`]'s segment type).
//!
//! Work runs on the sweep engine's population driver
//! ([`fpga_rt_pool::run_units`]) under the same
//! byte-identical-across-workers determinism contract — CI diffs 1-worker
//! and 4-worker runs against committed goldens and gates merges on
//! **zero violations over ≥10 000 tasksets across all four figures**.
//!
//! Entry points: [`run_conform`] (1-D), [`run_twod_bridge`] (the 2-D
//! column-projection bridge), the `fpga-rt conform` CLI subcommand
//! (`--figure all` for every figure, `--twod` for the bridge; exit 1 on a
//! violation, 2 on lost units), and the `conform_throughput` bench.
//!
//! ```
//! use fpga_rt_conform::{paper_conform_evaluators, run_conform, ConformConfig};
//! use fpga_rt_gen::{FigureWorkload, UtilizationBins};
//!
//! let mut config = ConformConfig::new(FigureWorkload::fig3a(), 4, 42);
//! config.bins = UtilizationBins::new(0.0, 1.0, 3);
//! config.sim_horizon = 20.0;
//! config.workers = 2;
//! let outcome = run_conform(&config, paper_conform_evaluators());
//! assert!(outcome.report.sound(), "a violation would disprove a theorem");
//! assert_eq!(outcome.report.series.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod counterexample;
pub mod engine;
pub mod render;
pub mod twod;

pub use classify::{
    paper_conform_evaluators, paper_conform_evaluators_scalar, Classification, ConformEvaluator,
    SIM_SCHEDULERS,
};
pub use counterexample::{
    capture_miss_evidence, minimize_taskset, minimize_with, Counterexample, ViolationKind,
    MAX_COUNTEREXAMPLES, TRACE_TAIL_SEGMENTS,
};
pub use engine::{
    run_conform, BinClassCounts, ConformConfig, ConformOutcome, ConformReport, ConformSeries,
};
pub use render::{render_csv, render_csv_multi, render_csv_rows, render_text, CSV_HEADER};
pub use twod::{
    run_twod_bridge, Sim1dAgreement, TwodBridgeArtifact, TwodBridgeConfig, TwodBridgeOutcome,
    TwodCounterexample,
};
