//! # fpga-rt-exp
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 6), plus the configuration ablations (derived in
//! `docs/THEORY.md`) and extension studies. The `fpga-rt` CLI is its only
//! front end: `fpga-rt tables`, `fpga-rt sweep` and `fpga-rt study <name>`.
//!
//! * [`tables`] — the three discriminating example tasksets (Tables 1–3)
//!   with the full verdict matrix in both `f64` and exact arithmetic, a
//!   simulation cross-check, and the paper's GN2 λ walkthrough for
//!   Table 3.
//! * [`acceptance`] — the acceptance-ratio vocabulary behind Figures
//!   3(a)–4(b): pluggable [`Evaluator`]s (analytic tests and simulations)
//!   and the [`SweepResult`] curves they produce.
//! * [`sweep`] — the sweep engine: binned taskset generation fanned out
//!   over the shared worker pool ([`fpga_rt_pool::ShardedPool`]),
//!   byte-identical across worker counts, at any population size.
//! * [`study`] — the seven studies of `fpga-rt study`: figures, ablations
//!   (X1–X3), placement (X5), overhead (X6), partitioned (X7), twod (X10)
//!   and release (X11).
//! * [`output`] — aligned-text and CSV rendering of result series.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acceptance;
pub mod output;
pub mod study;
pub mod sweep;
pub mod tables;

pub use acceptance::{standard_evaluators, AcceptanceSeries, Evaluator, SeriesPoint, SweepResult};
pub use sweep::{analysis_evaluators, run_pool_sweep, PoolSweepConfig, PoolSweepOutcome};
pub use tables::{paper_tables, TableCase, VerdictRow};
