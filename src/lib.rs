//! # fpga-rt — EDF schedulability analysis on reconfigurable hardware
//!
//! Facade crate re-exporting the whole workspace: a production-quality Rust
//! reproduction of *Guan, Gu, Deng, Liu, Yu — "Improved Schedulability
//! Analysis of EDF Scheduling on Reconfigurable Hardware Devices"*
//! (IPDPS 2007).
//!
//! The workspace provides:
//!
//! * [`model`] — task/taskset/device model, exact rational arithmetic
//!   ([`model::Rat64`]) and the [`model::Time`] numeric abstraction;
//! * [`analysis`] — the paper's schedulability bound tests
//!   ([`analysis::DpTest`] — Theorem 1, [`analysis::Gn1Test`] — Theorem 2,
//!   [`analysis::Gn2Test`] — Theorem 3), their multiprocessor ancestors, and
//!   the work-conserving α bounds of Lemmas 1–2;
//! * [`sim`] — a discrete-event simulator of EDF-FkF and EDF-NF hardware
//!   task scheduling (Definitions 1–2), with pluggable placement, optional
//!   reconfiguration overhead, partitioned-EDF and EDF-US extensions;
//! * [`gen`] — synthetic taskset generators reproducing the Section 6
//!   workloads;
//! * [`exp`] — the experiment harness regenerating every table and figure;
//! * [`conform`] — the pool-parallel conformance engine cross-validating
//!   every analytic verdict against the simulator at population scale,
//!   with minimized counterexamples for any soundness violation
//!   (`fpga-rt conform`);
//! * [`pool`] — the deterministic sharded worker pool (ordered results,
//!   panic containment, output invariant in worker count and batch size)
//!   shared by the service session loop and the parallel sweep engine;
//! * [`service`] — the online admission-control runtime: a fast→slow
//!   decision cascade (DP → GN1 → GN2 → exact) behind
//!   a batched, sharded JSONL protocol, served over stdio or a
//!   hand-rolled non-blocking TCP / Unix-socket event loop
//!   ([`service::SocketServer`]) through one transport-agnostic engine
//!   ([`service::ServiceCore`]) — `fpga-rt serve --listen …`;
//! * [`loadgen`] — the traffic-shaped load generator: deterministic
//!   Poisson / bursty / adversarial arrival streams replayed against
//!   in-process admission controllers, with HDR-style latency histograms
//!   and the CI-gated latency baselines (`fpga-rt loadgen`);
//! * [`obs`] — the hand-rolled telemetry core: counters, gauges,
//!   log-scale latency histograms and span timers behind a mergeable
//!   [`obs::Registry`] snapshotting to the versioned `fpga-rt-obs/1`
//!   artifact (`--metrics-out`, the JSONL `stats` op), no-op when no
//!   registry is installed and byte-diffable under `--deterministic`.
//!
//! ## Quickstart
//!
//! ```
//! use fpga_rt::prelude::*;
//!
//! // Table 3 of the paper: accepted by GN2, rejected by DP and GN1.
//! let taskset: TaskSet<f64> = TaskSet::try_from_tuples(&[
//!     (2.10, 5.0, 5.0, 7),
//!     (2.00, 7.0, 7.0, 7),
//! ])?;
//! let fpga = Fpga::new(10)?;
//!
//! assert!(!DpTest::default().is_schedulable(&taskset, &fpga));
//! assert!(!Gn1Test::default().is_schedulable(&taskset, &fpga));
//! assert!(Gn2Test::default().is_schedulable(&taskset, &fpga));
//!
//! // The composite test the paper recommends (accept if any test accepts):
//! let any = AnyOfTest::paper_suite();
//! assert!(any.is_schedulable(&taskset, &fpga));
//!
//! // Cross-check with the discrete-event simulator (EDF-NF, offsets 0):
//! let outcome = sim::simulate(&taskset, &fpga, &SimConfig::default().with_scheduler(SchedulerKind::EdfNf))?;
//! assert!(outcome.schedulable());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fpga_rt_2d as twod;
pub use fpga_rt_analysis as analysis;
pub use fpga_rt_conform as conform;
pub use fpga_rt_exp as exp;
pub use fpga_rt_gen as gen;
pub use fpga_rt_loadgen as loadgen;
pub use fpga_rt_model as model;
pub use fpga_rt_obs as obs;
pub use fpga_rt_pool as pool;
pub use fpga_rt_service as service;
pub use fpga_rt_sim as sim;

/// Commonly used items in one import.
pub mod prelude {
    pub use fpga_rt_analysis::{
        AnalysisSeries, AnyOfTest, BatchAnalyzer, DpTest, Gn1Test, Gn2Test, SchedTest,
        ScratchSpace, TaskSetBatch, TestReport, Verdict,
    };
    pub use fpga_rt_loadgen::{ArrivalProfile, LatencyHistogram, LoadConfig, LoadReport};
    pub use fpga_rt_model::{
        Fpga, LiveTaskSet, ModelError, Rat64, Task, TaskHandle, TaskId, TaskSet, Time,
    };
    pub use fpga_rt_obs::{Obs, Registry, Snapshot, SpanTimer};
    pub use fpga_rt_pool::{PoolConfig, ShardedPool};
    pub use fpga_rt_service::{
        AdmissionController, ClientStream, ControllerConfig, Endpoint, ServeConfig, ServiceCore,
        SocketServer, Tier, TransportConfig,
    };
    pub use fpga_rt_sim::{self as sim, SchedulerKind, SimConfig, SimOutcome};
}
