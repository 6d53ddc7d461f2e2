//! # fpga-rt-loadgen
//!
//! A traffic-shaped load generator for the admission-control service: the
//! workspace's answer to "how does the analysis cascade behave under
//! sustained arrival streams?", and the producer of the end-to-end latency
//! baselines (`BENCH_6.json`) that `scripts/bench_gate.py` turns into a CI
//! regression gate.
//!
//! The pipeline has three stages, one module each:
//!
//! 1. [`profile`] — **synthesize** a deterministic, seedable stream of
//!    admit/release/query ops multiplexed over many logical sessions.
//!    Three traffic shapes: `poisson` (memoryless open-loop arrivals with
//!    UUniFast-shaped admissions), `bursty` (on/off bursts on hot
//!    sessions), and `adversarial` (the paper's Table 1 knife-edge pair
//!    scaled to the device, forcing the controller's exact `Rat64` tier on
//!    every second admission).
//! 2. [`run()`] — **replay** the stream, in order and on the calling
//!    thread, against in-process
//!    [`AdmissionController`](fpga_rt_service::AdmissionController)s, one
//!    per logical session, created on the session's first op. Each op is
//!    timed around its controller call into the workspace's HDR-style
//!    [`hist::LatencyHistogram`] (promoted to `fpga-rt-obs` and
//!    re-exported here); decision and tier counts ride the shared
//!    `fpga-rt-obs` registry snapshot.
//! 3. [`report`] — **emit** the artifact: JSON
//!    (schema `fpga-rt-loadgen-smoke/1`), CSV, and a stdout table, all
//!    byte-identical from run to run under `--deterministic` (zeroed
//!    latencies).
//!
//! A fourth, out-of-process mode — [`socket`] — speaks the wire protocol
//! through real TCP / Unix-socket connections against a running
//! `fpga-rt serve --listen` process, verifying the transport's
//! per-connection ordering contract (id echo, strictly incrementing
//! `seq`) across hundreds of concurrent connections.
//!
//! The `fpga-rt loadgen` CLI subcommand wraps [`run::run`] /
//! [`run::run_soak`] (and [`socket::run_socket`] under `--target`); see
//! the workspace README's *Loadgen mode* section.
//!
//! ## Example
//!
//! ```
//! use fpga_rt_loadgen::{run, ArrivalProfile, LoadConfig};
//!
//! let config = LoadConfig { ops: 200, sessions: 4, deterministic: true, ..LoadConfig::default() };
//! let report = run(&[ArrivalProfile::Adversarial], &config)?;
//! let p = &report.profiles[0];
//! assert_eq!(p.ops, 200);
//! // Knife-edge admissions escalate all the way to the exact tier.
//! assert!(p.tiers.exact > 0);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fpga_rt_obs::hist;

pub mod profile;
pub mod report;
pub mod run;
pub mod socket;

pub use fpga_rt_obs::LatencyHistogram;
pub use profile::{synthesize, ArrivalOp, ArrivalProfile, LoadSpec, OpKind};
pub use report::{runner_id, Budget, LatencySummary, LoadReport, ProfileReport, SCHEMA};
pub use run::{run, run_soak, run_soak_with_obs, run_with_obs, LoadConfig};
pub use socket::{run_socket, SocketLoadConfig, SocketLoadReport};
