//! # fpga-rt-service
//!
//! Online admission control for hardware tasks on reconfigurable devices:
//! a long-running runtime that decides, per arriving task, whether the live
//! taskset stays schedulable — the deployment shape the paper's Section 6
//! advice ("apply different schedulability bounds together") actually has
//! in practice.
//!
//! ## Architecture
//!
//! * [`AdmissionController`] — one device, one live
//!   [`fpga_rt_model::LiveTaskSet`], answering `admit` / `release` /
//!   `query`. Each admission runs a **fast→slow cascade**: the DP bound
//!   folded over the live set ([`fpga_rt_analysis::DpTest::live_slack`],
//!   O(N), no cached state) → GN1 → GN2 → an **exact**
//!   [`fpga_rt_model::Rat64`] re-check when the deciding margin is
//!   knife-edge. Every
//!   [`Decision`] records which [`Tier`] settled it. An optional bounded
//!   [`VerdictCache`] (see [`cache`]) memoizes decisions keyed by an
//!   order-independent taskset fingerprint — byte-identical output with the
//!   cache on or off, by construction.
//! * [`protocol`] — the line-delimited JSON request/response wire format:
//!   scriptable, replayable, diffable (the CI pipeline replays recorded
//!   sessions against golden transcripts). Protocol **v2** frames every
//!   request with a `session` id and lowers to the tagged [`Op`] enum —
//!   the server's only internal representation — while v1 (sessionless)
//!   lines are lowered by a parse-time compatibility shim against the
//!   implicit `default` session.
//! * [`session`] — the explicit session lifecycle (`create`, `pause`,
//!   `resume`, `snapshot`, `restore`, `destroy`): [`SessionManager`] is
//!   the main-thread mirror that gates every transition in request order,
//!   and [`SessionSnapshot`] is the serde-backed durable state a session
//!   round-trips through `snapshot`/`restore`.
//! * [`core`] — the transport-agnostic engine: [`ServiceCore`] owns the
//!   sharded worker pool ([`fpga_rt_pool::ShardedPool`]), the lifecycle
//!   mirror and the batch accounting behind a line-in/line-out API with
//!   per-connection sequence numbers; each shard owns a map of
//!   independent per-session controllers pinned to one worker, so
//!   responses are deterministic in the worker count, batch size and
//!   timing, and a panicking handler surfaces as a per-request error
//!   instead of killing the service.
//! * [`serve_session`] — the stdio transport: the classic batched
//!   single-pipe loop, now a thin driver over [`ServiceCore`].
//! * [`transport`] — the non-blocking socket transport: a hand-rolled
//!   `std::net` event loop ([`SocketServer`]) accepting many concurrent
//!   TCP / Unix-socket connections ([`Endpoint`]) into the same engine,
//!   with partial-read-resilient JSONL framing, oversize rejection,
//!   per-connection write backpressure, idle timeouts and graceful
//!   drain — byte-identical transcripts to the stdio driver by
//!   construction.
//!
//! The wire format is specified normatively in `docs/PROTOCOL.md` at the
//! workspace root.
//!
//! ## Example
//!
//! ```
//! use fpga_rt_service::{serve_session, ServeConfig};
//!
//! let requests = concat!(
//!     r#"{"op":"admit","task":{"exec":1.0,"deadline":5.0,"period":5.0,"area":2}}"#, "\n",
//!     r#"{"op":"query"}"#, "\n",
//! );
//! let mut out = Vec::new();
//! let config = ServeConfig { deterministic: true, ..ServeConfig::new(10) };
//! let stats = serve_session(&mut requests.as_bytes(), &mut out, &config)?;
//! assert_eq!(stats.accepted, 1);
//! let transcript = String::from_utf8(out)?;
//! assert!(transcript.lines().next().unwrap().contains("\"verdict\":\"accept\""));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The `fpga-rt serve` CLI subcommand wraps [`serve_session`] over
//! stdin/stdout; see the workspace README's *Service mode* section for a
//! copy-pasteable session transcript.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod controller;
pub mod core;
pub mod protocol;
pub mod server;
pub mod session;
pub mod transport;

pub use cache::{task_fingerprint, CacheOp, CachedVerdict, TasksetFingerprint, VerdictCache};
pub use controller::{AdmissionController, ControllerConfig, Decision, ReleaseOutcome, Tier};
pub use core::{conn_counters, ConnectionId, ServiceCore, Submitted};
pub use protocol::{
    parse_request, render_response, session_shard, Op, PerTaskMargin, QueryStats, Request,
    RequestError, Response, ResponseBuilder, Route, SessionSnapshot, SnapshotTask, TaskParams,
    TierCounts, DEFAULT_SESSION,
};
pub use server::{serve_session, serve_session_with_obs, ServeConfig, SessionStats};
pub use session::{LifecycleState, SessionManager};
pub use transport::{ClientStream, Endpoint, SocketServer, TransportConfig};
