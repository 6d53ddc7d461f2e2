//! The transport-agnostic service engine.
//!
//! [`ServiceCore`] is the one implementation of the request-handling seam:
//! it owns the sharded worker pool, the [`SessionManager`] lifecycle
//! mirror and the batch accounting, and exposes a line-in/line-out API
//! that any transport can drive — the stdio driver in
//! [`crate::server::serve_session`] and the non-blocking socket event loop
//! in [`crate::transport`] are both thin clients of this module, so no
//! protocol logic lives in transport code.
//!
//! ## The connection model
//!
//! A transport [`open`](ServiceCore::open)s one [`ConnectionId`] per
//! client and [`submit`](ServiceCore::submit)s each received line under
//! it. Sequence numbers (and the derived `req-<seq>` default ids) are
//! **per connection**, starting at 0 — a connection's transcript is
//! therefore independent of what other connections do, and replaying a
//! stdio transcript over a socket yields byte-identical responses.
//! Sessions are service-wide: two connections naming the same session
//! share it (their relative order is the arrival interleaving).
//!
//! ## The batch contract
//!
//! Submitted lines accumulate into one open batch, bounded by
//! [`ServeConfig::batch`]. When [`batch_ready`](ServiceCore::batch_ready)
//! reports `true` (the batch filled, or a `stats` op cut it) the
//! transport must [`flush`](ServiceCore::flush) before submitting more
//! lines from *any* connection; a transport may also flush early at any
//! time (e.g. whenever its sockets run dry) — batch grouping changes no
//! response byte, which is exactly the determinism contract the golden
//! replays pin. `flush` returns every rendered response line tagged with
//! its connection, ordered by `(connection, seq)`; a batch-cutting
//! `stats` response is answered after the batch it cut, so its totals
//! cover exactly the requests sequenced before it.

use crate::controller::AdmissionController;
use crate::protocol::{
    counters, parse_request, render_response, session_shard, Op, QueryStats, Request, RequestError,
    Response, ResponseBuilder, Route, SessionSnapshot, SnapshotTask, TaskParams,
};
use crate::server::{ServeConfig, SessionStats};
use crate::session::{LifecycleState, SessionManager};
use fpga_rt_model::{Fpga, TaskHandle};
use fpga_rt_obs::{Obs, Registry, Snapshot};
use fpga_rt_pool::{PoolConfig, ShardedPool};
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// Connection-level counters (see `docs/OBSERVABILITY.md`). Ticked by the
/// socket transport through the shared [`Obs`] handle, so they are
/// registry-attached only — with telemetry off (and on every stdio run)
/// existing metrics artifacts are byte-identical.
pub mod conn_counters {
    /// Connections accepted.
    pub const ACCEPTED: &str = "conn/accepted";
    /// Connections closed (any reason, including the disconnects below).
    pub const CLOSED: &str = "conn/closed";
    /// Gauge: connections currently open.
    pub const ACTIVE: &str = "conn/active";
    /// Request bytes read from sockets.
    pub const BYTES_IN: &str = "conn/bytes_in";
    /// Response bytes written to sockets.
    pub const BYTES_OUT: &str = "conn/bytes_out";
    /// Gauge: largest outbound queue observed on any connection (bytes).
    pub const OUTBOUND_QUEUE_HWM: &str = "conn/outbound_queue_hwm";
    /// Lines rejected for exceeding the size limit.
    pub const OVERSIZE_REJECTS: &str = "conn/oversize_rejects";
    /// Connections dropped for exceeding the outbound-queue bound.
    pub const SLOW_DISCONNECTS: &str = "conn/slow_disconnects";
    /// Connections dropped by the idle timeout.
    pub const IDLE_DISCONNECTS: &str = "conn/idle_disconnects";
}

/// Opaque handle naming one transport connection inside a [`ServiceCore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnectionId(u64);

impl ConnectionId {
    /// A small integer for labels and logs (allocation order, from 0).
    pub fn index(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for ConnectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn-{}", self.0)
    }
}

/// What [`ServiceCore::submit`] did with a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submitted {
    /// Whitespace-only line: skipped, no sequence number consumed.
    Blank,
    /// The line consumed a sequence number and joined the open batch.
    Queued,
}

/// Per-connection state the core tracks: the next sequence number.
struct ConnState {
    seq: u64,
}

/// One pool item: a protocol line to serve, or a drain marker asking the
/// shard for its accumulated statistics.
enum ServeReq {
    /// A parsed request with its connection sequence number, resolved id
    /// and — for `snapshot` ops — the lifecycle state the mirror recorded
    /// at submission time.
    Line { seq: u64, id: String, snapshot_state: Option<LifecycleState>, request: Request },
    /// Report the shard's summed [`QueryStats`].
    Drain,
}

/// The matching pool response. The response is boxed so the drain variant
/// does not inflate every line's payload.
enum ServeResp {
    /// The served protocol response.
    Line(Box<Response>),
    /// The accumulated statistics of each of one shard's sessions.
    Drain(Vec<QueryStats>),
}

/// Per-shard worker state: the sessions the shard owns, plus everything
/// needed to materialize a new controller.
struct ShardState {
    device: Fpga,
    config: crate::controller::ControllerConfig,
    obs: Obs,
    cache: Option<usize>,
    sessions: HashMap<String, AdmissionController>,
}

impl ShardState {
    fn fresh_controller(&self) -> AdmissionController {
        AdmissionController::with_obs(self.device, self.config, self.obs.clone())
            .with_cache(self.cache)
    }

    /// The session's controller, materialized on first use. The main
    /// thread only routes data ops for sessions the mirror knows, so lazy
    /// materialization here is reached exactly once per session: by the
    /// auto-created default session's first data op.
    fn session_mut(&mut self, name: &str) -> &mut AdmissionController {
        if !self.sessions.contains_key(name) {
            let controller = self.fresh_controller();
            self.sessions.insert(name.to_string(), controller);
        }
        self.sessions.get_mut(name).expect("just inserted")
    }
}

/// Whether a request was answered on the main thread or submitted to its
/// shard (carrying the snapshot-time lifecycle state for `snapshot` ops).
enum Verdict {
    Immediate(Box<ResponseBuilder>),
    Submit(Option<LifecycleState>),
}

/// Metadata recorded per submitted pool item, in submission order —
/// enough to synthesize an error response if the handler panicked.
struct SubmittedMeta {
    conn: ConnectionId,
    seq: u64,
    id: String,
    op: String,
    shard: u32,
    echo: Option<String>,
}

/// A batch-cutting `stats` line waiting to be answered at flush time.
struct PendingStats {
    conn: ConnectionId,
    seq: u64,
    id: String,
    echo: Option<String>,
}

/// The transport-agnostic service engine (see the module docs for the
/// connection and batch contracts).
pub struct ServiceCore {
    config: ServeConfig,
    obs: Obs,
    pool: ShardedPool<ServeReq, ServeResp>,
    manager: SessionManager,
    stats: SessionStats,
    conns: HashMap<u64, ConnState>,
    next_conn: u64,
    batch_size: usize,
    shards: u32,
    // Open-batch state.
    immediate: Vec<(ConnectionId, u64, Response)>,
    submitted: Vec<SubmittedMeta>,
    pending_stats: Option<PendingStats>,
    batched: usize,
}

impl ServiceCore {
    /// Build the engine: spin up the worker pool and the lifecycle mirror.
    pub fn new(config: &ServeConfig, obs: Obs) -> Result<Self, String> {
        if config.columns == 0 {
            return Err("device must have at least one column".to_string());
        }
        let shards = config.shards.max(1);
        let batch_size = config.batch.max(1);
        let device = Fpga::new(config.columns).map_err(|e| e.to_string())?;
        let deterministic = config.deterministic;

        // One session map per shard, owned by the pool worker the shard is
        // pinned to; every controller records into the one shared
        // registry. Handler panics are contained by the pool.
        let ctl_obs = obs.clone();
        let ctl_config = config.controller_config();
        let cache = config.cache;
        let pool: ShardedPool<ServeReq, ServeResp> = ShardedPool::with_obs(
            PoolConfig { workers: config.workers, shards },
            obs.clone(),
            move |_shard| ShardState {
                device,
                config: ctl_config,
                obs: ctl_obs.clone(),
                cache,
                sessions: HashMap::new(),
            },
            move |state, shard, req| match req {
                ServeReq::Drain => ServeResp::Drain(
                    state.sessions.values().map(AdmissionController::stats).collect(),
                ),
                ServeReq::Line { seq, id, snapshot_state, request } => {
                    let start = Instant::now();
                    let mut response =
                        handle_request(state, seq, shard, id, snapshot_state, request);
                    response.latency_us = Some(if deterministic {
                        0
                    } else {
                        u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
                    });
                    ServeResp::Line(Box::new(response))
                }
            },
        );

        Ok(ServiceCore {
            config: *config,
            obs,
            pool,
            manager: SessionManager::new(config.sessions),
            stats: SessionStats::default(),
            conns: HashMap::new(),
            next_conn: 0,
            batch_size,
            shards,
            immediate: Vec::new(),
            submitted: Vec::new(),
            pending_stats: None,
            batched: 0,
        })
    }

    /// Register a new connection; its sequence numbers start at 0.
    pub fn open(&mut self) -> ConnectionId {
        let id = ConnectionId(self.next_conn);
        self.next_conn += 1;
        self.conns.insert(id.0, ConnState { seq: 0 });
        id
    }

    /// Forget a connection. Responses already batched under it are still
    /// produced by the next [`flush`](ServiceCore::flush) (tagged with the
    /// closed id, for the transport to discard).
    pub fn close(&mut self, conn: ConnectionId) {
        self.conns.remove(&conn.0);
    }

    /// Connections currently open.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// `true` when the open batch must be flushed before more lines are
    /// submitted: it filled to the configured size, or a `stats` op cut it.
    pub fn batch_ready(&self) -> bool {
        self.batched >= self.batch_size || self.pending_stats.is_some()
    }

    /// Lines in the open batch (blank lines never count).
    pub fn batch_len(&self) -> usize {
        self.batched
    }

    /// Requests read so far (including malformed lines).
    pub fn requests(&self) -> u64 {
        self.stats.requests
    }

    fn conn_seq(&mut self, conn: ConnectionId) -> Result<u64, String> {
        match self.conns.get_mut(&conn.0) {
            Some(state) => {
                let seq = state.seq;
                state.seq += 1;
                Ok(seq)
            }
            None => Err(format!("{conn} is not open")),
        }
    }

    /// Reject one line without parsing it (the transport's oversize path):
    /// consumes a sequence number and joins the open batch as a protocol
    /// error, so response order is preserved around it. Like a malformed
    /// line, `latency_us` stays null — the request never reached a
    /// handler.
    pub fn reject_line(&mut self, conn: ConnectionId, message: String) -> Result<(), String> {
        if self.batch_ready() {
            return Err("batch is full: flush before submitting".to_string());
        }
        let seq = self.conn_seq(conn)?;
        self.batched += 1;
        self.stats.requests += 1;
        self.immediate.push((
            conn,
            seq,
            Response::fail("", seq, message).id(format!("req-{seq}")).build(),
        ));
        Ok(())
    }

    /// Feed one received line. Blank lines are skipped (no sequence
    /// number); everything else consumes a sequence number, joins the open
    /// batch and is answered by the next [`flush`](ServiceCore::flush).
    /// Errors when the batch is ready (flush first) or the connection is
    /// not open.
    pub fn submit(&mut self, conn: ConnectionId, line: &str) -> Result<Submitted, String> {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Ok(Submitted::Blank); // blank lines don't consume sequence numbers
        }
        if self.batch_ready() {
            return Err("batch is full: flush before submitting".to_string());
        }
        let this_seq = self.conn_seq(conn)?;
        self.batched += 1;
        self.stats.requests += 1;
        let request = match parse_request(trimmed) {
            Ok(request) => request,
            Err(RequestError::Malformed(e)) => {
                // Nothing could be recovered from the line; latency_us
                // stays null (the request never reached a handler).
                self.immediate.push((
                    conn,
                    this_seq,
                    Response::fail("", this_seq, format!("malformed request: {e}"))
                        .id(format!("req-{this_seq}"))
                        .build(),
                ));
                return Ok(Submitted::Queued);
            }
            Err(RequestError::Invalid(inv)) => {
                let (shard, echo) = match (inv.shard, &inv.session) {
                    (Some(k), _) => (k % self.shards, None),
                    (None, Some(name)) => (session_shard(name, self.shards), inv.session.clone()),
                    (None, None) => (0, None),
                };
                let id = inv.id.unwrap_or_else(|| format!("req-{this_seq}"));
                self.immediate.push((
                    conn,
                    this_seq,
                    Response::fail(inv.op, this_seq, inv.message)
                        .id(id)
                        .shard(shard)
                        .session_opt(echo)
                        .latency_us(0)
                        .build(),
                ));
                return Ok(Submitted::Queued);
            }
        };
        let (shard, echo) = match request.route {
            Route::Shard(key) => (key % self.shards, None),
            Route::Session => (
                session_shard(request.op.session(), self.shards),
                Some(request.op.session().to_string()),
            ),
        };
        let id = request.id.clone().unwrap_or_else(|| format!("req-{this_seq}"));
        // The mirror gates (and commits) every lifecycle transition in
        // request order; `fail` answers a violation immediately.
        let fail = |error: String| {
            Box::new(
                Response::fail(request.op.name(), this_seq, error)
                    .id(id.clone())
                    .shard(shard)
                    .session_opt(echo.clone())
                    .latency_us(0),
            )
        };
        let manager = &mut self.manager;
        let obs = &self.obs;
        let verdict = match &request.op {
            Op::Stats(_) => {
                // A `stats` line cuts the batch: it is answered at flush
                // time after everything submitted before it has been
                // collected, so its totals cover exactly the requests
                // with a smaller sequence number.
                self.pending_stats =
                    Some(PendingStats { conn, seq: this_seq, id: id.clone(), echo: echo.clone() });
                return Ok(Submitted::Queued);
            }
            Op::Admit(_) | Op::Release(_) | Op::Query(_) => {
                match manager.gate_data_op(shard, request.op.session()) {
                    Ok(created) => {
                        if created {
                            obs.inc(counters::SESSION_CREATED);
                        }
                        Verdict::Submit(None)
                    }
                    Err(e) => Verdict::Immediate(fail(e)),
                }
            }
            Op::Create(p) => match manager.create(shard, &p.session) {
                Ok(()) => {
                    obs.inc(counters::SESSION_CREATED);
                    Verdict::Submit(None)
                }
                Err(e) => Verdict::Immediate(fail(e)),
            },
            Op::Destroy(p) => match manager.destroy(shard, &p.session) {
                Ok(()) => {
                    obs.inc(counters::SESSION_DESTROYED);
                    Verdict::Submit(None)
                }
                Err(e) => Verdict::Immediate(fail(e)),
            },
            Op::Snapshot(p) => match manager.gate_snapshot(shard, &p.session) {
                Ok(state) => {
                    obs.inc(counters::SESSION_SNAPSHOTTED);
                    Verdict::Submit(Some(state))
                }
                Err(e) => Verdict::Immediate(fail(e)),
            },
            Op::Restore(p) => {
                let state = if p.snapshot.lifecycle == "paused" {
                    LifecycleState::Paused
                } else {
                    LifecycleState::Active
                };
                match manager.restore(shard, &p.session, state) {
                    Ok(()) => {
                        obs.inc(counters::SESSION_RESTORED);
                        Verdict::Submit(None)
                    }
                    Err(e) => Verdict::Immediate(fail(e)),
                }
            }
            // pause/resume mutate only lifecycle state, which lives in
            // the mirror — answered entirely on the main thread.
            Op::Pause(p) => match manager.pause(shard, &p.session) {
                Ok(()) => {
                    obs.inc(counters::SESSION_PAUSED);
                    Verdict::Immediate(Box::new(
                        Response::ok("pause", this_seq)
                            .id(id.clone())
                            .shard(shard)
                            .session_opt(echo.clone())
                            .lifecycle("paused")
                            .latency_us(0),
                    ))
                }
                Err(e) => Verdict::Immediate(fail(e)),
            },
            Op::Resume(p) => match manager.resume(shard, &p.session) {
                Ok(()) => {
                    obs.inc(counters::SESSION_RESUMED);
                    Verdict::Immediate(Box::new(
                        Response::ok("resume", this_seq)
                            .id(id.clone())
                            .shard(shard)
                            .session_opt(echo.clone())
                            .lifecycle("active")
                            .latency_us(0),
                    ))
                }
                Err(e) => Verdict::Immediate(fail(e)),
            },
        };
        match verdict {
            Verdict::Immediate(builder) => self.immediate.push((conn, this_seq, builder.build())),
            Verdict::Submit(snapshot_state) => {
                self.submitted.push(SubmittedMeta {
                    conn,
                    seq: this_seq,
                    id: id.clone(),
                    op: request.op.name().to_string(),
                    shard,
                    echo,
                });
                self.pool
                    .submit(shard, ServeReq::Line { seq: this_seq, id, snapshot_state, request });
            }
        }
        Ok(Submitted::Queued)
    }

    /// Close the open batch: collect every submitted request, merge with
    /// the immediately-answered ones, and return the rendered response
    /// lines (without trailing newline) ordered by `(connection, seq)` —
    /// each connection sees its responses in request order. A
    /// batch-cutting `stats` response is appended last, after the drain
    /// that computes its totals. An empty batch flushes to an empty vec.
    pub fn flush(&mut self) -> Result<Vec<(ConnectionId, String)>, String> {
        if self.batched == 0 {
            return Ok(Vec::new());
        }
        self.batched = 0;
        self.stats.batches += 1;

        // Collect the batch: results come back in submission order, so
        // they zip with the recorded request metadata.
        let results = self.pool.collect().map_err(|e| e.to_string())?;
        let mut responses = std::mem::take(&mut self.immediate);
        for (result, meta) in results.into_iter().zip(std::mem::take(&mut self.submitted)) {
            let response = match result {
                Ok(ServeResp::Line(response)) => *response,
                Ok(ServeResp::Drain(_)) => {
                    return Err("pool answered a request line with a drain".to_string())
                }
                Err(panic) => {
                    // The in-handler measurement did not survive the
                    // panic; PROTOCOL.md documents 0 for synthesized
                    // errors.
                    Response::fail(meta.op, meta.seq, format!("internal error: {}", panic.message))
                        .id(meta.id)
                        .shard(meta.shard)
                        .session_opt(meta.echo)
                        .latency_us(0)
                        .build()
                }
            };
            responses.push((meta.conn, meta.seq, response));
        }
        responses.sort_by_key(|(conn, seq, _)| (*conn, *seq));

        // Render in request order, folding into session statistics.
        let mut lines = Vec::with_capacity(responses.len() + 1);
        for (conn, _, response) in &responses {
            account(&mut self.stats, response);
            lines.push((*conn, render_response(response)));
        }

        // Answer a batch-cutting `stats` line: drain every shard and fold.
        if let Some(PendingStats { conn, seq, id, echo }) = self.pending_stats.take() {
            let drained = drain(&mut self.pool)?;
            let snapshot = service_snapshot(&self.obs, &self.config, &drained, &self.manager);
            let response = Response::ok("stats", seq)
                .id(id)
                .stats(QueryStats::from_snapshot(&snapshot))
                .obs(snapshot)
                .session_opt(echo)
                // Assembled on the main thread outside the timed handler;
                // PROTOCOL.md documents latency_us 0 for `stats`.
                .latency_us(0)
                .build();
            account(&mut self.stats, &response);
            lines.push((conn, render_response(&response)));
        }
        Ok(lines)
    }

    /// Finish the service: final drain, fold the admission totals into the
    /// session statistics and return them with the end-of-service
    /// `fpga-rt-obs/1` snapshot. Errors if a batch is still open (flush
    /// first).
    pub fn finish(mut self) -> Result<(SessionStats, Snapshot), String> {
        if self.batched > 0 {
            return Err("finish with an open batch: flush first".to_string());
        }
        // Final drain: the session totals and the end-of-session snapshot
        // come from the same fold the `stats` op uses — the one
        // implementation.
        let drained = drain(&mut self.pool)?;
        let snapshot = service_snapshot(&self.obs, &self.config, &drained, &self.manager);
        let total = QueryStats::from_snapshot(&snapshot);
        self.stats.accepted = total.accepted;
        self.stats.rejected = total.rejected;
        self.stats.tiers = total.tiers;
        Ok((self.stats, snapshot))
    }
}

/// Broadcast a drain marker and gather the statistics of every session,
/// shard by shard.
fn drain(pool: &mut ShardedPool<ServeReq, ServeResp>) -> Result<Vec<QueryStats>, String> {
    let results = pool.broadcast(|_| ServeReq::Drain).map_err(|e| e.to_string())?;
    let mut drained = Vec::with_capacity(results.len());
    for result in results {
        match result.map_err(|e| e.to_string())? {
            ServeResp::Drain(stats) => drained.extend(stats),
            ServeResp::Line(_) => return Err("pool answered a drain with a line".to_string()),
        }
    }
    Ok(drained)
}

/// Build the service-wide snapshot: a **clone** of the live registry (so
/// repeated `stats` ops never double-count the fold) with every session's
/// statistics folded onto the admission counters, the session gauges set
/// from the lifecycle mirror, and the session configuration recorded as
/// metadata. The worker count is deliberately not part of the metadata —
/// deterministic snapshots are byte-identical across worker counts, and
/// the CI obs-smoke gate diffs exactly that.
fn service_snapshot(
    obs: &Obs,
    config: &ServeConfig,
    drained: &[QueryStats],
    manager: &SessionManager,
) -> Snapshot {
    let registry = match obs.registry() {
        Some(shared) => (**shared).clone(),
        None => Registry::with_mode(config.deterministic),
    };
    registry.set_meta("mode", "serve");
    registry.set_meta("columns", &config.columns.to_string());
    registry.set_meta("shards", &config.shards.max(1).to_string());
    registry.set_meta("batch", &config.batch.max(1).to_string());
    registry.set_meta("deterministic", if config.deterministic { "true" } else { "false" });
    // The zero fold keeps every admission counter present before the
    // first session exists.
    for stats in std::iter::once(&QueryStats::default()).chain(drained) {
        stats.fold_into(&registry);
    }
    // Session gauges only when telemetry is enabled: with Obs::off the
    // snapshot is embedded into v1 `stats` responses, whose bytes predate
    // sessions. The mirror counts are main-thread state, so the gauges are
    // deterministic in the worker count like everything else here.
    if obs.registry().is_some() {
        registry.set_gauge(counters::SESSIONS_LIVE, manager.live() as u64);
        registry.set_gauge(counters::SESSIONS_ACTIVE, manager.active() as u64);
        registry.set_gauge(counters::SESSIONS_PAUSED, manager.paused() as u64);
    }
    // The hit-rate gauge is derived once here from the merged counters:
    // gauges merge by sum across shards, so per-shard writes would corrupt
    // the ratio.
    let snap = registry.snapshot();
    let hits = snap.counter(counters::CACHE_HITS).unwrap_or(0);
    let misses = snap.counter(counters::CACHE_MISSES).unwrap_or(0);
    if let Some(rate) = (hits * 1000).checked_div(hits + misses) {
        registry.set_gauge(counters::CACHE_HIT_RATE_PERMILLE, rate);
        return registry.snapshot();
    }
    snap
}

/// Fold one response into the session statistics. Only protocol errors are
/// counted here — the admission totals come from draining the shard
/// controllers (see [`ServiceCore::finish`]), the same fold the `stats`
/// op uses.
fn account(stats: &mut SessionStats, response: &Response) {
    if response.error.is_some() {
        stats.errors += 1;
    }
}

/// Serve one routed request against its shard's session map. The lifecycle
/// mirror has already gated the request, so session existence and state
/// are preconditions here, not checks.
fn handle_request(
    state: &mut ShardState,
    seq: u64,
    shard: u32,
    id: String,
    snapshot_state: Option<LifecycleState>,
    request: Request,
) -> Response {
    // v1 requests (shard-routed) never echo the session; v2 always do.
    let echo = match request.route {
        Route::Shard(_) => None,
        Route::Session => Some(request.op.session().to_string()),
    };
    let base =
        |op: &str| Response::ok(op, seq).id(id.clone()).shard(shard).session_opt(echo.clone());
    match &request.op {
        Op::Admit(p) => match p.task.to_task() {
            Ok(task) => {
                let controller = state.session_mut(&p.session);
                let (decision, handle) = controller.admit(task, p.margins);
                with_aggregates(base("admit"), controller)
                    .verdict(decision.accepted)
                    .tier(decision.tier.as_str())
                    .margin(decision.margin)
                    .margins(decision.per_task)
                    .reason(decision.reason)
                    .handle(handle.map(|h| h.0))
                    .build()
            }
            Err(e) => base("admit").error(format!("invalid task: {e}")).build(),
        },
        Op::Release(p) => {
            let controller = state.session_mut(&p.session);
            match controller.release(TaskHandle(p.handle)) {
                Ok(_) => {
                    with_aggregates(base("release"), controller).handle(Some(p.handle)).build()
                }
                Err(e) => base("release").error(e).build(),
            }
        }
        Op::Query(p) => {
            let controller = state.session_mut(&p.session);
            let decision = controller.query(p.margins);
            with_aggregates(base("query"), controller)
                .verdict(decision.accepted)
                .tier(decision.tier.as_str())
                .margin(decision.margin)
                .margins(decision.per_task)
                .reason(decision.reason)
                .stats(controller.stats())
                .build()
        }
        Op::Create(p) => {
            let controller = state.fresh_controller();
            let response = with_aggregates(base("create"), &controller).lifecycle("active").build();
            state.sessions.insert(p.session.clone(), controller);
            response
        }
        Op::Destroy(p) => {
            state.sessions.remove(&p.session);
            base("destroy").lifecycle("destroyed").build()
        }
        Op::Snapshot(p) => {
            let lifecycle = snapshot_state.unwrap_or(LifecycleState::Active).as_str().to_string();
            let controller = state.session_mut(&p.session);
            let (pairs, next_handle, stats) = controller.export_state();
            let snapshot = SessionSnapshot {
                lifecycle: lifecycle.clone(),
                next_handle,
                tasks: pairs
                    .iter()
                    .map(|(h, t)| SnapshotTask { handle: h.0, task: TaskParams::from(t) })
                    .collect(),
                stats,
            };
            with_aggregates(base("snapshot"), controller)
                .lifecycle(lifecycle)
                .snapshot(snapshot)
                .build()
        }
        Op::Restore(p) => {
            let mut controller = state.fresh_controller();
            let pairs = p
                .snapshot
                .tasks
                .iter()
                .map(|st| (TaskHandle(st.handle), st.task.to_task().expect("validated at parse")))
                .collect();
            match controller.restore_state(pairs, p.snapshot.next_handle, p.snapshot.stats) {
                Ok(()) => {
                    let response = with_aggregates(base("restore"), &controller)
                        .lifecycle(p.snapshot.lifecycle.clone())
                        .build();
                    state.sessions.insert(p.session.clone(), controller);
                    response
                }
                // Unreachable by parse-time validation, but never panic a
                // worker over a protocol payload.
                Err(e) => base("restore").error(format!("invalid snapshot: {e}")).build(),
            }
        }
        // stats/pause/resume are answered on the main thread; routing one
        // here is a server bug, reported as a response rather than a panic.
        Op::Stats(_) | Op::Pause(_) | Op::Resume(_) => base(request.op.name())
            .error(format!("internal error: {} routed to a worker", request.op.name()))
            .build(),
    }
}

fn with_aggregates(builder: ResponseBuilder, controller: &AdmissionController) -> ResponseBuilder {
    builder.aggregates(
        controller.len(),
        controller.time_utilization(),
        controller.system_utilization(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ServeConfig {
        ServeConfig { deterministic: true, ..ServeConfig::new(10) }
    }

    #[test]
    fn sequence_numbers_are_per_connection() {
        let mut core = ServiceCore::new(&config(), Obs::off()).unwrap();
        let a = core.open();
        let b = core.open();
        core.submit(a, r#"{"op":"query"}"#).unwrap();
        core.submit(b, r#"{"op":"query"}"#).unwrap();
        core.submit(a, r#"{"op":"query"}"#).unwrap();
        let lines = core.flush().unwrap();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].0, a);
        assert!(lines[0].1.contains("\"seq\":0"));
        assert!(lines[1].1.contains("\"seq\":1"), "{}", lines[1].1);
        assert_eq!(lines[2].0, b);
        assert!(lines[2].1.contains("\"seq\":0"), "connection b counts from 0");
    }

    #[test]
    fn blank_lines_consume_nothing_and_closed_batches_refuse_lines() {
        let mut core = ServiceCore::new(&ServeConfig { batch: 2, ..config() }, Obs::off()).unwrap();
        let conn = core.open();
        assert_eq!(core.submit(conn, "   \n").unwrap(), Submitted::Blank);
        assert_eq!(core.batch_len(), 0);
        core.submit(conn, r#"{"op":"query"}"#).unwrap();
        core.submit(conn, r#"{"op":"query"}"#).unwrap();
        assert!(core.batch_ready());
        assert!(core.submit(conn, r#"{"op":"query"}"#).is_err());
        assert_eq!(core.flush().unwrap().len(), 2);
        assert!(!core.batch_ready());
    }

    #[test]
    fn a_stats_line_cuts_the_batch() {
        let mut core = ServiceCore::new(&config(), Obs::off()).unwrap();
        let conn = core.open();
        core.submit(
            conn,
            r#"{"op":"admit","task":{"exec":1.0,"deadline":8.0,"period":8.0,"area":2}}"#,
        )
        .unwrap();
        core.submit(conn, r#"{"op":"stats"}"#).unwrap();
        assert!(core.batch_ready(), "stats cuts the batch long before it fills");
        let lines = core.flush().unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].1.contains("\"op\":\"stats\""));
        assert!(lines[1].1.contains("\"decisions\":1"), "totals cover the preceding admit");
    }

    #[test]
    fn rejected_lines_hold_their_place_in_the_order() {
        let mut core = ServiceCore::new(&config(), Obs::off()).unwrap();
        let conn = core.open();
        core.submit(conn, r#"{"op":"query"}"#).unwrap();
        core.reject_line(conn, "oversized request line".to_string()).unwrap();
        core.submit(conn, r#"{"op":"query"}"#).unwrap();
        let lines = core.flush().unwrap();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].1.contains("\"seq\":1"));
        assert!(lines[1].1.contains("oversized request line"));
        assert!(lines[1].1.contains("\"id\":\"req-1\""));
        assert!(lines[2].1.contains("\"seq\":2"));
        let (stats, _) = {
            // finish() needs the batch flushed, which it is.
            core.finish().unwrap()
        };
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn submitting_on_a_closed_connection_errors() {
        let mut core = ServiceCore::new(&config(), Obs::off()).unwrap();
        let conn = core.open();
        core.close(conn);
        assert!(core.submit(conn, r#"{"op":"query"}"#).is_err());
        assert_eq!(core.connections(), 0);
    }
}
