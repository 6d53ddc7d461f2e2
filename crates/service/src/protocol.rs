//! The line-delimited JSON (JSONL) request/response wire protocol.
//!
//! One request per line on stdin, one response per line on stdout, in
//! request order. The protocol is plain-text and self-contained so sessions
//! can be recorded, replayed and diffed against golden files (the CI gate
//! does exactly that).
//!
//! ## Protocol v2 (session-framed)
//!
//! A request line carrying a `session` key is a **v2** request: it names
//! the session it operates on and is parsed *strictly* — unknown keys are
//! protocol errors naming the offending key. The operation is one of the
//! four data ops plus the six lifecycle ops:
//!
//! ```json
//! {"session":"alice","op":"create"}
//! {"session":"alice","op":"admit","task":{"exec":1.0,"deadline":5.0,"period":5.0,"area":2}}
//! {"session":"alice","op":"pause"}
//! {"session":"alice","op":"snapshot"}
//! {"session":"alice","op":"destroy"}
//! {"session":"alice","op":"restore","snapshot":{...}}
//! ```
//!
//! Internally every request lowers to the tagged [`Op`] enum — one payload
//! struct per operation, each carrying its session id — which the server
//! matches exhaustively. v2 requests are routed to a pool shard by a
//! deterministic hash of the session name ([`session_shard`]), so one
//! session's requests are always served sequentially by one worker.
//!
//! ## Protocol v1 (compatibility shim)
//!
//! A line *without* a `session` key is a **v1** request and is handled by
//! a parse-time shim: `admit`/`release`/`query`/`stats` map onto the same
//! [`Op`] payloads against the implicit [`DEFAULT_SESSION`] of the
//! request's explicit `shard` key (default 0), preserving v1's
//! shard-isolation semantics and its lenient parsing (unknown trailing
//! keys are ignored) byte-for-byte — the recorded v1 golden transcripts
//! replay identically through the shim.
//!
//! ```json
//! {"op":"admit","task":{"exec":1.0,"deadline":5.0,"period":5.0,"area":2}}
//! {"id":"r7","op":"release","handle":0}
//! {"op":"query","shard":3}
//! ```
//!
//! ## Responses
//!
//! Every response echoes `id`, `seq`, `op` and `shard`, and carries `ok`
//! (protocol-level success), the schedulability `verdict`
//! (`"accept"`/`"reject"`), the deciding cascade `tier` (`"dp-inc"`,
//! `"gn1"`, `"gn2"`, `"exact"`), the binding `margin`, the live-set
//! aggregates (`tasks`, `ut`, `us`) and the decision `latency_us`
//! (reported as 0 in deterministic mode so transcripts stay diffable).
//! v2 responses additionally echo the `session` and, where applicable, the
//! session's `lifecycle` state and a `snapshot` payload; these keys are
//! omitted (not `null`) when absent, so v1 response bytes are unchanged.
//! Responses are built through [`Response::ok`] / [`Response::fail`] —
//! every construction path goes through the builder, so a new field cannot
//! be forgotten on any of them.
//!
//! ## Codec
//!
//! [`parse_request`] and [`render_response`] run once per line on the
//! service's main thread, so the common lines skip the `serde` `Value`
//! tree: a single-pass scanner decodes well-formed lines of the known
//! shapes, and a fixed-order writer renders every response (see
//! `docs/PROTOCOL.md` for the encoding it guarantees). Any line the
//! scanner does not fully recognise is re-parsed through the `Value` tree,
//! whose parser words every protocol error.

mod codec;

use fpga_rt_model::{ModelError, Task};
use fpga_rt_obs::{Registry, Snapshot};
use serde::{Deserialize, Serialize, Value};

/// Registry counter names the admission statistics fold onto — the single
/// cross-shard accumulation path (see [`QueryStats::fold_into`] /
/// [`QueryStats::from_snapshot`]), shared by the service's `stats` op, the
/// end-of-session metrics artifact and the load generator.
pub mod counters {
    /// Total admit decisions.
    pub const DECISIONS: &str = "admission/decisions";
    /// Admissions accepted.
    pub const ACCEPTED: &str = "admission/accepted";
    /// Admissions rejected.
    pub const REJECTED: &str = "admission/rejected";
    /// Decisions settled by the DP tier (`dp-inc`).
    pub const TIER_DP_INC: &str = "admission/tier/dp-inc";
    /// Decisions settled by GN1.
    pub const TIER_GN1: &str = "admission/tier/gn1";
    /// Decisions settled by GN2.
    pub const TIER_GN2: &str = "admission/tier/gn2";
    /// Decisions settled by the exact `Rat64` re-check.
    pub const TIER_EXACT: &str = "admission/tier/exact";
    /// Verdict-cache hits (decision replayed without running the cascade).
    pub const CACHE_HITS: &str = "admission/cache/hits";
    /// Verdict-cache misses (decision computed, then memoized).
    pub const CACHE_MISSES: &str = "admission/cache/misses";
    /// Verdict-cache capacity evictions (LRU).
    pub const CACHE_EVICTIONS: &str = "admission/cache/evictions";
    /// Cache hit rate in permille, `hits·1000/(hits+misses)` — a gauge
    /// computed at snapshot-assembly time from the merged counters.
    pub const CACHE_HIT_RATE_PERMILLE: &str = "admission/cache/hit_rate_permille";
    /// Sessions created (explicitly or implicitly for v1 traffic).
    pub const SESSION_CREATED: &str = "session/lifecycle/created";
    /// Sessions paused.
    pub const SESSION_PAUSED: &str = "session/lifecycle/paused";
    /// Sessions resumed.
    pub const SESSION_RESUMED: &str = "session/lifecycle/resumed";
    /// Session snapshots taken.
    pub const SESSION_SNAPSHOTTED: &str = "session/lifecycle/snapshotted";
    /// Sessions restored from a snapshot.
    pub const SESSION_RESTORED: &str = "session/lifecycle/restored";
    /// Sessions destroyed.
    pub const SESSION_DESTROYED: &str = "session/lifecycle/destroyed";
    /// Gauge: sessions currently alive (active + paused).
    pub const SESSIONS_LIVE: &str = "session/live";
    /// Gauge: sessions currently active.
    pub const SESSIONS_ACTIVE: &str = "session/active";
    /// Gauge: sessions currently paused.
    pub const SESSIONS_PAUSED: &str = "session/paused";
}

/// The implicit session v1 requests (and sessionless defaults) operate on.
pub const DEFAULT_SESSION: &str = "default";

/// Deterministic shard routing for v2 sessions: FNV-1a 64 of the session
/// name, reduced modulo the shard count. Implemented inline (not via
/// `DefaultHasher`) so recorded transcripts stay stable across toolchain
/// upgrades.
pub fn session_shard(session: &str, shards: u32) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in session.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % u64::from(shards.max(1))) as u32
}

/// Raw task parameters on the wire; validated into a
/// [`fpga_rt_model::Task`] on receipt (the wire form performs no
/// validation of its own).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskParams {
    /// Worst-case execution time `C`.
    pub exec: f64,
    /// Relative deadline `D`.
    pub deadline: f64,
    /// Period / minimum inter-arrival time `T`.
    pub period: f64,
    /// Area in columns `A`.
    pub area: u32,
}

impl TaskParams {
    /// Validate into a model task.
    pub fn to_task(self) -> Result<Task<f64>, ModelError> {
        Task::new(self.exec, self.deadline, self.period, self.area)
    }
}

impl From<&Task<f64>> for TaskParams {
    fn from(t: &Task<f64>) -> Self {
        TaskParams { exec: t.exec(), deadline: t.deadline(), period: t.period(), area: t.area() }
    }
}

/// Payload of `admit`: evaluate and (on accept) commit one candidate task.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmitOp {
    /// Target session.
    pub session: String,
    /// Candidate task parameters.
    pub task: TaskParams,
    /// Request per-task margin rows in the response.
    pub margins: bool,
}

/// Payload of `release`: release one admitted task by handle.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleaseOp {
    /// Target session.
    pub session: String,
    /// Handle returned by an accepted `admit`.
    pub handle: u64,
}

/// Payload of `query`: re-evaluate the current live set without mutating.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOp {
    /// Target session.
    pub session: String,
    /// Request per-task margin rows in the response.
    pub margins: bool,
}

/// Payload of `stats`: the service-wide statistics snapshot. `stats` is
/// not session-scoped — it drains every shard — but echoes the requesting
/// session on v2 responses.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsOp {
    /// Requesting session (echoed; the totals are service-wide).
    pub session: String,
}

/// Payload of `create`: bring a new, empty, active session into existence.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateOp {
    /// Session to create.
    pub session: String,
}

/// Payload of `pause`: suspend an active session (its data ops are
/// rejected until `resume`).
#[derive(Debug, Clone, PartialEq)]
pub struct PauseOp {
    /// Session to pause.
    pub session: String,
}

/// Payload of `resume`: reactivate a paused session.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeOp {
    /// Session to resume.
    pub session: String,
}

/// Payload of `snapshot`: export the session's durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotOp {
    /// Session to snapshot.
    pub session: String,
}

/// Payload of `restore`: recreate a session from a snapshot (the target
/// name may differ from the snapshotted session's original name).
#[derive(Debug, Clone, PartialEq)]
pub struct RestoreOp {
    /// Session to create from the snapshot.
    pub session: String,
    /// The state to restore (validated at parse time).
    pub snapshot: SessionSnapshot,
}

/// Payload of `destroy`: remove a session and drop its live state.
#[derive(Debug, Clone, PartialEq)]
pub struct DestroyOp {
    /// Session to destroy.
    pub session: String,
}

/// The tagged operation enum — protocol v2's (and the server's only)
/// internal representation. Every variant carries its session id; the
/// server matches this exhaustively, so adding an op is a compile error
/// until every path handles it.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Evaluate and (on accept) commit one candidate task.
    Admit(AdmitOp),
    /// Release an admitted task by handle.
    Release(ReleaseOp),
    /// Re-evaluate the current live set without mutating it.
    Query(QueryOp),
    /// Service-wide statistics snapshot.
    Stats(StatsOp),
    /// Create a new empty session.
    Create(CreateOp),
    /// Pause an active session.
    Pause(PauseOp),
    /// Resume a paused session.
    Resume(ResumeOp),
    /// Export a session's durable state.
    Snapshot(SnapshotOp),
    /// Recreate a session from exported state.
    Restore(Box<RestoreOp>),
    /// Remove a session.
    Destroy(DestroyOp),
}

impl Op {
    /// The wire name of the operation.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Admit(_) => "admit",
            Op::Release(_) => "release",
            Op::Query(_) => "query",
            Op::Stats(_) => "stats",
            Op::Create(_) => "create",
            Op::Pause(_) => "pause",
            Op::Resume(_) => "resume",
            Op::Snapshot(_) => "snapshot",
            Op::Restore(_) => "restore",
            Op::Destroy(_) => "destroy",
        }
    }

    /// The session this operation targets.
    pub fn session(&self) -> &str {
        match self {
            Op::Admit(p) => &p.session,
            Op::Release(p) => &p.session,
            Op::Query(p) => &p.session,
            Op::Stats(p) => &p.session,
            Op::Create(p) => &p.session,
            Op::Pause(p) => &p.session,
            Op::Resume(p) => &p.session,
            Op::Snapshot(p) => &p.session,
            Op::Restore(p) => &p.session,
            Op::Destroy(p) => &p.session,
        }
    }
}

/// How a request is routed to a pool shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// v1: the explicit `shard` key (default 0), reduced modulo the shard
    /// count — preserves v1's shard-isolation semantics.
    Shard(u32),
    /// v2: by [`session_shard`] of the session name.
    Session,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client correlation id; `req-<seq>` is assigned when absent.
    pub id: Option<String>,
    /// The operation, with its session-scoped payload.
    pub op: Op,
    /// Shard routing (v1 explicit key vs v2 session hash).
    pub route: Route,
}

/// A structured parse failure: the line was valid JSON but violates the
/// protocol. Carries whatever envelope fields could be recovered so the
/// error response can echo them.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidRequest {
    /// Client id, when recoverable.
    pub id: Option<String>,
    /// Claimed op name, when recoverable (echoed; may be unknown).
    pub op: String,
    /// v1 explicit shard key, when present.
    pub shard: Option<u32>,
    /// v2 session name, when recoverable.
    pub session: Option<String>,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Why a request line failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The line is not valid JSON (or not even request-shaped): nothing
    /// can be echoed. The server reports `latency_us: null`.
    Malformed(String),
    /// The line parsed as JSON but violates the protocol (unknown op,
    /// missing payload field, unknown v2 key). The recovered envelope is
    /// echoed and `latency_us` is 0.
    Invalid(InvalidRequest),
}

/// One live task inside a [`SessionSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SnapshotTask {
    /// The task's stable handle within its session.
    pub handle: u64,
    /// The task parameters.
    pub task: TaskParams,
}

/// The serde-backed durable state of one session, as produced by the
/// `snapshot` op and consumed by `restore`. Contains the canonical-order
/// live task vector, the handle counter and the accumulated decision
/// statistics; everything derived from the tasks (utilization sums,
/// fingerprint) is rebuilt on restore and is bit-identical to the
/// never-snapshotted twin by the live set's purity contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Lifecycle state at snapshot time: `"active"` or `"paused"`. A
    /// restored session resumes in this state.
    pub lifecycle: String,
    /// The session's next-handle counter (handles are never reused, even
    /// across a snapshot/restore boundary).
    pub next_handle: u64,
    /// Live tasks in canonical order.
    pub tasks: Vec<SnapshotTask>,
    /// Accumulated decision statistics.
    pub stats: QueryStats,
}

/// Per-task margin row: the slack of the deciding test's inequality for one
/// task of the evaluated set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerTaskMargin {
    /// Position within the evaluated snapshot (canonical
    /// `(C, D, T, A)`-sorted order; an admission candidate sits at its
    /// canonical position, identified by `handle: null` on rejections).
    pub index: usize,
    /// Live handle of the task; `None` for a rejected candidate.
    pub handle: Option<u64>,
    /// Signed slack `rhs − lhs` of the per-task condition.
    pub margin: f64,
}

/// How many admit decisions each cascade tier has settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TierCounts {
    /// Decided by the DP bound (tier `dp-inc`), precondition rejections
    /// included.
    pub dp_inc: u64,
    /// Decided by GN1 (Theorem 2).
    pub gn1: u64,
    /// Decided by GN2 (Theorem 3).
    pub gn2: u64,
    /// Decided by the exact `Rat64` re-check (knife-edge margins).
    pub exact: u64,
}

impl TierCounts {
    /// Total decisions across tiers.
    pub fn total(&self) -> u64 {
        self.dp_inc + self.gn1 + self.gn2 + self.exact
    }
}

/// Controller statistics reported by `query`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QueryStats {
    /// Total admit decisions taken by this session's controller.
    pub decisions: u64,
    /// Admissions accepted.
    pub accepted: u64,
    /// Admissions rejected.
    pub rejected: u64,
    /// Which tier settled each decision.
    pub tiers: TierCounts,
}

impl QueryStats {
    /// Fold this shard's statistics onto the registry's [`counters`] —
    /// the one implementation of cross-shard totalling: every consumer
    /// (the service's `stats` op, its end-of-session summary, the load
    /// generator's per-profile totals) folds per-shard stats into a
    /// registry and reads the sum back with
    /// [`from_snapshot`](QueryStats::from_snapshot).
    pub fn fold_into(&self, registry: &Registry) {
        registry.add(counters::DECISIONS, self.decisions);
        registry.add(counters::ACCEPTED, self.accepted);
        registry.add(counters::REJECTED, self.rejected);
        registry.add(counters::TIER_DP_INC, self.tiers.dp_inc);
        registry.add(counters::TIER_GN1, self.tiers.gn1);
        registry.add(counters::TIER_GN2, self.tiers.gn2);
        registry.add(counters::TIER_EXACT, self.tiers.exact);
    }

    /// Read totals back from a registry snapshot (absent counters are 0).
    pub fn from_snapshot(snapshot: &Snapshot) -> Self {
        let c = |name: &str| snapshot.counter(name).unwrap_or(0);
        QueryStats {
            decisions: c(counters::DECISIONS),
            accepted: c(counters::ACCEPTED),
            rejected: c(counters::REJECTED),
            tiers: TierCounts {
                dp_inc: c(counters::TIER_DP_INC),
                gn1: c(counters::TIER_GN1),
                gn2: c(counters::TIER_GN2),
                exact: c(counters::TIER_EXACT),
            },
        }
    }
}

/// One response line. Legacy fields that do not apply carry `null`; the
/// v2 fields (`session`, `lifecycle`, `snapshot`) are omitted entirely
/// when absent, so v1 transcripts are byte-identical to the pre-v2 wire.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Response {
    /// Echoed (or assigned `req-<seq>`) correlation id.
    pub id: String,
    /// 0-based request sequence number within the connection.
    pub seq: u64,
    /// Echoed operation.
    pub op: String,
    /// Shard that served the request (after routing).
    pub shard: u32,
    /// Protocol-level success. `false` means the request itself was bad
    /// (parse error, missing field, stale handle, lifecycle violation);
    /// see `error`.
    pub ok: bool,
    /// Schedulability verdict: `"accept"` or `"reject"`.
    pub verdict: Option<String>,
    /// Deciding cascade tier: `"dp-inc"`, `"gn1"`, `"gn2"` or `"exact"`.
    pub tier: Option<String>,
    /// Handle assigned by an accepted `admit` / echoed by `release`.
    pub handle: Option<u64>,
    /// Live tasks after the operation.
    pub tasks: Option<usize>,
    /// Live `UT(Γ)` after the operation.
    pub ut: Option<f64>,
    /// Live `US(Γ)` after the operation.
    pub us: Option<f64>,
    /// Binding margin of the deciding comparison (signed slack).
    pub margin: Option<f64>,
    /// Per-task margin rows (only when requested via `margins:true`).
    pub margins: Option<Vec<PerTaskMargin>>,
    /// Controller statistics (session-local on `query`, service-wide on
    /// `stats`).
    pub stats: Option<QueryStats>,
    /// Whole-service telemetry snapshot (only on `stats`): the live
    /// `fpga-rt-obs/1` registry with every shard's statistics folded in.
    pub obs: Option<Snapshot>,
    /// Human-readable rejection reason / decision notes.
    pub reason: Option<String>,
    /// Protocol-level error message when `ok` is `false`.
    pub error: Option<String>,
    /// Decision latency in microseconds (0 in deterministic mode and for
    /// main-thread-synthesized responses).
    pub latency_us: Option<u64>,
    /// Session the operation targeted (v2 responses only; omitted on v1).
    pub session: Option<String>,
    /// Session lifecycle state after the operation (lifecycle ops only):
    /// `"active"`, `"paused"` or `"destroyed"`.
    pub lifecycle: Option<String>,
    /// Exported session state (`snapshot` op only).
    pub snapshot: Option<SessionSnapshot>,
}

impl Response {
    /// Start building a successful response for an op at a sequence
    /// number. Chain setters, then [`ResponseBuilder::build`].
    pub fn ok(op: impl Into<String>, seq: u64) -> ResponseBuilder {
        ResponseBuilder(Response {
            id: String::new(),
            seq,
            op: op.into(),
            shard: 0,
            ok: true,
            verdict: None,
            tier: None,
            handle: None,
            tasks: None,
            ut: None,
            us: None,
            margin: None,
            margins: None,
            stats: None,
            obs: None,
            reason: None,
            error: None,
            latency_us: None,
            session: None,
            lifecycle: None,
            snapshot: None,
        })
    }

    /// Start building a protocol-error response (`ok: false` plus the
    /// error message).
    pub fn fail(op: impl Into<String>, seq: u64, error: impl Into<String>) -> ResponseBuilder {
        let mut b = Response::ok(op, seq);
        b.0.ok = false;
        b.0.error = Some(error.into());
        b
    }
}

/// Builder for [`Response`] — the only construction path, so new fields
/// (session, lifecycle, snapshot) cannot be forgotten anywhere, including
/// the server's panic-synthesis path.
#[derive(Debug, Clone)]
pub struct ResponseBuilder(Response);

impl ResponseBuilder {
    /// Correlation id (echoed or assigned `req-<seq>`).
    pub fn id(mut self, id: impl Into<String>) -> Self {
        self.0.id = id.into();
        self
    }

    /// Serving shard (after routing).
    pub fn shard(mut self, shard: u32) -> Self {
        self.0.shard = shard;
        self
    }

    /// Echo the session (v2 responses).
    pub fn session(mut self, session: impl Into<String>) -> Self {
        self.0.session = Some(session.into());
        self
    }

    /// Echo the session only when present (v1 responses omit it).
    pub fn session_opt(mut self, session: Option<String>) -> Self {
        self.0.session = session;
        self
    }

    /// Lifecycle state after the operation.
    pub fn lifecycle(mut self, state: impl Into<String>) -> Self {
        self.0.lifecycle = Some(state.into());
        self
    }

    /// Schedulability verdict from an accept flag.
    pub fn verdict(mut self, accepted: bool) -> Self {
        self.0.verdict = Some(if accepted { "accept" } else { "reject" }.to_string());
        self
    }

    /// Deciding cascade tier.
    pub fn tier(mut self, tier: impl Into<String>) -> Self {
        self.0.tier = Some(tier.into());
        self
    }

    /// Assigned/echoed task handle.
    pub fn handle(mut self, handle: Option<u64>) -> Self {
        self.0.handle = handle;
        self
    }

    /// Live-set aggregates after the operation.
    pub fn aggregates(mut self, tasks: usize, ut: f64, us: f64) -> Self {
        self.0.tasks = Some(tasks);
        self.0.ut = Some(ut);
        self.0.us = Some(us);
        self
    }

    /// Binding margin of the deciding comparison.
    pub fn margin(mut self, margin: Option<f64>) -> Self {
        self.0.margin = margin;
        self
    }

    /// Per-task margin rows.
    pub fn margins(mut self, margins: Option<Vec<PerTaskMargin>>) -> Self {
        self.0.margins = margins;
        self
    }

    /// Decision notes / rejection reason.
    pub fn reason(mut self, reason: Option<String>) -> Self {
        self.0.reason = reason;
        self
    }

    /// Mark the response as a protocol error (`ok: false` plus the
    /// message) — for paths that discover the error after starting from
    /// [`Response::ok`].
    pub fn error(mut self, error: impl Into<String>) -> Self {
        self.0.ok = false;
        self.0.error = Some(error.into());
        self
    }

    /// Controller statistics.
    pub fn stats(mut self, stats: QueryStats) -> Self {
        self.0.stats = Some(stats);
        self
    }

    /// Whole-service telemetry snapshot (`stats` op).
    pub fn obs(mut self, obs: Snapshot) -> Self {
        self.0.obs = Some(obs);
        self
    }

    /// Exported session state (`snapshot` op).
    pub fn snapshot(mut self, snapshot: SessionSnapshot) -> Self {
        self.0.snapshot = Some(snapshot);
        self
    }

    /// Decision latency in microseconds.
    pub fn latency_us(mut self, us: u64) -> Self {
        self.0.latency_us = Some(us);
        self
    }

    /// Finish the response.
    pub fn build(self) -> Response {
        self.0
    }
}

/// The v1 wire shape, kept only as a parse-time shim: lenient field
/// handling (unknown trailing keys ignored, as the derive has always
/// done), lowered onto [`Op`] against the implicit default session.
#[derive(Debug, Clone, PartialEq, Deserialize)]
struct V1Request {
    id: Option<String>,
    op: String,
    shard: Option<u32>,
    task: Option<TaskParams>,
    handle: Option<u64>,
    margins: Option<bool>,
}

/// Parse one JSONL request line: v2 (strict, session-framed) when a
/// `session` key is present, the lenient v1 shim otherwise.
///
/// A well-formed line of a known shape is decoded by the single-pass
/// scanner; every other line, including every line that is an error, is
/// re-parsed through the `Value` tree. Both paths give the same result.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    codec::scan_request(line).map_or_else(|| parse_request_value(line), Ok)
}

/// The `Value`-tree request parser: the reference the scanner must agree
/// with, and the one implementation of every protocol error message.
fn parse_request_value(line: &str) -> Result<Request, RequestError> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| RequestError::Malformed(e.to_string()))?;
    match value.as_map() {
        Some(entries) if entries.iter().any(|(k, _)| k == "session") => parse_v2(entries),
        _ => parse_v1(&value),
    }
}

/// The v1 compatibility shim. Error behavior matches the pre-v2 service
/// exactly: shape errors (wrong types, missing `op`) are "malformed
/// request" lines, while a well-shaped request with an unknown op or a
/// missing payload field produces a structured error echoing the envelope.
fn parse_v1(value: &Value) -> Result<Request, RequestError> {
    let v1 = V1Request::from_value(value).map_err(|e| RequestError::Malformed(e.to_string()))?;
    let invalid = |v1: &V1Request, message: String| {
        RequestError::Invalid(InvalidRequest {
            id: v1.id.clone(),
            op: v1.op.clone(),
            shard: v1.shard,
            session: None,
            message,
        })
    };
    let session = DEFAULT_SESSION.to_string();
    let op = match v1.op.as_str() {
        "admit" => match v1.task {
            Some(task) => {
                Op::Admit(AdmitOp { session, task, margins: v1.margins.unwrap_or(false) })
            }
            None => return Err(invalid(&v1, "admit requires a `task` object".to_string())),
        },
        "release" => match v1.handle {
            Some(handle) => Op::Release(ReleaseOp { session, handle }),
            None => return Err(invalid(&v1, "release requires a `handle`".to_string())),
        },
        "query" => Op::Query(QueryOp { session, margins: v1.margins.unwrap_or(false) }),
        "stats" => Op::Stats(StatsOp { session }),
        other => {
            return Err(invalid(&v1, format!("unknown op {other:?} (admit|release|query|stats)")))
        }
    };
    Ok(Request { id: v1.id, op, route: Route::Shard(v1.shard.unwrap_or(0)) })
}

/// Every op name v2 accepts, for the unknown-op error.
const V2_OPS: &str = "admit|release|query|stats|create|pause|resume|snapshot|restore|destroy";

/// The strict v2 parser: typed extraction over the raw value tree with
/// unknown-key rejection (the key is named in the error, nested keys with
/// their path).
fn parse_v2(entries: &[(String, Value)]) -> Result<Request, RequestError> {
    let mut ctx = InvalidRequest {
        id: None,
        op: String::new(),
        shard: None,
        session: None,
        message: String::new(),
    };
    let fail = |ctx: &InvalidRequest, message: String| {
        RequestError::Invalid(InvalidRequest { message, ..ctx.clone() })
    };
    if let Some(id) = find(entries, "id") {
        match id {
            Value::Str(s) => ctx.id = Some(s.clone()),
            other => {
                return Err(fail(&ctx, format!("`id` must be a string, got {}", other.kind())))
            }
        }
    }
    let session = match find(entries, "session").expect("caller checked the session key") {
        Value::Str(s) if !s.is_empty() => s.clone(),
        Value::Str(_) => {
            return Err(fail(&ctx, "`session` must be a non-empty string".to_string()))
        }
        other => {
            return Err(fail(&ctx, format!("`session` must be a string, got {}", other.kind())))
        }
    };
    ctx.session = Some(session.clone());
    let op_name = match find(entries, "op") {
        None => return Err(fail(&ctx, "missing key `op`".to_string())),
        Some(Value::Str(s)) => s.clone(),
        Some(other) => {
            return Err(fail(&ctx, format!("`op` must be a string, got {}", other.kind())))
        }
    };
    ctx.op = op_name.clone();

    let allowed: &[&str] = match op_name.as_str() {
        "admit" => &["id", "session", "op", "task", "margins"],
        "release" => &["id", "session", "op", "handle"],
        "query" => &["id", "session", "op", "margins"],
        "restore" => &["id", "session", "op", "snapshot"],
        "stats" | "create" | "pause" | "resume" | "snapshot" | "destroy" => {
            &["id", "session", "op"]
        }
        other => return Err(fail(&ctx, format!("unknown op {other:?} ({V2_OPS})"))),
    };
    if let Some((key, _)) = entries.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
        return Err(fail(&ctx, format!("unknown key `{key}` in {op_name} request")));
    }

    let margins = match find(entries, "margins") {
        None => false,
        Some(Value::Bool(b)) => *b,
        Some(other) => {
            return Err(fail(&ctx, format!("`margins` must be a boolean, got {}", other.kind())))
        }
    };
    let op = match op_name.as_str() {
        "admit" => {
            let task = match find(entries, "task") {
                None => return Err(fail(&ctx, "admit requires a `task` object".to_string())),
                Some(value) => parse_task(value, "task").map_err(|m| fail(&ctx, m))?,
            };
            Op::Admit(AdmitOp { session, task, margins })
        }
        "release" => {
            let handle = match find(entries, "handle") {
                None => return Err(fail(&ctx, "release requires a `handle`".to_string())),
                Some(value) => parse_u64(value, "handle").map_err(|m| fail(&ctx, m))?,
            };
            Op::Release(ReleaseOp { session, handle })
        }
        "query" => Op::Query(QueryOp { session, margins }),
        "stats" => Op::Stats(StatsOp { session }),
        "create" => Op::Create(CreateOp { session }),
        "pause" => Op::Pause(PauseOp { session }),
        "resume" => Op::Resume(ResumeOp { session }),
        "snapshot" => Op::Snapshot(SnapshotOp { session }),
        "destroy" => Op::Destroy(DestroyOp { session }),
        "restore" => {
            let snapshot = match find(entries, "snapshot") {
                None => return Err(fail(&ctx, "restore requires a `snapshot` object".to_string())),
                Some(value) => parse_session_snapshot(value).map_err(|m| fail(&ctx, m))?,
            };
            Op::Restore(Box::new(RestoreOp { session, snapshot }))
        }
        _ => unreachable!("op validated against the allowed set above"),
    };
    Ok(Request { id: ctx.id, op, route: Route::Session })
}

fn find<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn object<'a>(value: &'a Value, path: &str) -> Result<&'a [(String, Value)], String> {
    value.as_map().ok_or_else(|| format!("`{path}` must be an object, got {}", value.kind()))
}

fn reject_unknown(entries: &[(String, Value)], allowed: &[&str], path: &str) -> Result<(), String> {
    match entries.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
        Some((key, _)) => Err(format!("unknown key `{path}.{key}`")),
        None => Ok(()),
    }
}

fn parse_f64(value: &Value, path: &str) -> Result<f64, String> {
    match *value {
        Value::Float(x) => Ok(x),
        Value::Int(n) => Ok(n as f64),
        Value::UInt(n) => Ok(n as f64),
        _ => Err(format!("`{path}` must be a number, got {}", value.kind())),
    }
}

fn parse_u64(value: &Value, path: &str) -> Result<u64, String> {
    match *value {
        Value::Int(n) if n >= 0 => Ok(n as u64),
        Value::UInt(n) => Ok(n),
        _ => Err(format!("`{path}` must be an unsigned integer, got {}", value.kind())),
    }
}

fn parse_u32(value: &Value, path: &str) -> Result<u32, String> {
    u32::try_from(parse_u64(value, path)?).map_err(|_| format!("`{path}` is out of range for u32"))
}

fn required<'a>(
    entries: &'a [(String, Value)],
    key: &str,
    path: &str,
) -> Result<&'a Value, String> {
    find(entries, key).ok_or_else(|| format!("missing key `{path}.{key}`"))
}

fn parse_task(value: &Value, path: &str) -> Result<TaskParams, String> {
    let entries = object(value, path)?;
    reject_unknown(entries, &["exec", "deadline", "period", "area"], path)?;
    Ok(TaskParams {
        exec: parse_f64(required(entries, "exec", path)?, &format!("{path}.exec"))?,
        deadline: parse_f64(required(entries, "deadline", path)?, &format!("{path}.deadline"))?,
        period: parse_f64(required(entries, "period", path)?, &format!("{path}.period"))?,
        area: parse_u32(required(entries, "area", path)?, &format!("{path}.area"))?,
    })
}

/// Strictly parse and validate a restore payload. Validation is complete
/// here — every task passes [`Task::new`], handles are unique and below
/// the counter — so applying the snapshot on the worker is infallible and
/// the main-thread lifecycle mirror can commit the session before the
/// worker runs.
fn parse_session_snapshot(value: &Value) -> Result<SessionSnapshot, String> {
    let path = "snapshot";
    let entries = object(value, path)?;
    reject_unknown(entries, &["lifecycle", "next_handle", "tasks", "stats"], path)?;
    let lifecycle = match required(entries, "lifecycle", path)? {
        Value::Str(s) if s == "active" || s == "paused" => s.clone(),
        Value::Str(s) => {
            return Err(format!("`{path}.lifecycle` must be \"active\" or \"paused\", got {s:?}"))
        }
        other => return Err(format!("`{path}.lifecycle` must be a string, got {}", other.kind())),
    };
    let next_handle =
        parse_u64(required(entries, "next_handle", path)?, &format!("{path}.next_handle"))?;
    let tasks_value = required(entries, "tasks", path)?;
    let items = tasks_value
        .as_seq()
        .ok_or_else(|| format!("`{path}.tasks` must be an array, got {}", tasks_value.kind()))?;
    let mut tasks = Vec::with_capacity(items.len());
    let mut seen = std::collections::BTreeSet::new();
    for (i, item) in items.iter().enumerate() {
        let tpath = format!("{path}.tasks[{i}]");
        let task_entries = object(item, &tpath)?;
        reject_unknown(task_entries, &["handle", "task"], &tpath)?;
        let handle =
            parse_u64(required(task_entries, "handle", &tpath)?, &format!("{tpath}.handle"))?;
        let task = parse_task(required(task_entries, "task", &tpath)?, &format!("{tpath}.task"))?;
        if handle >= next_handle || !seen.insert(handle) {
            return Err(format!(
                "`{tpath}.handle` {handle} is duplicated or not below next_handle {next_handle}"
            ));
        }
        task.to_task().map_err(|e| format!("`{tpath}.task` is invalid: {e}"))?;
        tasks.push(SnapshotTask { handle, task });
    }
    let stats_value = required(entries, "stats", path)?;
    let stats_entries = object(stats_value, &format!("{path}.stats"))?;
    reject_unknown(
        stats_entries,
        &["decisions", "accepted", "rejected", "tiers"],
        &format!("{path}.stats"),
    )?;
    let spath = format!("{path}.stats");
    let tiers_value = required(stats_entries, "tiers", &spath)?;
    let tiers_entries = object(tiers_value, &format!("{spath}.tiers"))?;
    reject_unknown(tiers_entries, &["dp_inc", "gn1", "gn2", "exact"], &format!("{spath}.tiers"))?;
    let tpath = format!("{spath}.tiers");
    let stats = QueryStats {
        decisions: parse_u64(
            required(stats_entries, "decisions", &spath)?,
            "snapshot.stats.decisions",
        )?,
        accepted: parse_u64(
            required(stats_entries, "accepted", &spath)?,
            "snapshot.stats.accepted",
        )?,
        rejected: parse_u64(
            required(stats_entries, "rejected", &spath)?,
            "snapshot.stats.rejected",
        )?,
        tiers: TierCounts {
            dp_inc: parse_u64(
                required(tiers_entries, "dp_inc", &tpath)?,
                "snapshot.stats.tiers.dp_inc",
            )?,
            gn1: parse_u64(required(tiers_entries, "gn1", &tpath)?, "snapshot.stats.tiers.gn1")?,
            gn2: parse_u64(required(tiers_entries, "gn2", &tpath)?, "snapshot.stats.tiers.gn2")?,
            exact: parse_u64(
                required(tiers_entries, "exact", &tpath)?,
                "snapshot.stats.tiers.exact",
            )?,
        },
    };
    Ok(SessionSnapshot { lifecycle, next_handle, tasks, stats })
}

/// Render one response as a JSONL line (no trailing newline), in the
/// fixed key order of [`Response`]'s fields.
pub fn render_response(resp: &Response) -> String {
    codec::write_response(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // The writer's reference, through the `Value` tree: the 17 legacy
    // fields always, then the three v2 keys only when present.
    impl Serialize for Response {
        fn to_value(&self) -> Value {
            let mut entries: Vec<(String, Value)> = vec![
                ("id".to_string(), self.id.to_value()),
                ("seq".to_string(), self.seq.to_value()),
                ("op".to_string(), self.op.to_value()),
                ("shard".to_string(), self.shard.to_value()),
                ("ok".to_string(), self.ok.to_value()),
                ("verdict".to_string(), self.verdict.to_value()),
                ("tier".to_string(), self.tier.to_value()),
                ("handle".to_string(), self.handle.to_value()),
                ("tasks".to_string(), self.tasks.to_value()),
                ("ut".to_string(), self.ut.to_value()),
                ("us".to_string(), self.us.to_value()),
                ("margin".to_string(), self.margin.to_value()),
                ("margins".to_string(), self.margins.to_value()),
                ("stats".to_string(), self.stats.to_value()),
                ("obs".to_string(), self.obs.to_value()),
                ("reason".to_string(), self.reason.to_value()),
                ("error".to_string(), self.error.to_value()),
                ("latency_us".to_string(), self.latency_us.to_value()),
            ];
            if let Some(session) = &self.session {
                entries.push(("session".to_string(), session.to_value()));
            }
            if let Some(lifecycle) = &self.lifecycle {
                entries.push(("lifecycle".to_string(), lifecycle.to_value()));
            }
            if let Some(snapshot) = &self.snapshot {
                entries.push(("snapshot".to_string(), snapshot.to_value()));
            }
            Value::Map(entries)
        }
    }

    #[test]
    fn v1_request_round_trip_with_defaults() {
        let req = parse_request(
            r#"{"op":"admit","task":{"exec":1.0,"deadline":5.0,"period":5.0,"area":2}}"#,
        )
        .unwrap();
        assert_eq!(req.id, None);
        assert_eq!(req.route, Route::Shard(0));
        assert_eq!(req.op.session(), DEFAULT_SESSION);
        let Op::Admit(admit) = req.op else { panic!("expected admit, got {:?}", req.op) };
        assert!(!admit.margins);
        assert_eq!(admit.task.to_task().unwrap().area(), 2);
    }

    #[test]
    fn v1_shim_is_lenient_about_unknown_keys() {
        let req = parse_request(r#"{"op":"query","margins":true,"debug":"yes"}"#).unwrap();
        assert!(matches!(req.op, Op::Query(QueryOp { margins: true, .. })));
    }

    #[test]
    fn v1_missing_payload_fields_are_structured_errors() {
        let err = parse_request(r#"{"op":"admit","shard":3}"#).unwrap_err();
        let RequestError::Invalid(inv) = err else { panic!("expected invalid, got {err:?}") };
        assert_eq!(inv.op, "admit");
        assert_eq!(inv.shard, Some(3));
        assert_eq!(inv.message, "admit requires a `task` object");
        let err = parse_request(r#"{"op":"release"}"#).unwrap_err();
        let RequestError::Invalid(inv) = err else { panic!("expected invalid, got {err:?}") };
        assert_eq!(inv.message, "release requires a `handle`");
    }

    #[test]
    fn v1_unknown_op_error_names_the_v1_ops_only() {
        let err = parse_request(r#"{"op":"warp"}"#).unwrap_err();
        let RequestError::Invalid(inv) = err else { panic!("expected invalid, got {err:?}") };
        assert_eq!(inv.message, "unknown op \"warp\" (admit|release|query|stats)");
    }

    #[test]
    fn invalid_task_params_are_validated_on_conversion() {
        let req = parse_request(
            r#"{"op":"admit","task":{"exec":-1.0,"deadline":5.0,"period":5.0,"area":2}}"#,
        )
        .unwrap();
        let Op::Admit(admit) = req.op else { panic!("expected admit") };
        assert!(admit.task.to_task().is_err());
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(matches!(parse_request("{not json"), Err(RequestError::Malformed(_))));
        assert!(matches!(parse_request(r#"{"task":{}}"#), Err(RequestError::Malformed(_))),);
    }

    #[test]
    fn v2_requests_parse_with_session_routing() {
        let req = parse_request(
            r#"{"session":"alice","op":"admit","task":{"exec":1.0,"deadline":5.0,"period":5.0,"area":2},"margins":true}"#,
        )
        .unwrap();
        assert_eq!(req.route, Route::Session);
        assert_eq!(req.op.session(), "alice");
        let Op::Admit(admit) = req.op else { panic!("expected admit") };
        assert!(admit.margins);
        for op in ["create", "pause", "resume", "snapshot", "destroy", "stats", "query"] {
            let req = parse_request(&format!(r#"{{"session":"s","op":"{op}"}}"#)).unwrap();
            assert_eq!(req.op.name(), op);
            assert_eq!(req.op.session(), "s");
        }
    }

    #[test]
    fn v2_rejects_unknown_keys_by_name() {
        let err = parse_request(r#"{"session":"alice","op":"query","margin":true}"#).unwrap_err();
        let RequestError::Invalid(inv) = err else { panic!("expected invalid, got {err:?}") };
        assert_eq!(inv.session.as_deref(), Some("alice"));
        assert_eq!(inv.message, "unknown key `margin` in query request");
        // v1's `shard` key is not part of v2 framing.
        let err = parse_request(r#"{"session":"alice","op":"query","shard":1}"#).unwrap_err();
        let RequestError::Invalid(inv) = err else { panic!("expected invalid") };
        assert_eq!(inv.message, "unknown key `shard` in query request");
        // Nested unknown keys carry their path.
        let err = parse_request(
            r#"{"session":"a","op":"admit","task":{"exec":1.0,"deadline":5.0,"period":5.0,"area":2,"color":"red"}}"#,
        )
        .unwrap_err();
        let RequestError::Invalid(inv) = err else { panic!("expected invalid") };
        assert_eq!(inv.message, "unknown key `task.color`");
    }

    #[test]
    fn v2_unknown_op_error_names_all_ops() {
        let err = parse_request(r#"{"session":"alice","op":"warp"}"#).unwrap_err();
        let RequestError::Invalid(inv) = err else { panic!("expected invalid") };
        assert_eq!(inv.message, format!("unknown op \"warp\" ({V2_OPS})"));
    }

    #[test]
    fn v2_restore_snapshots_are_validated_at_parse_time() {
        let good = r#"{"session":"b","op":"restore","snapshot":{"lifecycle":"active","next_handle":2,"tasks":[{"handle":0,"task":{"exec":1.0,"deadline":5.0,"period":5.0,"area":2}}],"stats":{"decisions":1,"accepted":1,"rejected":0,"tiers":{"dp_inc":1,"gn1":0,"gn2":0,"exact":0}}}}"#;
        let req = parse_request(good).unwrap();
        let Op::Restore(restore) = req.op else { panic!("expected restore") };
        assert_eq!(restore.snapshot.tasks.len(), 1);
        assert_eq!(restore.snapshot.stats.decisions, 1);

        // Handle at/above the counter.
        let bad = good.replace("\"next_handle\":2", "\"next_handle\":0");
        let RequestError::Invalid(inv) = parse_request(&bad).unwrap_err() else {
            panic!("expected invalid")
        };
        assert!(inv.message.contains("not below next_handle"), "{}", inv.message);

        // Invalid task parameters.
        let bad = good.replace("\"exec\":1.0", "\"exec\":-1.0");
        let RequestError::Invalid(inv) = parse_request(&bad).unwrap_err() else {
            panic!("expected invalid")
        };
        assert!(inv.message.contains("snapshot.tasks[0].task` is invalid"), "{}", inv.message);

        // Unknown lifecycle state.
        let bad = good.replace("\"lifecycle\":\"active\"", "\"lifecycle\":\"zombie\"");
        assert!(matches!(parse_request(&bad), Err(RequestError::Invalid(_))));
    }

    #[test]
    fn session_snapshot_round_trips_through_serde() {
        let snap = SessionSnapshot {
            lifecycle: "paused".to_string(),
            next_handle: 3,
            tasks: vec![SnapshotTask {
                handle: 1,
                task: TaskParams { exec: 1.0, deadline: 4.0, period: 4.0, area: 2 },
            }],
            stats: QueryStats {
                decisions: 2,
                accepted: 1,
                rejected: 1,
                tiers: TierCounts { dp_inc: 2, ..TierCounts::default() },
            },
        };
        let line = serde_json::to_string(&snap).unwrap();
        let back: SessionSnapshot = serde_json::from_str(&line).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn session_shard_is_stable_and_in_range() {
        // Pinned values: recorded multi-session transcripts depend on this
        // hash never changing.
        assert_eq!(session_shard("default", 4), session_shard("default", 4));
        for shards in [1, 2, 4, 7] {
            for name in ["default", "alice", "bob", "s0", "s1"] {
                assert!(session_shard(name, shards) < shards);
            }
        }
        assert_eq!(session_shard("anything", 1), 0);
    }

    #[test]
    fn stats_total_through_the_registry_fold() {
        let registry = Registry::new();
        let a = QueryStats {
            decisions: 5,
            accepted: 3,
            rejected: 2,
            tiers: TierCounts { dp_inc: 2, gn1: 1, gn2: 1, exact: 1 },
        };
        let b = QueryStats {
            decisions: 4,
            accepted: 4,
            rejected: 0,
            tiers: TierCounts { dp_inc: 4, gn1: 0, gn2: 0, exact: 0 },
        };
        a.fold_into(&registry);
        b.fold_into(&registry);
        let total = QueryStats::from_snapshot(&registry.snapshot());
        assert_eq!(total.decisions, 9);
        assert_eq!(total.accepted, 7);
        assert_eq!(total.rejected, 2);
        assert_eq!(total.tiers.total(), 9);
        assert_eq!(total.tiers.dp_inc, 6);
        assert_eq!(total.tiers.exact, 1);
    }

    #[test]
    fn stats_from_empty_snapshot_are_zero() {
        let total = QueryStats::from_snapshot(&Registry::new().snapshot());
        assert_eq!(total, QueryStats::default());
    }

    #[test]
    fn response_round_trips() {
        let resp = Response::ok("admit", 4)
            .id("r1")
            .verdict(true)
            .tier("dp-inc")
            .margin(Some(1.25))
            .build();
        let line = render_response(&resp);
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn v1_responses_omit_the_v2_keys_entirely() {
        let line = render_response(&Response::ok("query", 0).id("q").build());
        assert!(!line.contains("session"), "{line}");
        assert!(!line.contains("lifecycle"), "{line}");
        assert!(!line.contains("snapshot"), "{line}");
        // And a v2 response carries them after the legacy fields.
        let line = render_response(
            &Response::ok("pause", 1).id("p").session("alice").lifecycle("paused").build(),
        );
        assert!(line.ends_with(r#""session":"alice","lifecycle":"paused"}"#), "{line}");
    }

    // ------------------------------------------------ codec vs reference

    /// Every recorded request line: 192 lines over the three transcripts.
    fn golden_request_lines() -> impl Iterator<Item = &'static str> {
        [
            include_str!("../testdata/requests.jsonl"),
            include_str!("../testdata/resubmit.requests.jsonl"),
            include_str!("../testdata/sessions.requests.jsonl"),
        ]
        .into_iter()
        .flat_map(str::lines)
    }

    /// `parse_request` must give exactly what the `Value` parser gives.
    /// `Debug` text is compared because it tells `-0.0` from `0.0`, which
    /// `==` does not.
    fn assert_parses_like_reference(line: &str) {
        let fast = format!("{:?}", parse_request(line));
        let reference = format!("{:?}", parse_request_value(line));
        assert_eq!(fast, reference, "line {line:?}");
    }

    fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
        items[rng.gen_range(0..items.len())]
    }

    /// String literals the scanner takes: plain, non-ASCII, a raw tab.
    const STRINGS: &[&str] =
        &[r#""alice""#, r#""default""#, r#""s-7""#, r#""Zoë 日本""#, "\"raw\ttab\""];
    /// String literals it leaves to the `Value` parser: empty (an error
    /// as a session), escaped, and an invalid escape.
    const HOSTILE_STRINGS: &[&str] = &[
        r#""""#,
        r#""a\"b""#,
        r#""back\\slash""#,
        r#""line\nbreak""#,
        r#""alice""#,
        r#""\/""#,
        r#""bad\x""#,
    ];
    /// Unsigned integers in `u32` range, including `-0` and leading zeros.
    const UINTS: &[&str] = &["0", "2", "7", "-0", "007", "4294967295"];
    /// Numbers only a task time takes: signed zero, fractions, exponents,
    /// integers past `u32`, `i64` and `u64`.
    const FLOATS: &[&str] = &[
        "1.0",
        "0.95",
        "-0.0",
        "1e2",
        "1E-7",
        "2.5e+3",
        "1.",
        "-1",
        "4294967296",
        "9223372036854775807",
        "9223372036854775808",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775809",
    ];
    /// Text the number rule rejects or that no key takes.
    const HOSTILE_NUMBERS: &[&str] = &["-", "1e", "+1", ".5", "01.5.2", "1e999"];
    /// Values of the wrong JSON type for any key.
    const OTHERS: &[&str] = &["null", "true", "false", "{}", "[]", "[1,2]", r#""x""#, "3"];

    /// Request-line generator. A clean line draws only what the scanner
    /// takes, so the property covers its path; a hostile line may also
    /// draw escapes, wrong types, odd numbers, form feeds, missing,
    /// repeated and unknown keys, and trailing bytes.
    struct LineGen {
        rng: StdRng,
        hostile: bool,
        op: String,
    }

    impl LineGen {
        fn new(seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let hostile = rng.gen_bool(0.5);
            LineGen { rng, hostile, op: String::new() }
        }

        /// A draw from `clean`, or on a hostile line now and then from
        /// `hostile`.
        fn pick(&mut self, clean: &[&'static str], hostile: &[&'static str]) -> String {
            let pool = if self.hostile && self.rng.gen_bool(0.15) { hostile } else { clean };
            pick(&mut self.rng, pool).to_string()
        }

        fn chance(&mut self, p: f64) -> bool {
            self.hostile && self.rng.gen_bool(p)
        }

        fn uint(&mut self) -> String {
            match self.rng.gen_range(0..3) {
                0 => self.rng.gen_range(0..20u32).to_string(),
                _ => self.pick(UINTS, &[HOSTILE_NUMBERS, FLOATS].concat()),
            }
        }

        fn float(&mut self) -> String {
            match self.rng.gen_range(0..3) {
                0 => format!("{:?}", self.rng.gen_range(0.0..100.0)),
                1 => self.pick(FLOATS, HOSTILE_NUMBERS),
                _ => self.uint(),
            }
        }

        /// A value for `key`: of the key's protocol type, except now and
        /// then on a hostile line.
        fn value(&mut self, key: &str) -> String {
            if self.chance(0.1) {
                return pick(&mut self.rng, OTHERS).to_string();
            }
            match key {
                "op" => format!("\"{}\"", self.op),
                "task" => self.task(),
                "margins" => pick(&mut self.rng, &["true", "false"]).to_string(),
                "handle" | "shard" | "area" => self.uint(),
                "exec" | "deadline" | "period" => self.float(),
                "snapshot" => r#"{"lifecycle":"paused","next_handle":1,"tasks":[],"stats":{"decisions":0,"accepted":0,"rejected":0,"tiers":{"dp_inc":0,"gn1":0,"gn2":0,"exact":0}}}"#.to_string(),
                _ => self.pick(STRINGS, HOSTILE_STRINGS),
            }
        }

        /// Whitespace between tokens: usually none, else bytes the shim
        /// skips; a hostile line may draw a form feed, which it does not.
        fn ws(&mut self) -> String {
            if self.rng.gen_bool(0.8) {
                String::new()
            } else {
                self.pick(&[" ", "\t", "\n", "\r", "  \t"], &["\u{0c}"])
            }
        }

        /// An object of `keys`, shuffled, with generated whitespace; a
        /// hostile line may drop or repeat a key.
        fn object(&mut self, mut keys: Vec<&str>) -> String {
            for i in (1..keys.len()).rev() {
                keys.swap(i, self.rng.gen_range(0..=i));
            }
            if !keys.is_empty() && self.chance(0.05) {
                keys.remove(self.rng.gen_range(0..keys.len()));
            }
            if !keys.is_empty() && self.chance(0.05) {
                keys.push(keys[self.rng.gen_range(0..keys.len())]);
            }
            let mut out = format!("{{{}", self.ws());
            for (i, key) in keys.into_iter().enumerate() {
                if i > 0 {
                    out += &format!("{},{}", self.ws(), self.ws());
                }
                out += &format!("\"{key}\"{}:{}{}", self.ws(), self.ws(), self.value(key));
            }
            out + &format!("{}}}", self.ws())
        }

        fn task(&mut self) -> String {
            let mut keys = vec!["exec", "deadline", "period", "area"];
            if self.chance(0.1) {
                keys.push(pick(&mut self.rng, &["color", "exec"]));
            }
            self.object(keys)
        }

        /// A v1 or v2 request line of any op.
        fn line(&mut self) -> String {
            let v2 = self.rng.gen_bool(0.6);
            self.op = self.pick(
                &[
                    "admit", "admit", "admit", "release", "query", "stats", "create", "pause",
                    "resume", "snapshot", "destroy",
                ],
                &["restore", "warp"],
            );
            let mut keys = vec!["op"];
            if v2 {
                keys.push("session");
            } else if self.rng.gen_bool(0.3) {
                keys.push("shard");
            }
            if self.rng.gen_bool(0.5) {
                keys.push("id");
            }
            match self.op.as_str() {
                "admit" => keys.push("task"),
                "release" => keys.push("handle"),
                "restore" => keys.push("snapshot"),
                _ => {}
            }
            if matches!(self.op.as_str(), "admit" | "query") && self.rng.gen_bool(0.5) {
                keys.push("margins");
            }
            // Another op's payload key (v2 rejects it, v1 ignores it), or
            // one no op takes.
            if self.rng.gen_bool(0.15) {
                let extra = ["task", "handle", "margins", "shard", "session", "snapshot", "debug"];
                keys.push(pick(&mut self.rng, &extra));
            }
            let body = self.object(keys);
            let tail = if self.chance(0.05) {
                pick(&mut self.rng, &[" x", "}", ",", "\n", "{}"])
            } else {
                ""
            };
            format!("{}{body}{tail}", self.ws())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        fn generated_requests_parse_like_the_reference(seed in 0u64..u64::MAX) {
            assert_parses_like_reference(&LineGen::new(seed).line());
        }
    }

    #[test]
    fn generated_requests_reach_both_paths() {
        // The differential property above is only as strong as its mix:
        // a fair share of its lines must take the scanner, and a fair
        // share must fall back.
        let lines: Vec<String> = (0..2000).map(|seed| LineGen::new(seed).line()).collect();
        let scanned = lines.iter().filter(|l| codec::scan_request(l).is_some()).count();
        let rejected = lines.iter().filter(|l| parse_request_value(l).is_err()).count();
        assert!(scanned > 600, "scanned {scanned} of 2000");
        assert!(rejected > 600, "rejected {rejected} of 2000");
    }

    #[test]
    fn cut_and_corrupted_golden_lines_parse_like_the_reference() {
        for line in golden_request_lines() {
            for cut in 0..=line.len() {
                if let Some(prefix) = line.get(..cut) {
                    assert_parses_like_reference(prefix);
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(11);
        for line in golden_request_lines() {
            for _ in 0..16 {
                let mut bytes = line.as_bytes().to_vec();
                for _ in 0..rng.gen_range(1..=3) {
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] = if rng.gen_bool(0.5) {
                        rng.gen::<u32>() as u8
                    } else {
                        *pick(&mut rng, &["\"", "\\", "{", "}", ",", ":", "-", "0", "e", " "])
                            .as_bytes()
                            .first()
                            .unwrap()
                    };
                }
                assert_parses_like_reference(&String::from_utf8_lossy(&bytes));
            }
        }
    }

    #[test]
    fn the_scanner_takes_every_well_formed_golden_request() {
        // A line may fall back only when it is a `restore`, an error, or a
        // lenient v1 line carrying a key outside the protocol's.
        const KEYS: &[&str] = &["id", "session", "op", "shard", "task", "handle", "margins"];
        let (mut scanned, mut total) = (0, 0);
        for line in golden_request_lines() {
            total += 1;
            let reference = parse_request_value(line);
            match codec::scan_request(line) {
                Some(fast) => {
                    scanned += 1;
                    assert_eq!(
                        format!("{:?}", Ok::<_, RequestError>(fast)),
                        format!("{reference:?}")
                    );
                }
                None => {
                    let value: Value = serde_json::from_str(line).unwrap_or(Value::Null);
                    let extra_key = value.as_map().is_some_and(|entries| {
                        entries.iter().any(|(k, _)| !KEYS.contains(&k.as_str()))
                    });
                    let restore = matches!(&reference, Ok(Request { op: Op::Restore(_), .. }));
                    assert!(reference.is_err() || restore || extra_key, "fell back on {line}");
                }
            }
        }
        assert_eq!(total, 192);
        assert_eq!(scanned, 188, "lines the scanner takes");
    }

    /// String contents covering every escape, the characters around them
    /// and non-ASCII text.
    const TEXTS: &[&str] = &[
        "",
        "req-7",
        "accept",
        "dp-inc",
        "quote \" inside",
        "back\\slash",
        "new\nline",
        "cr\rtab\t",
        "bell\u{07}bs\u{08}ff\u{0c}",
        "\u{00}\u{01}\u{1f}",
        "\u{7f} del is not escaped",
        "/ solidus",
        "Zoë 日本 🦀",
    ];

    fn text(rng: &mut StdRng) -> String {
        let mut out = String::new();
        for _ in 0..rng.gen_range(1..=2) {
            out.push_str(TEXTS[rng.gen_range(0..TEXTS.len())]);
        }
        out
    }

    fn opt<T>(rng: &mut StdRng, make: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
        if rng.gen_bool(0.5) {
            Some(make(rng))
        } else {
            None
        }
    }

    fn big_u64(rng: &mut StdRng) -> u64 {
        match rng.gen_range(0..4) {
            0 => u64::MAX - rng.gen_range(0..2u64),
            1 => i64::MAX as u64 + rng.gen_range(0..2u64),
            _ => rng.gen_range(0..1000),
        }
    }

    fn float(rng: &mut StdRng) -> f64 {
        const SPECIAL: &[f64] =
            &[0.0, -0.0, 3.0, 1e-7, 1e16, 1e300, -2.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        match rng.gen_range(0..3) {
            0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
            1 => rng.gen_range(-10.0..10.0),
            _ => f64::from_bits(rng.gen::<u64>()),
        }
    }

    fn stats(rng: &mut StdRng) -> QueryStats {
        QueryStats {
            decisions: big_u64(rng),
            accepted: big_u64(rng),
            rejected: big_u64(rng),
            tiers: TierCounts {
                dp_inc: big_u64(rng),
                gn1: big_u64(rng),
                gn2: big_u64(rng),
                exact: big_u64(rng),
            },
        }
    }

    fn obs_snapshot(rng: &mut StdRng) -> Snapshot {
        let registry = Registry::with_mode(rng.gen_bool(0.5));
        registry.set_meta("mode", &text(rng));
        stats(rng).fold_into(&registry);
        registry.record_ns("admission/tier/gn2/decision_ns", rng.gen_range(0..10_000));
        registry.snapshot()
    }

    fn session_snapshot(rng: &mut StdRng) -> SessionSnapshot {
        SessionSnapshot {
            lifecycle: text(rng),
            next_handle: big_u64(rng),
            tasks: (0..rng.gen_range(0..3))
                .map(|_| SnapshotTask {
                    handle: big_u64(rng),
                    task: TaskParams {
                        exec: float(rng),
                        deadline: float(rng),
                        period: float(rng),
                        area: rng.gen(),
                    },
                })
                .collect(),
            stats: stats(rng),
        }
    }

    /// A response with every field drawn independently. Counts stay at or
    /// below `i64::MAX`: the reference writes a `usize` through `i64`.
    fn response(rng: &mut StdRng) -> Response {
        let count = |rng: &mut StdRng| rng.gen_range(0..=i64::MAX as u64) as usize;
        Response {
            id: text(rng),
            seq: big_u64(rng),
            op: text(rng),
            shard: rng.gen(),
            ok: rng.gen(),
            verdict: opt(rng, text),
            tier: opt(rng, text),
            handle: opt(rng, big_u64),
            tasks: opt(rng, count),
            ut: opt(rng, float),
            us: opt(rng, float),
            margin: opt(rng, float),
            margins: opt(rng, |rng| {
                (0..rng.gen_range(0..4))
                    .map(|_| PerTaskMargin {
                        index: count(rng),
                        handle: opt(rng, big_u64),
                        margin: float(rng),
                    })
                    .collect()
            }),
            stats: opt(rng, stats),
            obs: if rng.gen_bool(0.2) { Some(obs_snapshot(rng)) } else { None },
            reason: opt(rng, text),
            error: opt(rng, text),
            latency_us: opt(rng, big_u64),
            session: opt(rng, text),
            lifecycle: opt(rng, text),
            snapshot: if rng.gen_bool(0.2) { Some(session_snapshot(rng)) } else { None },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn generated_responses_render_like_the_reference(seed in 0u64..u64::MAX) {
            let resp = response(&mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(render_response(&resp), serde_json::to_string(&resp).unwrap());
        }
    }
}
