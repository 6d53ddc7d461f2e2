//! What the service workloads share: the request lines a tenant sends, the
//! fields read back from each response, the in-process
//! [`AdmissionController`] replica that serves as the correctness oracle,
//! and the per-layer probes a traced run times around the replica and the
//! protocol functions.

use crate::stats::{mean, nanos, quantile, ratio, Metrics};
use fpga_rt_analysis::{
    AnalysisSeries, BatchAnalyzer, DpTest, Gn1Test, Gn2Test, SchedTest, ScratchSpace,
};
use fpga_rt_loadgen::OpKind;
use fpga_rt_model::{Fpga, TaskHandle, TaskSet};
use fpga_rt_service::{
    parse_request, render_response, AdmissionController, ControllerConfig, Response, TaskParams,
    Tier,
};
use std::collections::VecDeque;
use std::time::Instant;

/// Device width of every session (the loadgen and BENCH_6 configuration).
pub const COLUMNS: u32 = 100;

/// Per-session verdict-cache capacity: `fpga-rt serve`'s default.
pub const CACHE_ENTRIES: usize = 1024;

/// Γ∪{candidate} snapshots kept for the analysis probes.
const MAX_SNAPSHOTS: usize = 2000;

/// Wire names of the cascade tiers, indexed by [`Outcome::tier`] (0 = no
/// tier on the response).
pub const TIERS: [&str; 5] = ["", "dp-inc", "gn1", "gn2", "exact"];

fn tier_code(tier: Tier) -> u8 {
    match tier {
        Tier::IncrementalDp => 1,
        Tier::Gn1 => 2,
        Tier::Gn2 => 3,
        Tier::Exact => 4,
    }
}

/// One operation as a tenant sends it: releases name the handle an earlier
/// admit returned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sent {
    /// Admit a task.
    Admit(TaskParams),
    /// Release a live task by handle.
    Release(u64),
    /// Re-check the live set.
    Query,
}

impl Sent {
    /// The protocol-v2 request line (without newline). Floats print in
    /// shortest round-trip form, so the service parses the exact bits the
    /// oracle replays.
    pub fn line(&self, session: &str) -> String {
        match self {
            Sent::Admit(t) => format!(
                "{{\"session\":\"{session}\",\"op\":\"admit\",\"task\":{{\"exec\":{:?},\"deadline\":{:?},\"period\":{:?},\"area\":{}}}}}",
                t.exec, t.deadline, t.period, t.area
            ),
            Sent::Release(h) => {
                format!("{{\"session\":\"{session}\",\"op\":\"release\",\"handle\":{h}}}")
            }
            Sent::Query => format!("{{\"session\":\"{session}\",\"op\":\"query\"}}"),
        }
    }

    /// The operation name a response must echo.
    pub fn op(&self) -> &'static str {
        match self {
            Sent::Admit(_) => "admit",
            Sent::Release(_) => "release",
            Sent::Query => "query",
        }
    }
}

/// A lifecycle request line (`create` / `destroy`).
pub fn lifecycle_line(session: &str, op: &str) -> String {
    format!("{{\"session\":\"{session}\",\"op\":\"{op}\"}}")
}

/// Resolve one synthesized stream op against a tenant's FIFO of live
/// handles: a release frees the oldest handle, or degrades to a query when
/// nothing is live (the loadgen rule). The driver applies it to handles the
/// service returned, the oracle to its own.
pub fn resolve(kind: &OpKind, live: &mut VecDeque<u64>) -> Sent {
    match kind {
        OpKind::Admit(params) => Sent::Admit(*params),
        OpKind::Release => live.pop_front().map_or(Sent::Query, Sent::Release),
        OpKind::Query => Sent::Query,
    }
}

/// What one response said, packed into a `u64` for the per-session logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Protocol-level success.
    pub ok: bool,
    /// Verdict `accept`.
    pub accepted: bool,
    /// Index into [`TIERS`].
    pub tier: u8,
    /// Handle assigned by an accepted admit or echoed by a release.
    pub handle: Option<u64>,
}

impl Outcome {
    /// Pack into one word: bit 0 ok, bit 1 accepted, bits 2–4 tier, bits
    /// 8.. handle + 1 (0 = none).
    pub fn pack(self) -> u64 {
        u64::from(self.ok)
            | u64::from(self.accepted) << 1
            | u64::from(self.tier) << 2
            | self.handle.map_or(0, |h| (h + 1) << 8)
    }
}

/// The fields of a response line the benchmark checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply<'a> {
    /// Echoed operation.
    pub op: &'a str,
    /// Per-connection sequence number.
    pub seq: u64,
    /// Live tasks after the operation.
    pub tasks: u64,
    /// Verdict, tier and handle.
    pub outcome: Outcome,
}

/// Raw text of `"key":<value>` in a flat response line (strings without
/// their quotes). Response keys come first in a fixed order and the early
/// values hold no quotes or commas, so a scan is exact for the keys read
/// here.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let at = line.find(&pattern)? + pattern.len();
    let rest = &line[at..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| &s[..end]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Scan a response line. `None` when a checked field is missing or
/// malformed.
pub fn parse_reply(line: &str) -> Option<Reply<'_>> {
    let ok = field(line, "ok")? == "true";
    let accepted = field(line, "verdict")? == "accept";
    let tier = match field(line, "tier")? {
        "null" => 0,
        name => TIERS.iter().position(|t| *t == name)? as u8,
    };
    let handle = match field(line, "handle")? {
        "null" => None,
        h => Some(h.parse().ok()?),
    };
    let tasks = match field(line, "tasks")? {
        "null" => 0,
        n => n.parse().ok()?,
    };
    Some(Reply {
        op: field(line, "op")?,
        seq: field(line, "seq")?.parse().ok()?,
        tasks,
        outcome: Outcome { ok, accepted, tier, handle },
    })
}

/// Per-layer timings a traced run collects around the replica.
#[derive(Debug, Default)]
pub struct ControllerProbe {
    admit_ns: [Vec<f64>; 5],
    query_ns: Vec<f64>,
    release_ns: Vec<f64>,
    live_before_admit: Vec<f64>,
    /// Γ∪{candidate} of GN2-tier admit decisions (first [`MAX_SNAPSHOTS`]).
    snapshots: Vec<TaskSet<f64>>,
    /// Ops (by per-session index, one per closed-loop step) whose
    /// controller time is summed per pool lane.
    window: std::ops::Range<u64>,
    lanes: usize,
    lane_ns: Vec<f64>,
}

impl ControllerProbe {
    /// A probe summing controller time over ops `window`, per step and per
    /// pool worker (`lanes`).
    pub fn new(window: std::ops::Range<u64>, lanes: usize) -> Self {
        let steps = (window.end - window.start) as usize;
        ControllerProbe { window, lanes, lane_ns: vec![0.0; steps * lanes], ..Default::default() }
    }

    /// Controller time on the critical path of each step of the window:
    /// the busiest worker's share (workers serve their shards in parallel).
    pub fn critical_path_steps_ns(&self) -> Vec<f64> {
        self.lane_ns
            .chunks(self.lanes.max(1))
            .map(|c| c.iter().cloned().fold(0.0, f64::max))
            .collect()
    }
}

/// The oracle: one in-process [`AdmissionController`] per session with the
/// service's own controller and cache configuration, fed the same ops.
#[derive(Debug, Clone)]
pub struct Replica {
    ctl: AdmissionController,
    /// Live handles, oldest first (the FIFO [`resolve`] pops).
    pub live: VecDeque<u64>,
    /// The pool worker the service runs this session on.
    pub lane: usize,
}

impl Replica {
    /// A fresh session.
    pub fn new() -> Self {
        let device = Fpga::new(COLUMNS).expect("COLUMNS is positive");
        Replica {
            ctl: AdmissionController::new(device, ControllerConfig::default())
                .with_cache(Some(CACHE_ENTRIES)),
            live: VecDeque::new(),
            lane: 0,
        }
    }

    /// The same session, served by pool worker `lane`.
    pub fn with_lane(mut self, lane: usize) -> Self {
        self.lane = lane;
        self
    }

    /// Apply op number `index` of this session and return the outcome the
    /// service must have answered. With a probe, the controller call is
    /// timed and GN2-tier candidates are snapshotted.
    pub fn apply(
        &mut self,
        sent: &Sent,
        index: u64,
        probe: Option<&mut ControllerProbe>,
    ) -> Outcome {
        let live_before = self.ctl.len();
        let start = Instant::now();
        let (outcome, tier) = match sent {
            Sent::Admit(params) => {
                let task = params.to_task().expect("generated task parameters validate");
                let (decision, handle) = self.ctl.admit(task, false);
                if let Some(h) = handle {
                    self.live.push_back(h.0);
                }
                let code = tier_code(decision.tier);
                let outcome = Outcome {
                    ok: true,
                    accepted: decision.accepted,
                    tier: code,
                    handle: handle.map(|h| h.0),
                };
                (outcome, Some(code))
            }
            Sent::Release(h) => {
                let ok = self.ctl.release(TaskHandle(*h)).is_ok();
                self.live.retain(|x| x != h);
                (Outcome { ok, accepted: false, tier: 0, handle: Some(*h) }, None)
            }
            Sent::Query => {
                let decision = self.ctl.query(false);
                let outcome = Outcome {
                    ok: true,
                    accepted: decision.accepted,
                    tier: tier_code(decision.tier),
                    handle: None,
                };
                (outcome, None)
            }
        };
        let ns = nanos(start.elapsed()) as f64;
        if let Some(probe) = probe {
            if probe.window.contains(&index) {
                let step = (index - probe.window.start) as usize;
                probe.lane_ns[step * probe.lanes + self.lane] += ns;
            }
            match (sent, tier) {
                (Sent::Admit(params), Some(code)) => {
                    probe.admit_ns[usize::from(code)].push(ns);
                    probe.live_before_admit.push(live_before as f64);
                    if code == 3 && probe.snapshots.len() < MAX_SNAPSHOTS {
                        let task = params.to_task().expect("validated above");
                        let live = self.ctl.live();
                        let snapshot = if outcome.accepted {
                            live.snapshot()
                        } else {
                            live.snapshot_with(&task)
                        };
                        probe.snapshots.extend(snapshot.ok());
                    }
                }
                (Sent::Release(_), _) => probe.release_ns.push(ns),
                _ => probe.query_ns.push(ns),
            }
        }
        outcome
    }
}

/// Controller, cache and analysis metrics of a traced run.
pub fn controller_metrics(probe: &mut ControllerProbe, replicas: &[Replica], m: &mut Metrics) {
    let admits: usize = probe.admit_ns.iter().map(Vec::len).sum();
    for (code, name) in TIERS.iter().enumerate().skip(1) {
        let samples = &mut probe.admit_ns[code];
        m.set(&format!("controller.tier_share.{name}"), ratio(samples.len() as f64, admits as f64));
        m.set(&format!("controller.admit_ns.{name}.p50"), quantile(samples, 0.5));
    }
    m.set("controller.admit_ns.gn2.p99", quantile(&mut probe.admit_ns[3], 0.99));
    m.set("controller.query_ns.p50", quantile(&mut probe.query_ns, 0.5));
    m.set("controller.query_ns.p99", quantile(&mut probe.query_ns, 0.99));
    m.set("controller.release_ns.p50", quantile(&mut probe.release_ns, 0.5));
    m.set("controller.live_tasks.mean", mean(&probe.live_before_admit));
    let (hits, misses, evictions) = cache_totals(replicas);
    m.set("cache.hit_ratio", ratio(hits as f64, (hits + misses) as f64));
    m.set("cache.evictions", evictions as f64);
    analysis_metrics(&probe.snapshots, m);
}

/// Verdict-cache `(hits, misses, evictions)` summed over the replicas. The
/// replicas see the service's exact lookups, so these are the service's
/// counts.
pub fn cache_totals(replicas: &[Replica]) -> (u64, u64, u64) {
    replicas
        .iter()
        .filter_map(|r| r.ctl.cache())
        .fold((0, 0, 0), |(h, mi, e), c| (h + c.hits(), mi + c.misses(), e + c.evictions()))
}

/// Time the scalar DP/GN1/GN2 tests and the batch GN2 kernel on captured
/// Γ∪{candidate} snapshots, and count GN2's λ candidates per task.
fn analysis_metrics(snapshots: &[TaskSet<f64>], m: &mut Metrics) {
    let device = Fpga::new(COLUMNS).expect("COLUMNS is positive");
    let (dp, gn1, gn2) = (DpTest::default(), Gn1Test::default(), Gn2Test::default());
    let mut scratch = ScratchSpace::new();
    let (mut dp_ns, mut gn1_ns, mut gn2_ns, mut batch_ns) = (vec![], vec![], vec![], vec![]);
    let mut candidates = Vec::new();
    for ts in snapshots {
        let time = |f: &mut dyn FnMut() -> bool| {
            let start = Instant::now();
            std::hint::black_box(f());
            nanos(start.elapsed()) as f64
        };
        dp_ns.push(time(&mut || dp.check(ts, &device).accepted()));
        gn1_ns.push(time(&mut || gn1.check(ts, &device).accepted()));
        gn2_ns.push(time(&mut || gn2.check(ts, &device).accepted()));
        batch_ns.push(time(&mut || {
            BatchAnalyzer::new()
                .analyze_series(AnalysisSeries::Gn2, ts, &device, &mut scratch)
                .accepted
        }));
        for k in 0..ts.len() {
            candidates.push(gn2.lambda_candidates(ts, k).len() as f64);
        }
    }
    m.set("analysis.dp_ns.p50", quantile(&mut dp_ns, 0.5));
    m.set("analysis.gn1_ns.p50", quantile(&mut gn1_ns, 0.5));
    m.set("analysis.gn2_ns.p50", quantile(&mut gn2_ns, 0.5));
    m.set("analysis.gn2_ns.p99", quantile(&mut gn2_ns, 0.99));
    m.set("analysis.batch_gn2_ns.p50", quantile(&mut batch_ns, 0.5));
    m.set("analysis.batch_gn2_ns.p99", quantile(&mut batch_ns, 0.99));
    m.set("analysis.gn2_lambda_candidates.mean", mean(&candidates));
}

/// Time `parse_request` on sent request lines and `render_response` on the
/// responses the service returned for them (deserialized first, untimed).
/// Returns the mean render time, which the pool-overhead estimate needs.
pub fn protocol_metrics(pairs: &[(String, String)], m: &mut Metrics) -> f64 {
    let (mut parse_ns, mut render_ns) = (Vec::new(), Vec::new());
    for (request, response) in pairs {
        let start = Instant::now();
        let parsed = std::hint::black_box(parse_request(request));
        parse_ns.push(nanos(start.elapsed()) as f64);
        debug_assert!(parsed.is_ok(), "{request}");
        let response: Response = match serde_json::from_str(response) {
            Ok(r) => r,
            Err(_) => continue,
        };
        let start = Instant::now();
        std::hint::black_box(render_response(&response));
        render_ns.push(nanos(start.elapsed()) as f64);
    }
    let render_mean = mean(&render_ns);
    m.set("protocol.parse_ns.p50", quantile(&mut parse_ns, 0.5));
    m.set("protocol.render_ns.p50", quantile(&mut render_ns, 0.5));
    render_mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_scan_reads_the_checked_fields() {
        let line = r#"{"id":"req-3","seq":3,"op":"admit","shard":3,"ok":true,"verdict":"accept","tier":"dp-inc","handle":0,"tasks":1,"ut":0.2,"us":0.4,"margin":7.2,"margins":null,"stats":null,"obs":null,"reason":null,"error":null,"latency_us":0,"session":"alpha"}"#;
        let reply = parse_reply(line).unwrap();
        assert_eq!(reply.op, "admit");
        assert_eq!(reply.seq, 3);
        assert_eq!(reply.tasks, 1);
        assert_eq!(reply.outcome, Outcome { ok: true, accepted: true, tier: 1, handle: Some(0) });
    }

    #[test]
    fn request_lines_parse_back_to_the_same_task() {
        let params = TaskParams { exec: 0.1 + 0.2, deadline: 7.0, period: 7.0, area: 3 };
        let line = Sent::Admit(params).line("s1");
        let request = parse_request(&line).unwrap();
        match request.op {
            fpga_rt_service::Op::Admit(p) => assert_eq!(p.task, params),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn replica_answers_like_the_service() {
        let mut replica = Replica::new();
        let params = TaskParams { exec: 1.0, deadline: 5.0, period: 5.0, area: 2 };
        let first = replica.apply(&Sent::Admit(params), 0, None);
        assert_eq!(first, Outcome { ok: true, accepted: true, tier: 1, handle: Some(0) });
        let release = resolve(&OpKind::Release, &mut replica.live);
        assert_eq!(release, Sent::Release(0));
        assert!(replica.apply(&release, 1, None).ok);
        assert_eq!(resolve(&OpKind::Release, &mut replica.live), Sent::Query);
    }
}
