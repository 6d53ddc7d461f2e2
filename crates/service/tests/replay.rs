//! Golden-file replay of a recorded 112-request admission session.
//!
//! `testdata/requests.jsonl` is `request_stream(100)` below, pinned byte
//! for byte by `request_fixture_is_its_generator`; after an intended
//! change to the generator, rewrite the fixture from that function's
//! output. `testdata/responses.golden.jsonl` comes from piping it through
//! `fpga-rt serve --columns 10 --shards 4 --batch 16 --deterministic`
//! (the CI pipeline re-runs that exact pipe and diffs). The session is
//! scripted so every cascade tier decides at least one request.
//!
//! `testdata/poisson.requests.jsonl` is `poisson_request_stream(POISSON_OPS)`
//! (pinned by `poisson_fixture_is_its_generator`): one v2 session on a
//! 100-column device fed loadgen's `poisson` stream, so the live set grows
//! to dozens of tasks and GN2 decides most admissions. Its golden comes
//! from `fpga-rt serve --columns 100 --shards 4 --batch 16 --deterministic`.

mod poisson_stream;

use fpga_rt_model::{Fpga, Task};
use fpga_rt_service::{
    serve_session, AdmissionController, ControllerConfig, Response, ServeConfig, SessionStats,
};
use poisson_stream::{poisson_stream, PoissonOp};
use std::collections::VecDeque;

const REQUESTS: &str = include_str!("../testdata/requests.jsonl");
const GOLDEN: &str = include_str!("../testdata/responses.golden.jsonl");

const POISSON_REQUESTS: &str = include_str!("../testdata/poisson.requests.jsonl");
const POISSON_GOLDEN: &str = include_str!("../testdata/poisson.responses.golden.jsonl");

const RESUBMIT_REQUESTS: &str = include_str!("../testdata/resubmit.requests.jsonl");
const RESUBMIT_GOLDEN: &str = include_str!("../testdata/resubmit.responses.golden.jsonl");

fn config() -> ServeConfig {
    ServeConfig { shards: 4, batch: 16, workers: 0, deterministic: true, ..ServeConfig::new(10) }
}

fn replay(config: &ServeConfig) -> (SessionStats, String) {
    let mut out = Vec::new();
    let stats = serve_session(&mut REQUESTS.as_bytes(), &mut out, config).expect("session runs");
    (stats, String::from_utf8(out).expect("utf-8"))
}

/// Scripted prologue: drive every cascade tier at least once.
///
/// Shards 1–3 replay the paper's Tables 2, 3 and 1 task-by-task; the second
/// admission of each lands on gn1, gn2 and exact respectively (the first
/// ones on dp-inc). Shard 0 then hosts protocol-error probes.
fn prologue(lines: &mut Vec<String>) {
    let admit = |shard: u32, c: f64, d: f64, t: f64, a: u32| {
        format!(
            r#"{{"op":"admit","shard":{shard},"task":{{"exec":{c:?},"deadline":{d:?},"period":{t:?},"area":{a}}}}}"#
        )
    };
    // Table 2 → gn1 decides the second admission.
    lines.push(admit(1, 4.50, 8.0, 8.0, 3));
    lines.push(admit(1, 8.00, 9.0, 9.0, 5));
    // Table 3 → gn2.
    lines.push(admit(2, 2.10, 5.0, 5.0, 7));
    lines.push(admit(2, 2.00, 7.0, 7.0, 7));
    // Table 1 → the second admission sits exactly on the DP bound: exact.
    lines.push(admit(3, 1.26, 7.0, 7.0, 9));
    lines.push(admit(3, 0.95, 5.0, 5.0, 6));
    // Per-task margins for the knife-edge shard.
    lines.push(r#"{"op":"query","shard":3,"margins":true}"#.to_string());
    // Protocol-level errors: stale handle, unknown op, invalid and
    // oversized tasks, and one malformed line.
    lines.push(r#"{"op":"release","shard":0,"handle":40}"#.to_string());
    lines.push(r#"{"op":"warp","shard":0}"#.to_string());
    lines.push(
        r#"{"op":"admit","shard":0,"task":{"exec":-1.0,"deadline":5.0,"period":5.0,"area":2}}"#
            .to_string(),
    );
    lines.push(
        r#"{"op":"admit","shard":0,"task":{"exec":1.0,"deadline":5.0,"period":5.0,"area":99}}"#
            .to_string(),
    );
    lines.push("oops not json".to_string());
}

/// Deterministic churn: light admissions (guaranteed accepted on a
/// 10-column device at ≤ 6 outstanding), periodic releases of the oldest
/// task, periodic queries, and occasional gross-overload probes.
fn churn(lines: &mut Vec<String>, n: usize) {
    let mut outstanding: Vec<u64> = Vec::new();
    let mut next_handle: u64 = 0;
    for r in 0..n {
        if r % 10 == 9 {
            lines.push(r#"{"op":"query","shard":0}"#.to_string());
            continue;
        }
        if r % 17 == 13 {
            // Gross overload: rejected by the whole cascade (tier gn2).
            lines.push(
                r#"{"op":"admit","shard":0,"task":{"exec":4.9,"deadline":5.0,"period":5.0,"area":9}}"#
                    .to_string(),
            );
            continue;
        }
        if outstanding.len() >= 6 {
            let oldest = outstanding.remove(0);
            lines.push(format!(r#"{{"op":"release","shard":0,"handle":{oldest}}}"#));
            continue;
        }
        // Light task: UT ∈ [0.10, 0.22], area ∈ {1,2,3} → with at most six
        // outstanding, US(Γ) stays far below every bound.
        let ut = 0.10 + 0.02 * ((r % 7) as f64);
        let period = 4.0 + 0.5 * ((r % 13) as f64);
        let exec = ut * period;
        let area = 1 + (r % 3) as u32;
        let margins = if r % 25 == 7 { r#","margins":true"# } else { "" };
        lines.push(format!(
            r#"{{"op":"admit","shard":0,"task":{{"exec":{exec:?},"deadline":{period:?},"period":{period:?},"area":{area}}}{margins}}}"#
        ));
        outstanding.push(next_handle);
        next_handle += 1;
    }
}

/// The full deterministic request stream: the prologue plus `n` churn
/// requests.
fn request_stream(n: usize) -> String {
    let mut lines = Vec::new();
    prologue(&mut lines);
    churn(&mut lines, n);
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Ops of loadgen's poisson stream in the GN2-heavy fixture.
const POISSON_OPS: usize = 500;

/// The GN2-heavy request stream: loadgen's `poisson` ops (seed 7) for one
/// v2 session on 100 columns. Every 5th admit is rewritten to a deadline
/// below its period and every 7th to one above it (GN2's case 2 and its
/// density λ candidates need `D > T`); every 25th asks for margin rows.
/// A release names the session's oldest live handle, as loadgen's replay
/// does, which a controller fed the same admits tracks; with nothing live
/// it degrades to a query.
fn poisson_request_stream(ops: usize) -> String {
    let session = "poisson";
    let mut ctl = AdmissionController::new(Fpga::new(100).unwrap(), ControllerConfig::default());
    let mut live = VecDeque::new();
    let mut lines = vec![format!(r#"{{"session":"{session}","op":"create"}}"#)];
    let query = format!(r#"{{"session":"{session}","op":"query"}}"#);
    let mut admits = 0usize;
    for (_, _, op) in poisson_stream(ops, 1, 100, 7) {
        match op {
            PoissonOp::Admit(exec, deadline, period, area) => {
                admits += 1;
                let deadline = match admits {
                    n if n % 5 == 0 => (0.8 * period).max(exec),
                    n if n % 7 == 0 => 1.5 * period,
                    _ => deadline,
                };
                let margins = admits % 25 == 0;
                let task = Task::new(exec, deadline, period, area).expect("valid candidate");
                live.extend(ctl.admit(task, margins).1);
                let margins = if margins { r#","margins":true"# } else { "" };
                lines.push(format!(
                    r#"{{"session":"{session}","op":"admit","task":{{"exec":{exec:?},"deadline":{deadline:?},"period":{period:?},"area":{area}}}{margins}}}"#
                ));
            }
            PoissonOp::Release => match live.pop_front() {
                Some(handle) => {
                    ctl.release(handle).expect("oldest handle is live");
                    lines.push(format!(
                        r#"{{"session":"{session}","op":"release","handle":{}}}"#,
                        handle.0
                    ));
                }
                None => lines.push(query.clone()),
            },
            PoissonOp::Query => lines.push(query.clone()),
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

#[test]
fn request_fixture_is_its_generator() {
    assert_eq!(request_stream(100), REQUESTS);
}

#[test]
fn poisson_fixture_is_its_generator() {
    assert_eq!(poisson_request_stream(POISSON_OPS), POISSON_REQUESTS);
}

/// The GN2-heavy transcript replays byte for byte at one and four workers,
/// and it is as heavy as it claims: dozens of live tasks and at least 100
/// decisions settled by the GN2 tier.
#[test]
fn poisson_session_matches_golden_and_is_gn2_heavy() {
    for workers in [1, 4] {
        let config = ServeConfig {
            shards: 4,
            batch: 16,
            workers,
            deterministic: true,
            ..ServeConfig::new(100)
        };
        let mut out = Vec::new();
        serve_session(&mut POISSON_REQUESTS.as_bytes(), &mut out, &config).expect("session runs");
        let out = String::from_utf8(out).expect("utf-8");
        for (i, (ours, golden)) in out.lines().zip(POISSON_GOLDEN.lines()).enumerate() {
            assert_eq!(ours, golden, "workers={workers}: transcript diverges at line {i}");
        }
        assert_eq!(out, POISSON_GOLDEN, "workers={workers}");
    }
    let responses: Vec<Response> =
        POISSON_GOLDEN.lines().map(|l| serde_json::from_str(l).expect("response JSON")).collect();
    let gn2 = responses.iter().filter(|r| r.tier.as_deref() == Some("gn2")).count();
    let live = responses.iter().filter_map(|r| r.tasks).max().unwrap_or(0);
    assert!(gn2 >= 100, "only {gn2} gn2-tier decisions");
    assert!(live >= 40, "at most {live} live tasks");
}

#[test]
fn session_matches_golden_transcript() {
    let (stats, out) = replay(&config());
    assert!(stats.requests >= 100, "recorded session has {} requests", stats.requests);
    // Line-by-line comparison gives a pinpointed failure before the full
    // assert (which would dump both transcripts).
    for (i, (ours, golden)) in out.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(ours, golden, "transcript diverges at response line {i}");
    }
    assert_eq!(out, GOLDEN);
}

#[test]
fn every_cascade_tier_decides_at_least_one_request() {
    let tiers: Vec<String> = GOLDEN
        .lines()
        .filter_map(|l| serde_json::from_str::<Response>(l).ok())
        .filter_map(|r| r.tier)
        .collect();
    for tier in ["dp-inc", "gn1", "gn2", "exact"] {
        assert!(
            tiers.iter().any(|t| t == tier),
            "no request in the recorded session was decided by tier {tier}"
        );
    }
}

/// The telemetry acceptance criterion: replaying the recorded session with
/// a live registry populates a per-tier decision-latency histogram for all
/// four cascade tiers, with counts matching the golden transcript's tier
/// mix, and deterministic mode zeroes every time-valued quantile.
#[test]
fn telemetry_covers_all_four_cascade_tiers() {
    use fpga_rt_obs::Obs;
    let mut out = Vec::new();
    let (_, snapshot) = fpga_rt_service::serve_session_with_obs(
        &mut REQUESTS.as_bytes(),
        &mut out,
        &config(),
        Obs::on(true),
    )
    .expect("session runs");
    // Query responses echo a tier too; only admissions record into the
    // per-tier decision histograms.
    let golden_tier_count = |tier: &str| {
        GOLDEN
            .lines()
            .filter_map(|l| serde_json::from_str::<Response>(l).ok())
            .filter(|r| r.op == "admit" && r.tier.as_deref() == Some(tier))
            .count() as u64
    };
    for tier in ["dp-inc", "gn1", "gn2", "exact"] {
        let name = format!("admission/tier/{tier}/decision_ns");
        let hist = snapshot.histogram(&name).unwrap_or_else(|| panic!("missing {name}"));
        assert!(hist.count > 0, "{name} recorded no decisions");
        assert_eq!(hist.count, golden_tier_count(tier), "{name} disagrees with the transcript");
        assert_eq!(hist.max, 0, "deterministic mode zeroes time values ({name})");
    }
    let depth = snapshot.histogram("admission/cascade_depth").expect("cascade depth histogram");
    assert!(depth.max >= 4, "the exact tier implies cascade depth 4");
}

/// The second recorded session: three shards each admit a knife-edge pair
/// (GN1 / exact / GN2 escalations), query with margins, release both, and
/// resubmit the identical pair for two more rounds. Rounds two and three
/// are verdict-cache hits by construction — this transcript pins the hit
/// path's replayed bytes, while the cache-off run proves the cache never
/// changes a single one of them.
#[test]
fn resubmission_session_matches_golden_and_hits_the_cache() {
    use fpga_rt_obs::Obs;
    let mut out = Vec::new();
    serve_session(&mut RESUBMIT_REQUESTS.as_bytes(), &mut out, &config()).expect("session runs");
    assert_eq!(String::from_utf8(out).expect("utf-8"), RESUBMIT_GOLDEN);

    // With a live registry the `stats` responses embed an obs snapshot, so
    // that run is for counters only: 3 shards × 2 resubmission rounds ×
    // (2 admits + 1 query) = 18 hits; the first round's 9 evaluations are
    // the only misses.
    let (_, snapshot) = fpga_rt_service::serve_session_with_obs(
        &mut RESUBMIT_REQUESTS.as_bytes(),
        &mut Vec::new(),
        &config(),
        Obs::on(true),
    )
    .expect("session runs");
    assert_eq!(snapshot.counter("admission/cache/hits"), Some(18));
    assert_eq!(snapshot.counter("admission/cache/misses"), Some(9));

    let off = ServeConfig { cache: None, ..config() };
    let mut out_off = Vec::new();
    serve_session(&mut RESUBMIT_REQUESTS.as_bytes(), &mut out_off, &off).expect("session runs");
    assert_eq!(
        String::from_utf8(out_off).expect("utf-8"),
        RESUBMIT_GOLDEN,
        "disabling the cache changed a response byte"
    );
}

#[test]
fn replay_is_deterministic_across_workers_and_batch_sizes() {
    let (_, reference) = replay(&config());
    for (workers, batch) in [(1, 16), (2, 16), (4, 16), (3, 1), (1, 1000)] {
        let cfg = ServeConfig { workers, batch, ..config() };
        let (_, out) = replay(&cfg);
        assert_eq!(out, reference, "divergence at workers={workers} batch={batch}");
    }
}

#[test]
fn responses_are_well_formed_and_ordered() {
    let (_, out) = replay(&config());
    let responses: Vec<Response> =
        out.lines().map(|l| serde_json::from_str(l).expect("valid response JSON")).collect();
    assert_eq!(responses.len(), REQUESTS.lines().filter(|l| !l.trim().is_empty()).count());
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "responses must be in request order");
        assert_eq!(r.latency_us.unwrap_or(0), 0, "deterministic mode zeroes latency");
    }
    // Accepted admissions always carry a handle; rejections never do.
    for r in &responses {
        if r.op == "admit" && r.ok {
            match r.verdict.as_deref() {
                Some("accept") => assert!(r.handle.is_some()),
                Some("reject") => assert!(r.handle.is_none()),
                v => panic!("admit response without verdict: {v:?}"),
            }
        }
    }
}
