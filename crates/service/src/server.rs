//! The stdio transport: batched JSONL I/O over [`crate::core::ServiceCore`].
//!
//! This module owns the serve *configuration* ([`ServeConfig`]), the
//! session summary ([`SessionStats`]) and the classic single-pipe driver
//! ([`serve_session`] / [`serve_session_with_obs`]): read requests in
//! batches from one `BufRead`, feed them to the engine as one connection,
//! write the responses back in request order before reading the next
//! batch. All protocol and session semantics — routing, lifecycle
//! gating, batch cutting, panic containment, telemetry — live in the
//! transport-agnostic [`ServiceCore`]; the
//! non-blocking socket front end in [`crate::transport`] drives the same
//! engine, which is what makes a socket transcript byte-identical to the
//! stdio replay of the same requests at any worker count.

use crate::controller::ControllerConfig;
use crate::core::ServiceCore;
use crate::protocol::TierCounts;
use fpga_rt_obs::{Obs, Snapshot};
use std::io::{BufRead, Write};

/// Configuration of one serve session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Device size in columns (each session admits onto its own device of
    /// this size).
    pub columns: u32,
    /// Number of independent shards. v1 request shard keys are reduced
    /// modulo this count; v2 sessions hash onto it.
    pub shards: u32,
    /// Worker threads; 0 picks `min(shards, available parallelism)`.
    pub workers: usize,
    /// Requests read (and answered) per batch.
    pub batch: usize,
    /// Knife-edge threshold forwarded to every controller.
    pub exact_margin: f64,
    /// Report `latency_us` as 0 and zero every time-valued telemetry
    /// sample, so transcripts *and* metrics artifacts are byte-for-byte
    /// reproducible (used by the golden-file and obs-smoke CI gates).
    pub deterministic: bool,
    /// Per-session verdict-cache capacity in entries; `None` disables
    /// caching. Cache state never changes any response byte — only the
    /// `admission/cache/*` telemetry reveals it.
    pub cache: Option<usize>,
    /// Cap on concurrently live sessions (`None` = unlimited). The
    /// implicit v1 `default` sessions count toward it.
    pub sessions: Option<usize>,
}

impl ServeConfig {
    /// Defaults for a device: one shard, auto workers, batches of 64,
    /// unlimited sessions.
    pub fn new(columns: u32) -> Self {
        ServeConfig {
            columns,
            shards: 1,
            workers: 0,
            batch: 64,
            exact_margin: 1e-9,
            deterministic: false,
            cache: Some(1024),
            sessions: None,
        }
    }

    pub(crate) fn controller_config(&self) -> ControllerConfig {
        ControllerConfig { exact_margin: self.exact_margin }
    }
}

/// Aggregate statistics of a completed session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Requests read (including malformed lines).
    pub requests: u64,
    /// Batches processed.
    pub batches: u64,
    /// Admissions accepted.
    pub accepted: u64,
    /// Admissions rejected.
    pub rejected: u64,
    /// Protocol-level errors (malformed line, bad op, stale handle,
    /// lifecycle violation, ...).
    pub errors: u64,
    /// Which cascade tier settled each admit decision.
    pub tiers: TierCounts,
}

/// Drive a full session: read JSONL requests from `input` until EOF, write
/// one JSONL response per request to `output` in request order.
pub fn serve_session(
    input: &mut dyn BufRead,
    output: &mut dyn Write,
    config: &ServeConfig,
) -> Result<SessionStats, String> {
    serve_session_with_obs(input, output, config, Obs::off()).map(|(stats, _)| stats)
}

/// [`serve_session`] with a telemetry handle; returns the session
/// statistics **and** the end-of-session `fpga-rt-obs/1` snapshot (pool
/// shard counters, cascade-tier latency histograms, folded admission
/// totals, session gauges, session metadata). With [`Obs::off`] the
/// snapshot still carries the folded totals and metadata — just no
/// histograms, pool counters or session gauges.
pub fn serve_session_with_obs(
    input: &mut dyn BufRead,
    output: &mut dyn Write,
    config: &ServeConfig,
    obs: Obs,
) -> Result<(SessionStats, Snapshot), String> {
    let mut core = ServiceCore::new(config, obs)?;
    let conn = core.open();
    let mut line = Vec::new();
    let mut eof = false;
    loop {
        // Fill one batch (a `stats` line may cut it early); the engine
        // answers parse failures and lifecycle decisions in request order.
        // A line that is not UTF-8 is decoded lossily, as the socket
        // framer does, so it is answered as malformed instead of ending
        // the session.
        while !eof && !core.batch_ready() {
            line.clear();
            let n = input.read_until(b'\n', &mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                eof = true;
                break;
            }
            core.submit(conn, &String::from_utf8_lossy(&line))?;
        }
        if core.batch_len() == 0 {
            break;
        }
        for (_, rendered) in core.flush()? {
            writeln!(output, "{rendered}").map_err(|e| e.to_string())?;
        }
    }
    core.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{counters, Response};

    fn run(input: &str, config: &ServeConfig) -> (SessionStats, String) {
        let mut out = Vec::new();
        let stats = serve_session(&mut input.as_bytes(), &mut out, config).unwrap();
        (stats, String::from_utf8(out).unwrap())
    }

    fn deterministic(columns: u32) -> ServeConfig {
        ServeConfig { deterministic: true, ..ServeConfig::new(columns) }
    }

    const SESSION: &str = concat!(
        r#"{"op":"admit","task":{"exec":1.0,"deadline":10.0,"period":10.0,"area":3}}"#,
        "\n",
        r#"{"op":"query"}"#,
        "\n",
        r#"{"op":"release","handle":0}"#,
        "\n",
        r#"{"op":"release","handle":0}"#,
        "\n",
        "not json\n",
        r#"{"op":"warp"}"#,
        "\n",
    );

    #[test]
    fn basic_session_flow() {
        let (stats, out) = run(SESSION, &deterministic(10));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].contains("\"verdict\":\"accept\""));
        assert!(lines[0].contains("\"tier\":\"dp-inc\""));
        assert!(lines[1].contains("\"stats\""));
        assert!(lines[2].contains("\"ok\":true"));
        assert!(lines[3].contains("already released"));
        assert!(lines[4].contains("malformed request"));
        assert!(lines[5].contains("unknown op"));
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.errors, 3);
        assert_eq!(stats.tiers.dp_inc, 1);
    }

    #[test]
    fn v1_responses_never_leak_session_framing() {
        let (_, out) = run(SESSION, &deterministic(10));
        for line in out.lines() {
            assert!(!line.contains("\"session\""), "{line}");
            assert!(!line.contains("\"lifecycle\""), "{line}");
        }
    }

    #[test]
    fn responses_preserve_request_order_across_shards() {
        let mut input = String::new();
        for i in 0..40 {
            input.push_str(&format!(
                r#"{{"op":"admit","shard":{},"task":{{"exec":0.5,"deadline":16.0,"period":16.0,"area":2}}}}"#,
                i % 4
            ));
            input.push('\n');
        }
        let config = ServeConfig { shards: 4, batch: 8, ..deterministic(32) };
        let (_, out) = run(&input, &config);
        let seqs: Vec<u64> = out
            .lines()
            .map(|l| {
                let resp: Response = serde_json::from_str(l).unwrap();
                resp.seq
            })
            .collect();
        assert_eq!(seqs, (0..40).collect::<Vec<u64>>());
    }

    #[test]
    fn output_is_invariant_in_workers_and_batch_size() {
        let mut input = String::new();
        for i in 0..30 {
            input.push_str(&format!(
                r#"{{"op":"admit","shard":{},"task":{{"exec":1.0,"deadline":{}.0,"period":{}.0,"area":{}}}}}"#,
                i % 3,
                4 + i % 5,
                4 + i % 5,
                1 + i % 4
            ));
            input.push('\n');
        }
        let base = ServeConfig { shards: 3, workers: 1, batch: 64, ..deterministic(10) };
        let (_, reference) = run(&input, &base);
        for (workers, batch) in [(2, 64), (3, 64), (1, 1), (3, 7)] {
            let config = ServeConfig { workers, batch, ..base };
            let (_, out) = run(&input, &config);
            assert_eq!(out, reference, "workers={workers} batch={batch}");
        }
    }

    /// Resubmission-heavy session driving real cache hits: round `r` admits
    /// the Table-2 pair (handles `2r` and `2r+1`), queries with margins,
    /// asks for stats, then releases both — so every round after the first
    /// replays all three decisions from the cache.
    fn resubmission_session(rounds: u64) -> String {
        let mut input = String::new();
        for r in 0..rounds {
            input.push_str(
                r#"{"op":"admit","margins":true,"task":{"exec":4.5,"deadline":8.0,"period":8.0,"area":3}}"#,
            );
            input.push('\n');
            input.push_str(
                r#"{"op":"admit","margins":true,"task":{"exec":8.0,"deadline":9.0,"period":9.0,"area":5}}"#,
            );
            input.push('\n');
            input.push_str("{\"op\":\"query\",\"margins\":true}\n");
            input.push_str("{\"op\":\"stats\"}\n");
            input.push_str(&format!("{{\"op\":\"release\",\"handle\":{}}}\n", 2 * r + 1));
            input.push_str(&format!("{{\"op\":\"release\",\"handle\":{}}}\n", 2 * r));
        }
        input
    }

    /// The headline cache contract: cache-on and cache-off sessions produce
    /// byte-identical transcripts (margin rows, stats ops and all).
    #[test]
    fn cache_never_changes_a_response_byte() {
        let input = resubmission_session(4);
        let base = deterministic(10);
        let (stats_on, on) = run(&input, &base);
        let (stats_off, off) = run(&input, &ServeConfig { cache: None, ..base });
        assert_eq!(on, off);
        assert_eq!(stats_on, stats_off);
        assert!(on.lines().nth(1).unwrap().contains("\"tier\":\"gn1\""));
    }

    /// With telemetry enabled, the cache reveals itself *only* through the
    /// `admission/cache/*` rows — admission counters and the transcript
    /// stay identical, and the hit-rate gauge appears.
    #[test]
    fn cache_telemetry_counts_hits_without_perturbing_admissions() {
        // No stats ops here: with obs enabled those embed the snapshot
        // (cache rows included) into the response body.
        let input = resubmission_session(4).lines().filter(|l| !l.contains("stats")).fold(
            String::new(),
            |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            },
        );
        let base = deterministic(10);
        let run_with = |config: &ServeConfig| {
            let mut out = Vec::new();
            let (_, snap) =
                serve_session_with_obs(&mut input.as_bytes(), &mut out, config, Obs::on(true))
                    .unwrap();
            (String::from_utf8(out).unwrap(), snap)
        };
        let (out_on, snap_on) = run_with(&base);
        let (out_off, snap_off) = run_with(&ServeConfig { cache: None, ..base });
        assert_eq!(out_on, out_off);
        let hits = snap_on.counter(counters::CACHE_HITS).unwrap();
        let misses = snap_on.counter(counters::CACHE_MISSES).unwrap();
        assert!(hits >= 9, "three rounds of three decisions replay: {hits}");
        assert_eq!(snap_off.counter(counters::CACHE_HITS), None);
        assert_eq!(snap_on.counter("admission/decisions"), snap_off.counter("admission/decisions"));
        assert_eq!(
            snap_on.gauge(counters::CACHE_HIT_RATE_PERMILLE),
            Some(hits * 1000 / (hits + misses))
        );
        // Cache hits replay their stage samples, so deterministic stage
        // histograms match a cache-off run sample-for-sample; the rendered
        // artifacts differ only in `admission/cache/*` rows.
        for stage in ["admission/stage/dp_ns", "admission/stage/gn1_ns", "admission/stage/gn2_ns"] {
            assert_eq!(snap_on.histogram(stage), snap_off.histogram(stage), "{stage}");
        }
        let mask = |s: &Snapshot| {
            s.render_text()
                .lines()
                // Drop the cache rows and the `gauges:` header (present only
                // because the hit-rate gauge exists at all).
                .filter(|l| !l.contains("admission/cache/") && l.trim() != "gauges:")
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(mask(&snap_on), mask(&snap_off));
    }

    #[test]
    fn shard_isolation() {
        // The same handle space starts at 0 in every shard.
        let input = concat!(
            r#"{"op":"admit","shard":0,"task":{"exec":1.0,"deadline":8.0,"period":8.0,"area":2}}"#,
            "\n",
            r#"{"op":"admit","shard":1,"task":{"exec":1.0,"deadline":8.0,"period":8.0,"area":2}}"#,
            "\n",
            r#"{"op":"release","shard":1,"handle":0}"#,
            "\n",
            r#"{"op":"query","shard":0}"#,
            "\n",
        );
        let config = ServeConfig { shards: 2, ..deterministic(10) };
        let (_, out) = run(input, &config);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[2].contains("\"ok\":true"), "shard 1 owns handle 0: {}", lines[2]);
        assert!(lines[3].contains("\"tasks\":1"), "shard 0 still has its task: {}", lines[3]);
    }

    #[test]
    fn zero_columns_is_a_config_error() {
        let mut out = Vec::new();
        assert!(serve_session(&mut "".as_bytes(), &mut out, &ServeConfig::new(0)).is_err());
    }

    #[test]
    fn stats_op_totals_cover_exactly_the_preceding_requests() {
        // 6 admits, a stats line, 2 more admits, a final stats line. The
        // first stats must count 6 decisions, the second 8 — regardless of
        // worker count and even though the stats line lands mid-batch.
        let mut input = String::new();
        for i in 0..6 {
            input.push_str(&format!(
                r#"{{"op":"admit","shard":{},"task":{{"exec":1.0,"deadline":8.0,"period":8.0,"area":2}}}}"#,
                i % 3
            ));
            input.push('\n');
        }
        input.push_str("{\"op\":\"stats\",\"id\":\"mid\"}\n");
        for _ in 0..2 {
            input.push_str(
                r#"{"op":"admit","task":{"exec":1.0,"deadline":8.0,"period":8.0,"area":2}}"#,
            );
            input.push('\n');
        }
        input.push_str("{\"op\":\"stats\"}\n");
        for workers in [1, 2, 4] {
            let config = ServeConfig { shards: 3, workers, batch: 64, ..deterministic(10) };
            let (stats, out) = run(&input, &config);
            let lines: Vec<&str> = out.lines().collect();
            assert_eq!(lines.len(), 10, "workers={workers}");
            let mid: Response = serde_json::from_str(lines[6]).unwrap();
            assert_eq!(mid.id, "mid");
            assert_eq!(mid.op, "stats");
            assert_eq!(mid.latency_us, Some(0));
            assert_eq!(mid.stats.unwrap().decisions, 6, "workers={workers}");
            let snap = mid.obs.expect("stats carries the obs snapshot");
            assert_eq!(snap.schema, fpga_rt_obs::SCHEMA);
            assert_eq!(snap.counter("admission/decisions"), Some(6));
            let end: Response = serde_json::from_str(lines[9]).unwrap();
            assert_eq!(end.stats.unwrap().decisions, 8, "workers={workers}");
            assert_eq!(stats.requests, 10);
            assert_eq!(stats.tiers.total(), 8);
        }
    }

    #[test]
    fn metrics_snapshot_is_invariant_in_workers() {
        let mut input = String::new();
        for i in 0..30 {
            input.push_str(&format!(
                r#"{{"op":"admit","shard":{},"task":{{"exec":1.0,"deadline":{}.0,"period":{}.0,"area":{}}}}}"#,
                i % 3,
                4 + i % 5,
                4 + i % 5,
                1 + i % 4
            ));
            input.push('\n');
        }
        input.push_str("{\"op\":\"stats\"}\n");
        let run_obs = |workers: usize| {
            let config = ServeConfig { shards: 3, workers, batch: 7, ..deterministic(10) };
            let mut out = Vec::new();
            let (_, snapshot) =
                serve_session_with_obs(&mut input.as_bytes(), &mut out, &config, Obs::on(true))
                    .unwrap();
            (String::from_utf8(out).unwrap(), snapshot.render_json(), snapshot.render_text())
        };
        let reference = run_obs(1);
        // The deterministic registry records per-shard counters and zeroed
        // histograms only, so both artifact formats are byte-identical.
        for workers in [2, 3, 4] {
            assert_eq!(run_obs(workers), reference, "workers={workers}");
        }
        let snap: Snapshot = serde_json::from_str(&reference.1).unwrap();
        assert!(snap.deterministic);
        // 10 admits routed to shard 0, plus one drain item for the stats
        // op and one for the end-of-session snapshot.
        assert_eq!(snap.counter("pool/shard000/items"), Some(10 + 1 + 1));
        assert_eq!(snap.counter("admission/decisions"), Some(30));
        let depth = snap.histogram("admission/cascade_depth").unwrap();
        assert_eq!(depth.count, 30, "every decision records a cascade depth");
        let dp = snap.histogram("admission/tier/dp-inc/decision_ns").unwrap();
        assert!(dp.count > 0);
        // The implicit default sessions (one per used shard) are gauged.
        assert_eq!(snap.gauge(counters::SESSIONS_LIVE), Some(3));
        assert_eq!(snap.gauge(counters::SESSIONS_ACTIVE), Some(3));
        assert_eq!(snap.gauge(counters::SESSIONS_PAUSED), Some(0));
        assert_eq!(snap.counter(counters::SESSION_CREATED), Some(3));
        assert_eq!(dp.max, 0, "deterministic time samples are zeroed");
    }

    #[test]
    fn lifecycle_flow_pause_gates_data_ops() {
        let input = concat!(
            r#"{"session":"a","op":"create"}"#,
            "\n",
            r#"{"session":"a","op":"admit","task":{"exec":1.0,"deadline":8.0,"period":8.0,"area":2}}"#,
            "\n",
            r#"{"session":"a","op":"pause"}"#,
            "\n",
            r#"{"session":"a","op":"admit","task":{"exec":1.0,"deadline":8.0,"period":8.0,"area":2}}"#,
            "\n",
            r#"{"session":"a","op":"resume"}"#,
            "\n",
            r#"{"session":"a","op":"query"}"#,
            "\n",
        );
        let (stats, out) = run(input, &ServeConfig { shards: 4, ..deterministic(10) });
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("\"lifecycle\":\"active\""), "{}", lines[0]);
        assert!(lines[0].contains("\"session\":\"a\""));
        assert!(lines[1].contains("\"verdict\":\"accept\""));
        assert!(lines[2].contains("\"lifecycle\":\"paused\""));
        assert!(lines[3].contains("session \\\"a\\\" is paused"), "{}", lines[3]);
        assert!(lines[4].contains("\"lifecycle\":\"active\""));
        assert!(lines[5].contains("\"tasks\":1"), "pause lost no state: {}", lines[5]);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn snapshot_destroy_restore_round_trip_preserves_state_and_handles() {
        let admit = r#"{"session":"a","op":"admit","task":{"exec":1.0,"deadline":8.0,"period":8.0,"area":2}}"#;
        let input = format!(
            "{}\n{}\n{}\n{}\n{}\n",
            r#"{"session":"a","op":"create"}"#,
            admit,
            r#"{"session":"a","op":"snapshot","id":"snap"}"#,
            r#"{"session":"a","op":"destroy"}"#,
            r#"{"session":"a","op":"query"}"#,
        );
        let config = ServeConfig { shards: 4, ..deterministic(10) };
        let (_, out) = run(&input, &config);
        let lines: Vec<&str> = out.lines().collect();
        let snap_resp: Response = serde_json::from_str(lines[2]).unwrap();
        let snapshot = snap_resp.snapshot.expect("snapshot op carries the payload");
        assert_eq!(snapshot.next_handle, 1);
        assert_eq!(snapshot.tasks.len(), 1);
        assert_eq!(snapshot.stats.decisions, 1);
        assert!(lines[3].contains("\"lifecycle\":\"destroyed\""));
        assert!(lines[4].contains("unknown session"), "destroyed: {}", lines[4]);

        // Restore under a different name: state, stats and the handle
        // space all survive (handle 0 is taken, handle counter continues).
        let restore_line = format!(
            r#"{{"session":"b","op":"restore","snapshot":{}}}"#,
            serde_json::to_string(&snapshot).unwrap()
        );
        let input2 = format!(
            "{restore_line}\n{}\n{}\n{}\n",
            r#"{"session":"b","op":"query"}"#,
            r#"{"session":"b","op":"release","handle":0}"#,
            r#"{"session":"b","op":"admit","task":{"exec":1.0,"deadline":8.0,"period":8.0,"area":2}}"#,
        );
        let (_, out2) = run(&input2, &config);
        let lines2: Vec<&str> = out2.lines().collect();
        assert!(lines2[0].contains("\"lifecycle\":\"active\""), "{}", lines2[0]);
        assert!(lines2[0].contains("\"tasks\":1"));
        let query: Response = serde_json::from_str(lines2[1]).unwrap();
        assert_eq!(query.stats.unwrap().decisions, 1, "stats restored");
        assert!(lines2[2].contains("\"ok\":true"), "restored handle releasable: {}", lines2[2]);
        let readmit: Response = serde_json::from_str(lines2[3]).unwrap();
        assert_eq!(readmit.handle, Some(1), "handle counter survived the round trip");
    }

    #[test]
    fn the_session_limit_is_enforced_deterministically() {
        let input = concat!(
            r#"{"session":"a","op":"create"}"#,
            "\n",
            r#"{"session":"b","op":"create"}"#,
            "\n",
            r#"{"session":"c","op":"create"}"#,
            "\n",
            r#"{"op":"query"}"#,
            "\n",
            r#"{"session":"a","op":"destroy"}"#,
            "\n",
            r#"{"session":"c","op":"create"}"#,
            "\n",
        );
        let base = ServeConfig { shards: 4, sessions: Some(2), workers: 1, ..deterministic(10) };
        let (_, reference) = run(input, &base);
        let lines: Vec<&str> = reference.lines().collect();
        assert!(lines[0].contains("\"ok\":true"));
        assert!(lines[1].contains("\"ok\":true"));
        assert!(lines[2].contains("session limit reached (2 sessions)"), "{}", lines[2]);
        assert!(lines[3].contains("session limit reached"), "default auto-create counts");
        assert!(lines[4].contains("\"lifecycle\":\"destroyed\""));
        assert!(lines[5].contains("\"ok\":true"), "destroy freed a slot: {}", lines[5]);
        for workers in [2, 4] {
            let (_, out) = run(input, &ServeConfig { workers, ..base });
            assert_eq!(out, reference, "workers={workers}");
        }
    }

    #[test]
    fn v2_unknown_keys_are_protocol_errors_naming_the_key() {
        let input = concat!(
            r#"{"session":"a","op":"create","extra":1}"#,
            "\n",
            r#"{"op":"query","extra":1}"#,
            "\n",
        );
        let (stats, out) = run(input, &deterministic(10));
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("unknown key `extra` in create request"), "{}", lines[0]);
        assert!(lines[0].contains("\"session\":\"a\""), "v2 errors echo the session");
        assert!(lines[1].contains("\"ok\":true"), "v1 stays lenient: {}", lines[1]);
        assert_eq!(stats.errors, 1);
    }
}
