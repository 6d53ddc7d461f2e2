//! Socket client mode: drive a running `fpga-rt serve --listen` process
//! over many concurrent TCP or Unix-socket connections and verify the
//! transport's ordering contract from the outside.
//!
//! Unlike the in-process replay modes ([`mod@crate::run`]), this module
//! speaks the wire protocol through [`ClientStream`] exactly as a tenant
//! would: each connection opens its own protocol session (`c0`, `c1`, …),
//! ping-pongs `create` → data ops → `destroy`, and checks every response
//! against the two per-connection invariants the transport promises —
//! the `id` echo matches the request just sent, and `seq` increments
//! strictly from 0. A missing response is **dropped**; an echo on the
//! wrong request is **reordered**; either makes the run unclean and the
//! CLI exits nonzero, which is what the CI `socket-smoke` job gates on
//! at ~200 concurrent connections.

use crate::hist::LatencyHistogram;
use crate::report::LatencySummary;
use fpga_rt_service::{ClientStream, Endpoint};
use std::io::{BufRead, BufReader, Write};
use std::time::{Duration, Instant};

/// Parameters of one socket load run.
#[derive(Debug, Clone)]
pub struct SocketLoadConfig {
    /// Concurrent connections (each runs on its own thread and owns one
    /// protocol session).
    pub conns: usize,
    /// Data ops per connection, between the `create`/`destroy` pair —
    /// every connection sends `requests + 2` lines in total.
    pub requests: usize,
    /// How long each connection keeps retrying its initial connect (the
    /// server may still be binding when the swarm starts).
    pub connect_timeout: Duration,
}

impl Default for SocketLoadConfig {
    fn default() -> Self {
        SocketLoadConfig { conns: 16, requests: 32, connect_timeout: Duration::from_secs(5) }
    }
}

/// Outcome of a socket load run, aggregated over all connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocketLoadReport {
    /// Connections that completed their script (connect through EOF).
    pub conns: usize,
    /// Request lines sent.
    pub sent: usize,
    /// Response lines received.
    pub received: usize,
    /// Requests that never got a response (connection closed early).
    pub dropped: usize,
    /// Responses whose `id` or `seq` did not match the request just
    /// sent — the transport's per-connection ordering contract broken.
    pub reordered: usize,
    /// Well-ordered responses that carried `"ok":false` (protocol-level
    /// errors; zero on a healthy server).
    pub errors: usize,
    /// Ping-pong round-trip latency over all connections.
    pub latency: LatencySummary,
}

impl SocketLoadReport {
    /// A clean run: every request answered, in order.
    pub fn clean(&self) -> bool {
        self.dropped == 0 && self.reordered == 0
    }

    /// One-paragraph text rendering for stdout.
    pub fn render_text(&self) -> String {
        format!(
            "socket load: {} conns, {} sent, {} received, {} dropped, {} reordered, {} errors\n\
             round-trip latency: p50 {}ns p99 {}ns p999 {}ns max {}ns\n",
            self.conns,
            self.sent,
            self.received,
            self.dropped,
            self.reordered,
            self.errors,
            self.latency.p50_ns,
            self.latency.p99_ns,
            self.latency.p999_ns,
            self.latency.max_ns,
        )
    }
}

/// What one connection's thread brings home.
struct ConnOutcome {
    sent: usize,
    received: usize,
    reordered: usize,
    errors: usize,
    hist: LatencyHistogram,
}

/// The scripted request lines of connection `index`: `create`, then
/// `requests` admit/query data ops, then `destroy` — all carrying
/// explicit ids so the echo can be verified.
fn script(index: usize, requests: usize) -> Vec<String> {
    let session = format!("c{index}");
    let mut lines = Vec::with_capacity(requests + 2);
    lines.push(format!(r#"{{"id":"{session}-0","session":"{session}","op":"create"}}"#));
    for k in 0..requests {
        let seq = k + 1;
        let id = format!("{session}-{seq}");
        // Alternate a real admission with a read-only query so the run
        // exercises state mutation, not just echo plumbing. Periods vary
        // with k to keep the taskset growing admissibly slowly.
        let line = if k % 2 == 0 {
            let period = 40.0 + (k % 7) as f64;
            format!(
                r#"{{"id":"{id}","session":"{session}","op":"admit","task":{{"exec":0.01,"deadline":{period:.1},"period":{period:.1},"area":1}}}}"#
            )
        } else {
            format!(r#"{{"id":"{id}","session":"{session}","op":"query"}}"#)
        };
        lines.push(line);
    }
    lines.push(format!(
        r#"{{"id":"{session}-{}","session":"{session}","op":"destroy"}}"#,
        requests + 1
    ));
    lines
}

/// Extract a string or integer field from a response line without a full
/// JSON parse — `"key":value` with the protocol's canonical rendering
/// (no spaces). Good enough for the echo check; a malformed line simply
/// fails to match and counts as reordered.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let at = line.find(&tag)? + tag.len();
    let rest = &line[at..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next()
    } else {
        Some(rest.split([',', '}']).next().unwrap_or(""))
    }
}

/// Run one connection's ping-pong script against `endpoint`.
fn drive_conn(
    endpoint: &Endpoint,
    index: usize,
    config: &SocketLoadConfig,
) -> Result<ConnOutcome, String> {
    let stream = ClientStream::connect_with_retry(endpoint, config.connect_timeout)
        .map_err(|e| format!("conn {index}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("conn {index}: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut outcome = ConnOutcome {
        sent: 0,
        received: 0,
        reordered: 0,
        errors: 0,
        hist: LatencyHistogram::new(),
    };
    let session = format!("c{index}");
    for (seq, mut line) in script(index, config.requests).into_iter().enumerate() {
        // The framed line goes out in one write: a separate one-byte `\n`
        // segment would wait for the server's delayed ACK under Nagle.
        line.push('\n');
        writer.write_all(line.as_bytes()).map_err(|e| format!("conn {index} send: {e}"))?;
        writer.flush().map_err(|e| format!("conn {index} send: {e}"))?;
        outcome.sent += 1;
        let start = Instant::now();
        let mut response = String::new();
        let n = reader.read_line(&mut response).map_err(|e| format!("conn {index} recv: {e}"))?;
        if n == 0 {
            // Server hung up mid-script: the unanswered requests are
            // dropped; the caller turns that into an unclean run.
            break;
        }
        outcome.hist.record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        outcome.received += 1;
        let expected_id = format!("{session}-{seq}");
        let in_order = field(&response, "id") == Some(expected_id.as_str())
            && field(&response, "seq") == Some(seq.to_string().as_str());
        if !in_order {
            outcome.reordered += 1;
        } else if field(&response, "ok") != Some("true") {
            outcome.errors += 1;
        }
    }
    writer.shutdown_write().map_err(|e| format!("conn {index} half-close: {e}"))?;
    // Drain to EOF so the server's close is observed, not raced.
    let mut tail = String::new();
    let _ = std::io::Read::read_to_string(&mut reader, &mut tail);
    outcome.received += tail.lines().count();
    Ok(outcome)
}

/// Fan `config.conns` scripted connections out against a running
/// listener, one thread each, and aggregate the outcome. Errors only on
/// harness-level failures (connect/send); protocol-level trouble is
/// reported in the counts so the caller can render before failing.
pub fn run_socket(
    endpoint: &Endpoint,
    config: &SocketLoadConfig,
) -> Result<SocketLoadReport, String> {
    if config.conns == 0 {
        return Err("socket load needs at least one connection".into());
    }
    if matches!(endpoint, Endpoint::Stdio) {
        return Err(
            "socket load needs a socket endpoint (`tcp://HOST:PORT` or `unix://PATH`)".into()
        );
    }
    let workers: Vec<std::thread::JoinHandle<Result<ConnOutcome, String>>> = (0..config.conns)
        .map(|index| {
            let endpoint = endpoint.clone();
            let config = config.clone();
            std::thread::spawn(move || drive_conn(&endpoint, index, &config))
        })
        .collect();
    let mut report = SocketLoadReport {
        conns: 0,
        sent: 0,
        received: 0,
        dropped: 0,
        reordered: 0,
        errors: 0,
        latency: LatencySummary::default(),
    };
    let mut hist = LatencyHistogram::new();
    let mut failures = Vec::new();
    for worker in workers {
        match worker.join().map_err(|_| "connection thread panicked".to_string())? {
            Ok(outcome) => {
                report.conns += 1;
                report.sent += outcome.sent;
                report.received += outcome.received;
                report.reordered += outcome.reordered;
                report.errors += outcome.errors;
                hist.merge(&outcome.hist);
            }
            Err(e) => failures.push(e),
        }
    }
    if let Some(first) = failures.first() {
        return Err(format!(
            "{} of {} connections failed; first: {first}",
            failures.len(),
            config.conns
        ));
    }
    report.dropped = report.sent.saturating_sub(report.received);
    report.latency = LatencySummary::from_histogram(&hist);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_rt_obs::Obs;
    use fpga_rt_service::{ServeConfig, SocketServer, TransportConfig};

    #[test]
    fn the_script_ids_track_the_per_connection_sequence() {
        let lines = script(3, 4);
        assert_eq!(lines.len(), 6);
        assert!(lines[0].contains(r#""id":"c3-0""#) && lines[0].contains(r#""op":"create""#));
        assert!(lines[5].contains(r#""id":"c3-5""#) && lines[5].contains(r#""op":"destroy""#));
        for (seq, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!(r#""id":"c3-{seq}""#)), "{line}");
        }
    }

    #[test]
    fn field_extraction_reads_the_canonical_rendering() {
        let line = r#"{"ok":true,"seq":12,"id":"c1-12","session":"c1"}"#;
        assert_eq!(field(line, "id"), Some("c1-12"));
        assert_eq!(field(line, "seq"), Some("12"));
        assert_eq!(field(line, "ok"), Some("true"));
        assert_eq!(field(line, "missing"), None);
    }

    #[test]
    fn a_connection_swarm_sees_zero_dropped_or_reordered_responses() {
        let conns = 16;
        let transport = TransportConfig { max_conns: Some(conns), ..TransportConfig::default() };
        let server =
            SocketServer::bind(&Endpoint::Tcp("127.0.0.1:0".into()), transport).expect("bind");
        let endpoint = server.local_endpoint();
        let serve_config = ServeConfig { shards: 4, workers: 2, batch: 16, ..ServeConfig::new(64) };
        let handle = std::thread::spawn(move || server.serve(&serve_config, Obs::off()));
        let config = SocketLoadConfig { conns, requests: 8, ..SocketLoadConfig::default() };
        let report = run_socket(&endpoint, &config).expect("socket load");
        let (stats, _) = handle.join().expect("server thread").expect("serve");
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.conns, conns);
        assert_eq!(report.sent, conns * 10, "create + 8 ops + destroy per conn");
        assert_eq!(report.received, report.sent);
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(stats.requests, (conns * 10) as u64);
    }
}
