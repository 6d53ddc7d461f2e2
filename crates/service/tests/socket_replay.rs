//! Socket-transport byte-identity: the golden multi-session transcript
//! replayed over TCP and over a Unix socket is byte-identical to the
//! stdio replay, at worker counts 1 and 4 — the determinism contract the
//! CI `socket-smoke` job re-checks against the released binary.

mod common;

use common::{golden_config, replay_over_socket, start_server, stdio_transcript, unix_path};
use fpga_rt_obs::Obs;
use fpga_rt_service::{Endpoint, TransportConfig};

const SESSION_REQUESTS: &str = include_str!("../testdata/sessions.requests.jsonl");
const SESSION_GOLDEN: &str = include_str!("../testdata/sessions.responses.golden.jsonl");

fn one_conn() -> TransportConfig {
    TransportConfig { max_conns: Some(1), ..TransportConfig::default() }
}

#[test]
fn tcp_replay_matches_the_stdio_golden_at_both_worker_counts() {
    for workers in [1, 4] {
        let config = golden_config(workers);
        let (endpoint, server) =
            start_server(&Endpoint::Tcp("127.0.0.1:0".into()), one_conn(), config, Obs::off());
        let transcript = replay_over_socket(&endpoint, SESSION_REQUESTS);
        let (stats, _) = server.join().expect("server thread").expect("serve");
        assert_eq!(transcript, SESSION_GOLDEN, "workers={workers}");
        assert_eq!(transcript, stdio_transcript(SESSION_REQUESTS, &config));
        assert_eq!(stats.requests, 26, "workers={workers}");
    }
}

#[test]
fn unix_replay_matches_the_stdio_golden_at_both_worker_counts() {
    for workers in [1, 4] {
        let config = golden_config(workers);
        let path = unix_path("replay");
        let (endpoint, server) =
            start_server(&Endpoint::Unix(path.clone()), one_conn(), config, Obs::off());
        let transcript = replay_over_socket(&endpoint, SESSION_REQUESTS);
        server.join().expect("server thread").expect("serve");
        assert_eq!(transcript, SESSION_GOLDEN, "workers={workers}");
        assert!(!path.exists(), "socket file is removed on shutdown");
    }
}

#[test]
fn v1_golden_replays_identically_over_tcp() {
    // The legacy sessionless transcript (112 requests) rides the socket
    // unchanged too — v1 compatibility is transport-independent.
    let requests = include_str!("../testdata/requests.jsonl");
    let golden = include_str!("../testdata/responses.golden.jsonl");
    let config = golden_config(2);
    let (endpoint, server) =
        start_server(&Endpoint::Tcp("127.0.0.1:0".into()), one_conn(), config, Obs::off());
    let transcript = replay_over_socket(&endpoint, requests);
    server.join().expect("server thread").expect("serve");
    assert_eq!(transcript, golden);
    assert_eq!(transcript, stdio_transcript(requests, &config));
}

#[test]
fn a_trailing_unterminated_line_is_served_like_read_line_would() {
    // Drop the golden's final newline: BufRead::read_line still serves
    // the last request, so the socket framing must too.
    let trimmed = SESSION_REQUESTS.strip_suffix('\n').expect("golden ends in newline");
    let config = golden_config(1);
    let (endpoint, server) =
        start_server(&Endpoint::Tcp("127.0.0.1:0".into()), one_conn(), config, Obs::off());
    let transcript = replay_over_socket(&endpoint, trimmed);
    server.join().expect("server thread").expect("serve");
    assert_eq!(transcript, stdio_transcript(trimmed, &config));
    assert_eq!(transcript, SESSION_GOLDEN);
}

#[test]
fn a_line_that_is_not_utf8_is_answered_alike_over_stdio_and_tcp() {
    // Both transports decode a request line lossily, so bytes that are
    // not UTF-8 make one malformed request, never the end of the session.
    let requests: &[u8] = b"{\"op\":\"query\"}\n\xff\xfe\n{\"op\":\"query\"}\n";
    let config = golden_config(1);
    let (endpoint, server) =
        start_server(&Endpoint::Tcp("127.0.0.1:0".into()), one_conn(), config, Obs::off());
    let transcript = replay_over_socket(&endpoint, requests);
    server.join().expect("server thread").expect("serve");
    assert_eq!(transcript, stdio_transcript(requests, &config));
    let lines: Vec<&str> = transcript.lines().collect();
    assert_eq!(lines.len(), 3, "{transcript}");
    assert!(lines[1].contains("malformed request"), "{}", lines[1]);
}

#[test]
fn conn_telemetry_counts_the_connection_when_a_registry_is_attached() {
    use fpga_rt_service::conn_counters;
    let config = golden_config(1);
    let (endpoint, server) =
        start_server(&Endpoint::Tcp("127.0.0.1:0".into()), one_conn(), config, Obs::on(true));
    let _ = replay_over_socket(&endpoint, SESSION_REQUESTS);
    let (_, snapshot) = server.join().expect("server thread").expect("serve");
    assert_eq!(snapshot.counter(conn_counters::ACCEPTED), Some(1));
    assert_eq!(snapshot.counter(conn_counters::CLOSED), Some(1));
    assert_eq!(snapshot.gauge(conn_counters::ACTIVE), Some(0));
    assert_eq!(snapshot.counter(conn_counters::BYTES_IN), Some(SESSION_REQUESTS.len() as u64));
    // The transcript itself differs from the golden here (obs-attached
    // stats responses embed the snapshot), so just require the counter
    // to have seen real traffic.
    assert!(snapshot.counter(conn_counters::BYTES_OUT).unwrap() >= SESSION_GOLDEN.len() as u64);
    assert!(snapshot.gauge(conn_counters::OUTBOUND_QUEUE_HWM).is_some());
}

#[test]
fn without_a_registry_the_snapshot_carries_no_conn_rows() {
    use fpga_rt_service::conn_counters;
    let config = golden_config(1);
    let (endpoint, server) =
        start_server(&Endpoint::Tcp("127.0.0.1:0".into()), one_conn(), config, Obs::off());
    let _ = replay_over_socket(&endpoint, SESSION_REQUESTS);
    let (_, snapshot) = server.join().expect("server thread").expect("serve");
    assert_eq!(snapshot.counter(conn_counters::ACCEPTED), None);
    assert_eq!(snapshot.counter(conn_counters::BYTES_IN), None);
}
