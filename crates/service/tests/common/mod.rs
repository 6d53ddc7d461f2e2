//! Shared harness for the socket-transport integration tests: spawn an
//! in-process [`SocketServer`], replay scripted requests over a blocking
//! client stream, and compare against the stdio driver's transcript.

use fpga_rt_obs::{Obs, Snapshot};
use fpga_rt_service::{
    serve_session, ClientStream, Endpoint, ServeConfig, SessionStats, SocketServer, TransportConfig,
};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

/// The deterministic config the multi-session golden was recorded with.
pub fn golden_config(workers: usize) -> ServeConfig {
    ServeConfig { shards: 4, batch: 16, workers, deterministic: true, ..ServeConfig::new(10) }
}

/// The stdio driver's transcript for `input` — the byte-identity
/// reference every socket replay is diffed against.
pub fn stdio_transcript(input: impl AsRef<[u8]>, config: &ServeConfig) -> String {
    let mut out = Vec::new();
    serve_session(&mut input.as_ref(), &mut out, config).expect("stdio replay");
    String::from_utf8(out).expect("utf-8 transcript")
}

static SOCKET_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A collision-free Unix-socket path for one test.
pub fn unix_path(tag: &str) -> PathBuf {
    let n = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fpga-rt-{tag}-{}-{n}.sock", std::process::id()))
}

/// Bind `endpoint`, start serving on a background thread, and return the
/// resolved endpoint (port-0 binds become real ports) plus the join
/// handle carrying the final `(SessionStats, Snapshot)`.
#[allow(clippy::type_complexity)]
pub fn start_server(
    endpoint: &Endpoint,
    transport: TransportConfig,
    config: ServeConfig,
    obs: Obs,
) -> (Endpoint, JoinHandle<Result<(SessionStats, Snapshot), String>>) {
    let server = SocketServer::bind(endpoint, transport).expect("bind");
    let local = server.local_endpoint();
    let handle = std::thread::spawn(move || server.serve(&config, obs));
    (local, handle)
}

/// Connect to `endpoint`, stream `input`, half-close, and read the full
/// response transcript to EOF.
pub fn replay_over_socket(endpoint: &Endpoint, input: impl AsRef<[u8]>) -> String {
    let mut stream =
        ClientStream::connect_with_retry(endpoint, Duration::from_secs(5)).expect("connect");
    stream.write_all(input.as_ref()).expect("send requests");
    stream.shutdown_write().expect("half-close");
    let mut transcript = String::new();
    stream.read_to_string(&mut transcript).expect("read responses");
    transcript
}
