//! Non-blocking TCP / Unix-socket front end over [`ServiceCore`].
//!
//! A hand-rolled event loop — no async runtime, no epoll binding, just
//! `std::net` listeners in non-blocking mode driven by a readiness poll
//! loop — that accepts many concurrent client connections and feeds them
//! all into the one [`ServiceCore`] batch engine (and therefore the one
//! `SessionManager`/`ShardedPool` pair) in a single process. The design
//! keeps every protocol decision out of this module: transport code only
//! moves bytes, splits frames and routes rendered response lines back to
//! the connection that asked.
//!
//! ## Framing
//!
//! The wire format is the same JSONL the stdio transport speaks: one
//! request per `\n`-terminated line, one response line per request, per
//! connection in request order. The reader is resilient to partial
//! reads (a line may arrive over any number of TCP segments) and to
//! oversized frames: a line that exceeds
//! [`TransportConfig::max_line_bytes`] without a newline is answered
//! with a typed protocol error (consuming its sequence number, holding
//! its place in the response order) and the reader discards bytes until
//! the next newline resynchronizes the stream. A final unterminated
//! line before EOF is served like `BufRead::read_line` would — socket
//! replays of a file without a trailing newline match stdio exactly.
//!
//! ## Backpressure and disconnects
//!
//! Responses queue into a per-connection outbound buffer written as the
//! socket drains. A consumer that stops reading until the queue exceeds
//! [`TransportConfig::outbound_max_bytes`] is disconnected with a
//! best-effort terminal error line (`conn/slow_disconnects`); a
//! connection idle longer than [`TransportConfig::idle_timeout`] is
//! disconnected the same way (`conn/idle_disconnects`). Shutdown (the
//! [`SocketServer::shutdown_handle`] flag, or the
//! [`TransportConfig::max_conns`] budget running out) stops accepting,
//! serves what is already queued, drains outbound buffers within a 5 s
//! grace period, then returns the same `(SessionStats, Snapshot)` the
//! stdio driver does.
//!
//! ## Determinism
//!
//! Batching never changes a response byte (the stdio goldens pin this),
//! so the event loop flushes the engine whenever its sockets run dry
//! instead of waiting for full batches — interactive clients get
//! immediate responses and a replayed transcript stays byte-identical
//! to the stdio run at any worker count.

use crate::core::{conn_counters, ConnectionId, ServiceCore};
use crate::server::{ServeConfig, SessionStats};
use fpga_rt_obs::{Obs, Snapshot};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a service endpoint lives. Parsed from the `--listen` /
/// `--connect` CLI forms: `stdio`, `tcp://HOST:PORT` or `unix://PATH`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// The classic single-client stdin/stdout pipe.
    Stdio,
    /// A TCP listener/target address, `HOST:PORT`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parse an endpoint spec. Accepted forms: `stdio`,
    /// `tcp://HOST:PORT`, `unix://PATH`.
    pub fn parse(spec: &str) -> Result<Endpoint, String> {
        let unsupported = || {
            format!(
                "unsupported endpoint `{spec}` (expected `stdio`, `tcp://HOST:PORT` or `unix://PATH`)"
            )
        };
        if spec == "stdio" {
            return Ok(Endpoint::Stdio);
        }
        if let Some(addr) = spec.strip_prefix("tcp://") {
            // HOST:PORT with a non-empty host and a numeric port; IPv6
            // literals keep their brackets (`tcp://[::1]:7411`).
            let (host, port) = addr.rsplit_once(':').ok_or_else(unsupported)?;
            if host.is_empty() || port.is_empty() || port.parse::<u16>().is_err() {
                return Err(unsupported());
            }
            return Ok(Endpoint::Tcp(addr.to_string()));
        }
        if let Some(path) = spec.strip_prefix("unix://") {
            if path.is_empty() {
                return Err(unsupported());
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        Err(unsupported())
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Stdio => write!(f, "stdio"),
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// Tunables of the socket front end (the protocol itself has none —
/// these are purely transport limits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Longest accepted request line in bytes (newline excluded); longer
    /// frames are rejected with a typed protocol error and skipped.
    pub max_line_bytes: usize,
    /// Outbound-queue bound per connection in bytes; a consumer lagging
    /// past it is disconnected (slow-consumer policy).
    pub outbound_max_bytes: usize,
    /// Disconnect a connection with no traffic for this long (`None` =
    /// never).
    pub idle_timeout: Option<Duration>,
    /// Serve exactly this many connections in total, then drain and
    /// return (`None` = keep accepting until shutdown). This is what
    /// gives scripted replays and CI a deterministic exit.
    pub max_conns: Option<usize>,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            max_line_bytes: 1 << 20,
            outbound_max_bytes: 4 << 20,
            idle_timeout: None,
            max_conns: None,
        }
    }
}

/// Sleep between poll passes when no socket made progress.
const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// How long shutdown waits for unread outbound bytes before
/// force-closing.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Accept one pending connection, or `None` when the queue is empty.
    fn accept(&self) -> std::io::Result<Option<Stream>> {
        match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((stream, _)) => Ok(Some(Stream::Tcp(stream))),
                Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Unix(l, _) => match l.accept() {
                Ok((stream, _)) => Ok(Some(Stream::Unix(stream))),
                Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    /// Non-blocking for the event loop; TCP also sets `TCP_NODELAY`, so a
    /// short response is sent at once instead of waiting for the client's
    /// delayed ACK.
    fn configure(&self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(true).and_then(|()| s.set_nodelay(true)),
            Stream::Unix(s) => s.set_nonblocking(true),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// One client connection's transport state.
struct Conn {
    id: ConnectionId,
    stream: Stream,
    inbuf: Vec<u8>,
    /// Unconsumed-prefix cursor into `inbuf` (compacted between passes).
    scanned: usize,
    outbuf: Vec<u8>,
    out_pos: usize,
    /// Oversize resync: skip bytes until the next newline.
    discarding: bool,
    eof: bool,
    dead: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(id: ConnectionId, stream: Stream) -> Self {
        Conn {
            id,
            stream,
            inbuf: Vec::new(),
            scanned: 0,
            outbuf: Vec::new(),
            out_pos: 0,
            discarding: false,
            eof: false,
            dead: false,
            last_activity: Instant::now(),
        }
    }

    fn queued_out(&self) -> usize {
        self.outbuf.len() - self.out_pos
    }
}

/// One frame taken off a connection's read buffer.
enum Frame {
    /// A complete line (newline stripped; possibly the final unterminated
    /// line before EOF).
    Line(String),
    /// A frame longer than the configured limit; the buffer has entered
    /// (or stays in) discard mode until the next newline.
    Oversize,
}

/// The bound socket front end. `bind` first, then read
/// [`local_endpoint`](SocketServer::local_endpoint) (which resolves
/// port-0 TCP binds to the real port) and hand the returned server to
/// [`serve`](SocketServer::serve) — typically on a dedicated thread,
/// with the [`shutdown_handle`](SocketServer::shutdown_handle) kept for
/// a graceful stop.
pub struct SocketServer {
    listener: Listener,
    config: TransportConfig,
    shutdown: Arc<AtomicBool>,
}

impl SocketServer {
    /// Bind a listener on `endpoint` (`Stdio` is not bindable here — use
    /// [`crate::serve_session`]). A pre-existing Unix socket file is
    /// replaced; the file is removed again when the server is dropped.
    pub fn bind(endpoint: &Endpoint, config: TransportConfig) -> Result<SocketServer, String> {
        let listener = match endpoint {
            Endpoint::Stdio => {
                return Err("cannot bind a socket listener on `stdio`".to_string());
            }
            Endpoint::Tcp(addr) => {
                let listener =
                    TcpListener::bind(addr).map_err(|e| format!("bind tcp://{addr}: {e}"))?;
                Listener::Tcp(listener)
            }
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)
                    .map_err(|e| format!("bind unix://{}: {e}", path.display()))?;
                Listener::Unix(listener, path.clone())
            }
        };
        match &listener {
            Listener::Tcp(l) => l.set_nonblocking(true),
            Listener::Unix(l, _) => l.set_nonblocking(true),
        }
        .map_err(|e| format!("set_nonblocking: {e}"))?;
        Ok(SocketServer { listener, config, shutdown: Arc::new(AtomicBool::new(false)) })
    }

    /// The endpoint actually bound — a `tcp://HOST:0` request reports the
    /// kernel-assigned port, which is what in-process tests connect to.
    pub fn local_endpoint(&self) -> Endpoint {
        match &self.listener {
            Listener::Tcp(l) => Endpoint::Tcp(
                l.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".to_string()),
            ),
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
        }
    }

    /// A flag that stops the accept loop and drains the server when set.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Run the event loop until shutdown (or the
    /// [`TransportConfig::max_conns`] budget is spent and every
    /// connection has closed). Returns the same session summary and
    /// `fpga-rt-obs/1` snapshot as the stdio driver.
    pub fn serve(
        self,
        serve_config: &ServeConfig,
        obs: Obs,
    ) -> Result<(SessionStats, Snapshot), String> {
        let mut core = ServiceCore::new(serve_config, obs.clone())?;
        let cfg = self.config;
        let mut conns: Vec<Conn> = Vec::new();
        let mut accepted_total: usize = 0;
        let mut out_hwm: u64 = 0;
        let mut draining_since: Option<Instant> = None;
        let mut read_chunk = vec![0u8; 64 << 10];

        loop {
            let mut progress = false;
            let budget_spent = cfg.max_conns.is_some_and(|m| accepted_total >= m);
            let stopping = self.shutdown.load(Ordering::Relaxed) || budget_spent;

            // Accept every pending connection (the listener queue drains
            // fully each pass so a connect burst is not serialized over
            // poll intervals).
            while !stopping && !cfg.max_conns.is_some_and(|m| accepted_total >= m) {
                match self.listener.accept() {
                    Ok(Some(stream)) => {
                        if let Err(e) = stream.configure() {
                            return Err(format!("configure accepted conn: {e}"));
                        }
                        conns.push(Conn::new(core.open(), stream));
                        accepted_total += 1;
                        obs.inc(conn_counters::ACCEPTED);
                        obs.set_gauge(conn_counters::ACTIVE, conns.len() as u64);
                        progress = true;
                    }
                    Ok(None) => break,
                    // Transient accept failures (e.g. the peer aborted
                    // while queued) are not server errors.
                    Err(_) => break,
                }
            }

            // Read phase: pull every readable byte into per-connection
            // buffers. EOF (or a read error) half-closes: buffered
            // requests are still served and responses flushed before the
            // connection is reaped.
            for conn in conns.iter_mut().filter(|c| !c.dead && !c.eof) {
                loop {
                    match conn.stream.read(&mut read_chunk) {
                        Ok(0) => {
                            conn.eof = true;
                            break;
                        }
                        Ok(n) => {
                            conn.inbuf.extend_from_slice(&read_chunk[..n]);
                            conn.last_activity = Instant::now();
                            obs.add(conn_counters::BYTES_IN, n as u64);
                            progress = true;
                            // Oversize frames are resolved by the submit
                            // phase; don't buffer past one limit's worth
                            // before letting it run.
                            if conn.inbuf.len().saturating_sub(conn.scanned) > cfg.max_line_bytes {
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.eof = true;
                            break;
                        }
                    }
                }
            }

            // Submit phase: split buffered bytes into frames and feed the
            // engine, flushing whenever the batch fills (or a `stats` op
            // cuts it). Each connection's frames are submitted in arrival
            // order, which is what preserves its response order.
            for idx in 0..conns.len() {
                loop {
                    if core.batch_ready() {
                        flush_into_outbufs(&mut core, &mut conns, &obs, &cfg, &mut out_hwm)?;
                    }
                    let conn = &mut conns[idx];
                    if conn.dead {
                        break;
                    }
                    let Some(frame) = take_frame(conn, cfg.max_line_bytes) else { break };
                    progress = true;
                    match frame {
                        Frame::Line(line) => core.submit(conn.id, &line).map(|_| ())?,
                        Frame::Oversize => {
                            obs.inc(conn_counters::OVERSIZE_REJECTS);
                            core.reject_line(
                                conn.id,
                                format!(
                                    "oversized request line: exceeds {} bytes",
                                    cfg.max_line_bytes
                                ),
                            )?;
                        }
                    }
                }
            }
            // The sockets ran dry: answer everything that is queued
            // instead of waiting for a full batch (batching changes no
            // response byte — interactive clients rely on this).
            if core.batch_len() > 0 {
                flush_into_outbufs(&mut core, &mut conns, &obs, &cfg, &mut out_hwm)?;
            }

            // Write phase: drain outbound buffers as far as the sockets
            // accept.
            for conn in conns.iter_mut().filter(|c| !c.dead) {
                while conn.out_pos < conn.outbuf.len() {
                    match conn.stream.write(&conn.outbuf[conn.out_pos..]) {
                        Ok(0) => {
                            conn.dead = true;
                            break;
                        }
                        Ok(n) => {
                            conn.out_pos += n;
                            obs.add(conn_counters::BYTES_OUT, n as u64);
                            progress = true;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.dead = true;
                            break;
                        }
                    }
                }
                if conn.out_pos == conn.outbuf.len() {
                    conn.outbuf.clear();
                    conn.out_pos = 0;
                }
            }

            // Idle timeouts (only meaningful for connections with nothing
            // in flight either way).
            if let Some(idle) = cfg.idle_timeout {
                for conn in conns.iter_mut().filter(|c| !c.dead && !c.eof) {
                    if conn.inbuf.len() == conn.scanned
                        && conn.queued_out() == 0
                        && conn.last_activity.elapsed() > idle
                    {
                        let _ = conn.stream.write_all(
                            b"{\"ok\":false,\"error\":\"idle timeout: connection closed\"}\n",
                        );
                        obs.inc(conn_counters::IDLE_DISCONNECTS);
                        conn.dead = true;
                    }
                }
            }

            // During shutdown, close connections as soon as their output
            // is drained; past the grace period, close them regardless.
            // A spent `max_conns` budget is *not* shutdown: those
            // connections are served to their natural EOF.
            if self.shutdown.load(Ordering::Relaxed) {
                let since = *draining_since.get_or_insert_with(Instant::now);
                let force = since.elapsed() > DRAIN_GRACE;
                for conn in conns.iter_mut() {
                    if conn.inbuf.len() == conn.scanned && (conn.queued_out() == 0 || force) {
                        conn.dead = true;
                    }
                }
            }

            // Reap closed connections.
            let before = conns.len();
            conns.retain_mut(|conn| {
                let done = conn.dead
                    || (conn.eof && conn.inbuf.len() == conn.scanned && conn.queued_out() == 0);
                if done {
                    core.close(conn.id);
                    obs.inc(conn_counters::CLOSED);
                }
                !done
            });
            if conns.len() != before {
                obs.set_gauge(conn_counters::ACTIVE, conns.len() as u64);
                progress = true;
            }

            if conns.is_empty() && stopping {
                break;
            }
            if !progress {
                std::thread::sleep(POLL_INTERVAL);
            }
        }

        obs.set_gauge(conn_counters::OUTBOUND_QUEUE_HWM, out_hwm);
        core.finish()
    }
}

/// Flush the engine's open batch and route every rendered line to its
/// connection's outbound buffer, enforcing the slow-consumer bound.
fn flush_into_outbufs(
    core: &mut ServiceCore,
    conns: &mut [Conn],
    obs: &Obs,
    cfg: &TransportConfig,
    out_hwm: &mut u64,
) -> Result<(), String> {
    for (cid, rendered) in core.flush()? {
        // A line for a connection that died mid-batch is discarded — the
        // engine already accounted it.
        let Some(conn) = conns.iter_mut().find(|c| c.id == cid && !c.dead) else { continue };
        if conn.queued_out() + rendered.len() + 1 > cfg.outbound_max_bytes {
            // Slow consumer: a terminal, unsequenced error line is
            // attempted directly (the queue it skips is being dropped
            // with the connection).
            let notice = format!(
                "{{\"ok\":false,\"error\":\"slow consumer: outbound queue exceeded {} bytes; closing\"}}\n",
                cfg.outbound_max_bytes
            );
            let _ = conn.stream.write_all(notice.as_bytes());
            obs.inc(conn_counters::SLOW_DISCONNECTS);
            conn.dead = true;
            core.close(conn.id);
            continue;
        }
        conn.outbuf.extend_from_slice(rendered.as_bytes());
        conn.outbuf.push(b'\n');
        *out_hwm = (*out_hwm).max(conn.queued_out() as u64);
    }
    Ok(())
}

/// Take the next frame off a connection's read buffer, if one is
/// complete: a newline-terminated line, the final unterminated line at
/// EOF, or an oversize marker (which flips the buffer into discard mode
/// until the next newline).
fn take_frame(conn: &mut Conn, max_line_bytes: usize) -> Option<Frame> {
    loop {
        let pending = &conn.inbuf[conn.scanned..];
        let newline = pending.iter().position(|b| *b == b'\n');
        if conn.discarding {
            match newline {
                Some(pos) => {
                    // The oversize frame ends here; resynchronize.
                    conn.scanned += pos + 1;
                    conn.discarding = false;
                    compact(conn);
                    continue;
                }
                None => {
                    // Still inside the oversized frame: drop what we have.
                    conn.scanned = conn.inbuf.len();
                    compact(conn);
                    if conn.eof {
                        conn.discarding = false;
                    }
                    return None;
                }
            }
        }
        return match newline {
            Some(pos) if pos > max_line_bytes => {
                conn.scanned += pos + 1;
                compact(conn);
                Some(Frame::Oversize)
            }
            Some(pos) => {
                let line = String::from_utf8_lossy(&pending[..pos]).into_owned();
                conn.scanned += pos + 1;
                compact(conn);
                Some(Frame::Line(line))
            }
            None if pending.len() > max_line_bytes => {
                conn.scanned = conn.inbuf.len();
                conn.discarding = true;
                compact(conn);
                Some(Frame::Oversize)
            }
            None if conn.eof && !pending.is_empty() => {
                // `read_line` serves a final line without a newline; so
                // does the socket transport.
                let line = String::from_utf8_lossy(pending).into_owned();
                conn.scanned = conn.inbuf.len();
                compact(conn);
                Some(Frame::Line(line))
            }
            None => None,
        };
    }
}

/// Drop the consumed prefix of the read buffer (amortized: only once it
/// outgrows a small threshold, so frame splitting stays O(bytes)).
fn compact(conn: &mut Conn) {
    if conn.scanned == conn.inbuf.len() {
        conn.inbuf.clear();
        conn.scanned = 0;
    } else if conn.scanned > 8 << 10 {
        conn.inbuf.drain(..conn.scanned);
        conn.scanned = 0;
    }
}

/// A blocking client stream for scripted replays — the CLI `client`
/// subcommand, the load generator's socket mode and the byte-identity
/// tests all connect through this.
pub enum ClientStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Unix(UnixStream),
}

impl ClientStream {
    /// Connect to a socket endpoint (`Stdio` is not connectable).
    pub fn connect(endpoint: &Endpoint) -> Result<ClientStream, String> {
        match endpoint {
            Endpoint::Stdio => Err("cannot connect to `stdio`".to_string()),
            // `TCP_NODELAY`: a request is sent as soon as it is written,
            // however the caller splits its writes.
            Endpoint::Tcp(addr) => TcpStream::connect(addr)
                .and_then(|s| s.set_nodelay(true).map(|()| ClientStream::Tcp(s)))
                .map_err(|e| format!("connect tcp://{addr}: {e}")),
            Endpoint::Unix(path) => UnixStream::connect(path)
                .map(ClientStream::Unix)
                .map_err(|e| format!("connect unix://{}: {e}", path.display())),
        }
    }

    /// [`connect`](ClientStream::connect), retrying until `timeout` —
    /// absorbs the race against a server still binding its listener.
    pub fn connect_with_retry(
        endpoint: &Endpoint,
        timeout: Duration,
    ) -> Result<ClientStream, String> {
        let deadline = Instant::now() + timeout;
        loop {
            match ClientStream::connect(endpoint) {
                Ok(stream) => return Ok(stream),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// Half-close the write side: the server sees EOF, serves what was
    /// sent, flushes every response and closes — the client then reads
    /// to EOF for a complete transcript.
    pub fn shutdown_write(&self) -> Result<(), String> {
        match self {
            ClientStream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            ClientStream::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        }
        .map_err(|e| format!("shutdown(write): {e}"))
    }

    /// A cloned handle for a dedicated writer thread.
    pub fn try_clone(&self) -> Result<ClientStream, String> {
        match self {
            ClientStream::Tcp(s) => s.try_clone().map(ClientStream::Tcp),
            ClientStream::Unix(s) => s.try_clone().map(ClientStream::Unix),
        }
        .map_err(|e| format!("clone stream: {e}"))
    }
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.read(buf),
            ClientStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.write(buf),
            ClientStream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.flush(),
            ClientStream::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_accepts_the_three_forms() {
        assert_eq!(Endpoint::parse("stdio").unwrap(), Endpoint::Stdio);
        assert_eq!(
            Endpoint::parse("tcp://127.0.0.1:7411").unwrap(),
            Endpoint::Tcp("127.0.0.1:7411".to_string())
        );
        assert_eq!(
            Endpoint::parse("tcp://[::1]:7411").unwrap(),
            Endpoint::Tcp("[::1]:7411".to_string())
        );
        assert_eq!(
            Endpoint::parse("unix:///tmp/fpga-rt.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/fpga-rt.sock"))
        );
    }

    #[test]
    fn endpoint_parse_names_the_accepted_forms_on_error() {
        for bad in [
            "",
            "tcp://",
            "tcp://:7411",
            "tcp://host",
            "tcp://host:",
            "tcp://host:notaport",
            "unix://",
            "ftp://host:1",
            "stdio:extra",
            "127.0.0.1:7411",
        ] {
            let err = Endpoint::parse(bad).unwrap_err();
            assert!(err.contains("tcp://HOST:PORT"), "{bad}: {err}");
            assert!(err.contains("unix://PATH"), "{bad}: {err}");
        }
    }

    #[test]
    fn endpoints_render_back_to_their_specs() {
        for spec in ["stdio", "tcp://127.0.0.1:7411", "unix:///tmp/fpga-rt.sock"] {
            assert_eq!(Endpoint::parse(spec).unwrap().to_string(), spec);
        }
    }

    #[test]
    fn binding_stdio_is_rejected() {
        assert!(SocketServer::bind(&Endpoint::Stdio, TransportConfig::default()).is_err());
    }

    #[test]
    fn tcp_streams_disable_nagle_on_both_ends() {
        let server = SocketServer::bind(&Endpoint::Tcp("127.0.0.1:0".into()), Default::default())
            .expect("bind");
        let client = ClientStream::connect(&server.local_endpoint()).expect("connect");
        let ClientStream::Tcp(client) = client else { panic!("expected a TCP client") };
        assert!(client.nodelay().unwrap());
        let accepted = loop {
            if let Some(stream) = server.listener.accept().expect("accept") {
                break stream;
            }
            std::thread::yield_now();
        };
        accepted.configure().expect("configure");
        let Stream::Tcp(accepted) = accepted else { panic!("expected a TCP stream") };
        assert!(accepted.nodelay().unwrap());
    }
}
