//! `wire-pingpong`: two TCP loopback connections to a separate
//! `fpga-rt serve --listen tcp://127.0.0.1:0` process (this binary
//! re-executed as `perfbench serve …`, which runs the same CLI code).
//!
//! Each connection drives one session, closed loop: `create`, then light
//! admit / query / release-by-handle requests until the budget is spent,
//! then `destroy`. One client thread drives both connections in lockstep,
//! so both requests of a step meet the server's event loop in the same
//! state (two free-running client threads made the share of requests that
//! caught the loop awake, and with it the median, swing from run to run).
//! Every request line goes out in one `write` (line and
//! newline together; a separate newline write is what stalls on Nagle's
//! algorithm) and the next request waits for the response. The tasks are
//! so light that every admit settles in the incremental-DP tier, so the
//! analysis costs about a microsecond and the socket path — poll cadence,
//! framing, flushing — is nearly all of the latency.

use crate::session::{
    controller_metrics, lifecycle_line, parse_reply, protocol_metrics, ControllerProbe, Replica,
    Sent, COLUMNS,
};
use crate::stats::{
    median, nanos, quantile, ratio, require_samples, setup_median, RunResult, Windows,
};
use crate::trace::Tracer;
use crate::{mix_seed, peak_rss_mb, Params};
use fpga_rt_obs::Obs;
use fpga_rt_service::{ServeConfig, ServiceCore, TaskParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Client connections, one session each.
const CONNECTIONS: u64 = 2;
/// Live tasks a session keeps at most.
const MAX_LIVE: usize = 6;
/// Server starts timed for `setup_s`; the median is reported.
const SETUP_REPS: usize = 31;
/// Request/response pairs kept for the protocol probes.
const PROTOCOL_SAMPLES: usize = 4000;
/// Width of the windows the end-to-end figures are taken over (s).
const WINDOW_S: f64 = 0.5;

/// A `perfbench serve` child process, killed and reaped on drop.
struct Server {
    child: Child,
    /// Held open so the child never writes to a closed pipe.
    _stderr: BufReader<ChildStderr>,
    addr: String,
}

impl Server {
    /// Start the server and wait for its `listening on tcp://…` line.
    fn spawn() -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["serve", "--columns", &COLUMNS.to_string(), "--listen", "tcp://127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let read = stderr.read_line(&mut line);
        let addr = line.trim().strip_prefix("listening on tcp://").map(str::to_string);
        let server = Server { child, _stderr: stderr, addr: addr.clone().unwrap_or_default() };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok(server),
            _ => Err(format!("server did not report its address: {line:?}")),
        }
    }

    fn connect(&self) -> Result<Client, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { stream, reader, buf: String::new(), out: Vec::new() })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One blocking connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
    out: Vec<u8>,
}

impl Client {
    /// Send one line with its newline in a single write; returns the write
    /// start and end.
    fn send(&mut self, line: &str) -> Result<(Instant, Instant), String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        let start = Instant::now();
        self.stream.write_all(&self.out).map_err(|e| format!("write: {e}"))?;
        Ok((start, Instant::now()))
    }

    /// Block until the next response line is in `self.buf`; returns the
    /// read start and end.
    fn recv(&mut self) -> Result<(Instant, Instant), String> {
        self.buf.clear();
        let start = Instant::now();
        let n = self.reader.read_line(&mut self.buf).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        Ok((start, Instant::now()))
    }

    fn call(&mut self, line: &str) -> Result<(), String> {
        self.send(line)?;
        self.recv().map(drop)
    }
}

/// Timestamps of one request: write start, write end, read start, read
/// end (the response is in).
type RoundTrip = [Instant; 4];

/// One session's script and results.
#[derive(Default)]
struct SessionLog {
    name: String,
    /// Sent ops and the packed outcome the service answered.
    ops: Vec<(Sent, u64)>,
    /// Round trips of each phase (untraced, then traced).
    phases: Vec<Vec<RoundTrip>>,
    failed: u64,
    not_dp_inc: u64,
    protocol: Vec<(String, String)>,
}

/// Pick the next light op of a session from its seeded stream.
fn next_op(rng: &mut StdRng, live: &mut Vec<u64>) -> Sent {
    let admit = live.is_empty() || (live.len() < MAX_LIVE && rng.gen_range(0u32..10) < 4);
    if admit {
        let period: f64 = rng.gen_range(10.0..50.0);
        let exec = rng.gen_range(0.05..0.5);
        let area = rng.gen_range(1..=8);
        Sent::Admit(TaskParams { exec, deadline: period, period, area })
    } else if live.len() >= MAX_LIVE || rng.gen_bool(0.5) {
        Sent::Release(live.swap_remove(rng.gen_range(0..live.len())))
    } else {
        Sent::Query
    }
}

/// One connection's state while driving.
struct Tenant {
    client: Client,
    log: SessionLog,
    rng: StdRng,
    live: Vec<u64>,
    seq: u64,
    sent: Sent,
    line: String,
    times: (Instant, Instant),
}

impl Tenant {
    fn lifecycle(&mut self, op: &str) -> Result<(), String> {
        self.client.call(&lifecycle_line(&self.log.name, op))?;
        if !parse_reply(&self.client.buf).is_some_and(|r| r.outcome.ok && r.op == op) {
            self.log.failed += 1;
        }
        self.seq += 1;
        Ok(())
    }

    /// Check the response in the client buffer against the sent op.
    fn check(&mut self, phase: usize, rt: RoundTrip) {
        let buf = &self.client.buf;
        let reply = parse_reply(buf)
            .filter(|r| r.seq == self.seq && r.op == self.sent.op() && r.outcome.ok);
        self.seq += 1;
        let packed = match reply {
            Some(r) => {
                if let Sent::Admit(_) = self.sent {
                    if r.outcome.tier != 1 {
                        self.log.not_dp_inc += 1;
                    }
                    self.live.extend(r.outcome.handle);
                }
                r.outcome.pack()
            }
            None => {
                self.log.failed += 1;
                0
            }
        };
        self.log.ops.push((self.sent, packed));
        self.log.phases[phase].push(rt);
        if phase == 1 && self.log.protocol.len() < PROTOCOL_SAMPLES {
            self.log.protocol.push((std::mem::take(&mut self.line), buf.trim_end().to_string()));
        }
    }
}

/// Drive every connection from this one thread in lockstep: each step
/// writes one request on every connection, then reads every response, so
/// each connection has one request in flight and waits for its answer.
/// Returns the session logs and each phase's wall time.
fn drive(
    server: &Server,
    seed: u64,
    phases: &[Duration],
) -> Result<(Vec<SessionLog>, Vec<f64>), String> {
    let mut tenants = Vec::new();
    for conn in 0..CONNECTIONS {
        let mut tenant = Tenant {
            client: server.connect()?,
            log: SessionLog {
                name: format!("c{conn}"),
                phases: vec![Vec::new(); phases.len()],
                ..SessionLog::default()
            },
            rng: StdRng::seed_from_u64(mix_seed(seed) ^ conn),
            live: Vec::new(),
            seq: 0,
            sent: Sent::Query,
            line: String::new(),
            times: (Instant::now(), Instant::now()),
        };
        tenant.lifecycle("create")?;
        tenants.push(tenant);
    }
    let mut elapsed = Vec::new();
    for (p, budget) in phases.iter().enumerate() {
        let start = Instant::now();
        while start.elapsed() < *budget {
            for t in &mut tenants {
                t.sent = next_op(&mut t.rng, &mut t.live);
                t.line = t.sent.line(&t.log.name);
                t.times = t.client.send(&t.line)?;
            }
            for t in &mut tenants {
                let (read_start, end) = t.client.recv()?;
                t.check(p, [t.times.0, t.times.1, read_start, end]);
            }
        }
        elapsed.push(start.elapsed().as_secs_f64());
    }
    for t in &mut tenants {
        t.lifecycle("destroy")?;
    }
    Ok((tenants.into_iter().map(|t| t.log).collect(), elapsed))
}

/// Replay a session's sent ops through a replica and count mismatches.
fn oracle(log: &SessionLog, probe: Option<&mut ControllerProbe>) -> (u64, Replica) {
    let mut replica = Replica::new();
    let mut probe = probe;
    let mut mismatches = 0;
    for (i, (sent, packed)) in log.ops.iter().enumerate() {
        if replica.apply(sent, i as u64, probe.as_deref_mut()).pack() != *packed {
            mismatches += 1;
        }
    }
    (mismatches, replica)
}

fn rtt_us(rts: &[RoundTrip]) -> Vec<f64> {
    rts.iter().map(|rt| nanos(rt[3] - rt[0]) as f64 / 1e3).collect()
}

/// The round trips of phase `p` across every session.
fn phase(logs: &[SessionLog], p: usize) -> Vec<RoundTrip> {
    logs.iter().flat_map(|l| l.phases[p].iter().copied()).collect()
}

/// Run the wire workload.
pub fn run(params: &Params) -> Result<RunResult, String> {
    let mut tracer = Tracer::new(); // origin before every timestamp of the run
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let server = Server::spawn()?;
        let mut client = server.connect()?;
        client.call(&lifecycle_line("setup", "create"))?;
        setups.push(start.elapsed().as_secs_f64());
        if !parse_reply(&client.buf).is_some_and(|r| r.outcome.ok) {
            return Err(format!("setup create failed: {}", client.buf));
        }
    }

    let server = Server::spawn()?;
    let budget = Duration::from_secs_f64(params.seconds);
    let phases = if params.trace { vec![budget / 2, budget / 2] } else { vec![budget] };
    let (mut logs, elapsed) = drive(&server, params.seed, &phases)?;
    let rss_mb = peak_rss_mb(Some(server.child.id()))?;
    drop(server);

    let mut result = RunResult::default();
    if params.inject_fault {
        if let Some(op) = logs[0].ops.first_mut() {
            op.1 ^= 0b10; // flip one logged verdict
        }
    }
    let steps = logs.iter().map(|l| l.ops.len()).min().unwrap_or(0) as u64;
    // `fpga-rt serve` runs one shard, so one worker serves every session.
    let mut probe = ControllerProbe::new(0..steps, 1);
    let mut replicas = Vec::new();
    for log in &logs {
        let (mismatches, replica) = oracle(log, params.trace.then_some(&mut probe));
        result.failed += log.failed + mismatches;
        result.attempted += log.ops.len() as u64 + 2;
        replicas.push(replica);
        if log.not_dp_inc > 0 {
            result.violate(format!("{}: {} admits left the dp-inc tier", log.name, log.not_dp_inc));
        }
    }

    let plain = phase(&logs, 0);
    let mut windows =
        Windows::new(plain.iter().map(|rt| rt[0]).min().unwrap_or_else(Instant::now), WINDOW_S);
    for rt in &plain {
        windows.record(rt[3], nanos(rt[3] - rt[0]) as f64 / 1e3);
    }
    let summary = windows.summary(elapsed[0]);
    let ops_per_s = summary.rate;
    let m = &mut result.metrics;
    if !params.trace {
        m.set("setup_s", setup_median(params.workload, &mut setups));
        m.set("p50_us", summary.p50);
        m.set("p99_us", summary.p99);
        m.set("ops_per_s", ops_per_s);
        m.set("peak_rss_mb", rss_mb);
        require_samples(params, summary.min_window, &mut result.violations);
        return Ok(result);
    }

    // Traced: client-side spans, then the same script through an
    // in-process core for the transport overhead and the core layers.
    let traced = phase(&logs, 1);
    let mut traced_rtts = rtt_us(&traced);
    for (req, rt) in (0u64..).zip(&traced) {
        let root = tracer.record(req, "request", tracer.at(rt[0]), tracer.at(rt[3]), None);
        tracer.record(req, "client.write", tracer.at(rt[0]), tracer.at(rt[1]), Some(root));
        tracer.record(req, "client.read", tracer.at(rt[2]), tracer.at(rt[3]), Some(root));
    }
    let path = tracer.write(params.workload, params.seed).map_err(|e| e.to_string())?;
    eprintln!("{} spans recorded, kept in {}", tracer.recorded(), path.display());
    m.set(
        "trace.overhead",
        ratio(ratio(traced.len() as f64, elapsed[1]), ratio(plain.len() as f64, elapsed[0])),
    );

    // Coverage: the in-process core's share of the round trip (medians);
    // the rest is the transport, a residual.
    let (mut core_us, flush_total) = in_process(&logs, m)?;
    m.set("trace.coverage", ratio(median(&mut core_us), median(&mut traced_rtts.clone())));
    let mut wire_us = rtt_us(&plain);
    wire_us.append(&mut traced_rtts);
    m.set("transport.overhead_p50_us", quantile(&mut wire_us, 0.5) - quantile(&mut core_us, 0.5));
    m.set("transport.overhead_p99_us", quantile(&mut wire_us, 0.99) - quantile(&mut core_us, 0.99));
    let protocol: Vec<(String, String)> =
        logs.iter().flat_map(|l| l.protocol.iter().cloned()).collect();
    let render_mean = protocol_metrics(&protocol, m);
    let lines = logs.iter().map(|l| l.ops.len()).sum::<usize>() as f64;
    m.set(
        "pool.overhead_ns_per_line",
        (flush_total - probe.critical_path_steps_ns().iter().sum::<f64>() - render_mean * lines)
            / lines,
    );
    m.set("pool.shard_load_max_over_mean", 1.0);
    controller_metrics(&mut probe, &replicas, m);
    Ok(result)
}

/// Replay the sessions' scripts through an in-process core configured like
/// `fpga-rt serve`'s defaults, in the same lockstep (one flush per step);
/// records the core metrics and returns the per-request core time (µs)
/// and the summed flush time (ns).
fn in_process(
    logs: &[SessionLog],
    m: &mut crate::stats::Metrics,
) -> Result<(Vec<f64>, f64), String> {
    let mut core = ServiceCore::new(&ServeConfig::new(COLUMNS), Obs::off())?;
    let conns: Vec<_> = logs.iter().map(|_| core.open()).collect();
    for (log, conn) in logs.iter().zip(&conns) {
        core.submit(*conn, &lifecycle_line(&log.name, "create"))?;
        core.flush()?;
    }
    let (mut submit_ns, mut flush_ns, mut total_us) = (Vec::new(), Vec::new(), Vec::new());
    let steps = logs.iter().map(|l| l.ops.len()).min().unwrap_or(0);
    let mut starts = Vec::with_capacity(logs.len());
    for i in 0..steps {
        starts.clear();
        for (log, conn) in logs.iter().zip(&conns) {
            let line = log.ops[i].0.line(&log.name);
            let start = Instant::now();
            core.submit(*conn, &line)?;
            submit_ns.push(nanos(start.elapsed()) as f64);
            starts.push(start);
        }
        let flush_start = Instant::now();
        std::hint::black_box(core.flush()?);
        let end = Instant::now();
        flush_ns.push(nanos(end - flush_start) as f64);
        total_us.extend(starts.iter().map(|s| nanos(end - *s) as f64 / 1e3));
    }
    let flush_total = flush_ns.iter().sum();
    m.set("core.submit_ns.p50", quantile(&mut submit_ns, 0.5));
    m.set("core.flush_ns.p50", quantile(&mut flush_ns, 0.5));
    m.set("core.flush_ns.p99", quantile(&mut flush_ns, 0.99));
    m.set("core.lines_per_flush.mean", logs.len() as f64);
    Ok((total_us, flush_total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(seed: u64) -> Vec<Sent> {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed));
        let mut live = Vec::new();
        (0..200)
            .map(|i| {
                let op = next_op(&mut rng, &mut live);
                if let Sent::Admit(_) = op {
                    live.push(i);
                }
                op
            })
            .collect()
    }

    #[test]
    fn the_seed_picks_the_script() {
        assert_eq!(script(1), script(1));
        assert_ne!(script(1), script(2));
    }

    #[test]
    fn sessions_stay_light() {
        for op in script(5) {
            if let Sent::Admit(t) = op {
                assert!(t.exec / t.period <= 0.05 && t.area <= 8, "{t:?}");
            }
        }
    }
}
