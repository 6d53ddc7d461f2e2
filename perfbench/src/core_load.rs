//! `core-boundary` and `core-knife`: a loadgen stream through an in-process
//! [`ServiceCore`], closed loop with one request in flight per session.
//!
//! 32 tenants (`s0`…`s31`, one connection each) share a 32-shard core with
//! 2 pool workers. Each step every tenant submits its next op, the core
//! flushes, and the responses come back; a release frees the oldest handle
//! an earlier admit response returned (or degrades to a query when none is
//! live). The ops come from `fpga_rt_loadgen::synthesize` in rounds of the
//! BENCH_6 budget (8000 ops, 32 sessions, 100 columns), round `r` seeded
//! with `seed + r`.

use crate::session::{
    cache_totals, controller_metrics, lifecycle_line, parse_reply, protocol_metrics, resolve,
    ControllerProbe, Replica, Sent, COLUMNS, TIERS,
};
use crate::stats::{
    median, nanos, quantile, ratio, require_samples, setup_median, RunResult, WindowSummary,
    Windows,
};
use crate::trace::Tracer;
use crate::{peak_rss_mb, Params};
use fpga_rt_loadgen::{synthesize, ArrivalProfile, LoadSpec, OpKind};
use fpga_rt_obs::Obs;
use fpga_rt_service::{session_shard, ConnectionId, ServeConfig, ServiceCore};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Tenants, and shards of the core (one per tenant, as loadgen places them).
const SESSIONS: u32 = 32;
/// Ops per synthesized round (the BENCH_6 budget).
const ROUND_OPS: usize = 8000;
/// Pool worker threads: the two cores the benchmark is sized for.
const WORKERS: usize = 2;
/// Steps per warm-up window: one round's worth of ops.
const WINDOW_STEPS: u64 = (ROUND_OPS as u64) / SESSIONS as u64;
/// Warm-up bounds in windows (rounds).
const MIN_WARMUP_WINDOWS: u64 = 10;
const MAX_WARMUP_WINDOWS: u64 = 160;
/// Fresh cores built to measure set-up; the median is reported.
const SETUP_REPS: usize = 101;
/// Request/response pairs kept for the protocol probes.
const PROTOCOL_SAMPLES: usize = 4000;
/// Width of the windows the end-to-end figures are taken over (s).
const WINDOW_S: f64 = 0.5;

/// Which loadgen profile drives the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Poisson UUniFast waves at US 1.6: GN2-tier work, few cache hits.
    Boundary,
    /// Adversarial knife-edge cycles: exact-tier decisions and cache hits.
    Knife,
}

impl Mix {
    fn profile(self) -> ArrivalProfile {
        match self {
            Mix::Boundary => ArrivalProfile::Poisson,
            Mix::Knife => ArrivalProfile::Adversarial,
        }
    }
}

/// The seeded op stream, one round at a time.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    profile: ArrivalProfile,
    seed: u64,
    round: u64,
}

impl Stream {
    /// The stream of a workload seed.
    pub fn new(mix: Mix, seed: u64) -> Self {
        Stream { profile: mix.profile(), seed: crate::mix_seed(seed), round: 0 }
    }

    /// The next round's ops in arrival order.
    pub fn next_round(&mut self) -> Vec<fpga_rt_loadgen::ArrivalOp> {
        let spec = LoadSpec {
            profile: self.profile,
            ops: ROUND_OPS,
            sessions: SESSIONS,
            columns: COLUMNS,
            seed: self.seed.wrapping_add(self.round),
        };
        self.round += 1;
        synthesize(&spec).expect("the benchmark's load spec validates")
    }
}

struct Tenant {
    name: String,
    conn: ConnectionId,
    queue: VecDeque<OpKind>,
    live: VecDeque<u64>,
    /// Packed outcome of every op, in order (for the oracle).
    log: Vec<u64>,
    next_seq: u64,
}

/// Per-step timestamps: submit starts (and, traced, ends) plus the flush.
#[derive(Default)]
struct StepTimes {
    submit_start: Vec<Instant>,
    submit_end: Vec<Instant>,
    flush_start: Option<Instant>,
    end: Option<Instant>,
}

struct Driver {
    core: ServiceCore,
    tenants: Vec<Tenant>,
    stream: Stream,
    steps: u64,
    /// Protocol errors, dropped, unexpected and reordered responses.
    failed: u64,
    /// Admit responses per tier code, and live tasks summed over responses.
    tiers: [u64; 5],
    tasks_sum: u64,
    responses: u64,
    sent: Vec<Sent>,
    lines: Vec<String>,
    replies: Vec<String>,
}

fn serve_config() -> ServeConfig {
    ServeConfig { shards: SESSIONS, workers: WORKERS, ..ServeConfig::new(COLUMNS) }
}

impl Driver {
    /// Build the core and create every tenant's session; returns the
    /// driver and the time until the creates were answered.
    fn start(mix: Mix, seed: u64) -> Result<(Driver, Duration), String> {
        let start = Instant::now();
        let mut core = ServiceCore::new(&serve_config(), Obs::off())?;
        let mut tenants = Vec::with_capacity(SESSIONS as usize);
        for k in 0..SESSIONS {
            let name = format!("s{k}");
            let conn = core.open();
            core.submit(conn, &lifecycle_line(&name, "create"))?;
            tenants.push(Tenant {
                name,
                conn,
                queue: VecDeque::new(),
                live: VecDeque::new(),
                log: Vec::new(),
                next_seq: 1,
            });
        }
        let created = core.flush()?;
        let setup = start.elapsed();
        let mut failed = 0;
        if created.len() != tenants.len() {
            failed += 1;
        }
        for (_, line) in &created {
            if !parse_reply(line).is_some_and(|r| r.outcome.ok && r.op == "create") {
                failed += 1;
            }
        }
        let driver = Driver {
            core,
            tenants,
            stream: Stream::new(mix, seed),
            steps: 0,
            failed,
            tiers: [0; 5],
            tasks_sum: 0,
            responses: 0,
            sent: Vec::new(),
            lines: Vec::new(),
            replies: Vec::new(),
        };
        Ok((driver, setup))
    }

    /// One closed-loop step: every tenant submits its next op, then the
    /// core flushes. Request lines are built before the first submit, so
    /// the timed window holds only calls into the core.
    fn step(&mut self, times: &mut StepTimes, traced: bool) -> Result<(), String> {
        while self.tenants.iter().any(|t| t.queue.is_empty()) {
            for op in self.stream.next_round() {
                self.tenants[op.session as usize].queue.push_back(op.kind);
            }
        }
        self.sent.clear();
        self.lines.clear();
        for t in &mut self.tenants {
            let kind = t.queue.pop_front().expect("refilled above");
            let sent = resolve(&kind, &mut t.live);
            self.lines.push(sent.line(&t.name));
            self.sent.push(sent);
        }
        times.submit_start.clear();
        times.submit_end.clear();
        for (t, line) in self.tenants.iter().zip(&self.lines) {
            times.submit_start.push(Instant::now());
            self.core.submit(t.conn, line)?;
            if traced {
                times.submit_end.push(Instant::now());
            }
        }
        if traced {
            times.flush_start = Some(Instant::now());
        }
        let responses = self.core.flush()?;
        times.end = Some(Instant::now());
        self.steps += 1;
        self.check(responses)
    }

    /// Check each response against what its tenant sent and log it.
    fn check(&mut self, responses: Vec<(ConnectionId, String)>) -> Result<(), String> {
        let mut answered = vec![false; self.tenants.len()];
        self.replies.clear();
        for (conn, line) in responses {
            let i = conn.index() as usize;
            let (Some(t), Some(sent)) = (self.tenants.get_mut(i), self.sent.get(i)) else {
                self.failed += 1;
                continue;
            };
            let reply = parse_reply(&line);
            let good = !answered[i]
                && reply.is_some_and(|r| r.seq == t.next_seq && r.op == sent.op() && r.outcome.ok);
            answered[i] = true;
            t.next_seq += 1;
            let Some(reply) = reply.filter(|_| good) else {
                self.failed += 1;
                t.log.push(0);
                self.replies.push(line);
                continue;
            };
            if let Sent::Admit(_) = sent {
                self.tiers[usize::from(reply.outcome.tier)] += 1;
                if let Some(h) = reply.outcome.handle {
                    t.live.push_back(h);
                }
            }
            self.tasks_sum += reply.tasks;
            self.responses += 1;
            t.log.push(reply.outcome.pack());
            self.replies.push(line);
        }
        for (i, done) in answered.iter().enumerate() {
            if !done {
                self.failed += 1; // dropped
                self.tenants[i].log.push(0);
                self.tenants[i].next_seq += 1;
            }
        }
        Ok(())
    }

    /// Warm up until the mean live-set size stops growing: at least
    /// [`MIN_WARMUP_WINDOWS`] windows (one round of ops each), then until
    /// the mean of the last three windows is within 1% of the mean of the
    /// three before. The decision reads only responses, so a seed always
    /// warms up for the same number of steps. Returns the warm-up steps,
    /// the last window's mean live-set size, and the peak resident memory
    /// after the first [`MIN_WARMUP_WINDOWS`] windows: the same amount of
    /// work for every seed, before the benchmark's own per-op logs grow.
    fn warm_up(&mut self) -> Result<(u64, f64, f64), String> {
        let mut times = StepTimes::default();
        let mut means: Vec<f64> = Vec::new();
        let mut rss_mb = 0.0;
        while (means.len() as u64) < MAX_WARMUP_WINDOWS {
            let (sum0, n0) = (self.tasks_sum, self.responses);
            for _ in 0..WINDOW_STEPS {
                self.step(&mut times, false)?;
            }
            means.push(ratio((self.tasks_sum - sum0) as f64, (self.responses - n0) as f64));
            let n = means.len();
            if n as u64 == MIN_WARMUP_WINDOWS {
                rss_mb = peak_rss_mb(None)?;
            }
            if n as u64 >= MIN_WARMUP_WINDOWS
                && means[n - 3..].iter().sum::<f64>()
                    <= 1.01 * means[n - 6..n - 3].iter().sum::<f64>()
            {
                break;
            }
        }
        Ok((self.steps, means.last().copied().unwrap_or(0.0), rss_mb))
    }

    fn reset_counts(&mut self) {
        self.tiers = [0; 5];
        self.tasks_sum = 0;
        self.responses = 0;
    }
}

/// What a measured phase saw.
#[derive(Default)]
struct Phase {
    requests: u64,
    elapsed: f64,
    summary: WindowSummary,
    /// Traced only.
    submit_ns: Vec<f64>,
    flush_ns: Vec<f64>,
    /// Per request: its step within the phase, the time of its own and
    /// every later submit of the step (µs), and its latency (µs).
    blocking: Vec<(usize, f64, f64)>,
    protocol: Vec<(String, String)>,
}

/// Run closed-loop steps for `budget`, recording latencies (and spans when
/// a tracer is given).
fn measure(
    driver: &mut Driver,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Result<Phase, String> {
    let mut times = StepTimes::default();
    let traced = tracer.is_some();
    let start = Instant::now();
    let mut windows = Windows::new(start, WINDOW_S);
    let mut phase = Phase::default();
    while start.elapsed() < budget {
        driver.step(&mut times, traced)?;
        let end = times.end.expect("set by step");
        let n = times.submit_start.len();
        for s in &times.submit_start {
            windows.record(end, nanos(end - *s) as f64 / 1e3);
        }
        phase.requests += n as u64;
        if let Some(tracer) = tracer.as_deref_mut() {
            record_step(tracer, &times, driver, &mut phase);
        }
    }
    phase.elapsed = start.elapsed().as_secs_f64();
    phase.summary = windows.summary(phase.elapsed);
    Ok(phase)
}

/// Spans of one traced step: a `batch` span parenting each request's
/// `request` span (submit start → flush end), its `core.submit` span and
/// the batch's `core.flush` span.
fn record_step(tracer: &mut Tracer, times: &StepTimes, driver: &Driver, phase: &mut Phase) {
    let end = times.end.expect("set by step");
    let flush_start = times.flush_start.expect("traced step");
    let batch_req = driver.steps;
    let batch =
        tracer.record(batch_req, "batch", tracer.at(times.submit_start[0]), tracer.at(end), None);
    let mut submit_durations = Vec::with_capacity(times.submit_start.len());
    for (i, (s, e)) in times.submit_start.iter().zip(&times.submit_end).enumerate() {
        let req = batch_req * u64::from(SESSIONS) + i as u64;
        let request = tracer.record(req, "request", tracer.at(*s), tracer.at(end), Some(batch));
        tracer.record(req, "core.submit", tracer.at(*s), tracer.at(*e), Some(request));
        submit_durations.push(nanos(*e - *s) as f64);
    }
    tracer.record(batch_req, "core.flush", tracer.at(flush_start), tracer.at(end), Some(batch));
    // Blocking path of request i: its own submit and every later one in
    // the batch, then the flush.
    let step = phase.flush_ns.len();
    let mut later = 0.0;
    for (d, s) in submit_durations.iter().zip(&times.submit_start).rev() {
        later += d;
        phase.blocking.push((step, later / 1e3, nanos(end - *s) as f64 / 1e3));
    }
    phase.submit_ns.extend(submit_durations);
    phase.flush_ns.push(nanos(end - flush_start) as f64);
    if phase.protocol.len() < PROTOCOL_SAMPLES {
        for (line, reply) in driver.lines.iter().zip(&driver.replies) {
            phase.protocol.push((line.clone(), reply.clone()));
        }
    }
}

/// Replay every tenant's ops through [`Replica`]s and count outcomes that
/// differ from the logs. Sessions `s` with `s % stride == offset` only.
fn replay(
    tenants: &[Tenant],
    steps: u64,
    stream: Stream,
    (offset, stride): (usize, usize),
    mut probe: Option<&mut ControllerProbe>,
) -> (u64, Vec<Replica>) {
    let mut replicas: Vec<Replica> = tenants
        .iter()
        .map(|t| Replica::new().with_lane(session_shard(&t.name, SESSIONS) as usize % WORKERS))
        .collect();
    let mut done = vec![0u64; SESSIONS as usize];
    let mut mismatches = 0u64;
    let mut stream = Stream { round: 0, ..stream };
    let mine = |s: usize| s % stride == offset;
    while (0..SESSIONS as usize).any(|s| mine(s) && done[s] < steps) {
        for op in stream.next_round() {
            let s = op.session as usize;
            if !mine(s) || done[s] >= steps {
                continue;
            }
            let replica = &mut replicas[s];
            let sent = resolve(&op.kind, &mut replica.live);
            let expected = replica.apply(&sent, done[s], probe.as_deref_mut());
            if tenants[s].log[done[s] as usize] != expected.pack() {
                mismatches += 1;
            }
            done[s] += 1;
        }
    }
    (mismatches, replicas)
}

/// Run one core workload.
pub fn run(mix: Mix, params: &Params) -> Result<RunResult, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut driver = None;
    for _ in 0..SETUP_REPS {
        let (d, setup) = Driver::start(mix, params.seed)?;
        setups.push(setup.as_secs_f64());
        driver = Some(d);
    }
    let mut driver = driver.expect("SETUP_REPS > 0");
    let (warmup_steps, live_mean, rss_mb) = driver.warm_up()?;
    let warmup_ops = warmup_steps * u64::from(SESSIONS);
    driver.reset_counts();
    eprintln!(
        "{}: warm-up {warmup_ops} ops ({warmup_steps} steps), last window's mean live set {live_mean:.2}",
        params.workload
    );

    let mut result = RunResult::default();
    let budget = Duration::from_secs_f64(params.seconds);
    let (phase, traced) = if params.trace {
        let plain = measure(&mut driver, budget / 2, None)?;
        let window_start = driver.steps;
        let mut tracer = Tracer::new();
        let traced = measure(&mut driver, budget / 2, Some(&mut tracer))?;
        let path = tracer.write(params.workload, params.seed).map_err(|e| e.to_string())?;
        eprintln!("{} spans recorded, kept in {}", tracer.recorded(), path.display());
        (plain, Some((traced, window_start)))
    } else {
        (measure(&mut driver, budget, None)?, None)
    };

    // Workload properties, from the responses of the measured window.
    let admits: u64 = driver.tiers.iter().sum();
    let share = |code: usize| ratio(driver.tiers[code] as f64, admits as f64);
    eprintln!(
        "{}: {} steps, tier shares {}",
        params.workload,
        driver.steps,
        (1..5).map(|c| format!("{}={:.3}", TIERS[c], share(c))).collect::<Vec<_>>().join(" ")
    );

    if params.inject_fault {
        if let Some(entry) = driver.tenants[0].log.last_mut() {
            *entry ^= 0b10; // flip one logged verdict
        }
    }
    let window = traced.as_ref().map_or(0..0, |(_, start)| *start..driver.steps);
    let mut probe = ControllerProbe::new(window, WORKERS);
    let (mismatches, replicas) = match &traced {
        Some(_) => replay(&driver.tenants, driver.steps, driver.stream, (0, 1), Some(&mut probe)),
        None => std::thread::scope(|scope| {
            let (tenants, steps, stream) = (&driver.tenants, driver.steps, driver.stream);
            let other = scope.spawn(move || replay(tenants, steps, stream, (1, 2), None));
            let (m0, mut r0) = replay(tenants, steps, stream, (0, 2), None);
            let (m1, r1) = other.join().expect("oracle replay thread panicked");
            for (s, r) in r1.into_iter().enumerate() {
                if s % 2 == 1 {
                    r0[s] = r;
                }
            }
            (m0 + m1, r0)
        }),
    };
    result.attempted = phase.requests + traced.as_ref().map_or(0, |(t, _)| t.requests);
    result.failed = driver.failed + mismatches;

    let (hits, misses, _) = cache_totals(&replicas);
    let hit_ratio = ratio(hits as f64, (hits + misses) as f64);
    eprintln!(
        "{}: cache hit ratio {hit_ratio:.3}, oracle mismatches {mismatches}",
        params.workload
    );
    match mix {
        Mix::Boundary => {
            if share(3) < 0.5 {
                result.violate(format!("GN2-tier share {:.3} < 0.5", share(3)));
            }
            if hit_ratio >= 0.1 {
                result.violate(format!("cache hit ratio {hit_ratio:.3} >= 0.1"));
            }
        }
        Mix::Knife => {
            if share(4) < 0.4 {
                result.violate(format!("exact-tier share {:.3} < 0.4", share(4)));
            }
            if hit_ratio < 0.9 {
                result.violate(format!("cache hit ratio {hit_ratio:.3} < 0.9"));
            }
        }
    }

    let m = &mut result.metrics;
    let ops_per_s = phase.summary.rate;
    match traced {
        None => {
            m.set("setup_s", setup_median(params.workload, &mut setups));
            m.set("p50_us", phase.summary.p50);
            m.set("p99_us", phase.summary.p99);
            m.set("ops_per_s", ops_per_s);
            m.set("peak_rss_mb", rss_mb);
            require_samples(params, phase.summary.min_window, &mut result.violations);
        }
        Some((mut t, _)) => {
            let lines = t.requests as f64;
            m.set("core.submit_ns.p50", quantile(&mut t.submit_ns, 0.5));
            m.set("core.lines_per_flush.mean", ratio(lines, t.flush_ns.len() as f64));
            let flush_total: f64 = t.flush_ns.iter().sum();
            m.set("core.flush_ns.p50", quantile(&mut t.flush_ns, 0.5));
            m.set("core.flush_ns.p99", quantile(&mut t.flush_ns, 0.99));
            let render_mean = protocol_metrics(&t.protocol, m);
            let critical = probe.critical_path_steps_ns();
            m.set(
                "pool.overhead_ns_per_line",
                (flush_total - critical.iter().sum::<f64>() - render_mean * lines) / lines,
            );
            let mut load = vec![0u64; SESSIONS as usize];
            for tenant in &driver.tenants {
                load[session_shard(&tenant.name, SESSIONS) as usize] += 1;
            }
            // Every tenant sends one request per step, so a shard's load is
            // its tenant count.
            let max = load.iter().copied().max().unwrap_or(0) as f64;
            let mean_load = load.iter().sum::<u64>() as f64 / load.len() as f64;
            m.set("pool.shard_load_max_over_mean", ratio(max, mean_load));
            controller_metrics(&mut probe, &replicas, m);
            // Coverage: the layer times measured apart from the request's
            // own span — its submits, the busiest worker's controller time
            // (replica) and the step's renders (probe) — over its latency,
            // median over median. The pool hand-off is left out: it is the
            // residual `pool.overhead_ns_per_line`.
            let lines_per_step = f64::from(SESSIONS);
            let (mut covered, mut latency): (Vec<f64>, Vec<f64>) = t
                .blocking
                .iter()
                .map(|&(step, submits, latency)| {
                    let flush_layers =
                        critical.get(step).copied().unwrap_or(0.0) + render_mean * lines_per_step;
                    (submits + flush_layers / 1e3, latency)
                })
                .unzip();
            let coverage = ratio(median(&mut covered), median(&mut latency));
            m.set("trace.coverage", coverage);
            m.set("run.warmup_ops", warmup_ops as f64);
            m.set("trace.overhead", ratio(t.summary.rate, ops_per_s));
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_picks_the_stream() {
        for mix in [Mix::Boundary, Mix::Knife] {
            let a = Stream::new(mix, 1).next_round();
            assert_eq!(a, Stream::new(mix, 1).next_round(), "{mix:?}: same seed, same stream");
            assert_ne!(
                a,
                Stream::new(mix, 2).next_round(),
                "{mix:?}: another seed, another stream"
            );
        }
    }
}
