//! Replaying synthesized streams against the in-process admission pipeline.
//!
//! Each logical session is a **named protocol session** (`s0`, `s1`, …)
//! exactly as the multi-tenant server sees them: its name is routed to a
//! [`ShardedPool`] shard by [`fpga_rt_service::session_shard`] — the same
//! FNV-1a placement the server uses for protocol-v2 `session` ids — and
//! the shard's worker owns a map of per-session states (an independent
//! [`AdmissionController`] plus the session's live handles), materialized
//! on first use. Because the pool pins a shard to exactly one worker and
//! processes its items sequentially, and sessions never span shards,
//! replay outcomes (decisions, tier counts, degraded releases) are
//! **invariant in the worker count** — only the measured latencies differ
//! between runs, and `--deterministic` zeroes those, which is what makes
//! the emitted artifacts byte-diffable in CI.
//!
//! A `Release` op releases the session's **oldest** live handle (FIFO); a
//! release arriving at a session with no live task degrades to a query so
//! the op stream can be fixed up-front without tracking accept/reject
//! outcomes during synthesis.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use fpga_rt_model::{Fpga, TaskHandle};
use fpga_rt_obs::{artifact_runner, Obs, Registry, Snapshot};
use fpga_rt_pool::{PoolConfig, ShardedPool};
use fpga_rt_service::protocol::counters as cache_counters;
use fpga_rt_service::{session_shard, AdmissionController, ControllerConfig, QueryStats};

use crate::hist::LatencyHistogram;
use crate::profile::{synthesize, ArrivalProfile, LoadSpec, OpKind};
use crate::report::{Budget, LatencySummary, LoadReport, ProfileReport, SCHEMA};

/// Parameters of one `fpga-rt loadgen` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadConfig {
    /// Operations per profile per round.
    pub ops: usize,
    /// Named protocol sessions (`s0`…) the streams multiplex over; also
    /// the pool shard count their names are FNV-placed onto.
    pub sessions: u32,
    /// Device columns of every session's controller.
    pub columns: u32,
    /// Base stream seed; round `r` replays the stream for seed
    /// `seed + r`, so rounds exercise distinct (but reproducible) traffic.
    pub seed: u64,
    /// Pool worker threads (`0` = available parallelism). Never recorded
    /// in any output.
    pub workers: usize,
    /// Stream replays per profile.
    pub rounds: u32,
    /// Zero all latencies so artifacts are byte-diffable.
    pub deterministic: bool,
    /// Per-session verdict-cache capacity (`None` disables caching).
    /// Deliberately **not** part of [`Budget`]: cache on/off runs produce
    /// byte-identical deterministic artifacts, so the latency gate can
    /// compare them under one budget.
    pub cache: Option<usize>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            ops: 4000,
            sessions: 32,
            columns: 100,
            seed: 20070326,
            workers: 0,
            rounds: 1,
            deterministic: false,
            cache: Some(1024),
        }
    }
}

impl LoadConfig {
    /// The stream spec of one profile/round combination.
    fn spec(&self, profile: ArrivalProfile, round: u32) -> LoadSpec {
        LoadSpec {
            profile,
            ops: self.ops,
            sessions: self.sessions,
            columns: self.columns,
            seed: self.seed.wrapping_add(u64::from(round)),
        }
    }

    /// The budget block recorded in reports.
    fn budget(&self) -> Budget {
        Budget {
            ops: self.ops,
            sessions: self.sessions,
            rounds: self.rounds,
            columns: self.columns,
            seed: self.seed,
            deterministic: self.deterministic,
        }
    }
}

/// One named session's replay state: its controller and live handles
/// (FIFO).
struct Session {
    controller: AdmissionController,
    live: VecDeque<TaskHandle>,
}

/// One shard's replay state: the named sessions the FNV-1a placement
/// routed here, materialized on first use — the same shape as the
/// multi-tenant server's per-shard session map.
struct Tenants {
    sessions: HashMap<String, Session>,
    fresh: Box<dyn Fn() -> Session + Send>,
}

impl Tenants {
    fn session_mut(&mut self, name: &str) -> &mut Session {
        self.sessions.entry(name.to_string()).or_insert_with(&self.fresh)
    }
}

/// The wire name of logical session `k` — the id a protocol-v2 client
/// would put in the `session` field.
fn session_name(k: u32) -> String {
    format!("s{k}")
}

/// Pool request: apply one stream op to a named session, or report the
/// shard's per-session statistics.
enum Req {
    Apply(String, OpKind),
    Stats,
}

/// What one op did, for aggregation on the driving thread.
enum Resp {
    Admitted {
        accepted: bool,
        latency_ns: u64,
    },
    Released {
        degraded: bool,
        latency_ns: u64,
    },
    Queried {
        latency_ns: u64,
    },
    /// One entry per session alive on the shard (order is immaterial:
    /// the driver folds them commutatively).
    Stats(Vec<QueryStats>),
}

/// How long a profile keeps replaying rounds.
enum Stop {
    /// Exactly `rounds` rounds (deterministic).
    Rounds(u32),
    /// Rounds until the wall-clock deadline passes (soak; at least one).
    Deadline(Instant),
}

fn build_pool(config: &LoadConfig, obs: &Obs) -> ShardedPool<Req, Resp> {
    let columns = config.columns;
    let deterministic = config.deterministic;
    let cache = config.cache;
    let ctl_obs = obs.clone();
    ShardedPool::with_obs(
        PoolConfig { workers: config.workers, shards: config.sessions },
        obs.clone(),
        move |_shard| {
            let ctl_obs = ctl_obs.clone();
            Tenants {
                sessions: HashMap::new(),
                fresh: Box::new(move || Session {
                    controller: AdmissionController::with_obs(
                        Fpga::new(columns).expect("spec validation caught zero columns"),
                        ControllerConfig::default(),
                        ctl_obs.clone(),
                    )
                    .with_cache(cache),
                    live: VecDeque::new(),
                }),
            }
        },
        move |tenants, _shard, req| {
            let (name, kind) = match req {
                Req::Stats => {
                    return Resp::Stats(
                        tenants.sessions.values().map(|s| s.controller.stats()).collect(),
                    )
                }
                Req::Apply(name, kind) => (name, kind),
            };
            let session = tenants.session_mut(&name);
            let start = Instant::now();
            let mut resp = match kind {
                OpKind::Admit(params) => {
                    let task = params.to_task().expect("synthesized params validate");
                    let (decision, handle) = session.controller.admit(task, false);
                    if let Some(handle) = handle {
                        session.live.push_back(handle);
                    }
                    Resp::Admitted { accepted: decision.accepted, latency_ns: 0 }
                }
                OpKind::Release => match session.live.pop_front() {
                    Some(handle) => {
                        session.controller.release(handle).expect("handle is live by FIFO");
                        Resp::Released { degraded: false, latency_ns: 0 }
                    }
                    None => {
                        session.controller.query(false);
                        Resp::Released { degraded: true, latency_ns: 0 }
                    }
                },
                OpKind::Query => {
                    session.controller.query(false);
                    Resp::Queried { latency_ns: 0 }
                }
            };
            if !deterministic {
                let latency = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                match &mut resp {
                    Resp::Admitted { latency_ns, .. }
                    | Resp::Released { latency_ns, .. }
                    | Resp::Queried { latency_ns } => *latency_ns = latency,
                    Resp::Stats(_) => unreachable!("stats returned above"),
                }
            }
            resp
        },
    )
}

/// Replay one profile under the given stop rule and aggregate its report.
fn run_profile(
    profile: ArrivalProfile,
    config: &LoadConfig,
    stop: Stop,
    obs: &Obs,
) -> Result<ProfileReport, String> {
    config.spec(profile, 0).validate()?;
    let mut pool = build_pool(config, obs);
    let mut hist = LatencyHistogram::new();
    let (mut ops, mut admits, mut accepted, mut rejected) = (0u64, 0u64, 0u64, 0u64);
    let (mut releases, mut degraded_releases, mut queries) = (0u64, 0u64, 0u64);
    let mut round = 0u32;
    loop {
        match stop {
            Stop::Rounds(rounds) => {
                if round >= rounds {
                    break;
                }
            }
            Stop::Deadline(deadline) => {
                if round > 0 && Instant::now() >= deadline {
                    break;
                }
            }
        }
        let stream = synthesize(&config.spec(profile, round))?;
        let results = pool
            .run_batch(stream.into_iter().map(|op| {
                let name = session_name(op.session);
                let shard = session_shard(&name, config.sessions);
                (shard, Req::Apply(name, op.kind))
            }))
            .map_err(|e| e.to_string())?;
        for result in results {
            let resp = result.map_err(|p| p.to_string())?;
            ops += 1;
            let latency_ns = match resp {
                Resp::Admitted { accepted: ok, latency_ns } => {
                    admits += 1;
                    if ok {
                        accepted += 1;
                    } else {
                        rejected += 1;
                    }
                    latency_ns
                }
                Resp::Released { degraded, latency_ns } => {
                    if degraded {
                        degraded_releases += 1;
                    } else {
                        releases += 1;
                    }
                    latency_ns
                }
                Resp::Queried { latency_ns } => {
                    queries += 1;
                    latency_ns
                }
                Resp::Stats(_) => return Err("unexpected stats response".to_string()),
            };
            hist.record(latency_ns);
        }
        round += 1;
    }
    // Total the per-session controller statistics across every shard,
    // through the workspace's one cross-shard fold
    // (`QueryStats::fold_into`) — the fold is commutative sums, so the
    // session iteration order within a shard is immaterial. These queries
    // are bookkeeping, not stream ops — they stay out of the histogram and
    // the op counts.
    let acc = Registry::new();
    for result in pool.broadcast(|_| Req::Stats).map_err(|e| e.to_string())? {
        match result.map_err(|p| p.to_string())? {
            Resp::Stats(per_session) => {
                for stats in per_session {
                    stats.fold_into(&acc);
                }
            }
            _ => return Err("expected stats response".to_string()),
        }
    }
    let tiers_total = QueryStats::from_snapshot(&acc.snapshot());
    debug_assert_eq!(tiers_total.decisions, admits, "stats count exactly the admit decisions");
    if obs.enabled() {
        // Per-profile counters plus the run-wide admission totals. Each
        // profile drains its own fresh pool exactly once, so folding here
        // never double-counts.
        let prefix = format!("loadgen/{}", profile.as_str());
        obs.add(&format!("{prefix}/ops"), ops);
        obs.add(&format!("{prefix}/admits"), admits);
        obs.add(&format!("{prefix}/accepted"), accepted);
        obs.add(&format!("{prefix}/rejected"), rejected);
        obs.add(&format!("{prefix}/releases"), releases);
        obs.add(&format!("{prefix}/degraded_releases"), degraded_releases);
        obs.add(&format!("{prefix}/queries"), queries);
        obs.add(&format!("{prefix}/rounds"), u64::from(round));
        if let Some(registry) = obs.registry() {
            tiers_total.fold_into(registry);
        }
    }
    Ok(ProfileReport {
        profile: profile.as_str().to_string(),
        ops,
        admits,
        accepted,
        rejected,
        releases,
        degraded_releases,
        queries,
        tiers: tiers_total.tiers,
        latency: LatencySummary::from_histogram(&hist),
    })
}

/// Run the given profiles for the configured number of rounds each and
/// assemble the full report.
pub fn run(profiles: &[ArrivalProfile], config: &LoadConfig) -> Result<LoadReport, String> {
    run_with_obs(profiles, config, Obs::off()).map(|(report, _)| report)
}

/// [`run`] with a telemetry handle; additionally returns the run-wide
/// `fpga-rt-obs/1` snapshot — pool shard counters, cascade-tier latency
/// histograms (accumulated across profiles), per-profile
/// `loadgen/<profile>/*` counters, the folded admission totals and the run
/// configuration as metadata.
pub fn run_with_obs(
    profiles: &[ArrivalProfile],
    config: &LoadConfig,
    obs: Obs,
) -> Result<(LoadReport, Snapshot), String> {
    let mut reports = Vec::with_capacity(profiles.len());
    for &profile in profiles {
        reports.push(run_profile(profile, config, Stop::Rounds(config.rounds.max(1)), &obs)?);
    }
    let report = LoadReport {
        schema: SCHEMA.to_string(),
        runner: artifact_runner(config.deterministic),
        budget: config.budget(),
        profiles: reports,
    };
    Ok((report, loadgen_snapshot(&obs, config)))
}

/// The run-wide snapshot: the live registry (or a fresh one under
/// [`Obs::off`]) stamped with the run configuration. The worker count is
/// deliberately absent — deterministic snapshots must be byte-identical
/// across worker counts.
fn loadgen_snapshot(obs: &Obs, config: &LoadConfig) -> Snapshot {
    let registry = match obs.registry() {
        Some(shared) => (**shared).clone(),
        None => Registry::with_mode(config.deterministic),
    };
    registry.set_meta("mode", "loadgen");
    registry.set_meta("ops", &config.ops.to_string());
    registry.set_meta("sessions", &config.sessions.to_string());
    registry.set_meta("columns", &config.columns.to_string());
    registry.set_meta("rounds", &config.rounds.max(1).to_string());
    registry.set_meta("seed", &config.seed.to_string());
    registry.set_meta("deterministic", if config.deterministic { "true" } else { "false" });
    // Hit-rate gauge from the merged cache counters (gauges merge by sum,
    // so this must be written exactly once, here).
    let snap = registry.snapshot();
    let hits = snap.counter(cache_counters::CACHE_HITS).unwrap_or(0);
    let misses = snap.counter(cache_counters::CACHE_MISSES).unwrap_or(0);
    if let Some(rate) = (hits * 1000).checked_div(hits + misses) {
        registry.set_gauge(cache_counters::CACHE_HIT_RATE_PERMILLE, rate);
        return registry.snapshot();
    }
    snap
}

/// Soak mode: keep replaying rounds of every profile until `secs` seconds
/// of wall clock have elapsed (the budget is split evenly across profiles;
/// each profile runs at least one round). Incompatible with
/// `deterministic` — a wall-clock stop rule makes the round count, and so
/// the artifact, timing-dependent.
pub fn run_soak(
    profiles: &[ArrivalProfile],
    config: &LoadConfig,
    secs: u64,
) -> Result<LoadReport, String> {
    run_soak_with_obs(profiles, config, secs, Obs::off()).map(|(report, _)| report)
}

/// [`run_soak`] with a telemetry handle; see [`run_with_obs`] for the
/// snapshot contents.
pub fn run_soak_with_obs(
    profiles: &[ArrivalProfile],
    config: &LoadConfig,
    secs: u64,
    obs: Obs,
) -> Result<(LoadReport, Snapshot), String> {
    if config.deterministic {
        return Err("--soak is wall-clock-bounded and cannot be --deterministic; \
                    use --rounds for long deterministic runs"
            .to_string());
    }
    if profiles.is_empty() {
        return Err("no profiles selected".to_string());
    }
    let per_profile = Duration::from_secs(secs) / profiles.len() as u32;
    let mut reports = Vec::with_capacity(profiles.len());
    for &profile in profiles {
        let deadline = Instant::now() + per_profile;
        reports.push(run_profile(profile, config, Stop::Deadline(deadline), &obs)?);
    }
    let report = LoadReport {
        schema: SCHEMA.to_string(),
        runner: artifact_runner(config.deterministic),
        budget: config.budget(),
        profiles: reports,
    };
    Ok((report, loadgen_snapshot(&obs, config)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(deterministic: bool, workers: usize) -> LoadConfig {
        LoadConfig {
            ops: 600,
            sessions: 8,
            columns: 100,
            seed: 11,
            workers,
            rounds: 2,
            deterministic,
            cache: Some(1024),
        }
    }

    #[test]
    fn deterministic_reports_are_byte_identical_across_worker_counts() {
        let all = ArrivalProfile::all();
        let reference = run(&all, &small_config(true, 1)).unwrap();
        for workers in [2, 4, 7] {
            let other = run(&all, &small_config(true, workers)).unwrap();
            assert_eq!(other.render_json(), reference.render_json(), "workers={workers}");
            assert_eq!(other.render_csv(), reference.render_csv(), "workers={workers}");
            assert_eq!(other.render_text(), reference.render_text(), "workers={workers}");
        }
    }

    /// The cache contract at loadgen scale: deterministic artifacts are
    /// byte-identical with the cache on or off (the CI cache-smoke gate
    /// diffs exactly this), and the resubmission-heavy streams drive a
    /// non-trivial hit rate into the obs snapshot.
    #[test]
    fn cache_on_off_artifacts_are_byte_identical() {
        let all = ArrivalProfile::all();
        let on = run(&all, &small_config(true, 2)).unwrap();
        let off = run(&all, &LoadConfig { cache: None, ..small_config(true, 2) }).unwrap();
        assert_eq!(on.render_json(), off.render_json());
        assert_eq!(on.render_csv(), off.render_csv());
        assert_eq!(on.render_text(), off.render_text());

        let (_, snap) = run_with_obs(&all, &small_config(true, 2), Obs::on(true)).unwrap();
        let hits = snap.counter(cache_counters::CACHE_HITS).unwrap_or(0);
        assert!(hits > 0, "adversarial resubmission cycles must hit the cache");
        assert_eq!(snap.gauge(cache_counters::CACHE_HIT_RATE_PERMILLE).map(|p| p > 0), Some(true));
    }

    #[test]
    fn deterministic_latencies_are_all_zero() {
        let report = run(&[ArrivalProfile::Poisson], &small_config(true, 3)).unwrap();
        let latency = report.profiles[0].latency;
        assert_eq!(latency, LatencySummary::default());
    }

    #[test]
    fn op_counts_are_consistent() {
        let config = small_config(true, 2);
        let report = run(&ArrivalProfile::all(), &config).unwrap();
        assert_eq!(report.profiles.len(), 3);
        for p in &report.profiles {
            assert_eq!(p.ops, (config.ops as u64) * u64::from(config.rounds), "{}", p.profile);
            assert_eq!(
                p.admits + p.releases + p.degraded_releases + p.queries,
                p.ops,
                "{}",
                p.profile
            );
            assert_eq!(p.admits, p.accepted + p.rejected, "{}", p.profile);
            assert_eq!(p.tiers.total(), p.admits, "{}: every admit settles in one tier", p.profile);
        }
    }

    #[test]
    fn adversarial_profile_reaches_the_exact_tier() {
        let report = run(&[ArrivalProfile::Adversarial], &small_config(true, 2)).unwrap();
        let p = &report.profiles[0];
        assert!(p.tiers.exact > 0, "knife-edge admissions must escalate: {:?}", p.tiers);
    }

    #[test]
    fn non_deterministic_runs_measure_latency() {
        let config = LoadConfig { rounds: 1, ..small_config(false, 2) };
        let report = run(&[ArrivalProfile::Poisson], &config).unwrap();
        let latency = report.profiles[0].latency;
        assert!(latency.max_ns > 0, "real runs record wall time: {latency:?}");
        assert!(latency.p50_ns <= latency.p99_ns);
        assert!(latency.p99_ns <= latency.p999_ns);
        assert!(latency.p999_ns <= latency.max_ns);
    }

    #[test]
    fn obs_snapshot_is_invariant_in_workers_and_matches_report_tiers() {
        let render = |workers: usize| {
            let (report, snapshot) = run_with_obs(
                &[ArrivalProfile::Adversarial],
                &small_config(true, workers),
                Obs::on(true),
            )
            .unwrap();
            (report.render_json(), snapshot.render_json(), snapshot.render_text())
        };
        let reference = render(1);
        for workers in [2, 4] {
            assert_eq!(render(workers), reference, "workers={workers}");
        }
        let snapshot: Snapshot = serde_json::from_str(&reference.1).unwrap();
        assert!(snapshot.deterministic);
        let (report, _) =
            run_with_obs(&[ArrivalProfile::Adversarial], &small_config(true, 2), Obs::on(true))
                .unwrap();
        let p = &report.profiles[0];
        assert_eq!(snapshot.counter("admission/decisions"), Some(p.admits));
        assert_eq!(snapshot.counter("loadgen/adversarial/ops"), Some(p.ops));
        // Every settled tier leaves a per-decision latency histogram whose
        // count is exactly that tier's decision count (zero-valued samples
        // in deterministic mode). The adversarial profile is knife-edge
        // heavy, so the exact tier must be populated.
        assert!(p.tiers.exact > 0, "adversarial load reaches the exact tier");
        for (tier, count) in [
            ("dp-inc", p.tiers.dp_inc),
            ("gn1", p.tiers.gn1),
            ("gn2", p.tiers.gn2),
            ("exact", p.tiers.exact),
        ] {
            let hist = snapshot.histogram(&format!("admission/tier/{tier}/decision_ns"));
            assert_eq!(hist.map(|h| h.count).unwrap_or(0), count, "{tier}");
        }
        let depth = snapshot.histogram("admission/cascade_depth").unwrap();
        assert_eq!(depth.count, p.admits, "every decision records its cascade depth");
    }

    #[test]
    fn soak_refuses_deterministic_mode() {
        let err = run_soak(&ArrivalProfile::all(), &small_config(true, 1), 1).unwrap_err();
        assert!(err.contains("--soak"), "{err}");
    }

    #[test]
    fn soak_runs_at_least_one_round_per_profile() {
        let config = LoadConfig { ops: 50, ..small_config(false, 2) };
        let report =
            run_soak(&[ArrivalProfile::Poisson, ArrivalProfile::Bursty], &config, 0).unwrap();
        assert_eq!(report.profiles.len(), 2);
        for p in &report.profiles {
            assert!(p.ops >= 50, "{}: at least one round", p.profile);
        }
    }
}
