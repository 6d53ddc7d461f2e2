//! Replaying synthesized streams against in-process admission controllers.
//!
//! Each logical session `k` of the stream
//! ([`ArrivalOp::session`](crate::ArrivalOp::session)) is an independent
//! [`AdmissionController`] plus its live handles, created on the
//! session's first op. The ops apply in stream order on the calling
//! thread, so a replay's outcomes (decisions, tier counts, degraded
//! releases) are a pure function of the stream. Only the measured
//! latencies differ between runs, and `--deterministic` zeroes those,
//! which is what makes the emitted artifacts byte-diffable in CI.
//!
//! A `Release` op releases the session's **oldest** live handle (FIFO); a
//! release arriving at a session with no live task degrades to a query so
//! the op stream can be fixed up-front without tracking accept/reject
//! outcomes during synthesis.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use fpga_rt_model::{Fpga, TaskHandle};
use fpga_rt_obs::{artifact_runner, Obs, Registry, Snapshot};
use fpga_rt_service::protocol::counters as cache_counters;
use fpga_rt_service::{AdmissionController, ControllerConfig, QueryStats};

use crate::hist::LatencyHistogram;
use crate::profile::{synthesize, ArrivalProfile, LoadSpec, OpKind};
use crate::report::{Budget, LatencySummary, LoadReport, ProfileReport, SCHEMA};

/// Parameters of one `fpga-rt loadgen` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadConfig {
    /// Operations per profile per round.
    pub ops: usize,
    /// Logical sessions the streams multiplex over, each replayed on its
    /// own controller.
    pub sessions: u32,
    /// Device columns of every session's controller.
    pub columns: u32,
    /// Base stream seed; round `r` replays the stream for seed
    /// `seed + r`, so rounds exercise distinct (but reproducible) traffic.
    pub seed: u64,
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

/// One logical session's replay state: its controller and live handles
/// (FIFO).
struct Session {
    controller: AdmissionController,
    live: VecDeque<TaskHandle>,
}

/// How long a profile keeps replaying rounds.
enum Stop {
    /// Exactly `rounds` rounds (deterministic).
    Rounds(u32),
    /// Rounds until the wall-clock deadline passes (soak; at least one).
    Deadline(Instant),
}

/// Replay one profile under the given stop rule and aggregate its report.
fn run_profile(
    profile: ArrivalProfile,
    config: &LoadConfig,
    stop: Stop,
    obs: &Obs,
) -> Result<ProfileReport, String> {
    config.spec(profile, 0).validate()?;
    let device = Fpga::new(config.columns).map_err(|e| e.to_string())?;
    let mut sessions: Vec<Option<Session>> = (0..config.sessions).map(|_| None).collect();
    let mut hist = LatencyHistogram::new();
    let (mut accepted, mut rejected, mut releases) = (0u64, 0u64, 0u64);
    let (mut degraded_releases, mut queries) = (0u64, 0u64);
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
        for op in synthesize(&config.spec(profile, round))? {
            let session = sessions[op.session as usize].get_or_insert_with(|| Session {
                controller: AdmissionController::with_obs(
                    device,
                    ControllerConfig::default(),
                    obs.clone(),
                )
                .with_cache(config.cache),
                live: VecDeque::new(),
            });
            let start = Instant::now();
            let outcome = match op.kind {
                OpKind::Admit(params) => {
                    let task = params.to_task().expect("synthesized params validate");
                    let (decision, handle) = session.controller.admit(task, false);
                    session.live.extend(handle);
                    if decision.accepted {
                        &mut accepted
                    } else {
                        &mut rejected
                    }
                }
                OpKind::Release => match session.live.pop_front() {
                    Some(handle) => {
                        session.controller.release(handle).expect("handle is live by FIFO");
                        &mut releases
                    }
                    None => {
                        session.controller.query(false);
                        &mut degraded_releases
                    }
                },
                OpKind::Query => {
                    session.controller.query(false);
                    &mut queries
                }
            };
            let latency_ns = if config.deterministic {
                0
            } else {
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
            };
            *outcome += 1;
            hist.record(latency_ns);
        }
        round += 1;
    }
    let admits = accepted + rejected;
    let ops = admits + releases + degraded_releases + queries;
    // Total the per-session controller statistics through the workspace's
    // one stats fold (`QueryStats::fold_into`). These totals are
    // bookkeeping, not stream ops — they stay out of the histogram and
    // the op counts.
    let acc = Registry::new();
    for session in sessions.iter().flatten() {
        session.controller.stats().fold_into(&acc);
    }
    let tiers_total = QueryStats::from_snapshot(&acc.snapshot());
    debug_assert_eq!(tiers_total.decisions, admits, "stats count exactly the admit decisions");
    if obs.enabled() {
        // Per-profile counters plus the run-wide admission totals. Each
        // profile folds its own fresh sessions exactly once, so folding
        // here never double-counts.
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
/// `fpga-rt-obs/1` snapshot — cascade-tier latency histograms
/// (accumulated across profiles), per-profile `loadgen/<profile>/*`
/// counters, the folded admission totals and the run configuration as
/// metadata.
pub fn run_with_obs(
    profiles: &[ArrivalProfile],
    config: &LoadConfig,
    obs: Obs,
) -> Result<(LoadReport, Snapshot), String> {
    replay(profiles, config, &obs, || Stop::Rounds(config.rounds.max(1)))
}

/// Replay each profile in turn, each under the stop rule `stop` returns
/// as the profile starts, and assemble the report and snapshot.
fn replay(
    profiles: &[ArrivalProfile],
    config: &LoadConfig,
    obs: &Obs,
    stop: impl Fn() -> Stop,
) -> Result<(LoadReport, Snapshot), String> {
    let profiles = profiles
        .iter()
        .map(|&profile| run_profile(profile, config, stop(), obs))
        .collect::<Result<_, _>>()?;
    let report = LoadReport {
        schema: SCHEMA.to_string(),
        runner: artifact_runner(config.deterministic),
        budget: config.budget(),
        profiles,
    };
    Ok((report, loadgen_snapshot(obs, config)))
}

/// The run-wide snapshot: the live registry (or a fresh one under
/// [`Obs::off`]) stamped with the run configuration.
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
    replay(profiles, config, &obs, || Stop::Deadline(Instant::now() + per_profile))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(deterministic: bool) -> LoadConfig {
        LoadConfig {
            ops: 600,
            sessions: 8,
            columns: 100,
            seed: 11,
            rounds: 2,
            deterministic,
            cache: Some(1024),
        }
    }

    /// The cache contract at loadgen scale: deterministic artifacts are
    /// byte-identical with the cache on or off (the CI cache-smoke gate
    /// diffs exactly this), and the resubmission-heavy streams drive a
    /// non-trivial hit rate into the obs snapshot.
    #[test]
    fn cache_on_off_artifacts_are_byte_identical() {
        let all = ArrivalProfile::all();
        let on = run(&all, &small_config(true)).unwrap();
        let off = run(&all, &LoadConfig { cache: None, ..small_config(true) }).unwrap();
        assert_eq!(on.render_json(), off.render_json());
        assert_eq!(on.render_csv(), off.render_csv());
        assert_eq!(on.render_text(), off.render_text());

        let (_, snap) = run_with_obs(&all, &small_config(true), Obs::on(true)).unwrap();
        let hits = snap.counter(cache_counters::CACHE_HITS).unwrap_or(0);
        assert!(hits > 0, "adversarial resubmission cycles must hit the cache");
        assert_eq!(snap.gauge(cache_counters::CACHE_HIT_RATE_PERMILLE).map(|p| p > 0), Some(true));
    }

    #[test]
    fn deterministic_latencies_are_all_zero() {
        let report = run(&[ArrivalProfile::Poisson], &small_config(true)).unwrap();
        let latency = report.profiles[0].latency;
        assert_eq!(latency, LatencySummary::default());
    }

    #[test]
    fn op_counts_are_consistent() {
        let config = small_config(true);
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
        let report = run(&[ArrivalProfile::Adversarial], &small_config(true)).unwrap();
        let p = &report.profiles[0];
        assert!(p.tiers.exact > 0, "knife-edge admissions must escalate: {:?}", p.tiers);
    }

    #[test]
    fn non_deterministic_runs_measure_latency() {
        let config = LoadConfig { rounds: 1, ..small_config(false) };
        let report = run(&[ArrivalProfile::Poisson], &config).unwrap();
        let latency = report.profiles[0].latency;
        assert!(latency.max_ns > 0, "real runs record wall time: {latency:?}");
        assert!(latency.p50_ns <= latency.p99_ns);
        assert!(latency.p99_ns <= latency.p999_ns);
        assert!(latency.p999_ns <= latency.max_ns);
    }

    #[test]
    fn obs_snapshot_matches_report_tiers() {
        let (report, snapshot) =
            run_with_obs(&[ArrivalProfile::Adversarial], &small_config(true), Obs::on(true))
                .unwrap();
        assert!(snapshot.deterministic);
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
        let err = run_soak(&ArrivalProfile::all(), &small_config(true), 1).unwrap_err();
        assert!(err.contains("--soak"), "{err}");
    }

    #[test]
    fn soak_runs_at_least_one_round_per_profile() {
        let config = LoadConfig { ops: 50, ..small_config(false) };
        let report =
            run_soak(&[ArrivalProfile::Poisson, ArrivalProfile::Bursty], &config, 0).unwrap();
        assert_eq!(report.profiles.len(), 2);
        for p in &report.profiles {
            assert!(p.ops >= 50, "{}: at least one round", p.profile);
        }
    }
}
