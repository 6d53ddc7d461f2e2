//! Deterministic, seedable arrival-stream synthesis.
//!
//! A [`LoadSpec`] describes one traffic profile; [`synthesize`] expands it
//! into a sorted op stream — admit / release / query operations multiplexed
//! over many logical sessions, each op stamped with a nanosecond arrival
//! time. Synthesis is single-threaded and driven by one seeded
//! [`rand::rngs::StdRng`], so the stream is a pure function of the spec:
//! the same `(profile, ops, sessions, columns, seed)` always yields the
//! same byte-for-byte stream, whatever machine later replays it.
//!
//! Three traffic shapes:
//!
//! * [`ArrivalProfile::Poisson`] — exponentially distributed inter-arrival
//!   gaps (a memoryless open-loop client population), sessions drawn
//!   uniformly, admit-heavy op mix with task utilizations drawn in
//!   UUniFast waves ([`fpga_rt_gen::uunifast()`]) so the offered load hovers
//!   around the admission boundary where the cascade actually escalates.
//! * [`ArrivalProfile::Bursty`] — an on/off source: bursts of back-to-back
//!   ops concentrated on a few hot sessions, separated by long idle gaps;
//!   the shape that exposes queueing at the per-shard pin.
//! * [`ArrivalProfile::Adversarial`] — every session cycles a knife-edge
//!   task pair built for the device the way the paper's Table 1 builds one
//!   for 10 columns: the second admission sits *exactly* on the DP bound,
//!   forcing the controller's exact [`Rat64`](fpga_rt_model::Rat64) tier —
//!   the most expensive decision path reachable from the wire.

use fpga_rt_gen::uunifast;
use fpga_rt_service::TaskParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The traffic shape of a synthesized arrival stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProfile {
    /// Exponential inter-arrival gaps, uniform session fan-out.
    Poisson,
    /// On/off bursts on hot sessions separated by idle gaps.
    Bursty,
    /// Knife-edge Table-1 cycles forcing the exact cascade tier.
    Adversarial,
}

impl ArrivalProfile {
    /// Stable wire/CLI name.
    pub fn as_str(self) -> &'static str {
        match self {
            ArrivalProfile::Poisson => "poisson",
            ArrivalProfile::Bursty => "bursty",
            ArrivalProfile::Adversarial => "adversarial",
        }
    }

    /// Parse a CLI name.
    pub fn by_id(id: &str) -> Option<Self> {
        match id {
            "poisson" => Some(ArrivalProfile::Poisson),
            "bursty" => Some(ArrivalProfile::Bursty),
            "adversarial" => Some(ArrivalProfile::Adversarial),
            _ => None,
        }
    }

    /// All profiles in reporting order.
    pub fn all() -> Vec<ArrivalProfile> {
        vec![ArrivalProfile::Poisson, ArrivalProfile::Bursty, ArrivalProfile::Adversarial]
    }
}

impl core::fmt::Display for ArrivalProfile {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What one arrival asks the admission service to do.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Admit a candidate task.
    Admit(TaskParams),
    /// Release the oldest still-live handle of the session (degrades to a
    /// query when the session has no live task — the stream is fixed
    /// up-front, the live set is not).
    Release,
    /// Re-evaluate the session's current live set.
    Query,
}

/// One synthesized arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalOp {
    /// Arrival time in nanoseconds from stream start (non-decreasing).
    pub at_ns: u64,
    /// Logical session index in `0..sessions`; the replay gives each
    /// session its own controller.
    pub session: u32,
    /// The operation.
    pub kind: OpKind,
}

/// One synthesized arrival stream's parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpec {
    /// Traffic shape.
    pub profile: ArrivalProfile,
    /// Operations in the stream.
    pub ops: usize,
    /// Logical sessions the stream multiplexes over (each one an
    /// independent admission controller on its own device).
    pub sessions: u32,
    /// Device size in columns of every session's controller.
    pub columns: u32,
    /// Stream seed.
    pub seed: u64,
}

impl LoadSpec {
    /// A spec with the defaults the CLI documents.
    pub fn new(profile: ArrivalProfile, seed: u64) -> Self {
        LoadSpec { profile, ops: 4000, sessions: 32, columns: 100, seed }
    }

    /// Check parameter sanity; the adversarial profile additionally needs
    /// at least 5 columns for its knife-edge construction (below that the
    /// wide task's row of the DP condition fails before the knife edge is
    /// reached and the cascade settles in `f64`).
    pub fn validate(&self) -> Result<(), String> {
        if self.ops == 0 {
            return Err("ops must be ≥ 1".into());
        }
        if self.sessions == 0 {
            return Err("sessions must be ≥ 1".into());
        }
        if self.columns == 0 {
            return Err("columns must be ≥ 1".into());
        }
        if self.profile == ArrivalProfile::Adversarial && self.columns < 5 {
            return Err(format!(
                "the adversarial profile needs --columns ≥ 5 to build its knife-edge \
                 pair, got {}",
                self.columns
            ));
        }
        Ok(())
    }
}

/// Exponential gap with the given mean, quantized to nanoseconds.
fn exp_gap_ns(rng: &mut StdRng, mean_ns: f64) -> u64 {
    // Inverse CDF over u ∈ [0, 1); 1 − u stays in (0, 1] so ln is finite.
    let u: f64 = rng.gen();
    (-(1.0 - u).ln() * mean_ns) as u64
}

/// Expand a spec into its op stream: `ops` arrivals sorted by `at_ns`
/// (non-decreasing by construction — times are cumulative sums of
/// non-negative gaps).
pub fn synthesize(spec: &LoadSpec) -> Result<Vec<ArrivalOp>, String> {
    spec.validate()?;
    // Domain-separate the stream RNG from other consumers of the seed.
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x4c4f_4144_4745_4e31);
    let mut out = Vec::with_capacity(spec.ops);
    match spec.profile {
        ArrivalProfile::Poisson => poisson(spec, &mut rng, &mut out),
        ArrivalProfile::Bursty => bursty(spec, &mut rng, &mut out),
        ArrivalProfile::Adversarial => adversarial(spec, &mut rng, &mut out),
    }
    debug_assert!(out.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    Ok(out)
}

/// Tasks per UUniFast wave of the Poisson/bursty admit mix.
const WAVE_TASKS: usize = 16;
/// Total time utilization each wave offers — slightly above what a device
/// can take, so streams cross the admission boundary instead of idling
/// under it.
const WAVE_UTILIZATION: f64 = 1.6;

/// Draw the next admit candidate: utilizations come from UUniFast waves
/// (16 tasks summing to US 1.6), periods from the paper's U(5, 20) ms
/// range, areas uniform over the lower half of the device.
fn next_admit(rng: &mut StdRng, wave: &mut Vec<f64>, columns: u32) -> OpKind {
    if wave.is_empty() {
        *wave = uunifast(WAVE_TASKS, WAVE_UTILIZATION, rng);
    }
    // UUniFast draws can exceed 1 (total > 1); cap so C ≤ T holds.
    let utilization = wave.pop().expect("refilled above").min(1.0);
    let period = rng.gen_range(5.0..20.0);
    let exec = (utilization * period).max(1e-3);
    let area = rng.gen_range(1..=(columns / 2).max(1));
    OpKind::Admit(TaskParams { exec, deadline: period, period, area })
}

/// Weighted op mix shared by Poisson and bursty: admit-heavy with enough
/// releases to churn handles and queries to sample full-set re-checks.
fn next_kind(rng: &mut StdRng, wave: &mut Vec<f64>, columns: u32) -> OpKind {
    match rng.gen_range(0u32..100) {
        0..=59 => next_admit(rng, wave, columns),
        60..=84 => OpKind::Release,
        _ => OpKind::Query,
    }
}

fn poisson(spec: &LoadSpec, rng: &mut StdRng, out: &mut Vec<ArrivalOp>) {
    // Mean inter-arrival 10µs — ~100k ops/s offered, far above what slow
    // tiers sustain, so replay measures service time, not idle gaps.
    let mut at_ns = 0u64;
    let mut wave = Vec::new();
    for _ in 0..spec.ops {
        at_ns += exp_gap_ns(rng, 10_000.0);
        let session = rng.gen_range(0..spec.sessions);
        let kind = next_kind(rng, &mut wave, spec.columns);
        out.push(ArrivalOp { at_ns, session, kind });
    }
}

fn bursty(spec: &LoadSpec, rng: &mut StdRng, out: &mut Vec<ArrivalOp>) {
    let mut at_ns = 0u64;
    let mut wave = Vec::new();
    while out.len() < spec.ops {
        // Off period, then a burst concentrated on one hot session (80% of
        // the burst's ops) with the rest sprayed uniformly.
        at_ns += exp_gap_ns(rng, 2_000_000.0);
        let burst = rng.gen_range(8usize..=64).min(spec.ops - out.len());
        let hot = rng.gen_range(0..spec.sessions);
        for _ in 0..burst {
            at_ns += exp_gap_ns(rng, 200.0);
            let session = if rng.gen_bool(0.8) { hot } else { rng.gen_range(0..spec.sessions) };
            let kind = next_kind(rng, &mut wave, spec.columns);
            out.push(ArrivalOp { at_ns, session, kind });
        }
    }
}

/// A knife-edge pair for a `columns`-wide device, built the way the
/// paper's Table 1 builds one for 10 columns: admitting `B` onto a live
/// set holding `A` satisfies `B`'s row of the DP condition with **exact
/// equality**, so the controller escalates to the exact tier and proves
/// the equality in `Rat64` arithmetic.
///
/// Construction: `A = (1, W−1, W−1, W−1)` occupies all but one column, so
/// the busy-area bound is `Abnd = W − Amax + 1 = 2` and `US(A) = 1`;
/// `B = (2.5, 5, 5, 3)` has `UT(B) = 1/2`, making `B`'s row
/// `US(Γ) ≤ Abnd·(1 − UT(B)) + US(B)` read `1 + 3/2 ≤ 2·(1/2) + 3/2` —
/// an equality for every `W ≥ 5` (below that `A`'s own row fails first).
fn knife_edge_pair(columns: u32) -> (TaskParams, TaskParams) {
    let w1 = f64::from(columns - 1);
    (
        TaskParams { exec: 1.0, deadline: w1, period: w1, area: columns - 1 },
        TaskParams { exec: 2.5, deadline: 5.0, period: 5.0, area: 3 },
    )
}

fn adversarial(spec: &LoadSpec, rng: &mut StdRng, out: &mut Vec<ArrivalOp>) {
    let (a, b) = knife_edge_pair(spec.columns);
    // Each session runs the 5-op cycle admit A → admit B (exact tier) →
    // query → release → release; sessions are interleaved by drawing which
    // session advances next, with each session tracking its own cycle
    // position so the knife edge is preserved per session.
    let mut phase = vec![0u8; spec.sessions as usize];
    let mut at_ns = 0u64;
    for _ in 0..spec.ops {
        at_ns += exp_gap_ns(rng, 5_000.0);
        let session = rng.gen_range(0..spec.sessions);
        let p = &mut phase[session as usize];
        let kind = match *p {
            0 => OpKind::Admit(a),
            1 => OpKind::Admit(b),
            2 => OpKind::Query,
            _ => OpKind::Release,
        };
        *p = (*p + 1) % 5;
        out.push(ArrivalOp { at_ns, session, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(profile: ArrivalProfile) -> LoadSpec {
        LoadSpec { profile, ops: 500, sessions: 8, columns: 100, seed: 7 }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        for profile in ArrivalProfile::all() {
            let a = synthesize(&spec(profile)).unwrap();
            let b = synthesize(&spec(profile)).unwrap();
            assert_eq!(a, b, "{profile}");
            let c = synthesize(&LoadSpec { seed: 8, ..spec(profile) }).unwrap();
            assert_ne!(a, c, "{profile}: different seed must change the stream");
        }
    }

    #[test]
    fn streams_are_sorted_sized_and_in_session_range() {
        for profile in ArrivalProfile::all() {
            let s = spec(profile);
            let ops = synthesize(&s).unwrap();
            assert_eq!(ops.len(), s.ops, "{profile}");
            assert!(ops.windows(2).all(|w| w[0].at_ns <= w[1].at_ns), "{profile}: unsorted");
            assert!(ops.iter().all(|o| o.session < s.sessions), "{profile}");
        }
    }

    #[test]
    fn admitted_tasks_are_valid_model_tasks() {
        for profile in ArrivalProfile::all() {
            for op in synthesize(&spec(profile)).unwrap() {
                if let OpKind::Admit(params) = op.kind {
                    let task = params.to_task().expect("synthesized params must validate");
                    assert!(task.area() <= 100);
                }
            }
        }
    }

    #[test]
    fn adversarial_cycles_start_with_the_knife_edge_pair() {
        let ops = synthesize(&spec(ArrivalProfile::Adversarial)).unwrap();
        let (a, _) = knife_edge_pair(100);
        // The first op of every session is admit A.
        let mut seen = std::collections::HashSet::new();
        for op in &ops {
            if seen.insert(op.session) {
                assert_eq!(op.kind, OpKind::Admit(a), "session {}", op.session);
            }
        }
    }

    #[test]
    fn knife_edge_pair_forces_the_exact_tier_on_any_device() {
        use fpga_rt_model::Fpga;
        use fpga_rt_service::{AdmissionController, ControllerConfig, Tier};
        for columns in [5u32, 10, 33, 100, 1000] {
            let mut ctl =
                AdmissionController::new(Fpga::new(columns).unwrap(), ControllerConfig::default());
            let (a, b) = knife_edge_pair(columns);
            let (first, _) = ctl.admit(a.to_task().unwrap(), false);
            assert!(first.accepted, "columns={columns}: {first:?}");
            let (second, _) = ctl.admit(b.to_task().unwrap(), false);
            assert!(second.accepted, "columns={columns}: {second:?}");
            assert_eq!(second.tier, Tier::Exact, "columns={columns}: {second:?}");
        }
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(LoadSpec { ops: 0, ..spec(ArrivalProfile::Poisson) }.validate().is_err());
        assert!(LoadSpec { sessions: 0, ..spec(ArrivalProfile::Poisson) }.validate().is_err());
        assert!(LoadSpec { columns: 0, ..spec(ArrivalProfile::Poisson) }.validate().is_err());
        let err =
            LoadSpec { columns: 4, ..spec(ArrivalProfile::Adversarial) }.validate().unwrap_err();
        assert!(err.contains("≥ 5"), "{err}");
        assert!(LoadSpec { columns: 4, ..spec(ArrivalProfile::Poisson) }.validate().is_ok());
    }

    #[test]
    fn profile_names_round_trip() {
        for p in ArrivalProfile::all() {
            assert_eq!(ArrivalProfile::by_id(p.as_str()), Some(p));
        }
        assert_eq!(ArrivalProfile::by_id("zipf"), None);
    }
}
