//! The per-shard admission controller and its fast→slow decision cascade.
//!
//! Each [`AdmissionController`] owns a live taskset and answers
//! admit/release/query operations. An admission runs through the cascade
//!
//! 1. **`dp-inc`** — Theorem 1 on `Γ ∪ {candidate}`, read straight from the
//!    live set ([`DpTest::live_slack`], O(N));
//! 2. **`gn1`** — Theorem 2 on `Γ ∪ {candidate}` (O(N²));
//! 3. **`gn2`** — Theorem 3 (O(N³), the sharpest `f64` test);
//! 4. **`exact`** — when the deciding margin is knife-edge (within
//!    [`ControllerConfig::exact_margin`] relative slack), the whole cascade
//!    re-runs in exact [`Rat64`] arithmetic so verdicts like the paper's
//!    Table 1 equality are *proved* rather than guessed from rounding.
//!
//! GN1, GN2 and the exact tier run on the analysis kernel
//! ([`fpga_rt_analysis::batch`]), the one implementation of the theorems
//! that `DpTest`/`Gn1Test`/`Gn2Test::check` also call: a slow-path
//! decision packs `Γ ∪ {candidate}` once, in canonical order and straight
//! from the live set, into a [`ScratchSpace`] the controller owns, and both
//! f64 tiers read their verdict and margin from that one packing. The
//! kernel writes per-task rows only for `margins` requests. The exact tier
//! converts the same sequence to rationals, packs it into the kernel's
//! `Rat64` instance, and gets an overflow back as a value: the `f64`
//! verdict then stands, with a note.
//!
//! Admissions and queries share one decision path: cache lookup, the
//! cascade, then memoization. Accepting commits the candidate to the live
//! set; rejecting leaves state untouched. Every admission records which
//! tier settled it.
//!
//! A **verdict cache** (see [`crate::cache`], enabled via
//! [`AdmissionController::with_cache`]) sits in front of the cascade,
//! invisible in the controller's output by construction: a bounded LRU
//! keyed by the order-independent fingerprint of the evaluated task
//! multiset, replaying whole decisions — verdict, tier, margin, reason,
//! per-task rows — on resubmission without running any analysis.

use crate::cache::{stages, CacheOp, CachedVerdict, TasksetFingerprint, VerdictCache};
use crate::protocol::{counters, PerTaskMargin, QueryStats};
use fpga_rt_analysis::{
    AnalysisSeries, BatchAnalyzer, DpConfig, DpTest, Gn1Config, Gn2Config, ScratchSpace, TaskCheck,
    Theorem,
};
use fpga_rt_model::{Fpga, LiveTaskSet, Rat64, Task, TaskHandle};
use fpga_rt_obs::{Obs, SpanTimer};

/// Which cascade tier settled a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// DP bound (Theorem 1 on the live set; wire name `dp-inc`).
    IncrementalDp,
    /// GN1 (Theorem 2).
    Gn1,
    /// GN2 (Theorem 3).
    Gn2,
    /// Exact `Rat64` re-check of the full cascade.
    Exact,
}

impl Tier {
    /// Stable wire name of the tier.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::IncrementalDp => "dp-inc",
            Tier::Gn1 => "gn1",
            Tier::Gn2 => "gn2",
            Tier::Exact => "exact",
        }
    }

    /// Static name of the per-tier decision-latency histogram.
    pub fn decision_ns_metric(self) -> &'static str {
        match self {
            Tier::IncrementalDp => "admission/tier/dp-inc/decision_ns",
            Tier::Gn1 => "admission/tier/gn1/decision_ns",
            Tier::Gn2 => "admission/tier/gn2/decision_ns",
            Tier::Exact => "admission/tier/exact/decision_ns",
        }
    }

    /// How deep into the cascade this tier sits (1-based).
    pub fn cascade_depth(self) -> u64 {
        match self {
            Tier::IncrementalDp => 1,
            Tier::Gn1 => 2,
            Tier::Gn2 => 3,
            Tier::Exact => 4,
        }
    }
}

impl core::fmt::Display for Tier {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Outcome of one admission (or query) decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Whether the taskset (including the candidate, for admissions) was
    /// found schedulable.
    pub accepted: bool,
    /// The cascade tier that settled the verdict.
    pub tier: Tier,
    /// Signed slack of the binding comparison; `None` when the decision was
    /// settled by a precondition (task wider than device, `C > D`).
    pub margin: Option<f64>,
    /// Human-readable notes (rejection reason, exact-fallback notice).
    pub reason: Option<String>,
    /// Per-task margin rows when requested.
    pub per_task: Option<Vec<PerTaskMargin>>,
}

/// State after a successful release.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReleaseOutcome {
    /// Live tasks remaining.
    pub tasks: usize,
    /// `UT(Γ)` after the release.
    pub ut: f64,
    /// `US(Γ)` after the release.
    pub us: f64,
}

/// Smallest accepted timing parameter (C, D or T) for admission.
pub const MIN_PARAMETER: f64 = 1e-6;
/// Largest accepted timing parameter (C, D or T) for admission. Together
/// with [`MIN_PARAMETER`] this bounds every parameter ratio the analysis
/// kernels form to ≤ 1e15, safely inside `i64` (and `Rat64`) range.
pub const MAX_PARAMETER: f64 = 1e9;

/// Tunables of a controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Relative margin below which a verdict counts as knife-edge and is
    /// escalated to the exact tier.
    pub exact_margin: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig { exact_margin: 1e-9 }
    }
}

/// A long-lived admission controller for one device (one shard).
#[derive(Debug, Clone)]
pub struct AdmissionController {
    device: Fpga,
    live: LiveTaskSet<f64>,
    /// The batch kernel's pack buffer for the GN1/GN2 tiers.
    scratch: ScratchSpace,
    config: ControllerConfig,
    stats: QueryStats,
    obs: Obs,
    /// Optional verdict cache; `fp` is the running fingerprint of the live
    /// multiset, maintained on every commit/release (cheap even when the
    /// cache is off).
    cache: Option<VerdictCache>,
    fp: TasksetFingerprint,
}

impl AdmissionController {
    /// A controller with an empty live set and no telemetry.
    pub fn new(device: Fpga, config: ControllerConfig) -> Self {
        Self::with_obs(device, config, Obs::off())
    }

    /// A controller recording telemetry into `obs`: per-stage analysis
    /// spans (`admission/stage/{dp,gn1,gn2,exact}_ns`), whole-decision
    /// latency per deciding tier (`admission/tier/<tier>/decision_ns`) and
    /// the cascade depth distribution (`admission/cascade_depth`). With
    /// [`Obs::off`] every recording is a no-op branch (gated by the
    /// `obs_overhead` benchmark); with a deterministic registry, time
    /// values are zeroed but sample counts stay populated.
    pub fn with_obs(device: Fpga, config: ControllerConfig, obs: Obs) -> Self {
        AdmissionController {
            device,
            live: LiveTaskSet::new(),
            scratch: ScratchSpace::new(),
            config,
            stats: QueryStats::default(),
            obs,
            cache: None,
            fp: TasksetFingerprint::empty(),
        }
    }

    /// Enable a bounded verdict cache of `entries` entries (`None` keeps
    /// caching off). Replayed decisions are byte-identical to recomputed
    /// ones by construction — the live set is canonically ordered, so every
    /// decision is a pure function of the cache key (see [`crate::cache`]).
    /// The only observable difference is the `admission/cache/*` telemetry.
    pub fn with_cache(mut self, entries: Option<usize>) -> Self {
        self.cache = entries.map(VerdictCache::new);
        self
    }

    /// The verdict cache, when enabled (for its hit/miss/eviction counters).
    pub fn cache(&self) -> Option<&VerdictCache> {
        self.cache.as_ref()
    }

    /// The device this controller admits onto.
    pub fn device(&self) -> &Fpga {
        &self.device
    }

    /// Number of live tasks.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `true` when no task is admitted.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Live `UT(Γ)`.
    pub fn time_utilization(&self) -> f64 {
        self.live.time_utilization()
    }

    /// Live `US(Γ)`.
    pub fn system_utilization(&self) -> f64 {
        self.live.system_utilization()
    }

    /// Accumulated decision statistics.
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// The telemetry handle this controller records into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Read access to the live set (snapshots, handles).
    pub fn live(&self) -> &LiveTaskSet<f64> {
        &self.live
    }

    /// Export the controller's durable state for a session snapshot: the
    /// live `(handle, task)` pairs in canonical order, the handle counter
    /// and the accumulated decision statistics. The taskset fingerprint is
    /// derivable from the live multiset and is rebuilt on restore.
    pub fn export_state(&self) -> (Vec<(TaskHandle, Task<f64>)>, u64, QueryStats) {
        let pairs = self.live.iter().map(|(h, t)| (h, *t)).collect();
        (pairs, self.live.next_handle(), self.stats)
    }

    /// Rebuild the controller from exported state.
    ///
    /// The live set is restored in canonical order and its aggregates are
    /// recomputed from scratch, which yields bits identical to any
    /// admit/release history reaching the same multiset (the purity
    /// contract of [`LiveTaskSet`]), and the fingerprint is refolded from
    /// the tasks. The verdict cache restarts empty at the same capacity:
    /// cache state never changes a response byte, so this is a
    /// telemetry-only difference. All subsequent verdicts are therefore
    /// identical to a never-snapshotted twin (property-tested in
    /// `tests/session_equiv.rs`).
    pub fn restore_state(
        &mut self,
        pairs: Vec<(TaskHandle, Task<f64>)>,
        next_handle: u64,
        stats: QueryStats,
    ) -> Result<(), String> {
        let live = LiveTaskSet::restore(pairs, next_handle).map_err(|e| e.to_string())?;
        let mut fp = TasksetFingerprint::empty();
        for (_, task) in live.iter() {
            fp.add(task);
        }
        self.live = live;
        self.fp = fp;
        self.stats = stats;
        if let Some(cache) = &self.cache {
            self.cache = Some(VerdictCache::new(cache.capacity()));
        }
        Ok(())
    }

    fn knife_edge(&self, margin: f64, scale: f64) -> bool {
        margin.abs() <= self.config.exact_margin * scale.abs().max(1.0)
    }

    fn record(&mut self, tier: Tier, accepted: bool, span: SpanTimer) {
        self.stats.decisions += 1;
        if accepted {
            self.stats.accepted += 1;
        } else {
            self.stats.rejected += 1;
        }
        let t = &mut self.stats.tiers;
        match tier {
            Tier::IncrementalDp => t.dp_inc += 1,
            Tier::Gn1 => t.gn1 += 1,
            Tier::Gn2 => t.gn2 += 1,
            Tier::Exact => t.exact += 1,
        }
        if self.obs.enabled() {
            self.obs.record_ns(tier.decision_ns_metric(), span.elapsed_ns());
            self.obs.record("admission/cascade_depth", tier.cascade_depth());
        }
    }

    fn commit(&mut self, task: Task<f64>) -> TaskHandle {
        let handle = self.live.admit(task);
        self.fp.add(&task);
        handle
    }

    /// The caller-facing decision for a verdict. Margin rows are kept only
    /// when requested, and their handles are resolved against the current
    /// live set. With `rejected_candidate_pos = Some(p)` the rows cover
    /// `Γ ∪ {candidate}` for a *rejected* candidate at position `p`: that
    /// row has no handle, and rows past it shift down by one in the live
    /// set. Accepted candidates are committed before rows are resolved, so
    /// every index maps directly.
    fn decision(
        &self,
        verdict: CachedVerdict,
        want_margins: bool,
        rejected_candidate_pos: Option<usize>,
    ) -> Decision {
        let handle = |index: usize| match rejected_candidate_pos {
            Some(p) if index == p => None,
            Some(p) if index > p => self.live.handle_at(index - 1).map(|h| h.0),
            _ => self.live.handle_at(index).map(|h| h.0),
        };
        let per_task = verdict.rows.filter(|_| want_margins).map(|rows| {
            rows.into_iter()
                .map(|(index, margin)| PerTaskMargin { index, handle: handle(index), margin })
                .collect()
        });
        Decision {
            accepted: verdict.accepted,
            tier: verdict.tier,
            margin: verdict.margin,
            reason: verdict.reason,
            per_task,
        }
    }

    /// Replay the stage-span samples of a cached decision so
    /// deterministic-mode histograms match a cache-off run sample-for-sample
    /// (deterministic registries zero time values but keep counts). In
    /// non-deterministic mode nothing is replayed — fabricated zeros would
    /// corrupt real latency data, and wall-clock artifacts are not
    /// byte-compared.
    fn replay_stage_samples(&self, mask: u8) {
        if !self.obs.registry().is_some_and(|r| r.is_deterministic()) {
            return;
        }
        for (bit, stage) in [
            (stages::DP, "admission/stage/dp_ns"),
            (stages::GN1, "admission/stage/gn1_ns"),
            (stages::GN2, "admission/stage/gn2_ns"),
            (stages::EXACT, "admission/stage/exact_ns"),
        ] {
            if mask & bit != 0 {
                self.obs.record_ns(stage, 0);
            }
        }
    }

    /// Decide admission of `task`; accepted candidates are committed.
    ///
    /// Returns the decision and, on acceptance, the new task's handle.
    pub fn admit(&mut self, task: Task<f64>, want_margins: bool) -> (Decision, Option<TaskHandle>) {
        let decision_span = self.obs.span();
        // Preconditions: cheaper than any bound and independent of Γ.
        //
        // Magnitude cap: serve accepts untrusted input, and the analysis
        // kernels compute ratios like ⌊(Dk − Di)/Ti⌋ in i64 — two in-range
        // parameters can be 15 decimal orders apart at most, keeping every
        // such ratio far from i64/Rat64 overflow.
        for (name, value) in [("C", task.exec()), ("D", task.deadline()), ("T", task.period())] {
            if !(MIN_PARAMETER..=MAX_PARAMETER).contains(&value) {
                self.record(Tier::IncrementalDp, false, decision_span);
                let reason = format!(
                    "task {name}={value:e} outside the supported range \
                     [{MIN_PARAMETER:e}, {MAX_PARAMETER:e}]"
                );
                return (self.precondition_reject(reason), None);
            }
        }
        if task.area() > self.device.columns() {
            self.record(Tier::IncrementalDp, false, decision_span);
            let reason = format!(
                "task occupies {} columns but the device only has {}",
                task.area(),
                self.device.columns()
            );
            return (self.precondition_reject(reason), None);
        }
        if task.is_trivially_infeasible() {
            self.record(Tier::IncrementalDp, false, decision_span);
            let reason = format!(
                "task has C={} > D={} and can never meet a deadline",
                task.exec(),
                task.deadline()
            );
            return (self.precondition_reject(reason), None);
        }

        let verdict = self.decide(Some(&task), want_margins);
        self.record(verdict.tier, verdict.accepted, decision_span);
        let rejected_pos = (!verdict.accepted).then(|| self.live.canonical_position(&task));
        let handle = verdict.accepted.then(|| self.commit(task));
        (self.decision(verdict, want_margins, rejected_pos), handle)
    }

    fn precondition_reject(&self, reason: String) -> Decision {
        Decision {
            accepted: false,
            tier: Tier::IncrementalDp,
            margin: None,
            reason: Some(reason),
            per_task: None,
        }
    }

    /// Release a previously admitted task.
    pub fn release(&mut self, handle: TaskHandle) -> Result<ReleaseOutcome, String> {
        let removed = self.live.remove(handle).map_err(|e| e.to_string())?;
        self.fp.remove(&removed);
        Ok(ReleaseOutcome {
            tasks: self.live.len(),
            ut: self.live.time_utilization(),
            us: self.live.system_utilization(),
        })
    }

    /// Is the *current* live set schedulable, and by which tier? Does not
    /// count into the admission statistics, cached or not.
    pub fn query(&mut self, want_margins: bool) -> Decision {
        let verdict = self.decide(None, want_margins);
        self.decision(verdict, want_margins, None)
    }

    /// The one decision path of [`AdmissionController::admit`] (on
    /// `Γ ∪ {candidate}`) and [`AdmissionController::query`] (on `Γ`, no
    /// candidate): replay the cached verdict for the evaluated multiset, or
    /// run the cascade and memoize its verdict. The live set is canonically
    /// ordered, so the verdict is a pure function of the cache key and a
    /// hit replays it verbatim.
    fn decide(&mut self, candidate: Option<&Task<f64>>, want_margins: bool) -> CachedVerdict {
        let (op, key) = match candidate {
            Some(task) => (CacheOp::Admit, self.fp.with(task)),
            None => (CacheOp::Query, self.fp),
        };
        if let Some(cache) = self.cache.as_mut() {
            if let Some(hit) = cache.lookup(op, key, want_margins) {
                let hit = hit.clone();
                self.obs.inc(counters::CACHE_HITS);
                self.replay_stage_samples(hit.stages);
                return hit;
            }
            self.obs.inc(counters::CACHE_MISSES);
        }
        let verdict = self.cascade(candidate, want_margins);
        if let Some(cache) = self.cache.as_mut() {
            if cache.insert(op, key, verdict.clone()) {
                self.obs.inc(counters::CACHE_EVICTIONS);
            }
        }
        verdict
    }

    /// Pack the evaluated set into the scratch space.
    fn pack(&mut self, candidate: Option<&Task<f64>>) {
        self.scratch.pack(evaluated(&self.live, candidate));
    }

    /// Margin rows of the accepting tier over the (non-empty) evaluated
    /// set, from the kernel.
    fn tier_rows(&mut self, tier: Tier, candidate: Option<&Task<f64>>) -> Vec<(usize, f64)> {
        let theorem = match tier {
            Tier::IncrementalDp => Theorem::Dp(DpConfig::default()),
            Tier::Gn1 => Theorem::Gn1(Gn1Config::default()),
            _ => Theorem::Gn2(Gn2Config::default()),
        };
        self.pack(candidate);
        let mut rows = Vec::new();
        BatchAnalyzer::new()
            .evaluate(theorem, &self.device, &mut self.scratch, Some(&mut rows))
            .expect("f64 arithmetic cannot overflow");
        margin_rows(&rows)
    }

    /// DP → GN1 → GN2 → exact on the evaluated set.
    ///
    /// DP reads `Γ ∪ {candidate}` straight from the live set. When it does
    /// not accept clearly, the set is packed once into the scratch space
    /// and the kernel runs GN1 and then, only if GN1 rejects, GN2 on that
    /// packing; its verdicts and margins are those of
    /// `Gn1Test`/`Gn2Test::check` on the same set. When any *computed*
    /// margin is knife-edge, the exact tier settles the verdict, and when
    /// exact arithmetic cannot represent the set, the `f64` verdict stands
    /// with a note. Rows are written only for a `margins` request.
    fn cascade(&mut self, candidate: Option<&Task<f64>>, want_margins: bool) -> CachedVerdict {
        let dp_span = self.obs.span();
        let dp = DpTest::default().live_slack(&self.live, candidate, &self.device);
        self.obs.record_ns("admission/stage/dp_ns", dp_span.elapsed_ns());
        // The knife-edge scale is DP's canonical-order `US` fold, a pure
        // function of the evaluated multiset.
        let us = dp.us;
        // The empty set (a query before any admission) accepts outright,
        // whatever the knife-edge threshold.
        let empty = candidate.is_none() && self.live.is_empty();
        if empty || (dp.accepted && !self.knife_edge(dp.margin, us)) {
            return CachedVerdict {
                accepted: true,
                tier: Tier::IncrementalDp,
                margin: finite(dp.margin),
                reason: None,
                stages: stages::DP,
                // The empty set has no rows.
                rows: (want_margins && !empty)
                    .then(|| self.tier_rows(Tier::IncrementalDp, candidate)),
            };
        }

        let mut knife = self.knife_edge(dp.margin, us);
        let mut best_margin = dp.margin;
        let mut decided: Option<(Tier, f64)> = None;
        let mut mask = stages::DP;
        self.pack(candidate);
        // Lazy escalation: GN2 (O(N³)) only runs when GN1 did not accept.
        for (tier, series, stage, bit) in [
            (Tier::Gn1, AnalysisSeries::Gn1, "admission/stage/gn1_ns", stages::GN1),
            (Tier::Gn2, AnalysisSeries::Gn2, "admission/stage/gn2_ns", stages::GN2),
        ] {
            let stage_span = self.obs.span();
            let verdict =
                BatchAnalyzer::new().analyze_packed(series, &self.device, &mut self.scratch);
            self.obs.record_ns(stage, stage_span.elapsed_ns());
            mask |= bit;
            let margin = verdict.report_margin;
            knife |= self.knife_edge(margin, us);
            best_margin = best_margin.max(margin);
            if verdict.accepted {
                decided = Some((tier, margin));
                break;
            }
        }

        let (accepted, tier, margin, reason) = match decided {
            Some((tier, margin)) => (true, tier, margin, None),
            // Reachable only on a knife edge: a clear DP accept returned above.
            None if dp.accepted => (true, Tier::IncrementalDp, dp.margin, None),
            None => {
                (false, Tier::Gn2, best_margin, Some("rejected by DP, GN1 and GN2".to_string()))
            }
        };
        let mut verdict = CachedVerdict {
            accepted,
            tier,
            margin: finite(margin),
            reason,
            stages: mask,
            rows: None,
        };
        // Knife-edge anywhere: settle the verdict in exact arithmetic.
        if knife {
            verdict.stages |= stages::EXACT;
            let exact_span = self.obs.span();
            let exact = self.exact_cascade(candidate, want_margins, verdict.stages);
            self.obs.record_ns("admission/stage/exact_ns", exact_span.elapsed_ns());
            match exact {
                Ok(exact) => return exact,
                // Exact arithmetic cannot represent this set: the f64
                // verdict stands, noting the degradation.
                Err(overflow) => {
                    let note = format!("exact re-check unavailable ({overflow}); f64 verdict");
                    verdict.reason = Some(match verdict.reason {
                        Some(reason) => format!("{reason}; {note}"),
                        None => note,
                    });
                }
            }
        }
        if let Some((tier, _)) = decided.filter(|_| want_margins) {
            verdict.rows = Some(self.tier_rows(tier, candidate));
        }
        verdict
    }

    /// The `exact` tier's verdict: the DP → GN1 → GN2 cascade on the
    /// evaluated set in exact [`Rat64`] arithmetic. Each parameter becomes
    /// its best rational with denominator ≤ [`Rat64::TASK_MAX_DENOMINATOR`],
    /// and the kernel's `Rat64` instance evaluates the packed set.
    ///
    /// `Err` explains why exact arithmetic is unavailable for this set:
    /// a parameter has no such rational, or an intermediate value
    /// overflows the normalized i64/i64 representation.
    fn exact_cascade(
        &self,
        candidate: Option<&Task<f64>>,
        want_margins: bool,
        stages: u8,
    ) -> Result<CachedVerdict, String> {
        let rational = |v| Rat64::approx_f64(v, Rat64::TASK_MAX_DENOMINATOR);
        let exact = |t: &Task<f64>| {
            Task::new(rational(t.exec())?, rational(t.deadline())?, rational(t.period())?, t.area())
        };
        let tasks = evaluated(&self.live, candidate)
            .map(exact)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("exact conversion failed: {e}"))?;
        let mut scratch = ScratchSpace::default();
        scratch.try_pack(&tasks).map_err(|overflow| overflow.to_string())?;
        let tiers = [
            ("DP", Theorem::Dp(DpConfig::default())),
            ("GN1", Theorem::Gn1(Gn1Config::default())),
            ("GN2", Theorem::Gn2(Gn2Config::default())),
        ];
        let mut rows = Vec::new();
        let mut decided = None;
        for (name, theorem) in tiers {
            rows.clear();
            let verdict = BatchAnalyzer::new()
                .evaluate(theorem, &self.device, &mut scratch, want_margins.then_some(&mut rows))
                .map_err(|overflow| overflow.to_string())?;
            decided = Some((name, verdict));
            if verdict.accepted {
                break;
            }
        }
        let (name, verdict) = decided.expect("the exact cascade runs at least DP");
        let reason = if verdict.accepted {
            format!("exact re-check: accepted by {name}")
        } else {
            "exact re-check: rejected by DP, GN1 and GN2".to_string()
        };
        Ok(CachedVerdict {
            accepted: verdict.accepted,
            tier: Tier::Exact,
            margin: finite(verdict.report_margin),
            reason: Some(reason),
            stages,
            rows: want_margins.then(|| margin_rows(&rows)),
        })
    }
}

/// The evaluated set in canonical order: `Γ ∪ {candidate}` with the
/// candidate at its canonical position, or `Γ` for a query.
fn evaluated<'a>(
    live: &'a LiveTaskSet<f64>,
    candidate: Option<&'a Task<f64>>,
) -> impl Iterator<Item = &'a Task<f64>> {
    let pos = candidate.map_or(live.len(), |task| live.canonical_position(task));
    let head = live.iter().take(pos).map(|(_, t)| t);
    head.chain(candidate).chain(live.iter().skip(pos).map(|(_, t)| t))
}

/// `Some(m)` for finite margins, `None` otherwise (never serialize NaN/∞).
fn finite(m: f64) -> Option<f64> {
    m.is_finite().then_some(m)
}

/// Cacheable `(canonical index, rhs − lhs)` rows of a report.
fn margin_rows(rows: &[TaskCheck]) -> Vec<(usize, f64)> {
    rows.iter().map(|c| (c.task.0, c.rhs - c.lhs)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> AdmissionController {
        AdmissionController::new(Fpga::new(10).unwrap(), ControllerConfig::default())
    }

    fn t(c: f64, d: f64, p: f64, a: u32) -> Task<f64> {
        Task::new(c, d, p, a).unwrap()
    }

    #[test]
    fn light_task_admitted_by_incremental_dp() {
        let mut ctl = controller();
        let (dec, handle) = ctl.admit(t(1.0, 10.0, 10.0, 3), false);
        assert!(dec.accepted);
        assert_eq!(dec.tier, Tier::IncrementalDp);
        assert!(handle.is_some());
        assert_eq!(ctl.len(), 1);
        assert_eq!(ctl.stats().tiers.dp_inc, 1);
    }

    /// Table 2 admitted task-by-task: the second admission fails DP but is
    /// accepted by GN1 — the cascade escalates exactly one tier.
    #[test]
    fn table2_second_admission_decided_by_gn1() {
        let mut ctl = controller();
        assert!(ctl.admit(t(4.50, 8.0, 8.0, 3), false).0.accepted);
        let (dec, _) = ctl.admit(t(8.00, 9.0, 9.0, 5), false);
        assert!(dec.accepted, "{dec:?}");
        assert_eq!(dec.tier, Tier::Gn1);
    }

    /// Table 3: DP and GN1 reject the full set; GN2 accepts.
    #[test]
    fn table3_second_admission_decided_by_gn2() {
        let mut ctl = controller();
        assert!(ctl.admit(t(2.10, 5.0, 5.0, 7), false).0.accepted);
        let (dec, _) = ctl.admit(t(2.00, 7.0, 7.0, 7), false);
        assert!(dec.accepted, "{dec:?}");
        assert_eq!(dec.tier, Tier::Gn2);
    }

    /// Table 1: the second admission sits exactly on the DP bound — the
    /// knife-edge margin escalates to the exact tier, which proves the
    /// equality and accepts.
    #[test]
    fn table1_second_admission_decided_exactly() {
        let mut ctl = controller();
        assert!(ctl.admit(t(1.26, 7.0, 7.0, 9), false).0.accepted);
        let (dec, handle) = ctl.admit(t(0.95, 5.0, 5.0, 6), false);
        assert!(dec.accepted, "{dec:?}");
        assert_eq!(dec.tier, Tier::Exact);
        assert!(handle.is_some());
        assert_eq!(ctl.stats().tiers.exact, 1);
    }

    #[test]
    fn overload_rejected_without_mutation() {
        let mut ctl = controller();
        assert!(ctl.admit(t(4.9, 5.0, 5.0, 9), false).0.accepted);
        let before = ctl.len();
        let (dec, handle) = ctl.admit(t(4.9, 5.0, 5.0, 9), false);
        assert!(!dec.accepted);
        assert_eq!(dec.tier, Tier::Gn2);
        assert!(handle.is_none());
        assert_eq!(ctl.len(), before, "rejection must not mutate the live set");
        assert!(dec.margin.unwrap() < 0.0);
    }

    #[test]
    fn precondition_rejections() {
        let mut ctl = controller();
        let (dec, _) = ctl.admit(t(1.0, 5.0, 5.0, 11), false);
        assert!(!dec.accepted);
        assert!(dec.reason.unwrap().contains("11 columns"));
        let (dec, _) = ctl.admit(t(6.0, 5.0, 5.0, 2), false);
        assert!(!dec.accepted);
        assert!(dec.reason.unwrap().contains("C="));
    }

    /// Untrusted magnitudes are rejected up front instead of driving the
    /// analysis kernels (i64 job counts, `Rat64` conversion) into
    /// overflow: the 1e19-period admit used to panic the exact tier.
    #[test]
    fn out_of_range_magnitudes_rejected_cleanly() {
        let mut ctl = controller();
        let (dec, handle) = ctl.admit(t(1e19, 2e19, 2e19, 1), false);
        assert!(!dec.accepted);
        assert!(handle.is_none());
        assert!(dec.reason.unwrap().contains("supported range"));
        let (dec, _) = ctl.admit(t(1e-9, 5.0, 5.0, 1), false);
        assert!(!dec.accepted);
        // The live set stayed empty and keeps working normally.
        assert!(ctl.is_empty());
        assert!(ctl.admit(t(0.6, 1.0, 1.0, 5), false).0.accepted);
    }

    /// Conversion failure inside the exact tier degrades to an error, not
    /// a panic (defense in depth behind the magnitude precondition).
    #[test]
    fn exact_cascade_conversion_failure_is_an_error() {
        let err = controller().exact_cascade(Some(&t(1e19, 2e19, 2e19, 1)), false, 0).unwrap_err();
        assert!(err.contains("conversion failed"), "{err}");
    }

    /// Full-precision parameters whose rationals have ~10⁶ denominators
    /// overflow i64 in the exact tier: the kernel returns the overflow as
    /// an error, which the cascade turns into the f64-fallback note.
    #[test]
    fn exact_cascade_overflow_is_an_error() {
        let mut ctl = AdmissionController::new(Fpga::new(20).unwrap(), ControllerConfig::default());
        let tasks = [
            t(1.000_001_000_017_000_3, 6.000_002_000_094_004, 6.000_002_000_094_004, 3),
            t(1.000_002_000_042_001, 7.000_003_000_141_007, 7.000_003_000_141_007, 4),
            t(1.000_003_000_117_004_6, 8.000_004_000_188_01, 8.000_004_000_188_01, 5),
        ];
        for task in tasks {
            assert!(ctl.admit(task, false).0.accepted);
        }
        let last = t(1.000_004_000_164_006_7, 9.000_005_000_235_01, 9.000_005_000_235_01, 6);
        let err = ctl.exact_cascade(Some(&last), true, 0).unwrap_err();
        assert_eq!(err, "exact arithmetic overflowed i64 for this taskset");
    }

    #[test]
    fn release_then_readmit() {
        let mut ctl = controller();
        let (_, h) = ctl.admit(t(4.9, 5.0, 5.0, 9), false);
        let out = ctl.release(h.unwrap()).unwrap();
        assert_eq!(out.tasks, 0);
        assert!(ctl.release(h.unwrap()).is_err(), "double release is a clean error");
        assert!(ctl.admit(t(4.9, 5.0, 5.0, 9), false).0.accepted);
    }

    #[test]
    fn query_reports_current_verdict_and_stats() {
        let mut ctl = controller();
        // The empty set is schedulable with DP's whole busy-area bound,
        // A(H) + 1, as its margin, and it has no rows even on request.
        // No knife-edge threshold escalates it.
        let mut wide = AdmissionController::new(
            Fpga::new(10).unwrap(),
            ControllerConfig { exact_margin: 1e12 },
        );
        for want_margins in [false, true] {
            let dec = ctl.query(want_margins);
            assert!(dec.accepted, "empty set is schedulable");
            assert_eq!(dec.tier, Tier::IncrementalDp);
            assert_eq!(dec.margin, Some(11.0));
            assert_eq!(dec.per_task, None);
            assert_eq!(wide.query(want_margins), dec);
        }
        ctl.admit(t(1.0, 10.0, 10.0, 3), false);
        let dec = ctl.query(true);
        assert!(dec.accepted);
        assert_eq!(dec.per_task.unwrap().len(), 1);
        let stats = ctl.stats();
        assert_eq!(stats.decisions, 1);
        assert_eq!(stats.accepted, 1);
    }

    #[test]
    fn margin_rows_map_candidate_to_new_handle() {
        let mut ctl = controller();
        let (dec, h) = ctl.admit(t(1.0, 10.0, 10.0, 3), true);
        let rows = dec.per_task.unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].handle, Some(h.unwrap().0));
    }

    /// Cache-on and cache-off controllers agree decision-for-decision —
    /// including per-task margin rows and handles — across repeated
    /// admit/query/release rounds, and the later rounds actually replay
    /// from the cache.
    #[test]
    fn cache_hits_replay_admissions_and_queries_identically() {
        let mut cached = controller().with_cache(Some(16));
        let mut plain = controller();
        let a = t(4.50, 8.0, 8.0, 3); // Table 2: second admission lands on GN1
        let b = t(8.00, 9.0, 9.0, 5);
        for round in 0..3 {
            let (dec_c, h_c) = cached.admit(a, true);
            let (dec_p, h_p) = plain.admit(a, true);
            assert_eq!(dec_c, dec_p, "admit a, round {round}");
            let (dec_c2, h_c2) = cached.admit(b, true);
            let (dec_p2, h_p2) = plain.admit(b, true);
            assert_eq!(dec_c2, dec_p2, "admit b, round {round}");
            assert_eq!(cached.query(true), plain.query(true), "query, round {round}");
            cached.release(h_c2.unwrap()).unwrap();
            plain.release(h_p2.unwrap()).unwrap();
            cached.release(h_c.unwrap()).unwrap();
            plain.release(h_p.unwrap()).unwrap();
        }
        let cache = cached.cache().unwrap();
        assert!(cache.hits() >= 6, "rounds 2–3 replay from cache, got {} hits", cache.hits());
        assert_eq!(format!("{:?}", cached.stats()), format!("{:?}", plain.stats()));
    }

    /// A knife-edge (exact-tier) verdict replays from the cache with the
    /// same tier, margin and exact-re-check reason.
    #[test]
    fn cache_replays_the_exact_tier() {
        let mut ctl = controller().with_cache(Some(8));
        assert!(ctl.admit(t(1.26, 7.0, 7.0, 9), false).0.accepted);
        let (first, h) = ctl.admit(t(0.95, 5.0, 5.0, 6), false);
        assert_eq!(first.tier, Tier::Exact);
        ctl.release(h.unwrap()).unwrap();
        let (second, h2) = ctl.admit(t(0.95, 5.0, 5.0, 6), false);
        assert_eq!(first, second);
        assert!(h2.is_some());
        assert_eq!(ctl.cache().unwrap().hits(), 1);
    }

    /// An entry cached without margin rows is a miss for a margin-bearing
    /// request; the recomputation upgrades the entry so the next one hits.
    #[test]
    fn margin_requests_upgrade_rowless_entries() {
        let mut cached = controller().with_cache(Some(8));
        let mut plain = controller();
        let task = t(1.0, 10.0, 10.0, 3);
        for (round, want_margins) in [false, true, true].into_iter().enumerate() {
            let (dec_c, h_c) = cached.admit(task, want_margins);
            let (dec_p, h_p) = plain.admit(task, want_margins);
            assert_eq!(dec_c, dec_p, "round {round}");
            cached.release(h_c.unwrap()).unwrap();
            plain.release(h_p.unwrap()).unwrap();
        }
        // Round 0 cached the entry without rows, so the margin-bearing
        // round 1 is a miss that upgrades it; round 2 hits with rows.
        let cache = cached.cache().unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }
}
