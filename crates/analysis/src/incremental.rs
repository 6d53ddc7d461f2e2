//! Incremental admission-control state for the DP bound (Theorem 1).
//!
//! The offline [`crate::DpTest`] re-derives every aggregate per call. An
//! online admission controller answers a stream of *admit τc?* questions
//! against a slowly-mutating [`LiveTaskSet`], and the DP bound has exactly
//! the right shape to answer those incrementally:
//!
//! ```text
//! DP accepts Γ  ⟺  US(Γ) ≤ min_k g_k,   g_k = Abnd·(1 − UT(τk)) + US(τk)
//! Abnd = A(H) − Amax(Γ) + 1
//! ```
//!
//! `US(Γ)` is maintained by the live set itself; `g_k` depends only on the
//! *individual* task and on `Abnd`. [`IncrementalState`] caches
//! `min_k g_k` keyed by the `Amax` it was computed under, so the common
//! admission (candidate does not change `Amax`, cache warm) costs **O(1)**:
//! one `g` evaluation for the candidate, one min, one comparison. The cache
//! is rebuilt in O(N) only when `Amax` changes or a release may have removed
//! the binding task.
//!
//! The state is generic over [`Time`] like every test in this crate, so the
//! same machinery drives both the fast `f64` tier and the exact
//! [`fpga_rt_model::Rat64`] re-check tier of an admission cascade.
//!
//! Only DP keeps state between decisions. The slower cascade tiers keep
//! none: an admission controller packs `Γ ∪ {candidate}` into the batch
//! kernel ([`crate::batch`]) for each GN1/GN2 decision, which costs O(N)
//! against their O(N²) and O(N³) evaluation.

use crate::dp::{DpAreaBound, DpConfig};
use fpga_rt_model::{Fpga, LiveTaskSet, Task, Time};

/// Outcome of an incremental DP evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalOutcome<T> {
    /// Whether the DP sufficient condition holds for the evaluated set.
    pub accepted: bool,
    /// Signed slack of the binding comparison, `min_k g_k − US(Γ)`:
    /// non-negative on acceptance, negative on rejection, and close to zero
    /// on knife-edge verdicts that deserve an exact re-check.
    pub margin: T,
    /// `US` of the evaluated set (the union fold for
    /// [`IncrementalState::evaluate_admit`], the live fold for
    /// [`IncrementalState::evaluate_current`]) — exposed so callers reuse
    /// it (e.g. as the knife-edge scale) instead of re-folding.
    pub us: T,
    /// `true` when the cached minimum was reused (O(1) path), `false` when
    /// the evaluation re-folded the task list (O(N) path).
    pub fast_path: bool,
}

/// Cached `min_k g_k` over the *committed* tasks of a live set.
#[derive(Debug, Clone, Copy)]
struct MinCache<T> {
    /// The `Amax` (hence `Abnd`) the minimum was computed under.
    amax: u32,
    /// `min_k g_k`; `None` when the live set was empty.
    min_g: Option<T>,
}

/// Incrementally-maintained DP admission state (see the [module docs](self)).
///
/// # Preconditions
///
/// Like [`crate::DpTest`] after its guard, the state assumes every task —
/// committed or candidate — fits the device and has `C ≤ D`; an admission
/// controller checks both before consulting the bound.
#[derive(Debug, Clone)]
pub struct IncrementalState<T: Time> {
    config: DpConfig,
    cache: Option<MinCache<T>>,
}

impl<T: Time> Default for IncrementalState<T> {
    fn default() -> Self {
        Self::new(DpConfig::default())
    }
}

impl<T: Time> IncrementalState<T> {
    /// State for the given DP variant.
    pub fn new(config: DpConfig) -> Self {
        IncrementalState { config, cache: None }
    }

    /// The DP configuration in use.
    pub fn config(&self) -> DpConfig {
        self.config
    }

    /// The busy-area bound `A(H) − Amax (+ 1)` for a given `Amax`.
    fn area_bound(&self, amax: u32, device: &Fpga) -> T {
        let base = i64::from(device.columns()) - i64::from(amax);
        match self.config.area_bound {
            DpAreaBound::IntegerColumns => T::from_i64(base + 1),
            DpAreaBound::RealValued => T::from_i64(base),
        }
    }

    /// Per-task capacity `g_k = Abnd·(1 − UT(τk)) + US(τk)`.
    fn g(abnd: T, task: &Task<T>) -> T {
        abnd * (T::ONE - task.time_utilization()) + task.system_utilization()
    }

    /// `min_k g_k` over the committed tasks for `amax`, reusing the cache
    /// when it was computed under the same `Amax`.
    fn committed_min(
        &mut self,
        live: &LiveTaskSet<T>,
        amax: u32,
        device: &Fpga,
    ) -> (Option<T>, bool) {
        if let Some(c) = self.cache {
            if c.amax == amax {
                return (c.min_g, true);
            }
        }
        let abnd = self.area_bound(amax, device);
        let min_g = live
            .iter()
            .map(|(_, t)| Self::g(abnd, t))
            .fold(None, |acc: Option<T>, g| Some(acc.map_or(g, |m| m.min_t(g))));
        self.cache = Some(MinCache { amax, min_g });
        (min_g, false)
    }

    /// Would DP accept `Γ ∪ {candidate}`? Does **not** mutate the live set.
    ///
    /// The `min_k g_k` fold is O(1) when the candidate leaves `Amax`
    /// unchanged and the cache is warm, O(N) otherwise (the rebuild also
    /// warms the cache for the follow-up [`IncrementalState::on_admitted`]).
    /// The utilization sum is always the O(N) canonical-order fold over the
    /// union ([`LiveTaskSet::system_utilization_with`]): appending the
    /// candidate last would make the margin depend on which member of the
    /// union plays "candidate", and the verdict cache keys on the union
    /// multiset alone.
    pub fn evaluate_admit(
        &mut self,
        live: &LiveTaskSet<T>,
        candidate: &Task<T>,
        device: &Fpga,
    ) -> IncrementalOutcome<T> {
        let amax = live.amax().max(candidate.area());
        let (committed, fast_path) = self.committed_min(live, amax, device);
        let abnd = self.area_bound(amax, device);
        let g_c = Self::g(abnd, candidate);
        let min_g = committed.map_or(g_c, |m| m.min_t(g_c));
        let us = live.system_utilization_with(candidate);
        IncrementalOutcome { accepted: us <= min_g, margin: min_g - us, us, fast_path }
    }

    /// Does DP accept the live set as it stands? Accepts trivially when
    /// empty. O(1) with a warm cache, O(N) otherwise.
    pub fn evaluate_current(
        &mut self,
        live: &LiveTaskSet<T>,
        device: &Fpga,
    ) -> IncrementalOutcome<T> {
        let amax = live.amax();
        let (committed, fast_path) = self.committed_min(live, amax, device);
        let us = live.system_utilization();
        match committed {
            Some(min_g) => {
                IncrementalOutcome { accepted: us <= min_g, margin: min_g - us, us, fast_path }
            }
            None => IncrementalOutcome {
                accepted: true,
                margin: self.area_bound(amax, device),
                us,
                fast_path,
            },
        }
    }

    /// Fold a just-committed admission into the cache (O(1)).
    ///
    /// Call *after* `live.admit(task)`; `live` is the post-admission set.
    pub fn on_admitted(&mut self, live: &LiveTaskSet<T>, admitted: &Task<T>, device: &Fpga) {
        let amax = live.amax();
        let abnd = self.area_bound(amax, device);
        let g = Self::g(abnd, admitted);
        match &mut self.cache {
            Some(c) if c.amax == amax => {
                c.min_g = Some(c.min_g.map_or(g, |m| m.min_t(g)));
            }
            _ => self.cache = None,
        }
    }

    /// Account for a release. Keeps the cache when the removed task cannot
    /// have been the binding minimum *and* `Amax` is unchanged; otherwise
    /// invalidates it (next evaluation is O(N)).
    ///
    /// Call *after* `live.remove(..)`; `live` is the post-release set.
    pub fn on_removed(&mut self, live: &LiveTaskSet<T>, removed: &Task<T>, device: &Fpga) {
        let Some(c) = self.cache else { return };
        if c.amax != live.amax() {
            self.cache = None;
            return;
        }
        let g = Self::g(self.area_bound(c.amax, device), removed);
        match c.min_g {
            // `removed` may have been the argmin (ties included): rebuild.
            Some(m) if g <= m => self.cache = None,
            Some(_) => {}
            None => self.cache = None,
        }
    }

    /// Drop the cached minimum; the next evaluation re-derives it from the
    /// live set.
    pub fn invalidate(&mut self) {
        self.cache = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::DpTest;
    use crate::traits::SchedTest;

    fn fpga10() -> Fpga {
        Fpga::new(10).unwrap()
    }

    fn t(c: f64, p: f64, a: u32) -> Task<f64> {
        Task::implicit(c, p, a).unwrap()
    }

    /// The incremental verdict must equal the offline DpTest on the same
    /// snapshot, across a scripted admit/release churn.
    #[test]
    fn matches_offline_dp_through_churn() {
        let dev = fpga10();
        let mut live = LiveTaskSet::new();
        let mut state: IncrementalState<f64> = IncrementalState::default();
        // Dyadic parameters: f64 sums are exact, so verdicts cannot be
        // flipped by accumulation order.
        let script = [(0.25, 4.0, 3), (0.5, 8.0, 9), (1.0, 4.0, 2), (0.75, 2.0, 5)];
        let mut handles = Vec::new();
        for &(c, p, a) in &script {
            let cand = t(c, p, a);
            let inc = state.evaluate_admit(&live, &cand, &dev);
            let offline =
                DpTest::default().is_schedulable(&live.snapshot_with(&cand).unwrap(), &dev);
            assert_eq!(inc.accepted, offline, "admit {cand:?}");
            if inc.accepted {
                handles.push(live.admit(cand));
                state.on_admitted(&live, &cand, &dev);
            }
        }
        assert!(!handles.is_empty());
        // Release everything one by one, re-checking the current verdict.
        while let Some(h) = handles.pop() {
            let removed = live.remove(h).unwrap();
            state.on_removed(&live, &removed, &dev);
            if !live.is_empty() {
                let inc = state.evaluate_current(&live, &dev);
                let offline = DpTest::default().is_schedulable(&live.snapshot().unwrap(), &dev);
                assert_eq!(inc.accepted, offline);
            }
        }
        assert!(state.evaluate_current(&live, &dev).accepted, "empty set accepts");
    }

    /// Second admission with unchanged Amax and warm cache takes the O(1)
    /// path; an Amax-raising candidate falls back to the O(N) rebuild.
    #[test]
    fn fast_path_hit_and_miss() {
        let dev = fpga10();
        let mut live = LiveTaskSet::new();
        let mut state: IncrementalState<f64> = IncrementalState::default();
        let a = t(0.5, 4.0, 5);
        assert!(!state.evaluate_admit(&live, &a, &dev).fast_path, "cold cache");
        live.admit(a);
        state.on_admitted(&live, &a, &dev);
        let b = t(0.5, 4.0, 3);
        assert!(state.evaluate_admit(&live, &b, &dev).fast_path, "same Amax, warm");
        let wide = t(0.5, 4.0, 8);
        assert!(!state.evaluate_admit(&live, &wide, &dev).fast_path, "Amax changes");
    }

    /// Removing a non-binding task keeps the cache; removing the binding
    /// task (or the Amax holder) invalidates it.
    #[test]
    fn removal_cache_retention() {
        let dev = fpga10();
        let mut live = LiveTaskSet::new();
        let mut state: IncrementalState<f64> = IncrementalState::default();
        // With Ak < Abnd, g_k = Abnd + UT_k·(Ak − Abnd) decreases in UT_k:
        // the heavy task binds the minimum and the light one does not.
        let heavy = t(4.0, 8.0, 2);
        let light = t(0.5, 8.0, 2);
        // Mirror the controller flow: evaluate (warming the cache), commit.
        assert!(state.evaluate_admit(&live, &heavy, &dev).accepted);
        let h_heavy = live.admit(heavy);
        state.on_admitted(&live, &heavy, &dev);
        assert!(state.evaluate_admit(&live, &light, &dev).accepted);
        let h_light = live.admit(light);
        state.on_admitted(&live, &light, &dev);

        // Remove the light task: Amax unchanged, minimum intact → warm.
        let removed = live.remove(h_light).unwrap();
        state.on_removed(&live, &removed, &dev);
        assert!(state.evaluate_current(&live, &dev).fast_path);

        // Remove the heavy (binding, Amax-holding) task → cold.
        let removed = live.remove(h_heavy).unwrap();
        state.on_removed(&live, &removed, &dev);
        assert!(!state.evaluate_current(&live, &dev).fast_path);
    }

    /// Table 1 admitted task-by-task: the second admission sits exactly on
    /// the DP bound, so the margin collapses to (numerically) zero — the
    /// knife-edge signal an admission cascade escalates on.
    #[test]
    fn table1_margin_is_knife_edge() {
        let dev = fpga10();
        let mut live = LiveTaskSet::new();
        let mut state: IncrementalState<f64> = IncrementalState::default();
        let first = t(1.26, 7.0, 9);
        live.admit(first);
        state.on_admitted(&live, &first, &dev);
        let second = t(0.95, 5.0, 6);
        let out = state.evaluate_admit(&live, &second, &dev);
        assert!(out.margin.abs() < 1e-9, "margin {} should be ~0", out.margin);
    }

    /// The state works in exact arithmetic: Table 1's equality is exact.
    #[test]
    fn exact_arithmetic_table1() {
        use fpga_rt_model::Rat64;
        let dev = fpga10();
        let mut live: LiveTaskSet<Rat64> = LiveTaskSet::new();
        let mut state: IncrementalState<Rat64> = IncrementalState::default();
        let first = Task::implicit(Rat64::new(63, 50).unwrap(), Rat64::from_int(7), 9).unwrap();
        live.admit(first);
        state.on_admitted(&live, &first, &dev);
        let second = Task::implicit(Rat64::new(19, 20).unwrap(), Rat64::from_int(5), 6).unwrap();
        let out = state.evaluate_admit(&live, &second, &dev);
        assert!(out.accepted, "exact equality satisfies the non-strict bound");
        assert_eq!(out.margin, Rat64::ZERO);
    }
}
