//! **Theorem 1 (DP)** — the Danne–Platzner utilization bound with the
//! paper's integer-area correction.
//!
//! A periodic taskset Γ is feasibly scheduled by EDF-FkF on a device H with
//! `A(H) ≥ Amax` if for every task τk:
//!
//! ```text
//! US(Γ) ≤ (A(H) − Amax + 1) · (1 − UT(τk)) + US(τk)
//! ```
//!
//! The `+ 1` is the paper's Lemma 1 sharpening: with integer column counts,
//! an idle gap of `Amax − 1` columns is the largest that can block every
//! waiting job, so in overload at least `A(H) − Amax + 1` columns are busy.
//! Danne & Platzner's original real-valued formulation uses
//! `A(H) − Amax`; it is available as [`DpAreaBound::RealValued`] for the
//! ablation study (experiment X3, `docs/THEORY.md` "Theorem 1 — DP").
//!
//! With unit areas and `A(H) = m` the corrected bound collapses exactly to
//! the Goossens–Funk–Baruah (GFB) multiprocessor bound
//! `UT(Γ) ≤ m(1 − umax) + umax` — see [`crate::mp::GfbTest`] and the
//! `mp_reduction` integration tests.
//!
//! [`DpTest`]'s reports come from the analysis kernel ([`crate::batch`]).
//! An online admission controller asks the same question of a mutating
//! [`LiveTaskSet`]: [`DpTest::live_slack`] folds the bound's capacities over
//! `Γ ∪ {candidate}` (or `Γ`) straight from the live set, in canonical order.

use crate::batch::{self, exact, ArithmeticOverflow, Theorem};
use crate::report::TestReport;
use crate::traits::SchedTest;
use fpga_rt_model::{Fpga, LiveTaskSet, Task, TaskSet, Time};
use serde::{Deserialize, Serialize};

/// Which area bound the DP test uses in overload situations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DpAreaBound {
    /// `A(H) − Amax + 1` — the paper's integer-column correction (default).
    #[default]
    IntegerColumns,
    /// `A(H) − Amax` — Danne & Platzner's original real-valued bound
    /// (strictly more pessimistic; ablation only).
    RealValued,
}

/// Configuration for [`DpTest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DpConfig {
    /// Area bound variant; see [`DpAreaBound`].
    pub area_bound: DpAreaBound,
}

/// Theorem 1 of the paper. See the [module docs](self) for the formula.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpTest {
    config: DpConfig,
}

/// Theorem 1's verdict on a live set ([`DpTest::live_slack`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpSlack<T> {
    /// Whether `US ≤ min_k g_k` holds for the evaluated set.
    pub accepted: bool,
    /// Signed slack of the binding comparison, `min_k g_k − US`:
    /// non-negative on acceptance, negative on rejection, and close to zero
    /// on knife-edge verdicts that deserve an exact re-check. The empty set
    /// has no comparison; its slack is the busy-area bound at `Amax = 0`
    /// (`A(H) + 1` by default).
    pub margin: T,
    /// `US` of the evaluated set, folded in canonical order.
    pub us: T,
}

/// Per-task capacity `g_k = Abnd·(1 − UT(τk)) + US(τk)`, the right-hand
/// side of task k's inequality, from `UT(τk)` and `US(τk)`; shared by the
/// kernel and [`DpTest::live_slack`].
pub(crate) fn capacity<T: Time>(abnd: T, ut: T, us: T) -> Option<T> {
    abnd.checked_mul(T::ONE.checked_sub(ut)?)?.checked_add(us)
}

/// The busy-area bound `A(H) − Amax (+ 1)` as a [`Time`] value.
pub(crate) fn area_bound<T: Time>(config: DpConfig, amax: u32, columns: u32) -> T {
    let base = i64::from(columns) - i64::from(amax);
    match config.area_bound {
        DpAreaBound::IntegerColumns => T::from_i64(base + 1),
        DpAreaBound::RealValued => T::from_i64(base),
    }
}

impl DpTest {
    /// Test with the given configuration.
    pub fn new(config: DpConfig) -> Self {
        DpTest { config }
    }

    /// Danne & Platzner's original bound (`A(H) − Amax`), for ablations.
    pub fn original_danne() -> Self {
        DpTest::new(DpConfig { area_bound: DpAreaBound::RealValued })
    }

    /// The configuration in use.
    pub fn config(&self) -> DpConfig {
        self.config
    }

    /// The bound on `Γ ∪ {candidate}`, or on `Γ` when `candidate` is
    /// `None`, evaluated from a live set without a snapshot: O(N) per call.
    ///
    /// `US` is the live set's canonical-order fold
    /// ([`LiveTaskSet::system_utilization_with`] for a candidate,
    /// [`LiveTaskSet::system_utilization`] otherwise), so the slack is a
    /// pure function of the evaluated multiset. The empty set accepts with
    /// the full busy-area bound as its slack.
    ///
    /// Like [`SchedTest::check`] after its guard, this assumes every task
    /// fits the device and has `C ≤ D`; an admission controller checks both
    /// before consulting the bound. Exact arithmetic that overflows panics,
    /// as [`SchedTest::check`] does.
    pub fn live_slack<T: Time>(
        &self,
        live: &LiveTaskSet<T>,
        candidate: Option<&Task<T>>,
        device: &Fpga,
    ) -> DpSlack<T> {
        let amax = live.amax().max(candidate.map_or(0, Task::area));
        let abnd: T = area_bound(self.config, amax, device.columns());
        let us = match candidate {
            Some(task) => live.system_utilization_with(task),
            None => live.system_utilization(),
        };
        let min_g = live
            .iter()
            .map(|(_, t)| t)
            .chain(candidate)
            .map(|t| exact(capacity(abnd, t.time_utilization(), t.system_utilization())))
            .reduce(T::min_t);
        match min_g {
            Some(min_g) => DpSlack { accepted: us <= min_g, margin: min_g - us, us },
            None => DpSlack { accepted: true, margin: abnd, us },
        }
    }
}

impl<T: Time> SchedTest<T> for DpTest {
    fn name(&self) -> &str {
        match self.config.area_bound {
            DpAreaBound::IntegerColumns => "DP",
            DpAreaBound::RealValued => "DP-real",
        }
    }

    fn try_check(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
    ) -> Result<TestReport, ArithmeticOverflow> {
        batch::report(Theorem::Dp(self.config), SchedTest::<T>::name(self), taskset, device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_rt_model::Rat64;

    fn fpga10() -> Fpga {
        Fpga::new(10).unwrap()
    }

    /// Table 1: accepted by DP (the condition for k=2 holds with equality:
    /// US(Γ) = 2.76 = (10−9+1)(1−0.19) + 1.14).
    #[test]
    fn table1_accepted() {
        let ts: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(1.26, 7.0, 7.0, 9), (0.95, 5.0, 5.0, 6)]).unwrap();
        let rep = DpTest::default().check(&ts, &fpga10());
        assert!(rep.accepted(), "{}", rep.summarize());
    }

    /// The same taskset in exact arithmetic: the k=2 equality is exact, so
    /// the non-strict `≤` must accept.
    #[test]
    fn table1_accepted_exact() {
        let r = |n, d| Rat64::new(n, d).unwrap();
        let ts: TaskSet<Rat64> = TaskSet::try_from_tuples(&[
            (r(126, 100), r(7, 1), r(7, 1), 9),
            (r(95, 100), r(5, 1), r(5, 1), 6),
        ])
        .unwrap();
        assert!(DpTest::default().is_schedulable(&ts, &fpga10()));
    }

    /// Table 2: rejected by DP.
    #[test]
    fn table2_rejected() {
        let ts: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(4.50, 8.0, 8.0, 3), (8.00, 9.0, 9.0, 5)]).unwrap();
        let rep = DpTest::default().check(&ts, &fpga10());
        assert!(!rep.accepted());
    }

    /// Table 3: rejected by DP, failing at k=2 with the paper's margin
    /// (4.857 < 4.94).
    #[test]
    fn table3_rejected_at_k2_with_paper_margin() {
        let ts: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(2.10, 5.0, 5.0, 7), (2.00, 7.0, 7.0, 7)]).unwrap();
        let rep = DpTest::default().check(&ts, &fpga10());
        assert!(!rep.accepted());
        assert_eq!(rep.failing_task(), Some(fpga_rt_model::TaskId(1)));
        let failing = rep.checks.last().unwrap();
        assert!((failing.lhs - 4.94).abs() < 1e-9, "US(Γ) = 4.94");
        assert!((failing.rhs - (20.0 / 7.0 + 2.0)).abs() < 1e-9, "bound = 4.857");
    }

    /// The integer correction strictly dominates the real-valued original:
    /// anything the original accepts, the corrected test accepts.
    #[test]
    fn integer_bound_dominates_real_bound() {
        let ts: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(1.26, 7.0, 7.0, 9), (0.95, 5.0, 5.0, 6)]).unwrap();
        let dev = fpga10();
        let original = DpTest::original_danne();
        let corrected = DpTest::default();
        if original.is_schedulable(&ts, &dev) {
            assert!(corrected.is_schedulable(&ts, &dev));
        }
        // And on Table 1 they genuinely differ: the original rejects.
        assert!(!original.is_schedulable(&ts, &dev));
        assert!(corrected.is_schedulable(&ts, &dev));
    }

    #[test]
    fn rejects_wide_task_up_front() {
        let ts: TaskSet<f64> = TaskSet::try_from_tuples(&[(1.0, 5.0, 5.0, 11)]).unwrap();
        assert!(!DpTest::default().is_schedulable(&ts, &fpga10()));
    }

    #[test]
    fn single_light_task_accepted() {
        let ts: TaskSet<f64> = TaskSet::try_from_tuples(&[(1.0, 10.0, 10.0, 3)]).unwrap();
        let rep = DpTest::default().check(&ts, &fpga10());
        assert!(rep.accepted(), "{}", rep.summarize());
        assert_eq!(rep.checks.len(), 1);
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(SchedTest::<f64>::name(&DpTest::default()), "DP");
        assert_eq!(SchedTest::<f64>::name(&DpTest::original_danne()), "DP-real");
    }

    fn t(c: f64, p: f64, a: u32) -> Task<f64> {
        Task::implicit(c, p, a).unwrap()
    }

    /// The live-set verdict equals the offline check on the same snapshot,
    /// across a scripted admit/release churn.
    #[test]
    fn live_slack_matches_offline_dp_through_churn() {
        let dev = fpga10();
        let dp = DpTest::default();
        let mut live = LiveTaskSet::new();
        // Dyadic parameters: f64 sums are exact, so verdicts cannot be
        // flipped by accumulation order.
        let script = [(0.25, 4.0, 3), (0.5, 8.0, 9), (1.0, 4.0, 2), (0.75, 2.0, 5)];
        let mut handles = Vec::new();
        for &(c, p, a) in &script {
            let cand = t(c, p, a);
            let slack = dp.live_slack(&live, Some(&cand), &dev);
            let offline = dp.is_schedulable(&live.snapshot_with(&cand).unwrap(), &dev);
            assert_eq!(slack.accepted, offline, "admit {cand:?}");
            if slack.accepted {
                handles.push(live.admit(cand));
            }
        }
        assert!(!handles.is_empty());
        // Release everything one by one, re-checking the current verdict.
        while let Some(h) = handles.pop() {
            live.remove(h).unwrap();
            if !live.is_empty() {
                let offline = dp.is_schedulable(&live.snapshot().unwrap(), &dev);
                assert_eq!(dp.live_slack(&live, None, &dev).accepted, offline);
            }
        }
        // The empty set accepts with the whole busy-area bound, A(H) + 1.
        let empty = dp.live_slack(&live, None, &dev);
        assert!(empty.accepted, "empty set accepts");
        assert_eq!(empty.margin, 11.0);
    }

    /// Table 1 admitted task-by-task: the second admission sits exactly on
    /// the DP bound, so the margin collapses to (numerically) zero — the
    /// knife-edge signal an admission cascade escalates on.
    #[test]
    fn table1_live_margin_is_knife_edge() {
        let dev = fpga10();
        let mut live = LiveTaskSet::new();
        live.admit(t(1.26, 7.0, 9));
        let out = DpTest::default().live_slack(&live, Some(&t(0.95, 5.0, 6)), &dev);
        assert!(out.margin.abs() < 1e-9, "margin {} should be ~0", out.margin);
    }

    /// In exact arithmetic Table 1's equality is exact on the live set too.
    #[test]
    fn table1_live_slack_exact() {
        let dev = fpga10();
        let mut live: LiveTaskSet<Rat64> = LiveTaskSet::new();
        live.admit(Task::implicit(Rat64::new(63, 50).unwrap(), Rat64::from_int(7), 9).unwrap());
        let second = Task::implicit(Rat64::new(19, 20).unwrap(), Rat64::from_int(5), 6).unwrap();
        let out = DpTest::default().live_slack(&live, Some(&second), &dev);
        assert!(out.accepted, "exact equality satisfies the non-strict bound");
        assert_eq!(out.margin, Rat64::ZERO);
    }
}
