//! **Theorem 2 (GN1)** — BCL-style interference bound test for EDF-NF.
//!
//! A taskset Γ is schedulable under EDF-NF on device H if for every τk:
//!
//! ```text
//! Σ_{i≠k} Ai · min(βi, 1 − Ck/Dk)  <  (A(H) − Ak + 1) · (1 − Ck/Dk)
//!
//! βi = ( Ni·Ci + min(Ci, max(Dk − Ni·Ti, 0)) ) / Di
//! Ni = ⌊(Dk − Di)/Ti⌋ + 1        (clamped at 0)
//! ```
//!
//! The per-task bound `A(H) − Ak + 1` comes from Lemma 2: EDF-NF is
//! *interval*-α-work-conserving with `α = 1 − (Ak − 1)/A(H)` — while a job
//! of τk waits, EDF-NF skips it and packs later-deadline jobs, so at least
//! `A(H) − Ak + 1` columns stay busy.
//!
//! ## Faithfulness notes (see `docs/THEORY.md`, "Theorem 2 — GN1")
//!
//! * The theorem as printed in the paper shows `(A(H) − Ak)` on the
//!   right-hand side, but Lemma 3 and the Section-6 worked example
//!   (`(A(H) − A2 + 1)(1 − C2/D2) = 20/7` for Table 3) both use
//!   `A(H) − Ak + 1`; we default to the `+ 1` form and expose the printed
//!   form via [`Gn1Config::rhs_plus_one`].
//! * The paper divides the workload bound by `Di` (confirmed by the worked
//!   example `β1 = 4.1/5` where `Dk = 7, D1 = 5`), whereas the BCL ancestor
//!   divides by `Dk`. The BCL-faithful denominator is available via
//!   [`Gn1BetaDenominator::WindowDk`] for the ablation study (X1).
//!
//! ## Evaluation
//!
//! [`Gn1Test`] holds the configuration; the inequality — Lemma 4's `Wi`
//! included — is evaluated by the analysis kernel ([`crate::batch`]), in
//! `f64` or exactly, which also writes the report's per-task rows.

use crate::batch::{self, ArithmeticOverflow, Theorem};
use crate::report::TestReport;
use crate::traits::SchedTest;
use fpga_rt_model::{Fpga, TaskSet, Time};
use serde::{Deserialize, Serialize};

/// Denominator used when converting the interference workload `Wi` into the
/// utilization-like ratio `βi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Gn1BetaDenominator {
    /// `βi = Wi / Di` — the paper's printed formula, confirmed by its worked
    /// example (default).
    #[default]
    InterferingDi,
    /// `βi = Wi / Dk` — the BCL-faithful window-length denominator
    /// (ablation X1). Less pessimistic whenever `Di < Dk`.
    WindowDk,
}

/// Configuration for [`Gn1Test`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Gn1Config {
    /// Use `A(H) − Ak + 1` (true, default — matches Lemma 3 and the worked
    /// example) or the theorem's printed `A(H) − Ak` (false).
    pub rhs_plus_one: bool,
    /// See [`Gn1BetaDenominator`].
    pub beta_denominator: Gn1BetaDenominator,
}

impl Default for Gn1Config {
    fn default() -> Self {
        Gn1Config { rhs_plus_one: true, beta_denominator: Gn1BetaDenominator::InterferingDi }
    }
}

/// Theorem 2 of the paper. See the [module docs](self) for the formula.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gn1Test {
    config: Gn1Config,
}

impl Gn1Test {
    /// Test with the given configuration.
    pub fn new(config: Gn1Config) -> Self {
        Gn1Test { config }
    }

    /// BCL-faithful variant (`βi = Wi/Dk`), for the X1 ablation.
    pub fn bcl_faithful() -> Self {
        Gn1Test::new(Gn1Config {
            beta_denominator: Gn1BetaDenominator::WindowDk,
            ..Gn1Config::default()
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> Gn1Config {
        self.config
    }
}

impl<T: Time> SchedTest<T> for Gn1Test {
    fn name(&self) -> &str {
        match self.config.beta_denominator {
            Gn1BetaDenominator::InterferingDi => "GN1",
            Gn1BetaDenominator::WindowDk => "GN1-bcl",
        }
    }

    fn try_check(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
    ) -> Result<TestReport, ArithmeticOverflow> {
        batch::report(Theorem::Gn1(self.config), SchedTest::<T>::name(self), taskset, device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_rt_model::TaskId;

    fn fpga10() -> Fpga {
        Fpga::new(10).unwrap()
    }

    fn table1() -> TaskSet<f64> {
        TaskSet::try_from_tuples(&[(1.26, 7.0, 7.0, 9), (0.95, 5.0, 5.0, 6)]).unwrap()
    }
    fn table2() -> TaskSet<f64> {
        TaskSet::try_from_tuples(&[(4.50, 8.0, 8.0, 3), (8.00, 9.0, 9.0, 5)]).unwrap()
    }
    fn table3() -> TaskSet<f64> {
        TaskSet::try_from_tuples(&[(2.10, 5.0, 5.0, 7), (2.00, 7.0, 7.0, 7)]).unwrap()
    }

    /// Lemma 4's `Wi` for τi in task k's window, from the kernel.
    fn time_work(ts: &TaskSet<f64>, i: usize, dk: f64) -> f64 {
        let t = ts.task(i);
        crate::batch::time_work_bound(t.exec(), t.deadline(), t.period(), dk).unwrap()
    }

    #[test]
    fn job_count_matches_paper() {
        // Table 3, k=2: N1 = ⌊(7−5)/5⌋ + 1 = 1, plus a carry-in of 2.
        assert!((time_work(&table3(), 0, 7.0) - (2.1 + 2.0)).abs() < 1e-12);
        // Table 2, k=1: N2 = ⌊(8−9)/9⌋ + 1 = 0 (clamped computation), so
        // the whole window is carry-in: W2 = min(8, 8 − 0) = 8.
        assert_eq!(time_work(&table2(), 1, 8.0), 8.0);
    }

    #[test]
    fn time_work_matches_paper_table3() {
        // Table 3, k=2: W1 = 1·2.1 + min(2.1, max(7−5, 0)) = 4.1 → β1 = 4.1/5.
        let w = time_work(&table3(), 0, 7.0);
        assert!((w - 4.1).abs() < 1e-12);
    }

    #[test]
    fn table1_rejected() {
        // k=1: β2 = 1.9/5 = 0.38; LHS = 6·0.38 = 2.28 ≥ 2·0.82 = 1.64.
        let rep = Gn1Test::default().check(&table1(), &fpga10());
        assert!(!rep.accepted());
        assert_eq!(rep.failing_task(), Some(TaskId(0)));
        let row = rep.checks.last().unwrap();
        assert!((row.lhs - 2.28).abs() < 1e-9);
        assert!((row.rhs - 1.64).abs() < 1e-9);
    }

    #[test]
    fn table2_accepted() {
        let rep = Gn1Test::default().check(&table2(), &fpga10());
        assert!(rep.accepted(), "{}", rep.summarize());
        // k=1: LHS = 5·min(8/9, 0.4375) = 2.1875 < 8·0.4375 = 3.5.
        assert!((rep.checks[0].lhs - 2.1875).abs() < 1e-9);
        assert!((rep.checks[0].rhs - 3.5).abs() < 1e-9);
    }

    #[test]
    fn table3_rejected_with_paper_margins() {
        // k=2: LHS = 7·min(0.82, 5/7) = 5 ≥ 4·(5/7) = 20/7.
        let rep = Gn1Test::default().check(&table3(), &fpga10());
        assert!(!rep.accepted());
        assert_eq!(rep.failing_task(), Some(TaskId(1)));
        let row = rep.checks.last().unwrap();
        assert!((row.lhs - 5.0).abs() < 1e-9);
        assert!((row.rhs - 20.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn printed_rhs_variant_is_more_pessimistic() {
        let printed = Gn1Test::new(Gn1Config { rhs_plus_one: false, ..Gn1Config::default() });
        let default = Gn1Test::default();
        let dev = fpga10();
        for ts in [table1(), table2(), table3()] {
            if printed.is_schedulable(&ts, &dev) {
                assert!(default.is_schedulable(&ts, &dev));
            }
        }
    }

    #[test]
    fn beta_denominators_differ_as_specified() {
        // The two denominators produce genuinely different β values; on the
        // paper's Table 3, τ1 interfering with τ2 gives β = 4.1/5 (paper,
        // Di = 5) vs 4.1/7 (BCL, Dk = 7). Neither variant dominates in
        // general: Wi/Dk is smaller when Di < Dk and larger when Di > Dk.
        let w = time_work(&table3(), 0, 7.0);
        assert!((w / 5.0 - 0.82).abs() < 1e-12, "paper β with Di");
        assert!((w / 7.0 - 4.1 / 7.0).abs() < 1e-12, "BCL β with Dk");
        // The choice is consequential: on Table 1 the paper's Di
        // denominator rejects (β2 = 1.9/5 = 0.38 → LHS 2.28 ≥ 1.64) while
        // the BCL Dk denominator accepts (β2 = 1.9/7 ≈ 0.271 → LHS ≈ 1.63
        // < 1.64). Reproducing the paper's Table 1 "rejected by GN1"
        // verdict therefore *requires* the Di reading.
        let dev = fpga10();
        assert!(!Gn1Test::default().is_schedulable(&table1(), &dev));
        assert!(Gn1Test::bcl_faithful().is_schedulable(&table1(), &dev));
        for ts in [table2(), table3()] {
            assert_eq!(
                Gn1Test::default().is_schedulable(&ts, &dev),
                Gn1Test::bcl_faithful().is_schedulable(&ts, &dev)
            );
        }
    }

    #[test]
    fn single_task_with_slack_accepted() {
        let ts: TaskSet<f64> = TaskSet::try_from_tuples(&[(4.0, 5.0, 5.0, 10)]).unwrap();
        assert!(Gn1Test::default().is_schedulable(&ts, &fpga10()));
    }

    #[test]
    fn zero_slack_task_rejected_conservatively() {
        // C = D leaves zero slack; the strict inequality cannot hold.
        let ts: TaskSet<f64> = TaskSet::try_from_tuples(&[(5.0, 5.0, 5.0, 1)]).unwrap();
        assert!(!Gn1Test::default().is_schedulable(&ts, &fpga10()));
    }

    #[test]
    fn names() {
        assert_eq!(SchedTest::<f64>::name(&Gn1Test::default()), "GN1");
        assert_eq!(SchedTest::<f64>::name(&Gn1Test::bcl_faithful()), "GN1-bcl");
    }
}
