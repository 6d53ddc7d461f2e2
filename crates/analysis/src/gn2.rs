//! **Theorem 3 (GN2)** — BAK2-style busy-window test with λ-extension for
//! EDF-FkF (and, by Danne's dominance result, EDF-NF).
//!
//! A taskset Γ is schedulable under EDF-FkF on device H if for every task τk
//! there exists a `λ ≥ Ck/Tk` such that at least one of the following holds
//! (with `Abnd = A(H) − Amax + 1`, `λk = λ·max(1, Tk/Dk)`):
//!
//! ```text
//! (1)  Σ_{i=1..N} Ai · min(βλk(i), 1 − λk)  <  Abnd · (1 − λk)
//! (2)  Σ_{i=1..N} Ai · min(βλk(i), 1)       <  (Abnd − Amin)·(1 − λk) + Amin
//! ```
//!
//! where the per-task demand ratio over the extended busy window (Lemma 7) is
//!
//! ```text
//!            ⎧ max(ui, ui·(1 − Di/Dk) + Ci/Dk)   if ui ≤ λ
//! βλk(i) =   ⎨ λ                                  if ui > λ ∧ λ ≥ Ci/Di
//!            ⎩ ui + (Ci − λ·Di)/Dk               if ui > λ ∧ λ < Ci/Di
//! ```
//!
//! `Abnd` comes from Lemma 1 (EDF-FkF is *global*-α-work-conserving with
//! `α = 1 − (Amax − 1)/A(H)`): during any block-busy time at least
//! `A(H) − Amax + 1` columns are occupied. The λ-extension (Definition 5,
//! Lemmas 5–10) lengthens the analysis window downward to bound carry-in
//! demand, exactly as in Baker's multiprocessor analysis.
//!
//! ## Faithfulness notes (see `docs/THEORY.md`, "Theorem 3 — GN2")
//!
//! * **Condition 2 strictness.** The paper prints `≤`, but its Table 1
//!   ("rejected by GN2") only reproduces with a strict `<`: at
//!   `λ = C2/T2 = 0.19` both sides equal `69/25` *exactly* (verified in
//!   rational arithmetic). Default is strict; the printed non-strict form is
//!   [`Gn2Config::condition2_strict`]` = false`.
//! * **Case 2 of βλk.** The paper prints `Ck/Tk`; Baker's BAK2 uses `λ`.
//!   The case only fires for post-period deadlines (`Di > Ti`), which never
//!   occur in the paper's experiments. Default is Baker's `λ`
//!   ([`Gn2Case2::BakerLambda`]); the printed form is available for the
//!   ablation.
//! * **λ candidates.** Following the paper's §5 complexity remark, the
//!   search visits `λ ∈ {Ck/Tk} ∪ {Ci/Ti} ∪ {Ci/Di : Di > Ti}` (filtered to
//!   `λ ≥ Ck/Tk` and `λk ≤ 1`). A dense-grid search
//!   ([`Gn2LambdaSearch::Grid`]) is provided for the X2 ablation; when
//!   `Abnd < Amin` (spatially-heavy tasksets) the optimum can fall strictly
//!   between candidate points, and condition 2's right-hand side grows with
//!   λ, so the grid search accepts strictly more tasksets.
//!
//! ## Evaluation
//!
//! [`Gn2Test`] holds the configuration; both conditions — Lemma 7's `βλk`
//! included — are evaluated by the analysis kernel ([`crate::batch`]), in
//! `f64` or exactly. The kernel also builds what reports print: the
//! per-task rows of [`SchedTest::check`] and the Section-6 walkthrough's
//! [`Gn2Attempt`]s ([`Gn2Test::attempts_for_task`]).

use crate::batch::{self, exact, ArithmeticOverflow, Theorem};
use crate::report::TestReport;
use crate::traits::SchedTest;
use fpga_rt_model::{Fpga, Task, TaskSet, Time};
use serde::{Deserialize, Serialize};

/// Value of `βλk(i)` in the middle case (`ui > λ ∧ λ ≥ Ci/Di`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Gn2Case2 {
    /// `λ` — Baker's BAK2 value; sound (default).
    #[default]
    BakerLambda,
    /// `Ck/Tk` — the paper's printed value (likely a typo for λ; with the
    /// theorem's `λ ≥ Ck/Tk` constraint it is never larger than Baker's,
    /// i.e. never *more* pessimistic). Ablation only.
    PaperCkTk,
}

/// How λ candidates are enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Gn2LambdaSearch {
    /// The paper's discontinuity points:
    /// `{Ck/Tk} ∪ {Ci/Ti} ∪ {Ci/Di : Di > Ti}` (default).
    #[default]
    PaperPoints,
    /// The paper points plus `points` evenly spaced values of λk in
    /// `[Ck/Tk·max(1,Tk/Dk), 1]`; strictly enlarges the acceptance region
    /// when `Abnd < Amin` (ablation X2).
    Grid {
        /// Number of additional evenly spaced candidates.
        points: usize,
    },
}

/// Configuration for [`Gn2Test`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gn2Config {
    /// See [`Gn2Case2`].
    pub case2: Gn2Case2,
    /// Evaluate condition 2 with strict `<` (default `true`; the paper
    /// prints `≤` but its Table 1 requires `<` — see module docs).
    pub condition2_strict: bool,
    /// See [`Gn2LambdaSearch`].
    pub lambda_search: Gn2LambdaSearch,
}

impl Default for Gn2Config {
    fn default() -> Self {
        Gn2Config {
            case2: Gn2Case2::BakerLambda,
            condition2_strict: true,
            lambda_search: Gn2LambdaSearch::PaperPoints,
        }
    }
}

/// Theorem 3 of the paper. See the [module docs](self) for the formulas.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gn2Test {
    config: Gn2Config,
}

/// One evaluated λ candidate for one task τk — the raw material of the
/// paper's Section-6 GN2 walkthrough. All fields are reported in `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gn2Attempt {
    /// The candidate λ.
    pub lambda: f64,
    /// `λk = λ·max(1, Tk/Dk)`.
    pub lambda_k: f64,
    /// LHS of condition 1.
    pub lhs1: f64,
    /// RHS of condition 1 (`Abnd·(1 − λk)`).
    pub rhs1: f64,
    /// Whether condition 1 held.
    pub cond1: bool,
    /// LHS of condition 2.
    pub lhs2: f64,
    /// RHS of condition 2 (`(Abnd − Amin)(1 − λk) + Amin`).
    pub rhs2: f64,
    /// Whether condition 2 held.
    pub cond2: bool,
    /// The βλk(i) values for every task, in task order.
    pub betas: Vec<f64>,
}

impl Gn2Test {
    /// Test with the given configuration.
    pub fn new(config: Gn2Config) -> Self {
        Gn2Test { config }
    }

    /// The paper's printed form: non-strict condition 2 and `Ck/Tk` in βλk
    /// case 2. Used by the ablation study.
    pub fn paper_literal() -> Self {
        Gn2Test::new(Gn2Config {
            case2: Gn2Case2::PaperCkTk,
            condition2_strict: false,
            lambda_search: Gn2LambdaSearch::PaperPoints,
        })
    }

    /// Paper points plus a dense λ grid (ablation X2).
    pub fn with_grid_search(points: usize) -> Self {
        Gn2Test::new(Gn2Config {
            lambda_search: Gn2LambdaSearch::Grid { points },
            ..Gn2Config::default()
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> Gn2Config {
        self.config
    }

    /// `βλk(i)` — the per-task demand ratio of `τi` over `τk`'s λ-extended
    /// busy window (Lemma 7, see the module docs), with the configured
    /// case-2 value.
    pub fn beta_lambda<T: Time>(&self, ti: &Task<T>, tk: &Task<T>, lambda: T) -> T {
        exact(batch::beta_lambda(ti, tk, lambda, self.config.case2))
    }

    /// The λ candidates examined for task `k`, sorted ascending and
    /// deduplicated: discontinuity points of `βλk` plus grid points when
    /// configured, filtered to `λ ≥ Ck/Tk` and `λk ≤ 1`.
    pub fn lambda_candidates<T: Time>(&self, taskset: &TaskSet<T>, k: usize) -> Vec<T> {
        exact(batch::gn2_candidates(&self.config, taskset, k))
    }

    /// Evaluate both conditions of Theorem 3 for task `k` at one λ,
    /// returning the full [`Gn2Attempt`] (λk, both sides of both
    /// inequalities, all βλk values). Task `k` passes at this λ when either
    /// condition holds.
    pub fn evaluate_lambda<T: Time>(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
        k: usize,
        lambda: T,
    ) -> Gn2Attempt {
        let mut attempts =
            exact(batch::gn2_attempts(&self.config, taskset, device, k, Some(&[lambda])));
        attempts.pop().expect("one attempt per λ")
    }

    /// All attempts for task `k`, in candidate order — used by the
    /// experiment harness to print the paper's worked examples.
    pub fn attempts_for_task<T: Time>(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
        k: usize,
    ) -> Vec<Gn2Attempt> {
        exact(batch::gn2_attempts(&self.config, taskset, device, k, None))
    }
}

impl<T: Time> SchedTest<T> for Gn2Test {
    fn name(&self) -> &str {
        match (self.config.lambda_search, self.config.condition2_strict) {
            (Gn2LambdaSearch::Grid { .. }, _) => "GN2-grid",
            (Gn2LambdaSearch::PaperPoints, true) => "GN2",
            (Gn2LambdaSearch::PaperPoints, false) => "GN2-nonstrict",
        }
    }

    fn try_check(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
    ) -> Result<TestReport, ArithmeticOverflow> {
        batch::report(Theorem::Gn2(self.config), SchedTest::<T>::name(self), taskset, device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_rt_model::{Rat64, TaskId};

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

    fn table1_exact() -> TaskSet<Rat64> {
        let r = |n, d| Rat64::new(n, d).unwrap();
        TaskSet::try_from_tuples(&[
            (r(126, 100), r(7, 1), r(7, 1), 9),
            (r(95, 100), r(5, 1), r(5, 1), 6),
        ])
        .unwrap()
    }

    #[test]
    fn beta_values_match_paper_table3() {
        // k=1, λ = C1/T1 = 0.42: βλ1(1) = 0.42, βλ1(2) = 2/7 ≈ 0.2857
        // (the paper rounds to 0.29).
        let ts = table3();
        let test = Gn2Test::default();
        let b11 = test.beta_lambda(ts.task(0), ts.task(0), 0.42);
        let b12 = test.beta_lambda(ts.task(1), ts.task(0), 0.42);
        assert!((b11 - 0.42).abs() < 1e-12);
        assert!((b12 - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn table3_accepted_via_condition2() {
        let ts = table3();
        let rep = Gn2Test::default().check(&ts, &fpga10());
        assert!(rep.accepted(), "{}", rep.summarize());
        // Reproduce the §6 numbers: at λ = C1/T1, RHS₂ = 5.26, LHS₂ ≈ 4.94.
        let attempts = Gn2Test::default().attempts_for_task(&ts, &fpga10(), 0);
        let a = attempts
            .iter()
            .find(|a| (a.lambda - 0.42).abs() < 1e-12)
            .expect("λ = C1/T1 must be a candidate");
        assert!((a.rhs2 - 5.26).abs() < 1e-9, "paper: 5.26, got {}", a.rhs2);
        assert!((a.lhs2 - 4.94).abs() < 1e-9, "exact value 4.94 (paper rounds to 4.97)");
        assert!(a.cond2);
        assert!(!a.cond1, "cond1 fails: 4.94 ≥ 4·0.58 = 2.32");
    }

    #[test]
    fn table1_rejected_default_strict() {
        let rep = Gn2Test::default().check(&table1(), &fpga10());
        assert!(!rep.accepted(), "{}", rep.summarize());
    }

    /// In exact arithmetic the Table 1 condition-2 comparison is an exact
    /// equality (69/25 on both sides at λ = C2/T2), so the strict test
    /// rejects and the paper's printed non-strict test accepts. This is the
    /// knife edge documented in `docs/THEORY.md` ("Theorem 3 — GN2").
    #[test]
    fn table1_knife_edge_exact() {
        let ts = table1_exact();
        let strict = Gn2Test::default();
        assert!(!strict.is_schedulable(&ts, &fpga10()));

        let nonstrict =
            Gn2Test::new(Gn2Config { condition2_strict: false, ..Gn2Config::default() });
        assert!(nonstrict.is_schedulable(&ts, &fpga10()));

        // Exhibit the equality itself.
        let attempts = nonstrict.attempts_for_task(&ts, &fpga10(), 0);
        let at = attempts.iter().find(|a| (a.lambda - 0.19).abs() < 1e-12).unwrap();
        assert_eq!(at.lhs2, at.rhs2, "both sides are exactly 69/25 = 2.76");
    }

    #[test]
    fn table2_rejected() {
        let rep = Gn2Test::default().check(&table2(), &fpga10());
        assert!(!rep.accepted());
        assert_eq!(rep.failing_task(), Some(TaskId(0)));
    }

    #[test]
    fn table3_accepted_exact() {
        let r = |n, d| Rat64::new(n, d).unwrap();
        let ts: TaskSet<Rat64> = TaskSet::try_from_tuples(&[
            (r(21, 10), r(5, 1), r(5, 1), 7),
            (r(2, 1), r(7, 1), r(7, 1), 7),
        ])
        .unwrap();
        assert!(Gn2Test::default().is_schedulable(&ts, &fpga10()));
    }

    #[test]
    fn candidates_are_sorted_filtered_and_deduped() {
        let ts = table3();
        let test = Gn2Test::default();
        // k=0: uk = 0.42; candidates {0.42, 2/7} → only 0.42 survives λ ≥ uk.
        let c = test.lambda_candidates(&ts, 0);
        assert_eq!(c.len(), 1);
        assert!((c[0] - 0.42).abs() < 1e-12);
        // k=1: uk = 2/7; both survive, sorted.
        let c = test.lambda_candidates(&ts, 1);
        assert_eq!(c.len(), 2);
        assert!(c[0] < c[1]);
        assert!((c[0] - 2.0 / 7.0).abs() < 1e-12);
        assert!((c[1] - 0.42).abs() < 1e-12);
    }

    #[test]
    fn grid_search_accepts_at_least_paper_points() {
        let dev = fpga10();
        for ts in [table1(), table2(), table3()] {
            let paper = Gn2Test::default();
            let grid = Gn2Test::with_grid_search(64);
            if paper.is_schedulable(&ts, &dev) {
                assert!(grid.is_schedulable(&ts, &dev));
            }
        }
    }

    /// When Abnd < Amin (spatially heavy tasksets) the condition-2 RHS grows
    /// with λ, so the grid search can accept where the paper points reject —
    /// Table 1 is exactly such a case (Abnd = 2, Amin = 6).
    #[test]
    fn grid_search_is_strictly_stronger_on_table1() {
        let dev = fpga10();
        let ts = table1();
        assert!(!Gn2Test::default().is_schedulable(&ts, &dev));
        assert!(Gn2Test::with_grid_search(256).is_schedulable(&ts, &dev));
    }

    #[test]
    fn beta_case3_applies_for_heavy_interferer() {
        // Table 2, k=1, λ = u1 = 0.5625: u2 = 8/9 > λ, λ < C2/D2 = 8/9 →
        // case 3: β = 8/9 + (8 − 0.5625·9)/8 = 1.2561...
        let ts = table2();
        let test = Gn2Test::default();
        let b = test.beta_lambda(ts.task(1), ts.task(0), 0.5625);
        assert!((b - (8.0 / 9.0 + (8.0 - 0.5625 * 9.0) / 8.0)).abs() < 1e-12);
    }

    #[test]
    fn beta_case2_uses_configured_value() {
        // Construct Di > Ti so case 2 can fire: τi = (C=4, D=8, T=5) → ui = 0.8,
        // Ci/Di = 0.5. λ = 0.6 ∈ [0.5, 0.8).
        let ts: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(4.0, 8.0, 5.0, 2), (1.0, 10.0, 10.0, 2)]).unwrap();
        let baker = Gn2Test::default();
        let paper = Gn2Test::new(Gn2Config { case2: Gn2Case2::PaperCkTk, ..Gn2Config::default() });
        let ti = ts.task(0);
        let tk = ts.task(1); // Ck/Tk = 0.1
        assert_eq!(baker.beta_lambda(ti, tk, 0.6), 0.6);
        assert_eq!(paper.beta_lambda(ti, tk, 0.6), 0.1);
    }

    #[test]
    fn single_task_accepted_when_it_fits() {
        let ts: TaskSet<f64> = TaskSet::try_from_tuples(&[(2.0, 5.0, 5.0, 10)]).unwrap();
        assert!(Gn2Test::default().is_schedulable(&ts, &fpga10()));
    }

    #[test]
    fn names() {
        assert_eq!(SchedTest::<f64>::name(&Gn2Test::default()), "GN2");
        assert_eq!(SchedTest::<f64>::name(&Gn2Test::paper_literal()), "GN2-nonstrict");
        assert_eq!(SchedTest::<f64>::name(&Gn2Test::with_grid_search(8)), "GN2-grid");
    }
}
