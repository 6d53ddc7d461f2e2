//! The scalar reference for the analysis kernel (`fpga_rt_analysis::batch`).
//!
//! [`RefDp`], [`RefGn1`] and [`RefGn2`] evaluate Theorems 1–3 with their
//! own arithmetic — straight-line code over [`Task`]s with the panicking
//! `Time` operators, one formula per line, in the operation order the
//! kernel must keep — so that the kernel is always compared against an
//! independent copy of the paper's formulas: bit for bit in `f64`, row for
//! row in `Rat64`. They print the same rows, notes and reasons as the
//! tests' reports.

#![allow(dead_code)]

use fpga_rt_analysis::{
    ArithmeticOverflow, DpAreaBound, DpConfig, Gn1BetaDenominator, Gn1Config, Gn2Attempt, Gn2Case2,
    Gn2Config, Gn2LambdaSearch, SchedTest, TaskCheck, TestReport, Verdict,
};
use fpga_rt_model::{Fpga, Task, TaskId, TaskSet, Time};

/// The scalar report of a reference test; its `SchedTest::try_check` wraps
/// it, as exact overflow panics inside the panicking `Time` operators.
trait ScalarCheck<T: Time> {
    fn scalar_check(&self, taskset: &TaskSet<T>, device: &Fpga) -> TestReport;
}

/// The tests' shared precondition guard.
fn precondition_reject<T: Time>(
    test_name: &str,
    taskset: &TaskSet<T>,
    device: &Fpga,
) -> Option<TestReport> {
    if let Err(e) = taskset.validate_for(device) {
        let failing = match &e {
            fpga_rt_model::ModelError::TaskWiderThanDevice { task, .. } => Some(TaskId(*task)),
            _ => None,
        };
        return Some(TestReport {
            test: test_name.to_string(),
            verdict: Verdict::rejected(failing, e.to_string()),
            checks: vec![],
        });
    }
    for (id, t) in taskset.iter() {
        if t.is_trivially_infeasible() {
            return Some(TestReport {
                test: test_name.to_string(),
                verdict: Verdict::rejected(
                    Some(id),
                    format!("{id} has C > D and can never meet a deadline"),
                ),
                checks: vec![],
            });
        }
    }
    None
}

/// Theorem 1: `US(Γ) ≤ Abnd·(1 − UT(τk)) + US(τk)` for every τk.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefDp(pub DpConfig);

impl RefDp {
    fn area_bound<T: Time>(&self, amax: u32, device: &Fpga) -> T {
        let base = i64::from(device.columns()) - i64::from(amax);
        match self.0.area_bound {
            DpAreaBound::IntegerColumns => T::from_i64(base + 1),
            DpAreaBound::RealValued => T::from_i64(base),
        }
    }
}

fn capacity<T: Time>(abnd: T, task: &Task<T>) -> T {
    abnd * (T::ONE - task.time_utilization()) + task.system_utilization()
}

impl<T: Time> SchedTest<T> for RefDp {
    fn name(&self) -> &str {
        match self.0.area_bound {
            DpAreaBound::IntegerColumns => "DP",
            DpAreaBound::RealValued => "DP-real",
        }
    }

    fn try_check(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
    ) -> Result<TestReport, ArithmeticOverflow> {
        Ok(self.scalar_check(taskset, device))
    }
}

impl<T: Time> ScalarCheck<T> for RefDp {
    fn scalar_check(&self, taskset: &TaskSet<T>, device: &Fpga) -> TestReport {
        let name = SchedTest::<T>::name(self).to_string();
        if let Some(rep) = precondition_reject(&name, taskset, device) {
            return rep;
        }

        let abnd: T = self.area_bound(taskset.amax(), device);
        let us_total = taskset.system_utilization();
        let mut checks = Vec::with_capacity(taskset.len());

        for (id, t) in taskset.iter() {
            let rhs = capacity(abnd, t);
            let passed = us_total <= rhs;
            checks.push(TaskCheck {
                task: id,
                passed,
                lhs: us_total.to_f64(),
                rhs: rhs.to_f64(),
                note: format!("US(Γ) ≤ Abnd·(1−UT({id})) + US({id}), Abnd={}", abnd.to_f64()),
            });
            if !passed {
                return TestReport {
                    test: name,
                    verdict: Verdict::rejected(
                        Some(id),
                        format!(
                            "US(Γ)={:.6} exceeds bound {:.6} at {id}",
                            us_total.to_f64(),
                            rhs.to_f64()
                        ),
                    ),
                    checks,
                };
            }
        }
        TestReport { test: name, verdict: Verdict::Accepted, checks }
    }
}

/// `Ni = ⌊(Dk − Di)/Ti⌋ + 1`, clamped at zero.
pub fn job_count_ni<T: Time>(interfering: &Task<T>, dk: T) -> i64 {
    let ni = ((dk - interfering.deadline()) / interfering.period()).floor_i64() + 1;
    ni.max(0)
}

/// Lemma 4: `Wi = Ni·Ci + min(Ci, max(Dk − Ni·Ti, 0))`.
pub fn time_work_bound<T: Time>(interfering: &Task<T>, dk: T) -> T {
    let ni = T::from_i64(job_count_ni(interfering, dk));
    let carry_in = interfering.exec().min_t((dk - ni * interfering.period()).max_zero());
    ni * interfering.exec() + carry_in
}

/// Theorem 2: `Σ_{i≠k} Ai·min(βi, 1 − Ck/Dk) < Abnd·(1 − Ck/Dk)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefGn1(pub Gn1Config);

impl<T: Time> SchedTest<T> for RefGn1 {
    fn name(&self) -> &str {
        match self.0.beta_denominator {
            Gn1BetaDenominator::InterferingDi => "GN1",
            Gn1BetaDenominator::WindowDk => "GN1-bcl",
        }
    }

    fn try_check(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
    ) -> Result<TestReport, ArithmeticOverflow> {
        Ok(self.scalar_check(taskset, device))
    }
}

impl<T: Time> ScalarCheck<T> for RefGn1 {
    fn scalar_check(&self, taskset: &TaskSet<T>, device: &Fpga) -> TestReport {
        let name = SchedTest::<T>::name(self).to_string();
        if let Some(rep) = precondition_reject(&name, taskset, device) {
            return rep;
        }

        let mut checks = Vec::with_capacity(taskset.len());
        for (k, tk) in taskset.iter() {
            let slack_ratio = T::ONE - tk.density(); // 1 − Ck/Dk ≥ 0 (precondition)
            let abnd_base = i64::from(device.columns()) - i64::from(tk.area());
            let abnd = T::from_i64(if self.0.rhs_plus_one { abnd_base + 1 } else { abnd_base });

            let mut lhs = T::ZERO;
            for (i, ti) in taskset.iter() {
                if i == k {
                    continue;
                }
                let w = time_work_bound(ti, tk.deadline());
                let denom = match self.0.beta_denominator {
                    Gn1BetaDenominator::InterferingDi => ti.deadline(),
                    Gn1BetaDenominator::WindowDk => tk.deadline(),
                };
                let beta = w / denom;
                lhs = lhs + ti.area_t() * beta.min_t(slack_ratio);
            }
            let rhs = abnd * slack_ratio;
            let passed = lhs < rhs;
            checks.push(TaskCheck {
                task: k,
                passed,
                lhs: lhs.to_f64(),
                rhs: rhs.to_f64(),
                note: format!("Σ Ai·min(βi, 1−Ck/Dk) < {}·(1−Ck/Dk)", abnd.to_f64()),
            });
            if !passed {
                return TestReport {
                    test: name,
                    verdict: Verdict::rejected(
                        Some(k),
                        format!(
                            "interference {:.6} not below bound {:.6} at {k}",
                            lhs.to_f64(),
                            rhs.to_f64()
                        ),
                    ),
                    checks,
                };
            }
        }
        TestReport { test: name, verdict: Verdict::Accepted, checks }
    }
}

/// Theorem 3: for every τk some `λ ≥ Ck/Tk` satisfies condition 1 or 2.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefGn2(pub Gn2Config);

fn sort_dedup<T: Time>(v: &mut Vec<T>) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("validated times are ordered"));
    v.dedup_by(|a, b| a == b);
}

/// `{Ci/Ti} ∪ {Ci/Di : Di > Ti}` over all tasks, sorted and deduped.
pub fn lambda_pool<T: Time>(taskset: &TaskSet<T>) -> Vec<T> {
    let mut pool: Vec<T> = Vec::with_capacity(2 * taskset.len());
    for t in taskset {
        pool.push(t.time_utilization());
        if t.deadline() > t.period() {
            pool.push(t.density());
        }
    }
    sort_dedup(&mut pool);
    pool
}

impl RefGn2 {
    /// Lemma 7's `βλk(i)`.
    pub fn beta_lambda<T: Time>(&self, ti: &Task<T>, tk: &Task<T>, lambda: T) -> T {
        let ui = ti.time_utilization();
        let dk = tk.deadline();
        if ui <= lambda {
            let extended = ui * (T::ONE - ti.deadline() / dk) + ti.exec() / dk;
            ui.max_t(extended)
        } else if lambda >= ti.density() {
            match self.0.case2 {
                Gn2Case2::BakerLambda => lambda,
                Gn2Case2::PaperCkTk => tk.time_utilization(),
            }
        } else {
            ui + (ti.exec() - lambda * ti.deadline()) / dk
        }
    }

    /// Task k's λ candidates.
    pub fn lambda_candidates<T: Time>(&self, taskset: &TaskSet<T>, k: usize) -> Vec<T> {
        self.lambda_candidates_with_pool(taskset, k, &lambda_pool(taskset))
    }

    fn lambda_candidates_with_pool<T: Time>(
        &self,
        taskset: &TaskSet<T>,
        k: usize,
        pool: &[T],
    ) -> Vec<T> {
        let tk = taskset.task(k);
        let uk = tk.time_utilization();
        // λk = λ·max(1, Tk/Dk) ≤ 1  ⇔  λ ≤ min(1, Dk/Tk)
        let scale = (tk.period() / tk.deadline()).max_t(T::ONE);
        let lambda_max = T::ONE / scale;

        let lo = pool.partition_point(|&l| l < uk);
        let hi = pool.partition_point(|&l| l <= lambda_max);
        let mut cands: Vec<T> = if hi > lo { pool[lo..hi].to_vec() } else { Vec::new() };
        if let Gn2LambdaSearch::Grid { points } = self.0.lambda_search {
            if points > 0 && lambda_max > uk {
                let n = T::from_i64(points as i64);
                let step = (lambda_max - uk) / n;
                let mut v = uk;
                for _ in 0..=points {
                    cands.push(v);
                    v = v + step;
                }
                cands.retain(|&l| l >= uk && l <= lambda_max);
                sort_dedup(&mut cands);
            }
        }
        cands
    }

    /// Both conditions of Theorem 3 for task k at one λ.
    pub fn evaluate_lambda<T: Time>(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
        k: usize,
        lambda: T,
    ) -> Gn2Attempt {
        let tk = taskset.task(k);
        let scale = (tk.period() / tk.deadline()).max_t(T::ONE);
        let lambda_k = lambda * scale;
        let one_minus = T::ONE - lambda_k;
        let abnd = T::from_i64(i64::from(device.columns()) - i64::from(taskset.amax()) + 1);
        let amin = T::from_u32(taskset.amin());

        let mut lhs1 = T::ZERO;
        let mut lhs2 = T::ZERO;
        let mut betas = Vec::with_capacity(taskset.len());
        for ti in taskset {
            let beta = self.beta_lambda(ti, tk, lambda);
            betas.push(beta.to_f64());
            let a = ti.area_t();
            lhs1 = lhs1 + a * beta.min_t(one_minus);
            lhs2 = lhs2 + a * beta.min_t(T::ONE);
        }
        let rhs1 = abnd * one_minus;
        let rhs2 = (abnd - amin) * one_minus + amin;
        let cond1 = lhs1 < rhs1;
        let cond2 = if self.0.condition2_strict { lhs2 < rhs2 } else { lhs2 <= rhs2 };
        Gn2Attempt {
            lambda: lambda.to_f64(),
            lambda_k: lambda_k.to_f64(),
            lhs1: lhs1.to_f64(),
            rhs1: rhs1.to_f64(),
            cond1,
            lhs2: lhs2.to_f64(),
            rhs2: rhs2.to_f64(),
            cond2,
            betas,
        }
    }

    /// All attempts for task k, in candidate order.
    pub fn attempts_for_task<T: Time>(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
        k: usize,
    ) -> Vec<Gn2Attempt> {
        self.lambda_candidates(taskset, k)
            .into_iter()
            .map(|l| self.evaluate_lambda(taskset, device, k, l))
            .collect()
    }
}

impl<T: Time> SchedTest<T> for RefGn2 {
    fn name(&self) -> &str {
        match (self.0.lambda_search, self.0.condition2_strict) {
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
        Ok(self.scalar_check(taskset, device))
    }
}

impl<T: Time> ScalarCheck<T> for RefGn2 {
    fn scalar_check(&self, taskset: &TaskSet<T>, device: &Fpga) -> TestReport {
        let name = SchedTest::<T>::name(self).to_string();
        if let Some(rep) = precondition_reject(&name, taskset, device) {
            return rep;
        }

        let pool = lambda_pool(taskset);
        let mut checks = Vec::with_capacity(taskset.len());
        for k in 0..taskset.len() {
            let candidates = self.lambda_candidates_with_pool(taskset, k, &pool);
            let mut passing: Option<Gn2Attempt> = None;
            let mut best: Option<Gn2Attempt> = None;
            for lambda in candidates {
                let attempt = self.evaluate_lambda(taskset, device, k, lambda);
                let ok = attempt.cond1 || attempt.cond2;
                // Track the attempt with the smallest condition-2 deficit for
                // diagnostics when everything fails.
                let better = match &best {
                    None => true,
                    Some(b) => attempt.lhs2 - attempt.rhs2 < b.lhs2 - b.rhs2,
                };
                if better {
                    best = Some(attempt.clone());
                }
                if ok {
                    passing = Some(attempt);
                    break;
                }
            }
            let id = TaskId(k);
            match passing {
                Some(a) => {
                    let via = if a.cond1 { "cond1" } else { "cond2" };
                    checks.push(TaskCheck {
                        task: id,
                        passed: true,
                        lhs: if a.cond1 { a.lhs1 } else { a.lhs2 },
                        rhs: if a.cond1 { a.rhs1 } else { a.rhs2 },
                        note: format!("{via} holds at λ={:.6}", a.lambda),
                    });
                }
                None => {
                    let (lhs, rhs, note) = match best {
                        Some(b) => {
                            (b.lhs2, b.rhs2, format!("no λ works; closest at λ={:.6}", b.lambda))
                        }
                        None => (f64::INFINITY, 0.0, "no feasible λ candidate".to_string()),
                    };
                    checks.push(TaskCheck { task: id, passed: false, lhs, rhs, note });
                    return TestReport {
                        test: name,
                        verdict: Verdict::rejected(
                            Some(id),
                            format!("no λ satisfies condition 1 or 2 for {id}"),
                        ),
                        checks,
                    };
                }
            }
        }
        TestReport { test: name, verdict: Verdict::Accepted, checks }
    }
}
