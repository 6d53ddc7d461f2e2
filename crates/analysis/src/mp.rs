//! Multiprocessor ancestors of the FPGA tests: GFB, BCL and a BAK2-style
//! λ-window test.
//!
//! The paper derives each FPGA bound from a known global-EDF multiprocessor
//! bound (Section 1): DP from Goossens–Funk–Baruah (GFB), GN1 from
//! Bertogna–Cirinei–Lipari (BCL), GN2 from Baker's TR-051001 (BAK2). These
//! direct CPU implementations serve three purposes:
//!
//! 1. **Baselines** — they are the comparison points the lineage claims.
//! 2. **Validation** — with unit areas and `A(H) = m`, each FPGA test must
//!    produce *identical* verdicts to its ancestor. The `mp_reduction`
//!    integration test and the property tests assert this exactly.
//! 3. **Reuse** — downstream users get classic multiprocessor tests for
//!    free.
//!
//! Each evaluates its ancestor's own inequality, so the reduction check
//! compares two different formulas; the lemmas they share with the FPGA
//! tests (Lemma 4's `Wi`, Lemma 7's `βλk` and λ candidates) come from the
//! analysis kernel ([`crate::batch`]). They compute with the `Time`
//! operators, which panic on exact overflow instead of returning `Err`.

use crate::batch::{exact, time_work_bound, ArithmeticOverflow};
use crate::report::{TaskCheck, TestReport, Verdict};
use crate::traits::SchedTest;
use fpga_rt_model::{Fpga, TaskSet, Time};

/// Goossens–Funk–Baruah utilization bound for global EDF on `m` identical
/// processors (implicit or constrained deadlines evaluated on utilizations):
///
/// ```text
/// UT(Γ) ≤ m·(1 − umax) + umax ,  umax = max Ci/Ti
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GfbTest;

impl<T: Time> SchedTest<T> for GfbTest {
    fn name(&self) -> &str {
        "GFB"
    }

    fn try_check(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
    ) -> Result<TestReport, ArithmeticOverflow> {
        let m = T::from_u32(device.columns());
        let ut = taskset.time_utilization();
        let umax =
            taskset.iter().map(|(_, t)| t.time_utilization()).fold(T::ZERO, |a, b| a.max_t(b));
        let bound = m * (T::ONE - umax) + umax;
        let passed = ut <= bound;
        let check = TaskCheck {
            task: fpga_rt_model::TaskId(0),
            passed,
            lhs: ut.to_f64(),
            rhs: bound.to_f64(),
            note: format!("UT ≤ m(1−umax)+umax, m={}", device.columns()),
        };
        Ok(TestReport {
            test: "GFB".into(),
            verdict: if passed {
                Verdict::Accepted
            } else {
                Verdict::rejected(None, format!("UT={:.6} > {:.6}", ut.to_f64(), bound.to_f64()))
            },
            checks: vec![check],
        })
    }
}

/// Bertogna–Cirinei–Lipari (ECRTS'05) interference test for global EDF on
/// `m` identical processors:
///
/// ```text
/// ∀k:  Σ_{i≠k} min(βi, 1 − λk) < m·(1 − λk) ,  λk = Ck/Dk ,
/// βi = Wi / Dk ,  Wi = Ni·Ci + min(Ci, max(Dk − Ni·Ti, 0))
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BclTest;

impl<T: Time> SchedTest<T> for BclTest {
    fn name(&self) -> &str {
        "BCL"
    }

    fn try_check(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
    ) -> Result<TestReport, ArithmeticOverflow> {
        let m = T::from_u32(device.columns());
        let mut checks = Vec::with_capacity(taskset.len());
        for (k, tk) in taskset.iter() {
            let slack_ratio = T::ONE - tk.density();
            let mut lhs = T::ZERO;
            for (i, ti) in taskset.iter() {
                if i == k {
                    continue;
                }
                let w =
                    exact(time_work_bound(ti.exec(), ti.deadline(), ti.period(), tk.deadline()));
                let beta = w / tk.deadline();
                lhs = lhs + beta.min_t(slack_ratio);
            }
            let rhs = m * slack_ratio;
            let passed = lhs < rhs;
            checks.push(TaskCheck {
                task: k,
                passed,
                lhs: lhs.to_f64(),
                rhs: rhs.to_f64(),
                note: "Σ min(βi, 1−λk) < m(1−λk)".into(),
            });
            if !passed {
                return Ok(TestReport {
                    test: "BCL".into(),
                    verdict: Verdict::rejected(Some(k), format!("fails at {k}")),
                    checks,
                });
            }
        }
        Ok(TestReport { test: "BCL".into(), verdict: Verdict::Accepted, checks })
    }
}

/// Baker-style λ-window test (BAK2, TR-051001) for global EDF on `m`
/// identical processors — the CPU specialization of the paper's Theorem 3:
///
/// ```text
/// ∀k ∃λ ≥ Ck/Tk :  Σ min(βλk(i), 1 − λk) < m(1 − λk)
///              or  Σ min(βλk(i), 1) < (m − 1)(1 − λk) + 1
/// ```
///
/// using the same `βλk` as [`crate::Gn2Test`] with Baker's `λ` in case 2 and
/// strict comparisons matching the FPGA default (so the unit-area reduction
/// is verdict-exact).
#[derive(Debug, Clone, Copy, Default)]
pub struct Bak2Test;

impl<T: Time> SchedTest<T> for Bak2Test {
    fn name(&self) -> &str {
        "BAK2"
    }

    fn try_check(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
    ) -> Result<TestReport, ArithmeticOverflow> {
        // The CPU case is exactly the FPGA case with every area = 1 and
        // A(H) = m; we re-derive it here from the original formulas.
        let m = T::from_u32(device.columns());
        let gn2 = crate::gn2::Gn2Test::default();
        let mut checks = Vec::with_capacity(taskset.len());
        for k in 0..taskset.len() {
            let tk = taskset.task(k);
            let scale = (tk.period() / tk.deadline()).max_t(T::ONE);
            let candidates = gn2.lambda_candidates(taskset, k);
            let mut pass = None;
            for lambda in candidates {
                let lambda_k = lambda * scale;
                let one_minus = T::ONE - lambda_k;
                let mut lhs1 = T::ZERO;
                let mut lhs2 = T::ZERO;
                for ti in taskset {
                    let beta = gn2.beta_lambda(ti, tk, lambda);
                    lhs1 = lhs1 + beta.min_t(one_minus);
                    lhs2 = lhs2 + beta.min_t(T::ONE);
                }
                let rhs1 = m * one_minus;
                let rhs2 = (m - T::ONE) * one_minus + T::ONE;
                if lhs1 < rhs1 || lhs2 < rhs2 {
                    pass = Some((lambda, lhs1, rhs1));
                    break;
                }
            }
            let id = fpga_rt_model::TaskId(k);
            match pass {
                Some((lambda, lhs, rhs)) => checks.push(TaskCheck {
                    task: id,
                    passed: true,
                    lhs: lhs.to_f64(),
                    rhs: rhs.to_f64(),
                    note: format!("holds at λ={:.6}", lambda.to_f64()),
                }),
                None => {
                    checks.push(TaskCheck {
                        task: id,
                        passed: false,
                        lhs: f64::INFINITY,
                        rhs: 0.0,
                        note: "no λ works".into(),
                    });
                    return Ok(TestReport {
                        test: "BAK2".into(),
                        verdict: Verdict::rejected(Some(id), format!("fails at {id}")),
                        checks,
                    });
                }
            }
        }
        Ok(TestReport { test: "BAK2".into(), verdict: Verdict::Accepted, checks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::DpTest;
    use crate::gn1::Gn1Test;
    use crate::gn2::Gn2Test;

    /// A classic GFB example: m = 2, three tasks of utilization 0.5 →
    /// UT = 1.5 = 2(1 − 0.5) + 0.5 exactly; accepted.
    #[test]
    fn gfb_boundary_accepts() {
        let ts: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(1.0, 2.0, 2.0, 1), (1.0, 2.0, 2.0, 1), (2.0, 4.0, 4.0, 1)])
                .unwrap();
        let m2 = Fpga::multiprocessor(2).unwrap();
        assert!(GfbTest.is_schedulable(&ts, &m2));
    }

    #[test]
    fn gfb_rejects_overload() {
        let ts: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(1.9, 2.0, 2.0, 1), (1.9, 2.0, 2.0, 1)]).unwrap();
        let m2 = Fpga::multiprocessor(2).unwrap();
        assert!(!GfbTest.is_schedulable(&ts, &m2));
    }

    /// Unit-area reduction: DP on an m-column device with unit areas must
    /// give the same verdict as GFB on m processors.
    #[test]
    fn dp_reduces_to_gfb_on_unit_areas() {
        let sets: Vec<TaskSet<f64>> = vec![
            TaskSet::try_from_tuples(&[(1.0, 3.0, 3.0, 1), (2.0, 5.0, 5.0, 1)]).unwrap(),
            TaskSet::try_from_tuples(&[(1.9, 2.0, 2.0, 1), (1.9, 2.0, 2.0, 1)]).unwrap(),
            TaskSet::try_from_tuples(&[(1.0, 2.0, 2.0, 1), (1.0, 2.0, 2.0, 1), (2.0, 4.0, 4.0, 1)])
                .unwrap(),
        ];
        for m in [1u32, 2, 4] {
            let dev = Fpga::multiprocessor(m).unwrap();
            for ts in &sets {
                assert_eq!(
                    DpTest::default().is_schedulable(ts, &dev),
                    GfbTest.is_schedulable(ts, &dev),
                    "DP≠GFB for m={m}"
                );
            }
        }
    }

    /// Unit-area reduction for GN1 (with the BCL denominator) vs BCL.
    #[test]
    fn gn1_reduces_to_bcl_on_unit_areas() {
        let sets: Vec<TaskSet<f64>> = vec![
            TaskSet::try_from_tuples(&[(1.0, 3.0, 3.0, 1), (2.0, 5.0, 5.0, 1)]).unwrap(),
            TaskSet::try_from_tuples(&[(2.0, 3.0, 3.0, 1), (2.0, 3.0, 3.0, 1), (1.0, 4.0, 4.0, 1)])
                .unwrap(),
        ];
        for m in [2u32, 3] {
            let dev = Fpga::multiprocessor(m).unwrap();
            for ts in &sets {
                assert_eq!(
                    Gn1Test::bcl_faithful().is_schedulable(ts, &dev),
                    BclTest.is_schedulable(ts, &dev),
                    "GN1-bcl≠BCL for m={m}"
                );
            }
        }
    }

    /// Unit-area reduction for GN2 vs BAK2.
    #[test]
    fn gn2_reduces_to_bak2_on_unit_areas() {
        let sets: Vec<TaskSet<f64>> = vec![
            TaskSet::try_from_tuples(&[(1.0, 3.0, 3.0, 1), (2.0, 5.0, 5.0, 1)]).unwrap(),
            TaskSet::try_from_tuples(&[(2.0, 3.0, 3.0, 1), (2.0, 3.0, 3.0, 1), (1.0, 4.0, 4.0, 1)])
                .unwrap(),
            TaskSet::try_from_tuples(&[(1.5, 2.0, 2.0, 1), (1.5, 2.0, 2.0, 1)]).unwrap(),
        ];
        for m in [2u32, 3, 4] {
            let dev = Fpga::multiprocessor(m).unwrap();
            for ts in &sets {
                assert_eq!(
                    Gn2Test::default().is_schedulable(ts, &dev),
                    Bak2Test.is_schedulable(ts, &dev),
                    "GN2≠BAK2 for m={m}"
                );
            }
        }
    }

    /// GFB and BCL are incomparable (Baker 2006): exhibit one taskset each
    /// way on 2 processors.
    #[test]
    fn gfb_and_bcl_are_incomparable() {
        let m2 = Fpga::multiprocessor(2).unwrap();
        // Time-light tasks favour GFB.
        let light: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(1.0, 2.0, 2.0, 1), (1.0, 2.0, 2.0, 1), (2.0, 4.0, 4.0, 1)])
                .unwrap();
        assert!(GfbTest.is_schedulable(&light, &m2));
        assert!(!BclTest.is_schedulable(&light, &m2), "BCL strict < fails at the boundary");
        // A heavy task plus a medium one favours BCL: GFB's bound
        // m(1−umax)+umax = 1.1 < UT = 1.4, but BCL passes both tasks
        // (the heavy task has only one interferer on two processors).
        let heavy: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(9.0, 10.0, 10.0, 1), (5.0, 10.0, 10.0, 1)]).unwrap();
        assert!(!GfbTest.is_schedulable(&heavy, &m2));
        assert!(BclTest.is_schedulable(&heavy, &m2));
    }
}
