//! Necessary (not sufficient) schedulability conditions.
//!
//! Everything else in this crate is a *sufficient* test: acceptance proves
//! schedulability. [`NecessaryTest`] is the complement — rejection proves
//! **un**schedulability, acceptance proves nothing. It is useful as
//!
//! * a cheap pre-filter before the O(N³) GN2 search,
//! * an upper bound series in acceptance plots (any exact test lies
//!   between the sufficient suite and this),
//! * a sanity oracle in property tests (no sufficient test may accept a
//!   taskset this test rejects — that would be a contradiction).
//!
//! Conditions checked (all standard):
//!
//! 1. every task fits the device (`Ak ≤ A(H)`);
//! 2. per-task feasibility `Ck ≤ Dk`;
//! 3. per-task utilization `Ck ≤ Tk` (a task exceeding its period overruns
//!    itself eventually even alone — for `Dk ≤ Tk` implied by 2);
//! 4. total system utilization `US(Γ) ≤ A(H)` (long-run area-time demand
//!    cannot exceed supply).

use crate::batch::ArithmeticOverflow;
use crate::report::{TaskCheck, TestReport, Verdict};
use crate::traits::SchedTest;
use fpga_rt_model::{Fpga, TaskSet, Time};

/// Necessary conditions for EDF-schedulability on a 1-D PRTR FPGA. See the
/// [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct NecessaryTest;

impl<T: Time> SchedTest<T> for NecessaryTest {
    fn name(&self) -> &str {
        "NEC"
    }

    fn try_check(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
    ) -> Result<TestReport, ArithmeticOverflow> {
        let mut checks = Vec::with_capacity(taskset.len() + 1);
        for (id, t) in taskset.iter() {
            let fits = t.area() <= device.columns();
            let feasible = t.exec() <= t.deadline() && t.exec() <= t.period();
            checks.push(TaskCheck {
                task: id,
                passed: fits && feasible,
                lhs: t.exec().to_f64(),
                rhs: t.deadline().min_t(t.period()).to_f64(),
                note: format!("Ak={} ≤ A(H)={}, C ≤ min(D,T)", t.area(), device.columns()),
            });
            if !fits {
                return Ok(TestReport {
                    test: "NEC".into(),
                    verdict: Verdict::rejected(Some(id), format!("{id} is wider than the device")),
                    checks,
                });
            }
            if !feasible {
                return Ok(TestReport {
                    test: "NEC".into(),
                    verdict: Verdict::rejected(Some(id), format!("{id} has C exceeding D or T")),
                    checks,
                });
            }
        }
        // `US(Γ)` folded in task order, as `TaskSet::system_utilization`.
        let us = taskset
            .tasks()
            .iter()
            .try_fold(T::ZERO, |acc, t| {
                acc.checked_add(t.exec().checked_mul(t.area_t())?.checked_div(t.period())?)
            })
            .ok_or(ArithmeticOverflow)?;
        let cap = T::from_u32(device.columns());
        let passed = us <= cap;
        checks.push(TaskCheck {
            task: fpga_rt_model::TaskId(0),
            passed,
            lhs: us.to_f64(),
            rhs: cap.to_f64(),
            note: "US(Γ) ≤ A(H)".into(),
        });
        Ok(TestReport {
            test: "NEC".into(),
            verdict: if passed {
                Verdict::Accepted
            } else {
                Verdict::rejected(
                    None,
                    format!("US(Γ)={:.6} exceeds device area {}", us.to_f64(), device.columns()),
                )
            },
            checks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::AnyOfTest;

    fn fpga10() -> Fpga {
        Fpga::new(10).unwrap()
    }

    #[test]
    fn accepts_all_paper_tables() {
        // All three tables are genuinely schedulable or at least not
        // provably infeasible; the necessary test must accept them.
        for tuples in [
            vec![(1.26, 7.0, 7.0, 9), (0.95, 5.0, 5.0, 6)],
            vec![(4.50, 8.0, 8.0, 3), (8.00, 9.0, 9.0, 5)],
            vec![(2.10, 5.0, 5.0, 7), (2.00, 7.0, 7.0, 7)],
        ] {
            let ts: TaskSet<f64> = TaskSet::try_from_tuples(&tuples).unwrap();
            assert!(NecessaryTest.is_schedulable(&ts, &fpga10()));
        }
    }

    #[test]
    fn rejects_utilization_overload() {
        let ts: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(4.0, 5.0, 5.0, 9), (4.0, 5.0, 5.0, 9)]).unwrap();
        // US = 2·(4·9/5) = 14.4 > 10.
        let rep = NecessaryTest.check(&ts, &fpga10());
        assert!(!rep.accepted());
    }

    #[test]
    fn rejects_infeasible_task_and_oversize() {
        let ts: TaskSet<f64> = TaskSet::try_from_tuples(&[(6.0, 5.0, 5.0, 1)]).unwrap();
        assert!(!NecessaryTest.is_schedulable(&ts, &fpga10()));
        let ts: TaskSet<f64> = TaskSet::try_from_tuples(&[(1.0, 5.0, 5.0, 11)]).unwrap();
        assert!(!NecessaryTest.is_schedulable(&ts, &fpga10()));
    }

    /// Consistency: the sufficient suite can never accept what the
    /// necessary test rejects (checked here on a grid of overloads).
    #[test]
    fn sufficient_never_contradicts_necessary() {
        let dev = fpga10();
        let suite = AnyOfTest::paper_suite();
        for c in [1.0f64, 2.0, 3.0, 4.0, 4.9] {
            for a in [1u32, 3, 6, 9] {
                let ts: TaskSet<f64> = TaskSet::try_from_tuples(&[
                    (c, 5.0, 5.0, a),
                    (c, 5.0, 5.0, a),
                    (c, 5.0, 5.0, a),
                ])
                .unwrap();
                if !NecessaryTest.is_schedulable(&ts, &dev) {
                    assert!(
                        !suite.is_schedulable(&ts, &dev),
                        "sufficient suite accepted a provably infeasible set (C={c}, A={a})"
                    );
                }
            }
        }
    }
}
