//! The composite test.
//!
//! The paper closes Section 6 with: *"In practice, different schedulability
//! bounds should be applied together, i.e., determine that a taskset is
//! unschedulable only if all tests fail."* [`AnyOfTest`] is that composite.

use crate::batch::ArithmeticOverflow;
use crate::dp::DpTest;
use crate::gn1::Gn1Test;
use crate::gn2::Gn2Test;
use crate::report::{TestReport, Verdict};
use crate::traits::SchedTest;
use fpga_rt_model::{Fpga, TaskSet, Time};

/// Accepts when **any** inner test accepts (union of acceptance regions).
pub struct AnyOfTest<T: Time> {
    name: String,
    tests: Vec<Box<dyn SchedTest<T> + Send + Sync>>,
}

impl<T: Time> AnyOfTest<T> {
    /// Compose arbitrary tests under a display name.
    pub fn new(name: impl Into<String>, tests: Vec<Box<dyn SchedTest<T> + Send + Sync>>) -> Self {
        AnyOfTest { name: name.into(), tests }
    }

    /// The paper's recommended suite: DP ∪ GN1 ∪ GN2 (all with default
    /// configurations).
    pub fn paper_suite() -> Self {
        AnyOfTest::new(
            "DP∪GN1∪GN2",
            vec![
                Box::new(DpTest::default()),
                Box::new(Gn1Test::default()),
                Box::new(Gn2Test::default()),
            ],
        )
    }

    /// Number of inner tests.
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// `true` when no inner tests were supplied (always rejects).
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }
}

impl<T: Time> SchedTest<T> for AnyOfTest<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_check(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
    ) -> Result<TestReport, ArithmeticOverflow> {
        let mut checks = Vec::new();
        for test in &self.tests {
            let rep = test.try_check(taskset, device)?;
            let accepted = rep.accepted();
            checks.extend(rep.checks);
            if accepted {
                return Ok(TestReport {
                    test: self.name.clone(),
                    verdict: Verdict::Accepted,
                    checks,
                });
            }
        }
        Ok(TestReport {
            test: self.name.clone(),
            verdict: Verdict::rejected(None, "all component tests rejected"),
            checks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Each of the paper's three tables is accepted by exactly one
    /// component test, so the union accepts all three.
    #[test]
    fn paper_suite_accepts_all_three_tables() {
        let suite = AnyOfTest::paper_suite();
        let dev = fpga10();
        for ts in [table1(), table2(), table3()] {
            assert!(suite.is_schedulable(&ts, &dev));
        }
    }

    #[test]
    fn paper_suite_rejects_gross_overload() {
        let ts: TaskSet<f64> =
            TaskSet::try_from_tuples(&[(4.9, 5.0, 5.0, 9), (4.9, 5.0, 5.0, 9), (4.9, 5.0, 5.0, 9)])
                .unwrap();
        assert!(!AnyOfTest::paper_suite().is_schedulable(&ts, &fpga10()));
    }

    #[test]
    fn empty_any_rejects() {
        let none: AnyOfTest<f64> = AnyOfTest::new("none", vec![]);
        assert!(none.is_empty());
        assert!(!none.is_schedulable(&table1(), &fpga10()));
    }

    #[test]
    fn composite_name_and_len() {
        let suite: AnyOfTest<f64> = AnyOfTest::paper_suite();
        assert_eq!(SchedTest::<f64>::name(&suite), "DP∪GN1∪GN2");
        assert_eq!(suite.len(), 3);
    }
}
