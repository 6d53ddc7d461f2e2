//! The [`SchedTest`] trait implemented by every bound test.

use crate::batch::{exact, ArithmeticOverflow};
use crate::report::TestReport;
use fpga_rt_model::{Fpga, TaskSet, Time};

/// A sufficient schedulability test for hardware tasksets on a 1-D PRTR
/// FPGA.
///
/// Implementations must be **sound**: when [`SchedTest::check`] accepts, the
/// taskset is guaranteed schedulable by the scheduling algorithm the test
/// targets (EDF-NF for GN1; EDF-FkF — and therefore also EDF-NF, by Danne's
/// dominance result — for DP and GN2). Rejection carries no guarantee; all
/// tests here are sufficient-only, as exact global-EDF feasibility is not
/// efficiently decidable (the paper, Section 6: simulation only gives *"a
/// coarse upper bound"*).
pub trait SchedTest<T: Time> {
    /// Short stable identifier (`"DP"`, `"GN1"`, `"GN2"`, ...), used as the
    /// series name in the experiment harness.
    fn name(&self) -> &str;

    /// Run the test, producing per-task diagnostics, or `Err` when exact
    /// arithmetic cannot represent a value of the analysis — the entry
    /// point of the exact modes.
    ///
    /// Preconditions (checked, reported as rejection rather than panics):
    /// every task fits the device; implementations additionally reject
    /// trivially infeasible tasks (`Ck > Dk`).
    fn try_check(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
    ) -> Result<TestReport, ArithmeticOverflow>;

    /// [`SchedTest::try_check`] where overflow is a programming error (it
    /// never happens in `f64`): an exact overflow panics.
    fn check(&self, taskset: &TaskSet<T>, device: &Fpga) -> TestReport {
        exact(self.try_check(taskset, device).ok())
    }

    /// Boolean convenience wrapper around [`SchedTest::check`].
    fn is_schedulable(&self, taskset: &TaskSet<T>, device: &Fpga) -> bool {
        self.check(taskset, device).accepted()
    }
}

/// Blanket implementation so `&TestImpl`, `Box<TestImpl>` and
/// `Box<dyn SchedTest<T>>` can be used wherever a test is expected.
impl<T: Time, S: SchedTest<T> + ?Sized> SchedTest<T> for &S {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn try_check(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
    ) -> Result<TestReport, ArithmeticOverflow> {
        (**self).try_check(taskset, device)
    }
}

impl<T: Time, S: SchedTest<T> + ?Sized> SchedTest<T> for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn try_check(
        &self,
        taskset: &TaskSet<T>,
        device: &Fpga,
    ) -> Result<TestReport, ArithmeticOverflow> {
        (**self).try_check(taskset, device)
    }
}
