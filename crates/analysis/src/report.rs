//! Structured test outcomes.
//!
//! A schedulability verdict is rarely useful as a bare boolean: the paper's
//! own worked examples (Section 6) walk through *which* task `k` fails each
//! test and with what margin. [`TestReport`] captures exactly that, in `f64`
//! regardless of the numeric type the verdict itself was computed in (the
//! verdict is decided in the generic [`fpga_rt_model::Time`] arithmetic; the
//! report is for humans and plots).

use fpga_rt_model::TaskId;
use serde::{Deserialize, Serialize};

/// Outcome of a schedulability test on one taskset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// The sufficient condition holds: the taskset is schedulable.
    Accepted,
    /// The sufficient condition failed; the taskset *may* still be
    /// schedulable (all tests in this crate are sufficient, not exact).
    Rejected {
        /// The first task `τk` whose per-task condition failed, when the
        /// test is per-task shaped.
        failing_task: Option<TaskId>,
        /// Human-readable reason.
        reason: String,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Accepted`].
    #[inline]
    pub fn accepted(&self) -> bool {
        matches!(self, Verdict::Accepted)
    }

    /// Convenience constructor for a rejection.
    pub fn rejected(failing_task: Option<TaskId>, reason: impl Into<String>) -> Self {
        Verdict::Rejected { failing_task, reason: reason.into() }
    }
}

/// Per-task diagnostic row: the two sides of the test's inequality for one
/// candidate task `τk`, mirroring the arithmetic in the paper's Section 6
/// walkthroughs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskCheck {
    /// The task `τk` whose condition was evaluated.
    pub task: TaskId,
    /// Whether this task's condition held.
    pub passed: bool,
    /// Left-hand side of the governing inequality (demand side).
    pub lhs: f64,
    /// Right-hand side of the governing inequality (capacity side).
    pub rhs: f64,
    /// Free-form detail (e.g. the chosen λ and which condition fired for
    /// GN2).
    pub note: String,
}

/// Full structured result of running one test on one taskset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestReport {
    /// Test name (`"DP"`, `"GN1"`, `"GN2"`, `"GFB"`, ...).
    pub test: String,
    /// Overall verdict.
    pub verdict: Verdict,
    /// One row per evaluated task condition (may stop early at the first
    /// failure; the failing row is always present).
    pub checks: Vec<TaskCheck>,
}

impl TestReport {
    /// `true` when the taskset was accepted.
    #[inline]
    pub fn accepted(&self) -> bool {
        self.verdict.accepted()
    }

    /// The failing task, if the verdict is a per-task rejection.
    pub fn failing_task(&self) -> Option<TaskId> {
        match &self.verdict {
            Verdict::Rejected { failing_task, .. } => *failing_task,
            Verdict::Accepted => None,
        }
    }

    /// Signed slack of the deciding comparison: on acceptance the minimum
    /// `rhs − lhs` over the rows (an `f64::min` fold from `+∞` in row
    /// order), on rejection the last failing row's `rhs − lhs`, and `−∞`
    /// for a rejection without a failing row (the precondition guard).
    pub fn margin(&self) -> f64 {
        if self.accepted() {
            self.checks.iter().map(|c| c.rhs - c.lhs).fold(f64::INFINITY, f64::min)
        } else {
            self.checks
                .iter()
                .rev()
                .find(|c| !c.passed)
                .map(|c| c.rhs - c.lhs)
                .unwrap_or(f64::NEG_INFINITY)
        }
    }

    /// Render a compact multi-line summary (used by the example binaries and
    /// the experiment harness's verbose mode).
    pub fn summarize(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "[{}] {}",
            self.test,
            match &self.verdict {
                Verdict::Accepted => "ACCEPTED".to_string(),
                Verdict::Rejected { failing_task, reason } => match failing_task {
                    Some(k) => format!("REJECTED at {k}: {reason}"),
                    None => format!("REJECTED: {reason}"),
                },
            }
        );
        for c in &self.checks {
            let _ = writeln!(
                out,
                "  {}: {} lhs={:.6} rhs={:.6} {}",
                c.task,
                if c.passed { "ok " } else { "FAIL" },
                c.lhs,
                c.rhs,
                c.note
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_accessors() {
        assert!(Verdict::Accepted.accepted());
        let r = Verdict::rejected(Some(TaskId(1)), "demand exceeds capacity");
        assert!(!r.accepted());
    }

    #[test]
    fn report_summary_contains_margins() {
        let rep = TestReport {
            test: "DP".into(),
            verdict: Verdict::rejected(Some(TaskId(1)), "bound exceeded"),
            checks: vec![TaskCheck {
                task: TaskId(1),
                passed: false,
                lhs: 4.94,
                rhs: 4.85,
                note: "US > bound".into(),
            }],
        };
        let s = rep.summarize();
        assert!(s.contains("REJECTED at τ1"));
        assert!(s.contains("4.94"));
        assert_eq!(rep.failing_task(), Some(TaskId(1)));
        assert!(!rep.accepted());
    }

    #[test]
    fn serde_round_trip() {
        let rep = TestReport { test: "GN2".into(), verdict: Verdict::Accepted, checks: vec![] };
        let json = serde_json::to_string(&rep).unwrap();
        let back: TestReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
    }
}
