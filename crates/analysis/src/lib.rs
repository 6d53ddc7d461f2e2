//! # fpga-rt-analysis
//!
//! Schedulability bound tests for global EDF scheduling of hardware tasks on
//! 1-D partially runtime-reconfigurable FPGAs, implementing
//! *Guan, Gu, Deng, Liu, Yu — IPDPS 2007*:
//!
//! * [`DpTest`] — **Theorem 1 (DP)**: the Danne–Platzner GFB-style total
//!   utilization bound, with the paper's integer-area correction
//!   (`A(H) − Amax + 1`); [`DpTest::live_slack`] evaluates it on a mutating
//!   [`fpga_rt_model::LiveTaskSet`] for the `fpga-rt-service` admission
//!   cascade.
//! * [`Gn1Test`] — **Theorem 2 (GN1)**: BCL-style per-task interference test
//!   for EDF-NF, exploiting the *interval*-α-work-conserving property
//!   (Lemma 2) for the tighter per-task bound `A(H) − Ak + 1`.
//! * [`Gn2Test`] — **Theorem 3 (GN2)**: BAK2-style busy-window test with
//!   λ-extension for EDF-FkF (and hence EDF-NF), using the *global*
//!   α-work-conserving bound `A(H) − Amax + 1` (Lemma 1).
//! * [`mp`] — the multiprocessor ancestors (GFB, BCL, BAK2-style) these
//!   theorems generalize; with unit areas and `A(H) = m` each FPGA test
//!   reduces *exactly* to its ancestor (validated by property tests).
//! * [`alpha`] — the work-conserving α bounds of Lemmas 1–2, also used by
//!   the simulator's trace validators.
//! * [`AnyOfTest`] — the composite the paper recommends in Section 6:
//!   *"different schedulability bounds should be applied together, i.e.,
//!   determine that a taskset is unschedulable only if all tests fail."*
//! * [`batch`] — the analysis kernel, the one implementation of Theorems
//!   1–3, which the tests' reports and [`BatchAnalyzer`]'s allocation-free
//!   verdicts over packed tasksets ([`TaskSetBatch`]) both run.
//!
//! The kernel is generic over [`fpga_rt_model::Time`], so each verdict can
//! be computed in `f64` (fast) or in exact rational arithmetic
//! ([`fpga_rt_model::Rat64`]) — the latter matters for knife-edge tasksets
//! like the paper's Table 1. Exact overflow comes back from
//! [`SchedTest::try_check`] as an [`ArithmeticOverflow`].
//!
//! Every test returns a structured [`TestReport`] carrying per-task margins
//! for debugging and for the experiment harness; [`SchedTest::is_schedulable`]
//! is the boolean convenience wrapper.
//!
//! `docs/THEORY.md` at the workspace root maps every theorem, lemma and
//! equation of the paper to its implementing item in this crate, with the
//! formulas exactly as implemented.
//!
//! ## Example: the paper's Table 2
//!
//! ```
//! use fpga_rt_analysis::{DpTest, Gn1Test, Gn2Test, SchedTest};
//! use fpga_rt_model::{Fpga, TaskSet};
//!
//! let ts: TaskSet<f64> = TaskSet::try_from_tuples(&[
//!     (4.50, 8.0, 8.0, 3),
//!     (8.00, 9.0, 9.0, 5),
//! ]).unwrap();
//! let fpga = Fpga::new(10).unwrap();
//!
//! assert!(!DpTest::default().is_schedulable(&ts, &fpga));  // rejected by DP
//! assert!(Gn1Test::default().is_schedulable(&ts, &fpga));  // accepted by GN1
//! assert!(!Gn2Test::default().is_schedulable(&ts, &fpga)); // rejected by GN2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alpha;
pub mod batch;
pub mod composite;
pub mod dp;
pub mod gn1;
pub mod gn2;
pub mod mp;
pub mod necessary;
pub mod report;
pub mod traits;

pub use batch::{
    AnalysisSeries, ArithmeticOverflow, BatchAnalyzer, BatchVerdict, BatchVerdicts, ScratchSpace,
    TaskSetBatch, Theorem,
};
pub use composite::AnyOfTest;
pub use dp::{DpAreaBound, DpConfig, DpSlack, DpTest};
pub use gn1::{Gn1BetaDenominator, Gn1Config, Gn1Test};
pub use gn2::{Gn2Attempt, Gn2Case2, Gn2Config, Gn2LambdaSearch, Gn2Test};
pub use necessary::NecessaryTest;
pub use report::{TaskCheck, TestReport, Verdict};
pub use traits::SchedTest;
