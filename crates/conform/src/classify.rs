//! Conformance classification: what one evaluator verdict means against
//! the simulated ground truth.
//!
//! Every sufficient test carries a *soundness direction* only — acceptance
//! proves schedulability under the scheduler(s) the theorem targets,
//! rejection proves nothing. Crossing a verdict with the discrete-event
//! engine therefore lands each (taskset, evaluator) pair in exactly one of
//! four classes:
//!
//! | evaluator | targeted simulation | class |
//! |---|---|---|
//! | accept | clean | [`Classification::SoundAccept`] |
//! | accept | **miss** | [`Classification::SoundnessViolation`] — a theorem is disproved |
//! | reject | miss | [`Classification::SoundReject`] |
//! | reject | clean | [`Classification::PessimisticReject`] — the test's conservatism, the paper's Figures 3–4 gap |
//!
//! The synchronous release pattern the engine simulates is one of the
//! patterns the theorems quantify over, so a single miss on an accepted
//! taskset is a genuine counterexample — not noise. The converse is *not*
//! exact: `PessimisticReject` only says the synchronous pattern survived a
//! finite horizon, an upper bound on true schedulability (the same caveat
//! as the paper's own simulation curves).

use fpga_rt_analysis::{
    AnalysisSeries, AnyOfTest, BatchAnalyzer, BatchVerdicts, DpTest, Gn1Test, Gn2Test, SchedTest,
    ScratchSpace,
};
use fpga_rt_exp::Evaluator;
use fpga_rt_model::{Fpga, TaskSet};
use fpga_rt_sim::{simulate_f64, Horizon, SchedulerKind, SimConfig};
use serde::{Deserialize, Serialize};

/// The four conformance classes; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Classification {
    /// Accepted and the targeted simulation ran clean.
    SoundAccept,
    /// Rejected and the primary targeted simulation missed a deadline.
    SoundReject,
    /// Rejected although the primary targeted simulation ran clean.
    PessimisticReject,
    /// Accepted but a targeted simulation missed a deadline — the theorem
    /// behind the evaluator is empirically disproved on this taskset.
    SoundnessViolation,
}

impl Classification {
    /// Stable lowercase identifier used in CSV/JSON output.
    pub fn id(&self) -> &'static str {
        match self {
            Classification::SoundAccept => "sound-accept",
            Classification::SoundReject => "sound-reject",
            Classification::PessimisticReject => "pessimistic-reject",
            Classification::SoundnessViolation => "SOUNDNESS-VIOLATION",
        }
    }

    /// Whether the classified verdict was an acceptance.
    pub(crate) fn accepted(self) -> bool {
        matches!(self, Classification::SoundAccept | Classification::SoundnessViolation)
    }
}

/// The two scheduler variants the theorems target, in the fixed order the
/// engine simulates them.
pub const SIM_SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::EdfFkf, SchedulerKind::EdfNf];

/// Index of a scheduler within [`SIM_SCHEDULERS`] / per-unit sim verdicts.
///
/// # Panics
///
/// On [`SchedulerKind::EdfUs`] / [`SchedulerKind::Partitioned`]: the
/// engine only simulates the two paper schedulers, and silently mapping
/// an un-simulated target to one of them would classify against the
/// wrong ground truth.
pub fn scheduler_index(kind: &SchedulerKind) -> usize {
    match kind {
        SchedulerKind::EdfFkf => 0,
        SchedulerKind::EdfNf => 1,
        other => panic!("conformance target {} is not simulated by the engine", other.name()),
    }
}

/// An evaluator plus the scheduler(s) whose clean simulation its
/// acceptance guarantees. The first target is *primary*: it decides
/// sound- vs pessimistic-reject; every target participates in the
/// violation check (acceptance must survive them all).
pub struct ConformEvaluator {
    /// The accept/reject predicate (name is the series name).
    pub evaluator: Evaluator,
    /// Targeted schedulers, primary first.
    pub targets: Vec<SchedulerKind>,
}

impl ConformEvaluator {
    /// Wrap an evaluator with its targets.
    ///
    /// # Panics
    ///
    /// When `targets` is empty: with no targeted scheduler every
    /// acceptance would be vacuously "sound" (nothing could ever refute
    /// the evaluator) and every rejection would have no primary
    /// scheduler to classify against.
    pub fn new(evaluator: Evaluator, targets: Vec<SchedulerKind>) -> Self {
        assert!(!targets.is_empty(), "a conformance evaluator needs ≥ 1 targeted scheduler");
        ConformEvaluator { evaluator, targets }
    }

    /// Classify one verdict against the per-scheduler sim verdicts
    /// (`sim_clean[scheduler_index(k)]`, [`SIM_SCHEDULERS`] order).
    pub fn classify(&self, accepted: bool, sim_clean: &[bool; 2]) -> Classification {
        if accepted {
            if self.targets.iter().all(|k| sim_clean[scheduler_index(k)]) {
                Classification::SoundAccept
            } else {
                Classification::SoundnessViolation
            }
        } else if sim_clean[scheduler_index(&self.targets[0])] {
            Classification::PessimisticReject
        } else {
            Classification::SoundReject
        }
    }

    /// The first targeted scheduler whose simulation missed, if any.
    pub fn violated_target(&self, sim_clean: &[bool; 2]) -> Option<&SchedulerKind> {
        self.targets.iter().find(|k| !sim_clean[scheduler_index(k)])
    }
}

/// Synchronous-release simulation under `kind`, `horizon` × Tmax long.
pub(crate) fn sim_config(kind: SchedulerKind, horizon: f64) -> SimConfig {
    SimConfig::default().with_scheduler(kind).with_horizon(Horizon::PeriodsOfTmax(horizon))
}

/// Whether `ts` simulates clean on `device` under each of
/// [`SIM_SCHEDULERS`], in that order.
pub(crate) fn simulate_targets(ts: &TaskSet<f64>, device: &Fpga, horizon: f64) -> [bool; 2] {
    SIM_SCHEDULERS.map(|kind| {
        simulate_f64(ts, device, &sim_config(kind, horizon))
            .expect("drawn tasksets validate for their device")
            .schedulable()
    })
}

/// Classify every evaluator's verdict on one draw against its targeted
/// simulations (`sim_clean`, [`SIM_SCHEDULERS`] order) — the conformance
/// engine's and the 2-D bridge's one classification. The analysis-kind
/// evaluators share one batch-kernel pass: `ts` is packed into `scratch`
/// once and all four series come out of it. An acceptance of a taskset
/// the necessary test rejected (`nec_rejected`) is a violation whatever
/// the simulations say.
pub(crate) fn classify_draw(
    evaluators: &[ConformEvaluator],
    ts: &TaskSet<f64>,
    device: &Fpga,
    sim_clean: &[bool; 2],
    nec_rejected: bool,
    scratch: &mut ScratchSpace,
) -> Vec<Classification> {
    let mut batch: Option<BatchVerdicts> = None;
    evaluators
        .iter()
        .map(|ev| {
            let accepted = match ev.evaluator.analysis_series() {
                Some(series) => {
                    batch
                        .get_or_insert_with(|| BatchAnalyzer::new().analyze(ts, device, scratch))
                        .series(series)
                        .accepted
                }
                None => ev.evaluator.accepts_with(ts, device, scratch),
            };
            if accepted && nec_rejected {
                Classification::SoundnessViolation
            } else {
                ev.classify(accepted, sim_clean)
            }
        })
        .collect()
}

/// The theorem-given simulation targets of one analytic series:
///
/// * **DP** (Theorem 1) and **GN2** (Theorem 3) prove EDF-FkF
///   schedulability, and EDF-NF via Danne's dominance — both schedulers
///   are checked, EDF-FkF primary.
/// * **GN1** (Theorem 2) proves EDF-NF only.
/// * **AnyOf** accepts when any component accepts; since GN1 only covers
///   EDF-NF, the composite's guarantee is EDF-NF.
fn series_targets(series: AnalysisSeries) -> Vec<SchedulerKind> {
    match series {
        AnalysisSeries::Dp | AnalysisSeries::Gn2 => {
            vec![SchedulerKind::EdfFkf, SchedulerKind::EdfNf]
        }
        AnalysisSeries::Gn1 | AnalysisSeries::AnyOf => vec![SchedulerKind::EdfNf],
    }
}

/// The paper's four analytic series (DP, GN1, GN2, AnyOf) with their
/// theorem-given targets (see `series_targets` above), riding the
/// allocation-free batch kernel ([`Evaluator::analysis`]).
pub fn paper_conform_evaluators() -> Vec<ConformEvaluator> {
    AnalysisSeries::ALL
        .into_iter()
        .map(|s| ConformEvaluator::new(Evaluator::analysis(s), series_targets(s)))
        .collect()
}

/// The same four series as scalar closures over the test implementations —
/// the reference the batch-kernel suite is cross-checked against. Verdicts
/// (and therefore whole conformance reports) are byte-identical to
/// [`paper_conform_evaluators`]; asserted by tests.
pub fn paper_conform_evaluators_scalar() -> Vec<ConformEvaluator> {
    let any = AnyOfTest::paper_suite();
    vec![
        ConformEvaluator::new(
            Evaluator::from_test(DpTest::default()),
            series_targets(AnalysisSeries::Dp),
        ),
        ConformEvaluator::new(
            Evaluator::from_test(Gn1Test::default()),
            series_targets(AnalysisSeries::Gn1),
        ),
        ConformEvaluator::new(
            Evaluator::from_test(Gn2Test::default()),
            series_targets(AnalysisSeries::Gn2),
        ),
        ConformEvaluator::new(
            Evaluator::new("AnyOf", move |ts, dev| any.is_schedulable(ts, dev)),
            series_targets(AnalysisSeries::AnyOf),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dp() -> ConformEvaluator {
        ConformEvaluator::new(
            Evaluator::from_test(DpTest::default()),
            vec![SchedulerKind::EdfFkf, SchedulerKind::EdfNf],
        )
    }

    #[test]
    fn classification_matrix() {
        let e = dp();
        assert_eq!(e.classify(true, &[true, true]), Classification::SoundAccept);
        assert_eq!(e.classify(true, &[true, false]), Classification::SoundnessViolation);
        assert_eq!(e.classify(true, &[false, true]), Classification::SoundnessViolation);
        assert_eq!(e.classify(false, &[false, true]), Classification::SoundReject);
        assert_eq!(e.classify(false, &[true, false]), Classification::PessimisticReject);
    }

    #[test]
    fn single_target_ignores_the_other_scheduler() {
        let gn1 = ConformEvaluator::new(
            Evaluator::from_test(Gn1Test::default()),
            vec![SchedulerKind::EdfNf],
        );
        // FkF missing is irrelevant to GN1's guarantee.
        assert_eq!(gn1.classify(true, &[false, true]), Classification::SoundAccept);
        assert_eq!(gn1.classify(false, &[false, true]), Classification::PessimisticReject);
    }

    #[test]
    fn violated_target_reports_first_missing_scheduler() {
        let e = dp();
        assert!(e.violated_target(&[true, true]).is_none());
        assert_eq!(e.violated_target(&[false, true]), Some(&SchedulerKind::EdfFkf));
        assert_eq!(e.violated_target(&[true, false]), Some(&SchedulerKind::EdfNf));
    }

    #[test]
    fn paper_suite_names_and_targets() {
        let evals = paper_conform_evaluators();
        let names: Vec<&str> = evals.iter().map(|e| e.evaluator.name.as_str()).collect();
        assert_eq!(names, vec!["DP", "GN1", "GN2", "AnyOf"]);
        assert_eq!(evals[0].targets.len(), 2);
        assert_eq!(evals[1].targets, vec![SchedulerKind::EdfNf]);
        assert_eq!(evals[3].targets, vec![SchedulerKind::EdfNf]);
    }

    #[test]
    fn classification_ids_are_stable() {
        assert_eq!(Classification::SoundAccept.id(), "sound-accept");
        assert_eq!(Classification::SoundnessViolation.id(), "SOUNDNESS-VIOLATION");
    }

    #[test]
    #[should_panic(expected = "needs ≥ 1 targeted scheduler")]
    fn empty_target_list_is_rejected_at_construction() {
        let _ = ConformEvaluator::new(Evaluator::from_test(DpTest::default()), vec![]);
    }

    #[test]
    #[should_panic(expected = "not simulated")]
    fn unsimulated_target_is_rejected_loudly() {
        let e = ConformEvaluator::new(
            Evaluator::from_test(DpTest::default()),
            vec![SchedulerKind::EdfUs { threshold: 0.5 }],
        );
        let _ = e.classify(false, &[true, true]);
    }
}
