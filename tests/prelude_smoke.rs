//! Smoke test for the `fpga_rt::prelude` re-export surface: everything a
//! downstream user touches in the quickstart — model construction, the
//! three bound tests, the composite, reports, exact arithmetic, the
//! simulator and JSON round-tripping — exercised end-to-end through the
//! facade alone, so the re-exports stay compile-checked.

use fpga_rt::prelude::*;

/// Table 3 of the paper on a 10-column device: rejected by DP and GN1,
/// accepted by GN2 — the discriminating example the facade docs use.
fn table3() -> (TaskSet<f64>, Fpga) {
    let ts = TaskSet::try_from_tuples(&[(2.10, 5.0, 5.0, 7), (2.00, 7.0, 7.0, 7)]).unwrap();
    (ts, Fpga::new(10).unwrap())
}

#[test]
fn quickstart_flow_through_prelude_only() {
    let (ts, fpga) = table3();

    assert!(!DpTest::default().is_schedulable(&ts, &fpga));
    assert!(!Gn1Test::default().is_schedulable(&ts, &fpga));
    assert!(Gn2Test::default().is_schedulable(&ts, &fpga));

    let any = AnyOfTest::paper_suite();
    assert!(any.is_schedulable(&ts, &fpga));

    let outcome =
        sim::simulate(&ts, &fpga, &SimConfig::default().with_scheduler(SchedulerKind::EdfNf))
            .unwrap();
    assert!(outcome.schedulable());
}

#[test]
fn reports_expose_verdicts_through_prelude() {
    let (ts, fpga) = table3();
    let report: TestReport = Gn2Test::default().check(&ts, &fpga);
    assert!(matches!(report.verdict, Verdict::Accepted));
    let report: TestReport = DpTest::default().check(&ts, &fpga);
    assert!(matches!(report.verdict, Verdict::Rejected { .. }));
}

#[test]
fn exact_arithmetic_and_model_types_reachable() {
    // Same taskset in exact arithmetic; verdicts must agree with f64 here.
    let c1 = Rat64::ratio(210, 100);
    let c2 = Rat64::ratio(200, 100);
    let ts: TaskSet<Rat64> = TaskSet::try_from_tuples(&[
        (c1, Rat64::from_int(5), Rat64::from_int(5), 7),
        (c2, Rat64::from_int(7), Rat64::from_int(7), 7),
    ])
    .unwrap();
    let fpga = Fpga::new(10).unwrap();
    assert!(Gn2Test::default().is_schedulable(&ts, &fpga));
    assert!(!Gn1Test::default().is_schedulable(&ts, &fpga));

    let task: &Task<Rat64> = ts.task(TaskId(0).0);
    assert_eq!(task.area(), 7);

    // Constructor validation surfaces ModelError through the facade.
    let err: ModelError = Fpga::new(0).unwrap_err();
    assert!(!err.to_string().is_empty());

    // Time is usable as the generic numeric abstraction.
    fn utilization<T: Time>(ts: &TaskSet<T>) -> f64 {
        ts.system_utilization().to_f64()
    }
    assert!((utilization(&ts) - 4.94).abs() < 1e-9);
}

#[test]
fn admission_controller_reachable_through_prelude() {
    let mut controller =
        AdmissionController::new(Fpga::new(10).unwrap(), ControllerConfig::default());
    let (decision, handle) = controller.admit(Task::implicit(1.0, 10.0, 3).unwrap(), false);
    assert!(decision.accepted);
    assert_eq!(decision.tier, Tier::IncrementalDp);
    controller.release(handle.unwrap()).unwrap();
    assert!(controller.is_empty());

    // The live set and its DP bound are usable directly too.
    let mut live: LiveTaskSet<f64> = LiveTaskSet::new();
    let h: TaskHandle = live.admit(Task::implicit(1.0, 10.0, 3).unwrap());
    assert!(DpTest::default().live_slack(&live, None, &Fpga::new(10).unwrap()).accepted);
    live.remove(h).unwrap();

    // And the serve session config type is exported for embedding.
    let config = ServeConfig { deterministic: true, ..ServeConfig::new(10) };
    assert_eq!(config.columns, 10);
}

#[test]
fn simulator_outcome_round_trips_as_json() {
    let (ts, fpga) = table3();
    let outcome: SimOutcome =
        sim::simulate(&ts, &fpga, &SimConfig::default().with_scheduler(SchedulerKind::EdfFkf))
            .unwrap();
    // The taskset (not the outcome) is the serde surface users persist.
    let json = serde_json::to_string(&ts).unwrap();
    let back: TaskSet<f64> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, ts);
    assert!(outcome.schedulable());
}
