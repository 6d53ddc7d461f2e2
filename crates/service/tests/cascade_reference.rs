//! The online cascade against a from-scratch reference, through churn.
//!
//! An [`AdmissionController`] with the verdict cache off runs random
//! admit/release/query streams. In lockstep, every decision is recomputed
//! by a naive reference written here: it snapshots the evaluated set
//! (`live().snapshot_with(candidate)`, or `live().snapshot()` for a
//! query), runs the analysis crate's scalar reference of DP, GN1 and GN2
//! (`crates/analysis/tests/reference/`, straight-line arithmetic kept
//! apart from the kernel) on it from scratch, and applies the controller's
//! tier order, knife-edge rule and margin fold. The controller evaluates
//! GN1/GN2 on the analysis kernel and DP from the live set, so this pins
//! both to independent arithmetic decision by decision: tier, verdict and
//! margin bits, and the per-task rows of every `margins` request. A
//! decision the reference finds knife-edge must come back `tier: exact`,
//! unless exact arithmetic overflows on the set; then the controller's
//! documented fallback — the `f64` verdict, noted in the reason — must
//! match the reference's. The exact tier itself is not recomputed here.
//!
//! Two stream kinds: figure-generator tasks on 10 and 100 columns, and
//! loadgen's `poisson` stream on 100 columns with a share of admits
//! rewritten to deadlines below and above their periods, which grows the
//! live set to dozens of tasks.

mod poisson_stream;
#[path = "../../analysis/tests/reference/mod.rs"]
mod reference;

use fpga_rt_analysis::{SchedTest, TestReport};
use fpga_rt_gen::FigureWorkload;
use fpga_rt_model::{Fpga, Task, TaskHandle, TaskSet};
use fpga_rt_service::{AdmissionController, ControllerConfig, Decision, Tier};
use poisson_stream::{poisson_stream, PoissonOp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference::{RefDp, RefGn1, RefGn2};
use std::collections::VecDeque;

/// What the reference expects of one decision.
#[derive(Debug)]
struct Expected {
    /// Some margin was knife-edge: the exact tier must settle the decision,
    /// or, when exact arithmetic overflows, the `f64` fields below apply.
    knife: bool,
    accepted: bool,
    tier: Tier,
    margin: Option<f64>,
    /// `(canonical index, rhs − lhs)` rows when margins were requested and
    /// the deciding test's report is kept.
    rows: Option<Vec<(usize, f64)>>,
}

/// The knife-edge rule at the default `exact_margin`.
fn knife_edge(margin: f64, scale: f64) -> bool {
    margin.abs() <= ControllerConfig::default().exact_margin * scale.abs().max(1.0)
}

fn finite(m: f64) -> Option<f64> {
    m.is_finite().then_some(m)
}

fn rows(report: &TestReport) -> Vec<(usize, f64)> {
    report.checks.iter().map(|c| (c.task.0, c.rhs - c.lhs)).collect()
}

/// DP's signed slack over `snap`, `min_k g_k − US(Γ)` with
/// `g_k = Abnd·(1 − UT(τk)) + US(τk)`, plus `US(Γ)` folded in order.
fn dp_slack(snap: &TaskSet<f64>, device: &Fpga) -> (f64, f64) {
    let abnd = (i64::from(device.columns()) - i64::from(snap.amax()) + 1) as f64;
    let us = snap.iter().fold(0.0, |acc, (_, t)| acc + t.system_utilization());
    let min_g = snap
        .iter()
        .map(|(_, t)| abnd * (1.0 - t.time_utilization()) + t.system_utilization())
        .fold(f64::INFINITY, f64::min);
    (min_g - us, us)
}

/// The controller's cascade, recomputed from scratch on `snap`.
fn reference(snap: &TaskSet<f64>, device: &Fpga, want_margins: bool) -> Expected {
    let (dp_margin, us) = dp_slack(snap, device);
    let dp = RefDp::default().check(snap, device);
    assert_eq!(dp.accepted(), dp_margin >= 0.0, "DP verdict and slack disagree on {snap:?}");
    if dp.accepted() && !knife_edge(dp_margin, us) {
        return Expected {
            knife: false,
            accepted: true,
            tier: Tier::IncrementalDp,
            margin: finite(dp_margin),
            rows: want_margins.then(|| rows(&dp)),
        };
    }
    let mut knife = knife_edge(dp_margin, us);
    let mut best = dp_margin;
    let gn1 = RefGn1::default().check(snap, device);
    knife |= knife_edge(gn1.margin(), us);
    best = best.max(gn1.margin());
    let decided = if gn1.accepted() {
        Some((Tier::Gn1, gn1))
    } else {
        let gn2 = RefGn2::default().check(snap, device);
        knife |= knife_edge(gn2.margin(), us);
        best = best.max(gn2.margin());
        gn2.accepted().then_some((Tier::Gn2, gn2))
    };
    match decided {
        Some((tier, report)) => Expected {
            knife,
            accepted: true,
            tier,
            margin: finite(report.margin()),
            rows: want_margins.then(|| rows(&report)),
        },
        // Reachable only on a knife edge: a clear DP accept returned above.
        None if dp.accepted() => Expected {
            knife,
            accepted: true,
            tier: Tier::IncrementalDp,
            margin: finite(dp_margin),
            rows: None,
        },
        None => {
            Expected { knife, accepted: false, tier: Tier::Gn2, margin: finite(best), rows: None }
        }
    }
}

/// Assert one controller decision against the reference's expectation.
/// `handle_at` maps a canonical index of the evaluated set to its live
/// handle (accepted candidates are committed before rows are mapped).
fn check_decision(
    got: &Decision,
    want: &Expected,
    handle_at: impl Fn(usize) -> Option<u64>,
    context: &str,
) {
    if want.knife {
        if got.tier == Tier::Exact {
            return;
        }
        let reason = got.reason.as_deref().unwrap_or("");
        assert!(reason.contains("exact re-check unavailable"), "{context}: {got:?} is not exact");
    }
    assert_eq!(got.accepted, want.accepted, "{context}: verdict of {got:?}");
    assert_eq!(got.tier, want.tier, "{context}: tier of {got:?}");
    assert_eq!(
        got.margin.map(f64::to_bits),
        want.margin.map(f64::to_bits),
        "{context}: margin of {got:?}"
    );
    let got_rows = got
        .per_task
        .as_ref()
        .map(|rs| rs.iter().map(|r| (r.index, r.handle, r.margin.to_bits())).collect::<Vec<_>>());
    let want_rows = want
        .rows
        .as_ref()
        .map(|rs| rs.iter().map(|&(i, m)| (i, handle_at(i), m.to_bits())).collect::<Vec<_>>());
    assert_eq!(got_rows, want_rows, "{context}: per-task rows");
}

/// One op of a lockstep stream.
enum Op {
    Admit(Task<f64>, bool),
    /// Release the live handle at this position of the FIFO (wrapped).
    Release(usize),
    Query(bool),
}

/// Drive `ops` through a cache-off controller and the reference in
/// lockstep; returns the largest live set reached.
fn lockstep(device: Fpga, ops: impl IntoIterator<Item = Op>) -> usize {
    let mut ctl = AdmissionController::new(device, ControllerConfig::default());
    let mut live: VecDeque<TaskHandle> = VecDeque::new();
    let mut peak = 0;
    for (step, op) in ops.into_iter().enumerate() {
        match op {
            Op::Admit(task, want_margins) => {
                let snap = ctl.live().snapshot_with(&task).expect("non-empty");
                let want = reference(&snap, &device, want_margins);
                let (got, handle) = ctl.admit(task, want_margins);
                assert_eq!(handle.is_some(), got.accepted, "step {step}: handle iff accepted");
                live.extend(handle);
                let context = format!("step {step}: admit {task:?}");
                check_decision(&got, &want, |i| ctl.live().handle_at(i).map(|h| h.0), &context);
            }
            Op::Release(at) if !live.is_empty() => {
                let handle = live.remove(at % live.len()).expect("in range");
                ctl.release(handle).expect("live handle releases");
            }
            Op::Release(_) | Op::Query(_) => {
                let want_margins = matches!(op, Op::Query(true));
                let got = ctl.query(want_margins);
                match ctl.live().snapshot() {
                    Ok(snap) => {
                        let want = reference(&snap, &device, want_margins);
                        let handle_at = |i| ctl.live().handle_at(i).map(|h| h.0);
                        check_decision(&got, &want, handle_at, &format!("step {step}: query"));
                    }
                    // The empty set: DP's busy-area bound A(H) + 1 as the
                    // margin, and no rows even when margins were requested.
                    Err(_) => {
                        assert!(got.accepted && got.tier == Tier::IncrementalDp);
                        let bound = f64::from(device.columns() + 1);
                        assert_eq!(got.margin, Some(bound), "step {step}: empty-set margin");
                        assert_eq!(got.per_task, None, "step {step}: empty-set rows");
                    }
                }
            }
        }
        peak = peak.max(ctl.len());
    }
    peak
}

/// Tasks from three draws of a figure generator, areas folded onto a
/// `columns`-wide device.
fn figure_pool(fig: usize, columns: u32, rng: &mut StdRng) -> Vec<Task<f64>> {
    let workload = &FigureWorkload::all()[fig];
    let mut pool = Vec::new();
    for _ in 0..3 {
        for t in workload.spec.generate(rng).tasks() {
            let area = (t.area() - 1) % columns + 1;
            pool.push(Task::new(t.exec(), t.deadline(), t.period(), area).expect("valid"));
        }
    }
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Figure-distribution churn on 10 and 100 columns.
    #[test]
    fn figure_streams_match_the_reference(
        seed in 0u64..u64::MAX,
        fig in 0usize..4,
        wide in (0u32..2).prop_map(|w| w == 1),
    ) {
        let columns = if wide { 100 } else { 10 };
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = figure_pool(fig, columns, &mut rng);
        let ops: Vec<Op> = (0..160)
            .map(|_| match rng.gen_range(0u32..10) {
                0..=5 => Op::Admit(pool[rng.gen_range(0..pool.len())], rng.gen_bool(0.3)),
                6 | 7 => Op::Release(rng.gen_range(0..64)),
                _ => Op::Query(rng.gen_bool(0.5)),
            })
            .collect();
        lockstep(Fpga::new(columns).unwrap(), ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Admission-sized churn: loadgen's poisson ops for one session on 100
    /// columns (releases take the oldest live handle), with about a fifth
    /// of the admits moved to `D < T` and a fifth to `D > T`. The live set
    /// grows to 40–80 tasks, where GN2 settles most admissions.
    #[test]
    fn poisson_streams_match_the_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd1ff);
        let ops: Vec<Op> = poisson_stream(700, 1, 100, seed)
            .into_iter()
            .map(|(_, _, op)| match op {
                PoissonOp::Admit(exec, deadline, period, area) => {
                    let deadline = match rng.gen_range(0u32..5) {
                        0 => (period * rng.gen_range(0.5..1.0)).max(exec),
                        1 => period * rng.gen_range(1.0..2.0),
                        _ => deadline,
                    };
                    let task = Task::new(exec, deadline, period, area).expect("valid");
                    Op::Admit(task, rng.gen_bool(0.25))
                }
                PoissonOp::Release => Op::Release(0),
                PoissonOp::Query => Op::Query(rng.gen_bool(0.25)),
            })
            .collect();
        let peak = lockstep(Fpga::new(100).unwrap(), ops);
        prop_assert!(peak >= 40, "the live set peaked at {} tasks", peak);
    }
}

/// The paper's Table 1 pair on 10 columns: the reference finds the second
/// admission knife-edge, and the controller settles it in the exact tier.
#[test]
fn knife_edge_admission_comes_back_exact() {
    let ops = [
        Op::Admit(Task::new(1.26, 7.0, 7.0, 9).unwrap(), false),
        Op::Admit(Task::new(0.95, 5.0, 5.0, 6).unwrap(), true),
        Op::Query(true),
    ];
    lockstep(Fpga::new(10).unwrap(), ops);
    let mut ctl = AdmissionController::new(Fpga::new(10).unwrap(), ControllerConfig::default());
    ctl.admit(Task::new(1.26, 7.0, 7.0, 9).unwrap(), false);
    let snap = ctl.live().snapshot_with(&Task::new(0.95, 5.0, 5.0, 6).unwrap()).unwrap();
    assert!(reference(&snap, &Fpga::new(10).unwrap(), false).knife);
    let (dec, _) = ctl.admit(Task::new(0.95, 5.0, 5.0, 6).unwrap(), false);
    assert_eq!(dec.tier, Tier::Exact);
}
