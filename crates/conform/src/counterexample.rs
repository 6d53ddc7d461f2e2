//! Minimized counterexamples for soundness violations.
//!
//! A `SOUNDNESS-VIOLATION` is only useful if a human can replay it, so the
//! engine ships each one as a self-contained record: the *minimized* task
//! tuples, the generator coordinates that produced the original draw
//! (`figure`/`bin`/`sample`/derived seed), the first missed job, and the
//! tail of the schedule trace leading into the miss (serialized through
//! [`fpga_rt_sim::Trace`]'s segment type).
//!
//! Minimization is deterministic greedy delta-debugging over tasks: drop
//! one task at a time (ascending index, restarting after every successful
//! drop) while the violation predicate — *evaluator still accepts AND the
//! targeted simulation still misses* — keeps holding. The fixpoint is
//! 1-minimal: removing any single remaining task destroys the
//! counterexample.

use fpga_rt_model::{Fpga, TaskSet};
use fpga_rt_sim::{simulate_f64, MissRecord, SimConfig, TraceSegment};
use serde::{Deserialize, Serialize};

/// How a taskset disproved a claimed guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// The evaluator accepted but a targeted simulation missed a deadline.
    SimMiss,
    /// The evaluator accepted a taskset the necessary test proves
    /// infeasible (`NEC` rejected) — a contradiction independent of any
    /// simulation horizon.
    NecessaryContradiction,
}

/// Upper bound on serialized trace segments per counterexample (the tail
/// leading into the miss; earlier segments are dropped).
pub const TRACE_TAIL_SEGMENTS: usize = 64;

/// Most counterexamples a conformance or 2-D bridge run serializes: every
/// violation is counted, the first ones in unit order carry evidence.
pub const MAX_COUNTEREXAMPLES: usize = 8;

/// Keep `found` until `kept` holds [`MAX_COUNTEREXAMPLES`].
pub(crate) fn keep_capped<T>(kept: &mut Vec<T>, found: Vec<T>) {
    let room = MAX_COUNTEREXAMPLES.saturating_sub(kept.len());
    kept.extend(found.into_iter().take(room));
}

/// One replayable soundness counterexample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Counterexample {
    /// Workload id the draw came from (`"fig3a"`, …, or `"twod-bridge"`).
    pub figure: String,
    /// Utilization bin of the original draw.
    pub bin: usize,
    /// Sample index within the bin.
    pub sample: usize,
    /// Derived per-sample RNG seed (replays the original, unminimized
    /// draw through the binned generator).
    pub sample_seed: u64,
    /// Evaluator whose guarantee was violated.
    pub evaluator: String,
    /// Scheduler whose simulation missed (`None` for
    /// [`ViolationKind::NecessaryContradiction`]).
    pub scheduler: Option<String>,
    /// Violation flavour.
    pub kind: ViolationKind,
    /// Device size in columns.
    pub device_columns: u32,
    /// Simulation horizon factor (× Tmax) the violation was observed
    /// under — replaying with the same factor reproduces the miss.
    pub sim_horizon: f64,
    /// Minimized task tuples `(C, D, T, A)` — still accepted, still
    /// missing.
    pub tasks: Vec<(f64, f64, f64, u32)>,
    /// The first missed job of the minimized taskset's simulation.
    pub first_miss: Option<MissRecord>,
    /// Last ≤ [`TRACE_TAIL_SEGMENTS`] schedule segments before the miss.
    pub trace_tail: Vec<TraceSegment>,
}

impl Counterexample {
    /// The minimized taskset, rebuilt from the stored tuples.
    pub fn taskset(&self) -> Result<TaskSet<f64>, fpga_rt_model::ModelError> {
        TaskSet::try_from_tuples(&self.tasks)
    }
}

/// Generic greedy 1-minimization (see the [module docs](self) for the
/// loop): repeatedly drop the lowest-index element whose removal keeps
/// `still_violates` true, restarting after every successful drop, until
/// no single removal preserves the violation. Shared by the 1-D engine
/// and the 2-D bridge so both produce identically-shaped (deterministic,
/// 1-minimal) counterexamples.
///
/// `drop_one(current, index)` returns the collection without element
/// `index`, or `None` when that removal is not constructible.
pub fn minimize_with<T: Clone>(
    initial: &T,
    len: impl Fn(&T) -> usize,
    drop_one: impl Fn(&T, usize) -> Option<T>,
    still_violates: impl Fn(&T) -> bool,
) -> T {
    debug_assert!(still_violates(initial), "minimize_with needs a violating input");
    let mut current = initial.clone();
    'outer: loop {
        if len(&current) <= 1 {
            return current;
        }
        for drop in 0..len(&current) {
            let Some(candidate) = drop_one(&current, drop) else { continue };
            if still_violates(&candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        return current;
    }
}

/// [`minimize_with`] specialized to 1-D tasksets. The predicate must
/// hold for `ts` itself.
pub fn minimize_taskset(
    ts: &TaskSet<f64>,
    still_violates: impl Fn(&TaskSet<f64>) -> bool,
) -> TaskSet<f64> {
    minimize_with(
        ts,
        |t| t.len(),
        |t, drop| {
            let remaining: Vec<_> =
                t.iter().filter(|(id, _)| id.0 != drop).map(|(_, task)| *task).collect();
            TaskSet::new(remaining).ok()
        },
        still_violates,
    )
}

/// Simulate the minimized taskset once more with full tracing and capture
/// the first miss plus the trace tail (empty miss for necessary-test
/// contradictions whose simulation runs clean).
pub fn capture_miss_evidence(
    ts: &TaskSet<f64>,
    device: &Fpga,
    config: &SimConfig,
) -> (Option<MissRecord>, Vec<TraceSegment>) {
    let traced = config.clone().with_full_trace();
    match simulate_f64(ts, device, &traced) {
        Ok(outcome) => {
            let miss = outcome.first_miss().copied();
            let mut segments = outcome.trace.map(|t| t.segments).unwrap_or_default();
            if let Some(m) = &miss {
                // Keep only the schedule up to the miss instant; the run
                // stops there anyway under stop_at_first_miss.
                segments.retain(|s| s.from <= m.time);
            }
            if segments.len() > TRACE_TAIL_SEGMENTS {
                segments.drain(..segments.len() - TRACE_TAIL_SEGMENTS);
            }
            (miss, segments)
        }
        Err(_) => (None, Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_rt_sim::SchedulerKind;

    fn overload() -> TaskSet<f64> {
        // τ2 and τ3 alone already overload a 10-column device; τ0/τ1 are
        // harmless passengers the minimizer must shed.
        TaskSet::try_from_tuples(&[
            (0.5, 9.0, 9.0, 1),
            (0.5, 11.0, 11.0, 2),
            (4.5, 5.0, 5.0, 9),
            (4.5, 5.0, 5.0, 9),
        ])
        .unwrap()
    }

    fn misses(ts: &TaskSet<f64>) -> bool {
        let dev = Fpga::new(10).unwrap();
        !simulate_f64(ts, &dev, &SimConfig::default().with_scheduler(SchedulerKind::EdfNf))
            .unwrap()
            .schedulable()
    }

    #[test]
    fn minimization_sheds_passenger_tasks() {
        let ts = overload();
        assert!(misses(&ts));
        let min = minimize_taskset(&ts, misses);
        assert_eq!(min.len(), 2, "both heavy tasks are needed: {min:?}");
        for t in &min {
            assert_eq!(t.area(), 9);
        }
        // 1-minimality: dropping either remaining task kills the miss.
        for drop in 0..min.len() {
            let rest: Vec<_> = min.iter().filter(|(id, _)| id.0 != drop).map(|(_, t)| *t).collect();
            assert!(!misses(&TaskSet::new(rest).unwrap()));
        }
    }

    #[test]
    fn minimization_is_deterministic() {
        let ts = overload();
        let a = minimize_taskset(&ts, misses);
        let b = minimize_taskset(&ts, misses);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn miss_evidence_has_miss_and_bounded_tail() {
        let ts = overload();
        let dev = Fpga::new(10).unwrap();
        let cfg = SimConfig::default().with_scheduler(SchedulerKind::EdfNf);
        let (miss, tail) = capture_miss_evidence(&ts, &dev, &cfg);
        let miss = miss.expect("overload must miss");
        assert!(miss.time <= 5.0 + 1e-9);
        assert!(!tail.is_empty() && tail.len() <= TRACE_TAIL_SEGMENTS);
        assert!(tail.iter().all(|s| s.from <= miss.time));
    }

    #[test]
    fn counterexample_round_trips_through_json() {
        let ts = overload();
        let dev = Fpga::new(10).unwrap();
        let cfg = SimConfig::default().with_scheduler(SchedulerKind::EdfNf);
        let (first_miss, trace_tail) = capture_miss_evidence(&ts, &dev, &cfg);
        let cx = Counterexample {
            figure: "fig3a".into(),
            bin: 3,
            sample: 7,
            sample_seed: 42,
            evaluator: "DP".into(),
            scheduler: Some("EDF-NF".into()),
            kind: ViolationKind::SimMiss,
            device_columns: 10,
            sim_horizon: 100.0,
            tasks: ts.iter().map(|(_, t)| (t.exec(), t.deadline(), t.period(), t.area())).collect(),
            first_miss,
            trace_tail,
        };
        let json = serde_json::to_string(&cx).unwrap();
        let back: Counterexample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cx);
        assert_eq!(back.taskset().unwrap().len(), 4);
    }
}
