//! Tables 1–3 of the paper: three tasksets, each accepted by exactly one of
//! DP / GN1 / GN2 on a 10-column device.

use core::fmt::Write as _;
use fpga_rt_analysis::{DpTest, Gn1Test, Gn2Test, SchedTest};
use fpga_rt_model::{Fpga, Rat64, TaskSet, Time};
use fpga_rt_sim::{simulate_f64, Horizon, SchedulerKind, SimConfig};
use serde::{Deserialize, Serialize};

/// One paper table: the taskset in both numeric representations and the
/// verdicts the paper reports.
#[derive(Debug, Clone)]
pub struct TableCase {
    /// `"Table 1"`, `"Table 2"`, `"Table 3"`.
    pub name: &'static str,
    /// The taskset in `f64`.
    pub taskset: TaskSet<f64>,
    /// The taskset in exact rationals.
    pub taskset_exact: TaskSet<Rat64>,
    /// Paper verdicts `(DP, GN1, GN2)`.
    pub expected: (bool, bool, bool),
}

/// Verdict matrix row produced by running the three tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerdictRow {
    /// DP (Theorem 1) accepted.
    pub dp: bool,
    /// GN1 (Theorem 2) accepted.
    pub gn1: bool,
    /// GN2 (Theorem 3) accepted.
    pub gn2: bool,
}

impl VerdictRow {
    /// Evaluate all three tests (default configurations) in any numeric
    /// representation.
    pub fn evaluate<T: Time>(ts: &TaskSet<T>, device: &Fpga) -> Self {
        VerdictRow {
            dp: DpTest::default().is_schedulable(ts, device),
            gn1: Gn1Test::default().is_schedulable(ts, device),
            gn2: Gn2Test::default().is_schedulable(ts, device),
        }
    }

    /// As the `(DP, GN1, GN2)` tuple.
    pub fn as_tuple(&self) -> (bool, bool, bool) {
        (self.dp, self.gn1, self.gn2)
    }
}

fn exact(tuples: &[(i64, i64, i64, i64, u32)]) -> TaskSet<Rat64> {
    let tasks: Vec<_> = tuples
        .iter()
        .map(|&(cn, cd, d, t, a)| {
            (Rat64::new(cn, cd).unwrap(), Rat64::from_int(d), Rat64::from_int(t), a)
        })
        .collect();
    TaskSet::try_from_tuples(&tasks).unwrap()
}

/// The paper's device for Tables 1–3: 10 columns.
pub fn table_device() -> Fpga {
    Fpga::new(10).unwrap()
}

/// All three tables with the paper's expected verdicts.
pub fn paper_tables() -> Vec<TableCase> {
    vec![
        TableCase {
            name: "Table 1",
            taskset: TaskSet::try_from_tuples(&[(1.26, 7.0, 7.0, 9), (0.95, 5.0, 5.0, 6)]).unwrap(),
            taskset_exact: exact(&[(126, 100, 7, 7, 9), (95, 100, 5, 5, 6)]),
            expected: (true, false, false),
        },
        TableCase {
            name: "Table 2",
            taskset: TaskSet::try_from_tuples(&[(4.50, 8.0, 8.0, 3), (8.00, 9.0, 9.0, 5)]).unwrap(),
            taskset_exact: exact(&[(450, 100, 8, 8, 3), (800, 100, 9, 9, 5)]),
            expected: (false, true, false),
        },
        TableCase {
            name: "Table 3",
            taskset: TaskSet::try_from_tuples(&[(2.10, 5.0, 5.0, 7), (2.00, 7.0, 7.0, 7)]).unwrap(),
            taskset_exact: exact(&[(210, 100, 5, 5, 7), (200, 100, 7, 7, 7)]),
            expected: (false, false, true),
        },
    ]
}

/// Render the verdict matrix for one table in both numeric modes, matching
/// the paper's expected row.
pub fn render_table_case(case: &TableCase) -> String {
    let dev = table_device();
    let f = VerdictRow::evaluate(&case.taskset, &dev);
    let x = VerdictRow::evaluate(&case.taskset_exact, &dev);
    let mark = |b: bool| if b { "accept" } else { "reject" };
    let mut out = String::new();
    let _ = writeln!(out, "{} (A(H) = 10)", case.name);
    for (id, t) in case.taskset.iter() {
        let _ = writeln!(
            out,
            "  {id}: C={:<5} D={:<4} T={:<4} A={}",
            t.exec(),
            t.deadline(),
            t.period(),
            t.area()
        );
    }
    let _ = writeln!(out, "  {:<12} {:>8} {:>8} {:>8}", "", "DP", "GN1", "GN2");
    let e = case.expected;
    let _ = writeln!(out, "  {:<12} {:>8} {:>8} {:>8}", "paper", mark(e.0), mark(e.1), mark(e.2));
    let _ = writeln!(
        out,
        "  {:<12} {:>8} {:>8} {:>8}",
        "ours (f64)",
        mark(f.dp),
        mark(f.gn1),
        mark(f.gn2)
    );
    let _ = writeln!(
        out,
        "  {:<12} {:>8} {:>8} {:>8}",
        "ours (exact)",
        mark(x.dp),
        mark(x.gn1),
        mark(x.gn2)
    );
    out
}

/// Render the paper's Section-6 GN2 walkthrough for Table 3: every λ
/// candidate and both conditions per task.
pub fn render_gn2_walkthrough(ts: &TaskSet<f64>, device: &Fpga) -> String {
    let test = Gn2Test::default();
    let mut out = String::new();
    for k in 0..ts.len() {
        let _ = writeln!(out, "  τ{k}: λ candidates and conditions");
        for a in test.attempts_for_task(ts, device, k) {
            let _ = writeln!(
                out,
                "    λ={:.4} λk={:.4}  cond1: {:.4} {} {:.4}   cond2: {:.4} {} {:.4}  → {}",
                a.lambda,
                a.lambda_k,
                a.lhs1,
                if a.cond1 { "<" } else { "≥" },
                a.rhs1,
                a.lhs2,
                if a.cond2 { "<" } else { "≥" },
                a.rhs2,
                if a.cond1 || a.cond2 { "pass" } else { "fail" }
            );
        }
    }
    out
}

/// The `fpga-rt tables` report: each table's verdict matrix with a
/// simulation cross-check (synchronous release, both schedulers, 200·Tmax),
/// then the GN2 λ walkthrough for Table 3.
pub fn render_report() -> String {
    let dev = table_device();
    let cases = paper_tables();
    let mut out = String::new();
    for case in &cases {
        out.push_str(&render_table_case(case));
        for kind in [SchedulerKind::EdfFkf, SchedulerKind::EdfNf] {
            let name = kind.name();
            let cfg = SimConfig::default()
                .with_scheduler(kind)
                .with_horizon(Horizon::PeriodsOfTmax(200.0));
            let verdict = match simulate_f64(&case.taskset, &dev, &cfg)
                .expect("valid taskset")
                .first_miss()
            {
                None => "no miss within 200·Tmax".to_string(),
                Some(miss) => format!("first miss at t={:.3}", miss.time),
            };
            let _ = writeln!(out, "  simulation {name:>8}: {verdict}");
        }
        out.push('\n');
    }
    out.push_str("GN2 λ walkthrough for Table 3 (paper §6 worked example):\n");
    out.push_str(&render_gn2_walkthrough(&cases[2].taskset, &dev));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline reproduction: every table matches the paper's verdict
    /// matrix in *both* numeric modes.
    #[test]
    fn verdict_matrix_matches_paper() {
        let dev = table_device();
        for case in paper_tables() {
            let f = VerdictRow::evaluate(&case.taskset, &dev);
            assert_eq!(f.as_tuple(), case.expected, "{} (f64)", case.name);
            let x = VerdictRow::evaluate(&case.taskset_exact, &dev);
            assert_eq!(x.as_tuple(), case.expected, "{} (exact)", case.name);
        }
    }

    /// Exactly one test accepts each table — that is the point of the
    /// paper's examples (the tests are incomparable).
    #[test]
    fn each_table_is_accepted_by_exactly_one_test() {
        for case in paper_tables() {
            let n =
                [case.expected.0, case.expected.1, case.expected.2].iter().filter(|&&b| b).count();
            assert_eq!(n, 1, "{}", case.name);
        }
    }

    /// The exact and float tasksets denote the same numbers.
    #[test]
    fn exact_tasksets_match_floats() {
        for case in paper_tables() {
            let back = case.taskset_exact.map_time(|v| v.to_f64()).unwrap();
            assert_eq!(back, case.taskset, "{}", case.name);
        }
    }

    #[test]
    fn rendering_contains_verdicts() {
        let case = &paper_tables()[2];
        let s = render_table_case(case);
        assert!(s.contains("Table 3"));
        assert!(s.contains("accept"));
        assert!(s.contains("reject"));
        let w = render_gn2_walkthrough(&case.taskset, &table_device());
        assert!(w.contains("λ=0.4200"));
    }
}
