//! The analysis kernel: the one implementation of Theorems 1–3.
//!
//! Every evaluation of the DP, GN1 and GN2 inequalities — Lemma 4's time
//! work `Wi` and Lemma 7's `βλk(i)` included — runs here: the sweep and
//! conformance engines, the admission controller's tiers, the reports of
//! [`SchedTest::check`](crate::SchedTest::check), the GN2 walkthrough and
//! the multiprocessor ancestors in [`crate::mp`] all call it.
//!
//! The kernel is generic over [`Time`] and computes with its `checked_*`
//! operations. It has two instances:
//!
//! * **`f64`**, the hot path. `checked_*` never fails in `f64`, so the
//!   instance performs exactly the formulas' floating-point operations, in
//!   order. [`BatchAnalyzer`]'s `analyze*` methods run it at the paper's
//!   configurations with no per-taskset heap allocation.
//! * **[`Rat64`](fpga_rt_model::Rat64)**, for knife-edge verdicts. A
//!   reduced value that leaves `i64/i64` comes back as
//!   [`ArithmeticOverflow`] from the fallible entry points,
//!   [`BatchAnalyzer::evaluate`] and
//!   [`SchedTest::try_check`](crate::SchedTest::try_check).
//!
//! [`TaskSetBatch`] packs tasksets into structure-of-arrays columns, with
//! the per-task ratios and each taskset's sorted GN2 λ-candidate pool
//! computed once at pack time. GN2 costs O(N) per λ attempt and up to 2N
//! attempts per task; βλk's case 1 does not depend on λ, so once task k's
//! first attempt has failed the kernel evaluates it for every i into a
//! scratch column.
//!
//! `crates/analysis/tests/reference/` is an independent scalar copy of the
//! three tests, and `batch_equiv` compares both instances with it: `f64`
//! bit for bit, `Rat64` row for row.

use crate::dp::{self, DpConfig};
use crate::gn1::{Gn1BetaDenominator, Gn1Config};
use crate::gn2::{Gn2Attempt, Gn2Case2, Gn2Config, Gn2LambdaSearch};
use crate::report::{TaskCheck, TestReport, Verdict};
use fpga_rt_model::{Fpga, ModelError, Task, TaskId, TaskSet, Time};

/// The four analytic series the kernel computes, in the fixed order the
/// sweep and conformance engines report them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisSeries {
    /// Theorem 1 — the Danne–Platzner utilization bound with the integer
    /// correction.
    Dp,
    /// Theorem 2 — the BCL-style interference test for EDF-NF.
    Gn1,
    /// Theorem 3 — the BAK2-style λ-extended busy-window test.
    Gn2,
    /// The Section-6 composite: accept iff any component accepts.
    AnyOf,
}

impl AnalysisSeries {
    /// All four series in report order.
    pub const ALL: [AnalysisSeries; 4] =
        [AnalysisSeries::Dp, AnalysisSeries::Gn1, AnalysisSeries::Gn2, AnalysisSeries::AnyOf];

    /// The series name used across sweep/conformance artifacts — identical
    /// to the tests' [`SchedTest::name`](crate::SchedTest::name)s, so the
    /// batch and closure paths label their curves alike.
    pub fn name(self) -> &'static str {
        match self {
            AnalysisSeries::Dp => "DP",
            AnalysisSeries::Gn1 => "GN1",
            AnalysisSeries::Gn2 => "GN2",
            AnalysisSeries::AnyOf => "AnyOf",
        }
    }
}

/// One of Theorems 1–3 with its configuration: what
/// [`BatchAnalyzer::evaluate`] evaluates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Theorem {
    /// Theorem 1 (`DpTest`).
    Dp(DpConfig),
    /// Theorem 2 (`Gn1Test`).
    Gn1(Gn1Config),
    /// Theorem 3 (`Gn2Test`).
    Gn2(Gn2Config),
}

/// Exact arithmetic could not represent an intermediate value of the
/// analysis (a reduced `Rat64` left `i64/i64`). Never produced by `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArithmeticOverflow;

impl core::fmt::Display for ArithmeticOverflow {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("exact arithmetic overflowed i64 for this taskset")
    }
}

impl std::error::Error for ArithmeticOverflow {}

/// The infallible callers' side of the contract (`SchedTest::check` and the
/// other non-`try` APIs): an overflow panics, as the `Rat64` operators do.
pub(crate) fn exact<R>(value: Option<R>) -> R {
    value.unwrap_or_else(|| panic!("Rat64 overflow: {ArithmeticOverflow}"))
}

/// One series verdict for one taskset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchVerdict {
    /// `true` when the sufficient condition holds.
    pub accepted: bool,
    /// `(lhs, rhs)` of the deciding inequality — the last `TaskCheck` row
    /// of the test's report (the failing row on rejection, the final
    /// evaluated row on acceptance). `None` when the taskset was rejected
    /// by the precondition guard before any row was evaluated.
    pub margin: Option<(f64, f64)>,
    /// The signed slack the report reads,
    /// [`TestReport::margin`](crate::TestReport::margin): on acceptance
    /// the minimum `rhs − lhs` over the rows, on rejection the failing
    /// row's `rhs − lhs`, and `−∞` when the precondition guard rejected.
    pub report_margin: f64,
}

impl BatchVerdict {
    fn precondition_reject() -> Self {
        BatchVerdict { accepted: false, margin: None, report_margin: f64::NEG_INFINITY }
    }

    /// The verdict of a per-task test whose final row was `last` (the
    /// failing row on rejection). `folded` is the `f64::min` fold of
    /// `rhs − lhs` over the passed rows, from `+∞` in row order.
    fn from_rows(accepted: bool, last: (f64, f64), folded: f64) -> Self {
        let report_margin = if accepted { folded } else { last.1 - last.0 };
        BatchVerdict { accepted, margin: Some(last), report_margin }
    }
}

/// All four series verdicts for one taskset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchVerdicts {
    /// Theorem 1.
    pub dp: BatchVerdict,
    /// Theorem 2.
    pub gn1: BatchVerdict,
    /// Theorem 3.
    pub gn2: BatchVerdict,
    /// The composite (derived from the three components: the margin is the
    /// first accepting component's, or GN2's when everything rejects —
    /// exactly the final check row of `AnyOfTest::paper_suite`'s report).
    pub any_of: BatchVerdict,
}

impl BatchVerdicts {
    /// Look up one series.
    pub fn series(&self, series: AnalysisSeries) -> BatchVerdict {
        match series {
            AnalysisSeries::Dp => self.dp,
            AnalysisSeries::Gn1 => self.gn1,
            AnalysisSeries::Gn2 => self.gn2,
            AnalysisSeries::AnyOf => self.any_of,
        }
    }
}

/// A population of tasksets packed into contiguous structure-of-arrays
/// columns, in `f64` (the default) or any other [`Time`].
///
/// `push` derives the per-task ratios and sorts the taskset's GN2
/// λ-candidate pool once, amortized over every test and λ attempt; `clear`
/// keeps the allocations, so a reused batch allocates nothing per taskset.
#[derive(Debug, Clone, Default)]
pub struct TaskSetBatch<T = f64> {
    /// One entry per packed taskset, so an empty batch owns no allocation.
    sets: Vec<SetEnd>,
    exec: Vec<T>,
    deadline: Vec<T>,
    period: Vec<T>,
    area: Vec<u32>,
    /// `Ak` as a `T` (`Time::from_u32`, precomputed).
    area_f: Vec<T>,
    /// `Ck/Tk`.
    ut: Vec<T>,
    /// `Ck·Ak/Tk`.
    us: Vec<T>,
    /// `Ck/Dk`.
    density: Vec<T>,
    /// Sorted deduped λ candidates ({uᵢ} ∪ {Cᵢ/Dᵢ : Dᵢ > Tᵢ}) per taskset.
    cand: Vec<T>,
}

/// Where taskset `i`'s columns and λ-candidate pool end (and taskset
/// `i + 1`'s begin), and its area extremes.
#[derive(Debug, Clone, Copy)]
struct SetEnd {
    end: usize,
    cand_end: usize,
    amax: u32,
    amin: u32,
}

impl TaskSetBatch {
    /// An empty batch.
    pub fn new() -> Self {
        TaskSetBatch::default()
    }

    /// Pack one taskset: copy the columns, derive the ratios and
    /// aggregates, and sort this taskset's λ-candidate pool.
    pub fn push(&mut self, taskset: &TaskSet<f64>) {
        self.push_tasks(taskset.tasks()).expect("f64 arithmetic cannot overflow");
    }
}

impl<T: Time> TaskSetBatch<T> {
    /// Number of packed tasksets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// `true` when no taskset is packed.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Total number of packed tasks across all tasksets.
    pub fn total_tasks(&self) -> usize {
        self.exec.len()
    }

    /// Drop all packed tasksets, keeping the column allocations.
    pub fn clear(&mut self) {
        self.sets.clear();
        self.area.clear();
        self.columns().into_iter().for_each(Vec::clear);
    }

    /// The `T` columns, for bulk `clear` and `reserve`.
    fn columns(&mut self) -> [&mut Vec<T>; 8] {
        let Self { exec, deadline, period, area_f, ut, us, density, cand, .. } = self;
        [exec, deadline, period, area_f, ut, us, density, cand]
    }

    /// Pack one taskset given as its tasks in order; `None` when a derived
    /// ratio overflows, leaving the batch to be cleared by the caller.
    fn push_tasks<'a>(&mut self, tasks: impl IntoIterator<Item = &'a Task<T>>) -> Option<()> {
        let mut amax = 0u32;
        let mut amin = u32::MAX;
        for task in tasks {
            let (c, d, p, a) = (task.exec(), task.deadline(), task.period(), task.area());
            let area_f = T::from_u32(a);
            let ut = c.checked_div(p)?;
            let us = c.checked_mul(area_f)?.checked_div(p)?;
            let density = c.checked_div(d)?;
            self.exec.push(c);
            self.deadline.push(d);
            self.period.push(p);
            self.area.push(a);
            self.area_f.push(area_f);
            self.ut.push(ut);
            self.us.push(us);
            self.density.push(density);
            amax = amax.max(a);
            amin = amin.min(a);
            // λ discontinuity points: every uᵢ, plus Cᵢ/Dᵢ for post-period
            // deadlines.
            self.cand.push(ut);
            if d > p {
                self.cand.push(density);
            }
        }
        let cand_start = self.sets.last().map_or(0, |set| set.cand_end);
        let pool = &mut self.cand[cand_start..];
        pool.sort_unstable_by(|a, b| a.partial_cmp(b).expect("validated times are ordered"));
        // In-place dedup of the freshly sorted pool.
        let mut keep = 0;
        for i in 0..pool.len() {
            if i == 0 || pool[i] != pool[keep - 1] {
                pool[keep] = pool[i];
                keep += 1;
            }
        }
        self.cand.truncate(cand_start + keep);

        self.sets.push(SetEnd { end: self.exec.len(), cand_end: self.cand.len(), amax, amin });
        Some(())
    }

    /// Borrow taskset `i`'s columns.
    fn view(&self, i: usize) -> View<'_, T> {
        let set = self.sets[i];
        let (start, cand_start) = i.checked_sub(1).map_or((0, 0), |prev| {
            let prev = self.sets[prev];
            (prev.end, prev.cand_end)
        });
        let r = start..set.end;
        View {
            exec: &self.exec[r.clone()],
            deadline: &self.deadline[r.clone()],
            period: &self.period[r.clone()],
            area: &self.area[r.clone()],
            area_f: &self.area_f[r.clone()],
            ut: &self.ut[r.clone()],
            us: &self.us[r.clone()],
            density: &self.density[r],
            cand: &self.cand[cand_start..set.cand_end],
            amax: set.amax,
            amin: set.amin,
        }
    }
}

/// One packed taskset's columns and aggregates.
struct View<'a, T> {
    exec: &'a [T],
    deadline: &'a [T],
    period: &'a [T],
    area: &'a [u32],
    area_f: &'a [T],
    ut: &'a [T],
    us: &'a [T],
    density: &'a [T],
    cand: &'a [T],
    amax: u32,
    amin: u32,
}

/// Reusable pack buffer for repeated single-taskset kernel calls.
///
/// Engines keep one per worker (the `fpga-rt-pool` shard-state factory
/// builds it) and the admission controller keeps one per session, so the
/// steady-state hot path performs no heap allocation. A fresh
/// `ScratchSpace` is also cheap — empty `Vec`s allocate nothing — so
/// one-off calls construct one on the spot.
#[derive(Debug, Clone, Default)]
pub struct ScratchSpace<T = f64> {
    batch: TaskSetBatch<T>,
    /// GN2's hoisted case-1 column `βλk(i)` for the current task k.
    case1: Vec<T>,
    /// GN2's λ candidates for the current task k under grid search.
    grid: Vec<T>,
}

impl ScratchSpace {
    /// An empty scratch space (no allocation until first use).
    pub fn new() -> Self {
        ScratchSpace::default()
    }

    /// Pack one taskset, given as its (validated, non-empty) tasks in order,
    /// replacing whatever was packed before.
    pub fn pack<'a>(&mut self, tasks: impl IntoIterator<Item = &'a Task<f64>>) {
        self.try_pack(tasks).expect("f64 arithmetic cannot overflow");
    }
}

impl<T: Time> ScratchSpace<T> {
    /// A fresh scratch space holding `taskset`, packed with one allocation
    /// per column; `None` when a derived ratio overflows.
    fn packed(taskset: &TaskSet<T>) -> Option<Self> {
        let mut scratch = ScratchSpace::default();
        scratch.batch.area.reserve(taskset.len());
        scratch.batch.columns().into_iter().for_each(|column| column.reserve(taskset.len()));
        scratch.try_pack(taskset.tasks()).ok()?;
        Some(scratch)
    }

    /// [`ScratchSpace::pack`] in any [`Time`]: `Err` when a derived ratio
    /// overflows, which leaves nothing packed.
    pub fn try_pack<'a>(
        &mut self,
        tasks: impl IntoIterator<Item = &'a Task<T>>,
    ) -> Result<(), ArithmeticOverflow> {
        self.batch.clear();
        let packed = self.batch.push_tasks(tasks);
        if packed.is_none() {
            self.batch.clear();
        }
        packed.ok_or(ArithmeticOverflow)
    }
}

/// The kernel's evaluator. It is stateless: all buffers live in
/// [`ScratchSpace`] / [`TaskSetBatch`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchAnalyzer;

impl BatchAnalyzer {
    /// The analyzer.
    pub fn new() -> Self {
        BatchAnalyzer
    }

    /// Evaluate all four paper-default series for one taskset, packing it
    /// into `scratch`'s reused buffer.
    pub fn analyze(
        &self,
        taskset: &TaskSet<f64>,
        device: &Fpga,
        scratch: &mut ScratchSpace,
    ) -> BatchVerdicts {
        scratch.pack(taskset.tasks());
        let ScratchSpace { batch, case1, .. } = scratch;
        verdicts(&batch.view(0), device.columns(), case1)
    }

    /// Evaluate one paper-default series for one taskset (`AnyOf`
    /// short-circuits its components exactly like `AnyOfTest`).
    pub fn analyze_series(
        &self,
        series: AnalysisSeries,
        taskset: &TaskSet<f64>,
        device: &Fpga,
        scratch: &mut ScratchSpace,
    ) -> BatchVerdict {
        scratch.pack(taskset.tasks());
        self.analyze_packed(series, device, scratch)
    }

    /// Evaluate one paper-default series for the taskset last packed with
    /// [`ScratchSpace::pack`], so several series can share one packing.
    ///
    /// # Panics
    ///
    /// When nothing was packed into `scratch`.
    pub fn analyze_packed(
        &self,
        series: AnalysisSeries,
        device: &Fpga,
        scratch: &mut ScratchSpace,
    ) -> BatchVerdict {
        let ScratchSpace { batch, case1, .. } = scratch;
        let v = batch.view(0);
        let cols = device.columns();
        if precondition(&v, cols).is_some() {
            return BatchVerdict::precondition_reject();
        }
        match series {
            AnalysisSeries::AnyOf => any_of(|series| paper(series, &v, cols, case1)),
            series => paper(series, &v, cols, case1),
        }
    }

    /// Evaluate all four paper-default series for every packed taskset,
    /// filling `out` (cleared first) with one [`BatchVerdicts`] per taskset
    /// in pack order.
    pub fn analyze_batch(&self, batch: &TaskSetBatch, device: &Fpga, out: &mut Vec<BatchVerdicts>) {
        out.clear();
        out.reserve(batch.len());
        let mut case1 = Vec::new();
        for i in 0..batch.len() {
            out.push(verdicts(&batch.view(i), device.columns(), &mut case1));
        }
    }

    /// Evaluate one theorem, in any configuration and [`Time`], on the taskset
    /// last packed with [`ScratchSpace::try_pack`], appending each evaluated
    /// task's [`TaskCheck`] to `rows` when given.
    ///
    /// # Panics
    ///
    /// When nothing was packed into `scratch`.
    pub fn evaluate<T: Time>(
        &self,
        theorem: Theorem,
        device: &Fpga,
        scratch: &mut ScratchSpace<T>,
        rows: Option<&mut Vec<TaskCheck>>,
    ) -> Result<BatchVerdict, ArithmeticOverflow> {
        let ScratchSpace { batch, case1, grid } = scratch;
        let v = batch.view(0);
        let cols = device.columns();
        if precondition(&v, cols).is_some() {
            return Ok(BatchVerdict::precondition_reject());
        }
        run(theorem, &v, cols, case1, grid, rows).ok_or(ArithmeticOverflow)
    }
}

/// `theorem` on `v`: the one dispatch over the three kernels.
fn run<T: Time>(
    theorem: Theorem,
    v: &View<'_, T>,
    cols: u32,
    case1: &mut Vec<T>,
    grid: &mut Vec<T>,
    rows: Option<&mut Vec<TaskCheck>>,
) -> Option<BatchVerdict> {
    match theorem {
        Theorem::Dp(config) => dp_kernel(v, cols, config, rows),
        Theorem::Gn1(config) => gn1_kernel(v, cols, config, rows),
        Theorem::Gn2(config) => gn2_kernel(v, cols, &config, case1, grid, rows),
    }
}

/// The `f64` instance at the paper's configuration of a component series,
/// passed as a constant so that the hot loops are specialized on it.
#[inline(always)]
fn paper(
    series: AnalysisSeries,
    v: &View<'_, f64>,
    cols: u32,
    case1: &mut Vec<f64>,
) -> BatchVerdict {
    match series {
        AnalysisSeries::Dp => dp_kernel(v, cols, DpConfig::default(), None),
        AnalysisSeries::Gn1 => gn1_kernel(v, cols, Gn1Config::default(), None),
        _ => gn2_kernel(v, cols, &Gn2Config::default(), case1, &mut Vec::new(), None),
    }
    .expect("f64 arithmetic cannot overflow")
}

/// All four paper-default verdicts for one packed taskset.
fn verdicts(v: &View<'_, f64>, cols: u32, case1: &mut Vec<f64>) -> BatchVerdicts {
    if precondition(v, cols).is_some() {
        let reject = BatchVerdict::precondition_reject();
        return BatchVerdicts { dp: reject, gn1: reject, gn2: reject, any_of: reject };
    }
    let dp = paper(AnalysisSeries::Dp, v, cols, case1);
    let gn1 = paper(AnalysisSeries::Gn1, v, cols, case1);
    let gn2 = paper(AnalysisSeries::Gn2, v, cols, case1);
    BatchVerdicts { dp, gn1, gn2, any_of: any_of(|series| [dp, gn1, gn2][series as usize]) }
}

/// The composite's verdict from its components, evaluated lazily in
/// order like `AnyOfTest`: the first accepting component's, or GN2's when
/// all three reject.
///
/// The composite's report holds every evaluated component's rows. A
/// rejected component's smallest `rhs − lhs` is its failing row, which is
/// its `report_margin`, so an acceptance's report margin is the minimum
/// over the `report_margin`s of the components evaluated so far.
fn any_of(mut component: impl FnMut(AnalysisSeries) -> BatchVerdict) -> BatchVerdict {
    let dp = component(AnalysisSeries::Dp);
    if dp.accepted {
        return dp;
    }
    let gn1 = component(AnalysisSeries::Gn1);
    let before = dp.report_margin;
    if gn1.accepted {
        return BatchVerdict { report_margin: before.min(gn1.report_margin), ..gn1 };
    }
    let gn2 = component(AnalysisSeries::Gn2);
    if gn2.accepted {
        let before = before.min(gn1.report_margin);
        return BatchVerdict { report_margin: before.min(gn2.report_margin), ..gn2 };
    }
    gn2
}

/// The tests' shared precondition guard — every task fits the device and
/// has `Ck ≤ Dk` — or the rejection of the first task that violates it.
fn precondition<T: Time>(v: &View<'_, T>, cols: u32) -> Option<Verdict> {
    if let Some(k) = v.area.iter().position(|&a| a > cols) {
        let wide = ModelError::TaskWiderThanDevice { task: k, area: v.area[k], device: cols };
        return Some(Verdict::rejected(Some(TaskId(k)), wide.to_string()));
    }
    let k = TaskId(v.exec.iter().zip(v.deadline).position(|(&c, &d)| c > d)?);
    Some(Verdict::rejected(Some(k), format!("{k} has C > D and can never meet a deadline")))
}

/// Append one report row when rows are requested.
fn push_row(
    rows: &mut Option<&mut Vec<TaskCheck>>,
    k: usize,
    passed: bool,
    (lhs, rhs): (f64, f64),
    note: impl FnOnce(TaskId) -> String,
) {
    if let Some(rows) = rows.as_deref_mut() {
        let task = TaskId(k);
        rows.push(TaskCheck { task, passed, lhs, rhs, note: note(task) });
    }
}

/// Theorem 1 (`DpTest`): for every τk,
/// `US(Γ) ≤ Abnd·(1 − UT(τk)) + US(τk)` with `Abnd = A(H) − Amax (+ 1)`.
fn dp_kernel<T: Time>(
    v: &View<'_, T>,
    cols: u32,
    config: DpConfig,
    mut rows: Option<&mut Vec<TaskCheck>>,
) -> Option<BatchVerdict> {
    let abnd: T = dp::area_bound(config, v.amax, cols);
    // `US(Γ)`, folded in task order.
    let us_total = v.us.iter().try_fold(T::ZERO, |acc, &us| acc.checked_add(us))?;
    let lhs = us_total.to_f64();
    let mut margin = (0.0, 0.0);
    let mut folded = f64::INFINITY;
    for k in 0..v.exec.len() {
        let rhs = dp::capacity(abnd, v.ut[k], v.us[k])?;
        let passed = us_total <= rhs;
        margin = (lhs, rhs.to_f64());
        push_row(&mut rows, k, passed, margin, |id| {
            format!("US(Γ) ≤ Abnd·(1−UT({id})) + US({id}), Abnd={}", abnd.to_f64())
        });
        if !passed {
            return Some(BatchVerdict::from_rows(false, margin, folded));
        }
        folded = folded.min(margin.1 - margin.0);
    }
    Some(BatchVerdict::from_rows(true, margin, folded))
}

/// Lemma 4: the time work of τi in a deadline-aligned window of length
/// `Dk`, `Wi = Ni·Ci + min(Ci, max(Dk − Ni·Ti, 0))` with
/// `Ni = max(⌊(Dk − Di)/Ti⌋ + 1, 0)` jobs of τi wholly inside the window.
pub(crate) fn time_work_bound<T: Time>(ci: T, di: T, ti: T, dk: T) -> Option<T> {
    let ni = T::from_i64((dk.checked_sub(di)?.checked_div(ti)?.floor_i64() + 1).max(0));
    let carry = ci.min_t(dk.checked_sub(ni.checked_mul(ti)?)?.max_zero());
    ni.checked_mul(ci)?.checked_add(carry)
}

/// Theorem 2 (`Gn1Test`): for every τk,
/// `Σ_{i≠k} Ai·min(βi, 1 − Ck/Dk) < (A(H) − Ak (+ 1))·(1 − Ck/Dk)` with
/// `βi = Wi/Di` (paper) or `Wi/Dk` (BCL).
fn gn1_kernel<T: Time>(
    v: &View<'_, T>,
    cols: u32,
    config: Gn1Config,
    mut rows: Option<&mut Vec<TaskCheck>>,
) -> Option<BatchVerdict> {
    let n = v.exec.len();
    let window_dk = config.beta_denominator == Gn1BetaDenominator::WindowDk;
    let plus_one = i64::from(config.rhs_plus_one);
    let mut margin = (0.0, 0.0);
    let mut folded = f64::INFINITY;
    for k in 0..n {
        let slack = T::ONE.checked_sub(v.density[k])?;
        let abnd = T::from_i64(i64::from(cols) - i64::from(v.area[k]) + plus_one);
        let dk = v.deadline[k];
        let mut lhs = T::ZERO;
        for i in 0..n {
            if i == k {
                continue;
            }
            let w = time_work_bound(v.exec[i], v.deadline[i], v.period[i], dk)?;
            let beta = w.checked_div(if window_dk { dk } else { v.deadline[i] })?;
            lhs = lhs.checked_add(v.area_f[i].checked_mul(beta.min_t(slack))?)?;
        }
        let rhs = abnd.checked_mul(slack)?;
        let passed = lhs < rhs;
        margin = (lhs.to_f64(), rhs.to_f64());
        push_row(&mut rows, k, passed, margin, |_| {
            format!("Σ Ai·min(βi, 1−Ck/Dk) < {}·(1−Ck/Dk)", abnd.to_f64())
        });
        if !passed {
            return Some(BatchVerdict::from_rows(false, margin, folded));
        }
        folded = folded.min(margin.1 - margin.0);
    }
    Some(BatchVerdict::from_rows(true, margin, folded))
}

/// Lemma 7's `βλk(i)` (formula in [`crate::gn2`]) for task i of `v` in the
/// window of a task with deadline `dk`; `case1` supplies case 1, which does
/// not depend on λ ([`beta_case1`]).
#[inline(always)]
fn beta<T: Time>(
    v: &View<'_, T>,
    i: usize,
    dk: T,
    lambda: T,
    case2: T,
    case1: impl FnOnce() -> Option<T>,
) -> Option<T> {
    let ui = v.ut[i];
    if ui <= lambda {
        case1()
    } else if lambda >= v.density[i] {
        Some(case2)
    } else {
        ui.checked_add(v.exec[i].checked_sub(lambda.checked_mul(v.deadline[i])?)?.checked_div(dk)?)
    }
}

#[inline(always)]
fn beta_case1<T: Time>(v: &View<'_, T>, i: usize, dk: T) -> Option<T> {
    let (ui, ci, di) = (v.ut[i], v.exec[i], v.deadline[i]);
    let extended = ui
        .checked_mul(T::ONE.checked_sub(di.checked_div(dk)?)?)?
        .checked_add(ci.checked_div(dk)?)?;
    Some(ui.max_t(extended))
}

/// Case 2's value: `λ` (Baker) or `Ck/Tk` (as printed).
fn case2_value<T: Time>(case2: Gn2Case2, lambda: T, uk: T) -> T {
    match case2 {
        Gn2Case2::BakerLambda => lambda,
        Gn2Case2::PaperCkTk => uk,
    }
}

/// `βλk(i)` of `ti` in the window of `tk` (`Gn2Test::beta_lambda`).
pub(crate) fn beta_lambda<T: Time>(
    ti: &Task<T>,
    tk: &Task<T>,
    lambda: T,
    case2: Gn2Case2,
) -> Option<T> {
    let pair = TaskSet::new(vec![*ti, *tk]).expect("two validated tasks");
    on_packed(&pair, |v, _| {
        let dk = v.deadline[1];
        beta(v, 0, dk, lambda, case2_value(case2, lambda, v.ut[1]), || beta_case1(v, 0, dk))
    })
}

/// Task k's constants in Theorem 3, with the taskset's
/// `Abnd = A(H) − Amax + 1` and `Amin`.
struct Gn2Task<T> {
    uk: T,
    dk: T,
    /// `max(1, Tk/Dk)`, so that `λk = λ·scale`.
    scale: T,
    /// The largest λ with `λk ≤ 1`.
    lambda_max: T,
    abnd: T,
    amin: T,
}

impl<T: Time> Gn2Task<T> {
    fn new(v: &View<'_, T>, cols: u32, k: usize) -> Option<Self> {
        let dk = v.deadline[k];
        let scale = v.period[k].checked_div(dk)?.max_t(T::ONE);
        Some(Gn2Task {
            uk: v.ut[k],
            dk,
            scale,
            lambda_max: T::ONE.checked_div(scale)?,
            abnd: T::from_i64(i64::from(cols) - i64::from(v.amax) + 1),
            amin: T::from_u32(v.amin),
        })
    }
}

/// Task k's λ candidates: the (sorted, deduped) slice of the packed pool
/// inside `[Ck/Tk, λmax]`, merged in `grid` with `points + 1` evenly
/// spaced values from `Ck/Tk` under grid search.
fn candidates<'a, T: Time>(
    pool: &'a [T],
    t: &Gn2Task<T>,
    config: &Gn2Config,
    grid: &'a mut Vec<T>,
) -> Option<&'a [T]> {
    let lo = pool.partition_point(|&l| l < t.uk);
    let hi = pool.partition_point(|&l| l <= t.lambda_max).max(lo);
    match config.lambda_search {
        Gn2LambdaSearch::Grid { points } if points > 0 && t.lambda_max > t.uk => {
            grid.clear();
            grid.extend_from_slice(&pool[lo..hi]);
            let step = t.lambda_max.checked_sub(t.uk)?.checked_div(T::from_i64(points as i64))?;
            let mut lambda = t.uk;
            for _ in 0..=points {
                grid.push(lambda);
                lambda = lambda.checked_add(step)?;
            }
            grid.retain(|&l| l >= t.uk && l <= t.lambda_max);
            grid.sort_by(|a, b| a.partial_cmp(b).expect("validated times are ordered"));
            grid.dedup();
            Some(grid)
        }
        _ => Some(&pool[lo..hi]),
    }
}

/// Task k's attempt at one λ: both sides of both conditions of Theorem 3,
/// compared in `T` and reported in `f64` without `betas`. βλk's case 1
/// comes from `case1`; each `βλk(i)` goes to `each_beta` in task order.
#[inline(always)]
fn gn2_attempt<T: Time>(
    v: &View<'_, T>,
    t: &Gn2Task<T>,
    config: &Gn2Config,
    lambda: T,
    case1: impl Fn(usize) -> Option<T>,
    mut each_beta: impl FnMut(T),
) -> Option<Gn2Attempt> {
    let lambda_k = lambda.checked_mul(t.scale)?;
    let one_minus = T::ONE.checked_sub(lambda_k)?;
    let case2 = case2_value(config.case2, lambda, t.uk);
    let mut lhs1 = T::ZERO;
    let mut lhs2 = T::ZERO;
    for i in 0..v.exec.len() {
        let beta = beta(v, i, t.dk, lambda, case2, || case1(i))?;
        each_beta(beta);
        let a = v.area_f[i];
        lhs1 = lhs1.checked_add(a.checked_mul(beta.min_t(one_minus))?)?;
        lhs2 = lhs2.checked_add(a.checked_mul(beta.min_t(T::ONE))?)?;
    }
    let rhs1 = t.abnd.checked_mul(one_minus)?;
    let rhs2 = t.abnd.checked_sub(t.amin)?.checked_mul(one_minus)?.checked_add(t.amin)?;
    Some(Gn2Attempt {
        lambda: lambda.to_f64(),
        lambda_k: lambda_k.to_f64(),
        lhs1: lhs1.to_f64(),
        rhs1: rhs1.to_f64(),
        cond1: lhs1 < rhs1,
        lhs2: lhs2.to_f64(),
        rhs2: rhs2.to_f64(),
        cond2: if config.condition2_strict { lhs2 < rhs2 } else { lhs2 <= rhs2 },
        betas: Vec::new(),
    })
}

/// Theorem 3 (`Gn2Test`): for every τk some candidate λ must satisfy
/// condition 1 or 2. From task k's second λ attempt on, βλk's case 1
/// comes from `case1`, filled once for k (see the module docs). A task
/// with no passing λ reports the attempt closest to condition 2.
fn gn2_kernel<T: Time>(
    v: &View<'_, T>,
    cols: u32,
    config: &Gn2Config,
    case1: &mut Vec<T>,
    grid: &mut Vec<T>,
    mut rows: Option<&mut Vec<TaskCheck>>,
) -> Option<BatchVerdict> {
    let n = v.exec.len();
    let mut margin = (0.0, 0.0);
    let mut folded = f64::INFINITY;
    for k in 0..n {
        let t = Gn2Task::new(v, cols, k)?;
        let dk = t.dk;
        let fresh_case1 = |i: usize| beta_case1(v, i, dk);
        let mut passing = None;
        // The attempt with the smallest condition-2 deficit, `(lhs, rhs, λ)`.
        let mut best: Option<(f64, f64, f64)> = None;
        for (attempt, &lambda) in candidates(v.cand, &t, config, grid)?.iter().enumerate() {
            let a = if attempt == 0 {
                gn2_attempt(v, &t, config, lambda, fresh_case1, |_| ())?
            } else {
                if attempt == 1 {
                    case1.clear();
                    for i in 0..n {
                        case1.push(fresh_case1(i)?);
                    }
                }
                gn2_attempt(v, &t, config, lambda, |i| Some(case1[i]), |_| ())?
            };
            if best.map_or(true, |(bl, br, _)| a.lhs2 - a.rhs2 < bl - br) {
                best = Some((a.lhs2, a.rhs2, a.lambda));
            }
            if a.cond1 || a.cond2 {
                passing = Some(a);
                break;
            }
        }
        match passing {
            Some(a) => {
                let (via, lhs, rhs) =
                    if a.cond1 { ("cond1", a.lhs1, a.rhs1) } else { ("cond2", a.lhs2, a.rhs2) };
                margin = (lhs, rhs);
                push_row(&mut rows, k, true, margin, |_| {
                    format!("{via} holds at λ={:.6}", a.lambda)
                });
                folded = folded.min(rhs - lhs);
            }
            None => {
                let last = best.map_or((f64::INFINITY, 0.0), |(lhs, rhs, _)| (lhs, rhs));
                push_row(&mut rows, k, false, last, |_| match best {
                    Some((_, _, lambda)) => format!("no λ works; closest at λ={lambda:.6}"),
                    None => "no feasible λ candidate".to_string(),
                });
                return Some(BatchVerdict::from_rows(false, last, folded));
            }
        }
    }
    Some(BatchVerdict::from_rows(true, margin, folded))
}

/// The report of a test's [`SchedTest::try_check`](crate::SchedTest::try_check):
/// the precondition guard, then `theorem`'s rows and verdict.
pub(crate) fn report<T: Time>(
    theorem: Theorem,
    name: &str,
    taskset: &TaskSet<T>,
    device: &Fpga,
) -> Result<TestReport, ArithmeticOverflow> {
    let (test, cols) = (name.to_string(), device.columns());
    let mut scratch = ScratchSpace::packed(taskset).ok_or(ArithmeticOverflow)?;
    let ScratchSpace { batch, case1, grid } = &mut scratch;
    let v = batch.view(0);
    if let Some(verdict) = precondition(&v, cols) {
        return Ok(TestReport { test, verdict, checks: vec![] });
    }
    let mut checks = Vec::with_capacity(taskset.len());
    let verdict =
        run(theorem, &v, cols, case1, grid, Some(&mut checks)).ok_or(ArithmeticOverflow)?;
    let verdict = if verdict.accepted {
        Verdict::Accepted
    } else {
        let row = checks.last().expect("a rejection ends at its failing row");
        let (k, lhs, rhs) = (row.task, row.lhs, row.rhs);
        let reason = match theorem {
            Theorem::Dp(_) => format!("US(Γ)={lhs:.6} exceeds bound {rhs:.6} at {k}"),
            Theorem::Gn1(_) => format!("interference {lhs:.6} not below bound {rhs:.6} at {k}"),
            Theorem::Gn2(_) => format!("no λ satisfies condition 1 or 2 for {k}"),
        };
        Verdict::rejected(Some(k), reason)
    };
    Ok(TestReport { test, verdict, checks })
}

/// `f` on `taskset` packed on its own, with a λ-grid buffer.
fn on_packed<T: Time, R>(
    taskset: &TaskSet<T>,
    f: impl FnOnce(&View<'_, T>, &mut Vec<T>) -> Option<R>,
) -> Option<R> {
    let ScratchSpace { batch, grid, .. } = &mut ScratchSpace::packed(taskset)?;
    f(&batch.view(0), grid)
}

/// Task k's λ candidates for `config` (`Gn2Test::lambda_candidates`). The
/// device enters Theorem 3 only through `Abnd`, which they do not use.
pub(crate) fn gn2_candidates<T: Time>(
    config: &Gn2Config,
    taskset: &TaskSet<T>,
    k: usize,
) -> Option<Vec<T>> {
    on_packed(taskset, |v, grid| {
        candidates(v.cand, &Gn2Task::new(v, 0, k)?, config, grid).map(<[T]>::to_vec)
    })
}

/// Task k's attempts at each λ of `lambdas`, or else at each candidate
/// (`Gn2Test::evaluate_lambda`, `Gn2Test::attempts_for_task`).
pub(crate) fn gn2_attempts<T: Time>(
    config: &Gn2Config,
    taskset: &TaskSet<T>,
    device: &Fpga,
    k: usize,
    lambdas: Option<&[T]>,
) -> Option<Vec<Gn2Attempt>> {
    on_packed(taskset, |v, grid| {
        let t = Gn2Task::new(v, device.columns(), k)?;
        let lambdas = match lambdas {
            Some(lambdas) => lambdas,
            None => candidates(v.cand, &t, config, grid)?,
        };
        let case1 = |i: usize| beta_case1(v, i, t.dk);
        let attempt = |&lambda: &T| {
            let mut betas = Vec::with_capacity(v.exec.len());
            let attempt = gn2_attempt(v, &t, config, lambda, case1, |b| betas.push(b.to_f64()))?;
            Some(Gn2Attempt { betas, ..attempt })
        };
        lambdas.iter().map(attempt).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnyOfTest, DpTest, Gn1Test, Gn2Test, SchedTest, TestReport};

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

    /// What the packed path mirrors of the report path: the report's final
    /// check row and its margin.
    fn scalar_margin(rep: &TestReport) -> (Option<(f64, f64)>, u64) {
        (rep.checks.last().map(|c| (c.lhs, c.rhs)), rep.margin().to_bits())
    }

    fn assert_matches_scalar(ts: &TaskSet<f64>, dev: &Fpga) {
        let mut scratch = ScratchSpace::new();
        let batch = BatchAnalyzer::new().analyze(ts, dev, &mut scratch);
        let dp = DpTest::default().check(ts, dev);
        let gn1 = Gn1Test::default().check(ts, dev);
        let gn2 = Gn2Test::default().check(ts, dev);
        let any = AnyOfTest::paper_suite().check(ts, dev);
        for (name, b, s) in [
            ("DP", batch.dp, &dp),
            ("GN1", batch.gn1, &gn1),
            ("GN2", batch.gn2, &gn2),
            ("AnyOf", batch.any_of, &any),
        ] {
            assert_eq!(b.accepted, s.accepted(), "{name} verdict");
            assert_eq!((b.margin, b.report_margin.to_bits()), scalar_margin(s), "{name} margin");
        }
    }

    #[test]
    fn matches_scalar_on_paper_tables() {
        let dev = fpga10();
        for ts in [table1(), table2(), table3()] {
            assert_matches_scalar(&ts, &dev);
        }
    }

    #[test]
    fn matches_scalar_on_precondition_rejects() {
        let dev = fpga10();
        // Task wider than the device.
        let wide = TaskSet::try_from_tuples(&[(1.0, 5.0, 5.0, 11)]).unwrap();
        assert_matches_scalar(&wide, &dev);
        // Trivially infeasible execution time.
        let infeasible = TaskSet::try_from_tuples(&[(6.0, 5.0, 5.0, 1)]).unwrap();
        assert_matches_scalar(&infeasible, &dev);
        let mut scratch = ScratchSpace::new();
        let v = BatchAnalyzer::new().analyze(&wide, &dev, &mut scratch);
        assert_eq!(v.dp, BatchVerdict::precondition_reject());
        assert_eq!(v.dp.report_margin, f64::NEG_INFINITY);
        assert_eq!(v.any_of.margin, None);
    }

    /// The precondition guard names the first offending task: one wider
    /// than the device, then one with `C > D`; a valid set passes.
    #[test]
    fn precondition_names_the_offending_task() {
        let guard = |tuples: &[(f64, f64, f64, u32)]| {
            let mut scratch = ScratchSpace::new();
            scratch.pack(TaskSet::try_from_tuples(tuples).unwrap().tasks());
            precondition(&scratch.batch.view(0), 10)
        };
        let wide = guard(&[(1.0, 5.0, 5.0, 2), (1.0, 5.0, 5.0, 20)]).unwrap();
        assert_eq!(
            wide,
            Verdict::rejected(
                Some(TaskId(1)),
                "task #1 occupies 20 columns but the device only has 10"
            )
        );
        let infeasible = guard(&[(6.0, 5.0, 5.0, 1)]).unwrap();
        assert_eq!(
            infeasible,
            Verdict::rejected(Some(TaskId(0)), "τ0 has C > D and can never meet a deadline")
        );
        assert_eq!(guard(&[(1.0, 5.0, 5.0, 2)]), None);
    }

    #[test]
    fn matches_scalar_on_post_period_deadlines() {
        // Dk > Tk exercises βλk case 2/3 and the density candidates.
        let dev = fpga10();
        let ts = TaskSet::try_from_tuples(&[(4.0, 8.0, 5.0, 2), (1.0, 10.0, 10.0, 2)]).unwrap();
        assert_matches_scalar(&ts, &dev);
        // Dk < Tk exercises λmax < 1.
        let constrained =
            TaskSet::try_from_tuples(&[(1.0, 3.0, 6.0, 3), (2.0, 5.0, 9.0, 4)]).unwrap();
        assert_matches_scalar(&constrained, &dev);
    }

    #[test]
    fn analyze_batch_matches_per_taskset_analyze() {
        let dev = fpga10();
        let mut batch = TaskSetBatch::new();
        let sets = [table1(), table2(), table3()];
        for ts in &sets {
            batch.push(ts);
        }
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.total_tasks(), 6);
        let mut out = Vec::new();
        BatchAnalyzer::new().analyze_batch(&batch, &dev, &mut out);
        let mut scratch = ScratchSpace::new();
        for (ts, got) in sets.iter().zip(&out) {
            assert_eq!(*got, BatchAnalyzer::new().analyze(ts, &dev, &mut scratch));
        }
        // Clearing retains nothing logically but keeps working.
        batch.clear();
        assert!(batch.is_empty());
        batch.push(&table2());
        BatchAnalyzer::new().analyze_batch(&batch, &dev, &mut out);
        assert_eq!(out.len(), 1);
        assert!(!out[0].dp.accepted && out[0].gn1.accepted && !out[0].gn2.accepted);
    }

    #[test]
    fn analyze_series_matches_full_pass() {
        let dev = fpga10();
        let analyzer = BatchAnalyzer::new();
        let mut scratch = ScratchSpace::new();
        for ts in [table1(), table2(), table3()] {
            let full = analyzer.analyze(&ts, &dev, &mut scratch);
            for series in AnalysisSeries::ALL {
                let one = analyzer.analyze_series(series, &ts, &dev, &mut scratch);
                assert_eq!(one, full.series(series), "{}", series.name());
            }
        }
    }

    #[test]
    fn candidate_pool_is_sorted_and_deduped() {
        // Duplicate utilizations collapse; post-period deadlines add their
        // density.
        let ts = TaskSet::try_from_tuples(&[
            (1.0, 5.0, 5.0, 2),
            (2.0, 10.0, 10.0, 3),
            (4.0, 8.0, 5.0, 2),
        ])
        .unwrap();
        let mut batch = TaskSetBatch::new();
        batch.push(&ts);
        let v = batch.view(0);
        // u = {0.2, 0.2, 0.8}, density(τ2 with D>T) = 0.5 → {0.2, 0.5, 0.8}.
        assert_eq!(v.cand, &[0.2, 0.5, 0.8]);
        assert_eq!(v.amax, 3);
        assert_eq!(v.amin, 2);
    }

    #[test]
    fn series_identifiers_are_stable() {
        let names: Vec<&str> = AnalysisSeries::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["DP", "GN1", "GN2", "AnyOf"]);
    }
}
