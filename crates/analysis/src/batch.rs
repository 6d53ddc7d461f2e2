//! Batch-vectorized evaluation of the paper's analytic tests.
//!
//! The scalar [`SchedTest`](crate::SchedTest) implementations are built for
//! diagnosis: every call allocates a [`TestReport`](crate::TestReport) with
//! one formatted note per task, GN2 additionally allocates a candidate
//! vector and a β vector per λ attempt, and the `AnyOf` composite re-runs
//! its components from scratch. None of that matters for a single verdict —
//! all of it matters when 10⁴–10⁵ tasksets per second flow through the
//! sweep and conformance engines (the scale argued for by Goossens &
//! Meumeu Yomsi's exact global-EDF work, arXiv:1012.5929, and Singh's EDF
//! complexity-reduction results, arXiv:1101.0056: the win comes from
//! restructuring the per-taskset inner loop, not from more workers).
//!
//! This module provides the hot-path kernel:
//!
//! * [`TaskSetBatch`] — a structure-of-arrays store: task parameters packed
//!   into contiguous columns (`Ck`, `Dk`, `Tk`, `Ak`) with the derived
//!   per-task ratios (`Ck/Tk`, `Ck·Ak/Tk`, `Ck/Dk`) and the per-taskset GN2
//!   λ-candidate pool computed **once at pack time**, sorted and deduped —
//!   every per-task λ window is then a contiguous slice scan instead of a
//!   fresh collect + sort.
//! * [`BatchAnalyzer`] — evaluates DP (Theorem 1), GN1 (Theorem 2), GN2
//!   (Theorem 3) and the Section-6 `AnyOf` composite over packed tasksets
//!   with **zero per-taskset heap allocation**: the three component
//!   verdicts are computed in one pass and `AnyOf` is derived from them
//!   instead of re-evaluated.
//! * [`ScratchSpace`] — the reusable pack buffer engines thread through
//!   worker state (one per `fpga-rt-pool` shard, one per admission
//!   controller) so repeated single-taskset calls also stay
//!   allocation-free in steady state. [`ScratchSpace::pack`] takes the
//!   tasks as any in-order sequence, so a caller holding them elsewhere
//!   (the controller's live set plus a candidate) packs without building a
//!   [`TaskSet`] first, and [`BatchAnalyzer::analyze_packed`] then runs any
//!   series on that one packing.
//!
//! GN2 costs O(N) per λ attempt and up to 2N attempts per task. The
//! case-1 value of `βλk(i)`, `max(ui, ui·(1 − Di/Dk) + Ci/Dk)`, does not
//! depend on λ, so once task k's first λ attempt has failed the kernel
//! evaluates it for every i into a scratch column and its later attempts
//! read it instead of dividing twice per interferer. A task that passes
//! at its first λ — most tasks of the small figure sets — does no extra
//! work.
//!
//! ## Bit-identity contract
//!
//! The kernel is a *pure re-packing* of the scalar tests at their default
//! (paper) configurations: every floating-point operation is performed in
//! the same order on the same values, so verdicts **and margins** are
//! bit-identical to [`DpTest`](crate::DpTest), [`Gn1Test`](crate::Gn1Test),
//! [`Gn2Test`](crate::Gn2Test) and
//! [`AnyOfTest::paper_suite`](crate::AnyOfTest::paper_suite) — asserted by
//! the `batch_equiv` property tests over all four figure generators and
//! over admission-sized sets with deadlines below, at and above their
//! periods, including knife-edge margins where a comparison holds with
//! exact equality. Ablation configurations (`DP-real`, `GN1-bcl`, grid
//! search, …) are served by the scalar path only.
//!
//! The only intentional deviation is *what is reported*: instead of a
//! formatted [`TestReport`](crate::TestReport), each series yields a
//! [`BatchVerdict`] carrying the verdict, the deciding inequality's
//! `(lhs, rhs)` — the same two numbers the scalar report's final
//! `TaskCheck` row carries — and the report's
//! [`TestReport::margin`](crate::TestReport::margin).

use fpga_rt_model::{Fpga, Task, TaskSet, Time};

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
    /// to the scalar evaluator names, so switching kernels causes no
    /// golden-file churn.
    pub fn name(self) -> &'static str {
        match self {
            AnalysisSeries::Dp => "DP",
            AnalysisSeries::Gn1 => "GN1",
            AnalysisSeries::Gn2 => "GN2",
            AnalysisSeries::AnyOf => "AnyOf",
        }
    }
}

/// One series verdict for one taskset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchVerdict {
    /// `true` when the sufficient condition holds.
    pub accepted: bool,
    /// `(lhs, rhs)` of the deciding inequality — bit-identical to the last
    /// `TaskCheck` row of the scalar report (the failing row on rejection,
    /// the final evaluated row on acceptance). `None` when the taskset was
    /// rejected by the precondition guard before any row was evaluated.
    pub margin: Option<(f64, f64)>,
    /// The signed slack the scalar report reads, bit-identical to
    /// [`TestReport::margin`](crate::TestReport::margin): on acceptance the
    /// minimum `rhs − lhs` over the rows, on rejection the failing row's
    /// `rhs − lhs`, and `−∞` when the precondition guard rejected.
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
    /// exactly the final check row of the scalar `AnyOfTest`).
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
/// columns.
///
/// `push` copies a taskset's parameters into the column store, computes the
/// derived per-task ratios and per-taskset aggregates the kernels need, and
/// sorts the taskset's GN2 λ-candidate pool — all once, amortized over
/// every test and every λ attempt. `clear` retains the allocations, so a
/// reused batch reaches a steady state with **zero per-taskset heap
/// allocation**.
#[derive(Debug, Clone, Default)]
pub struct TaskSetBatch {
    /// `ends[i]` is where taskset `i`'s columns end (and taskset `i + 1`'s
    /// begin), so an empty batch owns no allocation.
    ends: Vec<usize>,
    /// `cand_ends[i]` is where taskset `i`'s λ-candidate pool ends.
    cand_ends: Vec<usize>,
    exec: Vec<f64>,
    deadline: Vec<f64>,
    period: Vec<f64>,
    area: Vec<u32>,
    /// `Ak` as `f64` (`Time::from_u32`, precomputed).
    area_f: Vec<f64>,
    /// `Ck/Tk`.
    ut: Vec<f64>,
    /// `Ck·Ak/Tk`.
    us: Vec<f64>,
    /// `Ck/Dk`.
    density: Vec<f64>,
    /// Sorted deduped λ candidates ({uᵢ} ∪ {Cᵢ/Dᵢ : Dᵢ > Tᵢ}) per taskset.
    cand: Vec<f64>,
    /// `US(Γ)` accumulated in task order (the scalar fold).
    us_total: Vec<f64>,
    amax: Vec<u32>,
    amin: Vec<u32>,
}

impl TaskSetBatch {
    /// An empty batch.
    pub fn new() -> Self {
        TaskSetBatch::default()
    }

    /// Number of packed tasksets.
    pub fn len(&self) -> usize {
        self.us_total.len()
    }

    /// `true` when no taskset is packed.
    pub fn is_empty(&self) -> bool {
        self.us_total.is_empty()
    }

    /// Total number of packed tasks across all tasksets.
    pub fn total_tasks(&self) -> usize {
        self.exec.len()
    }

    /// Drop all packed tasksets, keeping the column allocations.
    pub fn clear(&mut self) {
        self.ends.clear();
        self.cand_ends.clear();
        self.exec.clear();
        self.deadline.clear();
        self.period.clear();
        self.area.clear();
        self.area_f.clear();
        self.ut.clear();
        self.us.clear();
        self.density.clear();
        self.cand.clear();
        self.us_total.clear();
        self.amax.clear();
        self.amin.clear();
    }

    /// Pack one taskset: copy the columns, derive the ratios and
    /// aggregates, and sort this taskset's λ-candidate pool.
    pub fn push(&mut self, taskset: &TaskSet<f64>) {
        self.push_tasks(taskset.tasks());
    }

    /// [`TaskSetBatch::push`] for a taskset given as its tasks in order.
    fn push_tasks<'a>(&mut self, tasks: impl IntoIterator<Item = &'a Task<f64>>) {
        let mut us_total = 0.0f64;
        let mut amax = 0u32;
        let mut amin = u32::MAX;
        for task in tasks {
            let (c, d, p, a) = (task.exec(), task.deadline(), task.period(), task.area());
            let area_f = f64::from(a);
            let ut = c / p;
            let us = c * area_f / p;
            let density = c / d;
            self.exec.push(c);
            self.deadline.push(d);
            self.period.push(p);
            self.area.push(a);
            self.area_f.push(area_f);
            self.ut.push(ut);
            self.us.push(us);
            self.density.push(density);
            // The scalar `TaskSet::system_utilization` fold, in task order.
            us_total += us;
            amax = amax.max(a);
            amin = amin.min(a);
            // λ discontinuity points (Gn2Test::lambda_candidates): every
            // uᵢ, plus Cᵢ/Dᵢ for post-period deadlines.
            self.cand.push(ut);
            if d > p {
                self.cand.push(density);
            }
        }
        let cand_start = self.cand_ends.last().copied().unwrap_or(0);
        let pool = &mut self.cand[cand_start..];
        pool.sort_unstable_by(|a, b| a.partial_cmp(b).expect("validated times are ordered"));
        // In-place dedup of the freshly sorted pool (same result as the
        // scalar sort + `dedup_by` on equality).
        let mut keep = 0;
        for i in 0..pool.len() {
            if i == 0 || pool[i] != pool[keep - 1] {
                pool[keep] = pool[i];
                keep += 1;
            }
        }
        let pool_len = keep;
        self.cand.truncate(cand_start + pool_len);

        self.ends.push(self.exec.len());
        self.cand_ends.push(self.cand.len());
        self.us_total.push(us_total);
        self.amax.push(amax);
        self.amin.push(amin);
    }

    /// Borrow taskset `i`'s columns.
    fn view(&self, i: usize) -> View<'_> {
        let r = range(&self.ends, i);
        View {
            exec: &self.exec[r.clone()],
            deadline: &self.deadline[r.clone()],
            period: &self.period[r.clone()],
            area: &self.area[r.clone()],
            area_f: &self.area_f[r.clone()],
            ut: &self.ut[r.clone()],
            us: &self.us[r.clone()],
            density: &self.density[r],
            cand: &self.cand[range(&self.cand_ends, i)],
            us_total: self.us_total[i],
            amax: self.amax[i],
            amin: self.amin[i],
        }
    }
}

/// The `i`-th of the back-to-back ranges that end at `ends`.
fn range(ends: &[usize], i: usize) -> core::ops::Range<usize> {
    i.checked_sub(1).map_or(0, |prev| ends[prev])..ends[i]
}

/// One packed taskset's columns and aggregates.
struct View<'a> {
    exec: &'a [f64],
    deadline: &'a [f64],
    period: &'a [f64],
    area: &'a [u32],
    area_f: &'a [f64],
    ut: &'a [f64],
    us: &'a [f64],
    density: &'a [f64],
    cand: &'a [f64],
    us_total: f64,
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
pub struct ScratchSpace {
    batch: TaskSetBatch,
    /// GN2's hoisted case-1 column `βλk(i)` for the current task k.
    case1: Vec<f64>,
}

impl ScratchSpace {
    /// An empty scratch space (no allocation until first use).
    pub fn new() -> Self {
        ScratchSpace::default()
    }

    /// Pack one taskset, given as its tasks in order, replacing whatever
    /// was packed before; [`BatchAnalyzer::analyze_packed`] evaluates it.
    /// The tasks must form a valid taskset (non-empty, validated tasks),
    /// as a [`TaskSet`] built from the same sequence would.
    pub fn pack<'a>(&mut self, tasks: impl IntoIterator<Item = &'a Task<f64>>) {
        self.batch.clear();
        self.batch.push_tasks(tasks);
    }
}

/// The batch evaluator for the paper-default configurations of DP, GN1,
/// GN2 and the `AnyOf` composite. See the [module docs](self) for the
/// bit-identity contract; ablation configurations are scalar-only.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchAnalyzer;

impl BatchAnalyzer {
    /// The analyzer (stateless; all buffers live in [`ScratchSpace`] /
    /// [`TaskSetBatch`]).
    pub fn new() -> Self {
        BatchAnalyzer
    }

    /// Evaluate all four series for one taskset, packing it into
    /// `scratch`'s reused buffer.
    pub fn analyze(
        &self,
        taskset: &TaskSet<f64>,
        device: &Fpga,
        scratch: &mut ScratchSpace,
    ) -> BatchVerdicts {
        scratch.pack(taskset.tasks());
        let ScratchSpace { batch, case1 } = scratch;
        self.verdicts(&batch.view(0), device, case1)
    }

    /// Evaluate one series for one taskset (`AnyOf` short-circuits its
    /// components exactly like the scalar composite).
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

    /// Evaluate one series for the taskset last packed with
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
        let ScratchSpace { batch, case1 } = scratch;
        let v = batch.view(0);
        let cols = device.columns();
        if !precondition_ok(&v, cols) {
            return BatchVerdict::precondition_reject();
        }
        match series {
            AnalysisSeries::Dp => dp_kernel(&v, cols),
            AnalysisSeries::Gn1 => gn1_kernel(&v, cols),
            AnalysisSeries::Gn2 => gn2_kernel(&v, cols, case1),
            AnalysisSeries::AnyOf => {
                any_of(dp_kernel(&v, cols), || gn1_kernel(&v, cols), || gn2_kernel(&v, cols, case1))
            }
        }
    }

    /// Evaluate all four series for every packed taskset, filling `out`
    /// (cleared first) with one [`BatchVerdicts`] per taskset in pack
    /// order.
    pub fn analyze_batch(&self, batch: &TaskSetBatch, device: &Fpga, out: &mut Vec<BatchVerdicts>) {
        out.clear();
        out.reserve(batch.len());
        let mut case1 = Vec::new();
        for i in 0..batch.len() {
            out.push(self.verdicts(&batch.view(i), device, &mut case1));
        }
    }

    fn verdicts(&self, v: &View<'_>, device: &Fpga, case1: &mut Vec<f64>) -> BatchVerdicts {
        let cols = device.columns();
        if !precondition_ok(v, cols) {
            let reject = BatchVerdict::precondition_reject();
            return BatchVerdicts { dp: reject, gn1: reject, gn2: reject, any_of: reject };
        }
        let dp = dp_kernel(v, cols);
        let gn1 = gn1_kernel(v, cols);
        let gn2 = gn2_kernel(v, cols, case1);
        BatchVerdicts { dp, gn1, gn2, any_of: any_of(dp, || gn1, || gn2) }
    }
}

/// The composite's verdict from its components, evaluated lazily in
/// order like the scalar `AnyOfTest`: the first accepting component's, or
/// GN2's when all three reject.
///
/// The scalar composite's report holds every evaluated component's rows.
/// A rejected component's smallest `rhs − lhs` is its failing row, which
/// is its `report_margin`, so an acceptance's report margin is the minimum
/// over the `report_margin`s of the components evaluated so far.
fn any_of(
    dp: BatchVerdict,
    gn1: impl FnOnce() -> BatchVerdict,
    gn2: impl FnOnce() -> BatchVerdict,
) -> BatchVerdict {
    if dp.accepted {
        return dp;
    }
    let gn1 = gn1();
    let before = dp.report_margin;
    if gn1.accepted {
        return BatchVerdict { report_margin: before.min(gn1.report_margin), ..gn1 };
    }
    let gn2 = gn2();
    if gn2.accepted {
        let before = before.min(gn1.report_margin);
        return BatchVerdict { report_margin: before.min(gn2.report_margin), ..gn2 };
    }
    gn2
}

/// The shared precondition guard (`traits::precondition_reject`): every
/// task fits the device, no task has `Ck > Dk`.
fn precondition_ok(v: &View<'_>, cols: u32) -> bool {
    v.area.iter().all(|&a| a <= cols) && !v.exec.iter().zip(v.deadline).any(|(&c, &d)| c > d)
}

/// Theorem 1 (`DpTest`, integer-column bound): for every τk,
/// `US(Γ) ≤ (A(H) − Amax + 1)·(1 − UT(τk)) + US(τk)`.
fn dp_kernel(v: &View<'_>, cols: u32) -> BatchVerdict {
    let abnd = (i64::from(cols) - i64::from(v.amax) + 1) as f64;
    let us_total = v.us_total;
    let mut margin = (0.0, 0.0);
    let mut folded = f64::INFINITY;
    for k in 0..v.exec.len() {
        let rhs = abnd * (1.0 - v.ut[k]) + v.us[k];
        margin = (us_total, rhs);
        let passed = us_total <= rhs;
        if !passed {
            return BatchVerdict::from_rows(false, margin, folded);
        }
        folded = folded.min(rhs - us_total);
    }
    BatchVerdict::from_rows(true, margin, folded)
}

/// Theorem 2 (`Gn1Test`, paper defaults — `βi = Wi/Di`, RHS `+ 1`): for
/// every τk, `Σ_{i≠k} Ai·min(βi, 1 − Ck/Dk) < (A(H) − Ak + 1)·(1 − Ck/Dk)`.
fn gn1_kernel(v: &View<'_>, cols: u32) -> BatchVerdict {
    let n = v.exec.len();
    let cols_i = i64::from(cols);
    let mut margin = (0.0, 0.0);
    let mut folded = f64::INFINITY;
    for k in 0..n {
        let slack = 1.0 - v.density[k];
        let abnd = (cols_i - i64::from(v.area[k]) + 1) as f64;
        let dk = v.deadline[k];
        let mut lhs = 0.0f64;
        for i in 0..n {
            if i == k {
                continue;
            }
            // Lemma 4 (`gn1::time_work_bound`):
            // Ni = max(⌊(Dk − Di)/Ti⌋ + 1, 0);  Wi = Ni·Ci + carry-in.
            let ni = (((dk - v.deadline[i]) / v.period[i]).floor_i64() + 1).max(0) as f64;
            let carry = v.exec[i].min_t((dk - ni * v.period[i]).max_zero());
            let w = ni * v.exec[i] + carry;
            let beta = w / v.deadline[i];
            lhs += v.area_f[i] * beta.min_t(slack);
        }
        let rhs = abnd * slack;
        margin = (lhs, rhs);
        let passed = lhs < rhs;
        if !passed {
            return BatchVerdict::from_rows(false, margin, folded);
        }
        folded = folded.min(rhs - lhs);
    }
    BatchVerdict::from_rows(true, margin, folded)
}

/// Lemma 7's case 1, `βλk(i) = max(ui, ui·(1 − Di/Dk) + Ci/Dk)` for
/// `ui ≤ λ` — the one case that does not depend on λ.
fn beta_case1(v: &View<'_>, i: usize, dk: f64) -> f64 {
    let ui = v.ut[i];
    ui.max_t(ui * (1.0 - v.deadline[i] / dk) + v.exec[i] / dk)
}

/// Both left-hand sides of Theorem 3 for task k at one λ:
/// `(Σ Ai·min(βλk(i), 1 − λk), Σ Ai·min(βλk(i), 1))`, with βλk's case 1
/// supplied by `case1` (Lemma 7, `Gn2Test::beta_lambda`, Baker case 2).
#[inline(always)]
fn gn2_sums(
    v: &View<'_>,
    lambda: f64,
    dk: f64,
    one_minus: f64,
    case1: impl Fn(usize) -> f64,
) -> (f64, f64) {
    let mut lhs1 = 0.0f64;
    let mut lhs2 = 0.0f64;
    for i in 0..v.exec.len() {
        let ui = v.ut[i];
        let beta = if ui <= lambda {
            case1(i)
        } else if lambda >= v.density[i] {
            lambda
        } else {
            ui + (v.exec[i] - lambda * v.deadline[i]) / dk
        };
        let a = v.area_f[i];
        lhs1 += a * beta.min_t(one_minus);
        lhs2 += a * beta.min_t(1.0);
    }
    (lhs1, lhs2)
}

/// Theorem 3 (`Gn2Test`, paper defaults — Baker's λ in βλk case 2, strict
/// condition 2, paper λ points): for every τk some candidate λ must
/// satisfy condition 1 or 2. The λ window is a contiguous slice of the
/// taskset's pre-sorted candidate pool. From task k's second λ attempt on,
/// βλk's case 1 comes from `case1`, filled once for k (see the module
/// docs).
fn gn2_kernel(v: &View<'_>, cols: u32, case1: &mut Vec<f64>) -> BatchVerdict {
    let n = v.exec.len();
    let abnd = (i64::from(cols) - i64::from(v.amax) + 1) as f64;
    let amin = f64::from(v.amin);
    let mut margin = (0.0, 0.0);
    let mut folded = f64::INFINITY;
    for k in 0..n {
        let uk = v.ut[k];
        // λk = λ·max(1, Tk/Dk) ≤ 1  ⇔  λ ≤ 1/scale.
        let scale = (v.period[k] / v.deadline[k]).max_t(1.0);
        let lambda_max = 1.0 / scale;
        let dk = v.deadline[k];
        let mut passing = false;
        let mut best: Option<(f64, f64)> = None;
        let mut attempts = 0usize;
        for &lambda in v.cand {
            if lambda < uk {
                continue;
            }
            if lambda > lambda_max {
                break;
            }
            let lambda_k = lambda * scale;
            let one_minus = 1.0 - lambda_k;
            let (lhs1, lhs2) = if attempts == 0 {
                gn2_sums(v, lambda, dk, one_minus, |i| beta_case1(v, i, dk))
            } else {
                if attempts == 1 {
                    case1.clear();
                    case1.extend((0..n).map(|i| beta_case1(v, i, dk)));
                }
                gn2_sums(v, lambda, dk, one_minus, |i| case1[i])
            };
            attempts += 1;
            let rhs1 = abnd * one_minus;
            let rhs2 = (abnd - amin) * one_minus + amin;
            let better = match best {
                None => true,
                Some((bl, br)) => lhs2 - rhs2 < bl - br,
            };
            if better {
                best = Some((lhs2, rhs2));
            }
            if lhs1 < rhs1 {
                margin = (lhs1, rhs1);
                passing = true;
                break;
            }
            if lhs2 < rhs2 {
                margin = (lhs2, rhs2);
                passing = true;
                break;
            }
        }
        if !passing {
            let m = best.unwrap_or((f64::INFINITY, 0.0));
            return BatchVerdict::from_rows(false, m, folded);
        }
        folded = folded.min(margin.1 - margin.0);
    }
    BatchVerdict::from_rows(true, margin, folded)
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

    /// The scalar outputs the batch kernel mirrors: the report's final
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
