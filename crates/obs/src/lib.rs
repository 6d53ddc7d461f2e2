//! # fpga-rt-obs
//!
//! The workspace's hand-rolled telemetry core: named counters, gauges,
//! log-scale latency histograms ([`hist::LatencyHistogram`], promoted here
//! from the load generator), and lightweight [`SpanTimer`]s, organized
//! under a [`Registry`] that snapshots to a versioned
//! `fpga-rt-obs/1` artifact ([`Snapshot`], JSON or aligned text).
//!
//! Two contracts make telemetry safe in this determinism-obsessed
//! workspace:
//!
//! 1. **Deterministic zeroing** — a registry created in deterministic mode
//!    zeroes every *time-valued* sample at the recording site
//!    ([`Registry::record_ns`], [`Obs::span`]), so metrics artifacts are
//!    byte-identical across `--workers`, exactly like every other artifact
//!    in the workspace. Non-time distributions (e.g. cascade depth,
//!    recorded via [`Registry::record`]) stay fully populated.
//! 2. **No-op when off** — instrumented code holds an [`Obs`] handle,
//!    which is an `Option<Arc<Registry>>` in a trenchcoat: when no
//!    registry is installed every recording call is a branch on `None`
//!    and [`Obs::span`] never reads the clock. The `obs_overhead`
//!    benchmark gates this overhead next to the admission-throughput
//!    baselines.
//!
//! Merging is shard-friendly: worker-local registries merge into one via
//! [`Registry::merge_from`] — counters and gauges add, histograms merge
//! element-wise — so the merged snapshot is independent of merge order
//! (property-tested in the loadgen suite).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

pub use hist::LatencyHistogram;

/// Schema tag of the snapshot artifact (consumed by
/// `scripts/bench_gate.py`).
pub const SCHEMA: &str = "fpga-rt-obs/1";

/// The runner class deterministic artifacts record in place of
/// [`runner_id`]: their time values are zeroed, so nothing in them depends
/// on the host, and a constant keeps them byte-identical across hosts too.
pub const DETERMINISTIC_RUNNER: &str = "deterministic";

/// The runner class recorded in snapshots and reports: the
/// `FPGA_RT_RUNNER` environment override when set, else
/// `{os}-{kernel release}-{arch}` (falling back to `{os}-{arch}` where the
/// kernel release is unreadable). Baselines are only enforced against the
/// runner class that produced them; `bench_gate.py` downgrades
/// cross-runner comparisons to report-only.
pub fn runner_id() -> String {
    if let Ok(runner) = std::env::var("FPGA_RT_RUNNER") {
        return runner;
    }
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    match kernel {
        Some(k) => format!("{}-{}-{}", std::env::consts::OS, k, std::env::consts::ARCH),
        None => format!("{}-{}", std::env::consts::OS, std::env::consts::ARCH),
    }
}

/// The runner class an artifact records: [`DETERMINISTIC_RUNNER`] when it
/// was produced in deterministic mode, else [`runner_id`].
pub fn artifact_runner(deterministic: bool) -> String {
    if deterministic {
        DETERMINISTIC_RUNNER.to_string()
    } else {
        runner_id()
    }
}

#[derive(Debug, Clone, Default)]
struct Inner {
    meta: BTreeMap<String, String>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, LatencyHistogram>,
}

/// A set of named metrics: monotonic counters, last-write gauges, and
/// log-scale histograms, plus string metadata describing the run budget.
///
/// Interior-mutable (every recording method takes `&self`), `Send + Sync`,
/// and mergeable: shard-local registries fold into one with
/// [`merge_from`](Registry::merge_from) in any order.
#[derive(Debug, Default)]
pub struct Registry {
    deterministic: bool,
    inner: Mutex<Inner>,
}

impl Clone for Registry {
    fn clone(&self) -> Self {
        Registry { deterministic: self.deterministic, inner: Mutex::new(self.lock().clone()) }
    }
}

impl Registry {
    /// A registry that records wall-clock time samples as measured.
    pub fn new() -> Self {
        Registry::with_mode(false)
    }

    /// A registry with an explicit determinism mode: when `deterministic`,
    /// every time-valued sample ([`record_ns`](Registry::record_ns)) is
    /// zeroed at the recording site so snapshots byte-diff across worker
    /// counts.
    pub fn with_mode(deterministic: bool) -> Self {
        Registry { deterministic, inner: Mutex::default() }
    }

    /// Whether time-valued samples are zeroed (see
    /// [`with_mode`](Registry::with_mode)).
    pub fn is_deterministic(&self) -> bool {
        self.deterministic
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("registry lock poisoned")
    }

    /// Record run metadata (budget-defining parameters, not metrics).
    /// Last write wins; on merge, the *receiving* registry's keys win, so
    /// set metadata on the merged-into registry only.
    pub fn set_meta(&self, key: &str, value: &str) {
        self.lock().meta.insert(key.to_string(), value.to_string());
    }

    /// Add `n` to the named counter (created at 0 on first use).
    pub fn add(&self, name: &str, n: u64) {
        *self.lock().counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Increment the named counter by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Set the named gauge to `v`. Gauges are `u64` and merge by **sum**
    /// (shard-local gauges are treated as additive contributions), which
    /// keeps the merged snapshot independent of merge order.
    pub fn set_gauge(&self, name: &str, v: u64) {
        self.lock().gauges.insert(name.to_string(), v);
    }

    /// Record a **non-time** sample (e.g. a cascade depth or batch size)
    /// into the named histogram. Never zeroed: value distributions are
    /// deterministic and survive `--deterministic` runs intact.
    pub fn record(&self, name: &str, v: u64) {
        self.lock().hists.entry(name.to_string()).or_default().record(v);
    }

    /// Record a **time-valued** sample (nanoseconds) into the named
    /// histogram. Zeroed in deterministic mode — the sample still counts,
    /// so event counts stay comparable across modes.
    pub fn record_ns(&self, name: &str, ns: u64) {
        self.record(name, if self.deterministic { 0 } else { ns });
    }

    /// Start a span timer: disabled (always reporting 0) in deterministic
    /// mode, so deterministic runs never read the clock for metrics.
    pub fn span(&self) -> SpanTimer {
        if self.deterministic {
            SpanTimer::disabled()
        } else {
            SpanTimer::started()
        }
    }

    /// Merge another registry's metrics into this one: counters and gauges
    /// add, histograms merge element-wise. Existing metadata keys on
    /// `self` are kept; keys only `other` has are adopted.
    pub fn merge_from(&self, other: &Registry) {
        let theirs = other.lock().clone();
        let mut ours = self.lock();
        for (k, v) in theirs.meta {
            ours.meta.entry(k).or_insert(v);
        }
        for (k, v) in theirs.counters {
            *ours.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in theirs.gauges {
            *ours.gauges.entry(k).or_insert(0) += v;
        }
        for (k, h) in theirs.hists {
            ours.hists.entry(k).or_default().merge(&h);
        }
    }

    /// Snapshot the registry into the versioned `fpga-rt-obs/1` artifact.
    /// Rows are sorted by name (the registry stores them sorted), so two
    /// registries with equal contents snapshot byte-identically.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            schema: SCHEMA.to_string(),
            runner: artifact_runner(self.deterministic),
            deterministic: self.deterministic,
            meta: inner
                .meta
                .iter()
                .map(|(k, v)| MetaRow { key: k.clone(), value: v.clone() })
                .collect(),
            counters: inner
                .counters
                .iter()
                .map(|(k, &v)| CounterRow { name: k.clone(), value: v })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, &v)| GaugeRow { name: k.clone(), value: v })
                .collect(),
            histograms: inner.hists.iter().map(|(k, h)| HistRow::summarize(k, h)).collect(),
        }
    }
}

/// A started-or-disabled wall-clock timer for timing one span of work.
///
/// Obtained from [`Obs::span`] / [`Registry::span`]; disabled timers (off
/// or deterministic) never read the clock and report 0.
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer(Option<Instant>);

impl SpanTimer {
    /// A timer that reports 0 without ever reading the clock.
    pub fn disabled() -> Self {
        SpanTimer(None)
    }

    /// A timer started now.
    pub fn started() -> Self {
        SpanTimer(Some(Instant::now()))
    }

    /// Nanoseconds since the timer started (saturated to `u64`), or 0 for
    /// a disabled timer.
    pub fn elapsed_ns(&self) -> u64 {
        match self.0 {
            Some(start) => u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            None => 0,
        }
    }
}

/// A cheaply-clonable, possibly-absent handle to a shared [`Registry`].
///
/// Instrumented code holds an `Obs` unconditionally; when constructed with
/// [`Obs::off`] every method is a no-op branch (no allocation, no clock
/// read, no lock), which the `obs_overhead` benchmark keeps honest.
#[derive(Clone, Default)]
pub struct Obs(Option<Arc<Registry>>);

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(r) => write!(f, "Obs(on, deterministic={})", r.is_deterministic()),
            None => write!(f, "Obs(off)"),
        }
    }
}

impl Obs {
    /// The disabled handle: every recording method is a no-op.
    pub fn off() -> Self {
        Obs(None)
    }

    /// A handle to a fresh shared registry (see
    /// [`Registry::with_mode`] for the `deterministic` contract).
    pub fn on(deterministic: bool) -> Self {
        Obs(Some(Arc::new(Registry::with_mode(deterministic))))
    }

    /// A handle sharing an existing registry.
    pub fn from_registry(registry: Arc<Registry>) -> Self {
        Obs(Some(registry))
    }

    /// Whether a registry is installed.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The shared registry, when installed.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.0.as_ref()
    }

    /// Add `n` to the named counter (no-op when off).
    pub fn add(&self, name: &str, n: u64) {
        if let Some(r) = &self.0 {
            r.add(name, n);
        }
    }

    /// Increment the named counter (no-op when off).
    pub fn inc(&self, name: &str) {
        if let Some(r) = &self.0 {
            r.inc(name);
        }
    }

    /// Set the named gauge (no-op when off).
    pub fn set_gauge(&self, name: &str, v: u64) {
        if let Some(r) = &self.0 {
            r.set_gauge(name, v);
        }
    }

    /// Record a non-time sample (no-op when off; never zeroed).
    pub fn record(&self, name: &str, v: u64) {
        if let Some(r) = &self.0 {
            r.record(name, v);
        }
    }

    /// Record a time-valued sample (no-op when off; zeroed when
    /// deterministic).
    pub fn record_ns(&self, name: &str, ns: u64) {
        if let Some(r) = &self.0 {
            r.record_ns(name, ns);
        }
    }

    /// Start a span timer; disabled (and clock-free) when off or
    /// deterministic.
    pub fn span(&self) -> SpanTimer {
        match &self.0 {
            Some(r) => r.span(),
            None => SpanTimer::disabled(),
        }
    }
}

/// One metadata row of a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetaRow {
    /// Metadata key.
    pub key: String,
    /// Metadata value.
    pub value: String,
}

/// One counter row of a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterRow {
    /// Counter name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One gauge row of a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeRow {
    /// Gauge name.
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// One histogram row of a [`Snapshot`]: the quantile summary of a
/// [`LatencyHistogram`] (quantiles are bucket lower bounds; all zeros for
/// time-valued histograms recorded in deterministic mode).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistRow {
    /// Histogram name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Truncated mean.
    pub mean: u64,
}

impl HistRow {
    fn summarize(name: &str, h: &LatencyHistogram) -> Self {
        HistRow {
            name: name.to_string(),
            count: h.count(),
            p50: h.quantile(0.50).unwrap_or(0),
            p99: h.quantile(0.99).unwrap_or(0),
            p999: h.quantile(0.999).unwrap_or(0),
            max: h.max(),
            mean: h.mean().unwrap_or(0),
        }
    }
}

/// A point-in-time export of a [`Registry`]: the versioned `fpga-rt-obs/1`
/// artifact behind `--metrics-out` and the JSONL `stats` op.
///
/// All row vectors are sorted by name. The JSON form carries the runner
/// class (for `bench_gate.py`'s cross-runner downgrade); the text form
/// omits it so text artifacts byte-diff across hosts too.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Runner class that produced the samples (see [`artifact_runner`]).
    pub runner: String,
    /// Whether time-valued samples were zeroed at the recording site.
    pub deterministic: bool,
    /// Run metadata (budget-defining parameters).
    pub meta: Vec<MetaRow>,
    /// Counter rows, sorted by name.
    pub counters: Vec<CounterRow>,
    /// Gauge rows, sorted by name.
    pub gauges: Vec<GaugeRow>,
    /// Histogram summary rows, sorted by name.
    pub histograms: Vec<HistRow>,
}

impl Snapshot {
    /// The named counter's value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// The named gauge's value, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The named histogram's summary row, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistRow> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Render as pretty-printed JSON with a trailing newline (the
    /// `--metrics-out foo.json` artifact format).
    pub fn render_json(&self) -> String {
        let mut s =
            serde_json::to_string_pretty(self).expect("snapshot serialization is infallible");
        s.push('\n');
        s
    }

    /// Render as an aligned text table (the `--metrics-out foo.txt`
    /// artifact format). Contains no runner or other host-specific detail,
    /// so it byte-diffs across worker counts *and* hosts.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "{} snapshot{}\n",
            self.schema,
            if self.deterministic { " (deterministic: time values zeroed)" } else { "" }
        );
        let width = self
            .meta
            .iter()
            .map(|r| r.key.len())
            .chain(self.counters.iter().map(|r| r.name.len()))
            .chain(self.gauges.iter().map(|r| r.name.len()))
            .chain(self.histograms.iter().map(|r| r.name.len()))
            .max()
            .unwrap_or(4)
            .max(4);
        if !self.meta.is_empty() {
            out.push_str("meta:\n");
            for r in &self.meta {
                out.push_str(&format!("  {:<width$} {}\n", r.key, r.value));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for r in &self.counters {
                out.push_str(&format!("  {:<width$} {:>12}\n", r.name, r.value));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for r in &self.gauges {
                out.push_str(&format!("  {:<width$} {:>12}\n", r.name, r.value));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "histograms:\n  {:<width$} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
                "name", "count", "p50", "p99", "p999", "max", "mean"
            ));
            for r in &self.histograms {
                out.push_str(&format!(
                    "  {:<width$} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
                    r.name, r.count, r.p50, r.p99, r.p999, r.max, r.mean
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated(deterministic: bool) -> Registry {
        let reg = Registry::with_mode(deterministic);
        reg.set_meta("ops", "100");
        reg.add("admission/decisions", 7);
        reg.inc("admission/decisions");
        reg.set_gauge("cache/entries", 3);
        reg.record("admission/cascade_depth", 2);
        reg.record_ns("admission/tier/exact/decision_ns", 1500);
        reg
    }

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let reg = populated(false);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("admission/decisions"), Some(8));
        assert_eq!(snap.gauge("cache/entries"), Some(3));
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn deterministic_mode_zeroes_time_but_not_value_histograms() {
        let snap = populated(true).snapshot();
        let time = snap.histogram("admission/tier/exact/decision_ns").unwrap();
        assert_eq!(time.count, 1, "zeroed samples still count");
        assert_eq!((time.p50, time.max, time.mean), (0, 0, 0));
        let depth = snap.histogram("admission/cascade_depth").unwrap();
        assert_eq!(depth.p50, 2, "non-time distributions survive deterministic mode");
        assert!(snap.deterministic);
    }

    #[test]
    fn deterministic_span_reports_zero_without_reading_the_clock() {
        let reg = Registry::with_mode(true);
        let span = reg.span();
        assert_eq!(span.elapsed_ns(), 0);
        let live = Registry::new().span();
        // A live timer is monotone; we only assert it is readable.
        let _ = live.elapsed_ns();
    }

    #[test]
    fn merge_is_commutative() {
        let a = populated(false);
        a.add("pool/shard0/items", 10);
        let b = Registry::new();
        b.add("admission/decisions", 4);
        b.set_gauge("cache/entries", 5);
        b.record("admission/cascade_depth", 4);

        let ab = Registry::new();
        ab.merge_from(&a);
        ab.merge_from(&b);
        let ba = Registry::new();
        ba.merge_from(&b);
        ba.merge_from(&a);
        let (sa, sb) = (ab.snapshot(), ba.snapshot());
        assert_eq!(sa, sb);
        assert_eq!(sa.counter("admission/decisions"), Some(12));
        assert_eq!(sa.gauge("cache/entries"), Some(8), "gauges merge by sum");
    }

    #[test]
    fn off_handle_records_nothing_and_never_times() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        obs.inc("x");
        obs.record_ns("y", 10);
        assert_eq!(obs.span().elapsed_ns(), 0);
        assert!(obs.registry().is_none());
        assert_eq!(format!("{obs:?}"), "Obs(off)");
    }

    #[test]
    fn on_handle_shares_one_registry_across_clones() {
        let obs = Obs::on(false);
        let clone = obs.clone();
        obs.inc("n");
        clone.inc("n");
        assert_eq!(obs.registry().unwrap().snapshot().counter("n"), Some(2));
    }

    #[test]
    fn json_round_trips_and_text_omits_the_runner() {
        let reg = populated(true);
        let snap = reg.snapshot();
        let json = snap.render_json();
        assert!(json.ends_with('\n'));
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);

        let text = snap.render_text();
        assert!(text.starts_with("fpga-rt-obs/1 snapshot"));
        assert!(text.contains("admission/decisions"));
        // Only a live snapshot carries the host's runner id.
        let live = populated(false).snapshot();
        assert!(
            !live.render_text().contains(&live.runner),
            "text artifact must be host-independent"
        );
    }

    #[test]
    fn deterministic_snapshots_record_a_host_independent_runner() {
        assert_eq!(populated(true).snapshot().runner, DETERMINISTIC_RUNNER);
        assert_eq!(populated(false).snapshot().runner, runner_id());
    }

    #[test]
    fn registry_clone_is_a_deep_copy() {
        let reg = populated(false);
        let copy = reg.clone();
        reg.inc("admission/decisions");
        assert_eq!(copy.snapshot().counter("admission/decisions"), Some(8));
        assert_eq!(reg.snapshot().counter("admission/decisions"), Some(9));
    }
}
