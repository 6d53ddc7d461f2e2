//! Order statistics and the result line the benchmark prints.

use crate::Params;
use std::fmt::Write as _;
use std::time::Instant;

/// Samples a p99 needs: ten beyond it.
pub const P99_SAMPLES: usize = 1000;
/// Runs at least this long (s) must give every p99 [`P99_SAMPLES`]
/// samples; the self-tests' sub-second runs are exempt.
pub const P99_CHECK_SECONDS: f64 = 5.0;

/// Note the sample count behind a p99 on stderr, and record a violation
/// when a run long enough to be measured has too few.
pub fn require_samples(params: &Params, samples: usize, violations: &mut Vec<String>) {
    eprintln!("{}: each p99 over at least {samples} latency samples", params.workload);
    if params.seconds >= P99_CHECK_SECONDS && samples < P99_SAMPLES {
        violations.push(format!("p99 over {samples} samples < {P99_SAMPLES}"));
    }
}

/// Nearest-rank quantile `q ∈ [0, 1]` of `values` (sorted in place).
/// Returns 0 for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean, 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nanoseconds in a `u64` (saturating) from a duration.
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Latency samples of a measured phase, grouped into fixed-width time
/// windows by completion time. The summary takes each complete window's
/// p50, p99 and completion rate and reports the quiet quartile over
/// windows: the lower quartile of the latencies, the upper quartile of the
/// rate. Interference from the host only ever adds delay and comes in
/// bursts of seconds, so the quieter windows track the program while the
/// median window moved with the host's steal time.
#[derive(Debug)]
pub struct Windows {
    start: Instant,
    width: f64,
    windows: Vec<Vec<f64>>,
}

/// Quiet quartiles over windows of the per-window p50, p99 and rate (1/s).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    pub p50: f64,
    pub p99: f64,
    pub rate: f64,
    /// Samples in the fewest-sampled complete window: the count each p99
    /// is taken over at least.
    pub min_window: usize,
}

impl Windows {
    /// Windows of `width` seconds from `start`.
    pub fn new(start: Instant, width: f64) -> Self {
        Windows { start, width, windows: Vec::new() }
    }

    /// A sample completed at `at`.
    pub fn record(&mut self, at: Instant, latency: f64) {
        let k = (at.saturating_duration_since(self.start).as_secs_f64() / self.width) as usize;
        if self.windows.len() <= k {
            self.windows.resize_with(k + 1, Vec::new);
        }
        self.windows[k].push(latency);
    }

    /// Summarize the windows that closed before `elapsed` seconds; a phase
    /// shorter than one window counts as one window.
    pub fn summary(mut self, elapsed: f64) -> WindowSummary {
        let complete = ((elapsed / self.width) as usize).min(self.windows.len());
        let (mut p50, mut p99, mut rate, mut min_window) = (vec![], vec![], vec![], usize::MAX);
        if complete == 0 {
            let mut all: Vec<f64> = self.windows.concat();
            return WindowSummary {
                p50: quantile(&mut all, 0.5),
                p99: quantile(&mut all, 0.99),
                rate: ratio(all.len() as f64, elapsed),
                min_window: all.len(),
            };
        }
        for w in &mut self.windows[..complete] {
            min_window = min_window.min(w.len());
            rate.push(w.len() as f64 / self.width);
            p50.push(quantile(w, 0.5));
            p99.push(quantile(w, 0.99));
        }
        WindowSummary {
            p50: quantile(&mut p50, 0.25),
            p99: quantile(&mut p99, 0.25),
            rate: quantile(&mut rate, 0.75),
            min_window,
        }
    }
}

/// The median of repeated set-up times (seconds), with their range noted
/// on stderr.
pub fn setup_median(workload: &str, setups: &mut [f64]) -> f64 {
    let med = median(setups);
    let (lo, hi) = (setups[0], setups[setups.len() - 1]);
    eprintln!(
        "{workload}: {} set-ups, min {lo:.6} s, median {med:.6} s, max {hi:.6} s",
        setups.len()
    );
    med
}

/// Named metric values in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Record (or overwrite) one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// Look a metric up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// One finished run: the work it attempted, what failed, and its metrics.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Requests sent (service workloads) or tasksets evaluated (figures).
    pub attempted: u64,
    /// Protocol errors, dropped or reordered responses, and oracle
    /// mismatches (service workloads); curve mismatches and soundness
    /// violations (figures).
    pub failed: u64,
    /// Violated workload properties (e.g. the tier mix a workload is built
    /// to produce); any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// End-to-end or per-layer metrics, depending on the run mode.
    pub metrics: Metrics,
}

impl RunResult {
    /// Record a violated workload property.
    pub fn violate(&mut self, message: String) {
        self.violations.push(message);
    }

    /// The run counts as correct only with no failure and no violation.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty() && self.attempted > 0
    }

    /// The single JSON result line: every `(name, unit)` of `schema`, in
    /// schema order. A metric the workload did not produce reads 0 (only
    /// per-layer metrics can be absent: a layer off the workload's path).
    pub fn render(&self, schema: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in schema.iter().enumerate() {
            let value = self.metrics.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn window_summary_takes_quiet_quartiles_over_complete_windows() {
        let start = Instant::now();
        let mut w = Windows::new(start, 1.0);
        let at = |s: f64| start + std::time::Duration::from_secs_f64(s);
        for (t, v) in
            [(0.1, 1.0), (0.2, 3.0), (1.5, 5.0), (2.5, 7.0), (2.6, 9.0), (2.7, 11.0), (3.5, 99.0)]
        {
            w.record(at(t), v);
        }
        let s = w.summary(3.2);
        assert_eq!((s.p50, s.p99, s.rate, s.min_window), (1.0, 3.0, 3.0, 1));
    }

    #[test]
    fn result_line_lists_every_schema_metric() {
        let mut r = RunResult { attempted: 3, ..RunResult::default() };
        r.metrics.set("a", 1.5);
        let line = r.render(&[("a", "ms"), ("b", "count")]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"a":{"value":1.5,"unit":"ms"},"b":{"value":0.0,"unit":"count"}}}"#
        );
    }
}
