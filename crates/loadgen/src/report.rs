//! The load-generator report: schema, JSON/CSV/text rendering.
//!
//! A [`LoadReport`] is the artifact of one `fpga-rt loadgen` run. It is
//! designed to be **byte-identical from run to run** under
//! `--deterministic`: nothing in it records the wall-clock time or any
//! other replay-environment detail — only the run's *budget* (the parameters
//! that define the synthesized streams), the per-profile outcome counts,
//! and the latency summaries (all zeros under `--deterministic`).
//!
//! The JSON form carries the schema tag [`SCHEMA`]
//! (`fpga-rt-loadgen-smoke/1`), which `scripts/bench_gate.py` consumes as
//! the end-to-end latency regression gate next to the microbenchmark
//! schema `fpga-rt-bench-smoke/2`.

use fpga_rt_service::TierCounts;
use serde::{Deserialize, Serialize};

use crate::hist::LatencyHistogram;

/// Schema tag of the JSON artifact (consumed by `scripts/bench_gate.py`).
pub const SCHEMA: &str = "fpga-rt-loadgen-smoke/1";

pub use fpga_rt_obs::runner_id;

/// The parameters that define a run's synthesized streams. Two reports are
/// comparable only when their budgets are equal — `bench_gate.py` refuses
/// a budget mismatch outright, like the microbenchmark gate does for
/// sample/iteration budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Budget {
    /// Operations per profile per round.
    pub ops: usize,
    /// Named protocol sessions the streams multiplex over.
    pub sessions: u32,
    /// Stream replays per profile (seed advances per round).
    pub rounds: u32,
    /// Device columns of every session's controller.
    pub columns: u32,
    /// Base stream seed.
    pub seed: u64,
    /// Whether latencies were zeroed for byte-diffable output.
    pub deterministic: bool,
}

/// Latency summary of one profile's ops, in nanoseconds. Quantiles are
/// bucket lower bounds (see [`crate::hist`]); all zeros in deterministic
/// mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Median.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Exact maximum.
    pub max_ns: u64,
    /// Truncated mean.
    pub mean_ns: u64,
}

impl LatencySummary {
    /// Summarize a histogram (all zeros when it is empty).
    pub fn from_histogram(hist: &LatencyHistogram) -> Self {
        LatencySummary {
            p50_ns: hist.quantile(0.50).unwrap_or(0),
            p99_ns: hist.quantile(0.99).unwrap_or(0),
            p999_ns: hist.quantile(0.999).unwrap_or(0),
            max_ns: hist.max(),
            mean_ns: hist.mean().unwrap_or(0),
        }
    }
}

/// Outcome of replaying one profile's stream(s).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Profile name (`poisson`, `bursty`, `adversarial`).
    pub profile: String,
    /// Total ops replayed (all rounds).
    pub ops: u64,
    /// Admit ops in the stream.
    pub admits: u64,
    /// Admits accepted by the controller.
    pub accepted: u64,
    /// Admits rejected by the controller.
    pub rejected: u64,
    /// Release ops that released a live handle.
    pub releases: u64,
    /// Release ops that found no live handle and degraded to a query.
    pub degraded_releases: u64,
    /// Query ops in the stream.
    pub queries: u64,
    /// Which cascade tier settled each admit decision, summed
    /// (commutatively) over every session's `QueryStats`.
    pub tiers: TierCounts,
    /// Per-op decision latency.
    pub latency: LatencySummary,
}

/// The full artifact of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// Runner class that produced the latencies (see
    /// [`fpga_rt_obs::artifact_runner`]).
    pub runner: String,
    /// The run's stream-defining parameters.
    pub budget: Budget,
    /// One entry per profile, in the order they were run.
    pub profiles: Vec<ProfileReport>,
}

impl LoadReport {
    /// Render as pretty-printed JSON with a trailing newline (the artifact
    /// format committed as `BENCH_6.json`).
    pub fn render_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serialization is infallible");
        s.push('\n');
        s
    }

    /// Render as CSV: one header plus one row per profile.
    pub fn render_csv(&self) -> String {
        let mut out = String::from(
            "profile,ops,admits,accepted,rejected,releases,degraded_releases,queries,\
             tier_dp_inc,tier_gn1,tier_gn2,tier_exact,p50_ns,p99_ns,p999_ns,max_ns,mean_ns\n",
        );
        for p in &self.profiles {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                p.profile,
                p.ops,
                p.admits,
                p.accepted,
                p.rejected,
                p.releases,
                p.degraded_releases,
                p.queries,
                p.tiers.dp_inc,
                p.tiers.gn1,
                p.tiers.gn2,
                p.tiers.exact,
                p.latency.p50_ns,
                p.latency.p99_ns,
                p.latency.p999_ns,
                p.latency.max_ns,
                p.latency.mean_ns,
            ));
        }
        out
    }

    /// Render the human-readable summary table printed to stdout. Contains
    /// nothing replay-environment-specific, so CI can byte-diff it against
    /// a golden just like the JSON artifact.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "loadgen: {} ops x {} rounds over {} sessions, {} columns, seed {}{}\n",
            self.budget.ops,
            self.budget.rounds,
            self.budget.sessions,
            self.budget.columns,
            self.budget.seed,
            if self.budget.deterministic { ", deterministic (latencies zeroed)" } else { "" },
        ));
        out.push_str(&format!(
            "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            "profile",
            "ops",
            "accept",
            "reject",
            "dp-inc",
            "gn1",
            "gn2",
            "exact",
            "p50_ns",
            "p99_ns",
            "p999_ns",
            "max_ns",
        ));
        for p in &self.profiles {
            out.push_str(&format!(
                "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                p.profile,
                p.ops,
                p.accepted,
                p.rejected,
                p.tiers.dp_inc,
                p.tiers.gn1,
                p.tiers.gn2,
                p.tiers.exact,
                p.latency.p50_ns,
                p.latency.p99_ns,
                p.latency.p999_ns,
                p.latency.max_ns,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> LoadReport {
        LoadReport {
            schema: SCHEMA.to_string(),
            runner: "test-runner".to_string(),
            budget: Budget {
                ops: 100,
                sessions: 4,
                rounds: 1,
                columns: 100,
                seed: 7,
                deterministic: true,
            },
            profiles: vec![ProfileReport {
                profile: "poisson".to_string(),
                ops: 100,
                admits: 60,
                accepted: 40,
                rejected: 20,
                releases: 20,
                degraded_releases: 5,
                queries: 15,
                tiers: TierCounts { dp_inc: 50, gn1: 5, gn2: 4, exact: 1 },
                latency: LatencySummary::default(),
            }],
        }
    }

    #[test]
    fn json_round_trips_and_ends_with_newline() {
        let report = sample_report();
        let json = report.render_json();
        assert!(json.ends_with('\n'));
        let back: LoadReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn csv_has_header_and_one_row_per_profile() {
        let csv = sample_report().render_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("profile,ops,"));
        assert!(lines[1].starts_with("poisson,100,60,40,20,"));
    }

    #[test]
    fn text_table_mentions_every_profile_and_no_environment() {
        let text = sample_report().render_text();
        assert!(text.contains("poisson"));
        assert!(text.contains("deterministic"));
        // Nothing worker- or host-specific may leak into the diffable text.
        assert!(!text.contains("worker"));
        assert!(!text.contains("test-runner"));
    }

    #[test]
    fn latency_summary_of_empty_histogram_is_zero() {
        let summary = LatencySummary::from_histogram(&LatencyHistogram::new());
        assert_eq!(summary, LatencySummary::default());
    }

    #[test]
    fn runner_id_honors_the_env_override() {
        // Avoid mutating process env (tests run in parallel): only assert
        // the fallback shape when the override is absent.
        let id = runner_id();
        if std::env::var("FPGA_RT_RUNNER").is_err() {
            assert!(id.starts_with(std::env::consts::OS));
            assert!(id.ends_with(std::env::consts::ARCH));
        }
    }
}
