//! Golden transcripts of the population engines, checked in-process at one
//! and four pool workers, and of loadgen's replay (CI diffs the built
//! binary against the same files):
//!
//! * `sweep --figure fig3a --bins 3 --per-bin 8 --seed 7` — stdout, the
//!   `--out` JSON and the `--deterministic --metrics-out` JSON;
//! * `conform --figure fig3a --bins 3 --per-bin 8 --sim-horizon 25
//!   --seed 7` — the same three;
//! * `conform --twod --samples 500 --bins 10 --seed 20070326` — stdout and
//!   the `--out` JSON;
//! * `loadgen --ops 2000 --sessions 8 --columns 32 --seed 7
//!   --deterministic` — stdout, the `--out` JSON and CSV, and the
//!   `--metrics-out` JSON and text.
//!
//! CI also diffs `loadgen --ops 8000 --sessions 32 --columns 100 --rounds 2
//! --seed 20070326 --deterministic` (stdout and the `--out` JSON) against
//! `testdata/loadgen/large.*`.
//!
//! Deterministic metrics zero every timed value and carry
//! `"runner": "deterministic"`, so none of these files depends on the
//! host. After an intended change to an engine's output, regenerate with
//!
//! ```text
//! B=target/release/fpga-rt; T=crates/cli/testdata
//! $B sweep --figure fig3a --bins 3 --per-bin 8 --seed 7 --deterministic \
//!     --out $T/sweep/fig3a.json --metrics-out $T/sweep/fig3a.metrics.json \
//!     > $T/sweep/fig3a.txt
//! $B conform --figure fig3a --bins 3 --per-bin 8 --sim-horizon 25 --seed 7 \
//!     --deterministic --out $T/conform/fig3a.json \
//!     --metrics-out $T/conform/fig3a.metrics.json > $T/conform/fig3a.txt
//! $B conform --twod --samples 500 --bins 10 --seed 20070326 \
//!     --out $T/conform/twod.json > $T/conform/twod.txt
//! L="$B loadgen --ops 2000 --sessions 8 --columns 32 --seed 7 --deterministic"
//! $L --out $T/loadgen/small.json --metrics-out $T/loadgen/small.metrics.json \
//!     > $T/loadgen/small.txt
//! $L --out $T/loadgen/small.csv --metrics-out $T/loadgen/small.metrics.txt
//! $B loadgen --ops 8000 --sessions 32 --columns 100 --rounds 2 \
//!     --seed 20070326 --deterministic --out $T/loadgen/large.json \
//!     > $T/loadgen/large.txt
//! ```

use fpga_rt_cli::{run, ExitCode};
use std::path::PathBuf;

/// Run `line` plus `--out out.<out>` and, when `metrics` names an
/// extension, `--deterministic --metrics-out metrics.<metrics>`; return
/// stdout, the `--out` file and the metrics file (empty when not asked).
fn artifacts(name: &str, line: &[&str], out: &str, metrics: Option<&str>) -> [String; 3] {
    let dir =
        std::env::temp_dir().join(format!("fpga-rt-engine-golden-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join(format!("out.{out}"));
    let metrics_path = dir.join(format!("metrics.{}", metrics.unwrap_or("json")));
    let mut args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
    args.push("--out".into());
    args.push(out_path.to_string_lossy().into_owned());
    if metrics.is_some() {
        args.extend(["--deterministic", "--metrics-out"].map(String::from));
        args.push(metrics_path.to_string_lossy().into_owned());
    }
    let mut stdout = Vec::new();
    assert_eq!(run(&args, &mut stdout), ExitCode::Accepted, "{args:?}");
    let read = |p: &PathBuf| std::fs::read_to_string(p).unwrap_or_default();
    let files = [String::from_utf8(stdout).unwrap(), read(&out_path), read(&metrics_path)];
    std::fs::remove_dir_all(&dir).unwrap();
    files
}

fn assert_golden(name: &str, got: [String; 3], golden: [&str; 3]) {
    for ((got, want), what) in got.iter().zip(golden).zip(["stdout", "--out", "metrics"]) {
        assert_eq!(got, want, "{name} {what}");
    }
}

/// The population engines' goldens hold at one and four pool workers.
fn check(name: &str, line: &[&str], golden: [&str; 3]) {
    let metrics = (!golden[2].is_empty()).then_some("json");
    for workers in ["1", "4"] {
        let line = [line, &["--workers", workers]].concat();
        let got = artifacts(&format!("{name}-w{workers}"), &line, "json", metrics);
        assert_golden(&format!("{name} at --workers {workers}"), got, golden);
    }
}

#[test]
fn sweep_matches_golden() {
    check(
        "sweep",
        &["sweep", "--figure", "fig3a", "--bins", "3", "--per-bin", "8", "--seed", "7"],
        [
            include_str!("../testdata/sweep/fig3a.txt"),
            include_str!("../testdata/sweep/fig3a.json"),
            include_str!("../testdata/sweep/fig3a.metrics.json"),
        ],
    );
}

#[test]
fn conform_matches_golden() {
    check(
        "conform",
        &[
            "conform",
            "--figure",
            "fig3a",
            "--bins",
            "3",
            "--per-bin",
            "8",
            "--sim-horizon",
            "25",
            "--seed",
            "7",
        ],
        [
            include_str!("../testdata/conform/fig3a.txt"),
            include_str!("../testdata/conform/fig3a.json"),
            include_str!("../testdata/conform/fig3a.metrics.json"),
        ],
    );
}

#[test]
fn conform_twod_matches_golden() {
    check(
        "twod",
        &["conform", "--twod", "--samples", "500", "--bins", "10", "--seed", "20070326"],
        [
            include_str!("../testdata/conform/twod.txt"),
            include_str!("../testdata/conform/twod.json"),
            "",
        ],
    );
}

/// Loadgen has no workers: one run per artifact format pair.
#[test]
fn loadgen_matches_golden() {
    let line = ["loadgen", "--ops", "2000", "--sessions", "8", "--columns", "32", "--seed", "7"];
    let stdout = include_str!("../testdata/loadgen/small.txt");
    for (out, metrics, golden) in [
        (
            "json",
            "json",
            [
                stdout,
                include_str!("../testdata/loadgen/small.json"),
                include_str!("../testdata/loadgen/small.metrics.json"),
            ],
        ),
        (
            "csv",
            "txt",
            [
                stdout,
                include_str!("../testdata/loadgen/small.csv"),
                include_str!("../testdata/loadgen/small.metrics.txt"),
            ],
        ),
    ] {
        let name = format!("loadgen-{out}");
        assert_golden(&name, artifacts(&name, &line, out, Some(metrics)), golden);
    }
}
