//! Golden transcripts of the population engines, checked in-process at one
//! and four pool workers (CI diffs the built binary against the same
//! files):
//!
//! * `sweep --figure fig3a --bins 3 --per-bin 8 --seed 7` — stdout, the
//!   `--out` JSON and the `--deterministic --metrics-out` JSON;
//! * `conform --figure fig3a --bins 3 --per-bin 8 --sim-horizon 25
//!   --seed 7` — the same three;
//! * `conform --twod --samples 500 --bins 10 --seed 20070326` — stdout and
//!   the `--out` JSON.
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
//! ```

use fpga_rt_cli::{run, ExitCode};
use std::path::PathBuf;

/// Run `line` plus `--workers W --out … [--metrics-out …]` and return
/// stdout, the `--out` file and, when `metrics` is set, the metrics file.
fn artifacts(name: &str, line: &[&str], workers: &str, metrics: bool) -> [String; 3] {
    let dir = std::env::temp_dir()
        .join(format!("fpga-rt-engine-golden-{}-{name}-w{workers}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |file: &str| -> PathBuf { dir.join(file) };
    let (out_path, metrics_path) = (path("out.json"), path("metrics.json"));
    let mut args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
    args.extend(["--workers", workers, "--out"].map(String::from));
    args.push(out_path.to_string_lossy().into_owned());
    if metrics {
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

fn check(name: &str, line: &[&str], golden: [&str; 3]) {
    let metrics = !golden[2].is_empty();
    for workers in ["1", "4"] {
        let got = artifacts(name, line, workers, metrics);
        for ((got, want), what) in got.iter().zip(golden).zip(["stdout", "--out", "metrics"]) {
            assert_eq!(got, want, "{name} {what} at --workers {workers}");
        }
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
