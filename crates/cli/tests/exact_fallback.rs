//! Exact arithmetic that overflows is an answer, not a crash, on every
//! exact path of the built `fpga-rt` binary.
//!
//! * `serve` replays the poisson golden's requests with wider knife-edge
//!   bands (`--exact-margin` 1e-3, 0.05 and 0.5) at 1 and 4 workers. Every
//!   escalated decision overflows `Rat64` on these full-precision
//!   UUniFast parameters, and each response says so and keeps its f64
//!   verdict — 6, 159 and 360 of them. Stderr holds only the run summary
//!   `serve` always prints.
//! * `check --exact` (every `--test`) and `size --exact` on a taskset
//!   whose rationals have ~10⁶ denominators exit 2, and stderr holds only
//!   the `error:` line.
//!
//! The child processes run with `RUST_BACKTRACE=1`, so a panic anywhere
//! would also print a backtrace.

use std::path::PathBuf;
use std::process::{Command, Output};

const NOTE: &str = "exact re-check unavailable (exact arithmetic overflowed i64 for this \
                    taskset); f64 verdict";

fn fpga_rt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fpga-rt"))
        .args(args)
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("the fpga-rt binary runs")
}

fn utf8(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("utf-8 output")
}

fn repo_file(path: &str) -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(path);
    root.to_str().expect("utf-8 path").to_string()
}

#[test]
fn wide_margin_replays_fall_back_without_panicking() {
    let input = repo_file("crates/service/testdata/poisson.requests.jsonl");
    for (margin, notes) in [("1e-3", 6), ("0.05", 159), ("0.5", 360)] {
        for workers in ["1", "4"] {
            let out = fpga_rt(&[
                "serve",
                "--columns",
                "100",
                "--shards",
                "4",
                "--batch",
                "16",
                "--deterministic",
                "--workers",
                workers,
                "--exact-margin",
                margin,
                "--input",
                &input,
            ]);
            let context = format!("--exact-margin {margin} --workers {workers}");
            assert!(out.status.success(), "{context}: {:?}", out.status);
            let responses = utf8(&out.stdout);
            assert_eq!(responses.matches(NOTE).count(), notes, "{context}: fallback notes");
            let stderr = utf8(&out.stderr);
            let stray: Vec<&str> =
                stderr.lines().filter(|line| !line.starts_with("served 501 requests ")).collect();
            assert_eq!(stderr.lines().count(), 1, "{context}: one summary line\n{stderr}");
            assert!(stray.is_empty(), "{context}: stderr beyond the summary\n{stderr}");
        }
    }
}

/// Full-precision parameters whose `Rat64` images have ~10⁶ denominators.
const OVERFLOW_TASKSET: &str = r#"[
  {"exec":1.0000010000170003,"deadline":6.000002000094004,"period":6.000002000094004,"area":3},
  {"exec":1.000002000042001,"deadline":7.000003000141007,"period":7.000003000141007,"area":4},
  {"exec":1.0000030001170046,"deadline":8.00000400018801,"period":8.00000400018801,"area":5},
  {"exec":1.0000040001640067,"deadline":9.00000500023501,"period":9.00000500023501,"area":6}
]"#;

#[test]
fn exact_overflow_exits_2_with_only_the_error_line() {
    let dir = std::env::temp_dir().join(format!("fpga-rt-exact-fallback-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("overflow.json");
    std::fs::write(&path, OVERFLOW_TASKSET).unwrap();
    let path = path.to_str().unwrap();
    let mut runs: Vec<Vec<&str>> = ["dp", "gn1", "gn2", "nec", "any", "all"]
        .into_iter()
        .map(|test| vec!["check", "--taskset", path, "--columns", "20", "--test", test, "--exact"])
        .collect();
    runs.push(vec!["size", "--taskset", path, "--exact"]);
    for argv in runs {
        let out = fpga_rt(&argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert_eq!(utf8(&out.stdout), "", "{argv:?}");
        let stderr = utf8(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{argv:?}: {stderr}");
        assert!(
            stderr.starts_with("error: exact arithmetic overflowed i64 for this taskset;"),
            "{argv:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
