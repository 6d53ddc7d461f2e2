//! Tiny-budget runs of the benchmark binary: every workload runs clean in
//! both modes, prints exactly the metrics `BENCHMARK.json` declares, and
//! fails when an output is corrupted before the oracle compares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde::Value;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["wire-pingpong", "core-boundary", "core-knife", "figures"];

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    let entries = value.as_map().unwrap_or_else(|| panic!("not an object: {value:?}"));
    &entries.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no {key}")).1
}

/// Metric names `BENCHMARK.json` declares under `section`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let items = field(&json, section).as_seq().expect("a list").to_vec();
    items
        .iter()
        .map(|m| match field(m, "name") {
            Value::Str(s) => s.clone(),
            other => panic!("name {other:?}"),
        })
        .collect()
}

/// Run one workload; returns the exit status and the parsed result line.
fn run(workload: &str, seed: u64, trace: bool, fault: bool) -> (bool, Value) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0.3"]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if fault {
        cmd.arg("--inject-fault");
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!("{workload}: no output; stderr: {}", String::from_utf8_lossy(&out.stderr))
    });
    (out.status.success(), serde_json::from_str(last).expect("result line is JSON"))
}

fn metric_names(result: &Value) -> Vec<String> {
    field(result, "metrics")
        .as_map()
        .expect("metrics object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn every_workload_runs_and_reports_the_declared_metrics() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let declared = declared(section);
        for workload in WORKLOADS {
            let (ok, result) = run(workload, 3, trace, false);
            assert!(ok, "{workload} trace={trace}: {result:?}");
            assert_eq!(field(&result, "correct"), &Value::Bool(true));
            assert_eq!(field(&result, "failed"), &Value::Int(0));
            assert_eq!(metric_names(&result), declared, "{workload} trace={trace}");
            for name in metric_names(&result) {
                assert!(
                    name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name}"
                );
            }
            if !trace {
                for (name, metric) in field(&result, "metrics").as_map().unwrap() {
                    match field(metric, "value") {
                        Value::Float(v) => assert!(*v > 0.0, "{workload} {name} = {v}"),
                        other => panic!("{workload} {name}: {other:?}"),
                    }
                }
            }
        }
    }
}

#[test]
fn a_corrupted_output_fails_the_run() {
    for workload in WORKLOADS {
        let (ok, result) = run(workload, 4, false, true);
        assert!(!ok, "{workload} must exit nonzero");
        assert_eq!(field(&result, "correct"), &Value::Bool(false), "{workload}");
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
