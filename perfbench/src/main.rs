//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload wire-pingpong|core-boundary|core-knife|figures
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload for `S` seconds on inputs generated from seed `N`,
//! checks every output against an oracle, and prints one JSON result line
//! last on stdout: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Progress notes go to stderr. The exit code is
//! 0 only when every output was correct. See `README.md` next to this
//! file for the workloads, the metrics and the layer map.

mod core_load;
mod figures;
mod session;
mod stats;
mod trace;
mod wire;

use stats::RunResult;

/// End-to-end metrics (`--trace 0`), in output order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), in output order. A layer off a
/// workload's path reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("transport.overhead_p50_us", "us"),
    ("transport.overhead_p99_us", "us"),
    ("core.submit_ns.p50", "ns"),
    ("core.flush_ns.p50", "ns"),
    ("core.flush_ns.p99", "ns"),
    ("core.lines_per_flush.mean", "count"),
    ("protocol.parse_ns.p50", "ns"),
    ("protocol.render_ns.p50", "ns"),
    ("pool.overhead_ns_per_line", "ns"),
    ("pool.shard_load_max_over_mean", "ratio"),
    ("controller.admit_ns.dp-inc.p50", "ns"),
    ("controller.admit_ns.gn1.p50", "ns"),
    ("controller.admit_ns.gn2.p50", "ns"),
    ("controller.admit_ns.exact.p50", "ns"),
    ("controller.admit_ns.gn2.p99", "ns"),
    ("controller.query_ns.p50", "ns"),
    ("controller.query_ns.p99", "ns"),
    ("controller.release_ns.p50", "ns"),
    ("controller.tier_share.dp-inc", "ratio"),
    ("controller.tier_share.gn1", "ratio"),
    ("controller.tier_share.gn2", "ratio"),
    ("controller.tier_share.exact", "ratio"),
    ("controller.live_tasks.mean", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("analysis.dp_ns.p50", "ns"),
    ("analysis.gn1_ns.p50", "ns"),
    ("analysis.gn2_ns.p50", "ns"),
    ("analysis.gn2_ns.p99", "ns"),
    ("analysis.batch_gn2_ns.p50", "ns"),
    ("analysis.batch_gn2_ns.p99", "ns"),
    ("analysis.gn2_lambda_candidates.mean", "count"),
    ("gen.ns_per_taskset", "ns"),
    ("analysis.batch_ns_per_taskset", "ns"),
    ("sim.ns_per_taskset.fkf", "ns"),
    ("sim.ns_per_taskset.nf", "ns"),
    ("conform.sim_share", "ratio"),
    ("sweep.tasksets_per_s", "1/s"),
    ("conform.tasksets_per_s", "1/s"),
    ("run.warmup_ops", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["wire-pingpong", "core-boundary", "core-knife", "figures"];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: &'static str,
    /// Workload seed: every input is a function of it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Corrupt one recorded output before the oracle compares, to prove
    /// that a mismatch fails the run.
    pub inject_fault: bool,
}

/// Spread a workload seed over 64 bits (SplitMix64), so that neighbouring
/// seeds give unrelated streams.
pub fn mix_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident memory (`VmHWM`) of this process or of `pid`, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kib / 1024.0)
}

/// `(all, stolen)` CPU time of the machine so far, in clock ticks, from
/// the `cpu` line of `/proc/stat`. Steal is time a virtual CPU was ready
/// to run while the host ran something else.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).map_while(|f| f.parse().ok()).collect();
    Some((fields.iter().take(8).sum(), *fields.get(7)?))
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--inject-fault]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Params, String> {
    let mut params =
        Params { workload: "", seed: 0, seconds: 0.0, trace: false, inject_fault: false };
    let mut seen = [false; 4];
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--inject-fault" {
            params.inject_fault = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                params.workload = WORKLOADS
                    .iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| bad(&format!("expected one of {}", WORKLOADS.join(", "))))?;
                seen[0] = true;
            }
            "--seed" => {
                params.seed = value.parse().map_err(|_| bad("expected an integer"))?;
                seen[1] = true;
            }
            "--seconds" => {
                params.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("expected seconds in (0, 600]"))?;
                seen[2] = true;
            }
            "--trace" => {
                params.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
                seen[3] = true;
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    if seen.iter().any(|s| !s) {
        return Err(format!("missing flag\n{}", usage()));
    }
    Ok(params)
}

fn run(params: &Params) -> Result<RunResult, String> {
    match params.workload {
        "wire-pingpong" => wire::run(params),
        "core-boundary" => core_load::run(core_load::Mix::Boundary, params),
        "core-knife" => core_load::run(core_load::Mix::Knife, params),
        "figures" => figures::run(params),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The wire workload re-executes this binary as its server process:
    // `perfbench serve …` is `fpga-rt serve …`.
    if args.first().is_some_and(|a| a == "serve") {
        match fpga_rt_cli::run(&args, &mut std::io::stdout()) {
            fpga_rt_cli::ExitCode::Error(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
            _ => std::process::exit(0),
        }
    }
    let params = match parse_args(&args) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let ticks = cpu_ticks();
    let result = match run(&params) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("error: {}: {msg}", params.workload);
            std::process::exit(1);
        }
    };
    // Latency tails follow the host's load: note how much CPU it took.
    if let (Some((all0, stolen0)), Some((all1, stolen1))) = (ticks, cpu_ticks()) {
        let share = stats::ratio((stolen1 - stolen0) as f64, (all1 - all0) as f64);
        eprintln!(
            "{}: host steal {:.2}% of CPU time during the run",
            params.workload,
            share * 100.0
        );
    }
    for v in &result.violations {
        eprintln!("workload property violated: {v}");
    }
    if result.failed > 0 {
        eprintln!("{} of {} operations failed", result.failed, result.attempted);
    }
    let schema: &[(&str, &str)] = if params.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result.render(schema));
    std::process::exit(if result.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_and_workload_names_are_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .chain(WORKLOADS.iter().copied())
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate name");
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let p = parse_args(&args("--workload figures --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((p.workload, p.seed, p.seconds, p.trace), ("figures", 7, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload figures --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload figures --seed x --seconds 10 --trace 0")).is_err());
    }

    #[test]
    fn seeds_spread() {
        assert_ne!(mix_seed(1), mix_seed(2));
        assert_eq!(mix_seed(1), mix_seed(1));
    }
}
