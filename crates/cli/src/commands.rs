//! Subcommand implementations.

use crate::args::{
    artifact_target, cache_entries, connect_endpoint, figures, horizon_factor, listen_endpoint,
    metrics_target, non_negative, parsed_flag, positive_count, seed, write_metrics, Args,
    ArtifactFormat, DEFAULT_SEED,
};
use crate::io::{device_from, taskset_from};
use crate::{accept_only_known_flags, ExitCode};
use fpga_rt_analysis::{
    AnyOfTest, ArithmeticOverflow, DpTest, Gn1Test, Gn2Test, NecessaryTest, SchedTest, TestReport,
};
use fpga_rt_exp::study::{Study, StudyConfig};
use fpga_rt_exp::sweep::{analysis_evaluators, run_pool_sweep, PoolSweepConfig};
use fpga_rt_gen::{FigureWorkload, TasksetSpec, UtilizationBins};
use fpga_rt_model::{Fpga, Rat64, TaskSet, Time};
use fpga_rt_service::{
    serve_session_with_obs, ClientStream, Endpoint, ServeConfig, SocketServer, TransportConfig,
};
use fpga_rt_sim::{
    simulate_f64, FitStrategy, Horizon, PlacementPolicy, ReconfigOverhead, SchedulerKind, SimConfig,
};
use std::io::Write;

type CmdResult = Result<ExitCode, String>;

/// The `--exact` paths' error: exact arithmetic overflowed on this taskset
/// (process exit code 2). `Rat64` never silently loses precision, and
/// full-precision `f64` inputs can drive the analysis past i64 range.
fn exact_overflow(overflow: ArithmeticOverflow) -> String {
    format!(
        "{overflow}; exact verdicts need small-denominator (knife-edge) \
         parameters — use the default f64 mode instead"
    )
}

/// The taskset in exact rationals, for the `--exact` paths.
fn exact_taskset(ts: &TaskSet<f64>) -> Result<TaskSet<Rat64>, String> {
    // Model validation guarantees finite inputs, so the continued-fraction
    // conversion cannot fail here.
    ts.map_time(|v| {
        Rat64::approx_f64(v, Rat64::TASK_MAX_DENOMINATOR).expect("validated finite task parameters")
    })
    .map_err(|e| e.to_string())
}

fn report_line(out: &mut dyn Write, rep: &TestReport, verbose: bool) {
    if verbose {
        let _ = write!(out, "{}", rep.summarize());
    } else {
        let _ =
            writeln!(out, "{:<12} {}", rep.test, if rep.accepted() { "accept" } else { "reject" });
    }
}

/// `fpga-rt check` — run schedulability tests on a taskset file.
pub fn check(args: &Args, out: &mut dyn Write) -> CmdResult {
    accept_only_known_flags("check", args)?;
    let ts = taskset_from(args)?;
    let dev = device_from(args)?;
    let which = args.flags.get("test").map(String::as_str).unwrap_or("any");
    let reports = if args.has("exact") {
        run_tests(which, &exact_taskset(&ts)?, &dev)?
    } else {
        run_tests(which, &ts, &dev)?
    };
    let mut accepted = false;
    for rep in &reports {
        report_line(out, rep, args.has("verbose"));
        accepted |= rep.accepted();
    }
    Ok(if accepted { ExitCode::Accepted } else { ExitCode::Rejected })
}

/// Every report of the selected tests, or the first exact overflow.
fn run_tests<T: Time>(which: &str, ts: &TaskSet<T>, dev: &Fpga) -> Result<Vec<TestReport>, String> {
    let tests: Vec<Box<dyn SchedTest<T> + Send + Sync>> = match which {
        "dp" => vec![Box::new(DpTest::default())],
        "gn1" => vec![Box::new(Gn1Test::default())],
        "gn2" => vec![Box::new(Gn2Test::default())],
        "nec" => vec![Box::new(NecessaryTest)],
        "any" => vec![Box::new(AnyOfTest::paper_suite())],
        "all" => vec![
            Box::new(DpTest::default()),
            Box::new(Gn1Test::default()),
            Box::new(Gn2Test::default()),
        ],
        other => return Err(format!("unknown test {other:?} (dp|gn1|gn2|nec|any|all)")),
    };
    tests.iter().map(|t| t.try_check(ts, dev).map_err(exact_overflow)).collect()
}

/// `fpga-rt simulate` — run the discrete-event simulator.
pub fn simulate(args: &Args, out: &mut dyn Write) -> CmdResult {
    accept_only_known_flags("simulate", args)?;
    let ts = taskset_from(args)?;
    let dev = device_from(args)?;

    let scheduler = match args.flags.get("scheduler").map(String::as_str).unwrap_or("nf") {
        "nf" => SchedulerKind::EdfNf,
        "fkf" => SchedulerKind::EdfFkf,
        other => return Err(format!("unknown scheduler {other:?} (nf|fkf)")),
    };
    let placement = match args.flags.get("placement").map(String::as_str).unwrap_or("free") {
        "free" => PlacementPolicy::FreeMigration,
        "first-fit" => PlacementPolicy::Contiguous(FitStrategy::FirstFit),
        "best-fit" => PlacementPolicy::Contiguous(FitStrategy::BestFit),
        "worst-fit" => PlacementPolicy::Contiguous(FitStrategy::WorstFit),
        other => {
            return Err(format!("unknown placement {other:?} (free|first-fit|best-fit|worst-fit)"))
        }
    };
    let mut config = SimConfig::default()
        .with_scheduler(scheduler)
        .with_placement(placement)
        .with_horizon(Horizon::PeriodsOfTmax(horizon_factor(args, "horizon", 100.0)?));
    let oh = non_negative(args, "overhead-per-column", 0.0)?;
    if oh > 0.0 {
        config = config.with_overhead(ReconfigOverhead::PerColumn(oh));
    }
    if args.has("trace") {
        config = config.with_full_trace();
    }

    let outcome = simulate_f64(&ts, &dev, &config).map_err(|e| e.to_string())?;
    let m = &outcome.metrics;
    let _ = writeln!(
        out,
        "span {:.3}: released {}, completed {}, preemptions {}, placements {}",
        m.span, m.released, m.completed, m.preemptions, m.placements
    );
    let _ = writeln!(out, "mean fabric utilization: {:.3}", m.mean_utilization(dev.columns()));
    for (k, r) in m.response.iter().enumerate() {
        if let Some(mean) = r.mean() {
            let _ = writeln!(out, "  τ{k}: max response {:.3}, mean {:.3}", r.max, mean);
        }
    }
    match outcome.first_miss() {
        None => {
            let _ = writeln!(out, "no deadline miss");
            if let Some(trace) = &outcome.trace {
                let _ = write!(out, "{}", trace.render_ascii(ts.len(), 72));
            }
            Ok(ExitCode::Accepted)
        }
        Some(miss) => {
            let _ = writeln!(
                out,
                "MISS: {} job #{} at t={:.3} ({:.3} work left)",
                miss.task, miss.job_index, miss.time, miss.remaining
            );
            Ok(ExitCode::Rejected)
        }
    }
}

/// Smallest device (in `[lo, max]` columns) each test accepts, generic over
/// the numeric representation (binary search; all tests are monotone in the
/// device size, see the scale-invariance property tests).
fn size_rows<T: Time>(
    ts: &TaskSet<T>,
    lo: u32,
    max: u32,
) -> Result<Vec<(&'static str, Option<u32>)>, ArithmeticOverflow> {
    let minimal = |test: &dyn SchedTest<T>| -> Result<Option<u32>, ArithmeticOverflow> {
        let accepts = |columns| match Fpga::new(columns) {
            Ok(device) => test.try_check(ts, &device).map(|rep| rep.accepted()),
            Err(_) => Ok(false),
        };
        if !accepts(max)? {
            return Ok(None);
        }
        let (mut lo, mut hi) = (lo.max(1), max);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if accepts(mid)? {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Ok(Some(lo))
    };
    Ok(vec![
        ("DP", minimal(&DpTest::default())?),
        ("GN1", minimal(&Gn1Test::default())?),
        ("GN2", minimal(&Gn2Test::default())?),
        ("DP∪GN1∪GN2", minimal(&AnyOfTest::paper_suite())?),
    ])
}

/// `fpga-rt size` — smallest device passing each test, in `f64` or (with
/// `--exact`) exact rational arithmetic.
pub fn size(args: &Args, out: &mut dyn Write) -> CmdResult {
    accept_only_known_flags("size", args)?;
    let ts = taskset_from(args)?;
    let max = positive_count(args, "max")?.unwrap_or(1000);
    let max = u32::try_from(max).map_err(|_| format!("--max {max} is too large"))?;
    let lo = ts.amax();

    let rows = if args.has("exact") {
        size_rows(&exact_taskset(&ts)?, lo, max)
    } else {
        size_rows(&ts, lo, max)
    }
    .map_err(exact_overflow)?;

    for (name, v) in &rows {
        match v {
            Some(c) => {
                let _ = writeln!(out, "{name:<12} {c} columns");
            }
            None => {
                let _ = writeln!(out, "{name:<12} none ≤ {max}");
            }
        }
    }
    let any = rows.last().and_then(|(_, v)| *v);
    Ok(if any.is_some() { ExitCode::Accepted } else { ExitCode::Rejected })
}

/// `fpga-rt generate` — emit a random taskset as JSON.
pub fn generate(args: &Args, out: &mut dyn Write) -> CmdResult {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    accept_only_known_flags("generate", args)?;
    let seed = seed(args, 42)?;
    let spec = match args.flags.get("figure") {
        Some(id) => FigureWorkload::by_id(id).ok_or_else(|| format!("unknown figure {id:?}"))?.spec,
        None => TasksetSpec::unconstrained(positive_count(args, "n")?.unwrap_or(10)),
    };
    let ts = spec.generate(&mut StdRng::seed_from_u64(seed));
    let json = if args.has("pretty") {
        serde_json::to_string_pretty(&ts)
    } else {
        serde_json::to_string(&ts)
    }
    .map_err(|e| e.to_string())?;
    let _ = writeln!(out, "{json}");
    Ok(ExitCode::Accepted)
}

/// `fpga-rt tables` — the paper's Tables 1–3 verdict matrix with a
/// simulation cross-check, and the Table 3 GN2 λ walkthrough (each case is
/// evaluated in f64 *and* exact arithmetic; the paper's short decimals stay
/// far inside `Rat64` range).
pub fn tables(args: &Args, out: &mut dyn Write) -> CmdResult {
    accept_only_known_flags("tables", args)?;
    let _ = write!(out, "{}", fpga_rt_exp::tables::render_report());
    Ok(ExitCode::Accepted)
}

/// `fpga-rt sweep` — a parallel acceptance-ratio sweep over the shared
/// worker pool: DP/GN1/GN2/AnyOf acceptance curves across utilization bins
/// for one of the paper's figure workloads, at any population size.
///
/// Stdout (the aligned text table) and the `--out` file are byte-identical
/// for every `--workers` value at a fixed seed — CI diffs 1-worker and
/// 4-worker runs against the goldens under `crates/cli/testdata/sweep/`.
pub fn sweep(args: &Args, out: &mut dyn Write) -> CmdResult {
    accept_only_known_flags("sweep", args)?;
    let figure = args.flags.get("figure").map(String::as_str).unwrap_or("fig3a");
    let workload = FigureWorkload::by_id(figure)
        .ok_or_else(|| format!("unknown figure {figure:?} (fig3a|fig3b|fig4a|fig4b)"))?;
    let bins = parsed_flag(args, "bins", 20usize)?;
    if bins == 0 {
        return Err("--bins must be ≥ 1".into());
    }
    let per_bin = positive_count(args, "per-bin")?.unwrap_or(200);
    let seed = seed(args, DEFAULT_SEED)?;
    let deterministic = args.has("deterministic");
    let out_target = artifact_target(args, "out", &[ArtifactFormat::Json, ArtifactFormat::Csv])?;
    let (metrics, obs) = metrics_target(args, deterministic)?;

    let mut config = PoolSweepConfig::new(workload, per_bin, seed);
    config.bins = UtilizationBins::new(0.0, 1.0, bins);
    config.workers = positive_count(args, "workers")?.unwrap_or(0);
    config.obs = obs.clone();
    let outcome = run_pool_sweep(&config, &analysis_evaluators());

    let _ = write!(out, "{}", fpga_rt_exp::output::render_text(&outcome.result));
    if outcome.exhausted_units > 0 {
        let _ = writeln!(
            out,
            "note: {} of {} samples exhausted the generator's attempt budget",
            outcome.exhausted_units,
            bins * per_bin
        );
    }
    if outcome.failed_units > 0 {
        let _ = writeln!(
            out,
            "warning: {} of {} samples lost to panicking evaluators; \
             the curves cover a reduced population",
            outcome.failed_units,
            bins * per_bin
        );
    }
    if let Some((path, format)) = &out_target {
        let rendered = match format {
            ArtifactFormat::Csv => fpga_rt_exp::output::render_csv(&outcome.result),
            _ => {
                let mut json =
                    serde_json::to_string_pretty(&outcome.result).map_err(|e| e.to_string())?;
                json.push('\n');
                json
            }
        };
        std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(registry) = obs.registry() {
        registry.set_meta("mode", "sweep");
        registry.set_meta("figure", figure);
        registry.set_meta("bins", &bins.to_string());
        registry.set_meta("per_bin", &per_bin.to_string());
        registry.set_meta("seed", &seed.to_string());
        registry.set_meta("deterministic", if deterministic { "true" } else { "false" });
        write_metrics(&metrics, &registry.snapshot())?;
    }
    Ok(ExitCode::Accepted)
}

/// `fpga-rt conform` — cross-validate every analytic verdict against the
/// discrete-event simulator over binned UUniFast populations, classifying
/// each (taskset, evaluator) pair into sound-accept / sound-reject /
/// pessimistic-reject / SOUNDNESS-VIOLATION with minimized counterexample
/// traces for any violation.
///
/// Stdout and the `--out` artifact are byte-identical for every
/// `--workers` value at a fixed seed — CI diffs 1-worker and 4-worker runs
/// against the goldens under `crates/cli/testdata/conform/` and
/// additionally gates on zero violations over ≥10 000 tasksets across all
/// four figures. Exit code: 0 when every verdict
/// conforms, 1 on any soundness violation.
pub fn conform(args: &Args, out: &mut dyn Write) -> CmdResult {
    use fpga_rt_conform::{
        paper_conform_evaluators, render_csv_multi, render_text, run_conform, run_twod_bridge,
        ConformConfig, ConformReport, TwodBridgeConfig,
    };
    accept_only_known_flags("conform", args)?;

    let bins = parsed_flag(args, "bins", 20usize)?;
    if bins == 0 {
        return Err("--bins must be ≥ 1".into());
    }
    let per_bin = positive_count(args, "per-bin")?.unwrap_or(100);
    let seed = seed(args, DEFAULT_SEED)?;
    let workers = positive_count(args, "workers")?.unwrap_or(0);
    let sim_horizon = horizon_factor(args, "sim-horizon", 50.0)?;
    let deterministic = args.has("deterministic");

    if args.has("twod") {
        // A 1-D population flag in bridge mode (or vice versa, below)
        // would be silently ignored — i.e. a differently-sized population
        // than the operator asked for. Refuse instead.
        for stray in ["figure", "per-bin"] {
            if args.has(stray) {
                return Err(format!(
                    "--{stray} applies to the 1-D mode; --twod sizes its \
                     population with --samples"
                ));
            }
        }
        // The bridge does not thread the telemetry registry; accepting the
        // flag would write an empty metrics artifact.
        if args.has("metrics-out") {
            return Err("--metrics-out applies to the 1-D mode".into());
        }
        let out_target = artifact_target(args, "out", &[ArtifactFormat::Json])?;
        let mut config =
            TwodBridgeConfig::new(positive_count(args, "samples")?.unwrap_or(500), seed);
        config.bins = UtilizationBins::new(0.0, 1.0, bins);
        config.workers = workers;
        config.sim_horizon = sim_horizon;
        let outcome = run_twod_bridge(&config);
        let _ = write!(out, "{}", render_text(&outcome.report));
        let _ = writeln!(
            out,
            "sim-1d-nf vs native-2d: both-clean {}, 1d-clean/2d-miss (anomaly) {}, \
             1d-miss/2d-clean {}, both-miss {}",
            outcome.sim1d.both_clean,
            outcome.sim1d.anomaly_1d_clean_2d_miss,
            outcome.sim1d.conservative_1d_miss_2d_clean,
            outcome.sim1d.both_miss
        );
        let _ = writeln!(
            out,
            "native-2d scheduling anomalies on AnyOf-accepted draws \
             (measured, not gated): {}",
            outcome.analytic_anomalies
        );
        if let Some((path, _)) = &out_target {
            let mut json =
                serde_json::to_string_pretty(&outcome.artifact()).map_err(|e| e.to_string())?;
            json.push('\n');
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if outcome.failed_units > 0 {
            // An unclassified unit could be the violating one; a gate
            // must not certify a silently reduced population.
            return Err(format!(
                "{} of {} samples lost to panicking evaluators — population not fully \
                 classified",
                outcome.failed_units, config.samples
            ));
        }
        return Ok(if outcome.report.sound() { ExitCode::Accepted } else { ExitCode::Rejected });
    }

    if args.has("samples") {
        return Err("--samples applies to --twod mode; the 1-D mode sizes its population \
             with --bins × --per-bin"
            .into());
    }
    let figure = args.flags.get("figure").map(String::as_str).unwrap_or("all");
    let workloads = figures(figure)?;

    let out_target = artifact_target(args, "out", &[ArtifactFormat::Json, ArtifactFormat::Csv])?;
    let (metrics, obs) = metrics_target(args, deterministic)?;

    let mut reports: Vec<ConformReport> = Vec::with_capacity(workloads.len());
    let mut exhausted = 0usize;
    let mut failed = 0usize;
    for workload in workloads {
        let mut config = ConformConfig::new(workload, per_bin, seed);
        config.bins = UtilizationBins::new(0.0, 1.0, bins);
        config.workers = workers;
        config.sim_horizon = sim_horizon;
        // One shared registry across the figure loop, so per-figure
        // counters accumulate into a single artifact.
        config.obs = obs.clone();
        let outcome = run_conform(&config, paper_conform_evaluators());
        let _ = write!(out, "{}", render_text(&outcome.report));
        exhausted += outcome.exhausted_units;
        failed += outcome.failed_units;
        reports.push(outcome.report);
    }
    let violations: usize = reports.iter().map(|r| r.total_violations).sum();
    if exhausted > 0 {
        let _ = writeln!(out, "note: {exhausted} samples exhausted the generator's attempt budget");
    }

    if let Some((path, format)) = &out_target {
        let rendered = match format {
            ArtifactFormat::Csv => render_csv_multi(&reports),
            _ => {
                let mut json = if reports.len() == 1 {
                    serde_json::to_string_pretty(&reports[0]).map_err(|e| e.to_string())?
                } else {
                    serde_json::to_string_pretty(&reports).map_err(|e| e.to_string())?
                };
                json.push('\n');
                json
            }
        };
        std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(registry) = obs.registry() {
        registry.set_meta("mode", "conform");
        registry.set_meta("figure", figure);
        registry.set_meta("bins", &bins.to_string());
        registry.set_meta("per_bin", &per_bin.to_string());
        registry.set_meta("seed", &seed.to_string());
        registry.set_meta("sim_horizon", &sim_horizon.to_string());
        registry.set_meta("deterministic", if deterministic { "true" } else { "false" });
        write_metrics(&metrics, &registry.snapshot())?;
    }
    if failed > 0 {
        // An unclassified unit could be the violating one; a gate must
        // not certify a silently reduced population.
        return Err(format!(
            "{failed} samples lost to panicking evaluators — population not fully classified"
        ));
    }
    Ok(if violations == 0 { ExitCode::Accepted } else { ExitCode::Rejected })
}

/// `fpga-rt study <name>` — one of the seven studies of
/// [`fpga_rt_exp::study`] at its default figure and population unless
/// `--figure` / `--per-bin` say otherwise. Stdout is byte-identical for
/// every `--workers` value at a fixed seed; CI diffs it against the
/// committed goldens under `crates/cli/testdata/study/`.
pub fn study(args: &Args, out: &mut dyn Write) -> CmdResult {
    accept_only_known_flags("study", args)?;
    let names = || Study::ALL.map(Study::name).join("|");
    let study = match args.positional.as_slice() {
        [name] => {
            Study::by_name(name).ok_or_else(|| format!("unknown study {name:?} ({})", names()))?
        }
        _ => return Err(format!("study expects exactly one name ({})", names())),
    };
    if study == Study::Twod && args.has("figure") {
        return Err("--figure does not apply to `study twod`, which draws 2-D tasksets".into());
    }
    if study == Study::Ablations && args.has("sim-horizon") {
        return Err(
            "--sim-horizon does not apply to `study ablations`, which simulates nothing".into()
        );
    }

    let mut config = StudyConfig::new(study, seed(args, DEFAULT_SEED)?);
    if let Some(spec) = args.flags.get("figure") {
        config.figures = figures(spec)?;
    }
    config.per_bin = positive_count(args, "per-bin")?.unwrap_or(config.per_bin);
    config.workers = positive_count(args, "workers")?.unwrap_or(0);
    config.sim_horizon = horizon_factor(args, "sim-horizon", config.sim_horizon)?;
    let _ = write!(out, "{}", study.run(&config));
    Ok(ExitCode::Accepted)
}

/// `fpga-rt serve` — the online admission-control service. The default
/// `--listen stdio` transport reads JSONL requests on stdin (or `--input
/// FILE`) and writes one JSONL response per request on stdout; `--listen
/// tcp://HOST:PORT` / `--listen unix://PATH` serves the same protocol to
/// many concurrent socket connections through the non-blocking event
/// loop, byte-identical per connection to the stdio transcript. Either
/// way, a human summary goes to stderr; under `--deterministic` its
/// request rate reads 0, so the summary is byte-identical too.
pub fn serve(args: &Args, out: &mut dyn Write) -> CmdResult {
    accept_only_known_flags("serve", args)?;
    let columns = positive_count(args, "columns")?.ok_or("--columns N (≥1) is required")? as u32;
    let config = ServeConfig {
        columns,
        shards: positive_count(args, "shards")?.unwrap_or(1).min(u32::MAX as usize) as u32,
        workers: positive_count(args, "workers")?.unwrap_or(0),
        batch: positive_count(args, "batch")?.unwrap_or(64),
        exact_margin: non_negative(args, "exact-margin", 1e-9)?,
        deterministic: args.has("deterministic"),
        cache: cache_entries(args)?,
        sessions: positive_count(args, "sessions")?,
    };
    let endpoint = listen_endpoint(args)?;
    let conns = positive_count(args, "conns")?;
    let input = args.flags.get("input").filter(|p| !p.is_empty());
    let (metrics, obs) = metrics_target(args, config.deterministic)?;
    let start = std::time::Instant::now();
    let (stats, snapshot) = if endpoint == Endpoint::Stdio {
        if conns.is_some() {
            return Err("--conns applies to socket listeners; stdio serves exactly one pipe".into());
        }
        match input {
            Some(path) => {
                let file =
                    std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
                serve_session_with_obs(&mut std::io::BufReader::new(file), out, &config, obs)?
            }
            None => serve_session_with_obs(&mut std::io::stdin().lock(), out, &config, obs)?,
        }
    } else {
        if input.is_some() {
            return Err(format!(
                "--input replays a file over stdio; it cannot be combined with \
                 --listen {endpoint} (use `fpga-rt client --connect {endpoint} --input FILE`)"
            ));
        }
        let transport = TransportConfig { max_conns: conns, ..TransportConfig::default() };
        let server = SocketServer::bind(&endpoint, transport)?;
        eprintln!("listening on {}", server.local_endpoint());
        server.serve(&config, obs)?
    };
    write_metrics(&metrics, &snapshot)?;
    // A deterministic run zeroes every timed value, the rate included, so
    // a replay's stderr is byte-identical from run to run.
    let elapsed = start.elapsed().as_secs_f64();
    let rate =
        if config.deterministic || elapsed <= 0.0 { 0.0 } else { stats.requests as f64 / elapsed };
    eprintln!(
        "served {} requests in {} batches ({rate:.0} req/s): \
         {} accepted, {} rejected, {} errors; \
         tiers dp-inc={} gn1={} gn2={} exact={}",
        stats.requests,
        stats.batches,
        stats.accepted,
        stats.rejected,
        stats.errors,
        stats.tiers.dp_inc,
        stats.tiers.gn1,
        stats.tiers.gn2,
        stats.tiers.exact
    );
    Ok(ExitCode::Accepted)
}

/// `fpga-rt client` — replay a JSONL request stream against a running
/// socket listener: connect (retrying for up to five seconds, so a
/// just-forked server finishes binding), stream `--input FILE` (or
/// stdin), half-close the write side, and copy the response transcript
/// to stdout until the server closes. The CI `socket-smoke` job diffs
/// that stdout against the stdio golden byte-for-byte.
///
/// Sending happens on a second thread while responses drain here, so a
/// request stream larger than the server's outbound budget cannot
/// deadlock (or trip the slow-consumer disconnect) waiting for a reader.
pub fn client(args: &Args, out: &mut dyn Write) -> CmdResult {
    use std::io::Read;
    accept_only_known_flags("client", args)?;
    let endpoint = connect_endpoint(args)?;
    let input: Vec<u8> = match args.flags.get("input").filter(|p| !p.is_empty()) {
        Some(path) => std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?,
        None => {
            let mut buf = Vec::new();
            std::io::stdin()
                .lock()
                .read_to_end(&mut buf)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            buf
        }
    };
    let mut stream =
        ClientStream::connect_with_retry(&endpoint, std::time::Duration::from_secs(5))?;
    let mut writer = stream.try_clone()?;
    let sender = std::thread::spawn(move || -> Result<(), String> {
        writer.write_all(&input).map_err(|e| format!("cannot send requests: {e}"))?;
        writer.shutdown_write()
    });
    let mut responses = 0usize;
    let mut chunk = [0u8; 64 * 1024];
    loop {
        let n = stream.read(&mut chunk).map_err(|e| format!("cannot read responses: {e}"))?;
        if n == 0 {
            break;
        }
        out.write_all(&chunk[..n]).map_err(|e| e.to_string())?;
        responses += chunk[..n].iter().filter(|b| **b == b'\n').count();
    }
    sender.join().map_err(|_| "sender thread panicked".to_string())??;
    eprintln!("received {responses} response lines from {endpoint}");
    Ok(ExitCode::Accepted)
}

/// `fpga-rt loadgen` — the traffic-shaped load generator: synthesize
/// deterministic arrival streams (Poisson, bursty on/off, adversarial
/// knife-edge) across many logical sessions, replay them in order on this
/// thread against one in-process admission controller per session, and
/// report p50/p99/p999/max latency plus per-tier decision counts.
///
/// Under `--deterministic` the latency columns are zeroed, so stdout and
/// the `--out` and `--metrics-out` artifacts are byte-identical from run
/// to run at a fixed seed; CI and `tests/engine_golden.rs` diff them
/// against the goldens under `crates/cli/testdata/loadgen/`.
pub fn loadgen(args: &Args, out: &mut dyn Write) -> CmdResult {
    use fpga_rt_loadgen::{run_soak_with_obs, run_with_obs, ArrivalProfile, LoadConfig};
    accept_only_known_flags("loadgen", args)?;

    if args.flags.contains_key("target") {
        return loadgen_socket(args, out);
    }
    let profiles = match args.flags.get("profile").map(String::as_str) {
        None | Some("all") => ArrivalProfile::all(),
        Some(id) => vec![ArrivalProfile::by_id(id)
            .ok_or_else(|| format!("unknown profile {id:?} (poisson|bursty|adversarial|all)"))?],
    };
    let mut config = LoadConfig::default();
    config.ops = positive_count(args, "ops")?.unwrap_or(config.ops);
    config.sessions = positive_count(args, "sessions")?
        .unwrap_or(config.sessions as usize)
        .min(u32::MAX as usize) as u32;
    config.columns = positive_count(args, "columns")?
        .unwrap_or(config.columns as usize)
        .min(u32::MAX as usize) as u32;
    config.rounds = positive_count(args, "rounds")?
        .unwrap_or(config.rounds as usize)
        .min(u32::MAX as usize) as u32;
    config.seed = seed(args, DEFAULT_SEED)?;
    config.deterministic = args.has("deterministic");
    config.cache = cache_entries(args)?;

    let out_target = artifact_target(args, "out", &[ArtifactFormat::Json, ArtifactFormat::Csv])?;
    let (metrics, obs) = metrics_target(args, config.deterministic)?;

    let (report, snapshot) = match positive_count(args, "soak")? {
        Some(secs) => run_soak_with_obs(&profiles, &config, secs as u64, obs)?,
        None => run_with_obs(&profiles, &config, obs)?,
    };

    let _ = write!(out, "{}", report.render_text());
    if let Some((path, format)) = &out_target {
        let rendered = match format {
            ArtifactFormat::Csv => report.render_csv(),
            _ => report.render_json(),
        };
        std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    write_metrics(&metrics, &snapshot)?;
    Ok(ExitCode::Accepted)
}

/// `fpga-rt loadgen --target …` — the socket client mode: drive a
/// *running* `fpga-rt serve --listen` process over `--conns` concurrent
/// connections, ping-ponging `--requests` data ops per connection, and
/// verify the transport's per-connection ordering contract (id echo,
/// strictly incrementing `seq`). Exit 0 only when zero responses were
/// dropped or reordered and none errored — the CI `socket-smoke` gate.
fn loadgen_socket(args: &Args, out: &mut dyn Write) -> CmdResult {
    use fpga_rt_loadgen::{run_socket, SocketLoadConfig};
    let spec = args.flags.get("target").expect("dispatched on --target");
    let endpoint = match Endpoint::parse(spec).map_err(|e| format!("--target: {e}"))? {
        Endpoint::Stdio => {
            return Err("--target expects a socket endpoint (`tcp://HOST:PORT` or \
                 `unix://PATH`); the in-process modes already cover stdio-style replay"
                .into())
        }
        endpoint => endpoint,
    };
    // Socket mode measures a live server, so the in-process replay knobs
    // would be silently ignored — refuse them instead.
    for stray in [
        "profile",
        "ops",
        "rounds",
        "soak",
        "columns",
        "sessions",
        "cache",
        "seed",
        "deterministic",
        "out",
        "metrics-out",
    ] {
        if args.has(stray) {
            return Err(format!(
                "--{stray} applies to the in-process modes; --target drives a running \
                 server and is sized with --conns/--requests"
            ));
        }
    }
    let mut config = SocketLoadConfig::default();
    if let Some(n) = positive_count(args, "conns")? {
        config.conns = n;
    }
    if let Some(n) = positive_count(args, "requests")? {
        config.requests = n;
    }
    let report = run_socket(&endpoint, &config)?;
    let _ = write!(out, "{}", report.render_text());
    Ok(if report.clean() && report.errors == 0 { ExitCode::Accepted } else { ExitCode::Rejected })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_taskset(name: &str, tuples: &[(f64, f64, f64, u32)]) -> String {
        let ts: TaskSet<f64> = TaskSet::try_from_tuples(tuples).unwrap();
        let dir = std::env::temp_dir().join("fpga-rt-cli-cmds");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, serde_json::to_string(&ts).unwrap()).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn args(line: &[&str]) -> Args {
        Args::from_args(line.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn check_accepts_table3_via_gn2() {
        let path = write_taskset("t3.json", &[(2.10, 5.0, 5.0, 7), (2.00, 7.0, 7.0, 7)]);
        let mut buf = Vec::new();
        let code = check(
            &args(&["--taskset", &path, "--columns", "10", "--test", "all", "--verbose"]),
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, ExitCode::Accepted);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("[GN2] ACCEPTED"));
        assert!(text.contains("[DP] REJECTED"));
    }

    #[test]
    fn check_exact_mode_runs() {
        let path = write_taskset("t1.json", &[(1.26, 7.0, 7.0, 9), (0.95, 5.0, 5.0, 6)]);
        let mut buf = Vec::new();
        let code = check(
            &args(&["--taskset", &path, "--columns", "10", "--test", "gn2", "--exact"]),
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, ExitCode::Rejected, "Table 1 is rejected by GN2");
    }

    #[test]
    fn check_rejects_unknown_test() {
        let path = write_taskset("t3b.json", &[(1.0, 5.0, 5.0, 1)]);
        assert!(check(
            &args(&["--taskset", &path, "--columns", "10", "--test", "zzz"]),
            &mut Vec::new()
        )
        .is_err());
    }

    #[test]
    fn simulate_reports_miss_and_clean() {
        let clean = write_taskset("clean.json", &[(1.0, 5.0, 5.0, 4)]);
        let mut buf = Vec::new();
        let code = simulate(&args(&["--taskset", &clean, "--columns", "10"]), &mut buf).unwrap();
        assert_eq!(code, ExitCode::Accepted);
        assert!(String::from_utf8(buf).unwrap().contains("no deadline miss"));

        let over = write_taskset("over.json", &[(4.0, 5.0, 5.0, 6), (4.0, 5.0, 5.0, 6)]);
        let mut buf = Vec::new();
        let code = simulate(&args(&["--taskset", &over, "--columns", "10"]), &mut buf).unwrap();
        assert_eq!(code, ExitCode::Rejected);
        assert!(String::from_utf8(buf).unwrap().contains("MISS"));
    }

    #[test]
    fn simulate_with_trace_prints_gantt() {
        let path = write_taskset("tr.json", &[(1.0, 5.0, 5.0, 4)]);
        let mut buf = Vec::new();
        simulate(
            &args(&["--taskset", &path, "--columns", "10", "--trace", "--horizon", "3"]),
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf).unwrap().contains('#'));
    }

    /// Full-precision parameters whose `Rat64` images have ~10^6
    /// denominators: GN2's products overflow i64 in exact mode.
    fn overflow_tuples() -> Vec<(f64, f64, f64, u32)> {
        vec![
            (1.000_001_000_017_000_3, 6.000_002_000_094_004, 6.000_002_000_094_004, 3),
            (1.000_002_000_042_001, 7.000_003_000_141_007, 7.000_003_000_141_007, 4),
            (1.000_003_000_117_004_6, 8.000_004_000_188_01, 8.000_004_000_188_01, 5),
            (1.000_004_000_164_006_7, 9.000_005_000_235_01, 9.000_005_000_235_01, 6),
        ]
    }

    /// Satellite regression: every subcommand that can run exact arithmetic
    /// maps a Rat64 overflow to a clean usage error (process exit code 2),
    /// never a crash.
    #[test]
    fn exact_overflow_maps_to_exit_2_in_check_and_size() {
        let path = write_taskset("ovf.json", &overflow_tuples());
        let check_err = check(
            &args(&["--taskset", &path, "--columns", "20", "--test", "gn2", "--exact"]),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(check_err.contains("overflowed"), "{check_err}");
        let size_err = size(&args(&["--taskset", &path, "--exact"]), &mut Vec::new()).unwrap_err();
        assert!(size_err.contains("overflowed"), "{size_err}");
        // Through the dispatcher these surface as ExitCode::Error → exit 2.
        let argv: Vec<String> =
            ["size", "--taskset", &path, "--exact"].iter().map(|s| s.to_string()).collect();
        let code = crate::run(&argv, &mut Vec::new());
        assert!(matches!(code, ExitCode::Error(msg) if msg.contains("overflowed")));
    }

    #[test]
    fn size_exact_agrees_with_f64_on_benign_input() {
        let path = write_taskset("szx.json", &[(1.0, 10.0, 10.0, 5), (1.0, 8.0, 8.0, 3)]);
        let mut plain = Vec::new();
        size(&args(&["--taskset", &path]), &mut plain).unwrap();
        let mut exact = Vec::new();
        size(&args(&["--taskset", &path, "--exact"]), &mut exact).unwrap();
        assert_eq!(String::from_utf8(plain).unwrap(), String::from_utf8(exact).unwrap());
    }

    #[test]
    fn serve_replays_a_session_from_a_file() {
        let dir = std::env::temp_dir().join("fpga-rt-cli-cmds");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.jsonl");
        std::fs::write(
            &path,
            concat!(
                r#"{"op":"admit","task":{"exec":1.0,"deadline":10.0,"period":10.0,"area":3}}"#,
                "\n",
                r#"{"op":"query"}"#,
                "\n",
            ),
        )
        .unwrap();
        let input = path.to_string_lossy().into_owned();
        let mut buf = Vec::new();
        let code =
            serve(&args(&["--columns", "10", "--input", &input, "--deterministic"]), &mut buf)
                .unwrap();
        assert_eq!(code, ExitCode::Accepted);
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"verdict\":\"accept\""));
        assert!(lines[0].contains("\"latency_us\":0"));
        assert!(lines[1].contains("\"stats\""));
    }

    #[test]
    fn serve_requires_columns() {
        assert!(serve(&args(&[]), &mut Vec::new()).is_err());
    }

    /// Satellite regression: the socket flags are validated before any
    /// listener binds or stdin is read — a bad endpoint, `--input`
    /// combined with a socket listener, or `--conns` on stdio are usage
    /// errors (exit code 2) naming the accepted forms.
    #[test]
    fn serve_socket_flag_combinations_are_validated() {
        let err = serve(&args(&["--columns", "10", "--listen", "ftp://h:1"]), &mut Vec::new())
            .unwrap_err();
        assert!(err.contains("--listen:"), "{err}");
        assert!(err.contains("tcp://HOST:PORT") && err.contains("unix://PATH"), "{err}");
        let err = serve(
            &args(&["--columns", "10", "--listen", "tcp://127.0.0.1:0", "--input", "x.jsonl"]),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("fpga-rt client"), "{err}");
        let err = serve(&args(&["--columns", "10", "--conns", "4"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("--conns applies to socket listeners"), "{err}");
        let err = serve(
            &args(&["--columns", "10", "--conns", "0", "--listen", "tcp://h:1"]),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("--conns must be ≥ 1"), "{err}");
        let err = client(&args(&[]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("--connect"), "{err}");
        let err = client(&args(&["--connect", "stdio"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("not `stdio`"), "{err}");
    }

    /// The tentpole's CLI acceptance criterion in miniature: `serve
    /// --listen unix://…` plus `client --connect unix://…` reproduce the
    /// stdio transcript byte-for-byte (CI re-checks this against the
    /// released binary over TCP and Unix sockets at two worker counts).
    #[test]
    fn serve_and_client_round_trip_a_unix_socket_byte_identically() {
        let dir = std::env::temp_dir().join("fpga-rt-cli-cmds");
        std::fs::create_dir_all(&dir).unwrap();
        let session = dir.join("socket-session.jsonl");
        std::fs::write(
            &session,
            concat!(
                r#"{"session":"a","op":"create","columns":10}"#,
                "\n",
                r#"{"session":"a","op":"admit","task":{"exec":1.0,"deadline":10.0,"period":10.0,"area":3}}"#,
                "\n",
                r#"{"session":"a","op":"query"}"#,
                "\n",
                r#"{"session":"a","op":"stats"}"#,
                "\n",
            ),
        )
        .unwrap();
        let input = session.to_string_lossy().into_owned();
        let sock = dir.join(format!("serve-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let uri = format!("unix://{}", sock.display());

        let mut stdio_out = Vec::new();
        let code = serve(
            &args(&["--columns", "10", "--deterministic", "--input", &input]),
            &mut stdio_out,
        )
        .unwrap();
        assert_eq!(code, ExitCode::Accepted);

        let server_argv: Vec<String> =
            ["--columns", "10", "--deterministic", "--listen", &uri, "--conns", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let server = std::thread::spawn(move || {
            let mut buf = Vec::new();
            let code = serve(&Args::from_args(server_argv).unwrap(), &mut buf);
            (code, buf)
        });
        let mut client_out = Vec::new();
        let code = client(&args(&["--connect", &uri, "--input", &input]), &mut client_out).unwrap();
        assert_eq!(code, ExitCode::Accepted);
        let (server_code, server_buf) = server.join().unwrap();
        assert_eq!(server_code.unwrap(), ExitCode::Accepted);
        assert!(server_buf.is_empty(), "socket mode writes responses to sockets, not stdout");
        assert_eq!(client_out, stdio_out, "socket transcript must match the stdio transcript");
    }

    /// The acceptance criterion of the sweep engine: stdout and the `--out`
    /// file are byte-identical for `--workers 1` and `--workers 8` at a
    /// fixed seed.
    #[test]
    fn sweep_output_is_byte_identical_across_worker_counts() {
        let dir = std::env::temp_dir().join("fpga-rt-cli-cmds");
        std::fs::create_dir_all(&dir).unwrap();
        let mut transcripts = Vec::new();
        for workers in ["1", "8"] {
            let path = dir.join(format!("sweep-w{workers}.json"));
            let out_path = path.to_string_lossy().into_owned();
            let mut buf = Vec::new();
            let code = sweep(
                &args(&[
                    "--figure",
                    "fig3a",
                    "--bins",
                    "3",
                    "--per-bin",
                    "8",
                    "--seed",
                    "7",
                    "--workers",
                    workers,
                    "--out",
                    &out_path,
                ]),
                &mut buf,
            )
            .unwrap();
            assert_eq!(code, ExitCode::Accepted);
            transcripts.push((String::from_utf8(buf).unwrap(), std::fs::read(&path).unwrap()));
        }
        assert_eq!(transcripts[0].0, transcripts[1].0, "stdout differs across workers");
        assert_eq!(transcripts[0].1, transcripts[1].1, "--out JSON differs across workers");
        assert!(transcripts[0].0.contains("AnyOf"));
        let json_text = String::from_utf8(transcripts[0].1.clone()).unwrap();
        let json: fpga_rt_exp::SweepResult =
            serde_json::from_str(&json_text).expect("valid SweepResult JSON");
        assert_eq!(json.series.len(), 4, "DP, GN1, GN2, AnyOf");
    }

    /// Under `--deterministic` loadgen runs every profile by default,
    /// writes a valid `LoadReport` and zeroes every latency column (the
    /// bytes are pinned by `tests/engine_golden.rs`).
    #[test]
    fn loadgen_deterministic_output_is_zeroed() {
        let dir = std::env::temp_dir().join("fpga-rt-cli-cmds");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("loadgen-deterministic.json");
        let out_path = path.to_string_lossy().into_owned();
        let mut buf = Vec::new();
        let line = ["--ops", "400", "--sessions", "8", "--columns", "32", "--seed", "7"];
        let code = loadgen(
            &args(&[&line[..], &["--deterministic", "--out", &out_path]].concat()),
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, ExitCode::Accepted);
        assert!(
            String::from_utf8(buf).unwrap().contains("adversarial"),
            "all profiles run by default"
        );
        let json: fpga_rt_loadgen::LoadReport =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap())
                .expect("valid LoadReport JSON");
        assert_eq!(json.schema, fpga_rt_loadgen::SCHEMA);
        assert_eq!(json.profiles.len(), 3, "poisson, bursty, adversarial");
        for p in &json.profiles {
            assert_eq!(p.latency.max_ns, 0, "deterministic mode zeroes latencies");
        }
    }

    /// Loadgen flag validation: unknown profiles, `--soak` combined with
    /// `--deterministic` and `--workers` (the replay has no pool) are
    /// usage errors; a CSV `--out` renders the documented header.
    #[test]
    fn loadgen_flags_are_validated() {
        let err = loadgen(&args(&["--profile", "zzz"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("unknown profile"), "{err}");
        let err = loadgen(&args(&["--workers", "2"]), &mut Vec::new()).unwrap_err();
        assert!(err.starts_with("--workers is not a loadgen flag ("), "{err}");
        let err = loadgen(&args(&["--deterministic", "--soak", "1"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("--soak"), "{err}");
        let err = loadgen(&args(&["--columns", "4"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("≥ 5"), "adversarial profile needs ≥ 5 columns: {err}");

        let dir = std::env::temp_dir().join("fpga-rt-cli-cmds");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join("loadgen.csv").to_string_lossy().into_owned();
        let mut buf = Vec::new();
        let code = loadgen(
            &args(&[
                "--profile",
                "poisson",
                "--ops",
                "200",
                "--sessions",
                "4",
                "--columns",
                "16",
                "--deterministic",
                "--out",
                &csv_path,
            ]),
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, ExitCode::Accepted);
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("profile,ops,admits,"), "{csv}");
        assert_eq!(csv.lines().count(), 2, "header + one profile row");
    }

    /// Loadgen's socket client mode: a bad `--target`, `stdio`, or an
    /// in-process knob combined with `--target` are usage errors — and a
    /// small swarm against an in-process listener runs clean end to end.
    #[test]
    fn loadgen_socket_mode_validates_flags_and_runs_clean() {
        let err = loadgen(&args(&["--target", "ftp://h:1"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("--target:"), "{err}");
        let err = loadgen(&args(&["--target", "stdio"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("socket endpoint"), "{err}");
        let err = loadgen(&args(&["--target", "tcp://h:1", "--ops", "100"]), &mut Vec::new())
            .unwrap_err();
        assert!(err.contains("--ops applies to the in-process modes"), "{err}");
        let err = loadgen(&args(&["--target", "tcp://h:1", "--deterministic"]), &mut Vec::new())
            .unwrap_err();
        assert!(err.contains("in-process modes"), "{err}");

        let dir = std::env::temp_dir().join("fpga-rt-cli-cmds");
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join(format!("loadgen-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let uri = format!("unix://{}", sock.display());
        let server_argv: Vec<String> =
            ["--columns", "32", "--shards", "4", "--listen", &uri, "--conns", "8"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let server = std::thread::spawn(move || {
            serve(&Args::from_args(server_argv).unwrap(), &mut Vec::new())
        });
        let mut buf = Vec::new();
        let code = loadgen(&args(&["--target", &uri, "--conns", "8", "--requests", "6"]), &mut buf)
            .unwrap();
        assert_eq!(server.join().unwrap().unwrap(), ExitCode::Accepted);
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(code, ExitCode::Accepted, "{text}");
        assert!(text.contains("8 conns, 64 sent, 64 received, 0 dropped, 0 reordered"), "{text}");
    }

    /// `fpga-rt study` takes exactly one known name and its five flags;
    /// a flag the study would ignore is refused, not dropped.
    #[test]
    fn study_rejects_bad_names_and_flags() {
        for (line, expect) in [
            (&["--per-bin", "10"][..], "exactly one name"),
            (&["figures", "ablations"], "exactly one name"),
            (&["sweep"], "unknown study"),
            (&["twod", "--sets", "10"], "--sets is not a study flag"),
            (&["placement", "--write"], "--write is not a study flag"),
            (&["twod", "--figure", "fig3a"], "2-D tasksets"),
            (&["ablations", "--sim-horizon", "20"], "simulates nothing"),
            (&["figures", "--figure", "fig9z"], "unknown figure"),
            (&["figures", "--per-bin", "0"], "must be ≥ 1"),
            (&["release", "--sim-horizon", "-1"], "positive factor"),
            (&["overhead", "--seed", "12e3"], "unsigned 64-bit"),
        ] {
            let err = study(&args(line), &mut Vec::new()).unwrap_err();
            assert!(err.contains(expect), "{line:?}: {err}");
        }
    }

    #[test]
    fn sweep_writes_csv_when_asked() {
        let dir = std::env::temp_dir().join("fpga-rt-cli-cmds");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.csv");
        let out_path = path.to_string_lossy().into_owned();
        sweep(
            &args(&["--bins", "2", "--per-bin", "4", "--seed", "3", "--out", &out_path]),
            &mut Vec::new(),
        )
        .unwrap();
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.starts_with("utilization,samples,DP,GN1,GN2,AnyOf"), "{csv}");
        assert_eq!(csv.lines().count(), 3, "header + one row per bin");
    }

    #[test]
    fn sweep_rejects_bad_flags() {
        assert!(sweep(&args(&["--figure", "fig9z"]), &mut Vec::new()).is_err());
        assert!(sweep(&args(&["--bins", "0"]), &mut Vec::new()).is_err());
    }

    /// Satellite bugfix: an explicit `--workers 0` / `--shards 0` (or
    /// garbage) is a usage error at arg-parse time — previously the zero
    /// leaked into (sweep) or was silently corrected by (serve) the
    /// downstream sizing, and garbage silently fell back to the default.
    #[test]
    fn zero_and_garbage_worker_counts_are_rejected() {
        let err = sweep(&args(&["--workers", "0"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("--workers must be ≥ 1"), "{err}");
        let err = sweep(&args(&["--workers", "abc"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        let err = serve(&args(&["--columns", "10", "--shards", "0"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("--shards must be ≥ 1"), "{err}");
        let err =
            serve(&args(&["--columns", "10", "--workers", "0"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("--workers must be ≥ 1"), "{err}");
        let err =
            serve(&args(&["--columns", "10", "--sessions", "0"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("--sessions must be ≥ 1"), "{err}");
        let err =
            serve(&args(&["--columns", "10", "--sessions", "many"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        let err = serve(&args(&["--columns", "10", "--exact-margin", "-0.5"]), &mut Vec::new())
            .unwrap_err();
        assert!(err.contains("finite non-negative"), "{err}");
        let err = conform(&args(&["--workers", "0"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("--workers must be ≥ 1"), "{err}");
        // Gate-relevant numeric flags reject garbage instead of silently
        // gating a default-sized population (`--per-bin 25O` is a typo,
        // not a request for the default).
        let err = conform(&args(&["--per-bin", "25O"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        let err = conform(&args(&["--seed", "xyz"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("unsigned 64-bit"), "{err}");
        let err = sweep(&args(&["--per-bin", "0"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("--per-bin must be ≥ 1"), "{err}");
        // Omitting the flags keeps the documented defaults working.
        assert!(positive_count(&args(&[]), "workers").unwrap().is_none());
        assert_eq!(parsed_flag(&args(&[]), "seed", 7u64).unwrap(), 7);
    }

    /// Satellite bugfix: `--cache` goes through the same checked-parse
    /// discipline on both serve and loadgen — `0` and garbage are usage
    /// errors (exit code 2), `off` disables, absent means the default.
    #[test]
    fn zero_and_garbage_cache_sizes_are_rejected() {
        for (cmd, base) in [
            (serve as fn(&Args, &mut dyn Write) -> CmdResult, vec!["--columns", "10"]),
            (loadgen, vec![]),
        ] {
            for (value, expect) in [("0", "must be ≥ 1"), ("lots", "positive entry count")] {
                let mut line = base.clone();
                line.extend(["--cache", value]);
                let err = cmd(&args(&line), &mut Vec::new()).unwrap_err();
                assert!(err.contains(expect), "--cache {value}: {err}");
            }
        }
        // The documented spellings parse.
        assert_eq!(cache_entries(&args(&[])).unwrap(), Some(1024));
        assert_eq!(cache_entries(&args(&["--cache", "off"])).unwrap(), None);
        assert_eq!(cache_entries(&args(&["--cache", "64"])).unwrap(), Some(64));
    }

    /// Every seed-consuming subcommand routes `--seed` through the shared
    /// checked parser: `generate --seed 12e3` is a usage error, not the
    /// default-seed population.
    #[test]
    fn garbage_seeds_are_rejected_by_every_subcommand() {
        for (name, result) in [
            ("generate", generate(&args(&["--n", "3", "--seed", "12e3"]), &mut Vec::new())),
            ("sweep", sweep(&args(&["--seed", "12e3"]), &mut Vec::new())),
            ("conform", conform(&args(&["--seed", "12e3"]), &mut Vec::new())),
            ("loadgen", loadgen(&args(&["--seed", "12e3"]), &mut Vec::new())),
            ("study", study(&args(&["figures", "--seed", "12e3"]), &mut Vec::new())),
        ] {
            let err = result.unwrap_err();
            assert!(err.contains("unsigned 64-bit"), "{name}: {err}");
        }
        // An absent flag still means the documented default seed.
        let mut buf = Vec::new();
        generate(&args(&["--n", "3"]), &mut buf).unwrap();
        let mut buf2 = Vec::new();
        generate(&args(&["--n", "3", "--seed", "42"]), &mut buf2).unwrap();
        assert_eq!(buf, buf2, "default seed is 42");
    }

    /// The conform engine's acceptance criterion at smoke scale: stdout
    /// and the `--out` JSON are byte-identical for `--workers 1` vs `4`,
    /// the report is violation-free, and the exit code says so.
    #[test]
    fn conform_output_is_byte_identical_and_sound() {
        let dir = std::env::temp_dir().join("fpga-rt-cli-cmds");
        std::fs::create_dir_all(&dir).unwrap();
        let mut transcripts = Vec::new();
        for workers in ["1", "4"] {
            let path = dir.join(format!("conform-w{workers}.json"));
            let out_path = path.to_string_lossy().into_owned();
            let mut buf = Vec::new();
            let code = conform(
                &args(&[
                    "--figure",
                    "fig3a",
                    "--bins",
                    "3",
                    "--per-bin",
                    "6",
                    "--sim-horizon",
                    "20",
                    "--seed",
                    "7",
                    "--workers",
                    workers,
                    "--out",
                    &out_path,
                ]),
                &mut buf,
            )
            .unwrap();
            assert_eq!(code, ExitCode::Accepted, "violation at smoke scale");
            transcripts.push((String::from_utf8(buf).unwrap(), std::fs::read(&path).unwrap()));
        }
        assert_eq!(transcripts[0].0, transcripts[1].0, "stdout differs across workers");
        assert_eq!(transcripts[0].1, transcripts[1].1, "--out JSON differs across workers");
        assert!(transcripts[0].0.contains("total soundness violations: 0"));
        let json_text = String::from_utf8(transcripts[0].1.clone()).unwrap();
        let report: fpga_rt_conform::ConformReport =
            serde_json::from_str(&json_text).expect("valid ConformReport JSON");
        assert_eq!(report.series.len(), 4, "DP, GN1, GN2, AnyOf");
    }

    #[test]
    fn conform_writes_multi_figure_csv() {
        let dir = std::env::temp_dir().join("fpga-rt-cli-cmds");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("conform.csv");
        let out_path = path.to_string_lossy().into_owned();
        let code = conform(
            &args(&[
                "--bins",
                "2",
                "--per-bin",
                "2",
                "--sim-horizon",
                "10",
                "--seed",
                "3",
                "--out",
                &out_path,
            ]),
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(code, ExitCode::Accepted);
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.starts_with("workload,evaluator,utilization,"), "{csv}");
        // 4 figures × 4 evaluators × 2 bins rows + header.
        assert_eq!(csv.lines().count(), 1 + 4 * 4 * 2);
        for figure in ["fig3a", "fig3b", "fig4a", "fig4b"] {
            assert!(csv.contains(figure), "missing {figure}");
        }
    }

    #[test]
    fn conform_twod_bridge_mode_runs() {
        let dir = std::env::temp_dir().join("fpga-rt-cli-cmds");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("conform-twod.json");
        let out_path = path.to_string_lossy().into_owned();
        let mut buf = Vec::new();
        let code = conform(
            &args(&[
                "--twod",
                "--samples",
                "20",
                "--bins",
                "4",
                "--sim-horizon",
                "15",
                "--seed",
                "9",
                "--out",
                &out_path,
            ]),
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, ExitCode::Accepted);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("twod-bridge"));
        assert!(text.contains("sim-1d-nf vs native-2d:"));
        let artifact: fpga_rt_conform::TwodBridgeArtifact =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(artifact.counterexamples.is_empty());
        assert_eq!(artifact.report.series.len(), 4);
        assert_eq!(artifact.sim1d.total(), 20);
    }

    #[test]
    fn conform_rejects_bad_flags() {
        assert!(conform(&args(&["--figure", "fig9z"]), &mut Vec::new()).is_err());
        assert!(conform(&args(&["--bins", "0"]), &mut Vec::new()).is_err());
        assert!(conform(&args(&["--sim-horizon", "0"]), &mut Vec::new()).is_err());
        // Mode-mismatched population flags are refused, not ignored.
        let err = conform(&args(&["--twod", "--per-bin", "2000"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("--samples"), "{err}");
        assert!(conform(&args(&["--twod", "--figure", "fig3a"]), &mut Vec::new()).is_err());
        let err = conform(&args(&["--samples", "100"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("--twod"), "{err}");
    }

    /// Satellite bugfix: an unrecognized `--out` / `--metrics-out`
    /// extension is a usage error naming the accepted extensions —
    /// previously each subcommand fell back to JSON for anything that was
    /// not `.csv`, so a typo silently wrote the wrong format.
    #[test]
    fn unknown_artifact_extensions_are_usage_errors() {
        let err = sweep(&args(&["--out", "curves.cvs"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains(".json|.csv"), "{err}");
        let err = conform(&args(&["--out", "report.yaml"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains(".json|.csv"), "{err}");
        // The 2-D bridge artifact is JSON-only.
        let err = conform(&args(&["--twod", "--out", "bridge.csv"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains(".json") && !err.contains(".csv|"), "{err}");
        let err = loadgen(&args(&["--out", "load.txt"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains(".json|.csv"), "{err}");
        // Metrics artifacts are .json|.txt, and the check fires before the
        // session would start reading stdin.
        for argv in [
            vec!["serve", "--columns", "10", "--metrics-out", "m.csv"],
            vec!["loadgen", "--metrics-out", "m.csv"],
            vec!["sweep", "--metrics-out", "m.yaml"],
            vec!["conform", "--metrics-out", "m"],
        ] {
            let line: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            let code = crate::run(&line, &mut Vec::new());
            assert!(
                matches!(&code, ExitCode::Error(msg) if msg.contains(".json|.txt")),
                "{argv:?}: {code:?}"
            );
        }
        // The 2-D bridge does not thread the registry; refuse, don't ignore.
        let err =
            conform(&args(&["--twod", "--metrics-out", "m.json"]), &mut Vec::new()).unwrap_err();
        assert!(err.contains("1-D mode"), "{err}");
    }

    /// For every pool-backed instrumented subcommand, the deterministic
    /// `--metrics-out` artifact (JSON and text renderings) is
    /// byte-identical for `--workers 1` vs `4`, and the JSON names the
    /// `fpga-rt-obs/1` schema plus the subcommand's signature counters.
    /// Loadgen, which has no workers, is pinned by `tests/engine_golden.rs`.
    #[test]
    fn metrics_artifacts_are_byte_identical_across_workers() {
        let dir = std::env::temp_dir().join("fpga-rt-cli-cmds");
        std::fs::create_dir_all(&dir).unwrap();
        let session = dir.join("metrics-session.jsonl");
        std::fs::write(
            &session,
            concat!(
                r#"{"op":"admit","task":{"exec":1.0,"deadline":10.0,"period":10.0,"area":3}}"#,
                "\n",
                r#"{"op":"admit","task":{"exec":2.0,"deadline":6.0,"period":6.0,"area":4}}"#,
                "\n",
                r#"{"op":"query"}"#,
                "\n",
                r#"{"op":"stats"}"#,
                "\n",
            ),
        )
        .unwrap();
        let input = session.to_string_lossy().into_owned();
        let cases: [(&str, &[&str], &str); 3] = [
            (
                "serve",
                &[
                    "serve",
                    "--columns",
                    "24",
                    "--shards",
                    "2",
                    "--batch",
                    "4",
                    "--deterministic",
                    "--input",
                    &input,
                ],
                "admission/decisions",
            ),
            (
                "sweep",
                &[
                    "sweep",
                    "--figure",
                    "fig3a",
                    "--bins",
                    "2",
                    "--per-bin",
                    "4",
                    "--seed",
                    "7",
                    "--deterministic",
                ],
                "sweep/figure/fig3a/samples",
            ),
            (
                "conform",
                &[
                    "conform",
                    "--figure",
                    "fig3a",
                    "--bins",
                    "2",
                    "--per-bin",
                    "2",
                    "--sim-horizon",
                    "10",
                    "--seed",
                    "7",
                    "--deterministic",
                ],
                "conform/figure/fig3a/samples",
            ),
        ];
        for (name, base, signature) in cases {
            for ext in ["json", "txt"] {
                let mut artifacts = Vec::new();
                for workers in ["1", "4"] {
                    let path = dir.join(format!("metrics-{name}-w{workers}.{ext}"));
                    let out_path = path.to_string_lossy().into_owned();
                    let mut argv: Vec<String> = base.iter().map(|s| s.to_string()).collect();
                    argv.extend(
                        ["--workers", workers, "--metrics-out", &out_path]
                            .iter()
                            .map(|s| s.to_string()),
                    );
                    let code = crate::run(&argv, &mut Vec::new());
                    assert!(matches!(code, ExitCode::Accepted), "{name} w{workers}: {code:?}");
                    artifacts.push(std::fs::read_to_string(&path).unwrap());
                }
                assert_eq!(artifacts[0], artifacts[1], "{name} .{ext} differs across workers");
                assert!(artifacts[0].contains(signature), "{name} .{ext}: missing {signature}");
                if ext == "json" {
                    assert!(artifacts[0].contains(fpga_rt_obs::SCHEMA), "{name}: schema missing");
                }
            }
        }
    }

    #[test]
    fn size_finds_minimums() {
        let path = write_taskset("sz.json", &[(1.0, 10.0, 10.0, 5), (1.0, 8.0, 8.0, 3)]);
        let mut buf = Vec::new();
        let code = size(&args(&["--taskset", &path]), &mut buf).unwrap();
        assert_eq!(code, ExitCode::Accepted);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("DP"));
        assert!(text.contains("columns"));
    }

    #[test]
    fn generate_emits_valid_taskset_json() {
        let mut buf = Vec::new();
        generate(&args(&["--n", "5", "--seed", "7"]), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let ts: TaskSet<f64> = serde_json::from_str(text.trim()).unwrap();
        assert_eq!(ts.len(), 5);
        // Deterministic.
        let mut buf2 = Vec::new();
        generate(&args(&["--n", "5", "--seed", "7"]), &mut buf2).unwrap();
        assert_eq!(text, String::from_utf8(buf2).unwrap());
    }

    #[test]
    fn generate_figure_spec() {
        let mut buf = Vec::new();
        generate(&args(&["--figure", "fig4a", "--seed", "1"]), &mut buf).unwrap();
        let ts: TaskSet<f64> =
            serde_json::from_str(String::from_utf8(buf).unwrap().trim()).unwrap();
        assert_eq!(ts.len(), 10);
        assert!(ts.amin() >= 50);
    }
}
