//! The CLI's one argument parser: [`Args`] splits a command line into
//! flags and positionals, and the checked parsers below turn flag values
//! into typed settings.
//!
//! Every subcommand resolves its numeric/enum/path flags through these
//! parsers. A value that is present but does not parse is never replaced
//! by the default: a typo like `--per-bin 25O` must not quietly run a
//! different population. All parsers return `Err(String)`, which the
//! dispatcher maps to process exit code 2, so every rejected form produces
//! a uniform usage error. The rejected forms are regression-tested once,
//! centrally, below.

use fpga_rt_gen::FigureWorkload;
use fpga_rt_obs::{Obs, Snapshot};
use fpga_rt_service::Endpoint;
use std::collections::HashMap;

/// The shared experiment epoch seed (the paper's submission date), the
/// default of every population-drawing subcommand.
pub(crate) const DEFAULT_SEED: u64 = 20070326;

/// Parsed `--key value` / `--flag` command-line options plus positional
/// arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// `--key value` pairs (a key present without a value maps to `""`).
    pub flags: HashMap<String, String>,
    /// Non-flag arguments in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Parse from any iterator of argument strings. A flag given twice is
    /// a usage error: keeping either value would silently drop the other.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next().unwrap_or_default(),
                    _ => String::new(),
                };
                if out.flags.insert(key.to_string(), value).is_some() {
                    return Err(format!("--{key} is given twice (give each flag once)"));
                }
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    /// `true` when `--key` was present (with or without a value).
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }
}

/// Parse `--key` as a count that must be ≥ 1 when given. Returns `None`
/// when the flag is absent (the caller's default applies — e.g. "all
/// cores" for worker counts). An explicit `0` or an unparseable value is
/// a usage error: for `--workers 0` / `--shards 0` a fallback would leak
/// the internal "auto" sentinel into, or silently correct, downstream
/// sizing.
pub(crate) fn positive_count(args: &Args, key: &str) -> Result<Option<usize>, String> {
    match args.flags.get(key) {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(0) => Err(format!("--{key} must be ≥ 1 (omit the flag for the default)")),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(format!("--{key} expects a positive integer, got {v:?}")),
        },
    }
}

/// Parse `--cache <entries>|off` (serve and loadgen): absent keeps the
/// default 1024-entry per-session verdict cache, `off` disables caching, a
/// positive integer sizes it. `--cache 0` is a usage error rather than a
/// silent alias — it is ambiguous between "off" and "unbounded" — matching
/// the [`positive_count`] convention.
pub(crate) fn cache_entries(args: &Args) -> Result<Option<usize>, String> {
    match args.flags.get("cache").map(String::as_str) {
        None => Ok(Some(1024)),
        Some("off") => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(0) => Err("--cache must be ≥ 1 entries, or `off` to disable caching".into()),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(format!("--cache expects a positive entry count or `off`, got {v:?}")),
        },
    }
}

/// Parse `--key` as a finite, non-negative real: `--exact-margin` (the
/// knife-edge threshold below which the serve cascade re-checks a
/// decision in exact arithmetic) and `--overhead-per-column` (simulate).
pub(crate) fn non_negative(args: &Args, key: &str, default: f64) -> Result<f64, String> {
    let v = parsed_flag(args, key, default)?;
    if !(v.is_finite() && v >= 0.0) {
        return Err(format!("--{key} must be a finite non-negative value, got {v}"));
    }
    Ok(v)
}

/// Parse `--key` as a finite, strictly positive multiple of the largest
/// period: the simulation horizons `--horizon` (simulate) and
/// `--sim-horizon` (conform, study).
pub(crate) fn horizon_factor(args: &Args, key: &str, default: f64) -> Result<f64, String> {
    let v = parsed_flag(args, key, default)?;
    if !(v.is_finite() && v > 0.0) {
        return Err(format!("--{key} must be a positive factor, got {v}"));
    }
    Ok(v)
}

/// Resolve `--figure fig3a|fig3b|fig4a|fig4b|all` to its workloads.
pub(crate) fn figures(spec: &str) -> Result<Vec<FigureWorkload>, String> {
    if spec == "all" {
        return Ok(FigureWorkload::all());
    }
    FigureWorkload::by_id(spec)
        .map(|w| vec![w])
        .ok_or_else(|| format!("unknown figure {spec:?} (fig3a|fig3b|fig4a|fig4b|all)"))
}

/// Parse `--listen stdio|tcp://HOST:PORT|unix://PATH` (serve): the
/// transport endpoint, defaulting to stdio when absent. Delegates to
/// [`Endpoint::parse`] so the accepted forms are spelled out once, in
/// the service crate, and every rejected form is a usage error (process
/// exit code 2) naming them.
pub(crate) fn listen_endpoint(args: &Args) -> Result<Endpoint, String> {
    match args.flags.get("listen") {
        None => Ok(Endpoint::Stdio),
        Some(spec) => Endpoint::parse(spec).map_err(|e| format!("--listen: {e}")),
    }
}

/// Parse `--connect tcp://HOST:PORT|unix://PATH` (client): required, and
/// it must name a socket — `stdio` is a listener-side spelling, there is
/// nothing for a client to dial.
pub(crate) fn connect_endpoint(args: &Args) -> Result<Endpoint, String> {
    let Some(spec) = args.flags.get("connect") else {
        return Err("--connect tcp://HOST:PORT or --connect unix://PATH is required".into());
    };
    match Endpoint::parse(spec).map_err(|e| format!("--connect: {e}"))? {
        Endpoint::Stdio => {
            Err("--connect expects a socket endpoint (`tcp://HOST:PORT` or `unix://PATH`), \
                 not `stdio`"
                .into())
        }
        endpoint => Ok(endpoint),
    }
}

/// Parse `--seed` as a `u64`: absent means `default`, but a
/// present-and-unparseable value (`--seed 0x2a`, `--seed 12e3`, an empty
/// value from `--seed --pretty`) is a usage error — a fallback would
/// reproduce a different population than the one asked for.
pub(crate) fn seed(args: &Args, default: u64) -> Result<u64, String> {
    match args.flags.get("seed") {
        None => Ok(default),
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("--seed expects an unsigned 64-bit integer, got {v:?}")),
    }
}

/// An artifact encoding, dispatched on the output file's extension.
///
/// Every file-writing flag (`--out`, `--metrics-out`) resolves its path
/// through [`artifact_target`] against the subcommand's supported set.
/// Unrecognized extensions are usage errors (process exit code 2) naming
/// the accepted extensions — previously each subcommand had its own
/// fallback ("anything that isn't `.csv` is JSON"), so a typo like
/// `--out curves.cvs` silently wrote the wrong format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArtifactFormat {
    /// Pretty-printed JSON (`.json`).
    Json,
    /// Comma-separated values (`.csv`).
    Csv,
    /// Aligned plain text (`.txt`).
    Text,
}

impl ArtifactFormat {
    const fn extension(self) -> &'static str {
        match self {
            ArtifactFormat::Json => ".json",
            ArtifactFormat::Csv => ".csv",
            ArtifactFormat::Text => ".txt",
        }
    }
}

/// Resolve `--key FILE` against the formats the subcommand supports:
/// `Ok(None)` when the flag is absent (or empty), the path/format pair
/// when the extension matches, and a usage error listing the supported
/// extensions otherwise. Called before the expensive run so a typo fails
/// in milliseconds, not after the population has been evaluated.
pub(crate) fn artifact_target(
    args: &Args,
    key: &str,
    supported: &[ArtifactFormat],
) -> Result<Option<(String, ArtifactFormat)>, String> {
    let Some(path) = args.flags.get(key).filter(|p| !p.is_empty()) else {
        return Ok(None);
    };
    match supported.iter().copied().find(|f| path.ends_with(f.extension())) {
        Some(format) => Ok(Some((path.clone(), format))),
        None => {
            let accepted: Vec<&str> = supported.iter().map(|f| f.extension()).collect();
            Err(format!(
                "--{key} {path:?}: unsupported file extension (expected one of {})",
                accepted.join("|")
            ))
        }
    }
}

/// Parse `--metrics-out FILE.json|FILE.txt`, returning the resolved
/// target plus the [`Obs`] handle the subcommand should instrument with:
/// a live registry (deterministic when asked, so time-valued fields zero
/// and the artifact byte-diffs across `--workers`) when the flag is
/// given, and the no-op [`Obs::off`] otherwise — telemetry must cost
/// nothing unless requested.
pub(crate) fn metrics_target(
    args: &Args,
    deterministic: bool,
) -> Result<(Option<(String, ArtifactFormat)>, Obs), String> {
    let target =
        artifact_target(args, "metrics-out", &[ArtifactFormat::Json, ArtifactFormat::Text])?;
    let obs = if target.is_some() { Obs::on(deterministic) } else { Obs::off() };
    Ok((target, obs))
}

/// Render and write the metrics snapshot to the resolved `--metrics-out`
/// target (no-op when the flag was absent).
pub(crate) fn write_metrics(
    target: &Option<(String, ArtifactFormat)>,
    snapshot: &Snapshot,
) -> Result<(), String> {
    let Some((path, format)) = target else { return Ok(()) };
    let rendered = match format {
        ArtifactFormat::Json => snapshot.render_json(),
        ArtifactFormat::Text => snapshot.render_text(),
        // `metrics_target` only offers .json|.txt.
        ArtifactFormat::Csv => unreachable!("metrics artifacts are .json|.txt"),
    };
    std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Parse `--key` as a typed value, erroring on unparseable input instead
/// of silently using the default.
pub(crate) fn parsed_flag<T: std::str::FromStr>(
    args: &Args,
    key: &str,
    default: T,
) -> Result<T, String> {
    match args.flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse::<T>().map_err(|_| format!("--{key}: cannot parse {v:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &[&str]) -> Args {
        Args::from_args(line.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = args(&["figures", "--per-bin", "500", "--pretty", "--seed", "7", "fig4b"]);
        assert_eq!(a.positional, vec!["figures", "fig4b"]);
        assert_eq!(a.flags.get("per-bin").map(String::as_str), Some("500"));
        assert!(a.has("pretty") && !a.has("missing"));
        // A flag followed by a flag has an empty value.
        assert_eq!(a.flags.get("pretty").map(String::as_str), Some(""));
        assert_eq!(seed(&a, 0).unwrap(), 7);
        // A repeated flag is refused, whatever its values.
        for line in [&["--seed", "1", "--seed", "2"][..], &["--pretty", "--pretty"]] {
            let err = Args::from_args(line.iter().map(|s| s.to_string())).unwrap_err();
            assert!(err.starts_with(&format!("{} is given twice", line[0])), "{err}");
        }
    }

    /// The shared parsers reject each bad form once, centrally —
    /// subcommand tests only need to check the wiring.
    #[test]
    fn each_rejected_form_is_a_usage_error() {
        // --workers / --shards / any count flag.
        assert!(positive_count(&args(&["--workers", "0"]), "workers")
            .unwrap_err()
            .contains("must be ≥ 1"));
        assert!(positive_count(&args(&["--shards", "abc"]), "shards")
            .unwrap_err()
            .contains("positive integer"));
        assert_eq!(positive_count(&args(&[]), "workers").unwrap(), None);
        assert_eq!(positive_count(&args(&["--workers", "3"]), "workers").unwrap(), Some(3));
        // --cache.
        assert!(cache_entries(&args(&["--cache", "0"])).unwrap_err().contains("must be ≥ 1"));
        assert!(cache_entries(&args(&["--cache", "lots"]))
            .unwrap_err()
            .contains("positive entry count"));
        assert_eq!(cache_entries(&args(&[])).unwrap(), Some(1024));
        assert_eq!(cache_entries(&args(&["--cache", "off"])).unwrap(), None);
        // --n / --max / --columns: zero and typos are refused, never
        // replaced by the default.
        for (key, bad) in [("n", "0"), ("n", "3O"), ("max", "1O"), ("columns", "1O")] {
            assert!(positive_count(&args(&[&format!("--{key}"), bad]), key).is_err(), "{key}");
        }
        // --seed.
        for bad in ["12e3", "0x2a", "-1", ""] {
            let err = seed(&args(&["--seed", bad]), 7).unwrap_err();
            assert!(err.contains("unsigned 64-bit"), "{err}");
        }
        assert!(seed(&args(&["--seed", "--pretty"]), 7).is_err(), "empty value");
        assert_eq!(seed(&args(&[]), 7).unwrap(), 7);
        // --exact-margin / --overhead-per-column.
        for key in ["exact-margin", "overhead-per-column"] {
            let flag = format!("--{key}");
            for bad in ["-1", "inf", "NaN"] {
                let err = non_negative(&args(&[&flag, bad]), key, 0.0).unwrap_err();
                assert!(err.contains("finite non-negative"), "{err}");
            }
            let err = non_negative(&args(&[&flag, "O.5"]), key, 0.0).unwrap_err();
            assert!(err.contains("cannot parse"), "{err}");
            assert_eq!(non_negative(&args(&[]), key, 1e-9).unwrap(), 1e-9);
            assert_eq!(non_negative(&args(&[&flag, "0"]), key, 1e-9).unwrap(), 0.0);
        }
        // --horizon / --sim-horizon.
        for bad in ["0", "-3", "inf", "1OO"] {
            assert!(horizon_factor(&args(&["--horizon", bad]), "horizon", 100.0).is_err(), "{bad}");
        }
        assert_eq!(horizon_factor(&args(&[]), "sim-horizon", 50.0).unwrap(), 50.0);
        // --figure.
        assert!(figures("fig9z").unwrap_err().contains("fig3a|fig3b|fig4a|fig4b|all"));
        assert_eq!(figures("all").unwrap().len(), 4);
        assert_eq!(figures("fig4b").unwrap()[0].id, "fig4b");
        // --listen / --connect endpoints.
        for bad in ["ftp://h:1", "tcp://:7411", "tcp://host", "unix://", "127.0.0.1:7411"] {
            let err = listen_endpoint(&args(&["--listen", bad])).unwrap_err();
            assert!(err.starts_with("--listen:"), "{err}");
            assert!(err.contains("tcp://HOST:PORT") && err.contains("unix://PATH"), "{err}");
        }
        assert_eq!(listen_endpoint(&args(&[])).unwrap(), Endpoint::Stdio);
        assert_eq!(listen_endpoint(&args(&["--listen", "stdio"])).unwrap(), Endpoint::Stdio);
        assert!(matches!(
            listen_endpoint(&args(&["--listen", "tcp://127.0.0.1:0"])).unwrap(),
            Endpoint::Tcp(_)
        ));
        assert!(connect_endpoint(&args(&[])).unwrap_err().contains("is required"));
        assert!(connect_endpoint(&args(&["--connect", "stdio"]))
            .unwrap_err()
            .contains("not `stdio`"));
        assert!(connect_endpoint(&args(&["--connect", "tcp://host:"]))
            .unwrap_err()
            .contains("tcp://HOST:PORT"));
        assert!(matches!(
            connect_endpoint(&args(&["--connect", "unix:///tmp/x.sock"])).unwrap(),
            Endpoint::Unix(_)
        ));
        // --out / --metrics-out extensions.
        assert!(artifact_target(&args(&["--out", "x.yaml"]), "out", &[ArtifactFormat::Json])
            .unwrap_err()
            .contains(".json"));
        assert!(metrics_target(&args(&["--metrics-out", "m.csv"]), true)
            .unwrap_err()
            .contains(".json|.txt"));
        // Typed flags.
        assert!(parsed_flag::<usize>(&args(&["--per-bin", "25O"]), "per-bin", 1)
            .unwrap_err()
            .contains("cannot parse"));
    }
}
