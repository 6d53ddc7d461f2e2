//! Library backing the `fpga-rt` command-line tool (kept as a library so
//! every subcommand is unit-testable without spawning processes).
//!
//! The `--exact` paths run the analysis kernel's `Rat64` instance through
//! `SchedTest::try_check`: exact overflow is a usage error (exit 2), never a
//! panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod args;
pub mod commands;
pub mod io;

pub use args::Args;
use std::io::Write;

/// Process exit semantics of the tool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitCode {
    /// Verdict was "accepted" / simulation clean (exit 0).
    Accepted,
    /// Verdict was "rejected" / simulation missed (exit 1).
    Rejected,
    /// Usage or input error (exit 2) with a message.
    Error(String),
}

/// Dispatch a full command line (already split, without the binary name).
pub fn run(args: &[String], out: &mut dyn Write) -> ExitCode {
    let Some((cmd, rest)) = args.split_first() else {
        return ExitCode::Error(usage());
    };
    let command: fn(&Args, &mut dyn Write) -> Result<ExitCode, String> = match cmd.as_str() {
        "check" => commands::check,
        "simulate" => commands::simulate,
        "size" => commands::size,
        "generate" => commands::generate,
        "tables" => commands::tables,
        "sweep" => commands::sweep,
        "study" => commands::study,
        "conform" => commands::conform,
        "serve" => commands::serve,
        "client" => commands::client,
        "loadgen" => commands::loadgen,
        "help" | "--help" | "-h" => {
            let _ = writeln!(out, "{}", usage());
            return ExitCode::Accepted;
        }
        other => return ExitCode::Error(format!("unknown command {other:?}\n{}", usage())),
    };
    match Args::from_args(rest.iter().cloned()).and_then(|parsed| command(&parsed, out)) {
        Ok(code) => code,
        Err(msg) => ExitCode::Error(msg),
    }
}

/// Every subcommand, the flags it accepts that take a value, and its
/// switches (flags that take none): together the flags [`usage`] lists
/// for it, nothing else.
const COMMAND_FLAGS: [(&str, &str, &str); 11] = [
    ("check", "taskset columns test", "exact verbose"),
    ("simulate", "taskset columns scheduler horizon placement overhead-per-column", "trace"),
    ("size", "taskset max", "exact"),
    ("generate", "n seed figure", "pretty"),
    ("tables", "", ""),
    ("sweep", "figure bins per-bin workers seed out metrics-out", "deterministic"),
    ("study", "figure per-bin seed workers sim-horizon", ""),
    (
        "conform",
        "figure bins per-bin sim-horizon workers seed out metrics-out samples",
        "deterministic twod",
    ),
    (
        "serve",
        "columns shards workers batch sessions cache exact-margin listen conns input \
         metrics-out",
        "deterministic",
    ),
    ("client", "connect input", ""),
    (
        "loadgen",
        "profile ops sessions columns rounds seed soak cache out metrics-out target conns \
         requests",
        "deterministic",
    ),
];

/// Refuse a command line `command` would misread — a usage error (exit
/// 2), because each would otherwise silently run something else: a flag
/// the command does not accept (`--per_bin 2` would run the default), a
/// positional word (only `study` takes one, its name), and a word after a
/// switch (`--deterministic fig4b`). Every subcommand calls this before it
/// reads a flag.
pub(crate) fn accept_only_known_flags(command: &str, args: &Args) -> Result<(), String> {
    let (_, values, switches) = COMMAND_FLAGS
        .iter()
        .find(|(name, ..)| *name == command)
        .expect("every subcommand lists its flags");
    let known: Vec<&str> = values.split_whitespace().chain(switches.split_whitespace()).collect();
    if let Some(flag) = args.flags.keys().filter(|k| !known.contains(&k.as_str())).min() {
        return Err(if known.is_empty() {
            format!("--{flag} is not a {command} flag ({command} takes no flags)")
        } else {
            format!("--{flag} is not a {command} flag (--{})", known.join(", --"))
        });
    }
    if let Some(word) = args.positional.first().filter(|_| command != "study") {
        return Err(format!("unexpected argument {word:?} ({command} takes only --flags)"));
    }
    let valued_switch = switches
        .split_whitespace()
        .find_map(|s| args.flags.get(s).filter(|v| !v.is_empty()).map(|v| (s, v)));
    match valued_switch {
        Some((switch, word)) => Err(format!("--{switch} takes no value, got {word:?}")),
        None => Ok(()),
    }
}

/// One-screen usage text.
pub fn usage() -> String {
    "usage: fpga-rt <command> [flags]\n\
     commands:\n\
     \x20 check     --taskset FILE --columns N [--test any|dp|gn1|gn2|nec] [--exact] [--verbose]\n\
     \x20 simulate  --taskset FILE --columns N [--scheduler nf|fkf] [--horizon P]\n\
     \x20           [--placement free|first-fit|best-fit|worst-fit] [--overhead-per-column X] [--trace]\n\
     \x20 size      --taskset FILE [--max N] [--exact]\n\
     \x20 generate  --n N [--seed S] [--figure fig3a|fig3b|fig4a|fig4b] [--pretty]\n\
     \x20 tables    (reproduce the paper's Tables 1-3 with a simulation cross-check\n\
     \x20           and the Table 3 GN2 walkthrough)\n\
     \x20 sweep     [--figure fig3a|fig3b|fig4a|fig4b] [--bins N] [--per-bin M]\n\
     \x20           [--workers W] [--seed S] [--out FILE.json|FILE.csv]\n\
     \x20           [--deterministic] [--metrics-out FILE.json|FILE.txt]\n\
     \x20           (parallel DP/GN1/GN2/AnyOf acceptance-ratio curves;\n\
     \x20           output is byte-identical for any --workers)\n\
     \x20 study     figures|ablations|placement|overhead|partitioned|release|twod\n\
     \x20           [--figure fig3a|fig3b|fig4a|fig4b|all] [--per-bin N] [--seed S]\n\
     \x20           [--workers W] [--sim-horizon F]\n\
     \x20           (the paper's figures with simulation, the X1-X3 ablations and\n\
     \x20           the X5 placement, X6 overhead, X7 partitioned, X10 2-D and\n\
     \x20           X11 release-pattern studies; byte-identical for any --workers)\n\
     \x20 conform   [--figure fig3a|fig3b|fig4a|fig4b|all] [--bins N] [--per-bin M]\n\
     \x20           [--sim-horizon F] [--workers W] [--seed S] [--out FILE.json|FILE.csv]\n\
     \x20           [--deterministic] [--metrics-out FILE.json|FILE.txt]\n\
     \x20           [--twod [--samples N]]\n\
     \x20           (cross-validate DP/GN1/GN2/AnyOf against the simulator;\n\
     \x20           exit 1 on any SOUNDNESS-VIOLATION; byte-identical for any --workers)\n\
     \x20 serve     --columns N [--shards K] [--workers W] [--batch B]\n\
     \x20           [--sessions MAX] [--cache ENTRIES|off] [--exact-margin EPS]\n\
     \x20           [--listen stdio|tcp://HOST:PORT|unix://PATH] [--conns MAX]\n\
     \x20           [--input FILE] [--deterministic]\n\
     \x20           [--metrics-out FILE.json|FILE.txt]\n\
     \x20           (multi-tenant JSONL admission-control service; the default\n\
     \x20           stdio listener reads stdin/stdout, socket listeners serve\n\
     \x20           many concurrent connections byte-identically; v2 requests\n\
     \x20           carry a `session` id with create/pause/resume/snapshot/\n\
     \x20           restore/destroy lifecycle ops, v1 sessionless requests hit\n\
     \x20           the `default` session)\n\
     \x20 client    --connect tcp://HOST:PORT|unix://PATH [--input FILE]\n\
     \x20           (stream JSONL requests to a serve listener, half-close,\n\
     \x20           and print the response transcript to stdout)\n\
     \x20 loadgen   [--profile poisson|bursty|adversarial|all] [--ops N] [--sessions K]\n\
     \x20           [--columns N] [--rounds R] [--seed S] [--soak SECS]\n\
     \x20           [--cache ENTRIES|off] [--deterministic] [--out FILE.json|FILE.csv]\n\
     \x20           [--metrics-out FILE.json|FILE.txt]\n\
     \x20           [--target tcp://HOST:PORT|unix://PATH [--conns N] [--requests M]]\n\
     \x20           (traffic-shaped load generator with p50/p99/p999 latency\n\
     \x20           histograms; --deterministic zeroes the latencies, so the\n\
     \x20           output is byte-identical from run to run; --metrics-out\n\
     \x20           exports the fpga-rt-obs/1 telemetry snapshot, available on\n\
     \x20           sweep/conform/serve too; --target switches to the socket\n\
     \x20           client mode, driving a running serve listener over N\n\
     \x20           concurrent connections and exiting nonzero on any dropped\n\
     \x20           or reordered response)"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(line: &[&str]) -> (ExitCode, String) {
        let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let code = run(&args, &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn no_args_is_error_with_usage() {
        let (code, _) = run_str(&[]);
        assert!(matches!(code, ExitCode::Error(msg) if msg.contains("usage")));
    }

    #[test]
    fn unknown_command_is_error() {
        let (code, _) = run_str(&["frobnicate"]);
        assert!(matches!(code, ExitCode::Error(_)));
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_str(&["help"]);
        assert_eq!(code, ExitCode::Accepted);
        assert!(out.contains("simulate"));
    }

    #[test]
    fn tables_runs() {
        let (code, out) = run_str(&["tables"]);
        assert_eq!(code, ExitCode::Accepted);
        assert!(out.contains("Table 3"));
        assert!(out.contains("accept"));
    }

    /// A flag value that does not parse is a usage error (exit 2), never
    /// the default: `O.5` once ran with zero overhead and exited 0.
    #[test]
    fn unparseable_overhead_is_a_usage_error() {
        let dir = std::env::temp_dir().join("fpga-rt-cli-lib");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("overhead.json");
        std::fs::write(&path, r#"[{"exec":4.0,"deadline":5.0,"period":5.0,"area":6}]"#).unwrap();
        let path = path.to_string_lossy();
        let line = ["simulate", "--taskset", &path, "--columns", "10", "--overhead-per-column"];
        let (code, _) = run_str(&[&line[..], &["O.5"]].concat());
        assert!(matches!(code, ExitCode::Error(msg) if msg.contains("overhead-per-column")));
        let (code, _) = run_str(&line[..5]);
        assert_eq!(code, ExitCode::Accepted);
        let (code, _) = run_str(&[&line[..], &["0.5"]].concat());
        assert_eq!(code, ExitCode::Rejected, "the parsed overhead causes a miss");
    }

    /// Each subcommand accepts exactly the flags its `usage()` entry
    /// lists.
    #[test]
    fn accepted_flags_match_usage() {
        let text = usage();
        for (i, (command, values, switches)) in COMMAND_FLAGS.iter().enumerate() {
            let entry = |name: &str| text.find(&format!("  {name} ")).expect("listed in usage");
            let end = COMMAND_FLAGS.get(i + 1).map_or(text.len(), |(next, ..)| entry(next));
            let mut listed: Vec<String> = text[entry(command)..end]
                .split("--")
                .skip(1)
                .map(|rest| rest.chars().take_while(|c| c.is_ascii_lowercase() || *c == '-'))
                .map(String::from_iter)
                .filter(|flag| !flag.is_empty())
                .collect();
            listed.sort();
            listed.dedup();
            let mut known: Vec<&str> =
                values.split_whitespace().chain(switches.split_whitespace()).collect();
            known.sort();
            assert_eq!(listed, known, "{command}");
        }
    }

    /// Each command line a command would misread is a usage error naming
    /// the offending flag or word, for every command — never a silent
    /// default: a misspelled flag, a flag given twice, a positional word
    /// (`study` takes exactly one, its name) and a word after a switch.
    #[test]
    fn every_command_refuses_a_misspelled_flag() {
        for (command, values, switches) in COMMAND_FLAGS {
            let flags = || values.split_whitespace().chain(switches.split_whitespace());
            let typo = match flags().find(|f| f.contains('-')) {
                Some(flag) => flag.replace('-', "_"),
                None => flags().next().map_or("verbose".into(), |f| format!("{f}s")),
            };
            let name: &[&str] = if command == "study" { &["twod"] } else { &[] };
            let typo = format!("--{typo}");
            let flag = format!("--{}", flags().next().unwrap_or("verbose"));
            let mut cases = vec![
                (vec![typo.as_str(), "2"], format!("{typo} is not a {command} flag (")),
                (vec![&flag, "2", &flag, "2"], format!("{flag} is given twice")),
                if command == "study" {
                    (vec!["fig4b"], "study expects exactly one name".to_string())
                } else {
                    (vec!["fig4b"], format!("unexpected argument \"fig4b\" ({command} takes"))
                },
            ];
            let switch = switches.split_whitespace().next().map(|s| format!("--{s}"));
            if let Some(switch) = &switch {
                cases.push((
                    vec![switch, "fig4b"],
                    format!("{switch} takes no value, got \"fig4b\""),
                ));
            }
            for (tail, expected) in cases {
                let line = [&[command][..], name, &tail].concat();
                let (code, out) = run_str(&line);
                let ExitCode::Error(msg) = code else { panic!("{line:?} ran: {code:?}") };
                assert!(msg.starts_with(&expected), "{line:?}: {msg}");
                assert!(out.is_empty(), "{line:?} wrote {out}");
            }
        }
    }
}
