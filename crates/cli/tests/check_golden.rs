//! Golden transcripts of `fpga-rt check --verbose` (each `--test`, in f64
//! and with `--exact`) and of `fpga-rt size` (f64 and `--exact`) on small
//! tasksets that reach every report row the tests print: Tables 1–3, a set
//! with a post-period deadline (βλk cases 2–3 and the density λ
//! candidates), one with constrained deadlines (`λmax < 1`), and the pair
//! of sets in `docs/THEORY.md` ("Which lighter sets a test may refuse")
//! where GN1 accepts the heavier and rejects the lighter. The reports are
//! pinned byte for byte: per-task rows, notes and rejection reasons.
//!
//! Each `testdata/check/<set>.txt` holds, for `testdata/check/<set>.json`,
//! one `$ <command>` header per run followed by its stdout and an
//! `exit <code>` line. CI diffs the built binary against the same files.
//! After an intended change to a report, regenerate with
//!
//! ```text
//! for f in crates/cli/testdata/check/*.json; do
//!   { for t in dp gn1 gn2 nec any all; do for x in "" --exact; do
//!       echo "\$ check --columns 10 --test $t --verbose${x:+ $x}"
//!       code=0; target/release/fpga-rt check --taskset "$f" --columns 10 \
//!         --test "$t" --verbose $x || code=$?
//!       echo "exit $code"
//!     done; done
//!     for x in "" --exact; do
//!       echo "\$ size${x:+ $x}"
//!       code=0; target/release/fpga-rt size --taskset "$f" $x || code=$?
//!       echo "exit $code"
//!     done
//!   } > "${f%.json}.txt"
//! done
//! ```

use fpga_rt_cli::{run, ExitCode};
use std::path::PathBuf;

const SETS: [&str; 7] = [
    "table1",
    "table2",
    "table3",
    "post_period",
    "constrained",
    "gn1_accepts",
    "gn1_lighter_rejected",
];

fn testdata(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("testdata/check").join(name)
}

/// One transcript entry: the header, stdout, and the exit code.
fn entry(transcript: &mut String, header: &str, argv: &[&str]) {
    let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let code = match run(&args, &mut out) {
        ExitCode::Accepted => 0,
        ExitCode::Rejected => 1,
        ExitCode::Error(msg) => panic!("{header}: {msg}"),
    };
    transcript.push_str(&format!("$ {header}\n"));
    transcript.push_str(&String::from_utf8(out).expect("utf-8 report"));
    transcript.push_str(&format!("exit {code}\n"));
}

fn transcript(set: &str) -> String {
    let path = testdata(&format!("{set}.json"));
    let path = path.to_str().expect("utf-8 path");
    let mut transcript = String::new();
    for test in ["dp", "gn1", "gn2", "nec", "any", "all"] {
        for exact in [None, Some("--exact")] {
            let mut header = format!("check --columns 10 --test {test} --verbose");
            let mut argv = vec!["check", "--taskset", path, "--columns", "10", "--test", test];
            argv.push("--verbose");
            if let Some(flag) = exact {
                header.push_str(&format!(" {flag}"));
                argv.push(flag);
            }
            entry(&mut transcript, &header, &argv);
        }
    }
    for exact in [None, Some("--exact")] {
        let mut argv = vec!["size", "--taskset", path];
        argv.extend(exact);
        let header = exact.map_or("size".to_string(), |flag| format!("size {flag}"));
        entry(&mut transcript, &header, &argv);
    }
    transcript
}

#[test]
fn check_and_size_reports_match_goldens() {
    for set in SETS {
        let golden = std::fs::read_to_string(testdata(&format!("{set}.txt"))).expect("golden");
        assert_eq!(transcript(set), golden, "{set}");
    }
}
