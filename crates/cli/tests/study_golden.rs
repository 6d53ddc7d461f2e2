//! Golden transcripts of every `fpga-rt study <name> --per-bin 10` at the
//! default seed, and of `fpga-rt tables`, checked in-process at one and
//! four pool workers (CI diffs the built binary against the same files).
//!
//! After an intended change to a study's output, regenerate its golden
//! with
//!
//! ```text
//! cargo run --release -p fpga-rt-cli -- study <name> --per-bin 10 \
//!     > crates/cli/testdata/study/<name>.txt
//! cargo run --release -p fpga-rt-cli -- tables > crates/cli/testdata/tables.txt
//! ```

use fpga_rt_cli::{run, ExitCode};

fn stdout(line: &[&str]) -> String {
    let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    assert_eq!(run(&args, &mut out), ExitCode::Accepted, "{line:?}");
    String::from_utf8(out).expect("utf-8 transcript")
}

/// One test per study, so the studies run in parallel.
macro_rules! study_golden {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            let golden = include_str!(concat!("../testdata/study/", stringify!($name), ".txt"));
            for workers in ["1", "4"] {
                let line = ["study", stringify!($name), "--per-bin", "10", "--workers", workers];
                assert_eq!(stdout(&line), golden, "--workers {workers}");
            }
        }
    )*};
}

study_golden!(figures, ablations, placement, overhead, partitioned, release, twod);

#[test]
fn tables_match_golden() {
    assert_eq!(stdout(&["tables"]), include_str!("../testdata/tables.txt"));
}
