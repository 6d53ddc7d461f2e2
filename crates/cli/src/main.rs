//! `fpga-rt` — command-line front-end for the IPDPS'07 EDF schedulability
//! toolkit.
//!
//! ```text
//! fpga-rt check    --taskset set.json --columns 100 [--test any|dp|gn1|gn2|nec] [--exact]
//! fpga-rt simulate --taskset set.json --columns 100 [--scheduler nf|fkf] [--horizon 100]
//!                  [--placement free|first-fit|best-fit|worst-fit]
//!                  [--overhead-per-column X] [--trace]
//! fpga-rt size     --taskset set.json [--max 1000] [--exact]
//! fpga-rt generate --n 10 --seed 42 [--figure fig3b] [--pretty]
//! fpga-rt tables
//! fpga-rt study    figures|ablations|placement|overhead|partitioned|release|twod
//!                  [--figure fig3b|all] [--per-bin 10] [--seed S] [--workers W]
//! fpga-rt serve    --columns 100 [--shards 4] [--batch 64] [--sessions 4096]
//!                  [--cache 1024|off] [--deterministic]
//! ```
//!
//! Tasksets are JSON arrays of `{"exec": C, "deadline": D, "period": T,
//! "area": A}` objects (the serde form of `TaskSet<f64>`). Exit codes:
//! 0 = accepted / no miss, 1 = rejected / miss, 2 = usage or input error.
//! `fpga-rt help` lists every subcommand and flag.

use fpga_rt_cli::{run, ExitCode};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &mut std::io::stdout()) {
        ExitCode::Accepted => std::process::exit(0),
        ExitCode::Rejected => std::process::exit(1),
        ExitCode::Error(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}
