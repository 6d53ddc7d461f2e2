//! Online admission control for a reconfigurable accelerator card.
//!
//! Scenario (the kind the paper's introduction motivates): a
//! software-defined-radio platform receives requests to load periodic
//! hardware kernels — FFTs, FIR filters, codecs — each with a period,
//! worst-case execution time and column footprint. The runtime must decide
//! *before loading* whether the new kernel can be admitted without
//! endangering existing deadlines.
//!
//! Strategy: use the workspace's online [`AdmissionController`] — the
//! paper's Section-6 advice ("determine that a taskset is unschedulable
//! only if all tests fail") as a fast→slow cascade: DP, then GN1, then
//! GN2, then an exact rational re-check on knife-edge margins.
//! Each decision reports the tier that settled it. The final admitted set
//! is then cross-checked by simulation.
//!
//! The same controller drives the long-running `fpga-rt serve` JSONL
//! service; this example uses it in-process.
//!
//! ```text
//! cargo run --release --example admission_control
//! ```

use fpga_rt::prelude::*;

struct Request {
    name: &'static str,
    exec: f64,
    period: f64,
    area: u32,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fpga = Fpga::new(100)?;
    let mut controller = AdmissionController::new(fpga, ControllerConfig::default());

    // Arrival stream of kernel-load requests (implicit deadlines).
    let requests = [
        Request { name: "fft-1k", exec: 2.0, period: 10.0, area: 30 },
        Request { name: "fir-64tap", exec: 1.5, period: 8.0, area: 18 },
        Request { name: "viterbi", exec: 4.0, period: 20.0, area: 42 },
        Request { name: "aes-stream", exec: 0.8, period: 5.0, area: 12 },
        Request { name: "h264-me", exec: 9.0, period: 15.0, area: 55 }, // big one
        Request { name: "crc-offload", exec: 0.3, period: 4.0, area: 6 },
        Request { name: "fft-4k", exec: 6.0, period: 12.0, area: 48 },
        Request { name: "resampler", exec: 2.5, period: 9.0, area: 20 },
    ];

    println!("admission control on {fpga} using the dp-inc → gn1 → gn2 → exact cascade\n");

    for req in &requests {
        let candidate = Task::implicit(req.exec, req.period, req.area)?;
        let (decision, _handle) = controller.admit(candidate, false);
        println!(
            "  {:<12} C={:<4} T={:<4} A={:<3} → {:<6} (tier {})",
            req.name,
            req.exec,
            req.period,
            req.area,
            if decision.accepted { "ADMIT" } else { "reject" },
            decision.tier
        );
    }

    let stats = controller.stats();
    println!(
        "\nadmitted {} kernels: UT={:.3}, US={:.1}/{} columns·time \
         (tiers: dp-inc={} gn1={} gn2={} exact={})",
        controller.len(),
        controller.time_utilization(),
        controller.system_utilization(),
        fpga.columns(),
        stats.tiers.dp_inc,
        stats.tiers.gn1,
        stats.tiers.gn2,
        stats.tiers.exact
    );
    let final_set = controller.live().snapshot()?;

    // Safety net: the admitted set must simulate clean under EDF-NF.
    let outcome = sim::simulate(
        &final_set,
        &fpga,
        &SimConfig::default().with_scheduler(SchedulerKind::EdfNf),
    )?;
    println!(
        "simulation cross-check (EDF-NF, 100·Tmax): {}",
        if outcome.schedulable() { "no deadline miss" } else { "MISS — test unsound?!" }
    );
    assert!(outcome.schedulable(), "bound tests are sound; this must hold");
    Ok(())
}
