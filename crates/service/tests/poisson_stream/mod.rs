//! loadgen's `poisson` arrival stream, drawn call for call.
//!
//! `fpga-rt-loadgen` depends on this crate, so the service tests cannot
//! call its `synthesize`. This module repeats the generator's draws in the
//! same order from the same seeded RNG: exponential gaps, a uniform
//! session, and a 60/25/15 admit/release/query mix whose admits come from
//! UUniFast waves of 16 tasks at US 1.6, periods in U(5, 20) and areas over
//! the lower half of the device. `crates/loadgen/tests/loadgen_props.rs`
//! includes this file and pins it to `synthesize` op for op.

use fpga_rt_gen::uunifast;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One arrival's operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoissonOp {
    /// Admit the implicit-deadline task `(C, D, T, A)`.
    Admit(f64, f64, f64, u32),
    /// Release the session's oldest live handle.
    Release,
    /// Re-check the session's live set.
    Query,
}

/// `ops` arrivals as `(at_ns, session, op)`, exactly as loadgen's
/// `synthesize` draws them for the poisson profile.
pub fn poisson_stream(
    ops: usize,
    sessions: u32,
    columns: u32,
    seed: u64,
) -> Vec<(u64, u32, PoissonOp)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4c4f_4144_4745_4e31);
    let mut wave: Vec<f64> = Vec::new();
    let mut at_ns = 0u64;
    let mut out = Vec::with_capacity(ops);
    for _ in 0..ops {
        let u: f64 = rng.gen();
        at_ns += (-(1.0 - u).ln() * 10_000.0) as u64;
        let session = rng.gen_range(0..sessions);
        let op = match rng.gen_range(0u32..100) {
            0..=59 => {
                if wave.is_empty() {
                    wave = uunifast(16, 1.6, &mut rng);
                }
                let utilization = wave.pop().expect("refilled above").min(1.0);
                let period: f64 = rng.gen_range(5.0..20.0);
                let exec = (utilization * period).max(1e-3);
                let area = rng.gen_range(1..=(columns / 2).max(1));
                PoissonOp::Admit(exec, period, period, area)
            }
            60..=84 => PoissonOp::Release,
            _ => PoissonOp::Query,
        };
        out.push((at_ns, session, op));
    }
    out
}
