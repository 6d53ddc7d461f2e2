//! The snapshot/restore equivalence property: snapshotting a session at an
//! arbitrary point in an admit/release/query stream, rebuilding a fresh
//! controller from the snapshot, and continuing the stream yields verdicts
//! **identical** to the never-snapshotted twin — decision by decision,
//! handle by handle, margin row by margin row — and identical accumulated
//! statistics at the end.
//!
//! This is the contract that makes the server's `snapshot`/`restore`
//! lifecycle ops safe: everything not exported (the batch kernel's scratch
//! space, taskset fingerprint, verdict cache) must be derivable from the
//! live multiset or provably response-invisible.

use fpga_rt_gen::FigureWorkload;
use fpga_rt_model::{Fpga, Task, TaskHandle};
use fpga_rt_service::{AdmissionController, ControllerConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn controller(device: Fpga) -> AdmissionController {
    AdmissionController::new(device, ControllerConfig::default()).with_cache(Some(64))
}

/// Knife-edge pool sized for a 10-column device (exact-tier escalations
/// included), same shape as the cache-equivalence layer's.
fn knife_edge_pool() -> Vec<Task<f64>> {
    [
        (1.26, 7.0, 7.0, 9),
        (0.95, 5.0, 5.0, 6),
        (4.50, 8.0, 8.0, 3),
        (8.00, 9.0, 9.0, 5),
        (2.10, 5.0, 5.0, 7),
        (2.00, 7.0, 7.0, 7),
        (4.90, 5.0, 5.0, 9),
    ]
    .iter()
    .map(|&(c, d, p, a)| Task::new(c, d, p, a).unwrap())
    .collect()
}

/// Replay `steps` random ops, snapshotting-and-restoring the `restored`
/// twin at `snap_at`, asserting per-step equality against the continuous
/// twin throughout.
fn replay_with_snapshot(
    tasks: &[Task<f64>],
    device: Fpga,
    steps: usize,
    snap_at: usize,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut continuous = controller(device);
    let mut restored = controller(device);
    let mut live: Vec<TaskHandle> = Vec::new();
    for step in 0..steps {
        if step == snap_at {
            // Snapshot → fresh controller → restore, mid-stream.
            let (pairs, next_handle, stats) = restored.export_state();
            let mut fresh = controller(device);
            fresh.restore_state(pairs, next_handle, stats).expect("exported state restores");
            restored = fresh;
        }
        let want_margins = rng.gen_bool(0.5);
        match rng.gen_range(0u32..10) {
            0..=5 => {
                let task = tasks[rng.gen_range(0..tasks.len())];
                let (dec_c, h_c) = continuous.admit(task, want_margins);
                let (dec_r, h_r) = restored.admit(task, want_margins);
                assert_eq!(dec_c, dec_r, "step {step}: admit decisions diverged");
                assert_eq!(h_c, h_r, "step {step}: admit handles diverged");
                if let Some(h) = h_c {
                    live.push(h);
                }
            }
            6 | 7 if !live.is_empty() => {
                let h = live.swap_remove(rng.gen_range(0..live.len()));
                assert_eq!(
                    continuous.release(h),
                    restored.release(h),
                    "step {step}: release diverged"
                );
            }
            _ => {
                assert_eq!(
                    continuous.query(want_margins),
                    restored.query(want_margins),
                    "step {step}: query decisions diverged"
                );
            }
        }
    }
    assert_eq!(
        format!("{:?}", continuous.stats()),
        format!("{:?}", restored.stats()),
        "accumulated statistics diverged after restore"
    );
    // A second snapshot of each twin must agree on the durable state too.
    let (pairs_c, next_c, _) = continuous.export_state();
    let (pairs_r, next_r, _) = restored.export_state();
    assert_eq!(next_c, next_r, "handle counters diverged");
    assert_eq!(pairs_c, pairs_r, "canonical live vectors diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Figure-workload churn: restoring at a random point changes nothing
    /// downstream.
    #[test]
    fn figure_workload_streams_survive_snapshot_restore(
        seed in 0u64..u64::MAX / 2,
        fig in 0usize..4,
        snap_at in 0usize..120,
    ) {
        let workload = &FigureWorkload::all()[fig];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = Vec::new();
        for _ in 0..3 {
            pool.extend(workload.spec.generate(&mut rng).tasks().iter().copied());
        }
        replay_with_snapshot(&pool, workload.device(), 120, snap_at, seed ^ 0x5eed);
    }

    /// Knife-edge streams (exact-tier escalations, incremental-DP resets):
    /// the restored twin re-warms bit-identically.
    #[test]
    fn knife_edge_streams_survive_snapshot_restore(
        seed in 0u64..u64::MAX / 2,
        snap_at in 0usize..200,
    ) {
        replay_with_snapshot(&knife_edge_pool(), Fpga::new(10).unwrap(), 200, snap_at, seed);
    }
}

/// Fixed-seed witness: restoring into an *already warm* stream (snapshot
/// late, after the verdict cache has state) still converges — kept
/// deterministic so it cannot flake.
#[test]
fn late_snapshot_of_a_warm_controller_is_invisible() {
    replay_with_snapshot(&knife_edge_pool(), Fpga::new(10).unwrap(), 300, 250, 42);
}
