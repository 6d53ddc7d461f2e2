//! # fpga-rt-pool
//!
//! A deterministic **sharded worker pool** on plain `std::thread` + `mpsc`
//! channels — the concurrency substrate of the online service's session
//! loop and, through [`run_units`], of every offline population engine
//! (the sweep, the conformance engine, the 2-D bridge and the 2-D study).
//!
//! The pool owns a fixed set of worker threads. Every submitted item
//! carries a **shard key**; a shard is pinned to exactly one worker for the
//! pool's lifetime and each worker lazily builds one state value per shard
//! it owns (an admission controller, a scratch buffer, `()` for stateless
//! work). This gives three guarantees that make parallel runs replayable:
//!
//! 1. **Ordered results** — [`ShardedPool::collect`] returns the current
//!    batch's results sorted by submission order, whatever order the
//!    workers finished in.
//! 2. **Panic containment** — a handler panic is caught and surfaced as a
//!    per-item [`ItemPanic`] error; the worker, its shard states and the
//!    rest of the batch keep going.
//! 3. **Output invariance** — because a shard's items are always processed
//!    sequentially by the one worker that owns its state, results are
//!    byte-identical across worker counts and batch splits. (Handlers must
//!    not smuggle in other nondeterminism — wall-clock time, global
//!    counters, iteration order of shared maps.)
//!
//! ## The population driver
//!
//! An offline population is `n` independent units (a sampled taskset, a
//! block of them, a 2-D draw). [`run_units`] runs them on one pool with one
//! state value per worker (its scratch buffers), submits them in
//! fixed-size chunks so memory stays flat, and hands each unit's
//! [`ItemResult`] to the caller's fold **in unit order** — so whatever the
//! fold accumulates is independent of the worker count.
//!
//! ```
//! // Sum of squares over 0..100 on 3 workers; the state is unused scratch.
//! let square = |_: &mut (), unit: usize| (unit * unit) as u64;
//! let mut sum = 0u64;
//! let workers = fpga_rt_pool::run_units(3, 100, || (), square, |_unit, r| sum += r.unwrap());
//! assert_eq!((workers, sum), (3, 328_350));
//! ```
//!
//! ## Example
//!
//! ```
//! use fpga_rt_pool::{PoolConfig, ShardedPool};
//!
//! // Per-shard state: a running total. Handler: add and report.
//! let mut pool: ShardedPool<u64, u64> = ShardedPool::new(
//!     PoolConfig { workers: 4, shards: 8 },
//!     |_shard| 0u64,
//!     |total, _shard, x| {
//!         *total += x;
//!         *total
//!     },
//! );
//! for x in 1..=10 {
//!     pool.submit(x as u32 % 8, x);
//! }
//! let results = pool.collect().unwrap();
//! assert_eq!(results.len(), 10);
//! // Shard 1 saw 1 then 9, sequentially, on one worker: totals 1 and 10.
//! assert_eq!(results[0].as_ref().unwrap(), &1);
//! assert_eq!(results[8].as_ref().unwrap(), &10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use fpga_rt_obs::Obs;

/// Sizing of a [`ShardedPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker threads; `0` picks `min(shards, available parallelism)`.
    pub workers: usize,
    /// Number of independent shards. Submission shard keys are reduced
    /// modulo this count; each shard owns one state value.
    pub shards: u32,
}

impl PoolConfig {
    /// The worker-thread count this configuration resolves to: explicit
    /// `workers`, or all available parallelism when `0`, never more than
    /// the shard count (extra workers would own no shard) and never less
    /// than 1.
    pub fn effective_workers(&self) -> usize {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.workers
        };
        requested.min(self.shards.max(1) as usize).max(1)
    }
}

/// A handler (or shard-state factory) panicked while processing one item.
///
/// The panic is contained: the owning worker and every other item of the
/// batch keep running, and the shard's state (if it was already built) is
/// reused for subsequent items — the factory/handler pair asserts unwind
/// safety exactly like the `AssertUnwindSafe` it is wrapped in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemPanic {
    /// The panic payload, rendered as text (`String` and `&str` payloads
    /// verbatim, anything else as `"unknown panic"`).
    pub message: String,
}

impl core::fmt::Display for ItemPanic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "handler panicked: {}", self.message)
    }
}

impl std::error::Error for ItemPanic {}

/// Per-item outcome: the handler's response, or the contained panic.
pub type ItemResult<Resp> = Result<Resp, ItemPanic>;

/// The pool's worker threads are gone (a catastrophic failure — item-level
/// panics are contained and never cause this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolDisconnected;

impl core::fmt::Display for PoolDisconnected {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("worker pool died")
    }
}

impl std::error::Error for PoolDisconnected {}

/// One queued item: global submission sequence, resolved shard, payload.
type Job<Req> = (u64, u32, Req);

/// One dispatched batch: the dispatch timestamp (present only when
/// queue-wait timing is on) and the jobs handed to one worker.
type Dispatch<Req> = (Option<Instant>, Vec<Job<Req>>);

/// Per-shard metric name, zero-padded so snapshot rows sort numerically
/// for any realistic shard count.
fn shard_metric(shard: u32, which: &str) -> String {
    format!("pool/shard{shard:03}/{which}")
}

/// A sharded worker pool; see the [crate docs](self) for the guarantees.
///
/// Type parameters: `Req` is the submitted item, `Resp` the handler's
/// response. The per-shard state type is erased at construction.
pub struct ShardedPool<Req, Resp> {
    job_txs: Vec<mpsc::Sender<Dispatch<Req>>>,
    result_rx: mpsc::Receiver<(u64, ItemResult<Resp>)>,
    handles: Vec<JoinHandle<()>>,
    /// Items staged per worker since the last dispatch.
    staged: Vec<Vec<Job<Req>>>,
    /// Items dispatched or staged and not yet collected.
    in_flight: usize,
    next_seq: u64,
    workers: usize,
    shards: u32,
    /// Whether dispatches carry a queue-wait timestamp (telemetry on and
    /// not deterministic — deterministic runs never read the clock).
    stamp_queue: bool,
}

impl<Req: Send + 'static, Resp: Send + 'static> ShardedPool<Req, Resp> {
    /// Spawn the pool.
    ///
    /// `factory(shard)` builds the state for a shard the first time one of
    /// its items reaches the owning worker; `handler(state, shard, req)`
    /// processes one item. Both run on worker threads; panics in either are
    /// contained as per-item [`ItemPanic`] errors.
    pub fn new<S, F, H>(config: PoolConfig, factory: F, handler: H) -> Self
    where
        S: 'static,
        F: Fn(u32) -> S + Send + Sync + 'static,
        H: Fn(&mut S, u32, Req) -> Resp + Send + Sync + 'static,
    {
        Self::with_obs(config, Obs::off(), factory, handler)
    }

    /// Spawn the pool with a telemetry handle (see [`ShardedPool::new`]
    /// for the factory/handler contract).
    ///
    /// When `obs` is enabled every worker records, per shard it owns:
    /// `pool/shard<i>/items` (counter), `pool/shard<i>/queue_wait_ns`
    /// (from the batch's dispatch to the item's start, so it includes the
    /// handler time of the items ahead of it on the same worker) and
    /// `pool/shard<i>/busy_ns` (handler time) — both histograms zeroed in
    /// deterministic mode, in which case the clock is never read. With
    /// [`Obs::off`] (what [`ShardedPool::new`] passes) the instrumentation
    /// is a no-op.
    pub fn with_obs<S, F, H>(config: PoolConfig, obs: Obs, factory: F, handler: H) -> Self
    where
        S: 'static,
        F: Fn(u32) -> S + Send + Sync + 'static,
        H: Fn(&mut S, u32, Req) -> Resp + Send + Sync + 'static,
    {
        let workers = config.effective_workers();
        let shards = config.shards.max(1);
        let stamp_queue = obs.registry().map(|r| !r.is_deterministic()).unwrap_or(false);
        let factory = Arc::new(factory);
        let handler = Arc::new(handler);
        let (result_tx, result_rx) = mpsc::channel::<(u64, ItemResult<Resp>)>();
        let mut job_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::channel::<Dispatch<Req>>();
            job_txs.push(tx);
            let result_tx = result_tx.clone();
            let factory = Arc::clone(&factory);
            let handler = Arc::clone(&handler);
            let obs = obs.clone();
            handles.push(std::thread::spawn(move || {
                let mut states: HashMap<u32, S> = HashMap::new();
                for (stamp, jobs) in rx {
                    for (seq, shard, req) in jobs {
                        let wait_ns = stamp
                            .map(|s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX))
                            .unwrap_or(0);
                        let span = obs.span();
                        // Contain panics per item: a dead worker's pending
                        // results would deadlock collect() for the whole
                        // batch. A factory panic leaves the shard without
                        // state, so the next item retries the factory.
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            let state = states.entry(shard).or_insert_with(|| factory(shard));
                            handler(state, shard, req)
                        }))
                        .map_err(|payload| ItemPanic {
                            message: payload
                                .downcast_ref::<String>()
                                .cloned()
                                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                                .unwrap_or_else(|| "unknown panic".to_string()),
                        });
                        if obs.enabled() {
                            obs.inc(&shard_metric(shard, "items"));
                            obs.record_ns(&shard_metric(shard, "queue_wait_ns"), wait_ns);
                            obs.record_ns(&shard_metric(shard, "busy_ns"), span.elapsed_ns());
                        }
                        if result_tx.send((seq, result)).is_err() {
                            return; // pool dropped mid-batch
                        }
                    }
                }
            }));
        }
        ShardedPool {
            job_txs,
            result_rx,
            handles,
            staged: (0..workers).map(|_| Vec::new()).collect(),
            in_flight: 0,
            next_seq: 0,
            workers,
            shards,
            stamp_queue,
        }
    }

    /// The resolved worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The worker that owns `shard` (after modulo reduction).
    fn worker_of(&self, shard: u32) -> usize {
        (shard as usize) % self.workers
    }

    /// Stage one item for the shard's owning worker. Items are not handed
    /// to workers until [`ShardedPool::collect`].
    pub fn submit(&mut self, shard: u32, req: Req) {
        let shard = shard % self.shards;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.in_flight += 1;
        let worker = self.worker_of(shard);
        self.staged[worker].push((seq, shard, req));
    }

    /// Hand all staged items to their workers.
    fn dispatch(&mut self) -> Result<(), PoolDisconnected> {
        let stamp = if self.stamp_queue { Some(Instant::now()) } else { None };
        for (worker, jobs) in self.staged.iter_mut().enumerate() {
            if !jobs.is_empty() {
                self.job_txs[worker]
                    .send((stamp, std::mem::take(jobs)))
                    .map_err(|_| PoolDisconnected)?;
            }
        }
        Ok(())
    }

    /// Dispatch anything still staged, wait for every in-flight item and
    /// return the batch's results **in submission order**.
    pub fn collect(&mut self) -> Result<Vec<ItemResult<Resp>>, PoolDisconnected> {
        self.dispatch()?;
        let mut batch = Vec::with_capacity(self.in_flight);
        for _ in 0..self.in_flight {
            batch.push(self.result_rx.recv().map_err(|_| PoolDisconnected)?);
        }
        self.in_flight = 0;
        batch.sort_by_key(|(seq, _)| *seq);
        Ok(batch.into_iter().map(|(_, result)| result).collect())
    }

    /// Submit a whole batch of `(shard, item)` pairs and collect it:
    /// results come back in the iterator's order.
    pub fn run_batch(
        &mut self,
        batch: impl IntoIterator<Item = (u32, Req)>,
    ) -> Result<Vec<ItemResult<Resp>>, PoolDisconnected> {
        for (shard, req) in batch {
            self.submit(shard, req);
        }
        self.collect()
    }

    /// Submit one item to **every** shard (in shard order) and collect the
    /// per-shard responses, index `i` holding shard `i`'s result. The
    /// canonical way to drain per-shard state — e.g. collecting each
    /// shard's accumulated statistics at the end of a run — without
    /// tracking shard keys at the call site.
    ///
    /// Must not be called with items already in flight (the per-shard
    /// indexing would be ambiguous); panics if it is.
    pub fn broadcast(
        &mut self,
        mut req: impl FnMut(u32) -> Req,
    ) -> Result<Vec<ItemResult<Resp>>, PoolDisconnected> {
        assert_eq!(self.in_flight, 0, "broadcast requires an empty batch");
        self.run_batch((0..self.shards).map(|shard| (shard, req(shard))))
    }
}

impl<Req, Resp> Drop for ShardedPool<Req, Resp> {
    fn drop(&mut self) {
        // Hang up the job channels; workers drain their queues and exit.
        self.job_txs.clear();
        for handle in self.handles.drain(..) {
            // Worker bodies contain all panics, so join can only fail if
            // the thread was killed externally — nothing to clean up then.
            let _ = handle.join();
        }
    }
}

/// Most workers [`run_units`] starts: an explicit request above it, or
/// more available cores, resolve to this many.
const MAX_UNIT_WORKERS: u32 = 256;

/// Units [`run_units`] submits per pool batch: a population of a few
/// thousand units is one or a few collect rounds, and the results in
/// flight stay bounded for any population. Outputs never depend on it.
const UNIT_CHUNK: usize = 1024;

/// Run units `0..n` on `workers` threads (`0` = every available core) and
/// hand each unit's result to `fold` **in unit order**; returns the
/// resolved worker count.
///
/// Each worker builds one `state()` on its first unit and passes it to
/// every `eval(state, unit)` it runs — scratch buffers, never anything a
/// result may depend on, since which units share a worker depends on the
/// worker count. A panicking `eval` reaches `fold` as that unit's
/// [`ItemPanic`]; the other units keep going. Units are submitted in
/// fixed-size chunks, so memory stays flat however large `n` is, and what
/// `fold` sees is independent of the worker count.
pub fn run_units<S, R>(
    workers: usize,
    n: usize,
    state: impl Fn() -> S + Send + Sync + 'static,
    eval: impl Fn(&mut S, usize) -> R + Send + Sync + 'static,
    fold: impl FnMut(usize, ItemResult<R>),
) -> usize
where
    S: 'static,
    R: Send + 'static,
{
    run_units_in_chunks(workers, n, UNIT_CHUNK, state, eval, fold)
}

/// [`run_units`] with an explicit chunk size.
fn run_units_in_chunks<S, R>(
    workers: usize,
    n: usize,
    chunk: usize,
    state: impl Fn() -> S + Send + Sync + 'static,
    eval: impl Fn(&mut S, usize) -> R + Send + Sync + 'static,
    mut fold: impl FnMut(usize, ItemResult<R>),
) -> usize
where
    S: 'static,
    R: Send + 'static,
{
    let workers = PoolConfig { workers, shards: MAX_UNIT_WORKERS }.effective_workers();
    // One shard per worker: a worker's one state is its shard's state.
    let mut pool: ShardedPool<usize, R> = ShardedPool::new(
        PoolConfig { workers, shards: workers as u32 },
        move |_shard| state(),
        move |state, _shard, unit| eval(state, unit),
    );
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        for unit in start..end {
            pool.submit((unit % workers) as u32, unit);
        }
        let results = pool.collect().expect("pool workers cannot die: panics are contained");
        for (unit, result) in (start..end).zip(results) {
            fold(unit, result);
        }
        start = end;
    }
    workers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_workers_clamps_to_shards() {
        assert_eq!(PoolConfig { workers: 8, shards: 3 }.effective_workers(), 3);
        assert_eq!(PoolConfig { workers: 2, shards: 16 }.effective_workers(), 2);
        assert!(PoolConfig { workers: 0, shards: 64 }.effective_workers() >= 1);
        assert_eq!(PoolConfig { workers: 5, shards: 0 }.effective_workers(), 1);
    }

    #[test]
    fn stateless_batch_round_trips_in_order() {
        let mut pool: ShardedPool<u32, u32> =
            ShardedPool::new(PoolConfig { workers: 3, shards: 7 }, |_| (), |_, _, x| x * 2);
        let out = pool.run_batch((0..100).map(|i| (i % 7, i))).unwrap();
        let values: Vec<u32> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, (0..100).map(|i| i * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn shard_state_is_sequential_and_isolated() {
        // Each shard counts its own items; interleaved submission across
        // shards must still yield per-shard sequential counters.
        let mut pool: ShardedPool<(), u64> = ShardedPool::new(
            PoolConfig { workers: 4, shards: 4 },
            |_| 0u64,
            |count, _, ()| {
                *count += 1;
                *count
            },
        );
        let out = pool.run_batch((0..40).map(|i| (i % 4, ()))).unwrap();
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), (i / 4 + 1) as u64, "item {i}");
        }
    }

    #[test]
    fn results_are_invariant_in_worker_count_and_batch_split() {
        let run = |workers: usize, chunk: usize| -> Vec<ItemResult<u64>> {
            let mut pool: ShardedPool<u64, u64> = ShardedPool::new(
                PoolConfig { workers, shards: 5 },
                |shard| u64::from(shard) * 1000,
                |acc, _, x| {
                    *acc = acc.wrapping_mul(31).wrapping_add(x);
                    *acc
                },
            );
            let mut out = Vec::new();
            let items: Vec<(u32, u64)> = (0..64).map(|i| ((i % 5) as u32, i)).collect();
            for chunk in items.chunks(chunk) {
                out.extend(pool.run_batch(chunk.iter().copied()).unwrap());
            }
            out
        };
        let reference = run(1, 64);
        for (workers, chunk) in [(2, 64), (5, 64), (3, 7), (1, 1), (4, 13)] {
            assert_eq!(run(workers, chunk), reference, "workers={workers} chunk={chunk}");
        }
    }

    #[test]
    fn multiple_batches_reuse_shard_state() {
        let mut pool: ShardedPool<(), u64> = ShardedPool::new(
            PoolConfig { workers: 2, shards: 2 },
            |_| 0u64,
            |count, _, ()| {
                *count += 1;
                *count
            },
        );
        let first = pool.run_batch([(0, ()), (1, ())]).unwrap();
        let second = pool.run_batch([(0, ()), (1, ())]).unwrap();
        assert_eq!(first.into_iter().map(Result::unwrap).collect::<Vec<_>>(), vec![1, 1]);
        assert_eq!(second.into_iter().map(Result::unwrap).collect::<Vec<_>>(), vec![2, 2]);
    }

    #[test]
    fn broadcast_reaches_every_shard_in_shard_order() {
        let mut pool: ShardedPool<(), u64> = ShardedPool::new(
            PoolConfig { workers: 3, shards: 5 },
            |shard| u64::from(shard) * 10,
            |state, _, ()| {
                *state += 1;
                *state
            },
        );
        // Touch shards unevenly first; broadcast still hits each one once.
        pool.run_batch([(2, ()), (2, ()), (4, ())]).unwrap();
        let out = pool.broadcast(|_| ()).unwrap();
        let values: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, vec![1, 11, 23, 31, 42]);
    }

    #[test]
    fn obs_records_per_shard_items_and_zeroes_time_when_deterministic() {
        let obs = Obs::on(true);
        let mut pool: ShardedPool<u32, u32> = ShardedPool::with_obs(
            PoolConfig { workers: 2, shards: 3 },
            obs.clone(),
            |_| (),
            |_, _, x| x,
        );
        pool.run_batch((0..9).map(|i| (i % 3, i))).unwrap();
        let snap = obs.registry().unwrap().snapshot();
        for shard in 0..3 {
            assert_eq!(snap.counter(&shard_metric(shard, "items")), Some(3), "shard {shard}");
            let wait = snap.histogram(&shard_metric(shard, "queue_wait_ns")).unwrap();
            assert_eq!((wait.count, wait.max), (3, 0), "deterministic waits are zeroed");
            let busy = snap.histogram(&shard_metric(shard, "busy_ns")).unwrap();
            assert_eq!((busy.count, busy.max), (3, 0), "deterministic busy time is zeroed");
        }
    }

    #[test]
    fn factory_panic_is_a_contained_item_error() {
        let mut pool: ShardedPool<u32, u32> = ShardedPool::new(
            PoolConfig { workers: 1, shards: 2 },
            |shard| {
                assert!(shard != 1, "shard 1 factory refuses");
            },
            |_, _, x| x,
        );
        let out = pool.run_batch([(0, 10), (1, 11), (0, 12)]).unwrap();
        assert_eq!(out[0], Ok(10));
        assert!(out[1].as_ref().unwrap_err().message.contains("factory refuses"));
        assert_eq!(out[2], Ok(12));
    }

    /// The driver's contract: every unit reaches the fold exactly once, in
    /// unit order, with the same result for any worker count and chunk
    /// size; a panic is that unit's error; each worker builds one state.
    #[test]
    fn run_units_folds_in_unit_order_for_any_workers_and_chunk() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let run = |workers: usize, chunk: usize| {
            let states = Arc::new(AtomicUsize::new(0));
            let built = Arc::clone(&states);
            let mut seen = Vec::new();
            let resolved = run_units_in_chunks(
                workers,
                50,
                chunk,
                move || {
                    built.fetch_add(1, Ordering::SeqCst);
                    0u64
                },
                |calls: &mut u64, unit| {
                    *calls += 1;
                    assert!(unit % 17 != 3, "unit {unit} explodes");
                    (unit as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7
                },
                |unit, result| seen.push((unit, result)),
            );
            assert_eq!(resolved, workers);
            assert!(states.load(Ordering::SeqCst) <= workers, "one state per worker");
            seen
        };
        let reference = run(1, 50);
        let units: Vec<usize> = reference.iter().map(|(unit, _)| *unit).collect();
        assert_eq!(units, (0..50).collect::<Vec<_>>());
        for (unit, result) in &reference {
            match result {
                Err(panic) => {
                    assert_eq!(unit % 17, 3);
                    assert!(panic.message.contains(&format!("unit {unit} explodes")));
                }
                Ok(_) => assert_ne!(unit % 17, 3),
            }
        }
        for workers in [1, 2, 4] {
            for chunk in [1, 7, 50, UNIT_CHUNK] {
                assert_eq!(run(workers, chunk), reference, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn run_units_resolves_zero_workers_to_every_core() {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let workers = run_units(0, 3, || (), |(), unit| unit, |_, _| {});
        assert_eq!(workers, cores.min(MAX_UNIT_WORKERS as usize));
        // An empty population still reports its workers.
        assert_eq!(run_units(2, 0, || (), |(), unit| unit, |_, _| unreachable!()), 2);
    }
}
