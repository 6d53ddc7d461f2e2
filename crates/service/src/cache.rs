//! Fingerprint-keyed verdict cache for the admission cascade.
//!
//! Real fleets re-submit near-identical tasksets constantly; the cheapest
//! admission decision is the one the cascade never runs. This module
//! provides the two halves of that memoization:
//!
//! * an **order-independent taskset fingerprint** over exact task tuples
//!   ([`task_fingerprint`] / [`TasksetFingerprint`]), and
//! * a **bounded LRU** ([`VerdictCache`]) mapping fingerprints to cached
//!   decisions ([`CachedVerdict`]): verdict + deciding tier + margin +
//!   reason + the observability stage mask + optional per-task margin rows.
//!
//! ## Fingerprint canonicalization
//!
//! A task contributes a 128-bit hash derived from exactly four `u64` words:
//! `C.to_bits()`, `D.to_bits()`, `T.to_bits()` (the IEEE-754 bit patterns
//! of the `f64` parameters, *not* any rounded or formatted form) and the
//! area as `u64`. Two tasks hash equally **iff** their parameter bits are
//! equal — `0.1 + 0.2` and `0.3` are different tasks here, just as they are
//! different to the analysis kernels. Every task in the admission pipeline
//! has positive finite parameters (controller preconditions), so the NaN
//! payload and `±0.0` ambiguities of `to_bits` cannot arise.
//!
//! The taskset fingerprint is the **wrapping sum** of its tasks' hashes:
//! commutative, hence independent of admission order, and incrementally
//! maintainable in O(1) — add the task hash on admit, subtract it on
//! release. Summing (rather than XOR) keeps duplicate tasks distinct:
//! admitting the same tuple twice changes the fingerprint. The cache key
//! additionally carries the live-set size and an operation tag, so a
//! sum collision would also have to collide in length to alias.
//!
//! ## Why the cache never goes stale
//!
//! Keys are pure functions of the decision's *input* — the live task
//! multiset (plus candidate, for admissions) — and the controller's live
//! set is canonically ordered ([`fpga_rt_model::Task::canonical_cmp`]), so
//! a decision is a pure function of the key. Admit/release churn therefore
//! *moves the controller to a different key* rather than invalidating any
//! entry; eviction is purely capacity-driven (LRU). Coherence with the
//! live set reduces to maintaining the running fingerprint, which the
//! controller does on every commit and release.

use crate::controller::Tier;
use fpga_rt_model::Task;

/// Running order-independent fingerprint of a task multiset.
///
/// The wrapping-sum construction makes [`add`](Self::add) /
/// [`remove`](Self::remove) exact inverses, so the fingerprint after any
/// admit/release history equals the fingerprint of the surviving multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TasksetFingerprint {
    sum: u128,
    len: usize,
}

impl TasksetFingerprint {
    /// Fingerprint of the empty set.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Fold one task into the multiset.
    pub fn add(&mut self, task: &Task<f64>) {
        self.sum = self.sum.wrapping_add(task_fingerprint(task));
        self.len += 1;
    }

    /// Remove one task from the multiset (must have been added).
    pub fn remove(&mut self, task: &Task<f64>) {
        self.sum = self.sum.wrapping_sub(task_fingerprint(task));
        self.len -= 1;
    }

    /// The fingerprint with `task` added, without mutating `self` — the
    /// key of an admission decision for candidate `task`.
    pub fn with(&self, task: &Task<f64>) -> Self {
        TasksetFingerprint { sum: self.sum.wrapping_add(task_fingerprint(task)), len: self.len + 1 }
    }

    /// Number of tasks folded in.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for the empty multiset.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// splitmix64 finalizer — a fast, well-dispersed u64 → u64 mixer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Chain the four canonical words of a task through the mixer from `seed`.
fn chain(seed: u64, task: &Task<f64>) -> u64 {
    let mut h = mix64(seed);
    for word in [
        task.exec().to_bits(),
        task.deadline().to_bits(),
        task.period().to_bits(),
        u64::from(task.area()),
    ] {
        h = mix64(h ^ word.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
    h
}

/// The 128-bit hash one task contributes to a [`TasksetFingerprint`].
///
/// Two independently seeded 64-bit chains over the same four canonical
/// words (see the [module docs](self) for the canonicalization rule); a
/// sum-of-hashes collision must defeat both halves simultaneously.
pub fn task_fingerprint(task: &Task<f64>) -> u128 {
    let lo = chain(0x243f_6a88_85a3_08d3, task); // π
    let hi = chain(0x9e37_79b9_7f4a_7c15, task); // φ
    (u128::from(hi) << 64) | u128::from(lo)
}

/// What kind of decision an entry caches. Admissions and queries record
/// different telemetry shapes (queries do not count into the admission
/// statistics), so they live in separate key spaces even when the
/// evaluated multiset coincides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheOp {
    /// `admit` of a candidate: the fingerprint covers Γ ∪ {candidate}.
    Admit,
    /// `query` of the current set: the fingerprint covers Γ.
    Query,
}

/// Full cache key: operation tag + multiset fingerprint + multiset size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    op: CacheOp,
    sum: u128,
    len: usize,
}

/// Bitmask of the analysis stages a cached decision originally ran, for
/// deterministic-mode telemetry replay (each bit maps to one
/// `admission/stage/*_ns` sample).
pub mod stages {
    /// `admission/stage/dp_ns`.
    pub const DP: u8 = 1;
    /// `admission/stage/gn1_ns`.
    pub const GN1: u8 = 2;
    /// `admission/stage/gn2_ns`.
    pub const GN2: u8 = 4;
    /// `admission/stage/exact_ns`.
    pub const EXACT: u8 = 8;
}

/// A decision as the controller's cascade computes it and the cache
/// memoizes it, sufficient to replay the controller's externally visible
/// behavior without re-running any analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedVerdict {
    /// Whether the evaluated set was schedulable.
    pub accepted: bool,
    /// The cascade tier that settled the verdict.
    pub tier: Tier,
    /// Signed slack of the binding comparison.
    pub margin: Option<f64>,
    /// Rejection reason / exact-tier note.
    pub reason: Option<String>,
    /// [`stages`] bitmask of the analysis stages the original decision ran.
    pub stages: u8,
    /// Per-task `(canonical index, margin)` rows, present when the original
    /// decision computed margins. Handles are *not* stored — they are
    /// history-dependent — and are re-derived from the live set on replay.
    /// `None` means margins were never computed; a hit that needs them
    /// falls back to a full miss and upgrades the entry.
    pub rows: Option<Vec<(usize, f64)>>,
}

/// One slab slot of the LRU list.
struct Slot {
    key: CacheKey,
    verdict: CachedVerdict,
    /// Slab index of the more recently used slot (`usize::MAX` = none).
    prev: usize,
    /// Slab index of the less recently used slot (`usize::MAX` = none).
    next: usize,
}

const NIL: usize = usize::MAX;

/// Bounded LRU verdict cache (one per controller shard).
///
/// Hand-rolled: a `HashMap` from key to slab index plus an intrusive
/// doubly-linked recency list over a slab `Vec`, giving O(1) lookup,
/// touch, insert and eviction with zero dependencies. The map is never
/// iterated, so its nondeterministic ordering cannot leak into any
/// artifact.
pub struct VerdictCache {
    map: std::collections::HashMap<CacheKey, usize>,
    slots: Vec<Slot>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot (eviction victim).
    tail: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl std::fmt::Debug for VerdictCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerdictCache")
            .field("len", &self.slots.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("evictions", &self.evictions)
            .finish()
    }
}

impl Clone for VerdictCache {
    /// Cloning a controller (e.g. spawning a shard from a template) starts
    /// with an empty cache of the same capacity; entries and counters are
    /// per-shard runtime state.
    fn clone(&self) -> Self {
        VerdictCache::new(self.capacity)
    }
}

impl VerdictCache {
    /// An empty cache holding at most `capacity` entries (≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        VerdictCache {
            map: std::collections::HashMap::with_capacity(capacity.min(1 << 20)),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Maximum entries held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count (lookups only; inserts do not re-count).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime capacity evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Unlink slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    /// Link slot `i` at the head (most recently used).
    fn link_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Look up a decision, marking the entry most recently used and
    /// counting a hit or miss.
    ///
    /// With `need_rows`, an entry whose per-task rows were never computed
    /// counts as a **miss** (the caller re-runs the decision with margins
    /// and [`VerdictCache::insert`] upgrades the entry in place), so the
    /// hit/miss counters always describe what actually happened.
    pub fn lookup(
        &mut self,
        op: CacheOp,
        fp: TasksetFingerprint,
        need_rows: bool,
    ) -> Option<&CachedVerdict> {
        let key = CacheKey { op, sum: fp.sum, len: fp.len };
        match self.map.get(&key).copied() {
            Some(i) if !need_rows || self.slots[i].verdict.rows.is_some() => {
                self.hits += 1;
                if self.head != i {
                    self.unlink(i);
                    self.link_front(i);
                }
                Some(&self.slots[i].verdict)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or overwrite) a decision, evicting the least recently used
    /// entry when at capacity. Returns `true` when an eviction happened.
    pub fn insert(&mut self, op: CacheOp, fp: TasksetFingerprint, verdict: CachedVerdict) -> bool {
        let key = CacheKey { op, sum: fp.sum, len: fp.len };
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].verdict = verdict;
            if self.head != i {
                self.unlink(i);
                self.link_front(i);
            }
            return false;
        }
        if self.slots.len() >= self.capacity {
            // Reuse the LRU victim's slab slot.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.evictions += 1;
            self.slots[victim].key = key;
            self.slots[victim].verdict = verdict;
            self.map.insert(key, victim);
            self.link_front(victim);
            true
        } else {
            let i = self.slots.len();
            self.slots.push(Slot { key, verdict, prev: NIL, next: NIL });
            self.map.insert(key, i);
            self.link_front(i);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(c: f64, d: f64, p: f64, a: u32) -> Task<f64> {
        Task::new(c, d, p, a).unwrap()
    }

    fn verdict(tag: f64) -> CachedVerdict {
        CachedVerdict {
            accepted: true,
            tier: Tier::IncrementalDp,
            margin: Some(tag),
            reason: None,
            stages: stages::DP,
            rows: None,
        }
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let tasks = [t(1.0, 4.0, 4.0, 2), t(2.5, 5.0, 5.0, 3), t(0.25, 8.0, 6.0, 1)];
        let mut fwd = TasksetFingerprint::empty();
        for task in &tasks {
            fwd.add(task);
        }
        let mut rev = TasksetFingerprint::empty();
        for task in tasks.iter().rev() {
            rev.add(task);
        }
        assert_eq!(fwd, rev);
    }

    #[test]
    fn remove_is_the_exact_inverse_of_add() {
        let a = t(1.0, 4.0, 4.0, 2);
        let b = t(2.5, 5.0, 5.0, 3);
        let mut fp = TasksetFingerprint::empty();
        fp.add(&a);
        let only_a = fp;
        fp.add(&b);
        fp.remove(&b);
        assert_eq!(fp, only_a);
        fp.remove(&a);
        assert_eq!(fp, TasksetFingerprint::empty());
    }

    #[test]
    fn duplicates_change_the_fingerprint() {
        let a = t(1.0, 4.0, 4.0, 2);
        let mut once = TasksetFingerprint::empty();
        once.add(&a);
        let mut twice = once;
        twice.add(&a);
        assert_ne!(once.sum, twice.sum, "sum construction keeps duplicates distinct");
    }

    #[test]
    fn bit_level_canonicalization() {
        // 0.1 + 0.2 != 0.3 in f64; the fingerprint must see them as
        // different tasks, exactly as the analysis kernels do.
        let x = t(0.1 + 0.2, 4.0, 4.0, 2);
        let y = t(0.3, 4.0, 4.0, 2);
        assert_ne!(task_fingerprint(&x), task_fingerprint(&y));
        // Same bits → same fingerprint.
        assert_eq!(task_fingerprint(&x), task_fingerprint(&t(0.1 + 0.2, 4.0, 4.0, 2)));
    }

    #[test]
    fn admit_and_query_key_spaces_are_disjoint() {
        let mut cache = VerdictCache::new(8);
        let mut fp = TasksetFingerprint::empty();
        fp.add(&t(1.0, 4.0, 4.0, 2));
        cache.insert(CacheOp::Admit, fp, verdict(1.0));
        assert!(cache.lookup(CacheOp::Query, fp, false).is_none());
        assert!(cache.lookup(CacheOp::Admit, fp, false).is_some());
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let mut cache = VerdictCache::new(2);
        let fps: Vec<TasksetFingerprint> = (1..=3u32)
            .map(|i| {
                let mut fp = TasksetFingerprint::empty();
                fp.add(&t(f64::from(i), 8.0, 8.0, 1));
                fp
            })
            .collect();
        cache.insert(CacheOp::Admit, fps[0], verdict(0.0));
        cache.insert(CacheOp::Admit, fps[1], verdict(1.0));
        // Touch fps[0] so fps[1] becomes the LRU victim.
        assert!(cache.lookup(CacheOp::Admit, fps[0], false).is_some());
        cache.insert(CacheOp::Admit, fps[2], verdict(2.0));
        assert_eq!(cache.evictions(), 1);
        assert!(cache.lookup(CacheOp::Admit, fps[1], false).is_none(), "LRU entry evicted");
        assert!(cache.lookup(CacheOp::Admit, fps[0], false).is_some());
        assert!(cache.lookup(CacheOp::Admit, fps[2], false).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn overwrite_updates_in_place() {
        let mut cache = VerdictCache::new(2);
        let mut fp = TasksetFingerprint::empty();
        fp.add(&t(1.0, 4.0, 4.0, 2));
        cache.insert(CacheOp::Admit, fp, verdict(1.0));
        cache.insert(CacheOp::Admit, fp, verdict(2.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(CacheOp::Admit, fp, false).unwrap().margin, Some(2.0));
    }

    #[test]
    fn counters_track_lookups() {
        let mut cache = VerdictCache::new(4);
        let mut fp = TasksetFingerprint::empty();
        fp.add(&t(1.0, 4.0, 4.0, 2));
        assert!(cache.lookup(CacheOp::Admit, fp, false).is_none());
        cache.insert(CacheOp::Admit, fp, verdict(1.0));
        assert!(cache.lookup(CacheOp::Admit, fp, false).is_some());
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (1, 1, 0));
    }

    /// 10k random tasksets: permutation invariance and no pairwise
    /// collisions (the satellite property, in cheap unit-test form; the
    /// proptest layer re-draws from the figure generators).
    #[test]
    fn no_collisions_in_10k_random_tasksets() {
        use std::collections::HashMap;
        // Deterministic xorshift so the test needs no rng dependency here.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seen: HashMap<(u128, usize), Vec<Vec<u64>>> = HashMap::new();
        for _ in 0..10_000 {
            let n = (next() % 6 + 1) as usize;
            let mut fp = TasksetFingerprint::empty();
            let mut tuple_bits = Vec::new();
            for _ in 0..n {
                let c = (next() % 1000 + 1) as f64 / 64.0;
                let d = c + (next() % 1000) as f64 / 32.0 + 0.5;
                let p = (next() % 1000 + 1) as f64 / 16.0;
                let a = (next() % 8 + 1) as u32;
                let task = t(c, d, p, a);
                tuple_bits.extend_from_slice(&[
                    task.exec().to_bits(),
                    task.deadline().to_bits(),
                    task.period().to_bits(),
                    u64::from(task.area()),
                ]);
                fp.add(&task);
            }
            // Canonicalize the multiset for the ground-truth comparison.
            let mut sorted: Vec<[u64; 4]> =
                tuple_bits.chunks(4).map(|c| [c[0], c[1], c[2], c[3]]).collect();
            sorted.sort_unstable();
            let flat: Vec<u64> = sorted.into_iter().flatten().collect();
            let bucket = seen.entry((fp.sum, fp.len)).or_default();
            assert!(
                bucket.is_empty() || bucket.contains(&flat),
                "distinct tasksets collided on ({:#x}, {})",
                fp.sum,
                fp.len
            );
            if !bucket.contains(&flat) {
                bucket.push(flat);
            }
        }
    }
}
