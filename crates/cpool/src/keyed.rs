//! Distinguishable elements: a pool keyed by element class.
//!
//! The second open question of §5: "How might pools be extended to handle
//! distinguishable elements?" This module answers it with a [`KeyedPool`]:
//! every element carries a key, and a remove may ask for *any* element or
//! for an element of a *specific* key.
//!
//! # Design
//!
//! Each segment partitions its contents by key (a `BTreeMap` of buckets —
//! ordered, so iteration is deterministic and virtual-time runs reproduce).
//! The concurrent-pool locality story carries over per key:
//!
//! * `add(k, v)` goes to the local segment's `k` bucket;
//! * `try_remove_key(k)` serves from the local `k` bucket, and only when
//!   that is empty searches remote segments — stealing **⌈n/2⌉ of the
//!   victim's `k` bucket** (the paper's rule, applied bucket-wise, so the
//!   reserve it builds is a reserve of the key the process actually wants);
//! * `try_remove_any` serves any local element, and when the local segment
//!   is empty steals half of the *largest* bucket of the first non-empty
//!   victim — taking the biggest bucket preserves the locality of the
//!   victim's other keys while still balancing bulk.
//!
//! Searches use the **linear algorithm**: the paper's own conclusion is
//! that "the linear or the random search algorithm may suffice and provide
//! better performance" (§5), and the tree's round counters do not compose
//! with per-key emptiness (a subtree empty *for key A* is not empty for
//! key B, so one shared counter per node would mislead other keys'
//! searches — one tree per key would cost `k · n` counters). Each process
//! remembers where it last found each key, the keyed analogue of
//! `LastFound`.
//!
//! Transfers ride the same batch-typed machinery as the plain pool
//! ([`transfer`](crate::transfer)): steals fill a recycled vector shell
//! from a pool-wide free list and refills return it, and a bucket emptied
//! by removes or steals stays resident so its capacity (and its map node)
//! is reused by the next add of that key — the steady-state keyed
//! steal/refill cycle allocates nothing (asserted by
//! `tests/alloc_steal.rs`). Residency is bounded per segment (64 buckets;
//! beyond that emptied buckets are evicted so occupancy scans stay
//! bounded under ephemeral-key workloads); a [`PoolOps::drain`] releases
//! everything.
//!
//! Livelock on exhausted keys is broken by the same §3.2 gate as the plain
//! pool: a keyed search aborts when every registered process is searching —
//! whether they starve on the same key or different ones, nobody can be
//! adding, so waiting is futile. Registration, the lap-counted gate-abort,
//! the two-phase steal-half transfer, and stats plumbing are all delegated
//! to the shared `core` engine — the same hot path the plain
//! [`Pool`](crate::Pool) runs — so this module only supplies the keyed
//! element model and the per-key search cursors.
//!
//! # Hot keys
//!
//! Uniform key traffic spreads naturally over segments, but a Zipfian
//! stream funnels most operations through one or two buckets, and every
//! producer and consumer of a hot key then serializes on the owning
//! segment's lock. The keyed frontend reacts adaptively:
//!
//! * a pool-wide sampled frequency detector ([`hotkey`](crate::hotkey))
//!   watches one in `sample_every` operations per handle;
//! * when a key's share of the sample window crosses the promote
//!   threshold, its bucket is **split** into `K` independently locked
//!   sub-shards (`HotBucket`, crate-internal): adds rotate across sub-shards, removes
//!   drain any, and handles cache the split bucket so hot-key traffic
//!   bypasses the segment lock entirely;
//! * steal-half applies **sub-shard-wise** (⌈n/2⌉ of each sub-shard, one
//!   shard lock at a time, never the segment lock), filling the same
//!   recycled transfer shells as plain steals — the zero-copy batch
//!   currency and the alloc-free steady state are preserved;
//! * the largest-bucket victim policy for anonymous steals becomes
//!   **heat-weighted**: victims rank by `len × (1 + boost · heat)`, so
//!   thieves relieve the actual contention point, not just the deepest
//!   bucket;
//! * when the detector's window shows the key has cooled below the demote
//!   threshold (hysteresis — see [`HotKeyConfig`]), the sub-shards are
//!   **merged back** into a plain bucket. Close/timeout semantics are
//!   unaffected: segment occupancy counts include sub-shard contents, so
//!   drained snapshots and wake filters see through a split.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::core::{OpTimer, Registry, SearchSession, Slot, WaitCtl};
use crate::error::RemoveError;
use crate::hotkey::{HotKeyConfig, HotKeyDetector};
use crate::ids::{ProcId, SegIdx};
use crate::magazine::{CacheOutcome, Depot, MagazineCache, PopOutcome};
use crate::notify::Notifier;
use crate::ops::{PoolOps, SmallDrain, WaitStrategy};
use crate::segment::steal_count;
use crate::stats::{PoolStats, ProcStats};
use crate::timing::{NullTiming, Resource, Timing};
use crate::transfer::{FreeList, SHELL_SPILL_MAX, SHELL_SPILL_MIN};

/// Keys must be orderable (deterministic bucket iteration), cloneable
/// (buckets store them), and sendable across worker threads.
pub trait Key: Ord + Clone + Send + 'static {}
impl<K: Ord + Clone + Send + 'static> Key for K {}

/// Default for the most buckets a segment keeps resident while *empty*
/// (see [`KeyedPoolBuilder::resident_buckets_max`]). Above the bound, an
/// emptied bucket is evicted instead: occupancy scans
/// ([`KeyedSegment::remove_any`]) walk past resident empties, so an
/// unbounded ephemeral-key workload would otherwise degrade every remove
/// (and its lock hold time) linearly with the keys ever seen. Live
/// (non-empty) buckets never count against the bound.
const RESIDENT_BUCKETS_MAX: usize = 64;

/// Weight of observed heat in the anonymous-steal victim ranking: buckets
/// score `len × (1 + HEAT_STEAL_BOOST × heat)` with heat in `[0, 1]`, so a
/// bucket drawing the whole sample window outranks a cold bucket up to
/// five times its size — thieves relieve the contention point, not merely
/// the deepest bucket. With no detector (or no samples) every heat is 0
/// and the ranking degenerates to the original largest-bucket rule.
const HEAT_STEAL_BOOST: f64 = 4.0;

/// Entries a handle's hot-bucket cache may hold before it is reset; the
/// cache repopulates from sampled operations, so a reset only costs a few
/// slow-path (segment-locked) operations per hot key.
const HOT_CACHE_MAX: usize = 16;

/// One in this many *sampled* operations also runs the hysteresis
/// (demote) sweep. The sweep locks the segment and probes the detector
/// once per split bucket; heat decay only needs to be eventual, so it
/// runs at `sample_every × SWEEP_EVERY_SAMPLES` op granularity per
/// handle rather than on every sample.
const SWEEP_EVERY_SAMPLES: u32 = 8;

/// One bucket: a plain vector, or — once promoted by the hot-key detector
/// — `K` independently locked sub-shards.
enum Bucket<V> {
    Plain(Vec<V>),
    Hot(Arc<HotBucket<V>>),
}

impl<V> Bucket<V> {
    fn len(&self) -> usize {
        match self {
            Bucket::Plain(bucket) => bucket.len(),
            Bucket::Hot(hot) => hot.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A promoted (split) bucket: `K` sub-shards, each behind its own lock, so
/// hot-key producers and consumers stop serializing on one vector — and,
/// via the handles' caches, on the segment lock itself. The cached total
/// makes emptiness probes lock-free. Handles address sub-shards by their
/// process slot (affinity: distinct processes, distinct shards, and a
/// process's pops probe its own pushes' shard first); segment-internal
/// routed operations rotate via the cursors so the shards stay balanced
/// without coordination.
///
/// Demotion (and teardown) *seals* each sub-shard under its lock; a sealed
/// shard refuses pushes and reports pops as sealed, which tells stale
/// cached handles to drop the reference and retake the segment-locked
/// path. Elements only ever move under a shard lock, so a split or merge
/// racing live traffic can neither lose nor duplicate them.
struct HotBucket<V> {
    shards: Box<[Shard<V>]>,
    add_cursor: AtomicUsize,
    remove_cursor: AtomicUsize,
}

/// One sub-shard: the element vector behind its own lock, flanked by two
/// lock-free mirrors so the fast paths and occupancy probes never touch a
/// lock they don't need. Padded to a cache line: sub-shards sit adjacent
/// in one slab, and the whole point of the split is that processes on
/// different shards stop invalidating each other's lines.
#[repr(align(64))]
struct Shard<V> {
    items: Mutex<Vec<V>>,
    /// `items.len()` mirror, written with a plain store while the shard
    /// lock is held (one writer at a time, so no read-modify-write): pops
    /// skip empty shards and occupancy sums read it without locking.
    len: AtomicUsize,
    /// Sticky seal flag, set under the shard lock by demotion/teardown
    /// (a `HotBucket` is never unsealed — promotion builds a fresh one),
    /// so the lock-free read can trust `true` outright; `false` is
    /// re-checked under the lock before mutating.
    sealed: AtomicBool,
}

impl<V> HotBucket<V> {
    /// Builds a `k`-shard bucket, dealing `items` round-robin so the
    /// shards start balanced. `k` is rounded up to a power of two so
    /// shard selection is a mask, not a hardware divide — the selection
    /// runs on every hot-path operation.
    fn new(k: usize, items: Vec<V>) -> Self {
        let k = k.next_power_of_two();
        let mut dealt: Vec<Vec<V>> = (0..k).map(|_| Vec::new()).collect();
        for (i, value) in items.into_iter().enumerate() {
            dealt[i % k].push(value);
        }
        HotBucket {
            shards: dealt
                .into_iter()
                .map(|items| Shard {
                    len: AtomicUsize::new(items.len()),
                    sealed: AtomicBool::new(false),
                    items: Mutex::new(items),
                })
                .collect(),
            add_cursor: AtomicUsize::new(0),
            remove_cursor: AtomicUsize::new(0),
        }
    }

    /// Shard-index mask: the shard count is always a power of two, so
    /// `index & mask()` replaces `index % len` on the hot paths.
    fn mask(&self) -> usize {
        self.shards.len() - 1
    }

    /// Occupancy: the sum of the per-shard mirrors. Exact when quiescent,
    /// momentarily stale against in-flight shard operations — callers
    /// treat it as a hint (steal sizing, emptiness scans that re-check).
    fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.len.load(Ordering::Acquire)).sum()
    }
}

/// Outcome of a pop attempt against a [`HotBucket`].
enum HotPop<V> {
    Got(V),
    /// Every sub-shard was empty (and unsealed): the bucket holds nothing.
    Empty,
    /// A sealed sub-shard was seen: the bucket is being (or has been)
    /// demoted — retake the segment-locked path.
    Sealed,
}

/// The bucket map plus an exact count of its resident *empty* plain
/// buckets, kept in lockstep so the residency policy never has to scan,
/// and the segment-local event counters the pool aggregates into
/// [`PoolCounters`]. Hot buckets never count as empties: they stay
/// resident (and split) until the detector demotes them.
struct Buckets<K, V> {
    map: BTreeMap<K, Bucket<V>>,
    empties: usize,
    resident_max: usize,
    evictions: u64,
    promotions: u64,
    demotions: u64,
    /// The keys currently split, kept in lockstep with `map` so the
    /// hysteresis sweep touches only the (few) hot buckets instead of
    /// scanning the whole key space on every sampled operation.
    hot_keys: Vec<K>,
}

impl<K: Key, V> Buckets<K, V> {
    /// Routes an add under the segment lock: plain (or new) buckets take
    /// the value here; a hot bucket hands back its split handle so the
    /// push happens under a sub-shard lock instead.
    #[allow(clippy::type_complexity)]
    fn route_add(&mut self, key: K, value: V) -> Result<(), (K, Arc<HotBucket<V>>, V)> {
        if let Some(bucket) = self.map.get_mut(&key) {
            match bucket {
                Bucket::Plain(bucket) => {
                    if bucket.is_empty() {
                        self.empties -= 1;
                    }
                    bucket.push(value);
                }
                Bucket::Hot(hot) => return Err((key, Arc::clone(hot), value)),
            }
            return Ok(());
        }
        self.map.insert(key, Bucket::Plain(vec![value]));
        Ok(())
    }

    /// The plain bucket for `key`, creating it if absent and fixing the
    /// empties count if a resident empty bucket is being brought back into
    /// use. Callers route hot buckets away first.
    fn plain_bucket_for(&mut self, key: K) -> &mut Vec<V> {
        match self.map.entry(key) {
            std::collections::btree_map::Entry::Occupied(entry) => match entry.into_mut() {
                Bucket::Plain(bucket) => {
                    if bucket.is_empty() {
                        self.empties -= 1;
                    }
                    bucket
                }
                Bucket::Hot(_) => unreachable!("hot buckets are routed before plain_bucket_for"),
            },
            std::collections::btree_map::Entry::Vacant(entry) => {
                match entry.insert(Bucket::Plain(Vec::new())) {
                    Bucket::Plain(bucket) => bucket,
                    Bucket::Hot(_) => unreachable!("entry was just inserted as Plain"),
                }
            }
        }
    }

    /// The residency policy in one place: a plain bucket that an operation
    /// just emptied stays resident (capacity + map node reuse) unless the
    /// segment already hoards `resident_max` empty buckets, in which case
    /// it is evicted (and counted).
    fn settle_emptied(&mut self, key: &K, emptied: bool) {
        if !emptied {
            return;
        }
        if self.empties >= self.resident_max {
            self.map.remove(key);
            self.evictions += 1;
        } else {
            self.empties += 1;
        }
    }

    /// Splits `key`'s bucket into `k` sub-shards (idempotent: an already
    /// split bucket just returns its handle; an absent key splits an empty
    /// bucket pre-emptively). Elements move under the segment lock, so no
    /// operation can observe the key mid-split.
    fn promote(&mut self, key: &K, k: usize) -> Arc<HotBucket<V>> {
        let items = match self.map.get_mut(key) {
            Some(Bucket::Hot(hot)) => return Arc::clone(hot),
            Some(Bucket::Plain(bucket)) => {
                if bucket.is_empty() {
                    self.empties -= 1;
                }
                std::mem::take(bucket)
            }
            None => Vec::new(),
        };
        let hot = Arc::new(HotBucket::new(k, items));
        self.map.insert(key.clone(), Bucket::Hot(Arc::clone(&hot)));
        self.hot_keys.push(key.clone());
        self.promotions += 1;
        hot
    }

    /// Merges `key`'s sub-shards back into a plain bucket, sealing each
    /// shard under its lock so stale cached handles fall back to the
    /// segment-locked path (which now sees the plain bucket). An emptied
    /// hot bucket lands under the normal residency policy.
    fn demote(&mut self, key: &K) -> bool {
        let hot = match self.map.get(key) {
            Some(Bucket::Hot(hot)) => Arc::clone(hot),
            _ => return false,
        };
        let mut merged: Vec<V> = Vec::new();
        for shard in hot.shards.iter() {
            let mut items = shard.items.lock();
            shard.sealed.store(true, Ordering::Release);
            shard.len.store(0, Ordering::Release);
            if merged.is_empty() {
                // Reuse the first non-empty shard's grown capacity.
                merged = std::mem::take(&mut items);
            } else {
                merged.append(&mut items);
            }
        }
        self.hot_keys.retain(|k| k != key);
        self.demotions += 1;
        if merged.is_empty() {
            self.map.remove(key);
            if self.empties >= self.resident_max {
                self.evictions += 1;
            } else {
                self.map.insert(key.clone(), Bucket::Plain(merged));
                self.empties += 1;
            }
        } else {
            self.map.insert(key.clone(), Bucket::Plain(merged));
        }
        true
    }
}

/// One segment: per-key buckets plus a cached total for cheap emptiness
/// probes.
///
/// A bucket emptied by removes or steals **stays resident** (an empty
/// vector under its key) instead of being evicted from the map — up to
/// `resident_max` empty buckets (default [`RESIDENT_BUCKETS_MAX`]): the
/// next add or refill of that key reuses the bucket's grown capacity and
/// the map's existing node, so the steady-state keyed steal/refill cycle
/// allocates nothing. Beyond the bound emptied buckets are evicted
/// (ephemeral-key workloads trade the allocation-free property for bounded
/// scans); [`drain_all`](Self::drain_all) releases everything. All
/// occupancy checks skip empty buckets.
///
/// Hot (split) buckets are handled in two halves: locating one takes the
/// segment lock briefly (or no lock at all, via a handle's cache), while
/// the actual element movement happens under the sub-shard locks — see
/// [`HotBucket`].
struct KeyedSegment<K, V> {
    buckets: Mutex<Buckets<K, V>>,
    len: AtomicUsize,
    /// Lock-free mirror of `buckets.hot_keys.len()` (written while the
    /// buckets lock is held): the hysteresis sweep's early-out, so a
    /// segment with no split buckets pays one relaxed load per sample.
    hot_gauge: AtomicUsize,
}

impl<K: Key, V: Send + 'static> KeyedSegment<K, V> {
    fn new(resident_max: usize) -> Self {
        KeyedSegment {
            buckets: Mutex::new(Buckets {
                map: BTreeMap::new(),
                empties: 0,
                resident_max,
                evictions: 0,
                promotions: 0,
                demotions: 0,
                hot_keys: Vec::new(),
            }),
            len: AtomicUsize::new(0),
            hot_gauge: AtomicUsize::new(0),
        }
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    fn key_len(&self, key: &K) -> usize {
        self.buckets.lock().map.get(key).map_or(0, Bucket::len)
    }

    /// Pushes into one sub-shard of a hot bucket, without the segment
    /// lock. `at` picks the shard (mod the shard count): handles pass
    /// their process slot, so concurrent processes land on distinct
    /// shards and a process's own pops find its pushes first; routed
    /// segment-internal adds rotate via the bucket's cursor instead.
    /// `Err` hands the value back when the shard is sealed — a demotion
    /// raced; retake the routed path, which now sees a plain bucket.
    fn hot_push(&self, hot: &HotBucket<V>, value: V, at: usize) -> Result<(), V> {
        let shard = &hot.shards[at & hot.mask()];
        let mut items = shard.items.lock();
        if shard.sealed.load(Ordering::Relaxed) {
            return Err(value);
        }
        items.push(value);
        // Both occupancy mirrors move while the shard lock is held, so a
        // demotion or drain that later seals this shard observes them.
        shard.len.store(items.len(), Ordering::Release);
        self.len.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Pops from the first non-empty sub-shard, probing every shard in
    /// ring order from `start` (removes drain any sub-shard), without the
    /// segment lock. Handles start at their process slot — the shard
    /// their own pushes land on — so the steady-state pop is a single
    /// lock acquisition; segment-internal removes rotate via the bucket's
    /// cursor.
    fn hot_pop(&self, hot: &HotBucket<V>, start: usize) -> HotPop<V> {
        let mask = hot.mask();
        let mut saw_sealed = false;
        for i in 0..hot.shards.len() {
            let shard = &hot.shards[(start + i) & mask];
            // Lock-free pre-checks: a sealed flag is sticky, and an empty
            // shard's len mirror says so — neither needs the lock (a push
            // racing past the mirror read linearizes after this pop).
            if shard.sealed.load(Ordering::Acquire) {
                saw_sealed = true;
                continue;
            }
            if shard.len.load(Ordering::Acquire) == 0 {
                continue;
            }
            let mut items = shard.items.lock();
            if shard.sealed.load(Ordering::Relaxed) {
                saw_sealed = true;
                continue;
            }
            if let Some(value) = items.pop() {
                shard.len.store(items.len(), Ordering::Release);
                self.len.fetch_sub(1, Ordering::AcqRel);
                return HotPop::Got(value);
            }
        }
        if saw_sealed {
            HotPop::Sealed
        } else {
            HotPop::Empty
        }
    }

    /// Deals a bulk refill across unsealed sub-shards in balanced chunks.
    /// Returns `false` — with the undelivered remainder left in `values` —
    /// only when every sub-shard is sealed (a demotion raced).
    fn hot_push_bulk(&self, hot: &HotBucket<V>, values: &mut Vec<V>) -> bool {
        let k = hot.shards.len();
        let start = hot.add_cursor.fetch_add(1, Ordering::Relaxed) % k;
        let per = values.len().div_ceil(k).max(1);
        let mut pushed = 0;
        let mut progressed = true;
        while !values.is_empty() && progressed {
            progressed = false;
            for i in 0..k {
                if values.is_empty() {
                    break;
                }
                let shard = &hot.shards[(start + i) % k];
                let mut items = shard.items.lock();
                if shard.sealed.load(Ordering::Relaxed) {
                    continue;
                }
                let take = per.min(values.len());
                let at = values.len() - take;
                items.extend(values.drain(at..));
                shard.len.store(items.len(), Ordering::Release);
                self.len.fetch_add(take, Ordering::AcqRel);
                pushed += take;
                progressed = true;
            }
        }
        let _ = pushed;
        values.is_empty()
    }

    /// Steal-half, sub-shard-wise: ⌈s/2⌉ of *each* unsealed sub-shard
    /// (`s` = its size), one shard lock at a time and never the segment
    /// lock, into one transfer shell — so a hot victim keeps serving its
    /// other sub-shards while being robbed.
    fn hot_steal_half(&self, hot: &HotBucket<V>, shells: &FreeList<Vec<V>>) -> Vec<V> {
        let expected = steal_count(hot.len());
        if expected == 0 {
            return Vec::new();
        }
        let mut stolen = if expected < SHELL_SPILL_MIN {
            Vec::with_capacity(expected)
        } else {
            shells.take().unwrap_or_default()
        };
        for shard in hot.shards.iter() {
            if shard.sealed.load(Ordering::Acquire) || shard.len.load(Ordering::Acquire) == 0 {
                continue;
            }
            let mut items = shard.items.lock();
            if shard.sealed.load(Ordering::Relaxed) {
                continue;
            }
            let take = steal_count(items.len());
            if take == 0 {
                continue;
            }
            let at = items.len() - take;
            stolen.extend(items.drain(at..));
            shard.len.store(items.len(), Ordering::Release);
            self.len.fetch_sub(take, Ordering::AcqRel);
        }
        stolen
    }

    fn add(&self, key: K, value: V) {
        let mut key = key;
        let mut value = value;
        loop {
            let (k, hot, v) = {
                let mut buckets = self.buckets.lock();
                match buckets.route_add(key, value) {
                    Ok(()) => {
                        self.len.fetch_add(1, Ordering::AcqRel);
                        return;
                    }
                    Err(routed) => routed,
                }
            };
            let at = hot.add_cursor.fetch_add(1, Ordering::Relaxed);
            match self.hot_push(&hot, v, at) {
                Ok(()) => return,
                // Sealed: the bucket was demoted between routing and the
                // push — the retried route lands in the plain bucket.
                Err(v) => {
                    key = k;
                    value = v;
                }
            }
        }
    }

    fn add_bulk(&self, key: &K, mut values: Vec<V>, shells: &FreeList<Vec<V>>) {
        while !values.is_empty() {
            let hot = {
                let mut buckets = self.buckets.lock();
                match buckets.map.get(key) {
                    Some(Bucket::Hot(hot)) => Arc::clone(hot),
                    _ => {
                        let n = values.len();
                        buckets.plain_bucket_for(key.clone()).append(&mut values);
                        self.len.fetch_add(n, Ordering::AcqRel);
                        break;
                    }
                }
            };
            // Sub-shard-wise refill, off the segment lock; a raced
            // demotion (all shards sealed) loops back to the plain path.
            if self.hot_push_bulk(&hot, &mut values) {
                break;
            }
        }
        // The drained transfer shell goes back to the pool for the next
        // bulk steal (lock released first; recycling needs no segment
        // state). Undersized shells are not worth the round trip;
        // oversized ones would pin unbounded memory.
        if (SHELL_SPILL_MIN..=SHELL_SPILL_MAX).contains(&values.capacity()) {
            shells.put(values);
        }
    }

    fn remove_any(&self) -> Option<(K, V)> {
        loop {
            let (key, hot) = {
                let mut buckets = self.buckets.lock();
                // First *non-empty* key in order: deterministic; empty
                // buckets are resident capacity, not occupancy.
                let (key, bucket) =
                    buckets.map.iter_mut().find(|(_, bucket)| !bucket.is_empty())?;
                let key = key.clone();
                match bucket {
                    Bucket::Plain(bucket) => {
                        let value = bucket.pop().expect("bucket observed non-empty");
                        let emptied = bucket.is_empty();
                        buckets.settle_emptied(&key, emptied);
                        self.len.fetch_sub(1, Ordering::AcqRel);
                        return Some((key, value));
                    }
                    Bucket::Hot(hot) => (key, Arc::clone(hot)),
                }
            };
            let start = hot.remove_cursor.fetch_add(1, Ordering::Relaxed);
            match self.hot_pop(&hot, start) {
                HotPop::Got(value) => return Some((key, value)),
                // Raced empty or mid-demotion: rescan — the occupancy
                // mirror has moved on, so the scan converges.
                HotPop::Empty | HotPop::Sealed => continue,
            }
        }
    }

    fn remove_key(&self, key: &K) -> Option<V> {
        loop {
            let hot = {
                let mut buckets = self.buckets.lock();
                match buckets.map.get_mut(key)? {
                    Bucket::Plain(bucket) => {
                        let value = bucket.pop()?;
                        let emptied = bucket.is_empty();
                        buckets.settle_emptied(key, emptied);
                        self.len.fetch_sub(1, Ordering::AcqRel);
                        return Some(value);
                    }
                    Bucket::Hot(hot) => Arc::clone(hot),
                }
            };
            let start = hot.remove_cursor.fetch_add(1, Ordering::Relaxed);
            match self.hot_pop(&hot, start) {
                HotPop::Got(value) => return Some(value),
                HotPop::Empty => return None,
                // Demotion moved the elements back to a plain bucket.
                HotPop::Sealed => continue,
            }
        }
    }

    /// The shared tail of both keyed steals *for plain buckets*: drains
    /// ⌈b/2⌉ of `key`'s bucket into a transfer vector (a recycled shell
    /// for bulk steals; tiny ones take the allocator's small-size fast
    /// path instead of a free-list round trip), settles bucket residency,
    /// and fixes the cached length. `None` if the bucket is absent, empty,
    /// or hot (callers route hot buckets to
    /// [`hot_steal_half`](Self::hot_steal_half)).
    fn steal_tail(
        &self,
        buckets: &mut Buckets<K, V>,
        key: &K,
        shells: &FreeList<Vec<V>>,
    ) -> Option<Vec<V>> {
        let Bucket::Plain(bucket) = buckets.map.get_mut(key)? else {
            return None;
        };
        let take = steal_count(bucket.len());
        if take == 0 {
            return None;
        }
        let at = bucket.len() - take;
        let mut stolen = if take < SHELL_SPILL_MIN {
            Vec::with_capacity(take)
        } else {
            shells.take().unwrap_or_default()
        };
        stolen.extend(bucket.drain(at..));
        let emptied = bucket.is_empty();
        buckets.settle_emptied(key, emptied);
        self.len.fetch_sub(take, Ordering::AcqRel);
        Some(stolen)
    }

    /// Steals ⌈b/2⌉ of the `key` bucket (`b` = its size), filling a
    /// recycled transfer shell. Hot buckets are robbed sub-shard-wise,
    /// off the segment lock.
    fn steal_half_key(&self, key: &K, shells: &FreeList<Vec<V>>) -> Vec<V> {
        let hot = {
            let mut buckets = self.buckets.lock();
            match buckets.map.get(key) {
                Some(Bucket::Hot(hot)) => Arc::clone(hot),
                _ => return self.steal_tail(&mut buckets, key, shells).unwrap_or_default(),
            }
        };
        self.hot_steal_half(&hot, shells)
    }

    /// Steals ⌈b/2⌉ of the highest-scoring non-empty bucket (ties:
    /// smallest key), returning the key alongside the elements. The score
    /// is heat-weighted occupancy — `len × (1 + boost × heat)` — so under
    /// skew the *contended* bucket is robbed, which both balances load and
    /// seeds the thief's own reserve of the key most likely to be asked
    /// for next; with no heat it degenerates to the plain largest-bucket
    /// rule.
    fn steal_half_largest(
        &self,
        shells: &FreeList<Vec<V>>,
        heat: &dyn Fn(&K) -> f64,
    ) -> Option<(K, Vec<V>)> {
        let (key, hot) = {
            let mut buckets = self.buckets.lock();
            let score = |key: &K, bucket: &Bucket<V>| {
                bucket.len() as f64 * (1.0 + HEAT_STEAL_BOOST * heat(key))
            };
            let key = buckets
                .map
                .iter()
                .filter(|(_, bucket)| !bucket.is_empty())
                .max_by(|a, b| {
                    score(a.0, a.1)
                        .partial_cmp(&score(b.0, b.1))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| b.0.cmp(a.0))
                })?
                .0
                .clone();
            match buckets.map.get(&key) {
                Some(Bucket::Hot(hot)) => (key, Arc::clone(hot)),
                _ => {
                    let stolen = self
                        .steal_tail(&mut buckets, &key, shells)
                        .expect("key just observed non-empty");
                    return Some((key, stolen));
                }
            }
        };
        let stolen = self.hot_steal_half(&hot, shells);
        Some((key, stolen))
    }

    /// Adds a mixed-key batch under one lock acquisition (the keyed side of
    /// `PoolOps::add_batch`); values bound for hot buckets are pushed
    /// afterwards under their sub-shard locks.
    fn add_bulk_mixed(&self, pairs: Vec<(K, V)>) {
        if pairs.is_empty() {
            return;
        }
        let mut deferred: Vec<(K, Arc<HotBucket<V>>, V)> = Vec::new();
        {
            let mut buckets = self.buckets.lock();
            let mut landed = 0;
            for (key, value) in pairs {
                match buckets.route_add(key, value) {
                    Ok(()) => landed += 1,
                    Err(routed) => deferred.push(routed),
                }
            }
            // Count the landed pairs before the lock is released: a remover
            // that takes one first would otherwise wrap `len` below zero,
            // and blocked removers would spin their lap budget away on the
            // phantom occupancy.
            if landed > 0 {
                self.len.fetch_add(landed, Ordering::AcqRel);
            }
        }
        for (key, hot, value) in deferred {
            let at = hot.add_cursor.fetch_add(1, Ordering::Relaxed);
            if let Err(value) = self.hot_push(&hot, value, at) {
                // Sealed (demotion raced): the retried add routes plain.
                self.add(key, value);
            }
        }
    }

    /// Removes up to `n` elements (first keys first, deterministically)
    /// under one lock acquisition; hot buckets drain sub-shard-wise under
    /// their shard locks (segment lock before shard lock is the crate-wide
    /// order).
    fn remove_up_to(&self, n: usize) -> Vec<(K, V)> {
        if n == 0 {
            return Vec::new();
        }
        let mut buckets = self.buckets.lock();
        let mut out = Vec::new();
        let mut newly_empty = 0;
        'keys: for (key, bucket) in buckets.map.iter_mut() {
            match bucket {
                Bucket::Plain(bucket) => {
                    let had_elements = !bucket.is_empty();
                    while let Some(value) = bucket.pop() {
                        out.push((key.clone(), value));
                        if out.len() >= n {
                            if bucket.is_empty() && had_elements {
                                newly_empty += 1;
                            }
                            break 'keys;
                        }
                    }
                    if had_elements {
                        newly_empty += 1;
                    }
                }
                Bucket::Hot(hot) => {
                    'shards: for shard in hot.shards.iter() {
                        let mut items = shard.items.lock();
                        if shard.sealed.load(Ordering::Relaxed) {
                            continue;
                        }
                        while let Some(value) = items.pop() {
                            out.push((key.clone(), value));
                            if out.len() >= n {
                                shard.len.store(items.len(), Ordering::Release);
                                break 'shards;
                            }
                        }
                        shard.len.store(items.len(), Ordering::Release);
                    }
                    if out.len() >= n {
                        break 'keys;
                    }
                    // An emptied hot bucket stays resident (and split)
                    // until the detector demotes it.
                }
            }
        }
        buckets.empties += newly_empty;
        if buckets.empties > buckets.resident_max {
            // Evict only the excess above the bound, matching the per-op
            // policy in `settle_emptied` — a batched remove must not purge
            // every hot key's retained capacity in one sweep. Only empty
            // *plain* buckets are candidates.
            let mut excess = buckets.empties - buckets.resident_max;
            let mut evicted = 0;
            buckets.map.retain(|_, bucket| {
                if excess > 0 && matches!(bucket, Bucket::Plain(b) if b.is_empty()) {
                    excess -= 1;
                    evicted += 1;
                    false
                } else {
                    true
                }
            });
            buckets.evictions += evicted;
            buckets.empties = buckets.resident_max;
        }
        self.len.fetch_sub(out.len(), Ordering::AcqRel);
        out
    }

    /// Removes every element under one lock acquisition. This is the one
    /// operation that also evicts the resident buckets (and their retained
    /// capacity): a drain is a teardown, not steady-state traffic. Hot
    /// buckets are sealed shard-by-shard so a stale cached handle cannot
    /// push into an orphaned bucket — its retry re-routes through the map.
    fn drain_all(&self) -> Vec<(K, V)> {
        let mut buckets = self.buckets.lock();
        let mut out = Vec::new();
        for (key, bucket) in std::mem::take(&mut buckets.map) {
            match bucket {
                Bucket::Plain(values) => {
                    out.extend(values.into_iter().map(|v| (key.clone(), v)));
                }
                Bucket::Hot(hot) => {
                    for shard in hot.shards.iter() {
                        let mut items = shard.items.lock();
                        shard.sealed.store(true, Ordering::Release);
                        shard.len.store(0, Ordering::Release);
                        out.extend(items.drain(..).map(|v| (key.clone(), v)));
                    }
                }
            }
        }
        buckets.empties = 0;
        buckets.hot_keys.clear();
        self.hot_gauge.store(0, Ordering::Release);
        self.len.fetch_sub(out.len(), Ordering::AcqRel);
        out
    }

    /// Splits `key`'s bucket into `k` sub-shards (idempotent); returns the
    /// split bucket for caching.
    fn promote(&self, key: &K, k: usize) -> Arc<HotBucket<V>> {
        let mut buckets = self.buckets.lock();
        let hot = buckets.promote(key, k);
        self.hot_gauge.store(buckets.hot_keys.len(), Ordering::Release);
        hot
    }

    /// Merges `key`'s sub-shards back into a plain bucket; `false` if the
    /// key is not split here.
    fn demote(&self, key: &K) -> bool {
        let mut buckets = self.buckets.lock();
        let merged = buckets.demote(key);
        self.hot_gauge.store(buckets.hot_keys.len(), Ordering::Release);
        merged
    }

    /// The split bucket under `key`, if any (for handle caches).
    fn hot_bucket(&self, key: &K) -> Option<Arc<HotBucket<V>>> {
        match self.buckets.lock().map.get(key) {
            Some(Bucket::Hot(hot)) => Some(Arc::clone(hot)),
            _ => None,
        }
    }

    /// Demotes every split bucket whose key `is_cold` — the hysteresis
    /// sweep sampled operations run against their home segment. Returns
    /// how many buckets were merged back. A segment with no split buckets
    /// answers from the gauge without taking any lock; one with split
    /// buckets consults only its (few) hot keys, never the whole map.
    fn demote_cold(&self, is_cold: &dyn Fn(&K) -> bool) -> usize {
        if self.hot_gauge.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let mut buckets = self.buckets.lock();
        let cold: Vec<K> = buckets.hot_keys.iter().filter(|key| is_cold(key)).cloned().collect();
        for key in &cold {
            buckets.demote(key);
        }
        self.hot_gauge.store(buckets.hot_keys.len(), Ordering::Release);
        cold.len()
    }

    /// Segment-local event counters and the split-bucket gauge, for
    /// [`PoolCounters`](crate::stats::PoolCounters) aggregation.
    fn counters(&self) -> (u64, u64, u64, u64) {
        let buckets = self.buckets.lock();
        (buckets.evictions, buckets.promotions, buckets.demotions, buckets.hot_keys.len() as u64)
    }
}

/// Transfer shells a keyed pool retains per segment (see
/// [`FreeList`]; the steal/refill cycle keeps at most one in flight per
/// concurrent search).
const CACHED_SHELLS_PER_SEGMENT: usize = 2;

pub(crate) struct KeyedShared<K, V, T> {
    segments: Box<[Slot<KeyedSegment<K, V>>]>,
    /// Pool-wide cache of spare transfer vectors: steals fill a recycled
    /// shell, refills return it (see [`transfer`](crate::transfer)).
    shells: FreeList<Vec<V>>,
    /// The sampled key-frequency window (`None` when hot-key detection is
    /// disabled); only sampled operations touch its lock.
    detector: Option<HotKeyDetector<K>>,
    /// The hot-key knobs, kept even when detection is off so manual
    /// [`KeyedPool::promote_key`] calls know the sub-shard count.
    hot_cfg: HotKeyConfig,
    /// The magazine exchange point, present when built with a non-zero
    /// [`KeyedPoolBuilder::handle_cache`] depth. Keyed magazines carry
    /// whole `(key, value)` pairs — a magazine is *not* key-homogeneous.
    depot: Option<Depot<(K, V)>>,
    /// The configured magazine depth (elements per magazine; zero = off).
    handle_cache: usize,
    registry: Registry,
    timing: T,
}

impl<K: Key, V: Send + 'static, T: Timing> KeyedShared<K, V, T> {
    /// The key's observed heat in `[0, 1]` (0 when detection is off) —
    /// the weight the steal sweep folds into victim ranking.
    fn heat(&self, key: &K) -> f64 {
        self.detector.as_ref().map_or(0.0, |d| d.heat(key))
    }

    /// The pool's notifier (the wait/wake and close subsystem).
    pub(crate) fn notifier(&self) -> &Notifier {
        self.registry.notifier()
    }

    /// Whether every pool-visible store is empty — all segments plus the
    /// magazine depot's stashed gauge — the any-key drained snapshot the
    /// blocking and polling drivers use to finalize `Closed`. Elements
    /// cached in handles' magazines are deliberately not counted (see
    /// [`magazine`](crate::magazine)).
    pub(crate) fn drained(&self) -> bool {
        self.segments.iter().all(|s| s.len() == 0)
            && self.depot.as_ref().is_none_or(|d| d.stashed() == 0)
    }

    /// Whether no segment holds an element of `key` — the key-scoped
    /// drained snapshot (other keys' residue does not keep a keyed remove
    /// alive). Depot magazines are mixed-key, so a non-empty depot keeps
    /// every key alive *conservatively*: each retry's raid banks one
    /// magazine into segments (where `key_len` can see its contents), so
    /// the snapshot converges in at most ring-capacity retries.
    pub(crate) fn drained_key(&self, key: &K) -> bool {
        self.segments.iter().all(|s| s.key_len(key) == 0)
            && self.depot.as_ref().is_none_or(|d| d.stashed() == 0)
    }

    /// Maps a search abort to its caller-facing error, with the drained
    /// check scoped by `drained`: on a closed pool whose relevant elements
    /// are gone the abort is final ([`RemoveError::Closed`]); otherwise
    /// the §3.2 [`RemoveError::Aborted`] semantics apply.
    fn abort_error(&self, drained: impl Fn() -> bool) -> RemoveError {
        if self.registry.notifier().is_closed() && drained() {
            RemoveError::Closed
        } else {
            RemoveError::Aborted
        }
    }

    /// One any-key remove pass — local fast path, then the largest-bucket
    /// ring steal — shared by [`KeyedHandle::try_remove_any`] (attached,
    /// `detached = false`) and [`KeyedRemoveFuture`](crate::KeyedRemoveFuture)
    /// (`detached = true`: the search observes the §3.2 gate without
    /// registering on it — see
    /// [`SearchSession::begin_detached`]).
    ///
    /// `cursor` is the linear `LastFound` state: the pass resumes from it
    /// and persists its progress back through it, so retries (and
    /// successive polls of one future) keep walking the ring instead of
    /// re-probing the same prefix.
    pub(crate) fn remove_any_pass(
        &self,
        me: ProcId,
        home: SegIdx,
        cursor: &mut SegIdx,
        stats: &mut ProcStats,
        detached: bool,
        mut wait: Option<&mut WaitCtl<'_>>,
    ) -> Result<(K, V), RemoveError> {
        let timer = OpTimer::start(&self.timing, me, 0);
        self.timing.charge(me, Resource::Segment(home));
        if let Some(found) = self.segments[home.index()].remove_any() {
            timer.finish_local_remove(stats);
            return Ok(found);
        }
        // Depot raid: before paying for a ring search, try to claim a full
        // magazine other handles flushed. One pair satisfies this remove;
        // the remainder is banked into the home segment (and consumers
        // woken) *before* the gauge drops, so a concurrent drained snapshot
        // never under-counts.
        if let Some(depot) = &self.depot {
            if let Some((pair, rest)) = depot.raid() {
                if let Some(rest) = rest {
                    let n = rest.len();
                    self.timing.charge(me, Resource::Segment(home));
                    self.segments[home.index()].add_bulk_mixed(rest);
                    self.registry.notifier().notify_all();
                    depot.unstash(n);
                }
                stats.depot_exchanges += 1;
                timer.finish_depot_remove(stats);
                return Ok(pair);
            }
        }
        if let Some(ctl) = wait.as_deref_mut() {
            ctl.begin_pass();
        }

        let mut session = begin_keyed_search(self, me, home, detached);
        let segments = &self.segments;
        // The engine's probe moves an anonymous batch; the victim's bucket
        // key travels beside it in this slot (set by the drain closure, read
        // by the refill closure and the success path) so elements need not
        // carry per-element key clones.
        let stolen_key: std::cell::RefCell<Option<K>> = std::cell::RefCell::new(None);
        let result = ring_search(
            &mut session,
            segments.len(),
            *cursor,
            |session, victim| {
                session.probe(
                    victim,
                    || {
                        // Segment-level empty skip: the atomic occupancy
                        // mirror rules out any non-empty bucket without
                        // taking the victim's lock.
                        if segments[victim.index()].len() == 0 {
                            return Vec::new();
                        }
                        match segments[victim.index()]
                            .steal_half_largest(&self.shells, &|k| self.heat(k))
                        {
                            Some((key, values)) => {
                                *stolen_key.borrow_mut() = Some(key);
                                values
                            }
                            None => Vec::new(),
                        }
                    },
                    |rest| {
                        let key = stolen_key.borrow();
                        let key = key.as_ref().expect("refill follows a successful drain");
                        segments[home.index()].add_bulk(key, rest, &self.shells);
                    },
                )
            },
            |c| *cursor = c,
            RingCtx {
                notifier: self.registry.notifier(),
                has_work: &|| {
                    segments.iter().any(|s| s.len() > 0)
                        || self.depot.as_ref().is_some_and(|d| d.stashed() > 0)
                },
                wait,
            },
        );
        stats.segments_examined += session.examined();
        drop(session);
        match result {
            Some((value, stolen, victim)) => {
                *cursor = victim;
                let key = stolen_key.into_inner().expect("steal recorded its key");
                let search_t0 = timer.t0();
                timer.finish_steal_remove(stats, stolen, search_t0);
                Ok((key, value))
            }
            None => {
                timer.finish_aborted(stats);
                Err(self.abort_error(|| self.drained()))
            }
        }
    }

    /// One key-scoped remove pass — the per-key analogue of
    /// [`remove_any_pass`](Self::remove_any_pass), stealing half of a
    /// remote `key` bucket; the wake filter and drained snapshot are
    /// scoped to `key`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn remove_key_pass(
        &self,
        me: ProcId,
        home: SegIdx,
        key: &K,
        cursor: &mut SegIdx,
        stats: &mut ProcStats,
        detached: bool,
        mut wait: Option<&mut WaitCtl<'_>>,
    ) -> Result<V, RemoveError> {
        let timer = OpTimer::start(&self.timing, me, 0);
        self.timing.charge(me, Resource::Segment(home));
        if let Some(value) = self.segments[home.index()].remove_key(key) {
            timer.finish_local_remove(stats);
            return Ok(value);
        }
        // Depot raid, keyed flavour: claim one full magazine and scan it for
        // `key`. Match or not, the rest is banked into the home segment (so
        // `key_len` can see any copies it held and the conservative
        // [`drained_key`](Self::drained_key) snapshot makes progress) before
        // the gauge drops.
        if let Some(depot) = &self.depot {
            if let Some(mut mag) = depot.take_full() {
                let n = mag.len();
                let hit = mag.iter().rposition(|(k, _)| k == key).map(|at| mag.swap_remove(at).1);
                if !mag.is_empty() {
                    self.timing.charge(me, Resource::Segment(home));
                    self.segments[home.index()].add_bulk_mixed(mag);
                    self.registry.notifier().notify_all();
                } else {
                    depot.put_shell(mag);
                }
                depot.unstash(n);
                stats.depot_exchanges += 1;
                if let Some(value) = hit {
                    timer.finish_depot_remove(stats);
                    return Ok(value);
                }
            }
        }
        if let Some(ctl) = wait.as_deref_mut() {
            ctl.begin_pass();
        }

        let mut session = begin_keyed_search(self, me, home, detached);
        let segments = &self.segments;
        let result = ring_search(
            &mut session,
            segments.len(),
            *cursor,
            |session, victim| {
                session.probe(
                    victim,
                    || {
                        // Same lock-free empty skip as the anonymous steal:
                        // a segment with no elements at all certainly has no
                        // `key` bucket worth locking for.
                        if segments[victim.index()].len() == 0 {
                            return Vec::new();
                        }
                        segments[victim.index()].steal_half_key(key, &self.shells)
                    },
                    |rest| segments[home.index()].add_bulk(key, rest, &self.shells),
                )
            },
            |c| *cursor = c,
            RingCtx {
                notifier: self.registry.notifier(),
                // A keyed wait only resumes probing for elements it can
                // actually take: other keys' traffic re-parks it. Depot
                // magazines are mixed-key, so a non-empty depot counts as
                // possible work (the retry's raid resolves the question).
                has_work: &|| {
                    segments.iter().any(|s| s.key_len(key) > 0)
                        || self.depot.as_ref().is_some_and(|d| d.stashed() > 0)
                },
                wait,
            },
        );
        stats.segments_examined += session.examined();
        drop(session);
        match result {
            Some((value, stolen, victim)) => {
                *cursor = victim;
                let search_t0 = timer.t0();
                timer.finish_steal_remove(stats, stolen, search_t0);
                Ok(value)
            }
            None => {
                timer.finish_aborted(stats);
                Err(self.abort_error(|| self.drained_key(key)))
            }
        }
    }
}

/// Configures and builds a [`KeyedPool`] — the keyed counterpart of
/// [`PoolBuilder`](crate::PoolBuilder), replacing the former ad-hoc
/// `new`/`with_timing` constructor pair.
///
/// Like `PoolBuilder`, the segment count is stated once ([`new`](Self::new))
/// and the cost model is a statically-dispatched type parameter rebound by
/// [`timing`](Self::timing). The keyed pool's search is the built-in
/// per-key linear walk (see the [module docs](self)), so there is no policy
/// choice to configure.
///
/// ```
/// use cpool::{KeyedPool, KeyedPoolBuilder, NullTiming};
///
/// let pool: KeyedPool<&'static str, u32> =
///     KeyedPoolBuilder::new(4).timing(NullTiming::new()).build();
/// assert_eq!(pool.segments(), 4);
/// ```
#[must_use = "a KeyedPoolBuilder does nothing until build() is called"]
pub struct KeyedPoolBuilder<T: Timing = NullTiming> {
    segments: usize,
    resident_buckets_max: usize,
    hotkey: Option<HotKeyConfig>,
    handle_cache: usize,
    timing: T,
}

impl<T: Timing> std::fmt::Debug for KeyedPoolBuilder<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedPoolBuilder")
            .field("segments", &self.segments)
            .field("resident_buckets_max", &self.resident_buckets_max)
            .field("hotkey", &self.hotkey)
            .field("handle_cache", &self.handle_cache)
            .finish_non_exhaustive()
    }
}

impl KeyedPoolBuilder {
    /// Starts building a keyed pool with `segments` segments, the free
    /// [`NullTiming`] cost model, and hot-key detection at the
    /// [default knobs](HotKeyConfig::default).
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn new(segments: usize) -> Self {
        assert!(segments > 0, "pool must have at least one segment");
        KeyedPoolBuilder {
            segments,
            resident_buckets_max: RESIDENT_BUCKETS_MAX,
            hotkey: Some(HotKeyConfig::default()),
            handle_cache: 0,
            timing: NullTiming::new(),
        }
    }
}

impl<T: Timing> KeyedPoolBuilder<T> {
    /// Installs a cost model (defaults to [`NullTiming`]), rebinding the
    /// builder's timing type parameter; pass a
    /// [`DynTiming`](crate::timing::DynTiming) for runtime selection.
    pub fn timing<T2: Timing>(self, timing: T2) -> KeyedPoolBuilder<T2> {
        KeyedPoolBuilder {
            segments: self.segments,
            resident_buckets_max: self.resident_buckets_max,
            hotkey: self.hotkey,
            handle_cache: self.handle_cache,
            timing,
        }
    }

    /// Caps how many *empty* buckets each segment keeps resident for
    /// capacity reuse before evicting the excess (default 64). Raise it
    /// for wide stable key sets (keeps the steal/refill cycle
    /// allocation-free for more keys); lower it for ephemeral-key
    /// workloads where retained capacity is waste. Evictions are counted
    /// in [`PoolCounters::bucket_evictions`](crate::stats::PoolCounters::bucket_evictions).
    pub fn resident_buckets_max(mut self, max: usize) -> Self {
        self.resident_buckets_max = max;
        self
    }

    /// Installs hot-key detection knobs (see [`HotKeyConfig`]); detection
    /// is on by default with [`HotKeyConfig::default`].
    ///
    /// # Panics
    ///
    /// Panics if the knobs are incoherent (e.g. `demote_pct` not strictly
    /// below `promote_pct`).
    pub fn hot_keys(mut self, cfg: HotKeyConfig) -> Self {
        cfg.validate();
        self.hotkey = Some(cfg);
        self
    }

    /// Disables hot-key detection: no sampling, no splits, and the steal
    /// sweep falls back to the plain largest-bucket rule. Manual
    /// [`KeyedPool::promote_key`] still works (using default sub-shards).
    pub fn hot_keys_disabled(mut self) -> Self {
        self.hotkey = None;
        self
    }

    /// Gives every [`KeyedHandle`] a two-magazine element cache of `depth`
    /// `(key, value)` pairs per magazine (default 0 = off), exchanged
    /// through a shared per-pool depot — the keyed counterpart of
    /// [`PoolBuilder::handle_cache`](crate::PoolBuilder::handle_cache).
    ///
    /// Keyed magazines are *mixed-key*: a cached pair is invisible to
    /// `key_len` and to `try_remove_key` on other handles until it is
    /// flushed, and cached adds skip hot-key sampling. See the README's
    /// "Handle-local caching" section for when not to enable this.
    pub fn handle_cache(mut self, depth: usize) -> Self {
        self.handle_cache = depth;
        self
    }

    /// Builds the keyed pool.
    #[must_use]
    pub fn build<K: Key, V: Send + 'static>(self) -> KeyedPool<K, V, T> {
        let hot_cfg = self.hotkey.unwrap_or_default();
        KeyedPool {
            shared: Arc::new(KeyedShared {
                segments: (0..self.segments)
                    .map(|_| Slot::new(KeyedSegment::new(self.resident_buckets_max)))
                    .collect(),
                shells: FreeList::new(CACHED_SHELLS_PER_SEGMENT * self.segments + 2),
                detector: self.hotkey.map(HotKeyDetector::new),
                hot_cfg,
                depot: (self.handle_cache > 0)
                    .then(|| Depot::new(self.handle_cache, 2 * self.segments + 2)),
                handle_cache: self.handle_cache,
                registry: Registry::new(),
                timing: self.timing,
            }),
        }
    }
}

/// A concurrent pool of distinguishable elements.
///
/// The third type parameter is the statically-dispatched cost model
/// (default: the free [`NullTiming`]); use
/// [`DynTiming`](crate::timing::DynTiming) for runtime selection. See the
/// [module docs](self) for the design. Cloning is cheap and shares the
/// pool.
///
/// As in [`Pool`](crate::Pool), each segment sits in its own slot, at
/// least 128 bytes from its neighbours, and [`KeyedHandle`] and future
/// operations borrow the shared state instead of cloning its `Arc`: a
/// local operation writes no cache line another process writes, neither
/// a neighbouring segment's nor the shared reference count.
///
/// ```
/// use cpool::KeyedPool;
///
/// let pool: KeyedPool<&'static str, u32> = KeyedPool::new(4);
/// let mut h = pool.register();
/// h.add("red", 1);
/// h.add("blue", 2);
/// assert_eq!(h.try_remove_key(&"blue"), Ok(2));
/// assert_eq!(h.try_remove_any(), Ok(("red", 1)));
/// ```
pub struct KeyedPool<K, V, T: Timing = NullTiming> {
    shared: Arc<KeyedShared<K, V, T>>,
}

impl<K, V, T: Timing> Clone for KeyedPool<K, V, T> {
    fn clone(&self) -> Self {
        KeyedPool { shared: Arc::clone(&self.shared) }
    }
}

impl<K, V, T: Timing> std::fmt::Debug for KeyedPool<K, V, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedPool")
            .field("segments", &self.shared.segments.len())
            .field("registered", &self.shared.registry.gate().registered())
            .finish_non_exhaustive()
    }
}

impl<K: Key, V: Send + 'static> KeyedPool<K, V> {
    /// Creates a keyed pool with `segments` segments and no cost model
    /// (shorthand for [`KeyedPoolBuilder::new(segments).build()`]; use the
    /// builder to install a cost model).
    ///
    /// [`KeyedPoolBuilder::new(segments).build()`]: KeyedPoolBuilder
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn new(segments: usize) -> Self {
        KeyedPoolBuilder::new(segments).build()
    }
}

impl<K: Key, V: Send + 'static, T: Timing> KeyedPool<K, V, T> {
    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.shared.segments.len()
    }

    /// Total elements across all segments (snapshot).
    pub fn total_len(&self) -> usize {
        self.shared.segments.iter().map(|s| s.len()).sum()
    }

    /// Elements of one key across all segments (snapshot).
    pub fn key_len(&self, key: &K) -> usize {
        self.shared.segments.iter().map(|s| s.key_len(key)).sum()
    }

    /// Current size of one segment (snapshot).
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn segment_len(&self, seg: SegIdx) -> usize {
        self.shared.segments[seg.index()].len()
    }

    /// Pairs currently held in the magazine depot (snapshot; 0 when
    /// [`KeyedPoolBuilder::handle_cache`] is off). These are pool-visible —
    /// any remover can raid them — but not yet in any segment, so they are
    /// excluded from [`total_len`](Self::total_len) and
    /// [`key_len`](Self::key_len).
    pub fn depot_len(&self) -> usize {
        self.shared.depot.as_ref().map_or(0, Depot::stashed)
    }

    /// Closes the pool — see [`PoolOps::close`] (sticky, idempotent;
    /// blocked and future removers drain the residue and then observe
    /// [`RemoveError::Closed`]).
    ///
    /// ```
    /// use cpool::{KeyedPool, RemoveError, WaitStrategy};
    ///
    /// let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
    /// let mut h = pool.register();
    /// h.add(1, 10);
    /// pool.close();
    /// assert_eq!(h.remove_key(&1, WaitStrategy::Block), Ok(10), "residue drains first");
    /// assert_eq!(h.remove_key(&1, WaitStrategy::Block), Err(RemoveError::Closed));
    /// ```
    pub fn close(&self) {
        self.shared.registry.notifier().close();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.shared.registry.notifier().is_closed()
    }

    /// Registers a process; the `i`-th registration homes at segment
    /// `i mod segments`.
    pub fn register(&self) -> KeyedHandle<K, V, T> {
        let (me, seg) = self.shared.registry.register(self.segments());
        let magazine = (self.shared.handle_cache > 0)
            .then(|| std::cell::RefCell::new(MagazineCache::new(self.shared.handle_cache)));
        KeyedHandle {
            shared: Arc::clone(&self.shared),
            local: KeyedLocal {
                me,
                seg,
                last_found_any: seg,
                last_found_key: BTreeMap::new(),
                hot_cache: Vec::new(),
                hot_range: None,
                sample_tick: 0,
                sweep_tick: 0,
                magazine,
                stats: ProcStats::default(),
                poll_slot: None,
            },
        }
    }

    /// Splits `key`'s bucket into sub-shards on every segment, regardless
    /// of observed heat — a manual override for workloads that know their
    /// hot set up front (and for deterministic tests/benches). Uses the
    /// configured [`HotKeyConfig::sub_shards`]; idempotent.
    pub fn promote_key(&self, key: &K) {
        for segment in self.shared.segments.iter() {
            segment.promote(key, self.shared.hot_cfg.sub_shards);
        }
    }

    /// Merges `key`'s sub-shards back into plain buckets on every segment
    /// (no-op where the key is not split). Handles still caching the split
    /// bucket fall back to the routed path on their next `key` operation.
    pub fn demote_key(&self, key: &K) {
        for segment in self.shared.segments.iter() {
            segment.demote(key);
        }
    }

    /// Statistics of dropped handles, by process id, plus the pool-wide
    /// keyed-frontend counters (bucket evictions, hot-key promotions and
    /// demotions, and the current split-bucket gauge).
    pub fn stats(&self) -> PoolStats {
        let mut stats = self.shared.registry.stats();
        for segment in self.shared.segments.iter() {
            let (evictions, promotions, demotions, hot) = segment.counters();
            stats.pool.bucket_evictions += evictions;
            stats.pool.hotkey_promotions += promotions;
            stats.pool.hotkey_demotions += demotions;
            stats.pool.hot_buckets += hot;
        }
        stats
    }
}

/// Per-process handle to a [`KeyedPool`].
///
/// Like [`Handle`](crate::Handle): `Send` but not `Sync`; dropping it
/// deregisters from the livelock gate and deposits statistics.
pub struct KeyedHandle<K: Key, V: Send + 'static, T: Timing = NullTiming> {
    shared: Arc<KeyedShared<K, V, T>>,
    local: KeyedLocal<K, V>,
}

/// The part of a [`KeyedHandle`] that only its own process writes.
///
/// It is a field apart from the shared state so that one operation can
/// borrow both at once: an add's timer and a blocking remove's wait
/// controller and drained snapshots hold `&KeyedShared` while the
/// operation mutates `KeyedLocal`. Cloning the pool's `Arc` for those
/// borrows instead would make every operation write the reference count, a
/// cache line every process shares.
struct KeyedLocal<K, V> {
    me: ProcId,
    seg: SegIdx,
    /// Where `try_remove_any` last found elements (the linear `LastFound`).
    last_found_any: SegIdx,
    /// Where each key was last found.
    last_found_key: BTreeMap<K, SegIdx>,
    /// Handle-local cache of this home segment's split buckets: hot-key
    /// operations go straight to a sub-shard lock, bypassing the segment
    /// lock entirely. A flat vector, linearly scanned — it holds a
    /// handful of genuinely hot keys at most, and the scan is the per-op
    /// cost of every keyed operation's fast-path probe. Entries go stale
    /// harmlessly — a sealed sub-shard bounces the operation back to the
    /// routed path, which uncaches.
    hot_cache: Vec<(K, Arc<HotBucket<V>>)>,
    /// `(min, max)` of the cached keys — the one-comparison pre-filter
    /// that spares cold-key operations the cache scan (`None` when the
    /// cache is empty).
    hot_range: Option<(K, K)>,
    /// Countdown to the next sampled operation (see
    /// [`HotKeyConfig::sample_every`]); handle-local, so the unsampled
    /// path touches no shared state.
    sample_tick: u32,
    /// Countdown (in samples) to the next hysteresis sweep. The sweep
    /// costs a segment-lock plus a detector probe per split bucket, so it
    /// runs on one sample in [`SWEEP_EVERY_SAMPLES`] — decay only needs
    /// to be eventual, not immediate.
    sweep_tick: u32,
    /// The two-magazine `(key, value)` cache, present when the pool was
    /// built with [`KeyedPoolBuilder::handle_cache`]. `RefCell` because
    /// [`close`](KeyedHandle::close) flushes through `&self`.
    magazine: Option<std::cell::RefCell<MagazineCache<(K, V)>>>,
    stats: ProcStats,
    /// Armed waker-registration ticket from [`poll_remove`](KeyedHandle::poll_remove),
    /// carried between polls so the next poll (or drop) can withdraw it.
    poll_slot: Option<u64>,
}

impl<K: Key, V: Send + 'static> KeyedLocal<K, V> {
    /// Feeds one in [`HotKeyConfig::sample_every`] operations on `key`
    /// into the pool's hot-key detector; on a promote-threshold crossing
    /// splits the key's bucket on the home segment (each handle promotes
    /// lazily for its own segment — other segments split when their own
    /// traffic samples the key), and sweeps cooled-off split buckets back
    /// to plain. No-op (one branch, one decrement) off the sample tick or
    /// with detection disabled.
    fn maybe_sample<T: Timing>(&mut self, shared: &KeyedShared<K, V, T>, key: &K) {
        let Some(detector) = &shared.detector else { return };
        self.sample_tick += 1;
        if self.sample_tick < shared.hot_cfg.sample_every {
            return;
        }
        self.sample_tick = 0;
        let count = detector.observe(key.clone());
        let segment = &shared.segments[self.seg.index()];
        if count >= detector.promote_count() {
            // Splitting is idempotent but not free (segment lock + cache
            // refresh); a steadily hot key re-crosses the threshold on
            // every sample, so skip once this handle already holds the
            // split bucket.
            if self.cached_hot(key).is_none() {
                let hot = segment.promote(key, detector.cfg().sub_shards);
                self.cache_hot(key.clone(), hot);
            }
        } else if count >= detector.demote_count() && self.cached_hot(key).is_none() {
            // Another handle may have split this bucket already (each
            // handle's window samples are shared); adopt the split so this
            // handle's traffic also takes the sub-shard fast path.
            if let Some(hot) = segment.hot_bucket(key) {
                self.cache_hot(key.clone(), hot);
            }
        }
        // Hysteresis sweep: merge back every split bucket whose key fell
        // below the demote threshold (strictly under the promote one, so a
        // key hovering at one level cannot thrash). Throttled to one
        // sample in SWEEP_EVERY_SAMPLES — decay is eventual by design.
        self.sweep_tick += 1;
        if self.sweep_tick >= SWEEP_EVERY_SAMPLES {
            self.sweep_tick = 0;
            let demote_count = detector.demote_count();
            segment.demote_cold(&|k| detector.count(k) < demote_count);
        }
    }

    /// The cached split bucket for `key`, if this handle has adopted one.
    /// The key-range pre-filter rejects most cold keys in one comparison
    /// before the (short) linear scan — this probe is on every keyed
    /// operation's path, hot or not.
    fn cached_hot(&self, key: &K) -> Option<&Arc<HotBucket<V>>> {
        match &self.hot_range {
            Some((lo, hi)) if key >= lo && key <= hi => {
                self.hot_cache.iter().find(|(k, _)| k == key).map(|(_, hot)| hot)
            }
            _ => None,
        }
    }

    /// Recomputes the cache's key-range pre-filter after a mutation.
    fn refresh_hot_range(&mut self) {
        self.hot_range = match (
            self.hot_cache.iter().map(|(k, _)| k).min(),
            self.hot_cache.iter().map(|(k, _)| k).max(),
        ) {
            (Some(lo), Some(hi)) => Some((lo.clone(), hi.clone())),
            _ => None,
        };
    }

    /// Drops a stale cache entry (the bucket was demoted behind us).
    fn uncache_hot(&mut self, key: &K) {
        self.hot_cache.retain(|(k, _)| k != key);
        self.refresh_hot_range();
    }

    /// Caches a split bucket for the segment-lock-free fast path. The
    /// cache is a small bounded vector; at the bound it is cleared rather
    /// than evicted piecewise — by construction only genuinely hot keys
    /// land here, so refill is cheap and rare.
    fn cache_hot(&mut self, key: K, hot: Arc<HotBucket<V>>) {
        if let Some(slot) = self.hot_cache.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = hot;
            return;
        }
        if self.hot_cache.len() >= HOT_CACHE_MAX {
            self.hot_cache.clear();
        }
        self.hot_cache.push((key, hot));
        self.refresh_hot_range();
    }

    /// One any-key remove as this process: the magazines first, then one
    /// pass over the pool. `wait` is the blocking-wait controller of
    /// [`remove_bounded`](PoolOps::remove_bounded) and
    /// [`poll_remove`](KeyedHandle::poll_remove).
    fn try_remove_any<T: Timing>(
        &mut self,
        shared: &KeyedShared<K, V, T>,
        wait: Option<&mut WaitCtl<'_>>,
    ) -> Result<(K, V), RemoveError> {
        // Magazine fast path: pop handle-locally (refilling from the depot
        // on a dry cache) before touching any segment.
        if let (Some(depot), Some(mag)) = (&shared.depot, &self.magazine) {
            match mag.borrow_mut().pop(depot) {
                // Untimed, like the cached add: on a cost model with a
                // clock (Sim or Real timing) a read would cost more than
                // the thread-local pop it prices.
                PopOutcome::Hit(pair) => {
                    self.stats.record_cached_remove();
                    return Ok(pair);
                }
                PopOutcome::Refilled(pair) => {
                    self.stats.depot_exchanges += 1;
                    self.stats.record_cached_remove();
                    return Ok(pair);
                }
                PopOutcome::Miss => {}
            }
        }
        // The pass engine lives on the shared state (the futures in
        // [`crate::future`] run the same pass); the handle supplies its
        // identity, cursor, and stats. No sampling: detection is
        // producer-side only (see `add`), so every remove flavor keeps the
        // plain-baseline cost.
        shared.remove_any_pass(
            self.me,
            self.seg,
            &mut self.last_found_any,
            &mut self.stats,
            false,
            wait,
        )
    }

    /// One remove of `key` as this process — the key-scoped twin of
    /// [`try_remove_any`](Self::try_remove_any).
    fn try_remove_key<T: Timing>(
        &mut self,
        shared: &KeyedShared<K, V, T>,
        key: &K,
        wait: Option<&mut WaitCtl<'_>>,
    ) -> Result<V, RemoveError> {
        // No sampling here: detection is producer-side (see `add`) — an
        // element must be added before it can be removed, so add traffic
        // is a faithful heat proxy and removes keep the baseline cost.
        // Magazine scan first: this handle's own cached pairs are invisible
        // to every pool-side path, so they must be served (or they would
        // deadlock a remove of a key that only this handle holds).
        if let Some(mag) = &self.magazine {
            if let Some((_, value)) = mag.borrow_mut().take_matching(|(k, _)| k == key) {
                self.stats.record_cached_remove();
                return Ok(value);
            }
        }
        // Hot-key fast path: a cached split bucket serves the remove under
        // one sub-shard lock, never touching the segment lock. An empty or
        // sealed result falls through to the full pass (which can steal
        // the key from remote segments).
        if let Some(hot) = self.cached_hot(key) {
            let timer = OpTimer::start(&shared.timing, self.me, 0);
            shared.timing.charge(self.me, Resource::Segment(self.seg));
            match shared.segments[self.seg.index()].hot_pop(hot, self.me.index()) {
                HotPop::Got(value) => {
                    timer.finish_local_remove(&mut self.stats);
                    return Ok(value);
                }
                HotPop::Sealed => {
                    self.uncache_hot(key);
                }
                HotPop::Empty => {}
            }
        }
        // The per-key cursor map wraps the pass's flat `&mut SegIdx`
        // cursor: read this key's resume point out, persist the pass's
        // progress back in afterwards (also on aborts — a retrying caller
        // must resume at the next segment).
        let mut cursor = self.last_found_key.get(key).copied().unwrap_or(self.seg);
        let out = shared.remove_key_pass(
            self.me,
            self.seg,
            key,
            &mut cursor,
            &mut self.stats,
            false,
            wait,
        );
        self.last_found_key.insert(key.clone(), cursor);
        out
    }
}

impl<K: Key, V: Send + 'static, T: Timing> std::fmt::Debug for KeyedHandle<K, V, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedHandle")
            .field("proc", &self.local.me)
            .field("segment", &self.local.seg)
            .finish_non_exhaustive()
    }
}

impl<K: Key, V: Send + 'static, T: Timing> KeyedHandle<K, V, T> {
    /// This process's id.
    pub fn proc_id(&self) -> ProcId {
        self.local.me
    }

    /// This process's home segment.
    pub fn home_segment(&self) -> SegIdx {
        self.local.seg
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &ProcStats {
        &self.local.stats
    }

    /// Closes the pool — see [`PoolOps::close`]. Any handle (or the
    /// [`KeyedPool`] itself) may close; the transition is pool-wide.
    ///
    /// Flushes this handle's magazines into its home segment first, so
    /// blocked and future removers can drain the cached residue before
    /// observing [`RemoveError::Closed`]. Other handles' magazines flush
    /// at their own next flush point (see [`magazine`](crate::magazine)).
    pub fn close(&self) {
        self.flush_magazine();
        self.shared.registry.notifier().close();
    }

    /// Whether the pool has been [closed](Self::close).
    pub fn is_closed(&self) -> bool {
        self.shared.registry.notifier().is_closed()
    }

    /// Pairs currently cached in this handle's magazines (0 when
    /// [`KeyedPoolBuilder::handle_cache`] is off). These are invisible to
    /// [`KeyedPool::total_len`]/[`KeyedPool::key_len`] and to every other
    /// handle until flushed.
    pub fn cached_len(&self) -> usize {
        self.local.magazine.as_ref().map_or(0, |m| m.borrow().len())
    }

    /// Banks both magazines into the home segment and wakes consumers —
    /// the close/drop/drain flush point.
    fn flush_magazine(&self) {
        let Some(mag) = &self.local.magazine else { return };
        let mut mag = mag.borrow_mut();
        if mag.is_empty() {
            return;
        }
        let items = mag.take_all();
        drop(mag);
        let seg = self.local.seg;
        self.shared.timing.charge(self.local.me, Resource::Segment(seg));
        self.shared.segments[seg.index()].add_bulk_mixed(items);
        self.shared.registry.notifier().notify_all();
    }

    /// Adds an element under `key` to the local segment, then signals the
    /// pool's notifier (after the segment lock is released) so consumers
    /// parked in a [`Block`](WaitStrategy::Block) remove wake on the add
    /// edge. Hot keys bypass the segment lock: the cached split bucket
    /// takes the value under one sub-shard lock.
    pub fn add(&mut self, key: K, value: V) {
        let KeyedHandle { shared, local } = self;
        let shared: &KeyedShared<K, V, T> = shared;
        let (me, seg) = (local.me, local.seg);
        let mut key = key;
        let mut value = value;
        // Magazine fast path, untimed and before the timer starts: cache
        // the pair handle-locally (zero shared RMWs) unless consumers are
        // parked — then flush instead, so no element is stranded invisible
        // while a remover sleeps. Cached adds skip hot-key sampling (a
        // magazined pair never lands in a bucket, so it carries no heat
        // signal) and skip the segment charge (the point of the cache is to
        // not touch the segment).
        if let (Some(depot), Some(mag)) = (&shared.depot, &local.magazine) {
            if shared.registry.notifier().waiters() > 0 {
                let mut mag = mag.borrow_mut();
                if !mag.is_empty() {
                    let items = mag.take_all();
                    drop(mag);
                    shared.timing.charge(me, Resource::Segment(seg));
                    shared.segments[seg.index()].add_bulk_mixed(items);
                    local.stats.flush_on_wait += 1;
                }
                // Fall through: this add goes in pool-visibly, and the
                // ordinary path's notify wakes the waiters.
            } else {
                match mag.borrow_mut().cache((key, value), depot) {
                    CacheOutcome::Cached => {
                        local.stats.record_cached_add();
                        return;
                    }
                    CacheOutcome::Exchanged => {
                        local.stats.depot_exchanges += 1;
                        // A full magazine just became raidable; wake a
                        // parked remover in case one raced past the
                        // waiter check above.
                        shared.registry.notifier().notify_all();
                        local.stats.record_cached_add();
                        return;
                    }
                    CacheOutcome::Full(back) => {
                        (key, value) = back;
                    }
                }
            }
        }
        let timer = OpTimer::start(&shared.timing, me, 0);
        shared.timing.charge(me, Resource::Segment(seg));
        local.maybe_sample(shared, &key);
        let segment = &shared.segments[seg.index()];
        if let Some(hot) = local.cached_hot(&key) {
            // The process slot as sub-shard affinity: concurrent handles
            // spread across distinct shards, and this handle's pops probe
            // the same shard first.
            match segment.hot_push(hot, value, me.index()) {
                Ok(()) => {
                    shared.registry.notifier().notify_all();
                    timer.finish_add(&mut local.stats, false);
                    return;
                }
                Err(v) => {
                    // Sealed: the bucket was demoted; drop the stale cache
                    // entry and take the routed path.
                    local.uncache_hot(&key);
                    value = v;
                }
            }
        }
        segment.add(key, value);
        shared.registry.notifier().notify_all();
        timer.finish_add(&mut local.stats, false);
    }

    /// Removes an arbitrary element, stealing half of a remote bucket when
    /// the local segment is empty.
    ///
    /// # Errors
    ///
    /// Returns [`RemoveError::Aborted`] when every registered process was
    /// searching simultaneously (the pool is starving), or
    /// [`RemoveError::Closed`] when additionally the pool is closed and
    /// drained.
    pub fn try_remove_any(&mut self) -> Result<(K, V), RemoveError> {
        self.local.try_remove_any(&self.shared, None)
    }

    /// Removes an element with the given key, stealing half of a remote
    /// `key` bucket when the local one is empty.
    ///
    /// # Errors
    ///
    /// Returns [`RemoveError::Aborted`] when every registered process was
    /// searching simultaneously (no element of `key` is reachable and
    /// nobody can be adding one), or [`RemoveError::Closed`] when the pool
    /// is closed and holds no element of `key` anywhere.
    pub fn try_remove_key(&mut self, key: &K) -> Result<V, RemoveError> {
        self.local.try_remove_key(&self.shared, key, None)
    }

    /// Removes an element with the given key, waiting under `wait` — the
    /// keyed analogue of [`PoolOps::remove`], with the drained check (and,
    /// for [`Block`](WaitStrategy::Block), the wakeup filter) scoped to
    /// `key`: other keys' elements cannot satisfy this remove, so they do
    /// not keep it waiting or wake it.
    ///
    /// # Errors
    ///
    /// Returns [`RemoveError::Closed`] once the pool is closed and the
    /// `key` residue is drained; [`RemoveError::Aborted`] once an aborted
    /// search observes no element of `key` anywhere, or when the strategy's
    /// [lap budget](WaitStrategy::default_attempts) is exhausted.
    pub fn remove_key(&mut self, key: &K, wait: WaitStrategy) -> Result<V, RemoveError> {
        self.remove_key_bounded(key, wait, wait.default_attempts(), None)
    }

    /// Removes an element with the given key, parking
    /// ([`Block`](WaitStrategy::Block)) for at most `timeout`.
    ///
    /// # Errors
    ///
    /// [`RemoveError::Timeout`] when the deadline passes first; otherwise
    /// as [`remove_key`](Self::remove_key).
    pub fn remove_key_timeout(&mut self, key: &K, timeout: Duration) -> Result<V, RemoveError> {
        self.remove_key_bounded(
            key,
            WaitStrategy::Block,
            usize::MAX,
            Some(Instant::now() + timeout),
        )
    }

    /// The keyed blocking-remove primitive — see
    /// [`PoolOps::remove_bounded`] for the contract.
    ///
    /// # Panics
    ///
    /// Panics if `attempts` is zero.
    pub fn remove_key_bounded(
        &mut self,
        key: &K,
        wait: WaitStrategy,
        attempts: usize,
        deadline: Option<Instant>,
    ) -> Result<V, RemoveError> {
        assert!(attempts > 0, "a blocking remove needs at least one attempt");
        let KeyedHandle { shared, local } = self;
        let shared: &KeyedShared<K, V, T> = shared;
        let mut ctl = WaitCtl::new(shared.registry.notifier(), wait, attempts, deadline);
        // The shared driver with the drained snapshot scoped to `key`:
        // other keys' elements cannot satisfy this remove, so they do not
        // keep it alive.
        crate::core::drive_blocking_remove(
            &mut ctl,
            |ctl| local.try_remove_key(shared, key, Some(ctl)),
            || shared.drained_key(key),
            || shared.registry.notifier().is_closed(),
        )
    }

    /// Returns a future resolving to an arbitrary `(key, value)` pair —
    /// the async counterpart of [`remove`](PoolOps::remove) with
    /// [`Block`](WaitStrategy::Block). See [`future`](crate::future) for
    /// the protocol; the future searches from this handle's home segment
    /// but holds no borrow of the handle, so one handle can have many
    /// futures pending at once.
    pub fn remove_async(&self) -> crate::future::KeyedRemoveFuture<K, V, T> {
        crate::future::KeyedRemoveFuture::new(
            Arc::clone(&self.shared),
            self.local.me,
            self.local.seg,
            None,
        )
    }

    /// [`remove_async`](Self::remove_async) with a deadline: past
    /// `timeout` the future resolves with [`RemoveError::Timeout`].
    pub fn remove_timeout_async(
        &self,
        timeout: Duration,
    ) -> crate::future::KeyedRemoveFuture<K, V, T> {
        crate::future::KeyedRemoveFuture::new(
            Arc::clone(&self.shared),
            self.local.me,
            self.local.seg,
            Some(Instant::now() + timeout),
        )
    }

    /// Returns a future resolving to a value under `key` — the async
    /// counterpart of [`remove_key`](Self::remove_key) with
    /// [`Block`](WaitStrategy::Block): while no element of `key` is
    /// reachable the future is pending, and other keys' traffic wakes it
    /// only to re-check and re-register.
    pub fn remove_key_async(&self, key: K) -> crate::future::RemoveKeyFuture<K, V, T> {
        crate::future::RemoveKeyFuture::new(
            Arc::clone(&self.shared),
            self.local.me,
            self.local.seg,
            key,
            None,
        )
    }

    /// [`remove_key_async`](Self::remove_key_async) with a deadline: past
    /// `timeout` the future resolves with [`RemoveError::Timeout`].
    pub fn remove_key_timeout_async(
        &self,
        key: K,
        timeout: Duration,
    ) -> crate::future::RemoveKeyFuture<K, V, T> {
        crate::future::RemoveKeyFuture::new(
            Arc::clone(&self.shared),
            self.local.me,
            self.local.seg,
            key,
            Some(Instant::now() + timeout),
        )
    }

    /// Polls one any-key remove attempt against `cx`'s waker — the
    /// low-level poll primitive behind [`remove_async`](Self::remove_async),
    /// exposed for callers writing their own futures. Unlike the futures
    /// this runs *attached* (the handle is a registered process, so its
    /// search counts on the §3.2 gate) and accumulates into the handle's
    /// statistics. At most one registration is armed per handle; each call
    /// re-arms it with the current waker.
    pub fn poll_remove(
        &mut self,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Result<(K, V), RemoveError>> {
        let KeyedHandle { shared, local } = self;
        let shared: &KeyedShared<K, V, T> = shared;
        let mut slot = local.poll_slot.take();
        if let Some(ticket) = slot.take() {
            // Re-polls may carry a different waker: retire the stale
            // registration so the armed waker is always the current one.
            shared.notifier().cancel_waker(ticket);
        }
        let mut ctl = WaitCtl::new_poll(shared.notifier(), None, cx.waker(), &mut slot);
        let out = crate::core::drive_poll_remove(
            &mut ctl,
            |ctl| local.try_remove_any(shared, Some(ctl)),
            || shared.drained(),
            || shared.notifier().is_closed(),
        );
        local.poll_slot = slot;
        out
    }
}

/// The unified operation vocabulary over `(key, value)` pairs — see
/// [`ops`](crate::ops).
///
/// [`try_remove`](PoolOps::try_remove) maps to
/// [`try_remove_any`](KeyedHandle::try_remove_any); the batch paths take
/// the segment lock once per batch, exactly like the plain pool's. Note
/// that the inherent two-argument [`add`](KeyedHandle::add) shadows the
/// trait's pair-taking `add` for direct calls — the trait surface is for
/// generic consumers.
impl<K: Key, V: Send + 'static, T: Timing> PoolOps for KeyedHandle<K, V, T> {
    type Item = (K, V);
    type Batch = Vec<(K, V)>;
    type RemoveFuture = crate::future::KeyedRemoveFuture<K, V, T>;

    fn add(&mut self, (key, value): (K, V)) {
        KeyedHandle::add(self, key, value);
    }

    fn remove_async(&self) -> crate::future::KeyedRemoveFuture<K, V, T> {
        KeyedHandle::remove_async(self)
    }

    fn remove_timeout_async(&self, timeout: Duration) -> crate::future::KeyedRemoveFuture<K, V, T> {
        KeyedHandle::remove_timeout_async(self, timeout)
    }

    fn try_remove(&mut self) -> Result<(K, V), RemoveError> {
        self.try_remove_any()
    }

    fn is_drained(&self) -> bool {
        // This handle's own cache counts (its pairs are reachable through
        // its own removes); other handles' caches are invisible by design.
        self.shared.drained() && self.cached_len() == 0
    }

    fn close(&self) {
        KeyedHandle::close(self);
    }

    fn is_closed(&self) -> bool {
        KeyedHandle::is_closed(self)
    }

    fn remove_bounded(
        &mut self,
        wait: WaitStrategy,
        attempts: usize,
        deadline: Option<Instant>,
    ) -> Result<(K, V), RemoveError> {
        assert!(attempts > 0, "a blocking remove needs at least one attempt");
        let KeyedHandle { shared, local } = self;
        let shared: &KeyedShared<K, V, T> = shared;
        let mut ctl = WaitCtl::new(shared.registry.notifier(), wait, attempts, deadline);
        crate::core::drive_blocking_remove(
            &mut ctl,
            |ctl| local.try_remove_any(shared, Some(ctl)),
            || shared.drained(),
            || shared.registry.notifier().is_closed(),
        )
    }

    fn add_batch<I: IntoIterator<Item = (K, V)>>(&mut self, items: I) {
        // Materialize before starting the timer: an empty batch is a true
        // no-op (no time attributed, nothing recorded).
        let batch: Vec<(K, V)> = items.into_iter().collect();
        let n = batch.len();
        if n == 0 {
            return;
        }
        let KeyedHandle { shared, local } = self;
        let timer = OpTimer::start(&shared.timing, local.me, 0);
        shared.timing.charge(local.me, Resource::Segment(local.seg));
        shared.segments[local.seg.index()].add_bulk_mixed(batch);
        // One wakeup per batch, after the segment lock is released.
        shared.registry.notifier().notify_all();
        timer.finish_add_batch(&mut local.stats, n, 0);
    }

    fn try_remove_batch(&mut self, n: usize) -> SmallDrain<Vec<(K, V)>> {
        if n == 0 {
            return SmallDrain::new(Vec::new());
        }
        let KeyedHandle { shared, local } = self;
        let (me, seg) = (local.me, local.seg);
        let timer = OpTimer::start(&shared.timing, me, 0);
        shared.timing.charge(me, Resource::Segment(seg));
        let mut got = shared.segments[seg.index()].remove_up_to(n);
        if !got.is_empty() {
            timer.finish_remove_batch(&mut local.stats, got.len());
            return SmallDrain::new(got);
        }
        // Local segment empty: one any-key steal search for the first
        // element (it refills the local segment with half of a remote
        // bucket), then top up locally. The search accounts itself.
        timer.finish_remove_batch(&mut local.stats, 0);
        if let Ok(first) = local.try_remove_any(shared, None) {
            got.push(first);
            if n > 1 {
                let top_up = OpTimer::start(&shared.timing, me, 0);
                shared.timing.charge(me, Resource::Segment(seg));
                let extra = shared.segments[seg.index()].remove_up_to(n - 1);
                top_up.finish_remove_batch(&mut local.stats, extra.len());
                got.extend(extra);
            }
        }
        SmallDrain::new(got)
    }

    fn drain(&mut self) -> SmallDrain<Vec<(K, V)>> {
        let KeyedHandle { shared, local } = self;
        let timer = OpTimer::start(&shared.timing, local.me, 0);
        let mut all = Vec::new();
        // Own magazines first, then the depot (banking the gauge down only
        // after the pairs are in `all`), then the segments. Other handles'
        // magazines stay theirs — see [`magazine`](crate::magazine).
        if let Some(mag) = &local.magazine {
            all.extend(mag.borrow_mut().take_all());
        }
        if let Some(depot) = &shared.depot {
            while let Some(mut mag) = depot.take_full() {
                let n = mag.len();
                all.append(&mut mag);
                depot.put_shell(mag);
                depot.unstash(n);
            }
        }
        for (i, seg) in shared.segments.iter().enumerate() {
            shared.timing.charge(local.me, Resource::Segment(SegIdx::new(i)));
            all.extend(seg.drain_all());
        }
        timer.finish_remove_batch(&mut local.stats, all.len());
        SmallDrain::new(all)
    }
}

/// Opens a [`SearchSession`] for a keyed ring walk: the walk skips the home
/// segment, so one full lap — the point after which the engine's §3.2 abort
/// rule may fire — is `segments - 1` probes. A `detached` session (a
/// future's poll) observes the gate without registering as a searcher on
/// it — see [`SearchSession::begin_detached`].
fn begin_keyed_search<'a, K: Key, V: Send + 'static, T: Timing>(
    shared: &'a KeyedShared<K, V, T>,
    me: ProcId,
    home: SegIdx,
    detached: bool,
) -> SearchSession<'a, T> {
    let lap = shared.segments.len().saturating_sub(1) as u64;
    if detached {
        SearchSession::begin_detached(&shared.timing, shared.registry.gate(), me, home, lap)
    } else {
        SearchSession::begin(&shared.timing, shared.registry.gate(), me, home, lap)
    }
}

/// Walks the ring from `cursor`, skipping the searcher's home segment and
/// probing every other segment through `probe`, until a steal succeeds, the
/// engine's full-lap abort rule fires, the pool turns out closed, or the
/// blocking-wait controller gives up (budget, deadline).
///
/// The cursor is persisted through `save_cursor` *before* every abort check
/// (same reasoning as `LinearSearch`): a retrying caller must resume at the
/// next segment or it could never reach elements parked elsewhere.
///
/// On a blocking remove (`ctx.wait` present) the walk pauses or parks at
/// each fruitless lap boundary per [`WaitCtl`]; `ctx.has_work` is the wake
/// filter — for a keyed remove it is scoped to the wanted key, so other
/// keys' elements neither wake the search nor keep it probing.
fn ring_search<I, T: Timing>(
    session: &mut SearchSession<'_, T>,
    n: usize,
    mut victim: SegIdx,
    mut probe: impl FnMut(&mut SearchSession<'_, T>, SegIdx) -> Option<(I, usize)>,
    mut save_cursor: impl FnMut(SegIdx),
    mut ctx: RingCtx<'_, '_>,
) -> Option<(I, usize, SegIdx)> {
    loop {
        if victim != session.home() {
            if let Some((item, stolen)) = probe(session, victim) {
                return Some((item, stolen, victim));
            }
        }
        victim = victim.next_in_ring(n);
        save_cursor(victim);
        if session.should_abort() {
            return None;
        }
        // A closed pool ends fruitless walks at the first lap boundary even
        // when not everyone is searching; the caller's `abort_error`
        // distinguishes drained (Closed) from residue (retryable Aborted).
        if session.full_lap_done() && ctx.notifier.is_closed() {
            return None;
        }
        if let Some(ctl) = ctx.wait.as_deref_mut() {
            if ctl.on_probe(session, ctx.has_work, || false) {
                return None;
            }
        }
    }
}

/// The lifecycle-and-wait context of one [`ring_search`]: the pool's
/// notifier (for the closed check), the wake filter, and — on blocking
/// removes — the lap-boundary wait controller.
struct RingCtx<'a, 'n> {
    notifier: &'a Notifier,
    has_work: &'a dyn Fn() -> bool,
    wait: Option<&'a mut WaitCtl<'n>>,
}

impl<K: Key, V: Send + 'static, T: Timing> Drop for KeyedHandle<K, V, T> {
    fn drop(&mut self) {
        // A dropped handle withdraws any waker registration left armed by
        // a pending `poll_remove` before it stops being a waiter, and
        // banks its magazines so no cached pair is lost with the handle.
        if let Some(ticket) = self.local.poll_slot.take() {
            self.shared.registry.notifier().cancel_waker(ticket);
        }
        self.flush_magazine();
        self.shared.registry.retire(self.local.me, std::mem::take(&mut self.local.stats));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn local_keyed_roundtrip() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(4);
        let mut h = pool.register();
        h.add(1, 10);
        h.add(2, 20);
        h.add(1, 11);
        assert_eq!(pool.total_len(), 3);
        assert_eq!(pool.key_len(&1), 2);
        assert_eq!(h.try_remove_key(&2), Ok(20));
        assert!(matches!(h.try_remove_key(&1), Ok(10 | 11)));
        assert_eq!(pool.total_len(), 1);
    }

    #[test]
    fn neighbouring_segments_are_at_least_128_bytes_apart() {
        // The plain pool's layout guarantee, for the keyed segments.
        let pool: KeyedPool<u8, u32> = KeyedPool::new(4);
        for pair in pool.shared.segments.windows(2) {
            let this: &KeyedSegment<u8, u32> = &pair[0];
            let next: &KeyedSegment<u8, u32> = &pair[1];
            let end = this as *const KeyedSegment<u8, u32> as usize + std::mem::size_of_val(this);
            let gap = next as *const KeyedSegment<u8, u32> as usize - end;
            assert!(gap >= 128, "only {gap} bytes between neighbouring segments");
        }
    }

    #[test]
    fn missing_key_aborts_for_lone_process() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(4);
        let mut h = pool.register();
        h.add(1, 10);
        assert_eq!(h.try_remove_key(&9), Err(RemoveError::Aborted));
        assert_eq!(h.stats().aborted_removes, 1);
        assert_eq!(pool.total_len(), 1, "other keys untouched");
    }

    #[test]
    fn keyed_steal_takes_half_the_bucket() {
        let pool: KeyedPool<&'static str, u32> = KeyedPool::new(2);
        let mut a = pool.register(); // home 0
        let mut b = pool.register(); // home 1
        for i in 0..10 {
            b.add("x", i);
            b.add("y", i + 100);
        }
        // a steals from b's "x" bucket only: ceil(10/2) = 5.
        assert!(a.try_remove_key(&"x").is_ok());
        assert_eq!(a.stats().steals, 1);
        assert_eq!(a.stats().elements_stolen, 5);
        assert_eq!(pool.segment_len(SegIdx::new(0)), 4, "kept 4 of the 5 stolen");
        assert_eq!(pool.key_len(&"y"), 10, "the other bucket was not touched");
        // Next "x" removes are local.
        assert!(a.try_remove_key(&"x").is_ok());
        assert_eq!(a.stats().steals, 1);
    }

    #[test]
    fn remove_any_steals_largest_bucket() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        let mut a = pool.register();
        let mut b = pool.register();
        for i in 0..3 {
            b.add(1, i);
        }
        for i in 0..9 {
            b.add(2, i);
        }
        let (key, _) = a.try_remove_any().expect("elements exist");
        assert_eq!(key, 2, "the largest bucket is the steal victim");
        assert_eq!(a.stats().elements_stolen, 5, "ceil(9/2)");
    }

    #[test]
    fn keyed_conservation_under_concurrency() {
        let n = 4;
        let per = 500;
        let pool: KeyedPool<usize, u64> = KeyedPool::new(n);
        thread::scope(|s| {
            for w in 0..n {
                let mut h = pool.register();
                s.spawn(move || {
                    // Each worker adds under its own key then consumes its
                    // key back — all steals are keyed.
                    for i in 0..per {
                        h.add(w, i as u64);
                    }
                    let mut got = 0;
                    while got < per {
                        match h.try_remove_key(&w) {
                            Ok(_) => got += 1,
                            Err(_) => thread::yield_now(),
                        }
                    }
                });
            }
        });
        assert_eq!(pool.total_len(), 0);
        let merged = pool.stats().merged();
        assert_eq!(merged.adds, (n * per) as u64);
        assert_eq!(merged.removes, (n * per) as u64);
    }

    #[test]
    fn cross_key_consumers_drain_producers() {
        // Producers add under two keys; consumers each insist on one key.
        let pool: KeyedPool<&'static str, u64> = KeyedPool::new(4);
        let total = 400;
        thread::scope(|s| {
            let mut p = pool.register();
            s.spawn(move || {
                for i in 0..total {
                    p.add(if i % 2 == 0 { "even" } else { "odd" }, i);
                }
            });
            for key in ["even", "odd"] {
                let mut c = pool.register();
                s.spawn(move || {
                    let mut got = 0;
                    while got < total / 2 {
                        match c.try_remove_key(&key) {
                            Ok(v) => {
                                assert_eq!(v % 2 == 0, key == "even", "keys never cross");
                                got += 1;
                            }
                            Err(_) => thread::yield_now(),
                        }
                    }
                });
            }
            let _spare = pool.register(); // a fourth, idle-ish participant
        });
        assert_eq!(pool.total_len(), 0);
    }

    #[test]
    fn ephemeral_keys_do_not_accumulate_resident_buckets() {
        // One key per "task": beyond the residency bound, drained buckets
        // are evicted, so removes keep finding live work in bounded time
        // instead of scanning an ever-growing prefix of empties.
        let pool: KeyedPool<u32, u32> = KeyedPool::new(1);
        let mut h = pool.register();
        for key in 0..10 * RESIDENT_BUCKETS_MAX as u32 {
            h.add(key, key);
            assert_eq!(h.try_remove_key(&key), Ok(key));
        }
        let resident = pool.shared.segments[0].buckets.lock().map.len();
        assert!(
            resident <= RESIDENT_BUCKETS_MAX + 1,
            "drained ephemeral buckets must be evicted, found {resident} resident"
        );
        // The pool still works normally afterwards.
        h.add(7, 77);
        assert_eq!(h.try_remove_any(), Ok((7, 77)));
    }

    #[test]
    fn live_buckets_do_not_count_against_the_residency_bound() {
        // The bound is on *empty* resident buckets only: with enough
        // permanently-live keys to push the total bucket count past the
        // bound, hot keys whose buckets empty briefly between cycles must
        // still stay resident (evicting them would re-allocate a bucket
        // and a map node on every cycle).
        let pool: KeyedPool<u32, u32> = KeyedPool::new(1);
        let mut h = pool.register();
        let pinned = RESIDENT_BUCKETS_MAX as u32; // live the whole test
        let hot = RESIDENT_BUCKETS_MAX as u32 / 2;
        for key in 0..pinned {
            h.add(key, 1);
        }
        for round in 0..3 {
            for key in pinned..pinned + hot {
                h.add(key, round);
                assert_eq!(h.try_remove_key(&key), Ok(round));
            }
        }
        let resident = pool.shared.segments[0].buckets.lock().map.len();
        assert_eq!(
            resident as u32,
            pinned + hot,
            "hot-key buckets stay resident beside {pinned} live ones"
        );
    }

    #[test]
    fn remove_any_prefers_local() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        let mut a = pool.register();
        let mut b = pool.register();
        a.add(7, 1);
        b.add(8, 2);
        let (k, _) = a.try_remove_any().unwrap();
        assert_eq!(k, 7, "local element preferred");
        assert_eq!(a.stats().steals, 0);
    }

    #[test]
    fn stats_deposited_on_drop() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        {
            let mut h = pool.register();
            h.add(1, 1);
            let _ = h.try_remove_any();
        }
        let stats = pool.stats();
        assert_eq!(stats.per_proc.len(), 1);
        assert_eq!(stats.merged().removes, 1);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn zero_segments_panics() {
        let _: KeyedPool<u8, u8> = KeyedPool::new(0);
    }

    #[test]
    fn builder_builds_with_timing() {
        let pool: KeyedPool<u8, u32> = KeyedPoolBuilder::new(3).timing(NullTiming::new()).build();
        assert_eq!(pool.segments(), 3);
        let mut h = pool.register();
        h.add(1, 7);
        assert_eq!(h.try_remove_key(&1), Ok(7));
    }

    #[test]
    fn batch_ops_move_pairs_in_bulk() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        let mut h = pool.register();
        h.add_batch([(1, 10), (2, 20), (1, 11)]);
        assert_eq!(pool.total_len(), 3);
        assert_eq!(pool.key_len(&1), 2);
        assert_eq!(h.stats().adds, 3);
        assert_eq!(h.stats().add_hist.count(), 1, "one batch, one latency sample");
        let batch = h.try_remove_batch(2);
        assert_eq!(batch.len(), 2);
        assert_eq!(pool.total_len(), 1);
        let rest: Vec<(u8, u32)> = h.drain().into_vec();
        assert_eq!(rest.len(), 1);
        assert_eq!(pool.total_len(), 0);
        assert_eq!(h.stats().removes, 3);
    }

    #[test]
    fn batch_remove_steals_when_local_is_empty() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        let mut thief = pool.register(); // home 0
        let mut victim = pool.register(); // home 1
        victim.add_batch((0..12u32).map(|i| (1u8, i)));
        // The any-key steal takes ceil(12/2) = 6 of the bucket; the batch
        // asks for 4 of them.
        let batch = thief.try_remove_batch(4);
        assert_eq!(batch.len(), 4);
        assert_eq!(thief.stats().steals, 1);
        assert_eq!(thief.stats().elements_stolen, 6);
        assert_eq!(pool.total_len(), 8);
    }

    #[test]
    fn blocking_remove_key_gives_up_only_when_key_is_exhausted() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(4);
        let mut h = pool.register();
        h.add(1, 10);
        assert_eq!(h.remove_key(&1, WaitStrategy::Spin), Ok(10));
        // Key 9 is absent while key 1's residue... is also gone; an absent
        // key aborts terminally instead of burning the whole budget.
        h.add(1, 11);
        assert_eq!(h.remove_key(&9, WaitStrategy::Spin), Err(RemoveError::Aborted));
        assert_eq!(h.stats().aborted_removes, 1, "one attempt, not the full budget");
        assert_eq!(pool.total_len(), 1, "other keys untouched");
    }

    #[test]
    fn remove_key_blocks_until_the_right_key_arrives() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        thread::scope(|s| {
            let mut producer = pool.register();
            let mut consumer = pool.register();
            s.spawn(move || {
                // The wrong key first: it must not satisfy (or unpark-loop
                // confuse) the keyed waiter, which re-parks on wrong-key
                // traffic.
                producer.add(2, 200);
                thread::sleep(std::time::Duration::from_millis(2));
                producer.add(1, 100);
            });
            s.spawn(move || {
                assert_eq!(consumer.remove_key(&1, WaitStrategy::Block), Ok(100));
            });
        });
        assert_eq!(pool.key_len(&2), 1, "the other key's element is untouched");
    }

    #[test]
    fn keyed_close_wakes_blocked_removers_with_closed() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        thread::scope(|s| {
            let mut producer = pool.register();
            let mut consumer = pool.register();
            s.spawn(move || {
                producer.add(1, 10);
                producer.close();
            });
            s.spawn(move || {
                let mut got = 0;
                let err = loop {
                    match consumer.remove_key(&1, WaitStrategy::Block) {
                        Ok(_) => got += 1,
                        Err(err) => break err,
                    }
                };
                assert_eq!(got, 1, "pre-close residue delivered first");
                assert_eq!(err, RemoveError::Closed);
            });
        });
        assert!(pool.is_closed());
    }

    #[test]
    fn remove_key_timeout_expires_while_other_keys_flow() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        let mut h = pool.register();
        let _idle = pool.register(); // keeps the gate from firing
        h.add(2, 20);
        let t0 = std::time::Instant::now();
        assert_eq!(
            h.remove_key_timeout(&1, std::time::Duration::from_millis(15)),
            Err(RemoveError::Timeout)
        );
        assert!(t0.elapsed() >= std::time::Duration::from_millis(15));
        assert_eq!(pool.key_len(&2), 1, "waiting for key 1 never consumed key 2");
    }

    #[test]
    fn blocking_any_remove_on_closed_drained_pool() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        let mut h = pool.register();
        h.add(3, 30);
        pool.close();
        assert_eq!(h.remove(WaitStrategy::Block), Ok((3, 30)), "drain before Closed");
        assert_eq!(h.remove(WaitStrategy::Block), Err(RemoveError::Closed));
        assert_eq!(h.try_remove_any(), Err(RemoveError::Closed));
    }

    #[test]
    fn pool_ops_vocabulary_is_generic_over_frontends() {
        // The same generic driver runs against the keyed handle.
        fn roundtrip<H: PoolOps>(h: &mut H, items: Vec<H::Item>) -> usize {
            let n = items.len();
            h.add_batch(items);
            let mut got = 0;
            while got < n {
                if h.remove(WaitStrategy::Spin).is_ok() {
                    got += 1;
                }
            }
            got
        }
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        let mut h = pool.register();
        let items: Vec<(u8, u32)> = (0..20).map(|i| (i as u8 % 3, i)).collect();
        assert_eq!(roundtrip(&mut h, items), 20);
        assert_eq!(pool.total_len(), 0);
    }

    #[test]
    fn manual_promote_demote_conserves_the_multiset() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(1);
        let mut h = pool.register();
        for v in 0..10 {
            h.add(5, v);
        }
        pool.promote_key(&5);
        assert_eq!(pool.key_len(&5), 10, "splitting moves, never drops");
        assert_eq!(pool.stats().pool.hot_buckets, 1);
        // Adds and removes keep flowing through the split bucket.
        for v in 10..20 {
            h.add(5, v);
        }
        assert_eq!(pool.key_len(&5), 20);
        pool.demote_key(&5);
        assert_eq!(pool.stats().pool.hot_buckets, 0);
        assert_eq!(pool.key_len(&5), 20, "merging moves, never drops");
        let mut got = std::collections::BTreeSet::new();
        for _ in 0..20 {
            got.insert(h.try_remove_key(&5).expect("all 20 still present"));
        }
        assert_eq!(got, (0..20).collect());
        let stats = pool.stats();
        assert_eq!(stats.pool.hotkey_promotions, 1);
        assert_eq!(stats.pool.hotkey_demotions, 1);
    }

    #[test]
    fn sampling_promotes_hot_keys_and_demotes_cooled_ones() {
        let pool: KeyedPool<u8, u32> = KeyedPoolBuilder::new(1)
            .hot_keys(HotKeyConfig {
                sample_every: 1,
                window: 8,
                sub_shards: 4,
                promote_pct: 50,
                demote_pct: 20,
            })
            .build();
        let mut h = pool.register();
        for v in 0..16 {
            h.add(7, v);
        }
        assert!(pool.stats().pool.hotkey_promotions >= 1, "a dominant key splits its bucket");
        assert_eq!(pool.stats().pool.hot_buckets, 1);
        assert_eq!(pool.key_len(&7), 16, "split under live adds loses nothing");
        // Traffic moves on: the window forgets key 7 and a later sampled
        // op's hysteresis sweep merges the bucket back.
        for key in 0..16u8 {
            h.add(100 + key, 0);
        }
        assert_eq!(pool.stats().pool.hot_buckets, 0, "cooled key demoted");
        assert!(pool.stats().pool.hotkey_demotions >= 1);
        assert_eq!(pool.key_len(&7), 16, "demotion under other traffic loses nothing");
        let mut got = std::collections::BTreeSet::new();
        for _ in 0..16 {
            got.insert(h.try_remove_key(&7).expect("all of key 7 present"));
        }
        assert_eq!(got, (0..16).collect());
    }

    #[test]
    fn uniform_traffic_never_promotes() {
        // Default knobs: promotion needs ~8% of a 256-sample window on one
        // key; 100 keys in round-robin peak at 1%.
        let pool: KeyedPool<u32, u32> = KeyedPool::new(2);
        let mut h = pool.register();
        for i in 0..2_000u32 {
            h.add(i % 100, i);
        }
        for _ in 0..2_000 {
            let _ = h.try_remove_any();
        }
        let stats = pool.stats();
        assert_eq!(stats.pool.hotkey_promotions, 0, "no skew, no splits");
        assert_eq!(stats.pool.hot_buckets, 0);
    }

    #[test]
    fn heat_weighted_steal_prefers_the_hot_bucket() {
        // Without heat, the steal sweep picks the largest bucket (see
        // remove_any_steals_largest_bucket). Here the *smaller* bucket is
        // hot: score = len·(1 + 4·heat) must rank 6 hot over 20 cold.
        let pool: KeyedPool<u8, u32> = KeyedPoolBuilder::new(2)
            .hot_keys(HotKeyConfig {
                sample_every: 1,
                window: 64,
                sub_shards: 2,
                promote_pct: 100, // never split: isolates the victim ranking
                demote_pct: 1,
            })
            .build();
        let mut thief = pool.register(); // home 0
        let mut victim = pool.register(); // home 1
                                          // The cold bulk arrives via a batch (batches are not sampled), so
                                          // the window sees only key-2 traffic.
        victim.add_batch((0..20u32).map(|v| (1u8, v)));
        for v in 0..6 {
            victim.add(2, v + 100);
        }
        // Only adds feed the window (producer-side sampling), so the heat
        // comes from the add half of each pair: 6 + 40 key-2 samples in a
        // 64-sample window → heat ≈ 0.72 → score 6·(1 + 4·0.72) ≈ 23 > 20.
        for _ in 0..40 {
            victim.add(2, 999);
            let _ = victim.try_remove_key(&2);
        }
        assert_eq!(pool.key_len(&2), 6);
        let (key, _) = thief.try_remove_any().expect("elements exist");
        assert_eq!(key, 2, "heat outweighs raw occupancy");
        assert_eq!(thief.stats().elements_stolen, 3, "ceil(6/2) of the hot bucket");
        assert_eq!(pool.key_len(&1), 20, "the cold bucket was not touched");
    }

    #[test]
    fn resident_buckets_knob_bounds_empties_and_counts_evictions() {
        let bound = 4;
        let pool: KeyedPool<u32, u32> =
            KeyedPoolBuilder::new(1).resident_buckets_max(bound).build();
        let mut h = pool.register();
        for key in 0..100 {
            h.add(key, key);
            assert_eq!(h.try_remove_key(&key), Ok(key));
        }
        let resident = pool.shared.segments[0].buckets.lock().map.len();
        assert!(resident <= bound + 1, "bound {bound} not honored: {resident} resident");
        let stats = pool.stats();
        assert!(
            stats.pool.bucket_evictions >= (100 - bound - 1) as u64,
            "evictions counted, got {}",
            stats.pool.bucket_evictions
        );
    }

    #[test]
    fn close_wakes_blocked_removers_across_a_split() {
        // The close()/timeout contract must survive a bucket split: parked
        // keyed removers drain a split bucket's residue, then see Closed.
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        pool.promote_key(&1);
        thread::scope(|s| {
            let mut producer = pool.register();
            let mut consumer = pool.register();
            s.spawn(move || {
                producer.add(1, 10);
                producer.close();
            });
            s.spawn(move || {
                let mut got = 0;
                let err = loop {
                    match consumer.remove_key(&1, WaitStrategy::Block) {
                        Ok(_) => got += 1,
                        Err(err) => break err,
                    }
                };
                assert_eq!(got, 1, "split-bucket residue delivered before Closed");
                assert_eq!(err, RemoveError::Closed);
            });
        });
    }

    #[test]
    fn remove_key_timeout_expires_across_a_split() {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(2);
        pool.promote_key(&2);
        let mut h = pool.register();
        let _idle = pool.register(); // keeps the gate from firing
        h.add(2, 20);
        let t0 = std::time::Instant::now();
        assert_eq!(
            h.remove_key_timeout(&1, std::time::Duration::from_millis(15)),
            Err(RemoveError::Timeout)
        );
        assert!(t0.elapsed() >= std::time::Duration::from_millis(15));
        assert_eq!(pool.key_len(&2), 1, "the split bucket's element is untouched");
    }

    #[test]
    fn stale_hot_cache_falls_back_after_demotion() {
        let pool: KeyedPool<u8, u32> = KeyedPoolBuilder::new(1)
            .hot_keys(HotKeyConfig {
                sample_every: 1,
                window: 8,
                sub_shards: 2,
                promote_pct: 50,
                demote_pct: 20,
            })
            .build();
        let mut h = pool.register();
        for v in 0..8 {
            h.add(3, v);
        }
        assert_eq!(pool.stats().pool.hot_buckets, 1);
        // Demote behind the handle's back: its cached split bucket is now
        // sealed, so the next ops must bounce to the routed path and still
        // land correctly.
        pool.demote_key(&3);
        let mut h2 = pool.register();
        h2.add(3, 100);
        assert_eq!(pool.key_len(&3), 9);
        let mut got = std::collections::BTreeSet::new();
        for _ in 0..9 {
            got.insert(h2.try_remove_key(&3).expect("all present"));
        }
        assert_eq!(got, (0..8).chain([100]).collect());
    }
}
