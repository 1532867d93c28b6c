//! Element segment organized as a list of fixed-size blocks.
//!
//! Manber (1986) describes a segment representation with O(1) add, remove,
//! and split for arbitrary elements. [`BlockSegment`] approximates it: the
//! segment is a deque of blocks of up to `B` elements, and a split hands
//! over whole blocks, touching O(n/B) block *pointers* instead of O(n)
//! elements.
//!
//! Since the transfer layer became batch-typed, that invariant holds **end
//! to end**: `steal_half` returns a [`BlockBatch`] of whole block handles,
//! the steal engine's two-phase probe moves the batch without opening it,
//! and `add_bulk` splices the blocks into the thief's own deque — pointer
//! moves the whole way, never an element copy. (Before the batch-typed
//! [`Segment::Batch`] boundary, every transfer was flattened into a
//! `Vec<Item>` at the trait edge, so splits moved block pointers only
//! *inside* the segment and every steal copied — and allocated for — all
//! ⌈n/2⌉ elements anyway.) The paper notes its measured experiments
//! eliminated "the block transfer of stolen elements between processes";
//! this segment keeps the transfer but makes it cheap.
//!
//! Containers are recycled at **bundle granularity** so the recycling
//! itself stays off the hot path: each segment keeps a small stash of
//! spare blocks *inside its own lock* (local add/remove churn costs no
//! extra synchronization at all), and the pool-wide [`BlockCache`] free
//! list — shared across a pool's segments via [`Segment::new_family`] —
//! moves whole *bundles* (a batch shell together with the spare blocks it
//! carries) in a single operation, however many blocks they hold. The
//! steady-state steal/refill cycle and the add/remove churn around it
//! therefore perform **zero heap allocations** (`tests/alloc_steal.rs`
//! asserts this with a counting allocator) while paying O(1) free-list
//! operations per *transfer*, not per block.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use super::{steal_count, Segment};
use crate::transfer::{FreeList, TransferBatch};

/// Default number of elements per block.
pub const DEFAULT_BLOCK_SIZE: usize = 16;

/// Most spare blocks a segment stashes under its own lock before flushing
/// them to the pool-wide cache as one bundle.
const SPARE_BLOCKS_MAX: usize = 8;

/// Most blocks one cached bundle retains (memory bound per bundle).
const BUNDLE_BLOCKS_MAX: usize = 32;

/// Bundles the pool-wide cache retains per segment of the family.
const CACHED_BUNDLES_PER_SEGMENT: usize = 4;

/// A pool-wide free list of **bundles**: deque shells carrying zero or
/// more spare (empty, capacity-bearing) blocks.
///
/// Shared by every [`BlockSegment`] of one pool (see
/// [`Segment::new_family`]). One `take`/`put` moves a whole bundle, so the
/// free-list cost of a transfer is O(1) regardless of how many blocks it
/// recycles; the per-block traffic happens inside each segment's private
/// stash, under the lock the operation already holds.
struct BlockCache<T> {
    bundles: FreeList<VecDeque<Vec<T>>>,
    block_size: usize,
}

impl<T> BlockCache<T> {
    fn new(block_size: usize, segments: usize) -> Self {
        BlockCache { bundles: FreeList::new(CACHED_BUNDLES_PER_SEGMENT * segments + 2), block_size }
    }

    /// An empty-or-spare-carrying bundle; `VecDeque::new()` (no
    /// allocation) when the cache is dry.
    fn take_bundle(&self) -> VecDeque<Vec<T>> {
        self.bundles.take().unwrap_or_default()
    }

    /// Returns a bundle of spent containers to the cache in one operation.
    ///
    /// Undersized blocks (an ad-hoc singleton, a small foreign chunk) are
    /// dropped rather than cached: a reissued block must hold a full
    /// `block_size` without reallocating, or the cache would poison every
    /// later add with a growth realloc.
    fn put_bundle(&self, mut bundle: VecDeque<Vec<T>>) {
        bundle.retain(|block| {
            debug_assert!(block.is_empty(), "only spent blocks are recycled");
            block.capacity() >= self.block_size
        });
        bundle.truncate(BUNDLE_BLOCKS_MAX);
        if bundle.capacity() > 0 {
            self.bundles.put(bundle);
        }
    }
}

impl<T> std::fmt::Debug for BlockCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache").field("bundles", &self.bundles).finish_non_exhaustive()
    }
}

/// A batch of whole blocks in transit between [`BlockSegment`]s.
///
/// The [`TransferBatch`] currency of the block segment: a steal moves
/// block *handles* into the batch and a refill splices them out, so an
/// n-element transfer with B-element blocks costs O(n/B) pointer moves and
/// zero element copies.
///
/// Batches minted by a segment stay tethered to the pool's block cache:
/// whatever containers remain when the batch drops — spent blocks a
/// consumer drained, the shell, a lone-element steal's block that never
/// saw a refill — go back as **one bundle** in a single free-list
/// operation.
///
/// ```
/// use cpool::prelude::*;
///
/// let victim = BlockSegment::with_block_size(4);
/// for i in 0..16 {
///     victim.add(i);
/// }
/// let batch = victim.steal_half(); // two whole blocks, by handle
/// assert_eq!(batch.len(), 8);
/// assert_eq!(batch.block_count(), 2);
/// ```
pub struct BlockBatch<T> {
    /// The front block, held inline: single-block batches minted by the
    /// `remove_up_to` fast paths (and ad-hoc `put_one`/`from_vec` batches)
    /// need no shell at all. Steals always carry a shell — its circulation
    /// is the return path for spent blocks.
    first: Option<Vec<T>>,
    /// Further blocks, in a (recycled) shell; empty for small transfers.
    /// Spent blocks are parked at the *front* (consumption runs back to
    /// front) until the whole batch is recycled.
    rest: VecDeque<Vec<T>>,
    /// Leading blocks of `rest` known to be spent/spare (parked there by
    /// [`take_one`]): consumption skips them without re-inspecting.
    parked: usize,
    len: usize,
    /// The minting pool's cache (`None` for caller-built batches).
    cache: Option<Arc<BlockCache<T>>>,
}

impl<T> BlockBatch<T> {
    /// Number of block handles the batch carries, spent ones included
    /// (diagnostic).
    pub fn block_count(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }
}

impl<T> Drop for BlockBatch<T> {
    fn drop(&mut self) {
        let Some(cache) = self.cache.take() else { return };
        let mut bundle = std::mem::take(&mut self.rest);
        // Remaining elements have left the pool and drop here; every
        // block's capacity goes back to the cache as one bundle.
        for block in bundle.iter_mut() {
            block.clear();
        }
        if let Some(mut block) = self.first.take() {
            block.clear();
            bundle.push_back(block);
        }
        cache.put_bundle(bundle);
    }
}

impl<T> std::fmt::Debug for BlockBatch<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockBatch")
            .field("len", &self.len)
            .field("blocks", &self.block_count())
            .finish()
    }
}

impl<T: Send + 'static> TransferBatch for BlockBatch<T> {
    type Item = T;

    fn empty() -> Self {
        BlockBatch { first: None, rest: VecDeque::new(), parked: 0, len: 0, cache: None }
    }

    fn take_one(&mut self) -> Option<T> {
        if self.len == 0 {
            return None; // only spent containers remain
        }
        // Consume `rest` back to front, skipping the parked (spent) prefix;
        // each block is parked at most once, so this is O(1) amortized.
        while self.rest.len() > self.parked {
            let back = self.rest.back_mut().expect("rest is longer than its parked prefix");
            if let Some(item) = back.pop() {
                self.len -= 1;
                return Some(item);
            }
            // A spent (or ridden-spare) block: park it at the front — it
            // leaves with the batch's final bundle.
            let spent = self.rest.pop_back().expect("back exists");
            self.rest.push_front(spent);
            self.parked += 1;
        }
        // Every block in `rest` is spent: the remaining elements are in
        // the inline `first` slot.
        let first = self.first.as_mut()?;
        let item = first.pop();
        debug_assert!(item.is_some(), "len > 0 guarantees an element");
        if item.is_some() {
            self.len -= 1;
        }
        item
    }

    fn len(&self) -> usize {
        self.len
    }

    fn put_one(&mut self, item: T) {
        self.len += 1;
        if self.rest.len() > self.parked {
            let back = self.rest.back_mut().expect("active back block");
            if back.len() < back.capacity() {
                back.push(item);
                return;
            }
        } else if let Some(first) = &mut self.first {
            if first.len() < first.capacity() {
                first.push(item);
                return;
            }
        } else {
            self.first = Some(vec![item]);
            return;
        }
        // The target block is at capacity: a fresh singleton beats
        // reallocating (and permanently oversizing) a full block.
        self.rest.push_back(vec![item]);
    }

    fn append(&mut self, mut other: Self) {
        self.len += other.len;
        other.len = 0;
        let incoming_first = other.first.take();
        let mut incoming_rest = std::mem::take(&mut other.rest);
        // `other`'s drop returns its shell (now empty) to the cache; its
        // blocks — spent ones included — ride along in `self` and leave
        // with `self`'s own recycling.
        for block in
            incoming_first.into_iter().chain(std::iter::from_fn(|| incoming_rest.pop_front()))
        {
            if block.is_empty() {
                self.rest.push_front(block);
                self.parked += 1;
            } else if self.first.is_none() && self.rest.is_empty() {
                self.first = Some(block);
            } else {
                self.rest.push_back(block);
            }
        }
        if let Some(cache) = &other.cache {
            cache.put_bundle(incoming_rest);
        }
        if self.cache.is_none() {
            self.cache = other.cache.take();
        }
    }

    fn from_vec(items: Vec<T>) -> Self {
        let len = items.len();
        let mut batch = BlockBatch::empty();
        batch.len = len;
        let mut items = items.into_iter();
        loop {
            let block: Vec<T> = items.by_ref().take(DEFAULT_BLOCK_SIZE).collect();
            if block.is_empty() {
                break;
            }
            if batch.first.is_none() {
                batch.first = Some(block);
            } else {
                batch.rest.push_back(block);
            }
        }
        batch
    }
}

/// A segment whose elements live in fixed-size blocks so that splits move
/// blocks, not elements.
///
/// Local `add`/`try_remove` work on the back block (LIFO). `steal_half`
/// prefers to hand over whole front blocks; only when the segment has a
/// single block does it fall back to splitting that block element-wise.
/// Transfers travel as [`BlockBatch`]es of block handles, and containers
/// recycle through the segment's private spare stash and the pool's shared
/// bundle cache (see the [module docs](crate::segment::BlockSegment)).
///
/// Blocks *built locally* hold at most [`block_size`](Self::block_size)
/// elements; blocks spliced in by `add_bulk` keep whatever geometry their
/// origin gave them (a pool's segments share one block size, so in
/// practice all blocks agree).
///
/// ```
/// use cpool::segment::{BlockSegment, Segment};
/// use cpool::transfer::TransferBatch;
/// let seg = BlockSegment::with_block_size(4);
/// for i in 0..32 {
///     seg.add(i);
/// }
/// let stolen = seg.steal_half();
/// assert_eq!(stolen.len(), 16);
/// assert_eq!(seg.len(), 16);
/// ```
#[derive(Debug)]
pub struct BlockSegment<T> {
    /// Immutable configuration, deliberately outside the mutex: readers
    /// (`block_size()`, the add fast path) must not take the segment lock
    /// for a value that never changes.
    block_size: usize,
    /// Occupancy, also outside the mutex (the PR that de-mutexed
    /// `block_size` left `len` behind the lock; this finishes the job):
    /// written (`Release`) only while `inner` is locked, read (`Acquire`)
    /// without the lock by `len`/`is_empty`, so search probes observe
    /// emptiness without contending with the owner.
    len: AtomicUsize,
    cache: Arc<BlockCache<T>>,
    inner: Mutex<Blocks<T>>,
}

#[derive(Debug)]
struct Blocks<T> {
    blocks: VecDeque<Vec<T>>,
    /// Spare empty blocks stashed under this segment's own lock: the
    /// add/remove churn recycles here for free, and only overflow (or a
    /// dry stash) touches the shared bundle cache.
    spares: VecDeque<Vec<T>>,
}

impl<T> BlockSegment<T> {
    /// Creates an empty segment with the given block size (and its own,
    /// unshared block cache — pools share one via [`Segment::new_family`]).
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn with_block_size(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self::with_cache(block_size, Arc::new(BlockCache::new(block_size, 1)))
    }

    fn with_cache(block_size: usize, cache: Arc<BlockCache<T>>) -> Self {
        BlockSegment {
            block_size,
            len: AtomicUsize::new(0),
            cache,
            inner: Mutex::new(Blocks { blocks: VecDeque::new(), spares: VecDeque::new() }),
        }
    }

    /// Exact occupancy while the `inner` lock is held (all writers hold the
    /// lock, so the relaxed load cannot race a store).
    fn len_locked(&self, _inner: &Blocks<T>) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Publishes a new occupancy to the lock-free mirror; must be called
    /// with the `inner` lock held, after the mutation.
    fn publish_len(&self, _inner: &Blocks<T>, len: usize) {
        self.len.store(len, Ordering::Release);
    }

    fn check_invariants(&self, inner: &Blocks<T>) {
        debug_assert_eq!(
            self.len.load(Ordering::Relaxed),
            inner.blocks.iter().map(Vec::len).sum::<usize>()
        );
        debug_assert!(inner.blocks.iter().all(|b| !b.is_empty()));
        debug_assert!(inner.spares.iter().all(|b| b.is_empty()));
    }

    /// The configured block size (plain field read; no lock).
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of blocks currently holding elements (diagnostic).
    pub fn block_count(&self) -> usize {
        self.inner.lock().blocks.len()
    }

    /// Spare blocks stashed under this segment's lock (diagnostic).
    pub fn spare_blocks(&self) -> usize {
        self.inner.lock().spares.len()
    }

    /// Bundles of spent containers parked in the (possibly shared) pool
    /// cache, awaiting reuse (diagnostic snapshot).
    pub fn cached_bundles(&self) -> usize {
        self.cache.bundles.cached()
    }

    /// An empty block ready for `block_size` elements: from the segment's
    /// stash, else a bundle drawn from the shared cache, else fresh.
    fn issue_block(&self, inner: &mut Blocks<T>) -> Vec<T> {
        if let Some(block) = inner.spares.pop_back() {
            return block;
        }
        // Dry stash: adopt a cache bundle as the new stash, and send the
        // displaced (empty) stash buffer back as a pure shell — container
        // conservation, or steady-state traffic would slowly bleed deque
        // buffers to the allocator.
        let bundle = self.cache.take_bundle();
        let displaced = std::mem::replace(&mut inner.spares, bundle);
        if displaced.capacity() > 0 {
            self.cache.put_bundle(displaced);
        }
        inner.spares.pop_back().unwrap_or_else(|| Vec::with_capacity(self.block_size))
    }

    /// Retires a spent block into the stash, flushing overflow to the
    /// shared cache as one bundle.
    fn retire_block(&self, inner: &mut Blocks<T>, block: Vec<T>) {
        debug_assert!(block.is_empty());
        inner.spares.push_back(block);
        if inner.spares.len() > SPARE_BLOCKS_MAX {
            let bundle = std::mem::take(&mut inner.spares);
            self.cache.put_bundle(bundle);
        }
    }
}

impl<T> Default for BlockSegment<T> {
    fn default() -> Self {
        Self::with_block_size(DEFAULT_BLOCK_SIZE)
    }
}

impl<T: Send + 'static> Segment for BlockSegment<T> {
    type Item = T;
    type Batch = BlockBatch<T>;

    fn new() -> Self {
        Self::default()
    }

    /// One pool's segments share a single bundle cache, so blocks spent by
    /// one process's removes are reissued to another process's adds.
    fn new_family(count: usize) -> Vec<Self> {
        let cache = Arc::new(BlockCache::new(DEFAULT_BLOCK_SIZE, count.max(1)));
        (0..count).map(|_| Self::with_cache(DEFAULT_BLOCK_SIZE, Arc::clone(&cache))).collect()
    }

    fn add(&self, item: T) {
        let mut inner = self.inner.lock();
        match inner.blocks.back_mut() {
            Some(block) if block.len() < self.block_size => block.push(item),
            _ => {
                let mut block = self.issue_block(&mut inner);
                block.push(item);
                inner.blocks.push_back(block);
            }
        }
        self.publish_len(&inner, self.len_locked(&inner) + 1);
        self.check_invariants(&inner);
    }

    fn try_remove(&self) -> Option<T> {
        let mut inner = self.inner.lock();
        let item = inner.blocks.back_mut()?.pop();
        debug_assert!(item.is_some(), "invariant: no empty blocks stored");
        if inner.blocks.back().is_some_and(Vec::is_empty) {
            let spent = inner.blocks.pop_back().expect("back exists");
            self.retire_block(&mut inner, spent);
        }
        self.publish_len(&inner, self.len_locked(&inner) - 1);
        self.check_invariants(&inner);
        item
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    fn steal_half(&self) -> BlockBatch<T> {
        let mut inner = self.inner.lock();
        let want = steal_count(self.len_locked(&inner));
        if want == 0 {
            return BlockBatch::empty();
        }
        // The shell draw doubles as the victim's block resupply: spare
        // blocks the bundle carries (exported by earlier refills on the
        // consumer side) stay HERE, in the victim's stash — the segment
        // being stolen from is the producer that is about to lose whole
        // blocks, so it is exactly where spares are needed next. This
        // steal→refill shell circulation is what keeps the steady state
        // allocation-free in both directions.
        let mut shell = self.cache.take_bundle();
        while let Some(spare) = shell.pop_front() {
            self.retire_block(&mut inner, spare);
        }
        let mut taken = 0;
        // Move whole blocks from the front, by handle, while they fit
        // within the quota.
        while let Some(front) = inner.blocks.front() {
            if taken + front.len() > want {
                break;
            }
            let block = inner.blocks.pop_front().expect("front exists");
            taken += block.len();
            shell.push_back(block);
        }
        // Top up element-wise from the front block if the quota is not met
        // (always the case when a single block holds everything). The
        // top-up block comes from the stash/cache, so even this path
        // allocates nothing in the steady state.
        if taken < want {
            let need = want - taken;
            let mut top = self.issue_block(&mut inner);
            let front = inner.blocks.front_mut().expect("len accounting guarantees a block");
            // `need < front.len()`: the whole-block loop above would have
            // taken an exactly-fitting front, so a top-up never empties it.
            debug_assert!(need < front.len());
            top.extend(front.drain(..need));
            shell.push_back(top);
        }
        self.publish_len(&inner, self.len_locked(&inner) - want);
        self.check_invariants(&inner);
        let cache = Some(Arc::clone(&self.cache));
        BlockBatch { first: None, rest: shell, parked: 0, len: want, cache }
    }

    fn add_bulk(&self, mut batch: BlockBatch<T>) {
        let len = batch.len;
        batch.len = 0;
        let first = batch.first.take();
        let mut rest = std::mem::take(&mut batch.rest);
        drop(batch); // disarmed: nothing left for its drop to recycle
        if len == 0 {
            // Pure container return (the probe's lone-element path): no
            // element moves, so the segment lock — an access the cost
            // model deliberately does not charge on this path — is never
            // taken; every container goes back to the cache as one bundle.
            if let Some(block) = first {
                debug_assert!(block.is_empty());
                rest.push_back(block);
            }
            self.cache.put_bundle(rest);
            return;
        }
        {
            let mut inner = self.inner.lock();
            self.publish_len(&inner, self.len_locked(&inner) + len);
            // Splice the handles; blocks the batch spent in transit (the
            // two-phase steal keeps one element back, which can empty a
            // block; a recycled shell may carry spares) retire into this
            // segment's own stash — the thief's next adds reuse them.
            let total = usize::from(first.is_some()) + rest.len();
            for block in
                first.into_iter().chain(std::iter::from_fn(|| rest.pop_front())).take(total)
            {
                if block.is_empty() {
                    self.retire_block(&mut inner, block);
                } else {
                    inner.blocks.push_back(block);
                }
            }
            // Ship the stash out with the shell: a refilling segment is a
            // consumer accumulating spare blocks, and the next steal's
            // shell draw hands them to a producer that just lost whole
            // blocks — per-round circulation instead of bursty flushes.
            while let Some(spare) = inner.spares.pop_back() {
                if rest.len() >= BUNDLE_BLOCKS_MAX {
                    inner.spares.push_back(spare);
                    break;
                }
                rest.push_back(spare);
            }
            self.check_invariants(&inner);
        }
        // Lock released: recycling the shell (and the spares riding in it)
        // needs no segment state.
        self.cache.put_bundle(rest);
    }

    fn add_bulk_vec(&self, items: Vec<T>) {
        if items.is_empty() {
            return;
        }
        let block_size = self.block_size;
        let mut inner = self.inner.lock();
        self.publish_len(&inner, self.len_locked(&inner) + items.len());
        let mut items = items.into_iter();
        // Top off the back block, then chunk the rest into recycled blocks
        // — one lock, no fresh allocations in the steady state.
        if let Some(back) = inner.blocks.back_mut() {
            while back.len() < block_size {
                match items.next() {
                    Some(item) => back.push(item),
                    None => break,
                }
            }
        }
        while let Some(first) = items.next() {
            let mut block = self.issue_block(&mut inner);
            block.push(first);
            while block.len() < block_size {
                match items.next() {
                    Some(item) => block.push(item),
                    None => break,
                }
            }
            inner.blocks.push_back(block);
        }
        self.check_invariants(&inner);
    }

    fn remove_up_to(&self, n: usize) -> BlockBatch<T> {
        let mut inner = self.inner.lock();
        let want = n.min(self.len_locked(&inner));
        if want == 0 {
            return BlockBatch::empty();
        }
        let cache = Some(Arc::clone(&self.cache));
        // Take whole blocks from the back — the owner's LIFO end, like
        // `try_remove` — while they fit within the quota, then top up
        // element-wise from the (new) back block. The batch stays tethered
        // to the cache, so its containers return as the caller consumes
        // (or drops) the drain.
        let back_len = inner.blocks.back().map_or(0, Vec::len);
        if want == back_len {
            let block = inner.blocks.pop_back().expect("back exists");
            self.publish_len(&inner, self.len_locked(&inner) - want);
            self.check_invariants(&inner);
            return BlockBatch {
                first: Some(block),
                rest: VecDeque::new(),
                parked: 0,
                len: want,
                cache,
            };
        }
        if want < back_len {
            let mut top = self.issue_block(&mut inner);
            let back = inner.blocks.back_mut().expect("back exists");
            let at = back.len() - want;
            top.extend(back.drain(at..));
            self.publish_len(&inner, self.len_locked(&inner) - want);
            self.check_invariants(&inner);
            return BlockBatch {
                first: Some(top),
                rest: VecDeque::new(),
                parked: 0,
                len: want,
                cache,
            };
        }
        let mut blocks = self.cache.take_bundle();
        // As in `steal_half`: spares the bundle carries stay in this
        // segment's stash instead of riding out with the caller.
        while let Some(spare) = blocks.pop_front() {
            self.retire_block(&mut inner, spare);
        }
        let mut taken = 0;
        while let Some(back) = inner.blocks.back() {
            if taken + back.len() > want {
                break;
            }
            let block = inner.blocks.pop_back().expect("back exists");
            taken += block.len();
            blocks.push_back(block);
        }
        if taken < want {
            let need = want - taken;
            let mut top = self.issue_block(&mut inner);
            let back = inner.blocks.back_mut().expect("len accounting guarantees a block");
            let at = back.len() - need;
            top.extend(back.drain(at..));
            blocks.push_back(top);
        }
        self.publish_len(&inner, self.len_locked(&inner) - want);
        self.check_invariants(&inner);
        BlockBatch { first: None, rest: blocks, parked: 0, len: want, cache }
    }

    fn drain_all(&self) -> BlockBatch<T> {
        let mut inner = self.inner.lock();
        let len = self.len_locked(&inner);
        let blocks = std::mem::take(&mut inner.blocks);
        self.publish_len(&inner, 0);
        self.check_invariants(&inner);
        BlockBatch {
            first: None,
            rest: blocks,
            parked: 0,
            len,
            cache: Some(Arc::clone(&self.cache)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_fill_to_capacity() {
        let seg = BlockSegment::with_block_size(4);
        for i in 0..9 {
            seg.add(i);
        }
        assert_eq!(seg.len(), 9);
        assert_eq!(seg.block_count(), 3, "9 elements in blocks of 4 -> 3 blocks");
    }

    #[test]
    fn block_size_reads_without_contention() {
        // The config read must work even while the segment lock is held.
        let seg = BlockSegment::<u8>::with_block_size(7);
        let _lock = seg.inner.lock();
        assert_eq!(seg.block_size(), 7);
    }

    #[test]
    fn len_reads_without_the_lock() {
        // Occupancy, like block_size, must answer while the lock is held.
        let seg = BlockSegment::with_block_size(4);
        for i in 0..9 {
            seg.add(i);
        }
        let _lock = seg.inner.lock();
        assert_eq!(seg.len(), 9);
        assert!(!seg.is_empty());
    }

    #[test]
    fn remove_prunes_empty_blocks() {
        let seg = BlockSegment::with_block_size(2);
        seg.add(1);
        seg.add(2);
        seg.add(3);
        assert_eq!(seg.block_count(), 2);
        assert_eq!(seg.try_remove(), Some(3));
        assert_eq!(seg.block_count(), 1);
        assert_eq!(seg.try_remove(), Some(2));
        assert_eq!(seg.try_remove(), Some(1));
        assert_eq!(seg.block_count(), 0);
        assert!(seg.try_remove().is_none());
    }

    #[test]
    fn spent_blocks_are_stashed_not_freed() {
        let seg = BlockSegment::with_block_size(4);
        for i in 0..8 {
            seg.add(i);
        }
        assert_eq!(seg.spare_blocks(), 0);
        while seg.try_remove().is_some() {}
        assert_eq!(seg.spare_blocks(), 2, "both spent blocks stashed under the segment lock");
        for i in 0..8 {
            seg.add(i);
        }
        assert_eq!(seg.spare_blocks(), 0, "adds drew the stashed blocks back out");
    }

    #[test]
    fn stash_overflow_flushes_to_the_shared_cache_as_one_bundle() {
        let seg = BlockSegment::with_block_size(2);
        let blocks = SPARE_BLOCKS_MAX + 3;
        for i in 0..(2 * blocks) as u32 {
            seg.add(i);
        }
        while seg.try_remove().is_some() {}
        assert_eq!(seg.cached_bundles(), 1, "overflow left as a single bundle");
        assert_eq!(seg.spare_blocks(), blocks - (SPARE_BLOCKS_MAX + 1));
    }

    #[test]
    fn steal_moves_whole_blocks_when_possible() {
        let seg = BlockSegment::with_block_size(4);
        for i in 0..16 {
            seg.add(i);
        }
        // 16 elements, want 8 = exactly 2 front blocks, moved by handle.
        let stolen = seg.steal_half();
        assert_eq!(stolen.len(), 8);
        assert_eq!(stolen.block_count(), 2);
        let mut got = stolen.into_vec();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert_eq!(seg.len(), 8);
        assert_eq!(seg.block_count(), 2);
    }

    #[test]
    fn steal_splits_single_block() {
        let seg = BlockSegment::with_block_size(64);
        for i in 0..10 {
            seg.add(i);
        }
        assert_eq!(seg.block_count(), 1);
        let stolen = seg.steal_half();
        assert_eq!(stolen.len(), 5);
        assert_eq!(seg.len(), 5);
    }

    #[test]
    fn steal_exact_quota_with_partial_topup() {
        let seg = BlockSegment::with_block_size(4);
        for i in 0..10 {
            seg.add(i);
        }
        // want = 5: one whole block (4) + 1 from the next.
        let stolen = seg.steal_half();
        assert_eq!(stolen.len(), 5);
        assert_eq!(seg.len(), 5);
        // Conservation: everything still present exactly once.
        let mut all = stolen.into_vec();
        while let Some(x) = seg.try_remove() {
            all.push(x);
        }
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn add_bulk_splices_blocks_by_handle() {
        let victim = BlockSegment::with_block_size(3);
        let thief = BlockSegment::with_block_size(3);
        for i in 0..12 {
            victim.add(i);
        }
        let batch = victim.steal_half(); // 6 elements = 2 whole blocks
        assert_eq!(batch.block_count(), 2);
        thief.add_bulk(batch);
        assert_eq!(thief.len(), 6);
        assert_eq!(thief.block_count(), 2, "blocks arrive whole, not rebuilt");
    }

    #[test]
    fn add_bulk_vec_chunks_into_blocks() {
        let seg: BlockSegment<u32> = BlockSegment::with_block_size(4);
        seg.add(99); // partial back block gets topped off first
        seg.add_bulk_vec((0..10).collect());
        assert_eq!(seg.len(), 11);
        assert_eq!(seg.block_count(), 3, "11 elements in blocks of 4 -> 3 blocks");
    }

    #[test]
    fn block_batch_put_append_and_from_vec() {
        let mut batch: BlockBatch<u32> = BlockBatch::empty();
        assert!(batch.take_one().is_none());
        batch.put_one(1);
        batch.put_one(2);
        batch.append(BlockBatch::from_vec(vec![3, 4]));
        assert_eq!(batch.len(), 4);
        let mut got = batch.into_vec();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 4]);
        assert_eq!(BlockBatch::from_vec((0..40u32).collect()).block_count(), 3);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        let _ = BlockSegment::<u8>::with_block_size(0);
    }

    #[test]
    fn repeated_halving_drains() {
        let seg = BlockSegment::with_block_size(4);
        seg.add_bulk_vec((0..100).collect());
        let mut total = 0;
        loop {
            let batch = seg.steal_half();
            if batch.is_empty() {
                break;
            }
            total += batch.len();
        }
        assert_eq!(total, 100);
        assert!(seg.is_empty());
    }

    #[test]
    fn family_shares_one_bundle_cache() {
        let family = <BlockSegment<u32> as Segment>::new_family(2);
        // Fill and fully drain segment 0 with enough blocks to overflow
        // its private stash: the overflow parks in the family-wide cache.
        let elements = DEFAULT_BLOCK_SIZE as u32 * (SPARE_BLOCKS_MAX as u32 + 4);
        for i in 0..elements {
            family[0].add(i);
        }
        while family[0].try_remove().is_some() {}
        assert_eq!(family[0].cached_bundles(), 1);
        // Segment 1's adds draw that very bundle back out and run on its
        // blocks (its stash starts empty, so the first drought adopts the
        // flushed bundle; the displaced empty stash buffer may linger in
        // the cache as a pure shell).
        for i in 0..elements {
            family[1].add(i);
        }
        assert!(family[1].cached_bundles() <= 1, "the block bundle was consumed");
        assert_eq!(family[1].spare_blocks(), 0, "every drawn block is in service");
    }

    #[test]
    fn consumed_batch_returns_its_containers_on_drop() {
        let seg = BlockSegment::with_block_size(4);
        for i in 0..16 {
            seg.add(i);
        }
        let batch = seg.steal_half(); // 2 whole blocks, riding a shell
        assert_eq!(seg.cached_bundles(), 0);
        drop(batch); // unconsumed elements drop; containers come back
        assert_eq!(seg.cached_bundles(), 1, "the dropped batch left one bundle");
        assert_eq!(seg.len(), 8, "the pool side is untouched");
    }
}
