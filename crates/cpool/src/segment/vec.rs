//! Element segment backed by a deque.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use super::{steal_count, Segment};
use crate::transfer::{FreeList, SHELL_SPILL_MAX, SHELL_SPILL_MIN};

/// Vector shells a pool-wide cache retains per segment of the family.
const CACHED_SHELLS_PER_SEGMENT: usize = 2;

/// A segment storing real elements in a mutex-protected deque.
///
/// Local operations are LIFO (`add` pushes and `try_remove` pops the back),
/// which gives task-scheduling workloads the locality of a work-stealing
/// deque: a process keeps working on what it most recently produced.
/// Thieves take the ⌈n/2⌉ *oldest* elements from the front, which both
/// matches the "split half" rule and minimizes contention with the owner's
/// end.
///
/// Transfers travel as plain `Vec` batches whose backing vectors are
/// recycled through a pool-wide free list (shared via
/// [`Segment::new_family`]): `steal_half` fills a recycled shell and
/// `add_bulk` returns it, so the steady-state steal/refill cycle allocates
/// nothing once the shells have grown to the transfer size.
///
/// The pool's element order is unspecified by contract; this layout is an
/// implementation choice, not an ordering guarantee.
///
/// Occupancy is mirrored in an atomic counter maintained by the locked
/// mutation paths (every store happens while the mutex is held), so
/// [`len`](Segment::len) / [`is_empty`](Segment::is_empty) never touch the
/// lock — search probes observe emptiness without contending with the
/// owner.
///
/// ```
/// use cpool::segment::{Segment, VecSegment};
/// let seg = VecSegment::new();
/// seg.add("a");
/// seg.add("b");
/// assert_eq!(seg.try_remove(), Some("b")); // LIFO locally
/// ```
#[derive(Debug)]
pub struct VecSegment<T> {
    items: Mutex<VecDeque<T>>,
    /// Lock-free occupancy mirror: written (`Release`) only while `items`
    /// is locked, read (`Acquire`) without the lock by `len`/`is_empty`.
    len: AtomicUsize,
    shells: Arc<FreeList<Vec<T>>>,
}

impl<T> VecSegment<T> {
    fn with_shells(shells: Arc<FreeList<Vec<T>>>) -> Self {
        VecSegment { items: Mutex::new(VecDeque::new()), len: AtomicUsize::new(0), shells }
    }

    /// Publishes the locked deque's length to the lock-free mirror; must be
    /// called with the `items` lock held, after the mutation.
    fn publish_len(&self, items: &VecDeque<T>) {
        self.len.store(items.len(), Ordering::Release);
    }
}

impl<T> Default for VecSegment<T> {
    fn default() -> Self {
        Self::with_shells(Arc::new(FreeList::new(CACHED_SHELLS_PER_SEGMENT + 2)))
    }
}

impl<T: Send + 'static> Segment for VecSegment<T> {
    type Item = T;
    type Batch = Vec<T>;

    fn new() -> Self {
        Self::default()
    }

    /// One pool's segments share a single shell cache, so the vector a
    /// thief carried its last steal in is reused for the next transfer
    /// anywhere in the pool.
    fn new_family(count: usize) -> Vec<Self> {
        let shells = Arc::new(FreeList::new(CACHED_SHELLS_PER_SEGMENT * count.max(1) + 2));
        (0..count).map(|_| Self::with_shells(Arc::clone(&shells))).collect()
    }

    fn add(&self, item: T) {
        let mut items = self.items.lock();
        items.push_back(item);
        self.publish_len(&items);
    }

    fn try_remove(&self) -> Option<T> {
        let mut items = self.items.lock();
        let item = items.pop_back();
        self.publish_len(&items);
        item
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    fn steal_half(&self) -> Vec<T> {
        let mut items = self.items.lock();
        let taken = steal_count(items.len());
        if taken == 0 {
            return Vec::new(); // no allocation: an empty Vec is a null cap
        }
        if taken < SHELL_SPILL_MIN {
            // A tiny steal: the allocator's small-size fast path beats a
            // free-list round trip.
            let batch = items.drain(..taken).collect();
            self.publish_len(&items);
            return batch;
        }
        // A bulk steal fills a recycled shell (capacity carried over from
        // an earlier transfer) instead of collecting into a fresh vector.
        let mut batch = self.shells.take().unwrap_or_default();
        batch.extend(items.drain(..taken));
        self.publish_len(&items);
        batch
    }

    fn add_bulk(&self, mut batch: Vec<T>) {
        if !batch.is_empty() {
            let mut items = self.items.lock();
            items.extend(batch.drain(..));
            self.publish_len(&items);
        }
        // The drained shell goes back to the pool's cache for the next
        // bulk steal (lock already released); undersized shells are not
        // worth the round trip and would dilute the cache, oversized ones
        // (a huge add_batch's backing buffer) would pin unbounded memory.
        if (SHELL_SPILL_MIN..=SHELL_SPILL_MAX).contains(&batch.capacity()) {
            self.shells.put(batch);
        }
    }

    fn remove_up_to(&self, n: usize) -> Vec<T> {
        let mut items = self.items.lock();
        let take = n.min(items.len());
        // Take from the back — the owner's hot (LIFO) end, like
        // `try_remove` — under a single lock acquisition. The result leaves
        // the pool with the caller, so it is a plain allocation, not a
        // cache draw (a shell handed out could never come back).
        let at = items.len() - take;
        let batch = items.drain(at..).collect();
        self.publish_len(&items);
        batch
    }

    fn drain_all(&self) -> Vec<T> {
        let mut items = self.items.lock();
        let drained = std::mem::take(&mut *items);
        self.publish_len(&items);
        drained.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_ops_are_lifo() {
        let seg = VecSegment::new();
        for i in 0..5 {
            seg.add(i);
        }
        assert_eq!(seg.try_remove(), Some(4));
        assert_eq!(seg.try_remove(), Some(3));
    }

    #[test]
    fn steal_takes_oldest() {
        let seg = VecSegment::new();
        for i in 0..6 {
            seg.add(i);
        }
        assert_eq!(seg.steal_half(), vec![0, 1, 2]);
        assert_eq!(seg.try_remove(), Some(5), "owner's hot end untouched");
    }

    #[test]
    fn steal_then_refill_conserves() {
        let a = VecSegment::new();
        let b = VecSegment::new();
        for i in 0..100 {
            a.add(i);
        }
        // Simulate the pool's two-phase steal: drain victim, then refill own.
        let batch = a.steal_half();
        b.add_bulk(batch);
        assert_eq!(a.len() + b.len(), 100);
        assert_eq!(b.len(), 50);
    }

    #[test]
    fn refill_recycles_the_shell() {
        let family = <VecSegment<u32> as Segment>::new_family(2);
        for i in 0..40 {
            family[0].add(i);
        }
        let batch = family[0].steal_half();
        let cap = batch.capacity();
        assert!(cap >= 20);
        family[1].add_bulk(batch);
        // The next steal anywhere in the family reuses that very shell.
        let again = family[1].steal_half();
        assert_eq!(again.capacity(), cap, "shell came back from the cache");
        assert_eq!(again.len(), 10);
    }

    #[test]
    fn len_reads_without_the_lock() {
        let seg = VecSegment::new();
        seg.add(1);
        seg.add(2);
        // The occupancy mirror must answer even while the mutex is held.
        let _lock = seg.items.lock();
        assert_eq!(seg.len(), 2);
        assert!(!seg.is_empty());
    }

    #[test]
    fn empty_steal_is_empty() {
        let seg = VecSegment::<u8>::new();
        assert!(seg.steal_half().is_empty());
    }

    #[test]
    fn add_bulk_of_nothing_is_noop() {
        let seg = VecSegment::<u8>::new();
        seg.add_bulk(Vec::new());
        assert!(seg.is_empty());
    }
}
