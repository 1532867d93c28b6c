//! Pool segments: the per-processor local component of a concurrent pool.
//!
//! Manber's pool partitions its elements into one segment per processor;
//! each process adds to and removes from its own segment, and *steals
//! roughly half* of a remote segment when its own runs dry.
//!
//! Two families are provided:
//!
//! * **Counting segments** ([`LockedCounter`], [`AtomicCounter`]) store only
//!   the number of elements. This is the simplification §3.2 of Kotz &
//!   Ellis (1989) adopts for measurement: "we simplified the segments,
//!   representing them as a single counter that is atomically added to,
//!   subtracted from, or split in half", which "minimizes the time involved
//!   in segment operations, allowing the search time to dominate".
//! * **Element segments** ([`VecSegment`], [`BlockSegment`]) store real
//!   values, for applications (the paper's tic-tac-toe study stores game
//!   positions). [`VecSegment`] moves flat vectors; [`BlockSegment`] moves
//!   whole blocks.
//!
//! # The steal rule
//!
//! [`Segment::steal_half`] implements the paper's rule: take
//! ⌈n/2⌉ elements, which for `n == 1` degenerates to "that element is taken
//! immediately". The victim keeps ⌊n/2⌋.
//!
//! # The transfer currency
//!
//! Batch-moving operations are typed over the segment's associated
//! [`Batch`](Segment::Batch), a [`TransferBatch`], so each representation
//! transfers in its native currency: counting segments move a bare
//! [`CountBatch`](crate::transfer::CountBatch), [`VecSegment`] a plain
//! vector, and [`BlockSegment`] a [`BlockBatch`] of whole blocks — pointer
//! moves, no flattening. See [`transfer`](crate::transfer) for the design
//! and for the pooled free lists that make the steady-state transfer paths
//! allocation-free.

mod block;
mod counting;
mod vec;

pub use block::{BlockBatch, BlockSegment};
pub use counting::{AtomicCounter, LockedCounter};
pub use vec::VecSegment;

use crate::transfer::TransferBatch;

/// A single pool segment.
///
/// All methods take `&self`: segments are internally synchronized so that a
/// remote thief and the local owner can race safely. Implementations must
/// never hold an internal lock while calling user code.
///
/// # Consistency
///
/// `len` is a snapshot: by the time the caller inspects the value another
/// process may have changed the segment. The pool's algorithms only use it
/// as a hint (probing emptiness) and for instrumentation.
///
/// Because the search engine now consults that hint *before* draining a
/// victim — an `is_empty` answer skips the victim's lock entirely —
/// implementations should make `len`/`is_empty` cheap and non-blocking.
/// Every in-tree segment answers from an atomic occupancy counter for
/// exactly this reason. For the element segments and [`LockedCounter`]
/// that counter is a *mirror*, written under the segment's lock after
/// each mutation; [`AtomicCounter`] has no lock, so its counter is the
/// count itself. A third-party segment whose `len` takes its internal
/// lock stays *correct* (the hint is re-validated by `steal_half` under
/// the lock), it just forfeits the empty-probe fast path; one whose `len`
/// over-reports emptiness would make probes skip real elements, which the
/// contract forbids — the hint may lag a racing add, but must reflect
/// every mutation this segment has completed. See the README's
/// "lock-free internals" section for the migration note.
///
/// # Implementing the trait
///
/// Simple segments set `type Batch = Vec<Self::Item>` (the
/// [`TransferBatch`] impl for `Vec` is the compatibility shim — method
/// bodies that already produce and consume vectors keep compiling
/// unchanged) and take the provided [`remove_up_to`](Self::remove_up_to) /
/// [`drain_all`](Self::drain_all) defaults. Representations with a cheaper
/// native currency define their own batch type, as [`BlockSegment`] does.
pub trait Segment: Send + Sync + 'static {
    /// The element type stored in the segment.
    ///
    /// Counting segments use `()`: the elements are indistinguishable, so
    /// their transfers carry only a count.
    type Item: Send + 'static;

    /// The currency of batch transfers: what a steal hands over, a refill
    /// deposits, and a batched remove returns.
    ///
    /// Use `Vec<Self::Item>` unless the representation can move elements
    /// more cheaply in bulk ([`BlockSegment`] moves whole blocks, counting
    /// segments move a bare count).
    type Batch: TransferBatch<Item = Self::Item>;

    /// Creates an empty segment.
    fn new() -> Self
    where
        Self: Sized;

    /// Creates the `count` segments of one pool.
    ///
    /// Segments created together may share pooled resources — the in-tree
    /// element segments share one per-pool free list of recycled blocks and
    /// batch shells ([`transfer`](crate::transfer)), so a block freed by a
    /// consumer's segment refills a producer's without touching the
    /// allocator. The default builds `count` independent segments with
    /// [`new`](Self::new), which keeps third-party implementations
    /// compiling (and correct — sharing is an optimization, never a
    /// semantic requirement).
    fn new_family(count: usize) -> Vec<Self>
    where
        Self: Sized,
    {
        (0..count).map(|_| Self::new()).collect()
    }

    /// Adds one element to the segment.
    fn add(&self, item: Self::Item);

    /// Removes an arbitrary element, or `None` if the segment is empty.
    fn try_remove(&self) -> Option<Self::Item>;

    /// Number of elements currently in the segment (snapshot).
    fn len(&self) -> usize;

    /// Whether the segment is currently empty (snapshot).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Atomically removes ⌈n/2⌉ of the `n` elements present and returns
    /// them; returns an empty batch if the segment was empty.
    ///
    /// This is the thief side of the steal protocol. The batch is handed
    /// back by value so the thief can move it into its own segment without
    /// ever holding two segment locks at once (deadlock freedom by
    /// construction).
    fn steal_half(&self) -> Self::Batch;

    /// Adds a batch of elements (the thief refilling its own segment).
    ///
    /// Implementations should accept the batch in its native currency —
    /// [`BlockSegment`] splices whole blocks into its own list — and
    /// recycle the batch's container through the pool's free lists where
    /// one exists.
    fn add_bulk(&self, batch: Self::Batch);

    /// Adds a batch of elements supplied as a plain vector (the frontends'
    /// `add_batch`).
    ///
    /// The default converts through
    /// [`TransferBatch::from_vec`] and delegates to
    /// [`add_bulk`](Self::add_bulk); [`BlockSegment`] overrides it to
    /// chunk the elements straight into recycled blocks under its lock,
    /// skipping the intermediate batch's fresh allocations.
    fn add_bulk_vec(&self, items: Vec<Self::Item>) {
        self.add_bulk(Self::Batch::from_vec(items));
    }

    /// Removes up to `n` arbitrary elements in one batch.
    ///
    /// This is the owner side of the batched remove
    /// ([`PoolOps::try_remove_batch`](crate::PoolOps::try_remove_batch)):
    /// implementations take their internal lock **once** for the whole
    /// batch. The default implementation is a per-element
    /// [`try_remove`](Self::try_remove) loop, provided so third-party
    /// segments keep compiling; every in-tree segment overrides it.
    fn remove_up_to(&self, n: usize) -> Self::Batch {
        let mut out = Self::Batch::empty();
        while out.len() < n {
            match self.try_remove() {
                Some(item) => out.put_one(item),
                None => break,
            }
        }
        out
    }

    /// Removes every element currently present, in one batch.
    ///
    /// Like [`remove_up_to`](Self::remove_up_to), implementations take the
    /// lock once; the default loops until the segment reports empty.
    fn drain_all(&self) -> Self::Batch {
        self.remove_up_to(usize::MAX)
    }
}

/// Number of elements a thief takes from a segment of length `n`: ⌈n/2⌉.
///
/// Exposed so tests and analytical models can share the exact rule.
///
/// ```
/// use cpool::segment::steal_count;
/// assert_eq!(steal_count(0), 0);
/// assert_eq!(steal_count(1), 1); // "taken immediately"
/// assert_eq!(steal_count(2), 1);
/// assert_eq!(steal_count(9), 5);
/// ```
pub fn steal_count(n: usize) -> usize {
    n - n / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_count_is_ceil_half() {
        for n in 0..1000 {
            assert_eq!(steal_count(n), n.div_ceil(2));
        }
    }

    #[test]
    fn steal_count_leaves_floor_half() {
        for n in 0..1000 {
            assert_eq!(n - steal_count(n), n / 2);
        }
    }

    /// Generic contract test run against every segment implementation,
    /// exercised purely through the batch-typed trait surface.
    fn check_contract<S: Segment<Item = ()>>() {
        let seg = S::new();
        assert!(seg.is_empty());
        assert_eq!(seg.len(), 0);
        assert!(seg.try_remove().is_none());
        assert!(seg.steal_half().is_empty());

        for _ in 0..10 {
            seg.add(());
        }
        assert_eq!(seg.len(), 10);
        assert!(!seg.is_empty());

        let stolen = seg.steal_half();
        assert_eq!(stolen.len(), 5);
        assert_eq!(seg.len(), 5);

        seg.add_bulk(stolen);
        assert_eq!(seg.len(), 10);

        let mut removed = 0;
        while seg.try_remove().is_some() {
            removed += 1;
        }
        assert_eq!(removed, 10);
        assert!(seg.is_empty());

        // Batch removal contract: bounded take, then a full drain.
        seg.add_bulk(S::Batch::from_vec(vec![(); 7]));
        assert_eq!(seg.remove_up_to(3).len(), 3);
        assert_eq!(seg.remove_up_to(100).len(), 4, "remove_up_to is bounded by occupancy");
        assert!(seg.remove_up_to(5).is_empty());
        seg.add_bulk(S::Batch::from_vec(vec![(); 6]));
        assert_eq!(seg.drain_all().len(), 6);
        assert!(seg.is_empty());
        assert!(seg.drain_all().is_empty());
    }

    #[test]
    fn locked_counter_contract() {
        check_contract::<LockedCounter>();
    }

    #[test]
    fn atomic_counter_contract() {
        check_contract::<AtomicCounter>();
    }

    fn check_element_contract<S: Segment<Item = u32>>() {
        let seg = S::new();
        for i in 0..9u32 {
            seg.add(i);
        }
        let stolen = seg.steal_half();
        assert_eq!(stolen.len(), 5);
        assert_eq!(seg.len(), 4);
        // Between them, the stolen batch and the residue hold exactly the
        // original elements (the pool is unordered but must conserve items).
        let mut all: Vec<u32> = stolen.into_vec();
        while let Some(x) = seg.try_remove() {
            all.push(x);
        }
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());

        // Batched removal conserves values exactly like per-element ops.
        for i in 10..20u32 {
            seg.add(i);
        }
        let batched = seg.remove_up_to(4);
        assert_eq!(batched.len(), 4);
        let mut batched = batched.into_vec();
        batched.extend(seg.drain_all().into_vec());
        batched.sort_unstable();
        assert_eq!(batched, (10..20).collect::<Vec<_>>());
        assert!(seg.is_empty());
    }

    #[test]
    fn vec_segment_contract() {
        check_element_contract::<VecSegment<u32>>();
    }

    #[test]
    fn block_segment_contract() {
        check_element_contract::<BlockSegment<u32>>();
    }

    #[test]
    fn single_element_taken_immediately() {
        let seg = VecSegment::<u32>::new();
        seg.add(42);
        let stolen = seg.steal_half();
        assert_eq!(stolen, vec![42], "a lone element is taken outright");
        assert!(seg.is_empty());
    }

    #[test]
    fn new_family_defaults_to_independent_segments() {
        // The default hook just builds `count` fresh segments.
        let family = <LockedCounter as Segment>::new_family(3);
        assert_eq!(family.len(), 3);
        family[0].add(());
        assert_eq!(family[0].len(), 1);
        assert_eq!(family[1].len(), 0);
    }
}
