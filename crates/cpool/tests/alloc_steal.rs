//! The transfer layer's headline guarantee: the **steady-state steal path
//! performs zero heap allocations**, on both frontends.
//!
//! Blocks and transfer shells are recycled through per-pool free lists
//! (`cpool::transfer`), so once a pool has warmed up — its blocks, batch
//! shells, and bucket capacities grown to the workload's footprint — a
//! producer/thief cycle of adds, steals (two-phase drain + refill), and
//! removes touches the allocator not at all. This file installs a counting
//! `#[global_allocator]` and asserts exactly that.
//!
//! The test lives in its own integration-test binary because a global
//! allocator is process-wide. Counting is scoped to the *measuring thread*
//! (armed flag + a const-initialized thread-local): the libtest harness
//! thread stays alive beside the test and occasionally allocates, and the
//! guarantee under test is about the thread executing the steal path, not
//! about bystanders.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use cpool::{BlockSegment, KeyedPool, LinearSearch, Pool, PoolBuilder, Segment, VecSegment};

/// Counts allocator hits (alloc + realloc) from the armed thread.
struct CountingAlloc;

static HITS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `const` init: reading this inside the allocator performs no lazy
    // initialization and therefore cannot itself allocate or recurse.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn armed() -> bool {
    ARMED.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            HITS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if armed() {
            HITS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            HITS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `op` with this thread's counter armed and returns the number of
/// allocator hits it caused.
fn count_allocs(op: impl FnOnce()) -> usize {
    HITS.store(0, Ordering::SeqCst);
    ARMED.with(|armed| armed.set(true));
    op();
    ARMED.with(|armed| armed.set(false));
    HITS.load(Ordering::SeqCst)
}

const WARMUP_ROUNDS: usize = 50;
const MEASURED_ROUNDS: usize = 50;
/// Elements the producer adds per round; the thief steals ⌈n/2⌉ of them.
const PER_ROUND: u64 = 64;

/// One steady-state round on the plain pool: the victim produces a burst,
/// the thief's first remove runs the full search + two-phase steal-half
/// transfer (32 elements: one kept, 31 refilled into its home segment),
/// both sides then consume their halves so every block/shell cycles back
/// through the pool's free lists.
fn pool_round<S: Segment<Item = u64>>(
    thief: &mut cpool::Handle<S, LinearSearch>,
    victim: &mut cpool::Handle<S, LinearSearch>,
) {
    for i in 0..PER_ROUND {
        victim.add(i);
    }
    for _ in 0..PER_ROUND / 2 {
        thief.try_remove().expect("victim produced this round");
    }
    for _ in 0..PER_ROUND / 2 {
        victim.try_remove().expect("residue is local");
    }
}

fn check_pool_frontend<S: Segment<Item = u64>>(name: &str) {
    let pool: Pool<S, LinearSearch> = PoolBuilder::new(2).build();
    let mut thief = pool.register(); // home segment 0
    let mut victim = pool.register(); // home segment 1
    for _ in 0..WARMUP_ROUNDS {
        pool_round(&mut thief, &mut victim);
    }
    assert_eq!(pool.total_len(), 0, "{name}: rounds are balanced");
    let hits = count_allocs(|| {
        for _ in 0..MEASURED_ROUNDS {
            pool_round(&mut thief, &mut victim);
        }
    });
    let steals = thief.stats().steals;
    assert!(steals >= (WARMUP_ROUNDS + MEASURED_ROUNDS) as u64, "{name}: every round stole");
    assert_eq!(
        hits, 0,
        "{name}: steady-state add/steal/refill/remove cycle must not allocate \
         ({MEASURED_ROUNDS} rounds, {steals} steals total)"
    );
}

/// The vendored lock-free Treiber stack (`crossbeam_queue::Stack`, the
/// unbounded alternative to the bounded ring the free lists ride on) keeps
/// popped nodes on an internal spares list and reuses them for later
/// pushes, so past the high-water mark a push/pop churn performs zero
/// allocations — `pop` never frees, `push` only allocates when no spare
/// exists.
#[test]
fn treiber_free_list_steady_state_allocates_nothing() {
    use crossbeam_queue::Stack;

    let stack = Stack::new();
    // Warm to the high-water mark: every node the measured churn needs is
    // allocated here once and then recycled through the spares list.
    for i in 0..PER_ROUND {
        stack.push(i);
    }
    for _ in 0..PER_ROUND {
        stack.pop().expect("warmed");
    }
    let hits = count_allocs(|| {
        for _ in 0..MEASURED_ROUNDS {
            for i in 0..PER_ROUND {
                stack.push(i);
            }
            for _ in 0..PER_ROUND {
                stack.pop().expect("pushed this round");
            }
        }
    });
    assert_eq!(
        hits, 0,
        "Stack must recycle nodes: {MEASURED_ROUNDS} rounds of {PER_ROUND} push/pop pairs \
         past the high-water mark"
    );
}

/// Keys one keyed round cycles: enough to grow each segment's bucket table
/// and ordered key set past a single entry, fewer than the 64 empty buckets
/// a segment keeps resident, so no bucket is evicted.
const KEYS: u8 = 48;

/// One steady-state round on the keyed pool: the [`pool_round`] cycle once
/// per key, so the thief steals half of every key's bucket.
fn keyed_round(thief: &mut cpool::KeyedHandle<u8, u64>, victim: &mut cpool::KeyedHandle<u8, u64>) {
    for key in 0..KEYS {
        for i in 0..PER_ROUND {
            victim.add(key, i);
        }
        for _ in 0..PER_ROUND / 2 {
            thief.try_remove_key(&key).expect("victim produced this round");
        }
        for _ in 0..PER_ROUND / 2 {
            victim.try_remove_key(&key).expect("residue is local");
        }
    }
}

#[test]
fn steady_state_steal_paths_allocate_nothing() {
    // Frontend 1a: the plain pool over block segments — whole blocks move
    // by handle through the two-phase transfer and recycle through the
    // family's block cache.
    check_pool_frontend::<BlockSegment<u64>>("Pool<BlockSegment>");

    // Frontend 1b: the plain pool over vec segments — the transfer vector
    // itself is a recycled shell from the family's cache.
    check_pool_frontend::<VecSegment<u64>>("Pool<VecSegment>");

    // Lone-element steals on the block pool: with a single element stolen
    // the two-phase probe's refill leg is a pure container return, and the
    // shell circulating between steals is what carries the spent block
    // back to the producer.
    let pool: Pool<BlockSegment<u64>, LinearSearch> = PoolBuilder::new(2).build();
    let mut thief = pool.register();
    let mut victim = pool.register();
    for i in 0..WARMUP_ROUNDS as u64 {
        victim.add(i);
        thief.try_remove().expect("victim holds one element");
    }
    let hits = count_allocs(|| {
        for i in 0..MEASURED_ROUNDS as u64 {
            victim.add(i);
            thief.try_remove().expect("victim holds one element");
        }
    });
    assert_eq!(hits, 0, "lone-element block steal cycle must not allocate");

    // Frontend 2: the keyed pool — keyed steals fill recycled shells and
    // emptied buckets stay resident, so bucket capacity, hash-table entries
    // and the ordered key set are reused across rounds.
    let pool: KeyedPool<u8, u64> = KeyedPool::new(2);
    let mut thief = pool.register();
    let mut victim = pool.register();
    for _ in 0..WARMUP_ROUNDS {
        keyed_round(&mut thief, &mut victim);
    }
    assert_eq!(pool.total_len(), 0, "keyed: rounds are balanced");
    let hits = count_allocs(|| {
        for _ in 0..MEASURED_ROUNDS {
            keyed_round(&mut thief, &mut victim);
        }
    });
    let rounds = (WARMUP_ROUNDS + MEASURED_ROUNDS) as u64;
    assert!(thief.stats().steals >= rounds * u64::from(KEYS), "keyed: every key was stolen");
    assert_eq!(pool.stats().pool.bucket_evictions, 0, "keyed: every bucket stayed resident");
    assert_eq!(
        hits, 0,
        "KeyedPool: steady-state keyed add/steal/refill/remove cycle over {KEYS} keys must not \
         allocate"
    );
}
