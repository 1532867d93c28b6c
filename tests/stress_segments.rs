//! N×M stress tests for the element segments themselves — the layer between
//! the lock-free primitives (`stress_primitives.rs`) and the whole-pool
//! suites: owner fleets churn `add`/`try_remove` on a segment family while
//! thief fleets run the two-phase `steal_half` → `add_bulk` transfer
//! between family members, under hard watchdog deadlines.
//!
//! Run for both element segments — the mutex deque and the block segment —
//! the driver asserts the two properties that survive any interleaving:
//!
//! * **conservation** — globally unique values, checksummed: every element
//!   added is consumed or still resident exactly once, so loss and
//!   duplication (a recycled block or shell that still held elements, a
//!   steal and an owner's remove both taking the same element) both shift
//!   the sum;
//! * **termination** — steals and removes keep making progress (the
//!   watchdog turns a deadlock — e.g. a thief still holding its victim's
//!   lock while it deposits into another segment — into a fast failure
//!   instead of a hung CI job).
//!
//! CI runs this file under `--release` behind a hard `timeout`, like the
//! primitive stress suite: optimized codegen shrinks the race windows the
//! dev profile masks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use cpool::{BlockSegment, Segment, TransferBatch, VecSegment};

/// Runs `scenario` on its own thread and panics if it does not finish
/// within `deadline` (the lifecycle-test watchdog pattern).
fn with_deadline(deadline: Duration, scenario: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        scenario();
        let _ = tx.send(());
    });
    match rx.recv_timeout(deadline) {
        Ok(()) => runner.join().expect("scenario panicked"),
        Err(_) => panic!("segment stress exceeded its {deadline:?} deadline: livelock"),
    }
}

const SEGMENTS: usize = 3;
const OWNERS: usize = 3;
const THIEVES: usize = 3;
const PER_OWNER: u64 = 20_000;

/// Values owner `o` adds: globally unique and nonzero, so duplication
/// shifts the checksum just as surely as loss.
fn values_of(o: usize) -> impl Iterator<Item = u64> {
    let base = o as u64 * PER_OWNER;
    (base..base + PER_OWNER).map(|v| v + 1)
}

fn expected_checksum() -> u64 {
    (0..OWNERS).flat_map(values_of).sum()
}

/// The generic fleet: `OWNERS` threads churn add/remove against their home
/// segment of a family while `THIEVES` threads continuously steal from
/// every segment and deposit into their own — elements bounce between
/// family members through the native batch currency the whole time.
fn segment_fleet_conservation<S: Segment<Item = u64>>() {
    let family = S::new_family(SEGMENTS);
    let consumed = AtomicU64::new(0);
    let live_owners = AtomicU64::new(OWNERS as u64);
    thread::scope(|s| {
        for o in 0..OWNERS {
            let (family, consumed, live_owners) = (&family, &consumed, &live_owners);
            s.spawn(move || {
                let home = &family[o % SEGMENTS];
                let mut sum = 0u64;
                for (i, v) in values_of(o).enumerate() {
                    home.add(v);
                    // Every other op, take one back — from anywhere in the
                    // family, since a thief may have moved ours.
                    if i % 2 == 0 {
                        for seg in family {
                            if let Some(got) = seg.try_remove() {
                                sum += got;
                                break;
                            }
                        }
                    }
                    if i % 1024 == 0 {
                        thread::yield_now();
                    }
                }
                consumed.fetch_add(sum, Ordering::Relaxed);
                live_owners.fetch_sub(1, Ordering::Release);
            });
        }
        for t in 0..THIEVES {
            let (family, live_owners) = (&family, &live_owners);
            s.spawn(move || {
                let mut rounds = 0usize;
                loop {
                    let victim = &family[(t + rounds) % SEGMENTS];
                    let target = &family[(t + rounds + 1) % SEGMENTS];
                    let batch = victim.steal_half();
                    // Deposit through the native currency — the emptied
                    // container recycles inside the family.
                    target.add_bulk(batch);
                    rounds += 1;
                    if live_owners.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    if rounds.is_multiple_of(64) {
                        thread::yield_now();
                    }
                }
            });
        }
    });
    // Settle the books single-threaded: residue + consumed == pushed.
    let mut residue = 0u64;
    for seg in &family {
        for v in seg.drain_all().into_vec() {
            residue += v;
        }
        assert!(seg.is_empty(), "drain_all leaves the segment empty");
        assert_eq!(seg.len(), 0, "occupancy agrees with emptiness at quiescence");
    }
    assert_eq!(
        consumed.load(Ordering::Relaxed) + residue,
        expected_checksum(),
        "every added value must be consumed or resident exactly once"
    );
}

#[test]
fn vec_segment_fleet_conservation() {
    with_deadline(Duration::from_secs(120), segment_fleet_conservation::<VecSegment<u64>>);
}

#[test]
fn block_segment_fleet_conservation() {
    with_deadline(Duration::from_secs(120), segment_fleet_conservation::<BlockSegment<u64>>);
}
