//! Property-based tests for the segment implementations: every segment kind
//! must behave like a simple model (a multiset / a counter) under arbitrary
//! operation sequences, `steal_half` must obey the paper's ⌈n/2⌉ rule, and
//! the batch-typed transfer layer must conserve elements — a steal→refill
//! hop between segments is a multiset identity, whatever currency
//! ([`Vec`], `CountBatch`, `BlockBatch`) the segment family transfers in.

use proptest::prelude::*;

use cpool::segment::steal_count;
use cpool::transfer::TransferBatch;
use cpool::{AtomicCounter, BlockSegment, LockedCounter, Segment, VecSegment};

/// One step of a generated workload.
#[derive(Clone, Copy, Debug)]
enum Step {
    Add(u32),
    Remove,
    StealHalf,
    AddBulk(u8),
    RemoveUpTo(u8),
    DrainAll,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..1000).prop_map(Step::Add),
            Just(Step::Remove),
            Just(Step::StealHalf),
            (0u8..16).prop_map(Step::AddBulk),
            (0u8..24).prop_map(Step::RemoveUpTo),
            Just(Step::DrainAll),
        ],
        0..200,
    )
}

/// Drives a counting segment and a plain integer model in lockstep, through
/// the full batch-typed surface.
fn check_counting_model<S: Segment<Item = ()>>(script: &[Step]) {
    let seg = S::new();
    let mut model: usize = 0;
    for step in script {
        match step {
            Step::Add(_) => {
                seg.add(());
                model += 1;
            }
            Step::Remove => {
                let got = seg.try_remove().is_some();
                assert_eq!(got, model > 0, "remove succeeds iff non-empty");
                if got {
                    model -= 1;
                }
            }
            Step::StealHalf => {
                let stolen = seg.steal_half();
                assert_eq!(stolen.len(), steal_count(model), "⌈n/2⌉ rule");
                model -= stolen.len();
            }
            Step::AddBulk(k) => {
                seg.add_bulk(S::Batch::from_vec(vec![(); *k as usize]));
                model += *k as usize;
            }
            Step::RemoveUpTo(k) => {
                let got = seg.remove_up_to(*k as usize);
                assert_eq!(got.len(), model.min(*k as usize), "bounded by occupancy");
                model -= got.len();
            }
            Step::DrainAll => {
                let got = seg.drain_all();
                assert_eq!(got.len(), model, "drain takes everything");
                model = 0;
            }
        }
        assert_eq!(seg.len(), model, "len tracks the model");
        assert_eq!(seg.is_empty(), model == 0);
    }
}

/// Drives an element segment and a multiset model in lockstep: elements are
/// conserved and never invented, whichever batch currency they travel in.
fn check_element_model<S: Segment<Item = u32>>(script: &[Step]) {
    let seg = S::new();
    let mut model: Vec<u32> = Vec::new();
    let mut next_bulk = 10_000u32;
    let drain_from_model = |model: &mut Vec<u32>, batch: S::Batch| {
        for v in batch.into_vec() {
            let at = model.iter().position(|&m| m == v).expect("batched a known value");
            model.swap_remove(at);
        }
    };
    for step in script {
        match step {
            Step::Add(v) => {
                seg.add(*v);
                model.push(*v);
            }
            Step::Remove => match seg.try_remove() {
                Some(v) => {
                    let at = model.iter().position(|&m| m == v).expect("removed a known value");
                    model.swap_remove(at);
                }
                None => assert!(model.is_empty()),
            },
            Step::StealHalf => {
                let stolen = seg.steal_half();
                assert_eq!(stolen.len(), steal_count(model.len()));
                drain_from_model(&mut model, stolen);
            }
            Step::AddBulk(k) => {
                let batch: Vec<u32> = (0..*k as u32).map(|i| next_bulk + i).collect();
                next_bulk += u32::from(*k);
                model.extend(&batch);
                seg.add_bulk(S::Batch::from_vec(batch));
            }
            Step::RemoveUpTo(k) => {
                let got = seg.remove_up_to(*k as usize);
                assert_eq!(got.len(), model.len().min(*k as usize));
                drain_from_model(&mut model, got);
            }
            Step::DrainAll => {
                let got = seg.drain_all();
                assert_eq!(got.len(), model.len());
                drain_from_model(&mut model, got);
                assert!(model.is_empty());
            }
        }
        assert_eq!(seg.len(), model.len());
    }
    // Drain and compare the full multiset.
    let mut rest = Vec::new();
    while let Some(v) = seg.try_remove() {
        rest.push(v);
    }
    rest.sort_unstable();
    model.sort_unstable();
    assert_eq!(rest, model, "the segment holds exactly the model's elements");
}

/// The steal→refill identity, run generically against any segment family:
/// interleaved steals from a victim family member refilled into a thief
/// member (the pool's two-phase transfer), mixed with single-element and
/// batched traffic, never create or destroy an element. Checked on the
/// *count* so it covers counting segments too; the element-level multiset
/// version rides `check_element_model`.
fn check_transfer_conservation<S: Segment<Item = ()>>(script: &[Step], seed_elems: usize) {
    let family = S::new_family(2);
    let (victim, thief) = (&family[0], &family[1]);
    for _ in 0..seed_elems {
        victim.add(());
    }
    let mut total = seed_elems;
    for step in script {
        match step {
            Step::Add(_) => {
                victim.add(());
                total += 1;
            }
            Step::Remove => {
                if thief.try_remove().is_some() {
                    total -= 1;
                }
            }
            Step::StealHalf => {
                // The two-phase transfer: drain the victim, refill the
                // thief, no element in flight afterwards.
                let stolen = victim.steal_half();
                let moved = stolen.len();
                thief.add_bulk(stolen);
                assert_eq!(victim.len() + thief.len(), total, "steal→refill conserves ({moved})");
            }
            Step::AddBulk(k) => {
                thief.add_bulk(S::Batch::from_vec(vec![(); *k as usize]));
                total += *k as usize;
            }
            Step::RemoveUpTo(k) => {
                total -= victim.remove_up_to(*k as usize).len();
            }
            Step::DrainAll => {
                // Drain one side and push everything to the other: the
                // harshest whole-batch hop.
                let all = thief.drain_all();
                victim.add_bulk(all);
            }
        }
        assert_eq!(victim.len() + thief.len(), total, "family-wide conservation");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn locked_counter_matches_model(script in steps()) {
        check_counting_model::<LockedCounter>(&script);
    }

    #[test]
    fn atomic_counter_matches_model(script in steps()) {
        check_counting_model::<AtomicCounter>(&script);
    }

    #[test]
    fn vec_segment_matches_model(script in steps()) {
        check_element_model::<VecSegment<u32>>(&script);
    }

    #[test]
    fn block_segment_matches_model(script in steps()) {
        check_element_model::<BlockSegment<u32>>(&script);
    }

    // The generic steal→refill conservation property, against all the
    // segment families (counting ones model the elements as units).

    #[test]
    fn locked_counter_transfer_conserves(script in steps(), seed in 0usize..64) {
        check_transfer_conservation::<LockedCounter>(&script, seed);
    }

    #[test]
    fn atomic_counter_transfer_conserves(script in steps(), seed in 0usize..64) {
        check_transfer_conservation::<AtomicCounter>(&script, seed);
    }

    #[test]
    fn vec_segment_transfer_conserves(script in steps(), seed in 0usize..64) {
        check_transfer_conservation::<VecSegment<()>>(&script, seed);
    }

    #[test]
    fn block_segment_transfer_conserves(script in steps(), seed in 0usize..64) {
        check_transfer_conservation::<BlockSegment<()>>(&script, seed);
    }

    /// Element-level steal→refill multiset identity between two block
    /// segments: the zero-copy block hop moves exactly the stolen values.
    #[test]
    fn block_steal_refill_multiset_identity(
        initial in 0usize..300,
        hops in 1usize..8,
    ) {
        let family = <BlockSegment<u32> as Segment>::new_family(2);
        for i in 0..initial as u32 {
            family[0].add(i);
        }
        for hop in 0..hops {
            let (victim, thief) = (&family[hop % 2], &family[(hop + 1) % 2]);
            let stolen = victim.steal_half();
            prop_assert_eq!(stolen.len(), steal_count(victim.len() + stolen.len()) , "⌈n/2⌉");
            thief.add_bulk(stolen);
        }
        // Whatever bounced between the two segments, the multiset is intact.
        let mut all: Vec<u32> = family[0].drain_all().into_vec();
        all.extend(family[1].drain_all().into_vec());
        all.sort_unstable();
        prop_assert_eq!(all, (0..initial as u32).collect::<Vec<_>>());
    }

    /// The steal rule itself: thief takes ⌈n/2⌉, victim keeps ⌊n/2⌋, and a
    /// repeated steal geometrically drains any segment in ≤ log2(n)+1 steps.
    #[test]
    fn steal_count_properties(n in 0usize..1_000_000) {
        let taken = steal_count(n);
        prop_assert_eq!(taken + n / 2, n, "takes ⌈n/2⌉, leaves ⌊n/2⌋");
        prop_assert!(taken <= n);
        if n > 0 {
            prop_assert!(taken >= 1, "a non-empty segment always yields");
        }
        // Geometric drain bound.
        let mut left = n;
        let mut rounds = 0;
        while left > 0 {
            left -= steal_count(left);
            rounds += 1;
        }
        prop_assert!(rounds <= n.max(1).ilog2() as usize + 2, "drains in O(log n) steals");
    }

    /// Concurrent thieves on one segment: nothing is lost or duplicated.
    #[test]
    fn concurrent_steals_conserve(initial in 1usize..400, thieves in 1usize..6) {
        let seg = VecSegment::<u32>::new();
        for i in 0..initial {
            seg.add(i as u32);
        }
        let mut batches: Vec<Vec<u32>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..thieves)
                .map(|_| s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let b = seg.steal_half();
                        if b.is_empty() {
                            break mine;
                        }
                        mine.extend(b);
                    }
                }))
                .collect();
            for h in handles {
                batches.push(h.join().expect("thief panicked"));
            }
        });
        let mut all: Vec<u32> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..initial as u32).collect::<Vec<_>>());
        prop_assert_eq!(seg.len(), 0);
    }

    /// Concurrent block thieves: whole-block hand-over under contention
    /// still conserves the multiset.
    #[test]
    fn concurrent_block_steals_conserve(initial in 1usize..400, thieves in 1usize..6) {
        let seg = BlockSegment::<u32>::with_block_size(8);
        for i in 0..initial {
            seg.add(i as u32);
        }
        let mut batches: Vec<Vec<u32>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..thieves)
                .map(|_| s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let b = seg.steal_half();
                        if b.is_empty() {
                            break mine;
                        }
                        mine.extend(b.into_vec());
                    }
                }))
                .collect();
            for h in handles {
                batches.push(h.join().expect("thief panicked"));
            }
        });
        let mut all: Vec<u32> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..initial as u32).collect::<Vec<_>>());
        prop_assert_eq!(seg.len(), 0);
    }
}
