//! Property-based tests for the keyed pool (distinguishable elements):
//! arbitrary keyed scripts against a multimap model.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use cpool::{KeyedPool, KeyedPoolBuilder, RemoveError};

#[derive(Clone, Copy, Debug)]
enum Op {
    Add(u8, u16),
    RemoveKey(u8),
    RemoveAny,
}

/// The most empty buckets a segment keeps resident in these scripts.
const RESIDENT_MAX: usize = 64;

/// Up to `max_len` operations over the keys `0..keys`.
fn script(keys: u8, max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            ((0..keys), (0u16..1000)).prop_map(|(k, v)| Op::Add(k, v)),
            (0..keys).prop_map(Op::RemoveKey),
            Just(Op::RemoveAny),
        ],
        0..max_len,
    )
}

/// A script over 200 keys that starts by adding and removing each of its
/// first `churn` keys once. Past `RESIDENT_MAX` churned keys the prefix
/// evicts buckets, and the random ops after it recreate them.
fn wide_script() -> impl Strategy<Value = Vec<Op>> {
    (0u8..200, script(200, 600)).prop_map(|(churn, ops)| {
        (0..churn).flat_map(|k| [Op::Add(k, u16::from(k)), Op::RemoveKey(k)]).chain(ops).collect()
    })
}

/// Plays `ops` on a lone handle against a multimap model. Keyed removes
/// return values of the requested key, any-key removes the smallest key,
/// totals and per-key counts track the model at every step, and buckets
/// are evicted exactly when the residency bound requires it.
fn check_multimap(ops: &[Op], segs: usize) -> Result<(), TestCaseError> {
    let pool: KeyedPool<u8, u16> =
        KeyedPoolBuilder::new(segs).resident_buckets_max(RESIDENT_MAX).build();
    let mut h = pool.register();
    let mut model: BTreeMap<u8, Vec<u16>> = BTreeMap::new();
    let mut model_len = 0usize;
    // Keys the script emptied that are still empty. Until the first
    // eviction they are exactly the home segment's resident empty buckets,
    // so the first eviction comes when this set outgrows the bound.
    let mut emptied: BTreeSet<u8> = BTreeSet::new();
    let mut must_evict = false;

    for op in ops {
        match op {
            Op::Add(k, v) => {
                h.add(*k, *v);
                model.entry(*k).or_default().push(*v);
                model_len += 1;
                emptied.remove(k);
            }
            Op::RemoveKey(k) => {
                if model.contains_key(k) {
                    let v = h.try_remove_key(k).expect("key present");
                    remove_from_model(&mut model, &mut emptied, *k, v)?;
                    model_len -= 1;
                } else {
                    // A lone process aborts once its lap finds nothing.
                    prop_assert_eq!(h.try_remove_key(k), Err(RemoveError::Aborted));
                }
            }
            Op::RemoveAny => {
                if model_len == 0 {
                    prop_assert_eq!(h.try_remove_any(), Err(RemoveError::Aborted));
                } else {
                    let (k, v) = h.try_remove_any().expect("pool non-empty");
                    // A lone handle keeps every element at home, where
                    // any-key removes go in key order.
                    prop_assert_eq!(Some(&k), model.keys().next(), "not the smallest key");
                    remove_from_model(&mut model, &mut emptied, k, v)?;
                    model_len -= 1;
                }
            }
        }
        must_evict |= emptied.len() > RESIDENT_MAX;
        prop_assert_eq!(pool.total_len(), model_len);
        for (k, bucket) in &model {
            prop_assert_eq!(pool.key_len(k), bucket.len(), "key {}", k);
        }
    }
    prop_assert_eq!(pool.stats().pool.bucket_evictions > 0, must_evict, "evictions");
    Ok(())
}

/// Takes `v` out of the model's `k` bucket, dropping the bucket and
/// recording `k` as emptied when that was its last value.
fn remove_from_model(
    model: &mut BTreeMap<u8, Vec<u16>>,
    emptied: &mut BTreeSet<u8>,
    k: u8,
    v: u16,
) -> Result<(), TestCaseError> {
    let bucket = model.get_mut(&k).expect("model has key");
    let at = bucket.iter().position(|&m| m == v);
    prop_assert!(at.is_some(), "value {} does not belong to key {}", v, k);
    bucket.swap_remove(at.expect("checked"));
    if bucket.is_empty() {
        model.remove(&k);
        emptied.insert(k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single process: the keyed pool behaves exactly like a multimap.
    #[test]
    fn keyed_pool_is_a_multimap(ops in script(5, 250), segs in 1usize..7) {
        check_multimap(&ops, segs)?;
    }

    /// The same over 200 keys and up to ~1,000 operations: buckets are
    /// evicted and recreated mid-script, and any-key removes still go in key
    /// order past resident empty buckets.
    #[test]
    fn wide_keyed_scripts_evict_and_recreate_buckets(ops in wide_script(), segs in 1usize..4) {
        check_multimap(&ops, segs)?;
    }

    /// Keyed steals never cross keys: with values encoding their key, every
    /// keyed remove returns a matching value, whatever got stolen meanwhile.
    #[test]
    fn keyed_steals_respect_keys(
        adds in prop::collection::vec((0u8..3, 0u16..500), 1..150),
        segs in 2usize..5,
    ) {
        let pool: KeyedPool<u8, u32> = KeyedPool::new(segs);
        // Producer on segment 0; consumer homes elsewhere so removes steal.
        let mut producer = pool.register();
        let mut consumer = pool.register();
        let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
        for (k, v) in &adds {
            // Encode the key in the value to catch cross-key leaks.
            producer.add(*k, u32::from(*k) << 16 | u32::from(*v));
            *counts.entry(*k).or_default() += 1;
        }
        for (k, count) in counts {
            for _ in 0..count {
                let v = consumer.try_remove_key(&k).expect("supply matches demand");
                prop_assert_eq!((v >> 16) as u8, k, "value belongs to its key");
            }
        }
        prop_assert_eq!(pool.total_len(), 0);
    }

    /// Statistics identities hold for arbitrary keyed usage.
    #[test]
    fn keyed_stats_identities(ops in script(5, 250)) {
        let pool: KeyedPool<u8, u16> = KeyedPool::new(4);
        {
            let mut h = pool.register();
            let mut live = 0usize;
            for op in &ops {
                match op {
                    Op::Add(k, v) => {
                        h.add(*k, *v);
                        live += 1;
                    }
                    // Guard: empty-pool removes abort (lone process).
                    Op::RemoveAny if live > 0 => {
                        let _ = h.try_remove_any().expect("non-empty");
                        live -= 1;
                    }
                    _ => {
                        // Keyed removes may or may not find their key; both
                        // outcomes are exercised by the multimap test above.
                    }
                }
            }
        }
        let m = pool.stats().merged();
        prop_assert_eq!(m.ops(), m.adds + m.removes + m.aborted_removes);
        prop_assert!(m.elements_stolen >= m.steals);
        prop_assert!(m.removes + pool.total_len() as u64 == m.adds,
            "adds = removes + residue");
    }
}
