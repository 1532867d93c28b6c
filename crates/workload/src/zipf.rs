//! Zipfian key generator for keyed-pool experiments.
//!
//! The paper's workloads treat every element as interchangeable; keyed
//! pools add a key dimension, and real key traffic is rarely uniform —
//! request frequencies follow a Zipf law (rank `r` drawn with probability
//! proportional to `r^-s`), so a handful of hot keys dominate.
//! [`ZipfKeys`] draws that skew with exponent `s` (s ≈ 1 is the classic
//! web/cache regime; larger `s` is more skewed; `s = 0` is uniform) by
//! inverse-CDF lookup over a precomputed table, so each draw is one
//! uniform sample plus a binary search.
//!
//! Streams are seeded and deterministic, like every other generator in
//! this crate: the same `(keys, s, seed)` replays the same key sequence.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An endless, per-process source of keys (the key-dimension analogue of
/// [`OpStream`](crate::OpStream)).
pub trait KeyStream: Send {
    /// The next key this process should operate on.
    fn next_key(&mut self) -> u64;
}

/// Zipf-distributed keys over `0..keys`: key `k` is rank `k`, so key 0 is
/// the hottest.
#[derive(Clone, Debug)]
pub struct ZipfKeys {
    /// Cumulative probabilities of ranks `0..keys`, normalized to end at
    /// 1.0; a draw binary-searches its uniform sample here.
    cdf: Vec<f64>,
    keys: u64,
    rng: SmallRng,
}

impl ZipfKeys {
    /// Creates a Zipf(`s`) stream over `0..keys` with the hottest key at 0.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is zero or `s` is not a finite non-negative number
    /// (`s = 0` degenerates to uniform).
    pub fn new(keys: u64, s: f64, seed: u64) -> Self {
        assert!(keys > 0, "a key stream needs at least one key");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be finite and >= 0, got {s}");
        let mut cdf = Vec::with_capacity(keys as usize);
        let mut total = 0.0_f64;
        for rank in 0..keys {
            total += (rank as f64 + 1.0).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        ZipfKeys { cdf, keys, rng: SmallRng::seed_from_u64(seed) }
    }

    /// The configured key-space size.
    pub fn keys(&self) -> u64 {
        self.keys
    }
}

impl KeyStream for ZipfKeys {
    fn next_key(&mut self) -> u64 {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        // First rank whose cumulative probability exceeds the sample; the
        // final entry is exactly 1.0 > u, so the rank is always in range.
        self.cdf.partition_point(|&c| c <= u) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let take = |seed: u64| -> Vec<u64> {
            let mut s = ZipfKeys::new(100, 1.1, seed);
            (0..64).map(|_| s.next_key()).collect()
        };
        assert_eq!(take(7), take(7), "same seed replays the same keys");
        assert_ne!(take(7), take(8), "different seeds diverge");
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let mut s = ZipfKeys::new(1000, 1.1, 42);
        let mut hot = 0u32;
        let n = 10_000;
        for _ in 0..n {
            if s.next_key() < 10 {
                hot += 1;
            }
        }
        // Zipf(1.1) over 1000 keys puts well over a third of the mass on
        // the top 10 ranks; uniform would put 1% there.
        assert!(hot > n / 3, "top-10 keys drew only {hot}/{n}");
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let mut s = ZipfKeys::new(10, 0.0, 1);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[s.next_key() as usize] += 1;
        }
        for &c in &counts {
            assert!((700..=1300).contains(&c), "uniform-ish bucket count, got {c}");
        }
    }
}
