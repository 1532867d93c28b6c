//! Operation statistics: the measurements of §3.4.
//!
//! "In addition to measuring the actual times for add and remove
//! operations, the following measurements were taken from the simulation:
//! the number of segments examined per steal, the number of elements stolen
//! per steal, the percentage of remove operations that required a steal,
//! \[and\] the frequency of steal operations."
//!
//! Each process accumulates a private [`ProcStats`] (no cross-process
//! contention on the measurement path); the pool merges them into a
//! [`PoolStats`] when handles are dropped.

/// A log₂-bucketed latency histogram.
///
/// Bucket `i` counts samples `v` with `v.ilog2() == i` (bucket 0 also takes
/// `v == 0`), giving ~2× resolution over the full `u64` range in 64 fixed
/// slots — enough to read off medians and tails of operation times.
///
/// ```
/// use cpool::Histogram;
/// let mut h = Histogram::new();
/// for v in [1u64, 2, 3, 100, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.min(), Some(1));
/// assert_eq!(h.max(), Some(1000));
/// assert!(h.mean().unwrap() > 200.0);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram { buckets: [0; 64], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 { 0 } else { value.ilog2() as usize };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all samples, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Upper bound of the bucket containing the `q`-quantile (0 ≤ q ≤ 1).
    ///
    /// The value is exact to within the 2× bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper edge of bucket i, clamped to the observed max.
                let edge = if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
                return Some(edge.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Per-process operation statistics.
///
/// All time fields (`add_ns`, `remove_ns`, `steal_ns`, `abort_ns` and the
/// histogram values) are in nanoseconds of whatever clock the pool's
/// [`Timing`](crate::timing::Timing) provides: virtual under `SimTiming`,
/// wall-clock under `RealTiming`. The default
/// [`NullTiming`](crate::timing::NullTiming) counts operations but does not
/// time them, so there every counter and histogram count is exact and
/// every time field is 0.
#[derive(Clone, Debug, Default)]
pub struct ProcStats {
    /// Completed add operations.
    pub adds: u64,
    /// Completed remove operations (local or via steal).
    pub removes: u64,
    /// Remove operations aborted by the livelock breaker.
    pub aborted_removes: u64,
    /// Successful steals (every one satisfied exactly one remove).
    pub steals: u64,
    /// Adds that were donated straight to a searching process instead of
    /// landing in the local segment (hint extension; see `cpool::hints`).
    pub donated_adds: u64,
    /// Removes satisfied by a hint delivery rather than a steal.
    pub hinted_removes: u64,
    /// Segment probes performed during searches (successful and aborted).
    pub segments_examined: u64,
    /// Total elements taken from victims over all steals.
    pub elements_stolen: u64,
    /// Superimposed-tree node visits (zero for linear/random search).
    pub tree_nodes_visited: u64,
    /// Operations absorbed by the handle-local magazine cache — adds
    /// cached and removes served without touching pool-shared state (see
    /// `cpool::magazine`).
    pub magazine_hits: u64,
    /// Full-magazine round trips with the shared depot: producer-side
    /// stashes, consumer-side claims, and search-side raids.
    pub depot_exchanges: u64,
    /// Magazine flushes forced by the waiter-present check — a producer
    /// saw parked or async removers and published its cached elements
    /// instead of growing its magazines.
    pub flush_on_wait: u64,
    /// Total time spent in add operations.
    pub add_ns: u64,
    /// Total time spent in successful remove operations (including their
    /// searches).
    pub remove_ns: u64,
    /// Total time spent searching within successful steals.
    pub steal_ns: u64,
    /// Total time spent in aborted removes.
    pub abort_ns: u64,
    /// Latency histogram of add operations.
    pub add_hist: Histogram,
    /// Latency histogram of successful remove operations.
    pub remove_hist: Histogram,
}

impl ProcStats {
    /// Total operations this process completed (adds + removes + aborts).
    ///
    /// Aborted removes count as operations: they consumed a slot of the
    /// experiment's operation budget, exactly as in the paper's stressful
    /// 0%-adds runs.
    pub fn ops(&self) -> u64 {
        self.adds + self.removes + self.aborted_removes
    }

    /// Fraction of operations that were adds — the *measured job mix*.
    ///
    /// For producer/consumer workloads this is how Figure 2 places a
    /// producer count on the job-mix axis.
    pub fn measured_mix(&self) -> Option<f64> {
        let ops = self.ops();
        (ops > 0).then(|| self.adds as f64 / ops as f64)
    }

    /// "The percentage of remove operations that required a steal."
    pub fn steal_fraction(&self) -> Option<f64> {
        let attempts = self.removes + self.aborted_removes;
        (attempts > 0).then(|| self.steals as f64 / attempts as f64)
    }

    /// Mean segments examined per steal attempt that ran a search.
    pub fn segments_per_steal(&self) -> Option<f64> {
        let searches = self.steals + self.aborted_removes;
        (searches > 0).then(|| self.segments_examined as f64 / searches as f64)
    }

    /// Mean elements stolen per successful steal.
    pub fn elements_per_steal(&self) -> Option<f64> {
        (self.steals > 0).then(|| self.elements_stolen as f64 / self.steals as f64)
    }

    /// Fraction of completed adds and removes absorbed by the handle-local
    /// magazine cache (zero unless the pool was built with
    /// `handle_cache(depth)`).
    pub fn magazine_hit_fraction(&self) -> Option<f64> {
        let ops = self.adds + self.removes;
        (ops > 0).then(|| self.magazine_hits as f64 / ops as f64)
    }

    /// Records an add absorbed by the handle-local magazine cache.
    ///
    /// Cached operations are deliberately *not* clocked: the op is a
    /// handful of thread-local instructions, and on a cost model with a
    /// clock (Sim or Real timing) the two `Timing::now` calls that would
    /// price it cost more than the op itself. They count in `adds` and
    /// `magazine_hits`, and enter the latency histogram as 0 ns — so
    /// `avg_add_ns` honestly reflects that cached ops are ~free while the
    /// histogram's upper buckets still price the shared-path ops.
    pub(crate) fn record_cached_add(&mut self) {
        self.adds += 1;
        self.magazine_hits += 1;
        self.add_hist.record(0);
    }

    /// Records a remove served from the handle-local magazine cache;
    /// see [`record_cached_add`](Self::record_cached_add) for why it is
    /// unclocked.
    pub(crate) fn record_cached_remove(&mut self) {
        self.removes += 1;
        self.magazine_hits += 1;
        self.remove_hist.record(0);
    }

    /// Fraction of adds that were donated to searchers (hint extension).
    pub fn donation_fraction(&self) -> Option<f64> {
        (self.adds > 0).then(|| self.donated_adds as f64 / self.adds as f64)
    }

    /// Fraction of completed removes satisfied by a hint delivery.
    pub fn hinted_fraction(&self) -> Option<f64> {
        (self.removes > 0).then(|| self.hinted_removes as f64 / self.removes as f64)
    }

    /// Mean add latency in nanoseconds.
    pub fn avg_add_ns(&self) -> Option<f64> {
        (self.adds > 0).then(|| self.add_ns as f64 / self.adds as f64)
    }

    /// Mean successful-remove latency in nanoseconds.
    pub fn avg_remove_ns(&self) -> Option<f64> {
        (self.removes > 0).then(|| self.remove_ns as f64 / self.removes as f64)
    }

    /// Mean latency over *all* operations (adds, removes, aborts) — the
    /// y-axis of Figure 2.
    pub fn avg_op_ns(&self) -> Option<f64> {
        let ops = self.ops();
        (ops > 0).then(|| (self.add_ns + self.remove_ns + self.abort_ns) as f64 / ops as f64)
    }

    /// Merges another process's statistics into this one.
    pub fn merge(&mut self, other: &ProcStats) {
        self.adds += other.adds;
        self.removes += other.removes;
        self.aborted_removes += other.aborted_removes;
        self.steals += other.steals;
        self.donated_adds += other.donated_adds;
        self.hinted_removes += other.hinted_removes;
        self.segments_examined += other.segments_examined;
        self.elements_stolen += other.elements_stolen;
        self.tree_nodes_visited += other.tree_nodes_visited;
        self.magazine_hits += other.magazine_hits;
        self.depot_exchanges += other.depot_exchanges;
        self.flush_on_wait += other.flush_on_wait;
        self.add_ns += other.add_ns;
        self.remove_ns += other.remove_ns;
        self.steal_ns += other.steal_ns;
        self.abort_ns += other.abort_ns;
        self.add_hist.merge(&other.add_hist);
        self.remove_hist.merge(&other.remove_hist);
    }
}

/// Pool-wide event counters that belong to no single process — the keyed
/// frontend's bucket-residency and hot-key accounting. Zero for plain
/// pools; filled in by [`KeyedPool::stats`](crate::KeyedPool::stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Empty buckets evicted past the resident-buckets bound (see
    /// [`KeyedPoolBuilder::resident_buckets_max`](crate::KeyedPoolBuilder::resident_buckets_max)).
    pub bucket_evictions: u64,
    /// Buckets split into sub-shards by hot-key detection (or manual
    /// promotion), cumulative.
    pub hotkey_promotions: u64,
    /// Split buckets merged back to plain, cumulative.
    pub hotkey_demotions: u64,
    /// Currently split buckets across all segments (a gauge, not a
    /// counter).
    pub hot_buckets: u64,
}

/// Statistics for a whole pool run: one entry per (dropped) process handle,
/// in registration order, plus their merge and the pool-wide counters.
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// Per-process statistics, indexed by process id.
    pub per_proc: Vec<ProcStats>,
    /// Pool-wide counters (keyed-frontend residency and hot-key events).
    pub pool: PoolCounters,
}

impl PoolStats {
    /// Merges all per-process statistics into one.
    pub fn merged(&self) -> ProcStats {
        let mut total = ProcStats::default();
        for stats in &self.per_proc {
            total.merge(stats);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_quantiles_bracket_median() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let q50 = h.quantile(0.5).unwrap();
        // Median 500 lives in bucket 8 (256..512): upper edge 511.
        assert_eq!(q50, 511);
        assert_eq!(h.quantile(1.0), Some(1000));
        assert_eq!(h.quantile(0.0), Some(1));
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in [3u64, 17, 900, 0, 65535] {
            a.record(v);
            c.record(v);
        }
        for v in [8u64, 1, 1 << 40] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.sum(), c.sum());
        assert_eq!(a.min(), c.min());
        assert_eq!(a.max(), c.max());
        assert_eq!(a.quantile(0.5), c.quantile(0.5));
    }

    #[test]
    fn histogram_zero_goes_to_first_bucket() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.quantile(0.5), Some(0), "quantile clamps to observed max");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_out_of_range_panics() {
        let _ = Histogram::new().quantile(1.5);
    }

    fn sample_stats() -> ProcStats {
        ProcStats {
            adds: 60,
            removes: 40,
            aborted_removes: 10,
            steals: 8,
            segments_examined: 80,
            elements_stolen: 64,
            add_ns: 600,
            remove_ns: 4000,
            steal_ns: 3000,
            abort_ns: 1000,
            ..ProcStats::default()
        }
    }

    #[test]
    fn derived_metrics() {
        let s = sample_stats();
        assert_eq!(s.ops(), 110);
        assert!((s.measured_mix().unwrap() - 60.0 / 110.0).abs() < 1e-12);
        assert!((s.steal_fraction().unwrap() - 8.0 / 50.0).abs() < 1e-12);
        assert!((s.segments_per_steal().unwrap() - 80.0 / 18.0).abs() < 1e-12);
        assert!((s.elements_per_steal().unwrap() - 8.0).abs() < 1e-12);
        assert!((s.avg_add_ns().unwrap() - 10.0).abs() < 1e-12);
        assert!((s.avg_remove_ns().unwrap() - 100.0).abs() < 1e-12);
        assert!((s.avg_op_ns().unwrap() - 5600.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_derive_none() {
        let s = ProcStats::default();
        assert_eq!(s.ops(), 0);
        assert_eq!(s.measured_mix(), None);
        assert_eq!(s.steal_fraction(), None);
        assert_eq!(s.segments_per_steal(), None);
        assert_eq!(s.elements_per_steal(), None);
        assert_eq!(s.avg_op_ns(), None);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = sample_stats();
        let b = sample_stats();
        a.merge(&b);
        assert_eq!(a.adds, 120);
        assert_eq!(a.ops(), 220);
        assert_eq!(a.elements_per_steal(), Some(8.0));
    }

    #[test]
    fn pool_stats_merged() {
        let pool = PoolStats {
            per_proc: vec![sample_stats(), sample_stats(), sample_stats()],
            pool: PoolCounters::default(),
        };
        let merged = pool.merged();
        assert_eq!(merged.ops(), 330);
        assert_eq!(merged.steals, 24);
    }
}
