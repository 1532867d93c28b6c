//! Metric names, the human-readable report, and the final JSON line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every run with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("remove_p50_ns", "ns"),
    ("remove_p99_ns", "ns"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A workload that never
/// calls a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("pool.add_ns.p50", "ns"),
    ("pool.add_ns.p99", "ns"),
    ("pool.remove_local_ns.p50", "ns"),
    ("pool.remove_local_ns.p99", "ns"),
    ("pool.remove_steal_ns.p50", "ns"),
    ("pool.remove_steal_ns.p99", "ns"),
    ("pool.remove_waited_ns.p50", "ns"),
    ("pool.remove_waited_ns.p99", "ns"),
    ("pool.remove_local_frac", "ratio"),
    ("pool.remove_steal_frac", "ratio"),
    ("pool.remove_waited_frac", "ratio"),
    ("search.steals_per_1k_removes", "count/1k"),
    ("search.segments_per_steal", "count"),
    ("transfer.elements_per_steal", "count"),
    ("gate.aborts_per_1k_removes", "count/1k"),
    ("notify.wait_share", "ratio"),
    ("worklist.get_ns.p50", "ns"),
    ("worklist.get_ns.p99", "ns"),
    ("worklist.put_batch_ns.p50", "ns"),
    ("worklist.put_batch_ns.p99", "ns"),
    ("ttt.app_share", "ratio"),
    ("keyed.add_ns.p50", "ns"),
    ("keyed.add_ns.p99", "ns"),
    ("keyed.remove_key_ns.p50", "ns"),
    ("keyed.remove_key_ns.p99", "ns"),
    ("keyed.bucket_evictions", "count"),
    ("hotkey.promotions", "count"),
    ("hotkey.demotions", "count"),
    ("hotkey.hot_buckets", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.producer_stall_share", "ratio"),
    ("bench.backlog.p50", "count"),
];

/// Metric values by name, plus the notes (sample counts, ratio bases)
/// printed beside them.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, String>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        // Ratios of empty counts are reported as 0, never as NaN.
        self.values.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn note(&mut self, name: &'static str, note: impl Into<String>) {
        self.notes.insert(name, note.into());
    }

    /// Prints one line per metric of `names`, then the result line that
    /// ends the output.
    pub fn print(&self, names: &[(&'static str, &'static str)], attempted: u64, failed: u64) {
        for (name, unit) in names {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let note = self.notes.get(name).map_or("", String::as_str);
            println!("{name:<30} {value:>16} {unit:<9} {note}");
        }
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        );
    }
}

/// Ratio `num / den`, 0 when the base is empty.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
