//! Multi-threaded contention matrix: the lock-free primitives against the
//! retired mutex-shim design, and the whole pool across threads × segments
//! × workload mix × segment representation.
//!
//! The criterion twin (`benches/contention.rs`) gives statistically careful
//! numbers; this binary exists so the comparison can be pinned in version
//! control (`BENCH_contention.json` at the repo root) and smoke-run by CI.
//! Both measure the same kernels, shared through [`bench::contention`].
//!
//! ```sh
//! cargo run --release -p bench --bin contention                      # print JSON
//! cargo run --release -p bench --bin contention -- --out BENCH_contention.json
//! cargo run --release -p bench --bin contention -- --quick           # CI smoke
//! ```
//!
//! Two matrices, all cells best-of-`--repeat` wall-clock floors:
//!
//! * `primitive/<structure>/t<threads>` — ns per push+pop pair on one
//!   shared container. `mutex_shim` is the "before" row (the retired
//!   vendor shim's `Mutex<VecDeque>` design); `free_list` is the
//!   production `cpool::transfer::FreeList` (riding on the bounded ring);
//!   `treiber_stack`, `seg_queue`, and `array_queue` are the hand-rolled
//!   lock-free structures themselves.
//! * `pool/<seg>/<mix>/t<threads>x s<segments>` — ns per operation through
//!   the full add/remove/steal machinery, for every element segment:
//!   `vec` (mutex deque), `block` (mutex block chain), `lf` (fully
//!   lock-free), `lane4` (4 sharded lanes over vec deques).
//!
//! Plus two focused rows: `lane_sweep/k<K>/<mix>/t4s4` (lane-count sweep
//! at the paper's per-processor shape) and `churn/<seg>/steal_half` (a
//! thief racing a producer on one segment — ns per steal cycle).
//!
//! The JSON header records `host_cpus`, `measured_parallel`, `commit` and
//! `rustc` (see [`bench::host`]): on a single-CPU host the multi-threaded
//! cells measure time-sliced interleaving, and a stderr banner says so.

use bench::contention::{
    bag_round, best_of, pool_round_block, pool_round_lane, pool_round_lane_k, pool_round_lf,
    pool_round_vec, steal_churn_round, Bag, MutexQueue, LANE_COUNTS, MIXES, THREAD_MATRIX,
};
use bench::host;
use cpool::transfer::FreeList;
use cpool::{BlockSegment, LaneSegment, LfSegment, VecSegment};
use crossbeam_queue::{ArrayQueue, SegQueue, Stack};
use harness::cli::Args;

fn main() {
    let args = Args::from_env();
    let quick = args.flag("quick");
    // Per-thread push+pop pairs for the primitive matrix, and total pool
    // operations per cell; both shrink under --quick to CI-smoke scale.
    let pairs: u64 = args.parse_or("iters", if quick { 4_000 } else { 200_000 });
    let pool_ops: u64 = args.parse_or("ops", if quick { 8_000 } else { 200_000 });
    let repeat: usize = args.parse_or("repeat", if quick { 1 } else { 3 });
    let threads: Vec<usize> = if quick { vec![2, 4] } else { THREAD_MATRIX.to_vec() };
    let (host_cpus, measured_parallel) = host::probe_and_warn();

    let mut results: Vec<(String, f64)> = Vec::new();

    // Primitive matrix: mutex "before" row vs the lock-free structures.
    let cell = |results: &mut Vec<(String, f64)>, name: String, ns: f64| {
        eprintln!("{name:>40}: {ns:10.1} ns/op");
        results.push((name, ns));
    };
    for &t in &threads {
        let ns = best_of(repeat, || bag_round::<MutexQueue>(t, pairs));
        cell(&mut results, format!("primitive/{}/t{t}", MutexQueue::NAME), ns);
        let ns = best_of(repeat, || bag_round::<FreeList<u64>>(t, pairs));
        cell(&mut results, format!("primitive/{}/t{t}", <FreeList<u64> as Bag>::NAME), ns);
        let ns = best_of(repeat, || bag_round::<Stack<u64>>(t, pairs));
        cell(&mut results, format!("primitive/{}/t{t}", <Stack<u64> as Bag>::NAME), ns);
        let ns = best_of(repeat, || bag_round::<SegQueue<u64>>(t, pairs));
        cell(&mut results, format!("primitive/{}/t{t}", <SegQueue<u64> as Bag>::NAME), ns);
        let ns = best_of(repeat, || bag_round::<ArrayQueue<u64>>(t, pairs));
        cell(&mut results, format!("primitive/{}/t{t}", <ArrayQueue<u64> as Bag>::NAME), ns);
    }

    // Pool matrix: threads × segments × workload mix × element segment.
    // The segments axis takes the paper's per-processor shape (segments ==
    // threads) and the worst case (one segment shared by everyone). The
    // four segment representations are *interleaved* within each cell
    // config — round-robin across the repeat floors — so all four sample
    // the same slice of host time; measuring each segment's repeats
    // back-to-back lets background-load drift masquerade as a segment
    // difference.
    type PoolKernel = fn(usize, usize, f64, u64) -> f64;
    const POOL_KERNELS: [(&str, PoolKernel); 4] = [
        ("vec", pool_round_vec),
        ("block", pool_round_block),
        ("lf", pool_round_lf),
        ("lane4", pool_round_lane),
    ];
    for &t in &threads {
        for segments in [1, t] {
            if segments == t && t == 1 {
                continue; // 1x1 would duplicate the segments==1 cell
            }
            for (mix_name, add_fraction) in MIXES {
                let mut floors = [f64::INFINITY; POOL_KERNELS.len()];
                for _ in 0..repeat.max(1) {
                    for (floor, (_, kernel)) in floors.iter_mut().zip(POOL_KERNELS) {
                        *floor = floor.min(kernel(t, segments, add_fraction, pool_ops));
                    }
                }
                for (ns, (seg_name, _)) in floors.into_iter().zip(POOL_KERNELS) {
                    cell(&mut results, format!("pool/{seg_name}/{mix_name}/t{t}s{segments}"), ns);
                }
            }
        }
    }

    // Lane-count sweep: K lanes per segment at the paper's per-processor
    // shape (4 threads, 4 segments), both mixes. K = 1 prices the adapter
    // itself; rising K trades per-lane occupancy for collision avoidance.
    if threads.contains(&4) {
        for k in LANE_COUNTS {
            for (mix_name, add_fraction) in MIXES {
                let ns = best_of(repeat, || pool_round_lane_k(k, 4, 4, add_fraction, pool_ops));
                cell(&mut results, format!("lane_sweep/k{k}/{mix_name}/t4s4"), ns);
            }
        }
    }

    // steal_half under churn: thief vs producer colliding on one segment,
    // every element-segment representation. ns per thief steal cycle.
    let churn_ops = pool_ops;
    let ns = best_of(repeat, || steal_churn_round::<VecSegment<u64>>(churn_ops));
    cell(&mut results, "churn/vec/steal_half".to_string(), ns);
    let ns = best_of(repeat, || steal_churn_round::<BlockSegment<u64>>(churn_ops));
    cell(&mut results, "churn/block/steal_half".to_string(), ns);
    let ns = best_of(repeat, || steal_churn_round::<LfSegment<u64>>(churn_ops));
    cell(&mut results, "churn/lf/steal_half".to_string(), ns);
    let ns = best_of(repeat, || steal_churn_round::<LaneSegment<VecSegment<u64>, 4>>(churn_ops));
    cell(&mut results, "churn/lane4/steal_half".to_string(), ns);

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"contention\",\n");
    json.push_str("  \"unit\": \"ns_per_op\",\n");
    json.push_str(&format!("  \"pairs_per_thread\": {pairs},\n"));
    json.push_str(&format!("  \"pool_ops\": {pool_ops},\n"));
    json.push_str(&format!("  \"repeat\": {repeat},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"measured_parallel\": {measured_parallel},\n"));
    json.push_str(&format!("  \"commit\": \"{}\",\n", host::commit()));
    json.push_str(&format!("  \"rustc\": \"{}\",\n", host::rustc()));
    json.push_str("  \"results\": {\n");
    for (i, (name, ns)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns:.1}{comma}\n"));
    }
    json.push_str("  }\n}\n");

    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &json).expect("write JSON output");
            println!("[wrote {path}]");
        }
        None => print!("{json}"),
    }
}
