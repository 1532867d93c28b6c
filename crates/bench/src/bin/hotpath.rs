//! Hot-path dispatch baseline: generic `NullTiming` vs the `Arc<dyn Timing>`
//! adapter, as a plain timed loop that emits machine-readable JSON.
//!
//! This binary pins the comparison in version control (`BENCH_hotpath.json`
//! at the repo root) and is smoke-run by CI. Its kernels live in
//! [`bench::hotpath`].
//!
//! ```sh
//! cargo run --release -p bench --bin hotpath                       # print JSON
//! cargo run --release -p bench --bin hotpath -- --out BENCH_hotpath.json
//! cargo run --release -p bench --bin hotpath -- --quick            # CI smoke
//! ```

use std::sync::Arc;
use std::time::Instant;

use bench::host;
use bench::hotpath::{
    add_remove_op, async_drive_median_ns, batch_roundtrip_op, block_pool_with, bursty_op,
    filled_block_segment, filled_vec_segment, magazine_pool_with, per_element_roundtrip_op,
    pool_with, steal_op, steal_reserve_op, transfer_elements, transfer_op, AsyncHandoff, Handoff,
    ASYNC_DRIVE_SIZES, BATCH_SIZES, MAGAZINE_DEPTHS, RESERVE_SIZES, TRANSFER_BLOCK_SIZES,
    TRANSFER_OCCUPANCIES,
};
use cpool::{DynTiming, NullTiming, WaitStrategy};
use harness::cli::Args;

/// Times `iters` runs of `op` after `iters / 10` warmup runs; returns the
/// best-of-five nanoseconds per operation (the minimum filters scheduler
/// and frequency noise out of a single-threaded throughput loop).
fn measure(iters: u64, mut op: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        op();
    }
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let args = Args::from_env();
    let iters: u64 = args.parse_or("iters", if args.flag("quick") { 20_000 } else { 2_000_000 });
    let (host_cpus, measured_parallel) = host::probe_and_warn();

    let generic_add = {
        let pool = pool_with(1, NullTiming::new());
        measure(iters, add_remove_op(&pool))
    };
    let dyn_add = {
        let adapter: DynTiming = Arc::new(NullTiming::new());
        let pool = pool_with(1, adapter);
        measure(iters, add_remove_op(&pool))
    };
    let generic_steal = {
        let pool = pool_with(2, NullTiming::new());
        measure(iters, steal_op(&pool))
    };
    let dyn_steal = {
        let adapter: DynTiming = Arc::new(NullTiming::new());
        let pool = pool_with(2, adapter);
        measure(iters, steal_op(&pool))
    };
    // The same single-element steal over block segments: the batch-typed
    // transfer layer hands the lone element over in a recycled shell, so
    // the whole search+steal round trip is allocation-free.
    let block_steal = {
        let pool = block_pool_with(2, NullTiming::new());
        measure(iters, steal_op(&pool))
    };

    // Batched vs per-element element traffic (generic NullTiming pool, one
    // segment): both move `batch` elements per iteration; the number
    // reported is ns *per element* so sizes compare directly.
    let mut results: Vec<(String, f64)> = vec![
        ("add_remove/generic".to_string(), generic_add),
        ("add_remove/dyn".to_string(), dyn_add),
        ("steal/generic".to_string(), generic_steal),
        ("steal/dyn".to_string(), dyn_steal),
        ("steal_block/generic".to_string(), block_steal),
    ];
    // Handle-local magazine caches: the same uncontended add→remove pair
    // as `add_remove/generic`, but the pool gives each handle a
    // two-magazine cache — the steady state is loaded-push/loaded-pop with
    // zero shared-memory RMWs. Depth sweeps the magazine capacity (the
    // pure-hit pair cost is depth-independent; the sweep pins that down).
    for depth in MAGAZINE_DEPTHS {
        let ns = {
            let pool = magazine_pool_with(1, depth, NullTiming::new());
            measure(iters, add_remove_op(&pool))
        };
        results.push((format!("magazine_add_remove/{depth}"), ns));
    }
    // Bursty churn (alternating 90%/10%-add bursts): the pattern that
    // forces magazines through the depot exchange instead of the pure-hit
    // steady state, against the identical plain-pool baseline.
    let bursty_plain = {
        let pool = pool_with(1, NullTiming::new());
        measure(iters, bursty_op(&pool))
    };
    let bursty_magazine = {
        let pool = magazine_pool_with(1, 32, NullTiming::new());
        measure(iters, bursty_op(&pool))
    };
    results.push(("bursty/plain".to_string(), bursty_plain));
    results.push(("bursty/magazine32".to_string(), bursty_magazine));

    for batch in BATCH_SIZES {
        let per_iter = (iters / batch as u64).max(1);
        let batched = {
            let pool = pool_with(1, NullTiming::new());
            measure(per_iter, batch_roundtrip_op(&pool, batch)) / batch as f64
        };
        let per_element = {
            let pool = pool_with(1, NullTiming::new());
            measure(per_iter, per_element_roundtrip_op(&pool, batch)) / batch as f64
        };
        results.push((format!("batch_add_remove/batched/{batch}"), batched));
        results.push((format!("batch_add_remove/per_element/{batch}"), per_element));
    }

    // Reserve-building steals (the paper's actual protocol shape: one
    // search + two-phase transfer moves half a segment and banks a
    // reserve), ns per element through the pool — the number that shows
    // what the batch-typed transfer layer buys at the pool level.
    for reserve in RESERVE_SIZES {
        let per_iter = (iters / reserve as u64).clamp(1_000, 200_000);
        let vec_ns = {
            let pool = pool_with(2, NullTiming::new());
            measure(per_iter, steal_reserve_op(&pool, reserve)) / reserve as f64
        };
        let block_ns = {
            let pool = block_pool_with(2, NullTiming::new());
            measure(per_iter, steal_reserve_op(&pool, reserve)) / reserve as f64
        };
        results.push((format!("steal_reserve/vec/{reserve}"), vec_ns));
        results.push((format!("steal_reserve/block/{reserve}"), block_ns));
    }

    // The steal→refill transfer itself (drain ⌈n/2⌉ + deposit), isolated
    // from the search, occupancy × block size: block segments move whole
    // block handles through the batch-typed layer, the vec baseline moves
    // every element. ns per element moved, so all cells compare directly.
    for occ in TRANSFER_OCCUPANCIES {
        let moved = transfer_elements(occ) as f64;
        let per_iter = (iters / moved.max(1.0) as u64).clamp(1_000, 200_000);
        let vec_ns = {
            let seg = filled_vec_segment(occ);
            measure(per_iter, transfer_op(&seg)) / moved
        };
        results.push((format!("transfer/vec/{occ}"), vec_ns));
        for bs in TRANSFER_BLOCK_SIZES {
            let block_ns = {
                let seg = filled_block_segment(occ, bs);
                measure(per_iter, transfer_op(&seg)) / moved
            };
            results.push((format!("transfer/block{bs}/{occ}"), block_ns));
        }
    }

    // Producer→blocked-consumer wakeup latency: Park (sleep backoff — an
    // element added mid-sleep waits out the rest of the interval) vs Block
    // (event-driven — the add edge unparks the consumer). Medians, ns per
    // handoff; each round lets the consumer settle into its idle state
    // first, so this measures wakeup latency, not throughput.
    let handoff_rounds = if args.flag("quick") { 50 } else { 400 };
    let handoff_park = Handoff::new(WaitStrategy::Park).median_ns(handoff_rounds);
    let handoff_block = Handoff::new(WaitStrategy::Block).median_ns(handoff_rounds);
    // The waker-based consumer on the same rig: the add edge wakes a
    // registered waker instead of unparking a `Block`ed thread, so this
    // row vs `handoff/block` prices the waker round trip itself.
    let handoff_async = AsyncHandoff::new().median_ns(handoff_rounds);
    results.push(("handoff/park".to_string(), handoff_park));
    results.push(("handoff/block".to_string(), handoff_block));
    results.push(("handoff/async".to_string(), handoff_async));

    // One thread drives N concurrently pending futures to completion:
    // ns per element through the async dispatch loop as the fleet grows.
    let drive_rounds = if args.flag("quick") { 5 } else { 25 };
    for n in ASYNC_DRIVE_SIZES {
        results.push((format!("async_drive/{n}"), async_drive_median_ns(n, drive_rounds)));
    }

    for (name, ns) in &results {
        eprintln!("{name:>32}: {ns:8.1} ns/elem");
    }
    eprintln!(
        "dyn/generic ratio: add_remove {:.3}, steal {:.3}; handoff block/park {:.3}",
        dyn_add / generic_add,
        dyn_steal / generic_steal,
        handoff_block / handoff_park,
    );

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"hotpath\",\n");
    json.push_str("  \"unit\": \"ns_per_element\",\n");
    json.push_str(&format!("  \"iters\": {iters},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"measured_parallel\": {measured_parallel},\n"));
    json.push_str(&format!("  \"commit\": \"{}\",\n", host::commit()));
    json.push_str(&format!("  \"rustc\": \"{}\",\n", host::rustc()));
    json.push_str("  \"pool\": \"Pool<VecSegment<u64>, LinearSearch, T>\",\n");
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
