//! Distinguishable elements: a resource allocator built on [`KeyedPool`].
//!
//! The paper's §5 asks "How might pools be extended to handle
//! distinguishable elements?" This example answers with a classic
//! allocation scenario: a cluster hands out three *classes* of resource
//! (CPU slots, GPU slots, and licenses). Workers allocate whichever class
//! their next job needs — served from their local segment when possible,
//! stealing half of a remote bucket of the *same class* otherwise — and
//! release resources back to their own segment, building per-node locality
//! exactly like the plain pool does.
//!
//! ```sh
//! cargo run --release --example keyed_resources
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use concurrent_pools::cpool::{KeyedPool, RemoveError};

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
enum Resource {
    CpuSlot,
    GpuSlot,
    License,
}

fn main() {
    const WORKERS: usize = 8;
    const JOBS_PER_WORKER: usize = 5_000;

    let pool: KeyedPool<Resource, u32> = KeyedPool::new(WORKERS);

    // Seed the cluster inventory through a bootstrap handle: plenty of CPU
    // slots, fewer GPUs, scarce licenses.
    {
        let mut boot = pool.register();
        for id in 0..WORKERS as u32 * 64 {
            boot.add(Resource::CpuSlot, id);
        }
        for id in 0..WORKERS as u32 * 8 {
            boot.add(Resource::GpuSlot, id);
        }
        for id in 0..WORKERS as u32 * 2 {
            boot.add(Resource::License, id);
        }
    }

    let completed = AtomicU64::new(0);
    let starved = AtomicU64::new(0);

    thread::scope(|s| {
        for w in 0..WORKERS {
            let mut h = pool.register();
            let (completed, starved) = (&completed, &starved);
            s.spawn(move || {
                // A deterministic per-worker job mix: mostly CPU, some GPU,
                // occasional license-gated jobs.
                for j in 0..JOBS_PER_WORKER {
                    let class = match (w + j) % 10 {
                        0 => Resource::License,
                        1 | 2 => Resource::GpuSlot,
                        _ => Resource::CpuSlot,
                    };
                    match h.try_remove_key(&class) {
                        Ok(resource_id) => {
                            // "Run" the job, then return the resource to the
                            // local segment: future same-class jobs on this
                            // worker allocate locally.
                            h.add(class, resource_id);
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(RemoveError::Aborted) => {
                            // Every worker was hunting simultaneously: the
                            // class is genuinely exhausted right now.
                            starved.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(err) => {
                            unreachable!("nobody closes or times out here: {err}")
                        }
                    }
                }
            });
        }
    });

    let stats = pool.stats().merged();
    println!("workers:            {WORKERS}");
    println!("jobs completed:     {}", completed.load(Ordering::Relaxed));
    println!("jobs starved:       {}", starved.load(Ordering::Relaxed));
    println!("allocations:        {}", stats.removes);
    println!(
        "steals:             {} ({:.1}% of allocations)",
        stats.steals,
        100.0 * stats.steals as f64 / stats.removes.max(1) as f64
    );
    println!("elements per steal: {:.2}", stats.elements_per_steal().unwrap_or(0.0));
    println!(
        "inventory intact:   {} cpu / {} gpu / {} licenses",
        pool.key_len(&Resource::CpuSlot),
        pool.key_len(&Resource::GpuSlot),
        pool.key_len(&Resource::License),
    );

    // The allocator conserves the inventory exactly.
    assert_eq!(pool.key_len(&Resource::CpuSlot), WORKERS * 64);
    assert_eq!(pool.key_len(&Resource::GpuSlot), WORKERS * 8);
    assert_eq!(pool.key_len(&Resource::License), WORKERS * 2);
}
