//! Keyed-pool skew matrix: uniform vs Zipfian key traffic, hot-key
//! adaptive sharding on vs off.
//!
//! The question this binary answers and pins in version control
//! (`BENCH_zipf.json`): does splitting the hot bucket into independently
//! locked sub-shards pay for itself under a Zipf(1.1) key stream, and
//! what does the sampling machinery cost when traffic is uniform (no key
//! ever promotes, so the detector is pure overhead)?
//!
//! ```sh
//! cargo run --release -p bench --bin zipf                      # print JSON
//! cargo run --release -p bench --bin zipf -- --out BENCH_zipf.json
//! cargo run --release -p bench --bin zipf -- --quick           # CI smoke
//! ```
//!
//! Rows are `zipf/<dist>/<hotkey>/t<threads>s<segments>`, ns per
//! operation, best-of-`--repeat` wall-clock floors, slowest thread. Each
//! operation is half an add(key)+remove(key) pair over a prefilled
//! 512-key space (see [`bench::keyed`]); the pair shape guarantees every
//! remove is satisfiable, so the number prices the operation, not a
//! wait. Every round runs an untimed warmup first so the timed section
//! prices the detector's steady state, not its promotion transient.
//!
//! All four dist × hotkey variants are *interleaved* within each
//! (threads, segments) cell — round-robin across the repeat floors — so
//! the acceptance comparison (`zipf11/on` vs `zipf11/off`) samples the
//! same slice of host time. The JSON header records `host_cpus`,
//! `measured_parallel`, `commit` and `rustc` (see [`bench::host`]): on a
//! single-CPU host the multi-threaded cells measure time-sliced
//! interleaving.

use bench::host;
use bench::keyed::{keyed_round, KEY_SPACE};
use harness::cli::Args;
use workload::KeyDist;

/// The Zipf exponent of the skewed rows: the classic "web-like" skew
/// where the hottest key absorbs a double-digit percentage of traffic.
const ZIPF_S: f64 = 1.1;

fn main() {
    let args = Args::from_env();
    let quick = args.flag("quick");
    // Untimed warmup pairs per round (total across threads): long enough
    // that the detector's sampled window has promoted the whole Zipf head
    // (the mid-rank keys need tens of thousands of ops at the default
    // 1/128 sampling), so the timed section prices the steady state. The
    // timed section is kept short and the repeat count high: interleaved
    // short rounds give every variant many shots at the host's quiet
    // windows, which is what makes the floors comparable on a shared
    // machine.
    let warmup: u64 = args.parse_or("warmup", if quick { 4_000 } else { 40_000 });
    let pairs: u64 = args.parse_or("ops", if quick { 4_000 } else { 40_000 });
    let repeat: usize = args.parse_or("repeat", if quick { 1 } else { 21 });
    let threads: Vec<usize> = if quick { vec![2] } else { vec![2, 4] };
    let (host_cpus, measured_parallel) = host::probe_and_warn();

    let uniform = KeyDist::Uniform { keys: KEY_SPACE };
    let zipf = KeyDist::Zipf { keys: KEY_SPACE, s: ZIPF_S };
    const VARIANTS: [(&str, &str); 4] =
        [("uniform", "off"), ("uniform", "on"), ("zipf11", "off"), ("zipf11", "on")];
    let variant_dist = |dist: &str| if dist == "uniform" { uniform } else { zipf };

    let mut results: Vec<(String, f64)> = Vec::new();
    let cell = |results: &mut Vec<(String, f64)>, name: String, ns: f64| {
        eprintln!("{name:>32}: {ns:10.1} ns/op");
        results.push((name, ns));
    };

    // Threads × segments matrix (t1s1 is the sampling-overhead row: with
    // one thread there is no lock contention for sub-sharding to relieve,
    // so `on` minus `off` is the pure cost of the detector tick + routing
    // indirection). All four dist × hotkey variants are interleaved
    // within each cell so background-load drift cannot masquerade as a
    // hot-key effect.
    let mut shapes: Vec<(usize, usize)> = vec![(1, 1)];
    for &t in &threads {
        shapes.push((t, 1));
        shapes.push((t, t));
    }
    for (t, segments) in shapes {
        // Warmup splits across threads (the detector is pool-wide, so the
        // *total* warmup ops are what promote the Zipf head), but the
        // timed pairs stay per-thread: every thread's timed section must
        // span several scheduler quanta, or a time-sliced host can fit a
        // whole section into one undisturbed slice and report solo speed
        // for a supposedly contended cell.
        let t_warmup = (warmup / t as u64).max(1);
        let t_pairs = pairs;
        let mut floors = [f64::INFINITY; VARIANTS.len()];
        for _ in 0..repeat.max(1) {
            for (floor, (dist_name, hotkey_name)) in floors.iter_mut().zip(VARIANTS) {
                let dist = variant_dist(dist_name);
                *floor = floor.min(keyed_round(
                    t,
                    segments,
                    t_warmup,
                    t_pairs,
                    dist,
                    hotkey_name == "on",
                ));
            }
        }
        for (ns, (dist_name, hotkey_name)) in floors.into_iter().zip(VARIANTS) {
            cell(&mut results, format!("zipf/{dist_name}/{hotkey_name}/t{t}s{segments}"), ns);
        }
    }

    // Headline rows: per-dist geomean of off/on across the shape matrix.
    // A single shape's floor can still catch a load spike on a shared
    // host; the geomean over all shapes is the run's verdict on whether
    // hot-key sharding pays for the distribution.
    for (dist_name, _) in [VARIANTS[0], VARIANTS[2]] {
        let ratios: Vec<f64> = results
            .iter()
            .filter(|(name, _)| name.contains(&format!("/{dist_name}/off/")))
            .filter_map(|(name, off)| {
                let on_name = name.replace("/off/", "/on/");
                results.iter().find(|(n, _)| *n == on_name).map(|(_, on)| off / on)
            })
            .collect();
        let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
        let name = format!("zipf/{dist_name}/speedup_off_over_on_geomean");
        eprintln!("{name:>42}: {geomean:10.4} x");
        results.push((name, geomean));
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"zipf\",\n");
    json.push_str("  \"unit\": \"ns_per_op\",\n");
    json.push_str("  \"pool\": \"KeyedPool<u64, u64>\",\n");
    json.push_str(&format!("  \"key_space\": {KEY_SPACE},\n"));
    json.push_str(&format!("  \"zipf_s\": {ZIPF_S},\n"));
    json.push_str(&format!("  \"warmup_pairs_total\": {warmup},\n"));
    json.push_str(&format!("  \"pairs_per_thread\": {pairs},\n"));
    json.push_str(&format!("  \"repeat\": {repeat},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"measured_parallel\": {measured_parallel},\n"));
    json.push_str(&format!("  \"commit\": \"{}\",\n", host::commit()));
    json.push_str(&format!("  \"rustc\": \"{}\",\n", host::rustc()));
    json.push_str("  \"results\": {\n");
    for (i, (name, ns)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns:.4}{comma}\n"));
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
