//! `keyed-zipf`: the keyed frontend under skewed keys. Two threads each
//! run `add(k)` + `try_remove_key(k)` pairs on a two-segment
//! `KeyedPool<u64, u64>`, with `k` drawn from Zipf(1.1) over 512 keys.
//!
//! The threads take turns of [`TURN`] pairs, the idle one asleep, so both
//! handles feed the one pool and its hot-key detector while each timed
//! call runs alone. Left to run side by side on a guest whose two vCPUs
//! share a core, the calls took longer or shorter by as much as the host
//! happened to co-schedule the vCPUs, which varied from run to run.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use cpool::{KeyedHandle, KeyedPool, KeyedPoolBuilder};
use workload::{KeyStream, ZipfKeys};

use crate::affinity;
use crate::handoff::Gauge;
use crate::probe::{median, setup_times_while, Class, Counts, Layer, Sampler, Tracer, Windows};
use crate::report::{ratio, Metrics};
use crate::{Config, Outcome};

const SEGMENTS: usize = 2;
const THREADS: usize = 2;
const KEYS: u64 = 512;
const ZIPF_S: f64 = 1.1;
/// Elements of every key placed in every segment before the run, so each
/// `try_remove_key` finds its key at home.
const PREFILL_PER_KEY: u64 = 4;
const PREFILL: usize = SEGMENTS * (KEYS * PREFILL_PER_KEY) as usize;
/// Keys drawn per thread before the run; the loop cycles through them.
const KEY_BUF: usize = 1 << 18;
/// Untimed pairs per thread first, so hot-key detection has settled; a
/// whole number of turns, so turns start on multiples of [`TURN`].
const WARMUP_PAIRS: u64 = 24 * TURN;
/// Pairs between window ticks.
const EVERY: u64 = 256;
/// Pairs a worker runs in one turn before it hands over to the other.
const TURN: u64 = 16 * EVERY;
/// The turn counter's value once the run is over.
const STOP: u64 = u64::MAX;

type Keyed = KeyedPool<u64, u64>;
type KeyedH = KeyedHandle<u64, u64>;

/// Builds the pool, prefills every key in every segment, and registers the
/// two worker handles (home segments 0 and 1).
fn setup() -> (Keyed, Vec<KeyedH>) {
    let pool: Keyed = KeyedPoolBuilder::new(SEGMENTS).build();
    for _ in 0..SEGMENTS {
        let mut filler = pool.register();
        for key in 0..KEYS {
            for i in 0..PREFILL_PER_KEY {
                filler.add(key, i);
            }
        }
    }
    let workers = (0..THREADS).map(|_| pool.register()).collect();
    (pool, workers)
}

/// The key sequence of worker `t`, drawn from the run's seed.
fn keys(seed: u64, t: usize) -> Vec<u16> {
    let mut stream = ZipfKeys::new(KEYS, ZIPF_S, seed.wrapping_mul(31).wrapping_add(t as u64));
    (0..KEY_BUF).map(|_| stream.next_key() as u16).collect()
}

#[derive(Debug)]
struct Worker {
    ops: u64,
    failed: u64,
    busy: Duration,
    counts: Counts,
    windows: Windows,
    tracer: Option<Tracer>,
}

/// Runs worker `t`'s turns (those with `turn % THREADS == t`) until one
/// of them starts after `length`.
fn work(
    t: usize,
    mut h: KeyedH,
    keys: &[u16],
    length: Duration,
    (warmed, turns): (&Barrier, &Gauge),
    mut tracer: Option<Tracer>,
) -> Worker {
    let key_at = |i: u64| u64::from(keys[i as usize % KEY_BUF]);
    for i in 0..WARMUP_PAIRS {
        let key = key_at(i);
        h.add(key, i);
        // Any failure here shows again in the final length check.
        let _ = h.try_remove_key(&key);
    }
    warmed.wait();
    let mut w = Worker {
        ops: 0,
        failed: 0,
        busy: Duration::ZERO,
        counts: Counts::default(),
        windows: Windows::default(),
        tracer: None,
    };
    let mut sampler = Sampler::new();
    let before = Counts::of(h.stats());
    let start = Instant::now();
    let mut i = WARMUP_PAIRS;
    let mut held = None;
    loop {
        if i.is_multiple_of(TURN) {
            if let Some(turn) = held {
                turns.set(turn + 1);
            }
            let (turn, _) = turns.wait_until(|n| n == STOP || n % THREADS as u64 == t as u64);
            if turn == STOP {
                break;
            }
            if start.elapsed() >= length {
                turns.set(STOP);
                break;
            }
            held = Some(turn);
        }
        if tracer.is_none() && i.is_multiple_of(EVERY) {
            w.windows.tick(Instant::now(), w.ops, &mut sampler);
        }
        let key = key_at(i);
        let got = if let Some(tracer) = tracer.as_mut() {
            let t0 = Instant::now();
            h.add(key, i);
            let t1 = Instant::now();
            tracer.record(Layer::KeyedAdd, Class::Plain, t0, t1);
            let c0 = Counts::of(h.stats());
            let got = h.try_remove_key(&key);
            let class = Class::of_remove(&c0, &Counts::of(h.stats()), got.is_ok());
            tracer.record(Layer::KeyedRemoveKey, class, t1, Instant::now());
            got
        } else {
            h.add(key, i);
            if sampler.due() {
                let t0 = Instant::now();
                let got = h.try_remove_key(&key);
                if got.is_ok() {
                    sampler.record(t0.elapsed());
                }
                got
            } else {
                h.try_remove_key(&key)
            }
        };
        w.ops += 1;
        match got {
            Ok(_) => w.ops += 1,
            Err(e) => {
                eprintln!("keyed-zipf: try_remove_key({key}) failed: {e}");
                w.failed += 1;
            }
        }
        i += 1;
    }
    w.busy = start.elapsed();
    w.counts = Counts::of(h.stats()).since(&before);
    w.tracer = tracer;
    w
}

/// One run on a fresh pool: both workers, then the conservation check.
#[derive(Debug)]
struct Session {
    ops: u64,
    attempted: u64,
    failed: u64,
    busy: Duration,
    counts: Counts,
    windows: Windows,
    tracer: Option<Tracer>,
    pool: Keyed,
    /// Set-up times the main thread took meanwhile.
    setups: Vec<f64>,
}

fn session(seed: u64, length: Duration, trace_epoch: Option<Instant>) -> Session {
    let (pool, workers) = setup();
    let keys: Vec<Vec<u16>> = (0..THREADS).map(|t| keys(seed, t)).collect();
    let warmed = Barrier::new(THREADS);
    let turns = Gauge::default();
    let cpu = affinity::last_allowed_cpu();
    let (done, setups) = std::thread::scope(|s| {
        let spawned: Vec<_> = workers
            .into_iter()
            .zip(&keys)
            .enumerate()
            .map(|(t, (h, keys))| {
                let sync = (&warmed, &turns);
                let tracer = trace_epoch.map(|epoch| Tracer::new(epoch, 0, t as u32));
                s.spawn(move || {
                    affinity::pin(cpu);
                    work(t, h, keys, length, sync, tracer)
                })
            })
            .collect();
        let setups = setup_times_while(|| spawned.iter().any(|w| !w.is_finished()), 1, setup);
        let done: Vec<Worker> =
            spawned.into_iter().map(|w| w.join().expect("keyed worker panicked")).collect();
        (done, setups)
    });
    let mut out = Session {
        ops: 0,
        attempted: 0,
        failed: 0,
        busy: Duration::ZERO,
        counts: Counts::default(),
        windows: Windows::default(),
        tracer: None,
        pool,
        setups,
    };
    for w in done {
        out.ops += w.ops;
        out.attempted += w.ops + w.failed;
        out.failed += w.failed;
        // The workers start together and stop at the same turn; the later
        // one bounds the session.
        out.busy = out.busy.max(w.busy);
        out.counts.add(&w.counts);
        out.windows.merge_parallel(w.windows);
        Tracer::merge_into(&mut out.tracer, w.tracer);
    }
    let left = out.pool.total_len();
    if left != PREFILL {
        eprintln!("keyed-zipf: {left} elements left after the run, want the prefill {PREFILL}");
        out.failed += left.abs_diff(PREFILL) as u64;
    }
    out
}

pub fn run(cfg: &Config) -> Outcome {
    let mut m = Metrics::default();
    let s = session(cfg.seed, cfg.untraced_len(), None);
    let mut failed = s.failed;
    let mut attempted = s.attempted;
    crate::end_to_end(
        &mut m,
        &s.windows,
        "window",
        (s.ops, s.busy),
        "successful adds and removes",
        "try_remove_key",
    );

    m.set("setup_s", median(&s.setups));
    m.note(
        "setup_s",
        format!(
            "median of {}, one per window: build, prefill {PREFILL} elements, register 2",
            s.setups.len()
        ),
    );

    let mut tracer = None;
    if cfg.traced {
        let ts = session(cfg.seed, cfg.traced_len(), Some(Instant::now()));
        failed += ts.failed;
        attempted += ts.attempted;
        let t = ts.tracer.expect("traced workers record spans");
        let add = t.hist(Layer::KeyedAdd, Class::Plain);
        m.set("keyed.add_ns.p50", add.quantile(0.50));
        m.set("keyed.add_ns.p99", add.quantile(0.99));
        m.note("keyed.add_ns.p99", format!("n={}", add.count()));
        let rm = t.hist_of(Layer::KeyedRemoveKey, &[Class::Local, Class::Steal, Class::Waited]);
        m.set("keyed.remove_key_ns.p50", rm.quantile(0.50));
        m.set("keyed.remove_key_ns.p99", rm.quantile(0.99));
        m.note("keyed.remove_key_ns.p99", format!("n={}", rm.count()));
        let pool = ts.pool.stats().pool;
        m.set("keyed.bucket_evictions", pool.bucket_evictions as f64);
        m.set("hotkey.promotions", pool.hotkey_promotions as f64);
        m.set("hotkey.demotions", pool.hotkey_demotions as f64);
        m.set("hotkey.hot_buckets", pool.hot_buckets as f64);
        crate::layer_counts(&mut m, &ts.counts);
        crate::trace_overhead(
            &mut m,
            ratio(s.ops, s.busy.as_nanos() as u64),
            ratio(ts.ops, ts.busy.as_nanos() as u64),
        );
        tracer = Some(t);
    }
    Outcome { metrics: m, attempted, failed, attempted_what: "operations", tracer }
}
