//! `prodcons`: the §3.3 producer/consumer arrangement on two segments.
//! One thread only adds distinct values, the other only removes with
//! `WaitStrategy::Block`, so every element crosses segments by a steal.
//!
//! The loop is closed in rounds. The producer starts a round only once the
//! consumer has taken everything before it: it adds one element, which
//! wakes the consumer parked on the empty pool, waits until that element
//! is taken, then adds the rest of the round while the consumer waits
//! outside the pool. So each round the consumer's removes meet the same
//! state — its own segment empty, the producer's holding the round — and
//! steal halves of it, however the host schedules the two threads. The
//! side that waits for the other sleeps on the generator's own channel
//! rather than spinning, so the consumer's timed removes run alone. (Left
//! to race, the two settle into backlogs from tens to thousands of
//! elements depending on the host's load, and the steal mix with them.)

use std::sync::Barrier;
use std::time::{Duration, Instant};

use cpool::{
    Handle, LinearSearch, Pool, PoolBuilder, PoolOps, RemoveError, VecSegment, WaitStrategy,
};

use crate::affinity;
use crate::handoff::Gauge;
use crate::probe::{
    median, setup_times_while, Class, Counts, Hist, Layer, Sampler, Tracer, Windows,
};
use crate::report::{ratio, Metrics};
use crate::{Config, Outcome};

const SEGMENTS: usize = 2;
/// Elements per round: the most the pool ever holds.
const ROUND: u64 = 512;
/// The consumer closes measurement windows, and the traced producer
/// samples the backlog, once per this many elements.
const EVERY: u64 = 64;
const SETUP_BATCH: usize = 16;

type VecPool = Pool<VecSegment<u64>, LinearSearch>;
type VecHandle = Handle<VecSegment<u64>, LinearSearch>;

/// The `i`-th value the producer adds: distinct for distinct `i`, because
/// the SplitMix64 finalizer is a bijection and `i ↦ seed + i·γ` is one too.
fn value(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the pool and registers the producer (home segment 0) and the
/// consumer (home segment 1).
fn setup(seed: u64) -> (VecPool, VecHandle, VecHandle) {
    let pool: VecPool = PoolBuilder::new(SEGMENTS).seed(seed).build();
    let producer = pool.register();
    let consumer = pool.register();
    (pool, producer, consumer)
}

/// Count, wrapping sum and xor of a set of values.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct Checksum {
    count: u64,
    sum: u64,
    xor: u64,
}

impl Checksum {
    fn push(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.xor ^= v;
    }
}

/// How far each side has got, published between rounds. The side that
/// waits for the other sleeps, so the consumer drains each round alone.
#[derive(Debug, Default)]
struct Progress {
    /// Elements added, published once a round is complete.
    produced: Gauge,
    /// Elements removed, published when the consumer has caught up.
    consumed: Gauge,
}

#[derive(Debug)]
struct Produced {
    check: Checksum,
    busy: Duration,
    stalled: Duration,
    backlog: Hist,
    tracer: Option<Tracer>,
}

#[derive(Debug)]
struct Consumed {
    check: Checksum,
    busy: Duration,
    errors: u64,
    counts: Counts,
    windows: Windows,
    tracer: Option<Tracer>,
}

fn produce(
    mut h: VecHandle,
    seed: u64,
    length: Duration,
    progress: &Progress,
    mut tracer: Option<Tracer>,
) -> Produced {
    let mut check = Checksum::default();
    let mut stalled = Duration::ZERO;
    let mut backlog = Hist::new();
    let start = Instant::now();
    while start.elapsed() < length {
        for i in 0..ROUND {
            if i <= 1 {
                // Before the round's first element, the consumer has taken
                // the last round; before the second, the first.
                let count = check.count;
                stalled += progress.consumed.wait_until(|n| n == count).1;
            }
            let v = value(seed, check.count);
            if let Some(tracer) = tracer.as_mut() {
                if check.count.is_multiple_of(EVERY) {
                    backlog.record(check.count - progress.consumed.get());
                }
                let t0 = Instant::now();
                h.add(v);
                tracer.record(Layer::PoolAdd, Class::Plain, t0, Instant::now());
            } else {
                h.add(v);
            }
            check.push(v);
        }
        progress.produced.set(check.count);
    }
    let busy = start.elapsed();
    // Close before deregistering: the consumer drains the residue and then
    // sees `Closed`, instead of a §3.2 abort once it is the only process.
    h.close();
    drop(h);
    Produced { check, busy, stalled, backlog, tracer }
}

/// One remove, timed when traced or sampled.
fn take(
    h: &mut VecHandle,
    sampler: &mut Sampler,
    tracer: &mut Option<Tracer>,
) -> Result<u64, RemoveError> {
    if let Some(tracer) = tracer.as_mut() {
        let c0 = Counts::of(h.stats());
        let t0 = Instant::now();
        let got = h.remove(WaitStrategy::Block);
        let t1 = Instant::now();
        let class = Class::of_remove(&c0, &Counts::of(h.stats()), got.is_ok());
        tracer.record(Layer::PoolRemove, class, t0, t1);
        got
    } else if sampler.due() {
        let t0 = Instant::now();
        let got = h.remove(WaitStrategy::Block);
        if got.is_ok() {
            sampler.record(t0.elapsed());
        }
        got
    } else {
        h.remove(WaitStrategy::Block)
    }
}

fn consume(mut h: VecHandle, progress: &Progress, mut tracer: Option<Tracer>) -> Consumed {
    let mut check = Checksum::default();
    let mut sampler = Sampler::new();
    let mut windows = Windows::default();
    let mut errors = 0;
    let start = Instant::now();
    let before = Counts::of(h.stats());
    // Rounds end with the pool empty, so each begins with a remove that
    // parks until the producer's first add; `target` is where the round
    // ends once the producer has published it.
    let mut target = None;
    while errors < 1000 {
        if target.is_some_and(|t| check.count == t) {
            progress.consumed.set(check.count);
            target = None;
        }
        match take(&mut h, &mut sampler, &mut tracer) {
            Ok(v) => check.push(v),
            // The producer closed after its last round.
            Err(RemoveError::Closed) => break,
            // The producer never searches, so no abort is terminal here.
            Err(e) => {
                eprintln!("prodcons: remove failed: {e}");
                errors += 1;
                continue;
            }
        }
        if target.is_none() {
            // The round's first element: let the producer add the rest.
            progress.consumed.set(check.count);
            let seen = check.count;
            target = Some(progress.produced.wait_until(|n| n > seen).0);
        }
        if tracer.is_none() && check.count.is_multiple_of(EVERY) {
            windows.tick(Instant::now(), check.count, &mut sampler);
        }
    }
    let busy = start.elapsed();
    let counts = Counts::of(h.stats()).since(&before);
    Consumed { check, busy, errors, counts, windows, tracer }
}

/// One producer/consumer session on a fresh pool, with the set-up times
/// the main thread took meanwhile.
fn session(
    seed: u64,
    length: Duration,
    trace_epoch: Option<Instant>,
) -> (Produced, Consumed, Vec<f64>) {
    let (pool, producer, consumer) = setup(seed);
    let progress = Progress::default();
    let start = Barrier::new(2);
    let cpu = affinity::last_allowed_cpu();
    let out = std::thread::scope(|s| {
        let (progress, start) = (&progress, &start);
        let p = s.spawn(move || {
            affinity::pin(cpu);
            start.wait();
            let tracer = trace_epoch.map(|epoch| Tracer::new(epoch, 0, 0));
            produce(producer, seed, length, progress, tracer)
        });
        let c = s.spawn(move || {
            affinity::pin(cpu);
            start.wait();
            let tracer = trace_epoch.map(|epoch| Tracer::new(epoch, 0, 1));
            consume(consumer, progress, tracer)
        });
        let running = || !p.is_finished() || !c.is_finished();
        let setups = setup_times_while(running, SETUP_BATCH, || setup(seed));
        (p.join().expect("producer panicked"), c.join().expect("consumer panicked"), setups)
    });
    drop(pool);
    out
}

/// Failed deliveries: unexpected errors, plus elements lost or invented,
/// plus one if the counts agree but the checksums do not.
fn failures(p: &Produced, c: &Consumed) -> u64 {
    let missing = p.check.count.abs_diff(c.check.count);
    let corrupt = u64::from(missing == 0 && p.check != c.check);
    c.errors + missing + corrupt
}

pub fn run(cfg: &Config) -> Outcome {
    let mut m = Metrics::default();
    let (p, c, setups) = session(cfg.seed, cfg.untraced_len(), None);
    let mut failed = failures(&p, &c);
    let mut attempted = p.check.count;
    crate::end_to_end(
        &mut m,
        &c.windows,
        "window",
        (c.check.count, c.busy),
        "elements delivered",
        "remove(Block)",
    );

    m.set("setup_s", median(&setups));
    m.note(
        "setup_s",
        format!(
            "median of {} batches of {SETUP_BATCH}, one per window: build 2-segment pool, \
             register 2",
            setups.len()
        ),
    );

    let mut tracer = None;
    if cfg.traced {
        let (tp, tc, _) = session(cfg.seed, cfg.traced_len(), Some(Instant::now()));
        failed += failures(&tp, &tc);
        attempted += tp.check.count;
        let mut t = tc.tracer.expect("traced consumer records spans");
        t.merge(tp.tracer.expect("traced producer records spans"));
        let add = t.hist(Layer::PoolAdd, Class::Plain);
        m.set("pool.add_ns.p50", add.quantile(0.50));
        m.set("pool.add_ns.p99", add.quantile(0.99));
        m.note("pool.add_ns.p99", format!("n={}", add.count()));
        let removes = t.hist_of(Layer::PoolRemove, &[Class::Local, Class::Steal, Class::Waited]);
        for (class, p50, p99, frac) in [
            (
                Class::Local,
                "pool.remove_local_ns.p50",
                "pool.remove_local_ns.p99",
                "pool.remove_local_frac",
            ),
            (
                Class::Steal,
                "pool.remove_steal_ns.p50",
                "pool.remove_steal_ns.p99",
                "pool.remove_steal_frac",
            ),
            (
                Class::Waited,
                "pool.remove_waited_ns.p50",
                "pool.remove_waited_ns.p99",
                "pool.remove_waited_frac",
            ),
        ] {
            let h = t.hist(Layer::PoolRemove, class);
            m.set(p50, h.quantile(0.50));
            m.set(p99, h.quantile(0.99));
            m.note(p99, format!("n={}", h.count()));
            m.set(frac, ratio(h.count(), removes.count()));
            m.note(frac, format!("base: {} removes", removes.count()));
        }
        let waited = t.hist(Layer::PoolRemove, Class::Waited).sum_ns();
        let busy = tc.busy.as_nanos() as u64;
        m.set("notify.wait_share", ratio(waited, busy));
        m.note("notify.wait_share", format!("base: {busy} ns of consumer time"));
        crate::layer_counts(&mut m, &tc.counts);
        let producer_ns = tp.busy.as_nanos() as u64;
        m.set("bench.producer_stall_share", ratio(tp.stalled.as_nanos() as u64, producer_ns));
        m.note("bench.producer_stall_share", format!("base: {producer_ns} ns of producer time"));
        m.set("bench.backlog.p50", tp.backlog.quantile(0.50));
        m.note("bench.backlog.p50", format!("n={}, round {ROUND}", tp.backlog.count()));
        crate::trace_overhead(
            &mut m,
            ratio(c.check.count, c.busy.as_nanos() as u64),
            ratio(tc.check.count, tc.busy.as_nanos() as u64),
        );
        tracer = Some(t);
    }
    Outcome { metrics: m, attempted, failed, attempted_what: "elements", tracer }
}
