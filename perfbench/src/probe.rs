//! The benchmark's own clock: 1-in-N latency samples for the end-to-end
//! run, and spans with histograms for the traced run.
//!
//! Nothing here reads the pool's internal timers. Latencies come from
//! `Instant` reads around public calls; a span's outcome class comes from
//! the change in the handle's public counters across the call.

use std::time::{Duration, Instant};

use cpool::ProcStats;

/// The end-to-end run times one call in this many on the remove side, on
/// average.
pub const SAMPLE_EVERY: u32 = 64;

/// The traced run keeps every this-many-th span in its in-memory log
/// (every span still lands in the histograms).
const SPAN_EVERY: u64 = 64;

/// Upper bound on spans kept in memory by one run.
const SPAN_CAP: usize = 1 << 18;

/// Latency samples one thread keeps.
const RESERVOIR: usize = 1 << 16;

/// A 1-in-[`SAMPLE_EVERY`] latency sample, in nanoseconds, kept as a uniform
/// reservoir of at most [`RESERVOIR`] values, so a run's memory does not
/// grow with the number of calls it makes.
#[derive(Debug)]
pub struct Sampler {
    countdown: u32,
    /// Calls sampled so far, kept or not.
    seen: u64,
    ns: Vec<u32>,
    rng: u64,
}

impl Default for Sampler {
    fn default() -> Self {
        Self::new()
    }
}

impl Sampler {
    pub fn new() -> Self {
        // Write the whole reservoir now: its pages are resident from the
        // start, so peak RSS does not depend on how fast the run went.
        let mut ns = vec![u32::MAX; RESERVOIR];
        ns.clear();
        Sampler { countdown: SAMPLE_EVERY, seen: 0, ns, rng: 0x9E37_79B9_7F4A_7C15 }
    }

    /// Whether the next call is the sampled one. The gap to the next one
    /// is drawn uniformly from `1..2·SAMPLE_EVERY`, so the sample cannot
    /// lock onto a period of the workload's own (a fixed stride of 64
    /// would time the same positions of every `prodcons` round).
    #[inline]
    pub fn due(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = 1 + (self.next_random() % u64::from(2 * SAMPLE_EVERY - 1)) as u32;
            true
        } else {
            false
        }
    }

    /// Xorshift64: cheap, and the same sequence on every run.
    fn next_random(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    pub fn record(&mut self, elapsed: Duration) {
        self.keep(u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX));
    }

    fn keep(&mut self, ns: u32) {
        self.seen += 1;
        if self.ns.len() < RESERVOIR {
            self.ns.push(ns);
            return;
        }
        // Algorithm R: keep the new value with probability RESERVOIR/seen.
        let slot = self.next_random() % self.seen;
        if let Some(slot) = self.ns.get_mut(slot as usize) {
            *slot = ns;
        }
    }

    /// Samples `other`'s values into this reservoir, emptying it. A
    /// window's sampler never fills its own reservoir, so it holds every
    /// value it saw.
    fn take_all(&mut self, other: &mut Sampler) {
        for &ns in &other.ns {
            self.keep(ns);
        }
        other.clear();
    }

    /// Moves another thread's samples into this one, emptying it.
    pub fn absorb(&mut self, other: &mut Sampler) {
        self.ns.extend_from_slice(&other.ns);
        self.seen += other.seen;
        other.clear();
    }

    fn clear(&mut self) {
        self.ns.clear();
        self.seen = 0;
    }

    /// Nearest-rank percentiles `qs` (each in `0..=1`); zeros when empty.
    fn percentiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        qs.map(|q| {
            if sorted.is_empty() {
                return 0.0;
            }
            let rank = (q * sorted.len() as f64).ceil() as usize;
            f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
        })
    }
}

/// Length of one measurement window.
pub const WINDOW: Duration = Duration::from_millis(250);

/// A measured run cut into whole windows. Throughput and remove-side
/// percentiles are taken over all closed windows together, not window by
/// window: the host has spells of a second or so in which the timed calls
/// run about a fifth faster, and the share of the run they cover varies
/// from run to run. A median of per-window figures jumps from one speed to
/// the other as that share crosses a half; a figure over the whole run
/// moves only in proportion to it.
#[derive(Debug, Default)]
pub struct Windows {
    /// Windows closed.
    pub closed: usize,
    /// Operations in the closed windows, and the time they took.
    ops: u64,
    time: Duration,
    /// Latencies sampled in the closed windows.
    samples: Sampler,
    opened: Option<(Instant, u64)>,
}

impl Windows {
    /// Closes a window in which `ops` operations took `elapsed`; `sampler`
    /// holds its sampled latencies and is emptied.
    pub fn close(&mut self, ops: u64, elapsed: Duration, sampler: &mut Sampler) {
        self.closed += 1;
        self.ops += ops;
        self.time += elapsed;
        self.samples.take_all(sampler);
    }

    /// For loops that run by the clock: given a fresh clock read and the
    /// running operation count, closes the current window once it has
    /// lasted [`WINDOW`]. A last window cut short by the run's end is never
    /// closed, so the run's ragged end is left out.
    pub fn tick(&mut self, now: Instant, ops: u64, sampler: &mut Sampler) {
        let (opened, at) = *self.opened.get_or_insert((now, ops));
        if now - opened >= WINDOW {
            self.close(ops - at, now - opened, sampler);
            self.opened = Some((now, ops));
        }
    }

    /// Adds the windows of a thread that ran alongside this one over the
    /// same time: operations add up, time does not.
    pub fn merge_parallel(&mut self, mut other: Windows) {
        self.closed = self.closed.max(other.closed);
        self.ops += other.ops;
        self.time = self.time.max(other.time);
        self.samples.absorb(&mut other.samples);
    }

    /// Operations per second over the closed windows.
    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.time.as_secs_f64()
    }

    /// Nearest-rank p50 and p99 of the sampled latencies; zeros if none.
    pub fn percentiles(&self) -> [f64; 2] {
        self.samples.percentiles([0.50, 0.99])
    }

    /// Calls timed, and how many of them the reservoir kept.
    pub fn timed(&self) -> (u64, usize) {
        (self.samples.seen, self.samples.ns.len())
    }
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Sub-buckets per power of two: values are kept to within 1/16 (~6%).
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Log-linear histogram of durations in nanoseconds.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u64,
}

impl Hist {
    pub fn new() -> Self {
        Hist { counts: vec![0; BUCKETS], total: 0, sum_ns: 0 }
    }

    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = (v >> shift) as usize & (SUB - 1);
        (shift as usize + 1) * SUB + sub
    }

    /// The middle of a bucket's value range.
    fn value(bucket: usize) -> f64 {
        if bucket < SUB {
            return bucket as f64;
        }
        let shift = (bucket / SUB - 1) as u32;
        let low = ((SUB + bucket % SUB) as u64) << shift;
        low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Nearest-rank quantile, to the bucket's resolution; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (bucket, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::value(bucket);
            }
        }
        0.0
    }
}

/// The public call a span wraps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    PoolAdd,
    PoolRemove,
    WorklistGet,
    WorklistPutBatch,
    KeyedAdd,
    KeyedRemoveKey,
}

impl Layer {
    const ALL: usize = 6;

    fn name(self) -> &'static str {
        match self {
            Layer::PoolAdd => "pool.add",
            Layer::PoolRemove => "pool.remove",
            Layer::WorklistGet => "worklist.get",
            Layer::WorklistPutBatch => "worklist.put_batch",
            Layer::KeyedAdd => "keyed.add",
            Layer::KeyedRemoveKey => "keyed.remove_key",
        }
    }
}

/// How a call completed, read off the handle's counters across it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// No counter classifies the call (adds, work-list calls).
    Plain,
    /// A remove served by the home segment.
    Local,
    /// A remove that stole from another segment without a fruitless pass.
    Steal,
    /// A remove that ran at least one fruitless search pass and waited.
    Waited,
    /// The call returned an error (for a work-list `get`, the `Done`
    /// that ends every worker's loop).
    Err,
}

impl Class {
    const ALL: usize = 5;

    fn name(self) -> &'static str {
        match self {
            Class::Plain => "plain",
            Class::Local => "local",
            Class::Steal => "steal",
            Class::Waited => "waited",
            Class::Err => "err",
        }
    }

    /// Classifies a remove by the change in `(steals, aborted_removes)`.
    pub fn of_remove(before: &Counts, after: &Counts, ok: bool) -> Class {
        if !ok {
            Class::Err
        } else if after.aborted_removes > before.aborted_removes {
            Class::Waited
        } else if after.steals > before.steals {
            Class::Steal
        } else {
            Class::Local
        }
    }
}

/// The public per-handle counters the benchmark reads (never the timers).
#[derive(Clone, Copy, Default, Debug)]
pub struct Counts {
    pub removes: u64,
    pub steals: u64,
    pub aborted_removes: u64,
    pub segments_examined: u64,
    pub elements_stolen: u64,
}

impl Counts {
    pub fn of(stats: &ProcStats) -> Counts {
        Counts {
            removes: stats.removes,
            steals: stats.steals,
            aborted_removes: stats.aborted_removes,
            segments_examined: stats.segments_examined,
            elements_stolen: stats.elements_stolen,
        }
    }

    pub fn since(&self, start: &Counts) -> Counts {
        Counts {
            removes: self.removes - start.removes,
            steals: self.steals - start.steals,
            aborted_removes: self.aborted_removes - start.aborted_removes,
            segments_examined: self.segments_examined - start.segments_examined,
            elements_stolen: self.elements_stolen - start.elements_stolen,
        }
    }

    pub fn add(&mut self, other: &Counts) {
        self.removes += other.removes;
        self.steals += other.steals;
        self.aborted_removes += other.aborted_removes;
        self.segments_examined += other.segments_examined;
        self.elements_stolen += other.elements_stolen;
    }
}

/// One timed public call.
#[derive(Clone, Copy, Debug)]
struct Span {
    start_ns: u64,
    dur_ns: u64,
    /// What caused the call: the expansion or session it belongs to.
    parent: u32,
    thread: u32,
    layer: Layer,
    class: Class,
}

/// Spans of one thread (or one merged run): every span in a histogram per
/// layer and class, every [`SPAN_EVERY`]-th span kept verbatim.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    parent: u32,
    thread: u32,
    seen: u64,
    hists: Vec<Hist>,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer whose span times count from `epoch`.
    pub fn new(epoch: Instant, parent: u32, thread: u32) -> Self {
        Tracer {
            epoch,
            parent,
            thread,
            seen: 0,
            hists: vec![Hist::new(); Layer::ALL * Class::ALL],
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn slot(layer: Layer, class: Class) -> usize {
        layer as usize * Class::ALL + class as usize
    }

    pub fn record(&mut self, layer: Layer, class: Class, start: Instant, end: Instant) {
        let dur_ns = end.duration_since(start).as_nanos() as u64;
        self.hists[Self::slot(layer, class)].record(dur_ns);
        self.seen += 1;
        if self.seen.is_multiple_of(SPAN_EVERY) {
            if self.spans.len() < SPAN_CAP {
                self.spans.push(Span {
                    start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                    dur_ns,
                    parent: self.parent,
                    thread: self.thread,
                    layer,
                    class,
                });
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Merges `other` into `slot`, which may not hold a tracer yet.
    pub fn merge_into(slot: &mut Option<Tracer>, other: Option<Tracer>) {
        match (slot.as_mut(), other) {
            (Some(all), Some(t)) => all.merge(t),
            (None, t) => *slot = t,
            (Some(_), None) => {}
        }
    }

    pub fn merge(&mut self, other: Tracer) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
        self.seen += other.seen;
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        let kept = other.spans.len().min(room);
        self.dropped += other.dropped + (other.spans.len() - kept) as u64;
        self.spans.extend_from_slice(&other.spans[..kept]);
    }

    pub fn hist(&self, layer: Layer, class: Class) -> &Hist {
        &self.hists[Self::slot(layer, class)]
    }

    /// One layer's spans of the given classes, merged.
    pub fn hist_of(&self, layer: Layer, classes: &[Class]) -> Hist {
        let mut all = Hist::new();
        for &class in classes {
            all.merge(self.hist(layer, class));
        }
        all
    }

    /// Writes the kept spans as CSV, returning how many were written.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<usize> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# every {SPAN_EVERY}th span; {} more not kept", self.dropped)?;
        writeln!(out, "parent,thread,layer,outcome,start_ns,dur_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.parent,
                s.thread,
                s.layer.name(),
                s.class.name(),
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()?;
        Ok(self.spans.len())
    }
}

/// Set-up time in seconds: the mean of `batch` back-to-back `build` calls,
/// whose results are dropped after the clock stops.
pub fn setup_time<T>(batch: usize, mut build: impl FnMut() -> T) -> f64 {
    let mut built = Vec::with_capacity(batch);
    let t0 = Instant::now();
    built.extend((0..batch).map(|_| build()));
    let mean = t0.elapsed().as_secs_f64() / batch as f64;
    drop(built);
    mean
}

/// Times one set-up batch, then one more per [`WINDOW`] for as long as
/// `running` holds. The workloads call this from their otherwise idle main
/// thread while the measured run goes on, so set-up time is sampled
/// across the whole run. On a shared 2-vCPU guest one batch lands on a
/// fast or a slow spell (about 45% apart for the cheap set-ups); the
/// median of a run's worth of batches does not hinge on one of them.
pub fn setup_times_while<T>(
    running: impl Fn() -> bool,
    batch: usize,
    mut build: impl FnMut() -> T,
) -> Vec<f64> {
    let mut times = vec![setup_time(batch, &mut build)];
    while running() {
        std::thread::sleep(WINDOW);
        times.push(setup_time(batch, &mut build));
    }
    times
}
