//! `tree-expand`: the §4.4 application. `expand_parallel` runs the 3-ply
//! tic-tac-toe expansion on two workers over the pool-backed work list,
//! which this module wraps in a probing adapter so the expansion runs
//! unmodified while the benchmark times its `get` and `put_batch` calls.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use baselines::{Done, PoolWorkHandle, PoolWorkList, SharedWorkList, WorkHandle};
use cpool::{NullTiming, PolicyKind, ProcId};
use ttt::PAPER_POSITIONS;
use ttt::{expand_parallel, minimax, Board, ExpansionConfig, SearchResult, WorkItem};

use crate::probe::{median, setup_time, Class, Counts, Layer, Sampler, Tracer, Windows};
use crate::report::{ratio, Metrics};
use crate::{Config, Outcome};

const WORKERS: usize = 2;
const DEPTH: u8 = 3;
/// Work items one expansion pulls: 64 + 64·63 + 64·63·62.
const ITEMS: u64 = 64 + 64 * 63 + PAPER_POSITIONS;
const SETUP_BATCH: usize = 16;

/// Zero modelled work: the expansion is bound by the work list and the
/// real board evaluation, not by charged virtual time.
const EXPANSION: ExpansionConfig =
    ExpansionConfig { depth: DEPTH, eval_work_ns: 0, expand_work_ns: 0, batch_leaves: false };

fn new_list(seed: u64) -> PoolWorkList<WorkItem> {
    PoolWorkList::new(WORKERS, PolicyKind::Linear, NullTiming::new(), seed)
}

/// The set-up `expand_parallel` starts from: a list seeded with the root's
/// children and one handle per worker.
fn setup(seed: u64) -> (PoolWorkList<WorkItem>, [PoolWorkHandle<WorkItem>; WORKERS]) {
    let list = new_list(seed);
    list.seed(WorkItem::roots(&Board::new()));
    let handles = [list.register(), list.register()];
    (list, handles)
}

/// What the handles of a phase's expansions leave behind when they drop.
#[derive(Debug, Default)]
struct Sink {
    /// One sampler per worker, lent to that worker's handle while it runs.
    samplers: [Option<Sampler>; WORKERS],
    tracer: Option<Tracer>,
    /// Time inside work-list calls, summed over workers.
    in_calls: Duration,
    /// Time from each worker's first call to its handle's drop, summed.
    lifetimes: Duration,
}

/// A [`PoolWorkList`] whose handles time their calls.
#[derive(Debug)]
struct ProbedList {
    inner: PoolWorkList<WorkItem>,
    sink: Arc<Mutex<Sink>>,
    /// Span epoch and expansion number, when traced.
    trace: Option<(Instant, u32)>,
}

impl SharedWorkList<WorkItem> for ProbedList {
    type Handle = ProbedHandle;

    fn register(&self) -> ProbedHandle {
        let inner = self.inner.register();
        let me = inner.proc_id().index();
        let sampler = self.sink.lock().expect("sink poisoned").samplers[me].take();
        let tracer = self.trace.map(|(epoch, expansion)| Tracer::new(epoch, expansion, me as u32));
        ProbedHandle {
            inner,
            sink: Arc::clone(&self.sink),
            sampler: Some(sampler.unwrap_or_default()),
            tracer,
            first_call: None,
            in_calls: Duration::ZERO,
        }
    }

    fn seed(&self, items: Vec<WorkItem>) {
        self.inner.seed(items);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn close(&self) {
        self.inner.close();
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }
}

#[derive(Debug)]
struct ProbedHandle {
    inner: PoolWorkHandle<WorkItem>,
    sink: Arc<Mutex<Sink>>,
    /// Lent by the sink; handed back on drop.
    sampler: Option<Sampler>,
    tracer: Option<Tracer>,
    first_call: Option<Instant>,
    in_calls: Duration,
}

impl ProbedHandle {
    /// Runs one traced call, recording its span; `ok` says whether the
    /// call's result is a success.
    fn traced<R>(
        &mut self,
        layer: Layer,
        call: impl FnOnce(&mut Self) -> R,
        ok: impl Fn(&R) -> bool,
    ) -> R {
        let t0 = Instant::now();
        self.first_call.get_or_insert(t0);
        let out = call(self);
        let t1 = Instant::now();
        self.in_calls += t1 - t0;
        let class = if ok(&out) { Class::Plain } else { Class::Err };
        self.tracer.as_mut().expect("traced handle").record(layer, class, t0, t1);
        out
    }
}

impl WorkHandle<WorkItem> for ProbedHandle {
    fn put(&mut self, item: WorkItem) {
        self.put_batch(std::iter::once(item));
    }

    fn put_batch<I: IntoIterator<Item = WorkItem>>(&mut self, items: I) {
        if self.tracer.is_some() {
            self.traced(Layer::WorklistPutBatch, |h| h.inner.put_batch(items), |_| true);
        } else {
            self.inner.put_batch(items);
        }
    }

    fn get(&mut self) -> Result<WorkItem, Done> {
        if self.tracer.is_some() {
            return self.traced(Layer::WorklistGet, |h| h.inner.get(), Result::is_ok);
        }
        let sampler = self.sampler.as_mut().expect("lent until drop");
        if sampler.due() {
            let t0 = Instant::now();
            let out = self.inner.get();
            if out.is_ok() {
                sampler.record(t0.elapsed());
            }
            out
        } else {
            self.inner.get()
        }
    }

    fn proc_id(&self) -> ProcId {
        self.inner.proc_id()
    }
}

impl Drop for ProbedHandle {
    fn drop(&mut self) {
        let lifetime = self.first_call.map_or(Duration::ZERO, |t| t.elapsed());
        // A poisoned sink means another worker panicked; that panic is
        // what the run reports, so this deposit may be lost.
        if let Ok(mut sink) = self.sink.lock() {
            let me = self.inner.proc_id().index();
            sink.samplers[me] = self.sampler.take();
            Tracer::merge_into(&mut sink.tracer, self.tracer.take());
            sink.in_calls += self.in_calls;
            sink.lifetimes += lifetime;
        }
    }
}

/// Expansions run back to back for one phase.
#[derive(Debug, Default)]
struct Phase {
    expansions: u64,
    failed: u64,
    items: u64,
    elapsed: Duration,
    /// One window per expansion.
    windows: Windows,
    /// One set-up batch timed after each expansion.
    setup: Vec<f64>,
    counts: Counts,
    sink: Sink,
}

/// Expands until `length` has passed, checking every result against the
/// sequential minimax decision `want`.
fn phase(seed: u64, length: Duration, trace_epoch: Option<Instant>, want: &SearchResult) -> Phase {
    let mut p = Phase::default();
    let sink = Arc::new(Mutex::new(Sink::default()));
    let mut window = Sampler::new();
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let list = ProbedList {
            inner: new_list(seed),
            sink: Arc::clone(&sink),
            trace: trace_epoch.map(|epoch| (epoch, p.expansions as u32)),
        };
        let r = expand_parallel(&list, WORKERS, &EXPANSION, &NullTiming::new(), None);
        let took = t0.elapsed();
        p.expansions += 1;
        let right = r.best_move == want.best_move
            && r.score == want.score
            && r.leaves == PAPER_POSITIONS
            && r.items_processed == ITEMS;
        if !right {
            eprintln!("tree-expand: expansion {} returned {r:?}, want {want:?}", p.expansions);
            p.failed += 1;
        }
        p.items += r.items_processed;
        // Every handle has dropped, so the pool's stats hold all of them.
        p.counts.add(&Counts::of(&list.inner.pool().stats().merged()));
        for worker in sink.lock().expect("sink poisoned").samplers.iter_mut().flatten() {
            window.absorb(worker);
        }
        p.windows.close(r.items_processed, took, &mut window);
        // Between expansions the workers are gone: time a set-up batch.
        p.setup.push(setup_time(SETUP_BATCH, || setup(seed)));
        if start.elapsed() >= length {
            break;
        }
    }
    p.elapsed = start.elapsed();
    p.sink = std::mem::take(&mut *sink.lock().expect("sink poisoned"));
    p
}

pub fn run(cfg: &Config) -> Outcome {
    let want = minimax(&Board::new(), DEPTH);
    let mut m = Metrics::default();

    // One expansion warms allocator and caches before anything is timed.
    let warm = phase(cfg.seed, Duration::ZERO, None, &want);
    let untraced = phase(cfg.seed, cfg.untraced_len(), None, &want);
    let mut failed = warm.failed + untraced.failed;
    let mut attempted = warm.expansions + untraced.expansions;
    crate::end_to_end(
        &mut m,
        &untraced.windows,
        "expansion",
        (untraced.items, untraced.elapsed),
        "work items",
        "get",
    );

    m.set("setup_s", median(&untraced.setup));
    m.note(
        "setup_s",
        format!(
            "median of {} batches of {SETUP_BATCH}, one after each expansion: build list, \
             seed 64 roots, register 2",
            untraced.setup.len()
        ),
    );

    let mut tracer = None;
    if cfg.traced {
        let traced = phase(cfg.seed, cfg.traced_len(), Some(Instant::now()), &want);
        failed += traced.failed;
        attempted += traced.expansions;
        let t = traced.sink.tracer.expect("traced expansions record spans");
        let get = t.hist(Layer::WorklistGet, Class::Plain);
        let put = t.hist(Layer::WorklistPutBatch, Class::Plain);
        m.set("worklist.get_ns.p50", get.quantile(0.50));
        m.set("worklist.get_ns.p99", get.quantile(0.99));
        m.note("worklist.get_ns.p99", format!("n={}", get.count()));
        m.set("worklist.put_batch_ns.p50", put.quantile(0.50));
        m.set("worklist.put_batch_ns.p99", put.quantile(0.99));
        m.note("worklist.put_batch_ns.p99", format!("n={}", put.count()));
        let in_calls = traced.sink.in_calls.as_nanos() as u64;
        let lifetimes = traced.sink.lifetimes.as_nanos() as u64;
        m.set("ttt.app_share", 1.0 - ratio(in_calls, lifetimes));
        m.note("ttt.app_share", format!("base: {lifetimes} ns of worker time"));
        crate::layer_counts(&mut m, &traced.counts);
        crate::trace_overhead(
            &mut m,
            ratio(untraced.items, untraced.elapsed.as_nanos() as u64),
            ratio(traced.items, traced.elapsed.as_nanos() as u64),
        );
        tracer = Some(t);
    }
    Outcome { metrics: m, attempted, failed, attempted_what: "expansions", tracer }
}
