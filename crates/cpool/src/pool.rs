//! The concurrent pool: segments + search policy + livelock gate.
//!
//! A [`Pool`] owns one segment per processor, a shared search policy, the
//! [`SearchGate`] livelock breaker, and a [`Timing`] cost model. Processes
//! interact with the pool through per-process [`Handle`]s, which carry the
//! policy's per-process state (round number, ring position, RNG) and a
//! private statistics block.
//!
//! The cost model is a type parameter (`Pool<S, P, T: Timing>`, defaulting
//! to [`NullTiming`]): the uninstrumented pool monomorphizes to bare
//! lock/steal code, and runtime-selected models use the
//! [`DynTiming`](crate::timing::DynTiming) adapter — see
//! [`timing`](crate::timing) for choosing between them.
//!
//! # The steal protocol
//!
//! A `remove` first tries the local segment. If that is empty the process
//! registers as *searching* and runs the policy, which probes victim
//! segments through the pool's [`SearchEnv`]: a successful probe atomically
//! takes ⌈n/2⌉ elements from the victim, keeps one to satisfy the remove,
//! and moves the rest into the searcher's own segment ("by stealing half of
//! the elements found at the non-empty segment rather than just enough to
//! satisfy the immediate need, the searching process is trying to balance
//! the available reserves and prevent its next request from also having to
//! perform a search").
//!
//! The steal is two-phase — drain the victim under its own lock, then
//! refill the local segment under its lock — so no two segment locks are
//! ever held at once and thief/thief or thief/owner deadlock is impossible
//! by construction. The protocol itself (registration, lap-counted
//! gate-abort, the two-phase transfer, stats plumbing) lives in the shared
//! `core` engine; this module supplies the element model
//! (a [`Segment`] per processor) and the pluggable [`SearchPolicy`] driver.

use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use crate::core::{OpTimer, Registry, SearchSession, Slot, WaitCtl};
use crate::error::RemoveError;
use crate::future::RemoveFuture;
use crate::gate::SearchGate;
use crate::hints::{HintBoard, HINT_BOARD_RESOURCE};
use crate::ids::{ProcId, SegIdx};
use crate::magazine::{CacheOutcome, Depot, MagazineCache, PopOutcome};
use crate::ops::{PoolOps, SmallDrain, WaitStrategy};
use crate::search::{
    DynPolicy, LinearSearch, NodeStoreKind, PolicyKind, ProbeOutcome, SearchEnv, SearchOutcome,
    SearchPolicy,
};
use crate::segment::Segment;
use crate::stats::{PoolStats, ProcStats};
use crate::timing::{NullTiming, Resource, Timing};
use crate::trace::{TraceEvent, TraceKind, TraceRecorder};
use crate::transfer::TransferBatch;

/// Configures and builds a [`Pool`].
///
/// The builder learns the segment count **once**, in [`new`](Self::new),
/// and wires it into everything that needs it — the segments themselves
/// and the search policy:
///
/// * [`build`](Self::build) — the default policy ([`LinearSearch`]);
/// * [`build_policy`](Self::build_policy) — a runtime-selected
///   [`PolicyKind`], constructed internally for this builder's segment
///   count and [`node_store`](Self::node_store);
/// * [`build_with_policy`](Self::build_with_policy) — a caller-constructed
///   policy instance, for policies the two forms above cannot express.
///
/// The cost model is a *type parameter* (defaulting to the free
/// [`NullTiming`]): [`timing`](Self::timing) rebinds it, so the model you
/// install is statically dispatched on the pool's hot path. Pass a
/// [`DynTiming`](crate::timing::DynTiming) (`Arc<dyn Timing>`) to select
/// the model at runtime instead.
///
/// ```
/// use cpool::prelude::*;
///
/// // The segment count is stated exactly once.
/// let pool: Pool<LockedCounter, DynPolicy> =
///     PoolBuilder::new(16).seed(42).record_trace(true).build_policy(PolicyKind::Tree);
/// assert_eq!(pool.segments(), 16);
/// assert_eq!(pool.policy_name(), "tree");
/// ```
///
/// Runtime-selected model through the adapter:
///
/// ```
/// use cpool::prelude::*;
/// use cpool::DynTiming;
/// use std::sync::Arc;
///
/// let model: DynTiming = Arc::new(NullTiming::new());
/// let pool: Pool<LockedCounter, LinearSearch, DynTiming> =
///     PoolBuilder::new(4).timing(model).build();
/// assert_eq!(pool.segments(), 4);
/// ```
#[must_use = "a PoolBuilder does nothing until one of its build methods is called"]
pub struct PoolBuilder<S, T: Timing = NullTiming> {
    segments: usize,
    seed: u64,
    timing: T,
    node_store: NodeStoreKind,
    record_trace: bool,
    trace_procs: Option<usize>,
    hints: bool,
    hint_procs: Option<usize>,
    add_overhead_ns: u64,
    remove_overhead_ns: u64,
    handle_cache: usize,
    _marker: std::marker::PhantomData<fn() -> S>,
}

impl<S, T: Timing> std::fmt::Debug for PoolBuilder<S, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolBuilder")
            .field("segments", &self.segments)
            .field("seed", &self.seed)
            .field("record_trace", &self.record_trace)
            .finish_non_exhaustive()
    }
}

impl<S: Segment> PoolBuilder<S> {
    /// Starts building a pool with `segments` segments and the free
    /// [`NullTiming`] cost model.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn new(segments: usize) -> Self {
        assert!(segments > 0, "pool must have at least one segment");
        PoolBuilder {
            segments,
            seed: 0,
            timing: NullTiming::new(),
            node_store: NodeStoreKind::default(),
            record_trace: false,
            trace_procs: None,
            hints: false,
            hint_procs: None,
            add_overhead_ns: 0,
            remove_overhead_ns: 0,
            handle_cache: 0,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S: Segment, T: Timing> PoolBuilder<S, T> {
    /// Sets the seed from which all per-process randomness derives.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a cost model (defaults to [`NullTiming`]), rebinding the
    /// builder's timing type parameter.
    ///
    /// The model is statically dispatched: pass a concrete type to compile
    /// the charges into the pool, or a [`DynTiming`](crate::timing::DynTiming)
    /// to choose one at runtime.
    pub fn timing<T2: Timing>(self, timing: T2) -> PoolBuilder<S, T2> {
        PoolBuilder {
            segments: self.segments,
            seed: self.seed,
            timing,
            node_store: self.node_store,
            record_trace: self.record_trace,
            trace_procs: self.trace_procs,
            hints: self.hints,
            hint_procs: self.hint_procs,
            add_overhead_ns: self.add_overhead_ns,
            remove_overhead_ns: self.remove_overhead_ns,
            handle_cache: self.handle_cache,
            _marker: std::marker::PhantomData,
        }
    }

    /// Selects the superimposed tree's round-counter synchronization for
    /// policies built through [`build_policy`](Self::build_policy)
    /// (defaults to the paper's [`NodeStoreKind::Locked`]; ignored by the
    /// linear and random policies).
    pub fn node_store(mut self, store: NodeStoreKind) -> Self {
        self.node_store = store;
        self
    }

    /// Enables segment-size trace recording (Figures 3–6 instrumentation).
    pub fn record_trace(mut self, enabled: bool) -> Self {
        self.record_trace = enabled;
        self
    }

    /// Number of processes the trace recorder should accommodate (defaults
    /// to the segment count).
    pub fn trace_procs(mut self, procs: usize) -> Self {
        self.trace_procs = Some(procs);
        self
    }

    /// Enables the search-hint extension (§5 of the paper, answered in
    /// [`hints`](crate::hints)): adds are redirected to processes whose
    /// removes are searching.
    pub fn hints(mut self, enabled: bool) -> Self {
        self.hints = enabled;
        self
    }

    /// Number of mailboxes on the hint board (defaults to the segment
    /// count; processes with higher ids fall back to plain searching).
    pub fn hint_procs(mut self, procs: usize) -> Self {
        self.hint_procs = Some(procs);
        self
    }

    /// Fixed per-operation computation charged (through the cost model) to
    /// every add and every remove *attempt*, on top of the shared-memory
    /// accesses the operation performs. Batched operations pay it once per
    /// batch — that amortization is the point of the batch API.
    ///
    /// This models the base cost of the operation's own code path. Kotz &
    /// Ellis report "typical undelayed segment operation times \[of\]
    /// approximately 70 µsec for add operations and 110 µsec for remove
    /// operations" on the Butterfly; with the default 10 µs segment access
    /// of `numa_sim::LatencyModel::butterfly`, overheads of 60 µs / 100 µs
    /// reproduce those totals. Defaults to zero (raw library speed).
    pub fn op_overhead(mut self, add_ns: u64, remove_ns: u64) -> Self {
        self.add_overhead_ns = add_ns;
        self.remove_overhead_ns = remove_ns;
        self
    }

    /// Gives every registered handle a private two-magazine element cache
    /// of `depth` elements per magazine, exchanged with a shared per-pool
    /// depot (see [`magazine`](crate::magazine)). Zero — the default —
    /// disables the layer entirely.
    ///
    /// Cached elements are invisible to [`total_len`](Pool::total_len),
    /// to other handles, and to per-segment occupancy until they flush, so
    /// enable this only for throughput-oriented flows that tolerate the
    /// relaxed visibility — see the README's "Handle-local caching"
    /// section for the semantics and the cases where the layer should stay
    /// off.
    pub fn handle_cache(mut self, depth: usize) -> Self {
        self.handle_cache = depth;
        self
    }

    /// Builds the pool with the default search policy: [`LinearSearch`],
    /// constructed for this builder's segment count (§5's conclusion that
    /// "the linear or the random search algorithm may suffice and provide
    /// better performance").
    ///
    /// ```
    /// use cpool::prelude::*;
    ///
    /// let pool: Pool<VecSegment<u32>, LinearSearch> = PoolBuilder::new(8).build();
    /// assert_eq!(pool.policy_name(), "linear");
    /// ```
    #[must_use]
    pub fn build(self) -> Pool<S, LinearSearch, T> {
        let segments = self.segments;
        self.build_with_policy(LinearSearch::new(segments))
    }

    /// Builds the pool with a runtime-selected search algorithm.
    ///
    /// The policy is constructed internally for this builder's segment
    /// count (and [`node_store`](Self::node_store), for the tree), so the
    /// count is stated exactly once per pool — the
    /// `PoolBuilder::new(n).build_with_policy(LinearSearch::new(n))`
    /// double-`n` pattern is what this method replaces.
    ///
    /// ```
    /// use cpool::prelude::*;
    ///
    /// for kind in PolicyKind::ALL {
    ///     let pool: Pool<LockedCounter, DynPolicy> = PoolBuilder::new(4).build_policy(kind);
    ///     assert_eq!(pool.policy_name(), kind.to_string());
    /// }
    /// ```
    #[must_use]
    pub fn build_policy(self, kind: PolicyKind) -> Pool<S, DynPolicy, T> {
        let policy = kind.build(self.segments, self.node_store);
        self.build_with_policy(policy)
    }

    /// Builds the pool with a caller-constructed search policy.
    ///
    /// Prefer [`build`](Self::build) or [`build_policy`](Self::build_policy)
    /// where they suffice: both wire the builder's segment count into the
    /// policy themselves, while this method requires the caller to repeat
    /// it (`PoolBuilder::new(n)` *and* `LinearSearch::new(n)`) and panics
    /// later if the two disagree. It remains the escape hatch for policy
    /// instances the other builders cannot express — a concrete policy
    /// type parameter, a pre-built [`DynPolicy`], or a
    /// [`TreeSearch`](crate::search::TreeSearch) with a custom store.
    ///
    /// # Panics
    ///
    /// Panics if the policy was constructed for a different segment count
    /// (checked in debug builds when the first handle searches).
    #[must_use]
    pub fn build_with_policy<P: SearchPolicy>(self, policy: P) -> Pool<S, P, T> {
        // Segments are built as one family so representations with pooled
        // resources (the block segment's block cache, the vec segment's
        // shell cache) share them across the pool.
        let segments: Box<[Slot<S>]> =
            S::new_family(self.segments).into_iter().map(Slot::new).collect();
        let trace = self
            .record_trace
            .then(|| TraceRecorder::new(self.trace_procs.unwrap_or(self.segments)));
        let hints = self.hints.then(|| HintBoard::new(self.hint_procs.unwrap_or(self.segments)));
        // Depot rings sized so every segment's worth of handles can have a
        // magazine in flight plus slack: overflowing the ring is handled
        // (the exchange falls back to the shared path), it just costs the
        // amortization.
        let depot =
            (self.handle_cache > 0).then(|| Depot::new(self.handle_cache, 2 * self.segments + 2));
        Pool {
            shared: Arc::new(Shared {
                segments,
                policy,
                registry: Registry::new(),
                timing: self.timing,
                seed: self.seed,
                trace,
                hints,
                add_overhead_ns: self.add_overhead_ns,
                remove_overhead_ns: self.remove_overhead_ns,
                depot,
                handle_cache: self.handle_cache,
            }),
        }
    }
}

pub(crate) struct Shared<S: Segment, P, T> {
    segments: Box<[Slot<S>]>,
    policy: P,
    registry: Registry,
    timing: T,
    seed: u64,
    trace: Option<TraceRecorder>,
    hints: Option<HintBoard<S::Item>>,
    add_overhead_ns: u64,
    remove_overhead_ns: u64,
    /// The magazine exchange point, present when the pool was built with a
    /// non-zero [`PoolBuilder::handle_cache`] depth.
    depot: Option<Depot<S::Item>>,
    /// The configured magazine depth (elements per magazine; zero = off).
    handle_cache: usize,
}

impl<S: Segment, P: SearchPolicy, T: Timing> Shared<S, P, T> {
    /// The pool's wakeup channel.
    pub(crate) fn notifier(&self) -> &crate::notify::Notifier {
        self.registry.notifier()
    }

    /// Whether every pool-visible element store is empty right now — all
    /// segments plus the magazine depot's stashed gauge (overstate-only,
    /// so an in-flight exchange can never make this falsely true). This is
    /// the drained snapshot the remove drivers use for their terminal
    /// mapping; elements cached in *handles'* magazines are deliberately
    /// not counted (see [`magazine`](crate::magazine) for why that cannot
    /// strand a waiter).
    pub(crate) fn drained(&self) -> bool {
        self.segments.iter().all(|s| s.is_empty())
            && self.depot.as_ref().is_none_or(|d| d.stashed() == 0)
    }

    /// Fresh per-searcher policy state anchored at `home` (what
    /// [`Pool::register`] builds for a handle; futures build their own).
    pub(crate) fn init_state(&self, home: SegIdx) -> P::State {
        self.policy.init_state(home, self.segments.len(), self.seed)
    }

    /// One remove pass: local try, then — if the local segment is empty —
    /// a full policy search with the steal protocol. This is the engine
    /// both `Handle::try_remove` and the async futures drive; the handle
    /// passes `detached: false` (gate-registered search, hint-board
    /// participation), a future `detached: true` (observe the gate without
    /// counting as a searcher — see [`SearchSession::begin_detached`] —
    /// and stay off the hint board, whose mailboxes are per-[`ProcId`] and
    /// would be shared with the handle that created the future).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn remove_pass(
        &self,
        me: ProcId,
        home: SegIdx,
        state: &mut P::State,
        stats: &mut ProcStats,
        detached: bool,
        overhead_ns: u64,
        mut wait: Option<&mut WaitCtl<'_>>,
    ) -> Result<S::Item, RemoveError> {
        let timer = OpTimer::start(&self.timing, me, overhead_ns);
        self.timing.charge(me, Resource::Segment(home));
        if let Some(item) = self.segments[home.index()].try_remove() {
            timer.finish_local_remove(stats);
            self.record_trace(me, home, TraceKind::Remove);
            return Ok(item);
        }

        // Local segment empty: before searching, raid the magazine depot —
        // a full magazine stashed there is closer than any victim segment,
        // and draining it keeps producer-cached elements flowing to
        // consumers that have no magazine of their own (futures, detached
        // removers, plain handles on a cached pool).
        if let Some(depot) = &self.depot {
            if let Some((item, rest)) = depot.raid() {
                if let Some(rest) = rest {
                    // The ring refilled while the magazine was out: bank
                    // the remainder in the home segment so the elements
                    // stay pool-visible, then retire them from the gauge.
                    let n = rest.len();
                    self.timing.charge(me, Resource::Segment(home));
                    self.segments[home.index()].add_bulk_vec(rest);
                    self.registry.notifier().notify_all();
                    depot.unstash(n);
                }
                stats.depot_exchanges += 1;
                timer.finish_depot_remove(stats);
                return Ok(item);
            }
        }

        // Still nothing: search remote segments, guarded by the gate.
        // With hints enabled the searcher posts on the board *after one
        // full fruitless lap* (see `PoolSearchEnv::should_abort`): batch
        // steals remain the first-line mechanism — they balance reserves in
        // a way single-element deliveries cannot — and donations target
        // exactly the long-tail searches that batches cannot satisfy.
        if let Some(ctl) = wait.as_deref_mut() {
            ctl.begin_pass();
        }
        let lap = self.segments.len() as u64;
        let session = if detached {
            SearchSession::begin_detached(&self.timing, self.registry.gate(), me, home, lap)
        } else {
            SearchSession::begin(&self.timing, self.registry.gate(), me, home, lap)
        };
        let hints = if detached { None } else { self.hints.as_ref() };
        let mut env = PoolSearchEnv {
            shared: self,
            session,
            hints,
            stolen: 0,
            taken: None,
            victim: None,
            wait,
        };
        let outcome = self.policy.search(state, &mut env);
        let PoolSearchEnv { session, stolen, mut taken, victim, hints, .. } = env;
        let search_t0 = session.started_ns();
        stats.segments_examined += session.examined();
        stats.tree_nodes_visited += session.nodes_visited();
        // End the search (releasing the gate) before touching the board so
        // a donor's glance cannot deliver into a finished search; then
        // withdraw whatever happened — a donation that raced with the end
        // of the search is recovered here, never lost.
        drop(session);
        let delivery = hints.and_then(|b| b.cancel(me));
        match outcome {
            SearchOutcome::Found => {
                let item = taken.take().expect("search reported Found without an element");
                let victim = victim.expect("search reported Found without a victim");
                if let Some(extra) = delivery {
                    // Both a steal and a donation: keep the stolen element
                    // for the caller and bank the donation locally (and
                    // wake parked waiters — the banked element is fresh
                    // availability they were never signalled about).
                    self.timing.charge(me, Resource::Segment(home));
                    self.segments[home.index()].add(extra);
                    self.registry.notifier().notify_all();
                }
                timer.finish_steal_remove(stats, stolen, search_t0);
                self.record_trace(me, victim, TraceKind::StealFrom);
                self.record_trace(me, home, TraceKind::StealInto);
                Ok(item)
            }
            SearchOutcome::Aborted if delivery.is_some() => {
                // The search saw the delivery (or the gate fired just as a
                // donor came through): the donated element satisfies the
                // remove without any steal.
                let item = delivery.expect("guard checked");
                timer.finish_hinted_remove(stats);
                Ok(item)
            }
            SearchOutcome::Aborted => {
                debug_assert!(taken.is_none());
                timer.finish_aborted(stats);
                Err(self.abort_error())
            }
        }
    }

    /// Maps a search abort to its caller-facing error: an abort on a
    /// closed *and drained* pool is the end of the pool's life
    /// ([`RemoveError::Closed`]); anything else keeps the §3.2
    /// [`RemoveError::Aborted`] semantics (a closed pool that still holds
    /// elements must drain them first).
    fn abort_error(&self) -> RemoveError {
        if self.registry.notifier().is_closed() && self.drained() {
            RemoveError::Closed
        } else {
            RemoveError::Aborted
        }
    }

    fn record_trace(&self, me: ProcId, seg: SegIdx, kind: TraceKind) {
        if let Some(trace) = &self.trace {
            trace.record(TraceEvent {
                t_ns: self.timing.now(me),
                proc: me,
                seg,
                len: self.segments[seg.index()].len() as u32,
                kind,
            });
        }
    }
}

/// A concurrent pool: a distributed, unordered collection of items.
///
/// The third type parameter is the statically-dispatched cost model; the
/// default [`NullTiming`] compiles every charge and clock read away (see
/// [`timing`](crate::timing)). Cloning a `Pool` is cheap (it is an `Arc`
/// handle to shared state); all clones refer to the same pool. See the
/// [crate docs](crate) for an end-to-end example.
///
/// A local operation writes only memory its own process writes. Each
/// segment sits in its own slot, at least 128 bytes from its neighbours,
/// so two processes never write one cache line (or one x86 adjacent-line
/// pair) from neighbouring segments. [`Handle`] and [`RemoveFuture`]
/// operations borrow the shared state instead of cloning the `Arc`, so
/// they never write its reference count, a line every process shares;
/// only creating an owner — [`register`](Self::register), `clone`, a
/// future — does. On two cores, that line traffic, not the segment lock,
/// was most of the cost of a local remove.
pub struct Pool<S: Segment, P: SearchPolicy, T: Timing = NullTiming> {
    shared: Arc<Shared<S, P, T>>,
}

impl<S: Segment, P: SearchPolicy, T: Timing> Clone for Pool<S, P, T> {
    fn clone(&self) -> Self {
        Pool { shared: Arc::clone(&self.shared) }
    }
}

impl<S: Segment, P: SearchPolicy, T: Timing> std::fmt::Debug for Pool<S, P, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("segments", &self.shared.segments.len())
            .field("policy", &self.shared.policy.name())
            .field("registered", &self.shared.registry.gate().registered())
            .finish_non_exhaustive()
    }
}

impl<S: Segment, P: SearchPolicy, T: Timing> Pool<S, P, T> {
    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.shared.segments.len()
    }

    /// Name of the search policy in use.
    pub fn policy_name(&self) -> &'static str {
        self.shared.policy.name()
    }

    /// Direct access to the policy (e.g. to inspect tree round counters).
    pub fn policy(&self) -> &P {
        &self.shared.policy
    }

    /// The livelock gate (mainly for diagnostics and tests).
    pub fn gate(&self) -> &SearchGate {
        self.shared.registry.gate()
    }

    /// The pool's cost model.
    pub fn timing(&self) -> &T {
        &self.shared.timing
    }

    /// The trace recorder, if tracing was enabled at build time.
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.shared.trace.as_ref()
    }

    /// The hint board, if the hint extension was enabled at build time.
    pub fn hint_board(&self) -> Option<&HintBoard<S::Item>> {
        self.shared.hints.as_ref()
    }

    /// Current size of one segment (snapshot).
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn segment_len(&self, seg: SegIdx) -> usize {
        self.shared.segments[seg.index()].len()
    }

    /// Total number of elements across all segments (snapshot; exact only
    /// while no operations are in flight).
    ///
    /// Elements cached in handle magazines or stashed in the depot are
    /// **not** counted — see [`depot_len`](Self::depot_len),
    /// [`Handle::cached_len`], and [`magazine`](crate::magazine) for the
    /// visibility semantics.
    pub fn total_len(&self) -> usize {
        self.shared.segments.iter().map(|s| s.len()).sum()
    }

    /// Elements currently stashed in the magazine depot's full magazines
    /// (snapshot; zero when the pool was built without
    /// [`handle_cache`](PoolBuilder::handle_cache), may briefly overstate
    /// while an exchange is in flight).
    pub fn depot_len(&self) -> usize {
        self.shared.depot.as_ref().map_or(0, Depot::stashed)
    }

    /// Current segment sizes (snapshot).
    pub fn segment_sizes(&self) -> Vec<usize> {
        self.shared.segments.iter().map(|s| s.len()).collect()
    }

    /// Distributes `count` items round-robin across the segments, producing
    /// each item with `make`. Intended for pre-run initialization (the
    /// paper's "pool initialized with only 320 elements"); accesses are not
    /// charged to any process. Consumers already parked in a
    /// [`Block`](crate::WaitStrategy::Block) remove are woken once.
    pub fn fill_evenly_with(&self, count: usize, mut make: impl FnMut(usize) -> S::Item) {
        let n = self.segments();
        for i in 0..count {
            self.shared.segments[i % n].add(make(i));
        }
        if count > 0 {
            self.shared.registry.notifier().notify_all();
        }
    }

    /// Closes the pool — see [`PoolOps::close`] for the semantics (sticky,
    /// idempotent; blocked and future removers drain the residue and then
    /// observe [`RemoveError::Closed`]).
    ///
    /// ```
    /// use cpool::prelude::*;
    ///
    /// let pool: Pool<VecSegment<u32>, LinearSearch> = PoolBuilder::new(1).build();
    /// let mut h = pool.register();
    /// h.add(7);
    /// pool.close();
    /// assert_eq!(h.remove(WaitStrategy::Block), Ok(7), "residue drains first");
    /// assert_eq!(h.remove(WaitStrategy::Block), Err(RemoveError::Closed));
    /// ```
    pub fn close(&self) {
        self.shared.registry.notifier().close();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.shared.registry.notifier().is_closed()
    }

    /// Registers a new process and returns its handle.
    ///
    /// The `i`-th registration gets process id `i` and home segment
    /// `i mod segments` (the paper runs exactly one process per segment;
    /// over-subscription shares segments round-robin).
    pub fn register(&self) -> Handle<S, P, T> {
        let (me, seg) = self.shared.registry.register(self.segments());
        let state = self.shared.policy.init_state(seg, self.segments(), self.shared.seed);
        let magazine = (self.shared.handle_cache > 0)
            .then(|| std::cell::RefCell::new(MagazineCache::new(self.shared.handle_cache)));
        Handle {
            shared: Arc::clone(&self.shared),
            local: Local { me, seg, state, stats: ProcStats::default(), poll_slot: None, magazine },
        }
    }

    /// Statistics gathered from handles that have been dropped so far,
    /// ordered by process id.
    pub fn stats(&self) -> PoolStats {
        self.shared.registry.stats()
    }
}

impl<S: Segment, P: SearchPolicy, T: Timing> Pool<S, P, T>
where
    S::Item: Default,
{
    /// Distributes `count` default-valued items round-robin across segments.
    pub fn fill_evenly(&self, count: usize) {
        self.fill_evenly_with(count, |_| S::Item::default());
    }
}

/// A per-process handle to a [`Pool`].
///
/// Handles are `Send` but not `Sync`: exactly one thread drives a process.
/// Dropping the handle deregisters the process from the livelock gate and
/// deposits its statistics with the pool.
pub struct Handle<S: Segment, P: SearchPolicy, T: Timing = NullTiming> {
    shared: Arc<Shared<S, P, T>>,
    local: Local<S, P>,
}

/// The part of a [`Handle`] that only its own process writes.
///
/// It is a field apart from the shared state so that one operation can
/// borrow both at once: a blocking or polled remove's wait controller and
/// drained snapshots hold `&Shared` while its passes mutate `Local`.
/// Cloning the pool's `Arc` for those borrows instead would make every
/// remove write the reference count, a cache line every process shares.
struct Local<S: Segment, P: SearchPolicy> {
    me: ProcId,
    seg: SegIdx,
    state: P::State,
    stats: ProcStats,
    /// Armed waker-registration ticket from [`poll_remove`](Handle::poll_remove)
    /// (the handle-level poll API; [`RemoveFuture`] keeps its own slot).
    /// Cancelled on drop so a retired handle cannot leave a dangling
    /// registration holding the notifier's waiter count up.
    poll_slot: Option<u64>,
    /// The handle's private two-magazine cache, present when the pool was
    /// built with a non-zero `handle_cache` depth. In a `RefCell` because
    /// [`close`](Handle::close) takes `&self` but must flush the cache
    /// back through the pool.
    magazine: Option<std::cell::RefCell<MagazineCache<S::Item>>>,
}

impl<S: Segment, P: SearchPolicy> Local<S, P> {
    /// One remove as this process: from the private magazines first (a
    /// hit is a thread-local pop, a refill claims one full magazine from
    /// the depot for this and the next `cap - 1` removes), then one pass
    /// over the pool.
    ///
    /// `overhead_ns` is the per-operation charge (zero on the batched
    /// paths and on a blocking remove's retry passes, which already paid
    /// it); `wait` is the blocking-wait controller that
    /// [`remove_bounded`](PoolOps::remove_bounded) threads into the search
    /// so it parks at lap boundaries instead of polling.
    fn try_remove<T: Timing>(
        &mut self,
        shared: &Shared<S, P, T>,
        overhead_ns: u64,
        wait: Option<&mut WaitCtl<'_>>,
    ) -> Result<S::Item, RemoveError> {
        if let (Some(depot), Some(mag)) = (&shared.depot, &self.magazine) {
            let outcome = mag.borrow_mut().pop(depot);
            match outcome {
                // Untimed like the cached add: the configured per-op
                // computation is still charged to simulated cost models,
                // but no clock reads (which Sim and Real timing would pay)
                // price the thread-local pop.
                PopOutcome::Hit(item) => {
                    if overhead_ns > 0 {
                        shared.timing.charge_work(self.me, overhead_ns);
                    }
                    self.stats.record_cached_remove();
                    return Ok(item);
                }
                PopOutcome::Refilled(item) => {
                    if overhead_ns > 0 {
                        shared.timing.charge_work(self.me, overhead_ns);
                    }
                    self.stats.depot_exchanges += 1;
                    self.stats.record_cached_remove();
                    return Ok(item);
                }
                PopOutcome::Miss => {}
            }
        }
        shared.remove_pass(
            self.me,
            self.seg,
            &mut self.state,
            &mut self.stats,
            false,
            overhead_ns,
            wait,
        )
    }
}

impl<S: Segment, P: SearchPolicy, T: Timing> std::fmt::Debug for Handle<S, P, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle")
            .field("proc", &self.local.me)
            .field("segment", &self.local.seg)
            .finish_non_exhaustive()
    }
}

impl<S: Segment, P: SearchPolicy, T: Timing> Handle<S, P, T> {
    /// This process's id.
    pub fn proc_id(&self) -> ProcId {
        self.local.me
    }

    /// This process's home segment.
    pub fn home_segment(&self) -> SegIdx {
        self.local.seg
    }

    /// Statistics accumulated by this process so far.
    pub fn stats(&self) -> &ProcStats {
        &self.local.stats
    }

    /// Current time for this process, per the pool's clock: virtual time
    /// under `SimTiming`, wall-clock nanoseconds under `RealTiming`, and
    /// always 0 under the default [`NullTiming`], which has no clock.
    pub fn now(&self) -> u64 {
        self.shared.timing.now(self.local.me)
    }

    /// Charges `ns` nanoseconds of application work to this process
    /// (meaningful under a virtual-time cost model; free otherwise).
    pub fn charge_work(&self, ns: u64) {
        self.shared.timing.charge_work(self.local.me, ns);
    }

    /// Elements currently cached in this handle's private magazines
    /// (zero when the pool was built without
    /// [`handle_cache`](PoolBuilder::handle_cache)).
    pub fn cached_len(&self) -> usize {
        self.local.magazine.as_ref().map_or(0, |m| m.borrow().len())
    }

    /// Closes the pool — see [`PoolOps::close`]. Any handle (or the
    /// [`Pool`] itself) may close; the transition is pool-wide.
    ///
    /// This handle's magazine cache is flushed back through the pool
    /// first, so blocked and async removers drain the cached residue
    /// before observing [`RemoveError::Closed`]. Other handles flush their
    /// own caches on their next operation or on drop.
    pub fn close(&self) {
        self.flush_magazine();
        self.shared.registry.notifier().close();
    }

    /// Publishes every element cached in this handle's magazines into the
    /// home segment and wakes parked waiters. No-op when the cache is
    /// absent or empty.
    fn flush_magazine(&self) {
        let Some(mag) = &self.local.magazine else { return };
        let mut mag = mag.borrow_mut();
        if mag.is_empty() {
            return;
        }
        let items = mag.take_all();
        drop(mag);
        let (me, seg) = (self.local.me, self.local.seg);
        self.shared.timing.charge(me, Resource::Segment(seg));
        self.shared.segments[seg.index()].add_bulk_vec(items);
        self.shared.registry.notifier().notify_all();
        self.shared.record_trace(me, seg, TraceKind::Add);
    }

    /// Whether the pool has been [closed](Self::close).
    pub fn is_closed(&self) -> bool {
        self.shared.registry.notifier().is_closed()
    }

    /// Adds an element: to the local segment, or — when the hint extension
    /// is enabled and some process is searching — directly to that searcher
    /// (see [`hints`](crate::hints)), or — when the pool was built with
    /// [`handle_cache`](PoolBuilder::handle_cache) and nobody is waiting —
    /// into this handle's private magazine cache (see
    /// [`magazine`](crate::magazine)).
    ///
    /// After the element is published (segment lock released, or mailbox
    /// delivery done), the pool's notifier is signalled so consumers parked
    /// in a [`Block`](crate::WaitStrategy::Block) remove wake on the add
    /// edge instead of waiting out a backoff. The signal is one fence plus
    /// one load when nobody is parked.
    pub fn add(&mut self, item: S::Item) {
        let Handle { shared, local } = self;
        let (me, seg) = (local.me, local.seg);
        let mut item = item;
        // Magazine fast path, before the timer even starts: a cached add is
        // a handful of thread-local instructions, and on a cost model with
        // a clock (Sim or Real timing) the timer's two reads would dominate
        // it (see `ProcStats::record_cached_add`).
        // Hint donation is skipped for cached adds — hint waiters are
        // *searching* (not parked) processes, and a fruitless search aborts
        // rather than blocks; parked/async waiters are what the check below
        // protects.
        if let (Some(depot), Some(mag)) = (&shared.depot, &local.magazine) {
            if shared.registry.notifier().waiters() > 0 {
                // Parked or async removers are waiting: a cached element
                // would be invisible to them, so publish the whole cache
                // and let this add take the ordinary visible path below.
                let mut mag = mag.borrow_mut();
                if !mag.is_empty() {
                    let items = mag.take_all();
                    drop(mag);
                    shared.timing.charge(me, Resource::Segment(seg));
                    shared.segments[seg.index()].add_bulk_vec(items);
                    local.stats.flush_on_wait += 1;
                }
            } else {
                match mag.borrow_mut().cache(item, depot) {
                    CacheOutcome::Cached => {
                        // The fast path: a thread-local push, no shared
                        // memory touched (the waiter check above is one
                        // load). Simulated cost models still see the
                        // configured per-op computation.
                        if shared.add_overhead_ns > 0 {
                            shared.timing.charge_work(me, shared.add_overhead_ns);
                        }
                        local.stats.record_cached_add();
                        return;
                    }
                    CacheOutcome::Exchanged => {
                        // A full magazine became pool-visible in the depot:
                        // signal it like any other publication.
                        if shared.add_overhead_ns > 0 {
                            shared.timing.charge_work(me, shared.add_overhead_ns);
                        }
                        local.stats.depot_exchanges += 1;
                        shared.registry.notifier().notify_all();
                        local.stats.record_cached_add();
                        return;
                    }
                    // Depot saturated: fall through to the shared path.
                    CacheOutcome::Full(back) => item = back,
                }
            }
        }
        let timer = OpTimer::start(&shared.timing, me, shared.add_overhead_ns);
        if let Some(board) = &shared.hints {
            if board.has_waiters() {
                // The board is a shared structure: charge the donation
                // before touching the mailbox (lock/charge discipline).
                shared.timing.charge(me, Resource::Shared(HINT_BOARD_RESOURCE));
                match board.try_donate(item) {
                    Ok(_receiver) => {
                        shared.registry.notifier().notify_all();
                        timer.finish_add(&mut local.stats, true);
                        return;
                    }
                    // Every waiter raced away; fall through to a local add.
                    Err(back) => item = back,
                }
            }
        }
        shared.timing.charge(me, Resource::Segment(seg));
        shared.segments[seg.index()].add(item);
        // Signal after releasing the segment lock: the element is already
        // visible to any woken searcher's probe.
        shared.registry.notifier().notify_all();
        timer.finish_add(&mut local.stats, false);
        shared.record_trace(me, seg, TraceKind::Add);
    }

    /// Removes an arbitrary element: locally if possible, otherwise by
    /// stealing from a remote segment.
    ///
    /// # Errors
    ///
    /// Returns [`RemoveError::Aborted`] when the livelock breaker fired
    /// (every registered process was searching simultaneously) — or
    /// [`RemoveError::Closed`] when, additionally, the pool is
    /// [closed](Self::close) and drained.
    pub fn try_remove(&mut self) -> Result<S::Item, RemoveError> {
        self.local.try_remove(&self.shared, self.shared.remove_overhead_ns, None)
    }

    /// Returns a future that resolves to a removed element, driving the
    /// same local-first search passes as [`remove`](PoolOps::remove) with
    /// [`WaitStrategy::Block`] — but pending instead of parked between
    /// passes, its waker registered on the pool's notifier. See
    /// [`future`](crate::future) for the protocol and executor helpers.
    ///
    /// The future searches from this handle's home segment but runs
    /// *detached*: it does not count as a searching process on the
    /// livelock gate (it cannot add, so §3.2's reasoning does not need
    /// it), and its per-search statistics stay private to the future. It
    /// resolves terminally with [`RemoveError::Closed`] once the pool is
    /// closed and drained, and with [`RemoveError::Aborted`] when the
    /// registered fleet proves the pool unreachable-empty (§3.2).
    pub fn remove_async(&self) -> RemoveFuture<S, P, T> {
        RemoveFuture::new(Arc::clone(&self.shared), self.local.me, self.local.seg, None)
    }

    /// [`remove_async`](Self::remove_async) with a deadline: the future
    /// resolves with [`RemoveError::Timeout`] if no element arrives within
    /// `timeout`.
    ///
    /// The deadline is checked inside `poll`, so an executor must re-poll
    /// for it to fire; the bundled [`exec`](crate::future::exec) drivers
    /// wake on a coarse tick while tasks are pending exactly for this
    /// (timer-wheel runtimes would instead race their own sleep against
    /// the plain [`remove_async`](Self::remove_async) future).
    pub fn remove_timeout_async(&self, timeout: Duration) -> RemoveFuture<S, P, T> {
        RemoveFuture::new(
            Arc::clone(&self.shared),
            self.local.me,
            self.local.seg,
            Some(Instant::now() + timeout),
        )
    }

    /// Polls for a removed element without constructing a future: the
    /// low-level form of [`remove_async`](Self::remove_async) for callers
    /// that embed the pool in a hand-written `Future::poll` (a server
    /// connection state machine, a custom executor). Runs search passes
    /// until an element or a terminal outcome arrives; on `Poll::Pending`
    /// a registration for `cx`'s waker stays armed on the pool's notifier
    /// and fires on the next add edge, close, or gate transition.
    ///
    /// Unlike the detached future, this polls *as* the registered process:
    /// passes count as searching on the livelock gate, participate in the
    /// hint board, and record into this handle's [`stats`](Self::stats),
    /// exactly like [`try_remove`](Self::try_remove).
    pub fn poll_remove(&mut self, cx: &mut Context<'_>) -> Poll<Result<S::Item, RemoveError>> {
        let Handle { shared, local } = self;
        let shared: &Shared<S, P, T> = shared;
        let mut slot = local.poll_slot.take();
        if let Some(ticket) = slot.take() {
            // A re-poll may carry a different waker: retire the previous
            // registration so the current task is the one that wakes.
            shared.notifier().cancel_waker(ticket);
        }
        let mut overhead = shared.remove_overhead_ns;
        let mut ctl = WaitCtl::new_poll(shared.notifier(), None, cx.waker(), &mut slot);
        let out = crate::core::drive_poll_remove(
            &mut ctl,
            |ctl| local.try_remove(shared, std::mem::take(&mut overhead), Some(ctl)),
            || shared.drained(),
            || shared.notifier().is_closed(),
        );
        local.poll_slot = slot;
        out
    }
}

/// The unified operation vocabulary (blocking [`remove`](PoolOps::remove),
/// batch operations) — see [`ops`](crate::ops).
///
/// Batch paths take each segment lock once per batch: `add_batch` performs
/// one bulk insert into the local segment, `try_remove_batch` drains the
/// local segment under a single lock (falling back to one steal search when
/// it is empty), and `drain` sweeps every segment once. The cost model is
/// charged one probe per batch plus the per-element transfer work.
impl<S: Segment, P: SearchPolicy, T: Timing> PoolOps for Handle<S, P, T> {
    type Item = S::Item;
    type Batch = S::Batch;
    type RemoveFuture = RemoveFuture<S, P, T>;

    fn add(&mut self, item: S::Item) {
        Handle::add(self, item);
    }

    fn remove_async(&self) -> RemoveFuture<S, P, T> {
        Handle::remove_async(self)
    }

    fn remove_timeout_async(&self, timeout: Duration) -> RemoveFuture<S, P, T> {
        Handle::remove_timeout_async(self, timeout)
    }

    fn try_remove(&mut self) -> Result<S::Item, RemoveError> {
        Handle::try_remove(self)
    }

    fn is_drained(&self) -> bool {
        // Pool-visible stores plus this handle's own cache; other handles'
        // magazines are invisible by design (see `cpool::magazine`).
        self.shared.drained() && self.cached_len() == 0
    }

    fn close(&self) {
        Handle::close(self);
    }

    fn is_closed(&self) -> bool {
        Handle::is_closed(self)
    }

    fn remove_bounded(
        &mut self,
        wait: WaitStrategy,
        attempts: usize,
        deadline: Option<Instant>,
    ) -> Result<S::Item, RemoveError> {
        assert!(attempts > 0, "a blocking remove needs at least one attempt");
        // The controller and the driver's snapshots borrow the shared state
        // while the passes mutate the handle's own half.
        let Handle { shared, local } = self;
        let shared: &Shared<S, P, T> = shared;
        let mut ctl = WaitCtl::new(shared.registry.notifier(), wait, attempts, deadline);
        // The per-op overhead is paid by the first pass only; retry passes
        // must not charge it twice.
        let mut overhead = shared.remove_overhead_ns;
        crate::core::drive_blocking_remove(
            &mut ctl,
            |ctl| local.try_remove(shared, std::mem::take(&mut overhead), Some(ctl)),
            || shared.drained(),
            || shared.registry.notifier().is_closed(),
        )
    }

    fn add_batch<I: IntoIterator<Item = S::Item>>(&mut self, items: I) {
        // Materialize before starting the timer so an empty batch is a
        // true no-op: no overhead charge, no time attributed.
        let mut batch: Vec<S::Item> = items.into_iter().collect();
        let n = batch.len();
        if n == 0 {
            return;
        }
        let Handle { shared, local } = self;
        let (me, seg) = (local.me, local.seg);
        let timer = OpTimer::start(&shared.timing, me, shared.add_overhead_ns);
        let mut donated = 0usize;
        if let Some(board) = &shared.hints {
            // With the hint extension on, searching processes are exactly
            // the ones a batch parked locally cannot feed — donate to them
            // first (same reasoning and charge as `add`), bulk-insert the
            // rest.
            let mut kept = Vec::with_capacity(batch.len());
            for item in batch {
                if board.has_waiters() {
                    shared.timing.charge(me, Resource::Shared(HINT_BOARD_RESOURCE));
                    match board.try_donate(item) {
                        Ok(_receiver) => donated += 1,
                        Err(back) => kept.push(back),
                    }
                } else {
                    kept.push(item);
                }
            }
            batch = kept;
        }
        if !batch.is_empty() {
            // One probe charge and one lock acquisition for the whole
            // batch — this is the amortization the batch API exists for.
            // The segment converts the vector to its native transfer
            // currency itself (block segments chunk it straight into
            // recycled blocks under the same lock).
            shared.timing.charge(me, Resource::Segment(seg));
            shared.segments[seg.index()].add_bulk_vec(batch);
            shared.record_trace(me, seg, TraceKind::Add);
        }
        // One wakeup per batch (covering mailbox donations too): the
        // elements are published, so every woken waiter's next probe round
        // can find them.
        shared.registry.notifier().notify_all();
        timer.finish_add_batch(&mut local.stats, n, donated);
    }

    fn try_remove_batch(&mut self, n: usize) -> SmallDrain<S::Batch> {
        if n == 0 {
            return SmallDrain::new(S::Batch::empty());
        }
        let Handle { shared, local } = self;
        let (me, seg) = (local.me, local.seg);
        let timer = OpTimer::start(&shared.timing, me, shared.remove_overhead_ns);
        shared.timing.charge(me, Resource::Segment(seg));
        let mut got = shared.segments[seg.index()].remove_up_to(n);
        if !got.is_empty() {
            timer.finish_remove_batch(&mut local.stats, got.len());
            shared.record_trace(me, seg, TraceKind::Remove);
            return SmallDrain::new(got);
        }
        // Local segment empty: run one ordinary steal search for the first
        // element (its two-phase transfer already refills the local segment
        // with a batch), then top up locally under one more lock. The
        // search accounts itself through its own timer — with zero
        // overhead, since this batch already paid `remove_overhead_ns`.
        timer.finish_remove_batch(&mut local.stats, 0);
        if let Ok(first) = local.try_remove(shared, 0, None) {
            if n > 1 {
                let top_up = OpTimer::start(&shared.timing, me, 0);
                shared.timing.charge(me, Resource::Segment(seg));
                let extra = shared.segments[seg.index()].remove_up_to(n - 1);
                top_up.finish_remove_batch(&mut local.stats, extra.len());
                got.append(extra);
            }
            // After the append, so the element rides the batch's existing
            // containers instead of minting a fresh one.
            got.put_one(first);
        }
        SmallDrain::new(got)
    }

    fn drain(&mut self) -> SmallDrain<S::Batch> {
        let Handle { shared, local } = self;
        let timer = OpTimer::start(&shared.timing, local.me, shared.remove_overhead_ns);
        let mut all = S::Batch::empty();
        // Sweep this handle's own magazines and every depot magazine along
        // with the segments: drain is the "give me everything" lifecycle
        // op, so the cached layers are part of "everything". Other
        // handles' caches remain theirs.
        if let Some(mag) = &mut local.magazine {
            for item in mag.get_mut().take_all() {
                all.put_one(item);
            }
        }
        if let Some(depot) = &shared.depot {
            while let Some(mut mag) = depot.take_full() {
                let n = mag.len();
                for item in mag.drain(..) {
                    all.put_one(item);
                }
                depot.put_shell(mag);
                depot.unstash(n);
            }
        }
        for (i, seg) in shared.segments.iter().enumerate() {
            shared.timing.charge(local.me, Resource::Segment(SegIdx::new(i)));
            all.append(seg.drain_all());
        }
        timer.finish_remove_batch(&mut local.stats, all.len());
        SmallDrain::new(all)
    }
}

impl<S: Segment, P: SearchPolicy, T: Timing> Drop for Handle<S, P, T> {
    fn drop(&mut self) {
        if let Some(ticket) = self.local.poll_slot.take() {
            self.shared.notifier().cancel_waker(ticket);
        }
        // A retiring handle returns its cached elements to the pool — the
        // magazine layer must never leak elements with the handle.
        self.flush_magazine();
        self.shared.registry.retire(self.local.me, std::mem::take(&mut self.local.stats));
    }
}

/// The pool-side implementation of [`SearchEnv`]: adapts the policy's probe
/// requests to the shared engine's [`SearchSession`] (which performs the
/// two-phase steal, charges costs, and tracks search statistics) and layers
/// the hint-board interplay — and, for blocking removes, the lap-boundary
/// waiting of [`WaitCtl`] — on top of the engine's abort rule.
struct PoolSearchEnv<'a, 'w, 'n, S: Segment, P, T: Timing> {
    shared: &'a Shared<S, P, T>,
    session: SearchSession<'a, T>,
    /// The hint board when this search participates in it (`None` for
    /// detached future searches, whose [`ProcId`] aliases the creating
    /// handle's mailbox — see [`Shared::remove_pass`]).
    hints: Option<&'a HintBoard<S::Item>>,
    stolen: usize,
    taken: Option<S::Item>,
    victim: Option<SegIdx>,
    /// Present on blocking removes: what to do at each fruitless lap
    /// boundary (pause, park, give up) instead of polling straight through.
    wait: Option<&'w mut WaitCtl<'n>>,
}

impl<S: Segment, P: SearchPolicy, T: Timing> SearchEnv for PoolSearchEnv<'_, '_, '_, S, P, T> {
    fn segments(&self) -> usize {
        self.shared.segments.len()
    }

    fn my_segment(&self) -> SegIdx {
        self.session.home()
    }

    fn try_steal(&mut self, victim: SegIdx) -> ProbeOutcome {
        let segments = &self.shared.segments;
        let home = self.session.home();
        match self.session.probe(
            victim,
            || {
                let seg = &segments[victim.index()];
                // Emptiness fast path: the in-tree segments keep a lock-free
                // occupancy mirror, so a probe of an empty victim observes
                // it without contending for the victim's lock. The probe is
                // still charged and counted — examining a segment is the
                // cost the paper's model measures — and the mirror is a
                // snapshot, exactly like the length read `steal_half` would
                // have made under the lock a few instructions later.
                if seg.is_empty() {
                    S::Batch::empty()
                } else {
                    seg.steal_half()
                }
            },
            |rest| segments[home.index()].add_bulk(rest),
        ) {
            Some((item, stolen)) => {
                self.stolen = stolen;
                self.taken = Some(item);
                self.victim = Some(victim);
                ProbeOutcome::Stolen { stolen }
            }
            None => ProbeOutcome::Empty,
        }
    }

    fn charge_tree_node(&mut self, node: usize) {
        self.session.charge_tree_node(node);
    }

    fn should_abort(&mut self) -> bool {
        // A hint delivery ends the search through the same exit as the
        // livelock breaker; `Handle::try_remove` then tells the two cases
        // apart by checking the mailbox. The searcher only *posts* for
        // donations once a full lap found nothing: earlier posting would
        // siphon adds away from segments one element at a time and starve
        // the batch-steal mechanism the pool's load balancing relies on
        // (measurably worse: more probes, not fewer).
        if let Some(board) = self.hints {
            if board.delivered(self.session.proc()) {
                return true;
            }
            if self.session.examined() == self.session.lap() {
                board.post(self.session.proc());
            }
        }
        // The engine's full-lap starvation rule (§3.2); see
        // [`SearchSession::should_abort`].
        if self.session.should_abort() {
            return true;
        }
        // A closed pool ends fruitless searches at the first lap boundary
        // even when not everyone is searching (an idle registrant on a
        // closed pool is not a reason to keep polling); `abort_error` then
        // distinguishes drained (Closed) from residue (retryable Aborted).
        let notifier = self.shared.registry.notifier();
        if self.session.full_lap_done() && notifier.is_closed() {
            return true;
        }
        // Blocking removes wait at lap boundaries instead of polling on.
        if let Some(ctl) = self.wait.as_deref_mut() {
            let shared = self.shared;
            let hints = self.hints;
            let proc = self.session.proc();
            return ctl.on_probe(
                &self.session,
                // Work = any non-empty segment or a stashed depot magazine
                // (the next pass's raid will claim it).
                || !shared.drained(),
                || hints.is_some_and(|b| b.delivered(proc)),
            );
        }
        false
    }
}

/// A report combining merged and per-process statistics (convenience alias
/// used by the experiment harness).
pub type PoolReport = PoolStats;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::WaitStrategy;
    use crate::search::{RandomSearch, TreeSearch};
    use crate::segment::{LockedCounter, VecSegment};
    use std::thread;

    fn counting_pool<P: SearchPolicy>(n: usize, policy: P) -> Pool<LockedCounter, P> {
        PoolBuilder::new(n).seed(1).build_with_policy(policy)
    }

    #[test]
    fn local_add_remove_roundtrip() {
        let pool = counting_pool(4, LinearSearch::new(4));
        let mut h = pool.register();
        h.add(());
        h.add(());
        assert_eq!(pool.segment_len(h.home_segment()), 2);
        assert!(h.try_remove().is_ok());
        assert!(h.try_remove().is_ok());
        assert_eq!(pool.total_len(), 0);
        assert_eq!(h.stats().adds, 2);
        assert_eq!(h.stats().removes, 2);
        assert_eq!(h.stats().steals, 0, "local removes never steal");
    }

    #[test]
    fn neighbouring_segments_are_at_least_128_bytes_apart() {
        // A local operation must write only lines its own process writes:
        // no cache line, nor x86 adjacent-line pair, spans two segments.
        let pool: Pool<VecSegment<u64>, LinearSearch> = PoolBuilder::new(4).build();
        for pair in pool.shared.segments.windows(2) {
            let this: &VecSegment<u64> = &pair[0];
            let next: &VecSegment<u64> = &pair[1];
            let end = this as *const VecSegment<u64> as usize + std::mem::size_of_val(this);
            let gap = next as *const VecSegment<u64> as usize - end;
            assert!(gap >= 128, "only {gap} bytes between neighbouring segments");
        }
    }

    #[test]
    fn remove_from_empty_single_process_aborts() {
        let pool = counting_pool(4, LinearSearch::new(4));
        let mut h = pool.register();
        assert_eq!(h.try_remove(), Err(RemoveError::Aborted));
        assert_eq!(h.stats().aborted_removes, 1);
    }

    #[test]
    fn steal_moves_half_and_returns_one() {
        let pool = counting_pool(2, LinearSearch::new(2));
        let mut a = pool.register(); // home 0
        let mut b = pool.register(); // home 1
        for _ in 0..20 {
            b.add(());
        }
        // a's segment empty: it must steal ceil(20/2)=10, keep 1, deposit 9.
        assert!(a.try_remove().is_ok());
        assert_eq!(a.stats().steals, 1);
        assert_eq!(a.stats().elements_stolen, 10);
        assert_eq!(pool.segment_len(SegIdx::new(0)), 9);
        assert_eq!(pool.segment_len(SegIdx::new(1)), 10);
        // Next removes are local.
        assert!(a.try_remove().is_ok());
        assert_eq!(a.stats().steals, 1, "reserve made the next remove local");
    }

    #[test]
    fn conservation_under_concurrency() {
        // N threads each add K then remove K; the pool must end empty with
        // adds == removes globally, whatever interleaving and stealing did.
        let n = 8;
        let k = 500;
        let pool: Pool<LockedCounter, RandomSearch> = counting_pool(n, RandomSearch::new(n));
        thread::scope(|s| {
            for _ in 0..n {
                let mut h = pool.register();
                s.spawn(move || {
                    for _ in 0..k {
                        h.add(());
                    }
                    let mut removed = 0;
                    while removed < k {
                        match h.try_remove() {
                            Ok(()) => removed += 1,
                            Err(_) => thread::yield_now(),
                        }
                    }
                });
            }
        });
        assert_eq!(pool.total_len(), 0);
        let merged = pool.stats().merged();
        assert_eq!(merged.adds, (n * k) as u64);
        assert_eq!(merged.removes, (n * k) as u64);
    }

    #[test]
    fn all_policies_survive_producer_consumer() {
        for kind in PolicyKind::ALL {
            let policy = kind.build(4, NodeStoreKind::Locked);
            let pool: Pool<LockedCounter, _> = PoolBuilder::new(4).build_with_policy(policy);
            thread::scope(|s| {
                // One producer, three consumers; 300 elements flow through.
                let mut p = pool.register();
                s.spawn(move || {
                    for _ in 0..300 {
                        p.add(());
                    }
                });
                for _ in 0..3 {
                    let mut c = pool.register();
                    s.spawn(move || {
                        let mut got = 0;
                        while got < 100 {
                            match c.try_remove() {
                                Ok(()) => got += 1,
                                Err(_) => thread::yield_now(),
                            }
                        }
                    });
                }
            });
            assert_eq!(pool.total_len(), 0, "policy {kind}");
        }
    }

    #[test]
    fn element_pool_preserves_values() {
        let pool: Pool<VecSegment<u64>, TreeSearch> =
            PoolBuilder::new(4).build_with_policy(TreeSearch::new(4));
        pool.fill_evenly_with(100, |i| i as u64);
        let mut seen = [false; 100];
        let mut h = pool.register();
        let mut consumers: Vec<_> = (0..3).map(|_| pool.register()).collect();
        for _ in 0..25 {
            let v = h.try_remove().unwrap();
            seen[v as usize] = true;
        }
        for c in &mut consumers {
            for _ in 0..25 {
                let v = c.try_remove().unwrap();
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "every value came out exactly once");
    }

    #[test]
    fn stats_collected_on_drop() {
        let pool = counting_pool(2, LinearSearch::new(2));
        {
            let mut h = pool.register();
            h.add(());
            let _ = h.try_remove();
        }
        let stats = pool.stats();
        assert_eq!(stats.per_proc.len(), 1);
        assert_eq!(stats.merged().adds, 1);
        assert_eq!(stats.merged().removes, 1);
    }

    #[test]
    fn trace_records_steal_events() {
        let pool: Pool<LockedCounter, LinearSearch> =
            PoolBuilder::new(2).record_trace(true).build_with_policy(LinearSearch::new(2));
        let mut a = pool.register();
        let mut b = pool.register();
        for _ in 0..10 {
            b.add(());
        }
        a.try_remove().unwrap();
        let trace = pool.trace().unwrap();
        let events = trace.snapshot_sorted();
        use crate::trace::TraceKind::*;
        assert!(events.iter().any(|e| e.kind == StealFrom && e.seg == SegIdx::new(1)));
        assert!(events.iter().any(|e| e.kind == StealInto && e.seg == SegIdx::new(0)));
    }

    #[test]
    fn oversubscribed_handles_share_segments() {
        let pool = counting_pool(2, LinearSearch::new(2));
        let handles: Vec<_> = (0..5).map(|_| pool.register()).collect();
        assert_eq!(handles[4].home_segment(), SegIdx::new(0));
        assert_eq!(handles[3].home_segment(), SegIdx::new(1));
        assert_eq!(pool.gate().registered(), 5);
        drop(handles);
        assert_eq!(pool.gate().registered(), 0);
    }

    #[test]
    fn fill_evenly_distributes() {
        let pool = counting_pool(4, LinearSearch::new(4));
        pool.fill_evenly(10);
        assert_eq!(pool.segment_sizes(), vec![3, 3, 2, 2]);
        assert_eq!(pool.total_len(), 10);
    }

    #[test]
    fn pool_debug_shows_policy() {
        let pool = counting_pool(4, LinearSearch::new(4));
        let dbg = format!("{pool:?}");
        assert!(dbg.contains("linear"), "{dbg}");
    }

    #[test]
    fn build_defaults_to_linear() {
        let pool: Pool<LockedCounter, LinearSearch> = PoolBuilder::new(4).build();
        assert_eq!(pool.policy_name(), "linear");
        assert_eq!(pool.segments(), 4);
    }

    #[test]
    fn build_policy_wires_segment_count() {
        for kind in PolicyKind::ALL {
            let pool: Pool<LockedCounter, DynPolicy> = PoolBuilder::new(6).build_policy(kind);
            assert_eq!(pool.policy_name(), kind.to_string());
            // The policy really was constructed for 6 segments: a steal
            // across the ring must find the remote elements.
            let mut a = pool.register();
            let mut b = pool.register();
            for _ in 0..8 {
                b.add(());
            }
            assert!(a.try_remove().is_ok(), "{kind}");
            assert_eq!(a.stats().steals, 1, "{kind}");
        }
    }

    #[test]
    fn add_batch_counts_every_element_once() {
        let pool: Pool<VecSegment<u32>, LinearSearch> = PoolBuilder::new(2).build();
        let mut h = pool.register();
        h.add_batch([1, 2, 3, 4, 5]);
        assert_eq!(pool.segment_len(h.home_segment()), 5);
        assert_eq!(h.stats().adds, 5);
        assert_eq!(h.stats().add_hist.count(), 1, "one batch, one latency sample");
        h.add_batch(std::iter::empty());
        assert_eq!(h.stats().adds, 5, "empty batches are no-ops");
    }

    #[test]
    fn try_remove_batch_serves_locally_under_one_probe() {
        let pool: Pool<VecSegment<u32>, LinearSearch> = PoolBuilder::new(2).build();
        let mut h = pool.register();
        h.add_batch(0..10);
        let examined_before = h.stats().segments_examined;
        let batch = h.try_remove_batch(4);
        assert_eq!(batch.len(), 4);
        assert_eq!(h.stats().removes, 4);
        assert_eq!(h.stats().segments_examined, examined_before, "no search ran");
        assert_eq!(pool.total_len(), 6);
        let rest = h.try_remove_batch(100);
        assert_eq!(rest.len(), 6, "bounded by occupancy");
        assert!(h.try_remove_batch(0).is_empty());
    }

    #[test]
    fn try_remove_batch_steals_when_local_is_empty() {
        let pool: Pool<VecSegment<u32>, LinearSearch> = PoolBuilder::new(2).build();
        let mut thief = pool.register(); // home 0
        let mut victim = pool.register(); // home 1
        victim.add_batch(0..20);
        // The steal takes ceil(20/2) = 10; the batch asks for 6 of them.
        let batch = thief.try_remove_batch(6);
        assert_eq!(batch.len(), 6);
        assert_eq!(thief.stats().steals, 1);
        assert_eq!(thief.stats().elements_stolen, 10);
        assert_eq!(thief.stats().removes, 6);
        assert_eq!(pool.segment_len(SegIdx::new(0)), 4, "steal residue stays local");
        assert_eq!(pool.total_len(), 14);
    }

    #[test]
    fn try_remove_batch_on_empty_pool_returns_empty() {
        let pool: Pool<VecSegment<u32>, LinearSearch> = PoolBuilder::new(2).build();
        let mut h = pool.register();
        let batch = h.try_remove_batch(5);
        assert!(batch.is_empty());
        assert_eq!(h.stats().aborted_removes, 1, "the fallback search aborted");
    }

    #[test]
    fn drain_sweeps_every_segment() {
        let pool: Pool<VecSegment<u64>, TreeSearch> =
            PoolBuilder::new(4).build_with_policy(TreeSearch::new(4));
        pool.fill_evenly_with(10, |i| i as u64);
        let mut h = pool.register();
        let mut all: Vec<u64> = h.drain().into_vec();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        assert_eq!(pool.total_len(), 0);
        assert_eq!(h.stats().removes, 10);
        assert!(h.drain().is_empty(), "second drain finds nothing");
    }

    #[test]
    fn blocking_remove_returns_elements_and_terminal_aborts() {
        let pool: Pool<LockedCounter, LinearSearch> = PoolBuilder::new(2).build();
        let mut h = pool.register();
        h.add(());
        assert_eq!(h.remove(WaitStrategy::Spin), Ok(()));
        // Drained pool, lone registrant: the abort is terminal and the
        // blocking remove must not spin its whole budget.
        assert_eq!(h.remove(WaitStrategy::Spin), Err(RemoveError::Aborted));
        assert_eq!(h.stats().aborted_removes, 1, "one attempt, not the full budget");
    }

    #[test]
    fn batch_ops_charge_op_overhead_once_per_batch() {
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Counts `charge_work` nanoseconds (the op-overhead channel).
        #[derive(Debug, Default)]
        struct WorkCounter {
            work_ns: AtomicU64,
        }
        impl Timing for WorkCounter {
            fn charge(&self, _proc: ProcId, _resource: Resource) {}
            fn charge_work(&self, _proc: ProcId, ns: u64) {
                self.work_ns.fetch_add(ns, Ordering::Relaxed);
            }
            fn now(&self, _proc: ProcId) -> u64 {
                0
            }
        }

        let pool: Pool<VecSegment<u32>, LinearSearch, WorkCounter> =
            PoolBuilder::new(2).timing(WorkCounter::default()).op_overhead(5, 7).build();
        let mut thief = pool.register();
        let mut victim = pool.register();

        victim.add_batch(0..10);
        assert_eq!(pool.timing().work_ns.load(Ordering::Relaxed), 5, "one add overhead per batch");

        // Thief's local segment is empty: the batch falls back to a steal
        // search, which must NOT charge the remove overhead a second time.
        let got = thief.try_remove_batch(4);
        assert_eq!(got.len(), 4);
        assert_eq!(
            pool.timing().work_ns.load(Ordering::Relaxed),
            5 + 7,
            "one remove overhead per batch, fallback search included"
        );

        // Empty batches are true no-ops: no overhead, no time attributed.
        thief.add_batch(std::iter::empty());
        assert_eq!(pool.timing().work_ns.load(Ordering::Relaxed), 5 + 7);
    }

    #[test]
    fn block_remove_wakes_on_the_add_edge() {
        // The consumer parks (no element, producer idle); the producer's
        // add must wake it. A lost wakeup hangs this test.
        let pool: Pool<VecSegment<u32>, LinearSearch> = PoolBuilder::new(2).build();
        let total = 50;
        thread::scope(|s| {
            let mut producer = pool.register();
            let mut consumer = pool.register();
            s.spawn(move || {
                for i in 0..total {
                    // Let the consumer actually park between elements.
                    thread::sleep(std::time::Duration::from_micros(200));
                    producer.add(i);
                }
            });
            s.spawn(move || {
                for _ in 0..total {
                    consumer.remove(WaitStrategy::Block).expect("producer still registered");
                }
            });
        });
        assert_eq!(pool.total_len(), 0);
        assert_eq!(pool.stats().merged().removes, total as u64);
    }

    #[test]
    fn close_wakes_blocked_removers_with_closed() {
        let pool: Pool<VecSegment<u32>, LinearSearch> = PoolBuilder::new(2).build();
        thread::scope(|s| {
            let mut producer = pool.register();
            let mut consumer = pool.register();
            s.spawn(move || {
                // Elements added before the close must all come out first.
                producer.add_batch([1, 2, 3]);
                producer.close();
            });
            s.spawn(move || {
                let mut got = 0;
                let err = loop {
                    match consumer.remove(WaitStrategy::Block) {
                        Ok(_) => got += 1,
                        Err(err) => break err,
                    }
                };
                assert_eq!(got, 3, "residue drained before Closed");
                assert_eq!(err, RemoveError::Closed);
            });
        });
        assert!(pool.is_closed());
    }

    #[test]
    fn remove_timeout_expires_on_a_quiet_live_pool() {
        let pool: Pool<VecSegment<u32>, LinearSearch> = PoolBuilder::new(2).build();
        let mut consumer = pool.register();
        // A second registrant that never searches keeps the gate from
        // firing: without it the remove would be a terminal abort, not a
        // wait.
        let _idle = pool.register();
        let t0 = std::time::Instant::now();
        let err = consumer.remove_timeout(std::time::Duration::from_millis(20));
        assert_eq!(err, Err(RemoveError::Timeout));
        assert!(t0.elapsed() >= std::time::Duration::from_millis(20));

        // The timeout left the pool fully usable.
        consumer.add(9);
        assert_eq!(consumer.try_remove(), Ok(9));
    }

    #[test]
    fn try_remove_on_closed_drained_pool_reports_closed() {
        let pool: Pool<VecSegment<u32>, LinearSearch> = PoolBuilder::new(2).build();
        let mut h = pool.register();
        h.add(5);
        pool.close();
        assert_eq!(h.try_remove(), Ok(5), "closed pools still drain");
        assert_eq!(h.try_remove(), Err(RemoveError::Closed));
        assert_eq!(
            h.remove(WaitStrategy::Block),
            Err(RemoveError::Closed),
            "blocking removers see Closed too"
        );
    }

    #[test]
    fn block_remove_takes_terminal_abort_when_everyone_waits() {
        // All registered processes block on an empty pool: the gate's
        // all-searching transition must wake the parked ones so at least
        // the transition's witness escapes; escaping consumers drop their
        // handles, which cascades the deregister edge to the rest. No
        // close() needed — this is the §3.2 terminal path, event-driven.
        let n = 4;
        let pool: Pool<LockedCounter, LinearSearch> = PoolBuilder::new(n).build();
        thread::scope(|s| {
            for _ in 0..n {
                let mut h = pool.register();
                s.spawn(move || {
                    assert_eq!(h.remove(WaitStrategy::Block), Err(RemoveError::Aborted));
                });
            }
        });
        assert_eq!(pool.gate().registered(), 0);
    }

    #[test]
    fn blocking_remove_outlasts_transient_droughts() {
        let pool: Pool<LockedCounter, LinearSearch> = PoolBuilder::new(2).build();
        let total = 200;
        thread::scope(|s| {
            let mut producer = pool.register();
            let mut consumer = pool.register();
            s.spawn(move || {
                for _ in 0..total {
                    producer.add(());
                    thread::yield_now();
                }
            });
            s.spawn(move || {
                for _ in 0..total {
                    // No hand-rolled abort loop: `remove` retries while the
                    // producer keeps the pool alive.
                    while consumer.remove(WaitStrategy::Yield).is_err() {}
                }
            });
        });
        assert_eq!(pool.total_len(), 0);
        assert_eq!(pool.stats().merged().removes, total);
    }
}
