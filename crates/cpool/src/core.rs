//! The shared steal-engine: the concurrency protocol common to every pool
//! frontend.
//!
//! [`Pool`](crate::Pool) and [`KeyedPool`](crate::KeyedPool) expose
//! different element models (anonymous vs keyed) and different search
//! drivers (pluggable [`SearchPolicy`](crate::search::SearchPolicy) vs a
//! built-in per-key linear walk), but underneath they run the *same*
//! protocol from Kotz & Ellis (1989):
//!
//! 1. **Registration** — processes register with the pool and get a dense
//!    [`ProcId`] plus a home segment (`id mod segments`); deregistration
//!    deposits the process's statistics with the pool ([`Registry`]).
//! 2. **Gate-abort** — a searcher counts probed victims and aborts only
//!    once a *full lap* has been examined while every registered process is
//!    searching ([`SearchSession::should_abort`]).
//! 3. **Two-phase steal-half** — drain ⌈n/2⌉ of the victim under its own
//!    lock, keep one element for the pending remove, then refill the local
//!    segment under *its* lock ([`SearchSession::probe`]). No two segment
//!    locks are ever held at once, so thief/thief or thief/owner deadlock
//!    is impossible by construction.
//! 4. **Timing charges** — every shared-memory access is charged through
//!    the pool's [`Timing`] *before* the access is performed (the
//!    lock/charge discipline of [`timing`](crate::timing)). The engine is
//!    *generic* over the cost model (`&T` where `T: Timing`, never a trait
//!    object), so an uninstrumented pool ([`NullTiming`](crate::NullTiming))
//!    monomorphizes to bare lock/steal code with every charge and clock
//!    read inlined away, while runtime-selected models ride the
//!    [`DynTiming`](crate::timing::DynTiming) adapter through the same code.
//! 5. **Per-process statistics** — operation outcomes, and latencies on a
//!    cost model with a clock, are recorded into a private [`ProcStats`]
//!    block ([`OpTimer`]).
//!
//! Keeping all five in one module means later optimisation passes
//! (lock-narrowing, sharding, async frontends, blocking removes) have
//! exactly one hot path to change.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::task::{Poll, Waker};
use std::time::Instant;

use parking_lot::Mutex;

use crate::error::RemoveError;
use crate::gate::{SearchGate, SearchGuard};
use crate::ids::{ProcId, SegIdx};
use crate::notify::{Notifier, WaitOutcome};
use crate::ops::WaitStrategy;
use crate::stats::{PoolStats, ProcStats};
use crate::timing::{Resource, Timing};
use crate::transfer::TransferBatch;

/// Bytes of padding after each segment in a pool's segment array.
const SLOT_PAD: usize = 128;

/// One segment of a pool's segment array, followed by [`SLOT_PAD`] bytes.
///
/// Both frontends keep their segments in a `Box<[Slot<_>]>`, so at least
/// 128 bytes separate one segment's last byte from the next segment's
/// first. Processes working in neighbouring segments then never write the
/// same cache line, nor the same 128-byte line pair that x86 adjacent-line
/// prefetchers fetch together: a local operation touches only lines its
/// own process writes (Kotz & Ellis's case for the pool is exactly that
/// local operations avoid interfering with other processes). The slot is
/// padded by size, not by `#[repr(align(128))]`, so the array stays a
/// normally aligned allocation; an over-aligned one made pool set-up
/// measurably slower.
pub(crate) struct Slot<T> {
    value: T,
    _pad: [u8; SLOT_PAD],
}

impl<T> Slot<T> {
    pub fn new(value: T) -> Self {
        Slot { value, _pad: [0; SLOT_PAD] }
    }
}

impl<T> std::ops::Deref for Slot<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

/// Process registration and statistics collection, shared by all pool
/// frontends.
///
/// Owns the [`SearchGate`] because the gate's notion of "every registered
/// process" must match the registry's exactly: a handle registers with both
/// atomically (from the caller's perspective) and retires from both in
/// [`retire`](Self::retire).
#[derive(Debug, Default)]
pub(crate) struct Registry {
    gate: SearchGate,
    next_proc: AtomicUsize,
    collected: Mutex<Vec<(ProcId, ProcStats)>>,
}

impl Registry {
    /// Creates a registry with no registered processes.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The livelock gate.
    pub fn gate(&self) -> &SearchGate {
        &self.gate
    }

    /// Registers a new process: the `i`-th registration gets process id `i`
    /// and home segment `i mod segments` (the paper runs exactly one
    /// process per segment; over-subscription shares segments round-robin).
    pub fn register(&self, segments: usize) -> (ProcId, SegIdx) {
        // Relaxed is enough: the counter only hands out unique indices, and
        // nothing is published through it — the handle's other state is
        // transferred to the owning thread by whatever mechanism moves the
        // handle there, and the gate has its own synchronization.
        let index = self.next_proc.fetch_add(1, Ordering::Relaxed);
        self.gate.register();
        (ProcId::new(index), SegIdx::new(index % segments))
    }

    /// Deregisters a process and deposits its statistics (handle drop).
    pub fn retire(&self, proc: ProcId, stats: ProcStats) {
        self.gate.deregister();
        self.collected.lock().push((proc, stats));
    }

    /// The pool's wakeup channel (owned by the gate; see
    /// [`SearchGate::notifier`]).
    pub fn notifier(&self) -> &Notifier {
        self.gate.notifier()
    }

    /// Statistics of retired processes, ordered by process id.
    pub fn stats(&self) -> PoolStats {
        // Sort the deposits in place (idempotent across calls) and clone
        // only the per-process payloads into the report, instead of cloning
        // the whole collected vec just to sort the copy.
        let mut collected = self.collected.lock();
        collected.sort_by_key(|(proc, _)| *proc);
        PoolStats {
            per_proc: collected.iter().map(|(_, s)| s.clone()).collect(),
            pool: crate::stats::PoolCounters::default(),
        }
    }
}

/// Times one pool operation and records its outcome into [`ProcStats`].
///
/// Created at the top of `add` / `try_remove`; exactly one `finish_*`
/// method is called on every exit path, so the stats identities
/// (`ops == adds + removes + aborted_removes`, histogram counts, ...)
/// hold by construction.
pub(crate) struct OpTimer<'a, T: Timing> {
    timing: &'a T,
    me: ProcId,
    t0: u64,
}

impl<'a, T: Timing> OpTimer<'a, T> {
    /// Starts timing an operation, charging `overhead_ns` of fixed
    /// per-operation computation first (see `PoolBuilder::op_overhead`).
    pub fn start(timing: &'a T, me: ProcId, overhead_ns: u64) -> Self {
        let t0 = timing.now(me);
        if overhead_ns > 0 {
            timing.charge_work(me, overhead_ns);
        }
        OpTimer { timing, me, t0 }
    }

    /// The operation's start time (for frontends that account the whole
    /// remove as search time).
    pub fn t0(&self) -> u64 {
        self.t0
    }

    fn elapsed(&self) -> u64 {
        self.timing.now(self.me).saturating_sub(self.t0)
    }

    /// Completes an add (`donated`: the element went to a searching
    /// process's mailbox instead of the local segment).
    pub fn finish_add(self, stats: &mut ProcStats, donated: bool) {
        let dt = self.elapsed();
        stats.adds += 1;
        if donated {
            stats.donated_adds += 1;
        }
        stats.add_ns += dt;
        stats.add_hist.record(dt);
    }

    /// Completes a remove served from the local segment.
    pub fn finish_local_remove(self, stats: &mut ProcStats) {
        let dt = self.elapsed();
        stats.removes += 1;
        stats.remove_ns += dt;
        stats.remove_hist.record(dt);
    }

    /// Completes a remove satisfied by stealing `stolen` elements; search
    /// time from `search_t0` onwards is charged as steal time.
    pub fn finish_steal_remove(self, stats: &mut ProcStats, stolen: usize, search_t0: u64) {
        let now = self.timing.now(self.me);
        let dt = now.saturating_sub(self.t0);
        stats.removes += 1;
        stats.steals += 1;
        stats.elements_stolen += stolen as u64;
        stats.remove_ns += dt;
        stats.steal_ns += now.saturating_sub(search_t0);
        stats.remove_hist.record(dt);
    }

    /// Completes a remove satisfied by a hint delivery (no steal).
    pub fn finish_hinted_remove(self, stats: &mut ProcStats) {
        let dt = self.elapsed();
        stats.removes += 1;
        stats.hinted_removes += 1;
        stats.remove_ns += dt;
        stats.remove_hist.record(dt);
    }

    /// Completes a remove aborted by the livelock breaker.
    pub fn finish_aborted(self, stats: &mut ProcStats) {
        stats.aborted_removes += 1;
        stats.abort_ns += self.elapsed();
    }

    /// Completes a batched add of `n` elements, `donated` of which went to
    /// searching processes' mailboxes instead of the local segment.
    ///
    /// Statistics count one add per element; the latency histogram records
    /// the batch as a single sample (it is one operation). An empty batch
    /// records nothing, mirroring [`finish_remove_batch`](Self::finish_remove_batch).
    pub fn finish_add_batch(self, stats: &mut ProcStats, n: usize, donated: usize) {
        debug_assert!(donated <= n);
        if n == 0 {
            return;
        }
        let dt = self.elapsed();
        stats.adds += n as u64;
        stats.donated_adds += donated as u64;
        stats.add_ns += dt;
        stats.add_hist.record(dt);
    }

    /// Completes a batched remove that obtained `n` elements without a
    /// steal (the local fast path or a drain sweep).
    ///
    /// An empty batch records nothing: it is a probe, not an operation
    /// outcome (batched removes that fall back to a search account the
    /// search through the ordinary `finish_steal_remove`/`finish_aborted`
    /// paths).
    pub fn finish_remove_batch(self, stats: &mut ProcStats, n: usize) {
        if n == 0 {
            return;
        }
        let dt = self.elapsed();
        stats.removes += n as u64;
        stats.remove_ns += dt;
        stats.remove_hist.record(dt);
    }

    // Magazine-cache hits are recorded through
    // `ProcStats::record_cached_add`/`record_cached_remove`, with no
    // OpTimer: on a cost model with a clock (Sim or Real timing) its two
    // reads would cost more than the cached op they price. `NullTiming`
    // has no clock, so there the timer is free either way.

    /// Completes a remove served by raiding a full magazine out of the
    /// shared depot — a pool-visible source, so it is *not* a magazine
    /// hit; the frontend counts the raid in `depot_exchanges`.
    pub fn finish_depot_remove(self, stats: &mut ProcStats) {
        let dt = self.elapsed();
        stats.removes += 1;
        stats.remove_ns += dt;
        stats.remove_hist.record(dt);
    }
}

/// One search for elements to steal: probe counting, the full-lap abort
/// rule, and the two-phase steal-half transfer.
///
/// Holding a session normally marks the process as searching on the
/// [`SearchGate`] (dropped on every exit path, panic included, via the
/// embedded guard); a *detached* session
/// ([`begin_detached`](Self::begin_detached)) observes the gate without
/// participating in it.
pub(crate) struct SearchSession<'a, T: Timing> {
    timing: &'a T,
    gate: &'a SearchGate,
    me: ProcId,
    home: SegIdx,
    /// Number of probes that constitute one full lap over the victims this
    /// frontend's search visits (all segments for policy searches, all
    /// *remote* segments for the keyed ring walk).
    lap: u64,
    examined: u64,
    nodes_visited: u64,
    started_ns: u64,
    _guard: Option<SearchGuard<'a>>,
}

impl<'a, T: Timing> SearchSession<'a, T> {
    /// Begins a search: records the start time and marks the process as
    /// searching.
    pub fn begin(timing: &'a T, gate: &'a SearchGate, me: ProcId, home: SegIdx, lap: u64) -> Self {
        let started_ns = timing.now(me);
        SearchSession {
            timing,
            gate,
            me,
            home,
            lap,
            examined: 0,
            nodes_visited: 0,
            started_ns,
            _guard: Some(gate.begin_search()),
        }
    }

    /// Begins a search that observes the gate but does **not** register as
    /// a searcher on it.
    ///
    /// This is the async-future search mode. A future is not a registered
    /// process — its poll borrows the thread of whatever executor runs it —
    /// and the gate's §3.2 condition is `searching >= registered`, counted
    /// over *registered* processes. If a future took a [`SearchGuard`], its
    /// `searching` increment without a matching registration would satisfy
    /// the condition while a registered producer sits idle between adds,
    /// aborting parked consumers on a pool that is about to refill. Staying
    /// detached is also sound in the other direction: the §3.2 argument
    /// ("every process searching ⇒ no add in flight") quantifies over
    /// processes that can add, and a pending future never adds. A detached
    /// searcher still *reads* the gate (`gate_abort_now`/`should_abort`)
    /// so it stops searching when the registered fleet has proven the pool
    /// unreachable-empty.
    pub fn begin_detached(
        timing: &'a T,
        gate: &'a SearchGate,
        me: ProcId,
        home: SegIdx,
        lap: u64,
    ) -> Self {
        let started_ns = timing.now(me);
        SearchSession {
            timing,
            gate,
            me,
            home,
            lap,
            examined: 0,
            nodes_visited: 0,
            started_ns,
            _guard: None,
        }
    }

    /// The searching process.
    pub fn proc(&self) -> ProcId {
        self.me
    }

    /// The searcher's home segment.
    pub fn home(&self) -> SegIdx {
        self.home
    }

    /// When the search began (per the pool's clock).
    pub fn started_ns(&self) -> u64 {
        self.started_ns
    }

    /// Victim segments probed so far.
    pub fn examined(&self) -> u64 {
        self.examined
    }

    /// Superimposed-tree nodes visited so far.
    pub fn nodes_visited(&self) -> u64 {
        self.nodes_visited
    }

    /// Probes that constitute one full lap (see [`begin`](Self::begin)).
    pub fn lap(&self) -> u64 {
        self.lap
    }

    /// Whether at least one full lap of victims has been examined.
    pub fn full_lap_done(&self) -> bool {
        self.examined >= self.lap
    }

    /// Whether the gate's all-searching condition holds *right now*,
    /// regardless of this search's probe count.
    ///
    /// The lap-counted [`should_abort`](Self::should_abort) is the rule for
    /// a search in flight; a waiter parked at a lap boundary must use this
    /// raw form instead, because policies may spend abort checks on visits
    /// that examine nothing (the tree's phantom leaves of a
    /// non-power-of-two pool), leaving `examined` short of a formal lap —
    /// and a parked waiter that conditions its wake-up on `full_lap_done`
    /// would then sleep through the very transition that was meant to wake
    /// it.
    pub fn gate_abort_now(&self) -> bool {
        self.gate.all_searching()
    }

    /// §3.2's starvation rule, honored only after the search has examined
    /// at least one full lap of victim segments.
    ///
    /// The paper's processes "search for a long time, examining every
    /// segment possibly several times, before [finding] any elements";
    /// aborting on the first probe the moment every process happens to be
    /// searching would instead turn transient all-searching episodes
    /// (common near-empty, where searches dominate each process's time)
    /// into mass aborts — making sparse-mix operations artificially cheap
    /// and steals artificially rare. After a full lap the abort is also a
    /// *reliable* emptiness signal: the searcher has seen every segment
    /// while no process could have been adding.
    pub fn should_abort(&self) -> bool {
        self.full_lap_done() && self.gate.all_searching()
    }

    /// Charges one access to superimposed-tree node `node`.
    pub fn charge_tree_node(&mut self, node: usize) {
        self.nodes_visited += 1;
        self.timing.charge(self.me, Resource::TreeNode(node));
    }

    /// Probes `victim` with the two-phase steal-half transfer.
    ///
    /// Phase one charges and drains the victim through `drain` (which must
    /// take ⌈n/2⌉ of the victim's `n` elements under the victim's own
    /// lock); one drained element is kept to satisfy the pending remove.
    /// Phase two — only if more than one element was taken — charges the
    /// searcher's home segment and deposits the remainder through `refill`
    /// ("by stealing half of the elements found at the non-empty segment
    /// rather than just enough to satisfy the immediate need, the
    /// searching process is trying to balance the available reserves and
    /// prevent its next request from also having to perform a search").
    /// Because the phases run strictly in sequence, no two segment locks
    /// are ever held at once.
    ///
    /// When the lone drained element already satisfied the remove, the
    /// now-empty batch is **still** handed to `refill` — as a pure
    /// container return, with no home-segment charge and no wakeup. The
    /// in-tree segments only recycle the batch's containers on this path
    /// (the transfer shell into the pool's free list, a spent block into
    /// the home segment's spare stash); without this return leg the
    /// single-element steal would leak its containers to the allocator on
    /// every probe.
    ///
    /// The transfer is generic over the segment family's
    /// [`TransferBatch`] currency — a [`BlockSegment`](crate::BlockSegment)
    /// pool moves whole block handles through here without flattening, a
    /// counting pool moves a bare count — and the engine only ever opens
    /// the batch for the single element it keeps.
    ///
    /// Returns the kept element and the total number stolen, or `None` if
    /// the victim was empty.
    pub fn probe<B: TransferBatch>(
        &mut self,
        victim: SegIdx,
        drain: impl FnOnce() -> B,
        refill: impl FnOnce(B),
    ) -> Option<(B::Item, usize)> {
        self.examined += 1;
        self.timing.charge(self.me, Resource::Segment(victim));
        let mut batch = drain();
        let item = batch.take_one()?;
        let stolen = batch.len() + 1;
        if batch.is_empty() {
            // Container return only: no elements move, so no charge and no
            // wakeup.
            refill(batch);
        } else {
            self.timing.charge(self.me, Resource::Segment(self.home));
            refill(batch);
            // The banked remainder is fresh availability in the thief's
            // segment: wake parked waiters, or they could sleep next to
            // elements nobody signalled (the victim's residue was visible
            // all along, but these elements were in flight while other
            // searchers lapped past both segments).
            self.gate.notifier().notify_all();
        }
        Some((item, stolen))
    }
}

/// The blocking-remove wait controller: what a search does at each **lap
/// boundary** (every [`SearchSession::lap`] fruitless probes) instead of
/// polling straight through.
///
/// Shared by both frontends — [`Pool`](crate::Pool) threads it into its
/// [`SearchEnv`](crate::search::SearchEnv) and [`KeyedPool`](crate::KeyedPool)
/// into its ring walk — so the waiting semantics of
/// [`WaitStrategy`](crate::WaitStrategy) live in exactly one place:
///
/// * `Spin` / `Yield` / `Park` pause per the strategy between laps (the
///   pre-notify polling backoff, kept for virtual-time determinism and as
///   the benchmark baseline);
/// * `Block` parks on the pool's [`Notifier`] under the lost-wakeup-free
///   epoch protocol, waking on the add edge, on close, and on the gate's
///   all-searching transition;
/// * every strategy honors the lap budget (`attempts`) and an optional
///   deadline.
///
/// One controller spans the whole blocking remove: the budget and the
/// backoff round survive a transient gate abort and the retry search that
/// follows it ([`begin_pass`](Self::begin_pass) only resets the per-search
/// lap counter).
pub(crate) struct WaitCtl<'a> {
    notifier: &'a Notifier,
    strategy: WaitStrategy,
    /// Fruitless laps left before the blocking remove gives up.
    remaining: usize,
    deadline: Option<Instant>,
    /// Completed fruitless laps (drives `Park`'s exponential backoff).
    rounds: usize,
    /// Abort-check invocations this search pass. Counted separately from
    /// `session.examined()` because traversals spend checks on visits that
    /// probe nothing (the keyed ring's home skip, the tree's phantom
    /// leaves) — and a single-segment keyed ring probes nothing at all, so
    /// boundaries must be reachable by calls alone when the lap is empty.
    calls: u64,
    /// Set when the deadline expired; the owning remove maps the resulting
    /// abort to [`RemoveError::Timeout`](crate::RemoveError::Timeout).
    pub timed_out: bool,
    /// Set when the lap budget ran out; the abort stays
    /// [`RemoveError::Aborted`](crate::RemoveError::Aborted).
    pub budget_spent: bool,
    /// Set when the pass ended because its wait quantum elapsed (pause
    /// done, or a wakeup reported work) rather than because of the gate or
    /// close. Consumed by [`take_boundary_abort`](Self::take_boundary_abort).
    boundary_abort: bool,
    /// Poll mode ([`new_poll`](Self::new_poll)): instead of parking at a
    /// lap boundary, register this waker on the notifier and end the pass
    /// with `pending` set.
    poll: Option<PollWait<'a>>,
    /// Set when a poll-mode pass ended by registering its waker; the
    /// owning future maps it to `Poll::Pending`. Consumed by
    /// [`take_pending`](Self::take_pending).
    pending: bool,
}

/// The waker half of a poll-mode [`WaitCtl`]: the task waker to register
/// at a fruitless lap boundary and the caller's slot that remembers the
/// resulting ticket across polls (for cancellation on completion, waker
/// replacement, or drop).
struct PollWait<'a> {
    waker: &'a Waker,
    slot: &'a mut Option<u64>,
}

impl<'a> WaitCtl<'a> {
    /// Creates a controller with `attempts` fruitless laps of budget.
    pub fn new(
        notifier: &'a Notifier,
        strategy: WaitStrategy,
        attempts: usize,
        deadline: Option<Instant>,
    ) -> Self {
        WaitCtl {
            notifier,
            strategy,
            remaining: attempts,
            deadline,
            rounds: 0,
            calls: 0,
            timed_out: false,
            budget_spent: false,
            boundary_abort: false,
            poll: None,
            pending: false,
        }
    }

    /// Creates a poll-mode controller for one `Future::poll` invocation.
    ///
    /// Poll mode is [`WaitStrategy::Block`]'s register→re-check protocol
    /// with the park replaced by a waker registration: at a fruitless lap
    /// boundary the controller registers `waker` on the notifier, re-checks
    /// every wake condition, and — if none fired — leaves the registration
    /// armed and reports pending. The lap budget is unbounded (a future's
    /// backpressure is its executor, not an attempt count); `deadline`
    /// still maps to [`RemoveError::Timeout`](crate::RemoveError::Timeout).
    /// A fresh controller per poll is correct because no state needs to
    /// survive between polls except the registration ticket, which lives
    /// in the caller's `slot`.
    pub fn new_poll(
        notifier: &'a Notifier,
        deadline: Option<Instant>,
        waker: &'a Waker,
        slot: &'a mut Option<u64>,
    ) -> Self {
        let mut ctl = WaitCtl::new(notifier, WaitStrategy::Block, usize::MAX, deadline);
        ctl.poll = Some(PollWait { waker, slot });
        ctl
    }

    /// Whether the last pass ended by arming a waker registration
    /// (poll mode only). Consuming read, like
    /// [`take_boundary_abort`](Self::take_boundary_abort).
    pub fn take_pending(&mut self) -> bool {
        std::mem::take(&mut self.pending)
    }

    /// Withdraws the waker registration a poll-mode pass left armed (if
    /// any) and clears `pending`: a poll that resolves must hold no
    /// registration. No-op for blocking controllers.
    fn withdraw(&mut self) {
        self.pending = false;
        if let Some(ticket) = self.poll.as_mut().and_then(|poll| poll.slot.take()) {
            self.notifier.cancel_waker(ticket);
        }
    }

    /// Resets the per-search lap counter before a retry search (the budget,
    /// backoff round, and deadline deliberately carry over).
    pub fn begin_pass(&mut self) {
        self.calls = 0;
    }

    /// Whether the last abort was a mere wait quantum ending (lap pause
    /// done, or a wakeup reported fresh work) — the owning remove must
    /// simply start another pass, re-checking its local segment first.
    /// Consuming read; a gate or close abort never sets it.
    pub fn take_boundary_abort(&mut self) -> bool {
        std::mem::take(&mut self.boundary_abort)
    }

    /// Accounts a pass that ended in a *transient* gate abort (every
    /// process searching, but elements still present): consumes one lap of
    /// budget and pauses the polling strategies, so the `attempts` bound
    /// covers this path too — gate aborts end a search before any lap
    /// boundary, and without the charge here a run of transient aborts
    /// could retry forever at full speed. `Block` skips the pause (work
    /// exists, so the retry pass should chase it immediately) but still
    /// pays budget. Returns `true` when the budget is now spent.
    pub fn on_transient_abort(&mut self) -> bool {
        self.remaining = self.remaining.saturating_sub(1);
        if self.remaining == 0 {
            self.budget_spent = true;
            return true;
        }
        match self.strategy {
            WaitStrategy::Block => {}
            strategy => {
                strategy.pause(self.rounds);
                self.rounds += 1;
            }
        }
        false
    }

    /// Called from the frontend's abort check after every probe, once the
    /// terminal conditions (gate abort, close) have been ruled out.
    ///
    /// `has_work` answers "could another pass succeed right now?" (a
    /// segment-occupancy snapshot); `woken` covers frontend-specific
    /// reasons to end the search and return to the caller (a hint-board
    /// delivery). Returns `true` when the search must abort — the caller
    /// distinguishes why through [`timed_out`](Self::timed_out) /
    /// [`budget_spent`](Self::budget_spent) /
    /// [`take_boundary_abort`](Self::take_boundary_abort) and its own
    /// terminal checks.
    ///
    /// A lap boundary always **ends the search pass**: after the wait (a
    /// strategy pause, or a park that a signal ended) the owning remove
    /// starts a fresh pass, which re-checks the *local* segment before
    /// searching again. Continuing the same search instead would be blind
    /// to elements that land in the searcher's own segment — remote probes
    /// never visit it — and could lap forever next to its own food.
    pub fn on_probe<T: Timing>(
        &mut self,
        session: &SearchSession<'_, T>,
        has_work: impl Fn() -> bool,
        woken: impl Fn() -> bool,
    ) -> bool {
        self.calls += 1;
        // The boundary needs a full lap by *both* counts: enough calls
        // (reachable even when the lap holds zero probes) and enough
        // examined probes (so the gate's lap-counted abort rule, evaluated
        // by the caller before this hook, always gets the first word on a
        // genuinely terminal lap — no-probe visits would otherwise let the
        // boundary outrun it and burn budget on spurious pass restarts).
        if self.calls < session.lap().max(1) || !session.full_lap_done() {
            return false;
        }
        // A full fruitless lap is done: this is where a blocking remove
        // waits instead of polling on.
        self.remaining = self.remaining.saturating_sub(1);
        if self.remaining == 0 {
            self.budget_spent = true;
            return true;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.timed_out = true;
                return true;
            }
        }
        if let Some(poll) = self.poll.as_mut() {
            // Poll mode: the Block arm's register→re-check protocol with
            // the park replaced by a waker registration. Register first,
            // then re-check every wake condition — any condition made true
            // after the registration signals the notifier, which either
            // drains our waker (waking the task to poll again) or lost the
            // race to this re-check (see `Notifier::register_waker` for
            // the three-case ordering argument).
            *poll.slot = Some(self.notifier.register_waker(poll.waker));
            if self.notifier.is_closed() || session.gate_abort_now() || woken() {
                // Terminal for this pass: let the owning remove map it
                // (close / §3.2 / frontend delivery).
                self.withdraw();
                return true;
            }
            if has_work() {
                // Fresh work somewhere: resolve this poll with another
                // local-first pass instead of going pending.
                self.withdraw();
                self.boundary_abort = true;
                return true;
            }
            // Nothing to do: stay registered and report pending. The next
            // signal (add edge, close, gate transition) wakes the task.
            self.pending = true;
            return true;
        }
        match self.strategy {
            WaitStrategy::Block => {
                // Epoch protocol: register as a waiter first, then re-check
                // every wake condition, then park. Any condition made true
                // after the registration signals the notifier and is caught
                // either by the re-check or by `wait` declining to park.
                let mut waiter = self.notifier.waiter();
                loop {
                    if self.notifier.is_closed() {
                        return true;
                    }
                    if session.gate_abort_now() {
                        // The all-searching transition fired while we were
                        // parked (or just before): take the terminal-abort
                        // path. Parked waiters hold their search guard, so
                        // the gate counted us all along. (The raw gate
                        // check, not the lap-counted rule: a policy's
                        // no-probe visits — tree phantom leaves — can leave
                        // `examined` short of a formal lap forever.)
                        return true;
                    }
                    if woken() {
                        return true;
                    }
                    if has_work() {
                        // Fresh work somewhere: end the pass and let the
                        // remove run a new local-first search.
                        self.boundary_abort = true;
                        return true;
                    }
                    match waiter.wait(self.deadline) {
                        WaitOutcome::Signalled => continue,
                        WaitOutcome::TimedOut => {
                            self.timed_out = true;
                            return true;
                        }
                    }
                }
            }
            strategy => {
                // The polling strategies: pause blind, then start the next
                // pass. `rounds` grows the Park backoff across laps.
                strategy.pause(self.rounds);
                self.rounds += 1;
                self.boundary_abort = true;
                true
            }
        }
    }
}

/// The blocking-remove driver shared by every frontend primitive
/// ([`Handle::remove_bounded`](crate::Handle), keyed
/// `remove_key_bounded` / `remove_bounded`): runs search passes through
/// `try_once` until an element arrives or one of the terminal outcomes
/// fires, mapping the controller's state and the pool's lifecycle to the
/// caller-facing error exactly once, in one place.
///
/// `try_once` performs one pass (local check + wait-aware search) and may
/// zero its own per-op overhead after the first call; `drained` is the
/// frontend's reachability snapshot (key-scoped for keyed removes) and
/// `closed` the lifecycle bit. The terminal mapping uses the drained
/// snapshot just taken plus a fresh `closed` read, so a close that an
/// in-search check raced past is still honored.
pub(crate) fn drive_blocking_remove<T>(
    ctl: &mut WaitCtl<'_>,
    mut try_once: impl FnMut(&mut WaitCtl<'_>) -> Result<T, RemoveError>,
    drained: impl Fn() -> bool,
    closed: impl Fn() -> bool,
) -> Result<T, RemoveError> {
    loop {
        match try_once(ctl) {
            Ok(item) => return Ok(item),
            Err(RemoveError::Closed) => return Err(RemoveError::Closed),
            Err(_) => {
                if ctl.timed_out {
                    return Err(RemoveError::Timeout);
                }
                if ctl.budget_spent {
                    return Err(RemoveError::Aborted);
                }
                if ctl.take_boundary_abort() {
                    // A wait quantum ended (pause done, or a wakeup saw
                    // fresh work): the boundary already charged the
                    // budget — just run the next local-first pass.
                    continue;
                }
                if drained() {
                    // §3.2 terminal: every registered process searching
                    // with nothing reachable — no add can be in flight.
                    return Err(if closed() { RemoveError::Closed } else { RemoveError::Aborted });
                }
                // Transient gate abort with elements still present: pay
                // one lap of budget (and a polling pause) before the next
                // pass, so `attempts` bounds this path too.
                if ctl.on_transient_abort() {
                    return Err(RemoveError::Aborted);
                }
            }
        }
    }
}

/// The poll-mode twin of [`drive_blocking_remove`], driving one
/// `Future::poll` invocation: identical terminal mapping, plus the one
/// outcome a blocking remove cannot have — the pass ended by arming a
/// waker registration, which surfaces as `Poll::Pending`.
///
/// `ctl` must be a [`WaitCtl::new_poll`] controller. Ready results are
/// terminal in the future sense: `Ok`, `Closed`, `Timeout`, and the §3.2
/// `Aborted` all end the future; only `Pending` keeps it alive (with its
/// waker armed on the notifier, so the resolving signal is never lost).
pub(crate) fn drive_poll_remove<T>(
    ctl: &mut WaitCtl<'_>,
    mut try_once: impl FnMut(&mut WaitCtl<'_>) -> Result<T, RemoveError>,
    drained: impl Fn() -> bool,
    closed: impl Fn() -> bool,
) -> Poll<Result<T, RemoveError>> {
    let out = loop {
        match try_once(ctl) {
            Ok(item) => break Ok(item),
            Err(RemoveError::Closed) => break Err(RemoveError::Closed),
            Err(_) => {
                if ctl.take_pending() {
                    return Poll::Pending;
                }
                if ctl.timed_out {
                    break Err(RemoveError::Timeout);
                }
                if ctl.budget_spent {
                    break Err(RemoveError::Aborted);
                }
                if ctl.take_boundary_abort() {
                    continue;
                }
                if drained() {
                    break Err(if closed() { RemoveError::Closed } else { RemoveError::Aborted });
                }
                if ctl.on_transient_abort() {
                    break Err(RemoveError::Aborted);
                }
            }
        }
    };
    // A pass can arm its waker and still resolve: a `close()` that lands
    // after the pass's post-registration re-check makes the frontend map
    // the abort to `Closed` past the armed ticket.
    ctl.withdraw();
    Poll::Ready(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::NullTiming;

    #[test]
    fn registry_assigns_dense_ids_round_robin() {
        let registry = Registry::new();
        let (p0, s0) = registry.register(2);
        let (p1, s1) = registry.register(2);
        let (p2, s2) = registry.register(2);
        assert_eq!((p0.index(), s0.index()), (0, 0));
        assert_eq!((p1.index(), s1.index()), (1, 1));
        assert_eq!((p2.index(), s2.index()), (2, 0));
        assert_eq!(registry.gate().registered(), 3);
    }

    #[test]
    fn registry_stats_sorted_by_proc_id() {
        let registry = Registry::new();
        let (p0, _) = registry.register(4);
        let (p1, _) = registry.register(4);
        // Retire out of order; stats() must come back in id order.
        registry.retire(p1, ProcStats { adds: 1, ..ProcStats::default() });
        registry.retire(p0, ProcStats { adds: 2, ..ProcStats::default() });
        let stats = registry.stats();
        assert_eq!(stats.per_proc[0].adds, 2);
        assert_eq!(stats.per_proc[1].adds, 1);
        assert_eq!(registry.gate().registered(), 0);
    }

    #[test]
    fn op_timer_exit_paths_keep_stats_identities() {
        let timing = NullTiming::new();
        let me = ProcId::new(0);
        let mut stats = ProcStats::default();
        OpTimer::start(&timing, me, 0).finish_add(&mut stats, false);
        OpTimer::start(&timing, me, 0).finish_add(&mut stats, true);
        OpTimer::start(&timing, me, 0).finish_local_remove(&mut stats);
        let t = OpTimer::start(&timing, me, 0);
        let search_t0 = t.t0();
        t.finish_steal_remove(&mut stats, 5, search_t0);
        OpTimer::start(&timing, me, 0).finish_hinted_remove(&mut stats);
        OpTimer::start(&timing, me, 0).finish_aborted(&mut stats);
        // Batch finishers: per-element counts, one histogram sample per
        // batch, and zero-sized batches recording nothing.
        OpTimer::start(&timing, me, 0).finish_add_batch(&mut stats, 4, 1);
        OpTimer::start(&timing, me, 0).finish_add_batch(&mut stats, 0, 0);
        OpTimer::start(&timing, me, 0).finish_remove_batch(&mut stats, 3);
        OpTimer::start(&timing, me, 0).finish_remove_batch(&mut stats, 0);
        assert_eq!(stats.ops(), stats.adds + stats.removes + stats.aborted_removes);
        assert_eq!(stats.adds, 6);
        assert_eq!(stats.donated_adds, 2);
        assert_eq!(stats.removes, 6);
        assert_eq!(stats.hinted_removes, 1);
        assert_eq!(stats.steals, 1);
        assert_eq!(stats.elements_stolen, 5);
        assert_eq!(stats.aborted_removes, 1);
        assert_eq!(stats.add_hist.count(), 3);
        assert_eq!(stats.remove_hist.count(), 4);
    }

    #[test]
    fn session_aborts_only_after_a_full_lap() {
        let timing = NullTiming::new();
        let gate = SearchGate::new();
        gate.register();
        let mut session = SearchSession::begin(&timing, &gate, ProcId::new(0), SegIdx::new(0), 2);
        assert!(gate.all_searching(), "the lone process is searching");
        assert!(!session.should_abort(), "no probes yet: keep searching");
        let _ = session.probe(SegIdx::new(1), Vec::new, |_: Vec<()>| {});
        assert!(!session.should_abort(), "half a lap: keep searching");
        let _ = session.probe(SegIdx::new(1), Vec::new, |_: Vec<()>| {});
        assert!(session.should_abort(), "full fruitless lap with all searching");
        drop(session);
        assert_eq!(gate.searching(), 0, "guard released on drop");
        gate.deregister();
    }

    #[test]
    fn probe_keeps_one_and_refills_the_rest() {
        let timing = NullTiming::new();
        let gate = SearchGate::new();
        gate.register();
        let mut session = SearchSession::begin(&timing, &gate, ProcId::new(0), SegIdx::new(0), 4);
        let refilled = std::cell::RefCell::new(Vec::new());
        let out = session.probe(
            SegIdx::new(2),
            || vec![10, 11, 12],
            |rest| refilled.borrow_mut().extend(rest),
        );
        assert_eq!(out, Some((12, 3)), "last drained element satisfies the remove");
        assert_eq!(*refilled.borrow(), vec![10, 11], "remainder refills the home segment");
        assert_eq!(session.examined(), 1);
        drop(session);
        gate.deregister();
    }

    /// A poll-mode pass arms its waker, then `close()` lands after the
    /// pass's re-check and the frontend maps the abort to `Closed`: the
    /// driver must withdraw the armed ticket before it resolves.
    #[test]
    fn poll_driver_withdraws_a_ticket_armed_before_close() {
        let timing = NullTiming::new();
        let gate = SearchGate::new();
        let notifier = gate.notifier();
        let mut slot = None;
        let mut ctl = WaitCtl::new_poll(notifier, None, Waker::noop(), &mut slot);
        let out: Poll<Result<(), RemoveError>> = drive_poll_remove(
            &mut ctl,
            |ctl| {
                // A lap of zero victims: the first abort check is already a
                // fruitless lap boundary, which arms the waker.
                let session = SearchSession::begin_detached(
                    &timing,
                    &gate,
                    ProcId::new(0),
                    SegIdx::new(0),
                    0,
                );
                assert!(ctl.on_probe(&session, || false, || false));
                notifier.close();
                Err(RemoveError::Closed)
            },
            || true,
            || notifier.is_closed(),
        );
        assert_eq!(out, Poll::Ready(Err(RemoveError::Closed)));
        assert_eq!(slot, None, "a resolved poll holds no registration");
        assert_eq!(notifier.waiters(), 0);
    }

    #[test]
    fn probe_single_element_refill_is_container_return_only() {
        let timing = NullTiming::new();
        let gate = SearchGate::new();
        gate.register();
        let mut session = SearchSession::begin(&timing, &gate, ProcId::new(0), SegIdx::new(0), 4);
        // The lone element satisfies the remove; the refill leg still runs
        // so the segment can recycle the batch's containers — but it must
        // see an *empty* batch (no elements ever move on this path).
        let refilled = std::cell::Cell::new(false);
        let out = session.probe(
            SegIdx::new(1),
            || vec![7],
            |rest: Vec<i32>| {
                assert!(rest.is_empty(), "a lone element is never re-deposited");
                refilled.set(true);
            },
        );
        assert_eq!(out, Some((7, 1)));
        assert!(refilled.get(), "the container-return leg ran");
        drop(session);
        gate.deregister();
    }
}
