//! Event-driven waiting: the pool's wakeup subsystem.
//!
//! Kotz & Ellis's consumers *search* for elements, so a process that wants
//! an element from an empty pool either polls (burning shared-memory
//! probes) or sleeps blind (paying the full backoff interval in wakeup
//! latency). Production pools instead wake blocked consumers on the *add
//! edge*: the producer that makes an element available is the one that
//! knows a wakeup is due. [`Notifier`] provides that edge, built from two
//! pieces and no extra dependencies:
//!
//! * an **epoch counter** — bumped by every [`notify_all`](Notifier::notify_all)
//!   — that lets a waiter detect a signal that raced ahead of its park
//!   (the classic lost-wakeup window between "I checked the condition" and
//!   "I went to sleep");
//! * a **registered-parker list** of [`std::thread::Thread`] handles that
//!   `notify_all` drains and unparks;
//! * a **registered-waker list** of [`std::task::Waker`]s — the async
//!   counterpart of the parker list, drained and woken by the same signal
//!   in the same atomic step, so one OS thread can hold thousands of
//!   pending [`RemoveFuture`](crate::future::RemoveFuture)s where the
//!   parker list would need a thread per blocked consumer.
//!
//! The waiting protocol is the standard epoch/parking-lot shape:
//!
//! 1. the waiter takes a [`Waiter`] registration ([`Notifier::waiter`]) and
//!    snapshots the epoch;
//! 2. it re-checks its wake condition (elements present, pool closed, ...);
//! 3. [`Waiter::wait`] registers the thread in the parker list, re-reads
//!    the epoch *after* registering, and parks only if no signal arrived
//!    in between.
//!
//! A signaller makes its condition true first (e.g. releases the segment
//! lock with the element inside), then calls `notify_all`, which bumps the
//! epoch and drains **both** registration lists **as one atomic step**
//! under the list lock before unparking/waking. Whichever side loses the
//! race, the waiter either observes the changed epoch (threads) or the
//! re-checked condition (wakers) and skips the sleep, or is present in a
//! list when the signaller drains it — there is no interleaving in which
//! the wakeup is lost (see `notify_all` for the fence argument that covers
//! the producer's fast path, `bump_and_drain` for why the bump and the
//! drain must not be separated, and
//! [`register_waker`](Notifier::register_waker) for the waker-path variant
//! of the argument).
//!
//! Waker registration follows the same **register → re-check** discipline
//! as parking, minus the park: a future's `poll` registers its waker
//! ([`Notifier::register_waker`]), re-checks its wake condition, and only
//! then returns `Pending`; a completed or cancelled future withdraws with
//! [`Notifier::cancel_waker`]. Drained lists — parked threads and wakers
//! alike — recycle through a bounded free list, so the steady-state
//! park/wake and register/wake/re-register cycles perform **zero heap
//! allocations** (asserted by the counting-allocator suite in
//! `tests/alloc_async.rs`).
//!
//! The notifier also owns the pool's **lifecycle bit**: [`close`](Notifier::close)
//! flips a sticky flag and wakes everyone, so blocked removers can drain
//! the remaining elements and report
//! [`RemoveError::Closed`](crate::RemoveError::Closed).
//!
//! ```
//! use cpool::notify::Notifier;
//! use std::sync::atomic::{AtomicBool, Ordering};
//! use std::thread;
//!
//! let notifier = Notifier::new();
//! let ready = AtomicBool::new(false);
//! thread::scope(|s| {
//!     s.spawn(|| {
//!         let mut w = notifier.waiter();
//!         while !ready.load(Ordering::Acquire) {
//!             w.wait(None); // parks; no lost wakeup even if `ready` flips now
//!         }
//!     });
//!     ready.store(true, Ordering::Release);
//!     notifier.notify_all(); // condition first, then the signal
//! });
//! ```

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::task::Waker;
use std::thread::Thread;
use std::time::Instant;

use parking_lot::Mutex;

use crate::transfer::FreeList;

/// Recycled wait-list shells kept per notifier: enough for a signaller to
/// be mid-delivery on every shell while new signals keep arriving, without
/// the drain path ever allocating in steady state.
const LIST_SHELLS: usize = 8;

/// Both registration lists, behind one lock so an epoch bump drains them
/// as a single atomic step (see `bump_and_drain`).
#[derive(Debug, Default)]
struct WaitList {
    /// Parked threads, keyed by a per-wait ticket so a waiter can withdraw
    /// its own registration without touching anyone else's.
    parked: Vec<(u64, Thread)>,
    /// Registered task wakers, keyed the same way so a future can cancel
    /// its own registration (completion, drop, or waker replacement).
    wakers: Vec<(u64, Waker)>,
}

/// A per-pool wakeup channel: signal epoch, registered parkers and task
/// wakers, and the pool's closed bit. See the [module docs](self) for the
/// protocol.
#[derive(Debug)]
pub struct Notifier {
    /// Signal epoch: bumped by every `notify_all`. A waiter parks only if
    /// the epoch is unchanged since it last looked.
    epoch: AtomicU64,
    /// Number of waiters currently registered or inside the prepare→park
    /// window: threads holding a [`Waiter`] *plus* wakers registered via
    /// [`register_waker`](Self::register_waker). Lets the add fast path
    /// skip the epoch bump entirely when nobody can possibly be waiting.
    waiters: AtomicUsize,
    /// Sticky lifecycle bit set by [`close`](Self::close).
    closed: AtomicBool,
    /// Both registration lists under one lock.
    waitlist: Mutex<WaitList>,
    /// Ticket mint for both registration lists.
    next_ticket: AtomicU64,
    /// Recycled wait-list shells: a drain swaps both registered lists out
    /// into a shell from here and returns it after waking, so neither the
    /// next park nor the next waker registration has to grow an empty
    /// vector — signalling allocates nothing once warmed.
    shells: FreeList<WaitList>,
}

impl Default for Notifier {
    fn default() -> Self {
        Notifier {
            epoch: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            waitlist: Mutex::new(WaitList::default()),
            next_ticket: AtomicU64::new(0),
            shells: FreeList::new(LIST_SHELLS),
        }
    }
}

/// What ended a [`Waiter::wait`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WaitOutcome {
    /// A signal arrived (the epoch advanced): re-check the wake condition.
    Signalled,
    /// The deadline passed before any signal.
    TimedOut,
}

impl Notifier {
    /// Creates a notifier with no waiters and the pool open.
    pub fn new() -> Self {
        Notifier::default()
    }

    /// Registers the calling thread as a prospective waiter and snapshots
    /// the signal epoch.
    ///
    /// Take the waiter **before** re-checking the wake condition; signals
    /// sent after this call are guaranteed to be observed, either by the
    /// condition re-check or by [`Waiter::wait`] declining to park.
    pub fn waiter(&self) -> Waiter<'_> {
        // The increment-then-fence pairs with the fence-then-load in
        // `notify_all` (symmetric SC fences over different objects): in
        // the fences' total order, either this side's fence precedes the
        // signaller's — then the signaller's `waiters` load sees the
        // increment and it bumps the epoch — or the signaller's fence
        // precedes this one, in which case the condition write sequenced
        // before that fence is visible to this thread's condition
        // re-check, sequenced after this fence. Either way the wakeup
        // cannot be lost. (The RMW alone would suffice on x86, but the
        // cross-object guarantee formally needs the fence pair.)
        self.waiters.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let seen = self.epoch.load(Ordering::SeqCst);
        Waiter { notifier: self, seen }
    }

    /// Number of consumers currently waiting: threads in the prepare→park
    /// window plus armed async waker registrations. Racy by nature — it is
    /// a diagnostic and a *heuristic*: the magazine layer's add path (see
    /// [`magazine`](crate::magazine)) reads it (one shared load, no RMW)
    /// to decide between caching an element handle-locally and flushing it
    /// pool-visibly so a parked remover can find it. A waiter that parks
    /// just after the check is caught by the producer's next operation or
    /// lifecycle flush, so the race widens latency, never loses a wakeup.
    pub fn waiters(&self) -> usize {
        self.waiters.load(Ordering::SeqCst)
    }

    /// Current signal epoch (diagnostic; racy by nature).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Number of threads currently registered in the parked list
    /// (diagnostic; racy by nature).
    pub fn parked(&self) -> usize {
        self.waitlist.lock().parked.len()
    }

    /// Number of task wakers currently registered (diagnostic; racy by
    /// nature).
    pub fn registered_wakers(&self) -> usize {
        self.waitlist.lock().wakers.len()
    }

    /// Registers a task waker to be woken by the next signal and returns
    /// the ticket that identifies the registration.
    ///
    /// This is the async half of the parking protocol — **register, then
    /// re-check**: after this call returns, the caller must re-check its
    /// wake condition (elements present, pool closed, gate tripped) and
    /// only return `Pending` if it still holds. The registration is
    /// *level-triggered*: it stays armed until a signal drains it (waking
    /// the task) or the owner withdraws it with
    /// [`cancel_waker`](Self::cancel_waker) — completed and dropped
    /// futures **must** cancel, both to keep the waiter count honest and
    /// to avoid spurious wakes of a recycled task slot.
    ///
    /// # Memory ordering
    ///
    /// The increment-then-fence mirrors [`waiter`](Self::waiter) and pairs
    /// with the fence-then-load in [`notify_all`](Self::notify_all)
    /// (symmetric SeqCst fences, the same Dekker shape documented on
    /// `SearchGate::register`). Three interleavings cover every race with
    /// a signaller, and unlike the parking path none of them needs an
    /// epoch snapshot — the post-registration re-check carries the whole
    /// argument:
    ///
    /// 1. **Signaller takes the fast path** (reads `waiters == 0`): its
    ///    load preceded this increment in the SC order, so its fence
    ///    precedes ours, so the condition store sequenced before its fence
    ///    is visible to our post-registration re-check — the caller
    ///    observes the condition and never goes pending.
    /// 2. **Signaller drained before our push**: the drain holds the list
    ///    lock, the push acquires it afterwards, and the condition store
    ///    happened-before the signaller took the lock — the lock's
    ///    release/acquire edge publishes the condition to our re-check.
    /// 3. **Our push landed before the drain**: we are in the drained set
    ///    and the signaller wakes us after delivering the condition.
    ///
    /// Which accessors may stay `Relaxed`: only `next_ticket` (below) —
    /// it mints unique ids and publishes nothing — and the diagnostic
    /// counters' readers. `waiters`, `epoch`, and `closed` stay SeqCst on
    /// every path: `waiters` anchors the fence pairing above, `epoch`
    /// orders the bump inside the drain's critical section, and `closed`
    /// is re-checked *after* registration, so a relaxed load could float
    /// above the registration fence and reopen the lost-wakeup window
    /// that case 1 closes.
    pub fn register_waker(&self, waker: &Waker) -> u64 {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        // Relaxed is fine for the mint: tickets only need to be unique,
        // and the registration itself is published by the list lock.
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        self.waitlist.lock().wakers.push((ticket, waker.clone()));
        ticket
    }

    /// Withdraws a waker registration made by
    /// [`register_waker`](Self::register_waker).
    ///
    /// Returns `true` if the registration was still armed (and is now
    /// removed), `false` if a signal already drained it — in which case
    /// the wake was (or is about to be) delivered and the drain already
    /// settled the waiter count. Safe to call from a future's `Drop`
    /// concurrently with signallers: removal happens under the list lock,
    /// so exactly one side retires any given ticket.
    pub fn cancel_waker(&self, ticket: u64) -> bool {
        let found = {
            let mut list = self.waitlist.lock();
            match list.wakers.iter().position(|(t, _)| *t == ticket) {
                Some(i) => {
                    list.wakers.swap_remove(i);
                    true
                }
                None => false,
            }
        };
        if found {
            self.waiters.fetch_sub(1, Ordering::SeqCst);
        }
        found
    }

    /// Wakes every current and in-flight waiter.
    ///
    /// Call **after** making the awaited condition true (element added and
    /// segment lock released, pool closed, gate transition completed). Free
    /// when nobody is waiting: one fence plus one shared load, no RMW — so
    /// the uncontended add path does not ping-pong a notifier cache line
    /// between producers.
    pub fn notify_all(&self) {
        // The fence closes the store-buffer window of the fast-path check:
        // without it the condition store could still be in this CPU's
        // write buffer when `waiters` is read, allowing both this thread to
        // miss the waiter *and* the waiter to miss the condition. With the
        // fence (paired with the waiter's SeqCst RMW in `waiter`), one of
        // the two sides is guaranteed to see the other.
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        self.deliver(self.bump_and_drain());
    }

    /// Advances the epoch and empties both registration lists as one
    /// atomic step (with respect to waiter registration, which takes the
    /// same lock).
    ///
    /// The bump and the drain must not be separated: if the bump could
    /// land long before the drain (a descheduled notifier), the drain
    /// would steal registrations made *after* the bump by waiters whose
    /// epoch snapshot already includes it — they absorb the resulting
    /// unpark as spurious (their epoch looks unchanged), re-park
    /// unregistered, and no later signal can ever reach them. Under the
    /// lock, a registration either completes before the bump (and is
    /// drained and meaningfully delivered) or starts after it (and its
    /// post-registration re-check — the pre-push epoch read for threads,
    /// the condition re-check for wakers — turns the wait into an
    /// immediate wake-up).
    ///
    /// Both lists leave in a recycled shell from `shells` (`None` when
    /// nobody was registered), and the wakers' share of the waiter count
    /// is settled here: a waker registration is consumed by the drain (one
    /// wake per registration), unlike a [`Waiter`] whose count persists
    /// until the guard drops.
    fn bump_and_drain(&self) -> Option<WaitList> {
        let mut list = self.waitlist.lock();
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if list.parked.is_empty() && list.wakers.is_empty() {
            return None;
        }
        let mut shell = self.shells.take().unwrap_or_default();
        debug_assert!(shell.parked.is_empty() && shell.wakers.is_empty());
        std::mem::swap(&mut *list, &mut shell);
        self.waiters.fetch_sub(shell.wakers.len(), Ordering::SeqCst);
        Some(shell)
    }

    /// Unparks and wakes everything a drain handed back, then returns the
    /// shell to the free list (cleared, capacity retained).
    fn deliver(&self, drained: Option<WaitList>) {
        let Some(mut drained) = drained else { return };
        for (_, thread) in drained.parked.drain(..) {
            thread.unpark();
        }
        for (_, waker) in drained.wakers.drain(..) {
            waker.wake();
        }
        self.shells.put(drained);
    }

    /// Closes the pool: a sticky, idempotent lifecycle transition.
    ///
    /// Blocked and future removers first drain whatever elements remain and
    /// then observe [`RemoveError::Closed`](crate::RemoveError::Closed);
    /// see [`PoolOps::close`](crate::PoolOps::close) for the pool-level
    /// story. The flag is set *before* the wakeup so a waiter that parks
    /// concurrently either sees the flag on its pre-park re-check or is
    /// woken by the signal — the close/park race cannot strand a waiter.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        // Always signal, even with the waiter fast path: close is a cold,
        // once-per-pool event and the unconditional epoch bump makes the
        // sticky transition visible to the next `waiter()` snapshot too.
        self.deliver(self.bump_and_drain());
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }
}

/// A registered prospective waiter (see [`Notifier::waiter`]).
///
/// Holding a `Waiter` keeps the notifier's waiter count raised, which is
/// what forces concurrent signallers off their fast path; drop it as soon
/// as the wait is over.
#[derive(Debug)]
pub struct Waiter<'a> {
    notifier: &'a Notifier,
    seen: u64,
}

impl Waiter<'_> {
    /// Parks the calling thread until a signal newer than the last observed
    /// epoch arrives, or `deadline` passes.
    ///
    /// Returns [`WaitOutcome::Signalled`] immediately — without parking —
    /// if a signal already arrived since this waiter last looked, so the
    /// prepare→check→park window is race-free. Spurious unparks (stale
    /// tokens from a previous wait on the same thread) are absorbed
    /// internally. After a `Signalled` return the waiter's snapshot is
    /// refreshed: re-check the condition and call `wait` again to keep
    /// waiting.
    pub fn wait(&mut self, deadline: Option<Instant>) -> WaitOutcome {
        let notifier = self.notifier;
        let ticket = notifier.next_ticket.fetch_add(1, Ordering::Relaxed);
        {
            let mut list = notifier.waitlist.lock();
            // Re-read the epoch while registered: a signal between our last
            // look and this registration already drained the list, so
            // parking now would sleep through it.
            let now = notifier.epoch.load(Ordering::SeqCst);
            if now != self.seen {
                self.seen = now;
                return WaitOutcome::Signalled;
            }
            list.parked.push((ticket, std::thread::current()));
        }
        let outcome = loop {
            let now = notifier.epoch.load(Ordering::SeqCst);
            if now != self.seen {
                self.seen = now;
                break WaitOutcome::Signalled;
            }
            match deadline {
                None => std::thread::park(),
                Some(deadline) => {
                    let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                        break WaitOutcome::TimedOut;
                    };
                    std::thread::park_timeout(remaining);
                }
            }
        };
        // Withdraw our registration if a notifier did not already drain it
        // (timeout, or a signal observed via the epoch before the unpark).
        notifier.waitlist.lock().parked.retain(|(t, _)| *t != ticket);
        if outcome == WaitOutcome::TimedOut {
            self.seen = notifier.epoch.load(Ordering::SeqCst);
        }
        outcome
    }
}

impl Drop for Waiter<'_> {
    fn drop(&mut self) {
        self.notifier.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn notify_without_waiters_is_free_and_sticky_close_is_not() {
        let n = Notifier::new();
        n.notify_all();
        assert_eq!(n.epoch.load(Ordering::SeqCst), 0, "no waiters: no epoch bump");
        n.close();
        assert!(n.is_closed());
        assert_eq!(n.epoch.load(Ordering::SeqCst), 1, "close always signals");
        n.close();
        assert!(n.is_closed(), "close is idempotent");
    }

    #[test]
    fn signal_between_snapshot_and_park_is_not_lost() {
        let n = Notifier::new();
        let mut w = n.waiter();
        // Signal lands after the waiter snapshotted the epoch but before it
        // parks: wait must return immediately.
        n.notify_all();
        assert_eq!(w.wait(None), WaitOutcome::Signalled);
    }

    #[test]
    fn wait_times_out_without_signal() {
        let n = Notifier::new();
        let mut w = n.waiter();
        let deadline = Instant::now() + Duration::from_millis(10);
        assert_eq!(w.wait(Some(deadline)), WaitOutcome::TimedOut);
        assert_eq!(n.parked(), 0, "timed-out waiter withdrew its registration");
    }

    #[test]
    fn parked_thread_is_woken_by_notify() {
        let n = Notifier::new();
        let woken = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (n, woken) = (&n, &woken);
                s.spawn(move || {
                    let mut w = n.waiter();
                    while w.wait(None) != WaitOutcome::Signalled {}
                    woken.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Wait until all four are registered as waiters, then signal.
            while n.waiters() < 4 {
                std::thread::yield_now();
            }
            n.notify_all();
        });
        assert_eq!(woken.load(Ordering::SeqCst), 4);
        assert_eq!(n.waiters(), 0, "every waiter deregistered on drop");
    }

    #[test]
    fn close_wakes_parked_threads() {
        let n = Notifier::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = n.waiter();
                while !n.is_closed() {
                    let _ = w.wait(None);
                }
            });
            while n.waiters() < 1 {
                std::thread::yield_now();
            }
            n.close();
        });
        assert!(n.is_closed());
    }

    /// A test waker that counts its wakes.
    struct CountingWake(AtomicUsize);

    impl std::task::Wake for CountingWake {
        fn wake(self: std::sync::Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting_waker() -> (std::sync::Arc<CountingWake>, std::task::Waker) {
        let state = std::sync::Arc::new(CountingWake(AtomicUsize::new(0)));
        let waker = std::task::Waker::from(std::sync::Arc::clone(&state));
        (state, waker)
    }

    #[test]
    fn registered_waker_is_woken_exactly_once_per_registration() {
        let n = Notifier::new();
        let (state, waker) = counting_waker();
        n.register_waker(&waker);
        assert_eq!(n.registered_wakers(), 1);
        assert_eq!(n.waiters(), 1, "waker registrations hold the waiter count up");
        n.notify_all();
        assert_eq!(state.0.load(Ordering::SeqCst), 1);
        assert_eq!(n.registered_wakers(), 0, "signal consumed the registration");
        assert_eq!(n.waiters(), 0, "drain settled the waker's waiter count");
        n.notify_all();
        assert_eq!(state.0.load(Ordering::SeqCst), 1, "no registration, no wake");
    }

    #[test]
    fn cancelled_waker_is_never_woken() {
        let n = Notifier::new();
        let (state, waker) = counting_waker();
        let ticket = n.register_waker(&waker);
        assert!(n.cancel_waker(ticket), "still armed");
        assert!(!n.cancel_waker(ticket), "second cancel is a no-op");
        assert_eq!(n.waiters(), 0);
        n.notify_all();
        assert_eq!(state.0.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn cancel_after_drain_reports_delivery() {
        let n = Notifier::new();
        let (state, waker) = counting_waker();
        let ticket = n.register_waker(&waker);
        n.notify_all();
        assert!(!n.cancel_waker(ticket), "the signal already consumed the ticket");
        assert_eq!(state.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn close_wakes_registered_wakers() {
        let n = Notifier::new();
        let (state, waker) = counting_waker();
        n.register_waker(&waker);
        n.close();
        assert_eq!(state.0.load(Ordering::SeqCst), 1, "close drains the waker list too");
        assert_eq!(n.waiters(), 0);
    }

    #[test]
    fn mixed_parkers_and_wakers_drain_together() {
        let n = Notifier::new();
        let (state, waker) = counting_waker();
        n.register_waker(&waker);
        let woken = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let (n, woken) = (&n, &woken);
            s.spawn(move || {
                let mut w = n.waiter();
                while w.wait(None) != WaitOutcome::Signalled {}
                woken.fetch_add(1, Ordering::SeqCst);
            });
            while n.parked() < 1 {
                std::thread::yield_now();
            }
            n.notify_all();
        });
        assert_eq!(woken.load(Ordering::SeqCst), 1);
        assert_eq!(state.0.load(Ordering::SeqCst), 1, "one signal reached both lists");
    }

    #[test]
    fn waker_shells_recycle_across_signal_rounds() {
        let n = Notifier::new();
        let (_state, waker) = counting_waker();
        for _ in 0..4 {
            n.register_waker(&waker);
            n.notify_all();
        }
        assert!(n.shells.cached() >= 1, "drained shells return to the free list");
    }

    #[test]
    fn producer_consumer_handoff_never_hangs() {
        // The lost-wakeup gauntlet: one flag flip + notify per round, a
        // consumer that parks whenever the flag is down. Any lost wakeup
        // hangs the test.
        let n = Notifier::new();
        let flag = AtomicUsize::new(0);
        let rounds = 2_000;
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..rounds {
                    loop {
                        let mut w = n.waiter();
                        if flag.swap(0, Ordering::SeqCst) == 1 {
                            break;
                        }
                        let _ = w.wait(None);
                    }
                }
            });
            for _ in 0..rounds {
                flag.store(1, Ordering::SeqCst);
                n.notify_all();
                // Wait for the consumer to consume the flag before the next
                // round so rounds do not coalesce.
                while flag.load(Ordering::SeqCst) == 1 {
                    std::thread::yield_now();
                }
            }
        });
    }
}
