//! Async-native pool operations: std-only futures over the notifier.
//!
//! PR 4's [`Notifier`](crate::notify::Notifier) wakes *parked threads*,
//! which ties every blocked consumer to an OS thread — fine for a handful
//! of workers, a non-starter for a server frontend holding thousands of
//! idle consumers. This module is the waker half of that design:
//! [`RemoveFuture`] (and its keyed siblings) run the **same search
//! passes** as a blocking [`remove`](crate::PoolOps::remove) with
//! [`WaitStrategy::Block`](crate::WaitStrategy::Block), but at a
//! fruitless lap boundary they register their task's
//! [`Waker`](std::task::Waker) on the notifier and return
//! `Poll::Pending` instead of parking. One thread can then hold thousands
//! of pending removes — see [`exec::Fleet`] — and the producer's add edge
//! wakes exactly the tasks that were waiting.
//!
//! No runtime dependency: the futures are plain `std::future::Future`s
//! (poll-based, `Unpin`, no timers, no I/O reactor), so they run under
//! any executor. The bundled [`exec`] module provides a minimal std-only
//! [`block_on`](exec::block_on) and the N-futures-per-thread
//! [`Fleet`](exec::Fleet) driver used by the tests, benches, and
//! examples.
//!
//! # Protocol
//!
//! Each `poll` is one or more **register → re-check** rounds, the parking
//! protocol of [`notify`](crate::notify) minus the park (the memory-
//! ordering argument lives on
//! [`Notifier::register_waker`](crate::notify::Notifier::register_waker)):
//!
//! 1. run a local-first search pass (the full steal protocol);
//! 2. at a fruitless lap boundary, register the waker, then re-check
//!    closed / gate / work-present;
//! 3. if a condition fired, cancel the registration and resolve (or run
//!    another pass); otherwise stay registered and return `Pending`.
//!
//! Terminal outcomes from `poll` are exactly the blocking remove's:
//! `Ok(item)`, [`RemoveError::Closed`] once the pool is closed **and
//! drained** (a closed pool's residue resolves pending futures first),
//! [`RemoveError::Timeout`] past a `_timeout` deadline, and
//! [`RemoveError::Aborted`] for the §3.2 livelock breaker. A resolved
//! future must not be polled again (it panics, per the `Future`
//! contract); a dropped future withdraws its waker registration.
//!
//! # Futures are detached searchers
//!
//! A future searches from the home segment of the handle that created it
//! but does **not** count as a searching process on the
//! [`SearchGate`](crate::SearchGate): the gate's §3.2 condition compares
//! `searching` against *registered* processes, and an unregistered
//! searcher inflating the count would abort parked consumers while a
//! registered producer idles between adds. The future still observes the
//! gate, so a fleet-wide §3.2 abort resolves pending futures too. Its
//! statistics stay private to the future, and it does not participate in
//! the hint board (whose mailboxes are per-process and owned by the
//! creating handle).
//!
//! ```
//! use cpool::prelude::*;
//! use cpool::future::exec::block_on;
//!
//! let pool: Pool<VecSegment<u32>, LinearSearch> = PoolBuilder::new(2).build();
//! let mut producer = pool.register();
//! let consumer = pool.register();
//! producer.add(7);
//! assert_eq!(block_on(consumer.remove_async()), Ok(7));
//! pool.close();
//! assert_eq!(block_on(consumer.remove_async()), Err(RemoveError::Closed));
//! ```

pub mod exec;

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

use crate::core::{drive_poll_remove, WaitCtl};
use crate::error::RemoveError;
use crate::ids::{ProcId, SegIdx};
use crate::keyed::{Key, KeyedShared};
use crate::pool::Shared;
use crate::search::SearchPolicy;
use crate::segment::Segment;
use crate::stats::ProcStats;
use crate::timing::{NullTiming, Timing};

/// A pending remove on a [`Pool`](crate::Pool): resolves to an element,
/// or terminally to a [`RemoveError`] — created by
/// [`Handle::remove_async`](crate::Handle::remove_async) /
/// [`remove_timeout_async`](crate::Handle::remove_timeout_async).
///
/// See the [module docs](self) for the protocol. The future is `Unpin`
/// (its state is ordinary owned data) and panics if polled again after
/// resolving.
pub struct RemoveFuture<S: Segment, P: SearchPolicy, T: Timing = NullTiming> {
    shared: Arc<Shared<S, P, T>>,
    me: ProcId,
    home: SegIdx,
    state: P::State,
    stats: ProcStats,
    /// Armed waker-registration ticket, carried between polls so the next
    /// poll (or drop) can withdraw it.
    slot: Option<u64>,
    deadline: Option<Instant>,
    done: bool,
}

// No field is ever pinned: poll takes the future apart as plain owned
// data, so the future is freely movable regardless of the policy state.
impl<S: Segment, P: SearchPolicy, T: Timing> Unpin for RemoveFuture<S, P, T> {}

impl<S: Segment, P: SearchPolicy, T: Timing> RemoveFuture<S, P, T> {
    pub(crate) fn new(
        shared: Arc<Shared<S, P, T>>,
        me: ProcId,
        home: SegIdx,
        deadline: Option<Instant>,
    ) -> Self {
        let state = shared.init_state(home);
        RemoveFuture {
            shared,
            me,
            home,
            state,
            stats: ProcStats::default(),
            slot: None,
            deadline,
            done: false,
        }
    }

    /// The deadline after which the future resolves with
    /// [`RemoveError::Timeout`], if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

impl<S: Segment, P: SearchPolicy, T: Timing> std::fmt::Debug for RemoveFuture<S, P, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoveFuture")
            .field("proc", &self.me)
            .field("home", &self.home)
            .field("registered", &self.slot.is_some())
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl<S: Segment, P: SearchPolicy, T: Timing> Future for RemoveFuture<S, P, T> {
    type Output = Result<S::Item, RemoveError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = Pin::into_inner(self);
        assert!(!this.done, "RemoveFuture polled after completion");
        // Borrowed, not cloned: the pass below mutates only this future's
        // own fields, so a poll never writes the pool's reference count.
        let shared = &*this.shared;
        let notifier = shared.notifier();
        if let Some(ticket) = this.slot.take() {
            // A re-poll may carry a different waker (task migrated
            // executors): retire the stale registration so the waker that
            // gets armed below is always the current one.
            notifier.cancel_waker(ticket);
        }
        let mut ctl = WaitCtl::new_poll(notifier, this.deadline, cx.waker(), &mut this.slot);
        let out = drive_poll_remove(
            &mut ctl,
            |ctl| {
                shared.remove_pass(
                    this.me,
                    this.home,
                    &mut this.state,
                    &mut this.stats,
                    true,
                    0,
                    Some(ctl),
                )
            },
            || shared.drained(),
            || notifier.is_closed(),
        );
        if out.is_ready() {
            this.done = true;
            debug_assert!(this.slot.is_none(), "a resolved future holds no registration");
        }
        out
    }
}

impl<S: Segment, P: SearchPolicy, T: Timing> Drop for RemoveFuture<S, P, T> {
    fn drop(&mut self) {
        if let Some(ticket) = self.slot.take() {
            self.shared.notifier().cancel_waker(ticket);
        }
    }
}

/// A pending any-key remove on a [`KeyedPool`](crate::KeyedPool):
/// resolves to a `(key, value)` pair — created by
/// [`KeyedHandle::remove_async`](crate::KeyedHandle::remove_async) /
/// [`remove_timeout_async`](crate::KeyedHandle::remove_timeout_async).
///
/// Same protocol and terminal semantics as [`RemoveFuture`]; the search
/// is the keyed frontend's ring walk, resuming each poll from the ring
/// position where the previous pass stopped.
pub struct KeyedRemoveFuture<K: Key, V: Send + 'static, T: Timing = NullTiming> {
    shared: Arc<KeyedShared<K, V, T>>,
    me: ProcId,
    home: SegIdx,
    /// Ring cursor: where the next search pass resumes (the futures-side
    /// analogue of the handle's `last_found_any`).
    cursor: SegIdx,
    stats: ProcStats,
    slot: Option<u64>,
    deadline: Option<Instant>,
    done: bool,
}

impl<K: Key, V: Send + 'static, T: Timing> Unpin for KeyedRemoveFuture<K, V, T> {}

impl<K: Key, V: Send + 'static, T: Timing> KeyedRemoveFuture<K, V, T> {
    pub(crate) fn new(
        shared: Arc<KeyedShared<K, V, T>>,
        me: ProcId,
        home: SegIdx,
        deadline: Option<Instant>,
    ) -> Self {
        KeyedRemoveFuture {
            shared,
            me,
            home,
            cursor: home,
            stats: ProcStats::default(),
            slot: None,
            deadline,
            done: false,
        }
    }

    /// The deadline after which the future resolves with
    /// [`RemoveError::Timeout`], if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

impl<K: Key, V: Send + 'static, T: Timing> std::fmt::Debug for KeyedRemoveFuture<K, V, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedRemoveFuture")
            .field("proc", &self.me)
            .field("home", &self.home)
            .field("registered", &self.slot.is_some())
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl<K: Key, V: Send + 'static, T: Timing> Future for KeyedRemoveFuture<K, V, T> {
    type Output = Result<(K, V), RemoveError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = Pin::into_inner(self);
        assert!(!this.done, "KeyedRemoveFuture polled after completion");
        let shared = &*this.shared;
        let notifier = shared.notifier();
        if let Some(ticket) = this.slot.take() {
            notifier.cancel_waker(ticket);
        }
        let mut ctl = WaitCtl::new_poll(notifier, this.deadline, cx.waker(), &mut this.slot);
        let out = drive_poll_remove(
            &mut ctl,
            |ctl| {
                shared.remove_any_pass(
                    this.me,
                    this.home,
                    &mut this.cursor,
                    &mut this.stats,
                    true,
                    Some(ctl),
                )
            },
            || shared.drained(),
            || notifier.is_closed(),
        );
        if out.is_ready() {
            this.done = true;
            debug_assert!(this.slot.is_none(), "a resolved future holds no registration");
        }
        out
    }
}

impl<K: Key, V: Send + 'static, T: Timing> Drop for KeyedRemoveFuture<K, V, T> {
    fn drop(&mut self) {
        if let Some(ticket) = self.slot.take() {
            self.shared.notifier().cancel_waker(ticket);
        }
    }
}

/// A pending key-scoped remove on a [`KeyedPool`](crate::KeyedPool):
/// resolves to a value under one specific key — created by
/// [`KeyedHandle::remove_key_async`](crate::KeyedHandle::remove_key_async) /
/// [`remove_key_timeout_async`](crate::KeyedHandle::remove_key_timeout_async).
///
/// Same protocol as [`RemoveFuture`], with the wait scoped to the key:
/// the future goes pending while *this key* has no reachable elements
/// (other keys' traffic wakes it only to re-check and re-register), and
/// the terminal `Closed`/`Aborted` mapping uses the key-scoped drained
/// snapshot.
pub struct RemoveKeyFuture<K: Key, V: Send + 'static, T: Timing = NullTiming> {
    shared: Arc<KeyedShared<K, V, T>>,
    me: ProcId,
    home: SegIdx,
    key: K,
    cursor: SegIdx,
    stats: ProcStats,
    slot: Option<u64>,
    deadline: Option<Instant>,
    done: bool,
}

impl<K: Key, V: Send + 'static, T: Timing> Unpin for RemoveKeyFuture<K, V, T> {}

impl<K: Key, V: Send + 'static, T: Timing> RemoveKeyFuture<K, V, T> {
    pub(crate) fn new(
        shared: Arc<KeyedShared<K, V, T>>,
        me: ProcId,
        home: SegIdx,
        key: K,
        deadline: Option<Instant>,
    ) -> Self {
        RemoveKeyFuture {
            shared,
            me,
            home,
            key,
            cursor: home,
            stats: ProcStats::default(),
            slot: None,
            deadline,
            done: false,
        }
    }

    /// The key this future removes under.
    pub fn key(&self) -> &K {
        &self.key
    }

    /// The deadline after which the future resolves with
    /// [`RemoveError::Timeout`], if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

impl<K: Key, V: Send + 'static, T: Timing> std::fmt::Debug for RemoveKeyFuture<K, V, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoveKeyFuture")
            .field("proc", &self.me)
            .field("home", &self.home)
            .field("registered", &self.slot.is_some())
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl<K: Key, V: Send + 'static, T: Timing> Future for RemoveKeyFuture<K, V, T> {
    type Output = Result<V, RemoveError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = Pin::into_inner(self);
        assert!(!this.done, "RemoveKeyFuture polled after completion");
        let shared = &*this.shared;
        let notifier = shared.notifier();
        if let Some(ticket) = this.slot.take() {
            notifier.cancel_waker(ticket);
        }
        let mut ctl = WaitCtl::new_poll(notifier, this.deadline, cx.waker(), &mut this.slot);
        let key = &this.key;
        let out = drive_poll_remove(
            &mut ctl,
            |ctl| {
                shared.remove_key_pass(
                    this.me,
                    this.home,
                    key,
                    &mut this.cursor,
                    &mut this.stats,
                    true,
                    Some(ctl),
                )
            },
            || shared.drained_key(key),
            || notifier.is_closed(),
        );
        if out.is_ready() {
            this.done = true;
            debug_assert!(this.slot.is_none(), "a resolved future holds no registration");
        }
        out
    }
}

impl<K: Key, V: Send + 'static, T: Timing> Drop for RemoveKeyFuture<K, V, T> {
    fn drop(&mut self) {
        if let Some(ticket) = self.slot.take() {
            self.shared.notifier().cancel_waker(ticket);
        }
    }
}
