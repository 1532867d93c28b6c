//! # Concurrent pools
//!
//! A *pool* is an unordered collection of items: processes may [`add`] an
//! element or [`remove`] an arbitrary element at any time. A **concurrent
//! pool** (Manber, *SIAM J. Computing* 1986; evaluated by Kotz & Ellis,
//! *ICDCS* 1989) partitions the elements into one *segment* per processor so
//! that most operations complete locally, without interfering with other
//! processes. Only when a `remove` finds the local segment empty does the
//! process *search* remote segments, **stealing roughly half** of the first
//! non-empty segment it finds.
//!
//! The crate implements the three search algorithms the paper evaluates:
//!
//! * [`search::TreeSearch`] — Manber's algorithm: a binary tree superimposed
//!   on the segments carries per-subtree *round counters* that steer
//!   searchers away from recently-empty subtrees.
//! * [`search::LinearSearch`] — ring traversal starting from the segment
//!   where elements were last found.
//! * [`search::RandomSearch`] — uniformly random probing.
//!
//! Segments come in two families: *counting* segments ([`segment::LockedCounter`],
//! [`segment::AtomicCounter`]) that store only a count (the paper's
//! measurement simplification), and *element* segments
//! ([`segment::VecSegment`], [`segment::BlockSegment`]) that store real
//! values for applications such as task scheduling. Batch transfers —
//! steals, refills, batched removes — are typed over each family's native
//! currency ([`transfer::TransferBatch`]): the block segment hands whole
//! block *handles* across the steal protocol (O(n/B) pointer moves, no
//! flattening) and the counting segments a bare count, with containers
//! recycled through per-pool free lists so the steady-state steal path
//! performs zero allocations — see [`transfer`].
//!
//! Every shared-memory access the paper charges for (segment probes, tree
//! node visits) is reported through the [`timing::Timing`] trait so the same
//! algorithm code runs on raw threads, under injected NUMA delays, or inside
//! a deterministic virtual-time scheduler (see the `numa-sim` crate). The
//! cost model is a *type parameter* of every pool (`Pool<S, P, T: Timing>`,
//! default [`NullTiming`]): an uninstrumented pool compiles to bare
//! lock/steal code that counts operations but reads no clock, while
//! runtime-selected models use the
//! [`timing::DynTiming`] (`Arc<dyn Timing>`) adapter — see
//! [`timing`] for how to choose.
//!
//! ## Quickstart
//!
//! ```
//! use cpool::prelude::*;
//! use std::thread;
//!
//! // A pool of 4 integer segments searched linearly (the builder states
//! // the segment count once and wires it into the default policy).
//! let pool: Pool<VecSegment<u64>, LinearSearch> = PoolBuilder::new(4).build();
//!
//! thread::scope(|s| {
//!     for _ in 0..4 {
//!         let mut h = pool.register();
//!         s.spawn(move || {
//!             h.add_batch(0..100); // one segment lock for the whole batch
//!             let mut got = 0;
//!             while got < 100 {
//!                 // Blocking remove: aborted searches (everyone searching
//!                 // at once) are retried inside the crate.
//!                 if h.remove(WaitStrategy::Yield).is_ok() {
//!                     got += 1;
//!                 }
//!             }
//!         });
//!     }
//! });
//! assert_eq!(pool.total_len(), 0);
//! ```
//!
//! The full operation vocabulary — blocking [`remove`](ops::PoolOps::remove)
//! with its [`WaitStrategy`] (including the event-driven
//! [`Block`](ops::WaitStrategy::Block), which parks on the pool's
//! [`notify`] subsystem and wakes on the add edge),
//! [`remove_timeout`](ops::PoolOps::remove_timeout), the
//! [`close`](ops::PoolOps::close) lifecycle (drain the residue, then
//! [`RemoveError::Closed`]), and the batch operations
//! [`add_batch`](ops::PoolOps::add_batch) /
//! [`try_remove_batch`](ops::PoolOps::try_remove_batch) /
//! [`drain`](ops::PoolOps::drain) — is the [`ops::PoolOps`] trait,
//! implemented by both [`Handle`] and [`KeyedHandle`].
//!
//! Async-native operations live in [`future`]:
//! [`remove_async`](Handle::remove_async) /
//! [`remove_key_async`](KeyedHandle::remove_key_async) (plus `_timeout`
//! variants and the low-level [`poll_remove`](Handle::poll_remove)) return
//! std-only futures whose wakers register on the [`notify`] subsystem —
//! no runtime dependency — so a single thread can drive thousands of
//! pending removes at once ([`future::exec::Fleet`]).
//!
//! [`add`]: Handle::add
//! [`remove`]: Handle::try_remove

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod core;

pub mod error;
pub mod future;
pub mod gate;
pub mod hints;
pub mod hotkey;
pub mod ids;
pub mod keyed;
pub mod magazine;
pub mod notify;
pub mod ops;
pub mod pool;
pub mod search;
pub mod segment;
pub mod stats;
pub mod timing;
pub mod trace;
pub mod transfer;

pub use error::RemoveError;
pub use future::{KeyedRemoveFuture, RemoveFuture, RemoveKeyFuture};
pub use gate::SearchGate;
pub use hints::{HintBoard, HINT_BOARD_RESOURCE};
pub use hotkey::HotKeyConfig;
pub use ids::{ProcId, SegIdx};
pub use keyed::{KeyedHandle, KeyedPool, KeyedPoolBuilder};
pub use magazine::{CacheOutcome, Depot, MagazineCache, PopOutcome};
pub use notify::{Notifier, WaitOutcome};
pub use ops::{PoolOps, SmallDrain, WaitStrategy};
pub use pool::{Handle, Pool, PoolBuilder, PoolReport};
pub use search::{
    DynPolicy, LinearSearch, NodeStoreKind, PolicyKind, RandomSearch, SearchEnv, SearchOutcome,
    SearchPolicy, TreeSearch,
};
pub use segment::{
    AtomicCounter, BlockBatch, BlockSegment, LaneSegment, LfSegment, LockedCounter, Segment,
    VecSegment,
};
pub use stats::{Histogram, PoolCounters, PoolStats, ProcStats};
pub use timing::{DynTiming, NullTiming, Resource, Timing};
pub use trace::{TraceEvent, TraceKind, TraceRecorder};
pub use transfer::{CountBatch, FreeList, TransferBatch};

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::error::RemoveError;
    pub use crate::future::exec::{block_on, Fleet};
    pub use crate::future::{KeyedRemoveFuture, RemoveFuture, RemoveKeyFuture};
    pub use crate::hotkey::HotKeyConfig;
    pub use crate::ids::{ProcId, SegIdx};
    pub use crate::keyed::{KeyedHandle, KeyedPool, KeyedPoolBuilder};
    pub use crate::notify::Notifier;
    pub use crate::ops::{PoolOps, SmallDrain, WaitStrategy};
    pub use crate::pool::{Handle, Pool, PoolBuilder};
    pub use crate::search::{
        DynPolicy, LinearSearch, NodeStoreKind, PolicyKind, RandomSearch, TreeSearch,
    };
    pub use crate::segment::{
        AtomicCounter, BlockSegment, LaneSegment, LfSegment, LockedCounter, Segment, VecSegment,
    };
    pub use crate::timing::{DynTiming, NullTiming, Resource, Timing};
    pub use crate::transfer::{CountBatch, TransferBatch};
}
