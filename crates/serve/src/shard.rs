//! One server shard: a bounded request queue, its condition variable,
//! and the admission/drain protocol.
//!
//! Every shard is independent — its own mutex, its own condvar, its own
//! worker thread — so the request path never takes a lock shared across
//! shards, let alone across tenants. Admission control is a hard bound
//! on queue depth checked at submit time; a full shard rejects instead
//! of queueing unboundedly, and the router turns a full sweep of
//! rejections into a typed [`crate::ServeError::Shed`].
//!
//! ## Drain protocol (and the stranded-waiter bug it fixes)
//!
//! The single-queue server this design replaces kept its shutdown flag
//! in an `AtomicBool` that submitters checked *before* taking the queue
//! lock. That left a hole: a submitter could pass the check, lose the
//! race with shutdown, and push onto a queue whose worker had already
//! observed "empty + shutting down" and exited — stranding the waiter
//! forever. Here the drain flag lives *inside* the queue mutex:
//!
//! 1. `drain()` sets `draining = true` **under the lock**, then notifies.
//! 2. `try_submit` checks `draining` **under the same lock**; once the
//!    flag is up no request is ever admitted.
//! 3. The worker exits only after observing `draining && queue.is_empty()`
//!    **under the same lock**.
//!
//! Any submit that wins the race is therefore in the queue before the
//! flag is visible, and the worker drains it; any submit that loses gets
//! a typed `ShuttingDown`. `drain_interleavings.rs` enumerates seeded
//! schedules over exactly this race and asserts zero stranded waiters.
//!
//! ## Work stealing
//!
//! An idle shard worker may *steal* the oldest queued requests of a hot
//! sibling ([`Shard::try_steal`]) and run them as its own batch. Stealing
//! composes with both protocols above without new states:
//!
//! * **Admission** is untouched — a request is admitted (or shed) by the
//!   submit path exactly as before; stealing only moves *already
//!   admitted* requests between a queue and a running batch, so queue
//!   depths can only shrink and the per-shard bound still holds.
//! * **Drain** is untouched — a stolen request is processed immediately
//!   by the thief (never re-queued), so "every admitted request is
//!   answered" survives any interleaving of stealing with `drain()`.
//!   Stealing from a draining sibling is allowed and simply parallelizes
//!   the drain.
//! * **Determinism** is untouched — batched and solo forwards are
//!   bitwise identical (the tensor runtime never reorders reductions),
//!   so *which* worker serves a request, and in which batch composition,
//!   is unobservable in the response bits.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use urcl_tensor::Tensor;

use crate::cache::CacheKey;
use crate::server::{Forecast, ServeError};

/// One queued request.
pub(crate) struct Pending {
    pub window: Tensor,
    pub enqueued: Instant,
    pub tx: mpsc::Sender<Result<Forecast, ServeError>>,
    /// When set, the computing worker publishes the result into the
    /// tenant's response cache under this key (fanning out to any
    /// deduplicated waiters).
    pub cache_key: Option<CacheKey>,
}

pub(crate) struct ShardState {
    pub queue: VecDeque<Pending>,
    /// Set under the lock by [`Shard::drain`]; never cleared.
    pub draining: bool,
    /// Deepest the queue has ever been (property tests assert it never
    /// exceeds the configured bound).
    pub peak_depth: usize,
}

/// Why a submit was rejected; the request is handed back for the router
/// to try another shard.
pub(crate) enum Rejected {
    /// Queue at its admission bound; carries the observed depth.
    Full(Pending, usize),
    /// Shard is draining and admits nothing.
    Draining(Pending),
}

pub(crate) struct Shard {
    pub state: Mutex<ShardState>,
    pub notify: Condvar,
    pub bound: usize,
}

impl Shard {
    pub(crate) fn new(bound: usize) -> Self {
        Self {
            state: Mutex::new(ShardState {
                queue: VecDeque::new(),
                draining: false,
                peak_depth: 0,
            }),
            notify: Condvar::new(),
            bound,
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, ShardState> {
        // A panicking worker must not wedge the shard for submitters.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admission-controlled enqueue: the drain flag and the depth bound
    /// are both checked under the queue lock.
    pub(crate) fn try_submit(&self, pending: Pending) -> Result<usize, Rejected> {
        let mut st = self.lock();
        if st.draining {
            return Err(Rejected::Draining(pending));
        }
        let depth = st.queue.len();
        if depth >= self.bound {
            return Err(Rejected::Full(pending, depth));
        }
        st.queue.push_back(pending);
        let depth = st.queue.len();
        st.peak_depth = st.peak_depth.max(depth);
        drop(st);
        self.notify.notify_all();
        Ok(depth)
    }

    /// Raises the drain flag (under the lock) and wakes the worker. After
    /// this returns, no new request can be admitted; the worker finishes
    /// everything already queued, then exits.
    pub(crate) fn drain(&self) {
        self.lock().draining = true;
        self.notify.notify_all();
    }

    /// Steals up to `max` of the *oldest* queued requests for an idle
    /// sibling worker to run as its own batch. Returns an empty vector
    /// when the queue holds fewer than `min_depth` requests (a backlog
    /// that shallow is the owning worker's next batch anyway) or when the
    /// shard's lock is contended — a contended lock means the owner or
    /// another thief is already draining it, so the would-be thief just
    /// moves on instead of queueing behind them.
    ///
    /// Stealing from the front keeps service order FIFO per queue: the
    /// requests closest to their latency deadline leave first. A draining
    /// shard may be stolen from — its own worker exits on "draining and
    /// empty", and anything the thief takes is processed by the thief, so
    /// no admitted request is ever stranded.
    pub(crate) fn try_steal(&self, max: usize, min_depth: usize) -> Vec<Pending> {
        let Ok(mut st) = self.state.try_lock() else {
            return Vec::new();
        };
        if st.queue.len() < min_depth.max(1) {
            return Vec::new();
        }
        let take = st.queue.len().min(max);
        st.queue.drain(..take).collect()
    }

    /// Current queue depth (diagnostics).
    pub(crate) fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Deepest observed queue depth.
    pub(crate) fn peak_depth(&self) -> usize {
        self.lock().peak_depth
    }
}
