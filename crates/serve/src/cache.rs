//! Snapshot-scoped response cache with in-flight request deduplication.
//!
//! A forecaster is a pure function of `(snapshot, window)`: two requests
//! for the same window against the same snapshot generation *must*
//! produce bitwise-identical forecasts (the invariant the serve test
//! suite pins). That makes memoization exact, not approximate — and in a
//! production traffic tier it is the dominant win, because millions of
//! users ask for forecasts over the *same* live sensor windows.
//!
//! Two mechanisms share one table:
//!
//! * **Response cache** — completed forecasts keyed by
//!   `(generation, window bits)`. Keys compare the *full* window
//!   bit-pattern (no hash-collision false hits). A hot-swap purges every
//!   entry from older generations, so a cache hit is always a forecast
//!   the current snapshot would recompute bit for bit.
//! * **In-flight dedup** — when a request misses but an identical
//!   request is already queued, the newcomer joins the in-flight entry's
//!   waiter list instead of enqueuing a second forward. One batched
//!   compute fans out to every waiter.
//!
//! Eviction is FIFO over completed entries, bounded by
//! [`CachePolicy::capacity`]; in-flight entries are never evicted (their
//! waiters must not be stranded) and are bounded by the admission
//! control's queue bounds instead.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::Mutex;

use urcl_tensor::Tensor;

use crate::server::{Forecast, ServeError};

/// Response-cache configuration (per tenant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachePolicy {
    /// Maximum number of *completed* forecasts retained. In-flight dedup
    /// entries do not count against this bound.
    pub capacity: usize,
}

impl Default for CachePolicy {
    fn default() -> Self {
        Self { capacity: 4096 }
    }
}

/// Exact cache key: snapshot generation plus the full window bit-pattern.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    generation: u64,
    bits: Box<[u32]>,
}

impl CacheKey {
    pub(crate) fn new(generation: u64, window: &Tensor) -> Self {
        Self {
            generation,
            bits: window.data().iter().map(|v| v.to_bits()).collect(),
        }
    }
}

type Waiter = mpsc::Sender<Result<Forecast, ServeError>>;

enum Slot {
    /// A completed forecast; hits clone it.
    Ready(Forecast),
    /// A forward for this key is being admitted (`admitted == false`) or
    /// is queued; once queued, joined waiters get its result.
    InFlight {
        admitted: bool,
        waiters: Vec<Waiter>,
    },
}

struct Inner {
    map: HashMap<CacheKey, Slot>,
    /// FIFO eviction order over `Ready` keys.
    order: VecDeque<CacheKey>,
}

/// Outcome of [`ResponseCache::lookup_or_register`].
pub(crate) enum Lookup {
    /// Cached forecast delivered; nothing to enqueue.
    Hit(Forecast),
    /// Joined an identical in-flight request; nothing to enqueue.
    Joined,
    /// Registered a fresh in-flight entry; the caller must enqueue the
    /// compute and report the outcome to [`ResponseCache::settle`].
    Registered,
    /// An identical compute is still being admitted and may yet be shed,
    /// so joining it could fail a request after its submit succeeded;
    /// the caller enqueues its own compute without a cache key.
    Uncached,
}

pub(crate) struct ResponseCache {
    policy: CachePolicy,
    inner: Mutex<Inner>,
}

impl ResponseCache {
    pub(crate) fn new(policy: CachePolicy) -> Self {
        Self {
            policy,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One atomic step: hit, join an admitted in-flight entry, or
    /// register a fresh one.
    pub(crate) fn lookup_or_register(&self, key: &CacheKey, waiter: &Waiter) -> Lookup {
        let mut inner = self.lock();
        match inner.map.get_mut(key) {
            Some(Slot::Ready(forecast)) => Lookup::Hit(forecast.clone()),
            Some(Slot::InFlight {
                admitted: true,
                waiters,
            }) => {
                waiters.push(waiter.clone());
                Lookup::Joined
            }
            Some(Slot::InFlight {
                admitted: false, ..
            }) => Lookup::Uncached,
            None => {
                let slot = Slot::InFlight {
                    admitted: false,
                    waiters: Vec::new(),
                };
                inner.map.insert(key.clone(), slot);
                Lookup::Registered
            }
        }
    }

    /// Records whether the compute for a registered key was admitted:
    /// an admitted entry starts accepting joiners, a shed one is
    /// withdrawn (it has no waiters — nothing joins before admission).
    /// A no-op when the compute already fulfilled the key.
    pub(crate) fn settle(&self, key: &CacheKey, admitted: bool) {
        let mut inner = self.lock();
        if let Some(Slot::InFlight { admitted: flag, .. }) = inner.map.get_mut(key) {
            if admitted {
                *flag = true;
            } else {
                inner.map.remove(key);
            }
        }
    }

    /// Publishes the computed result for a registered key: every joined
    /// waiter receives a clone, and on success the entry becomes `Ready`
    /// (evicting the oldest completed entry past capacity). Errors drop
    /// the entry so the next identical request retries.
    pub(crate) fn fulfill(&self, key: &CacheKey, result: &Result<Forecast, ServeError>) {
        let mut inner = self.lock();
        let waiters = match inner.map.remove(key) {
            Some(Slot::InFlight { waiters, .. }) => waiters,
            // A concurrent fulfill already completed this key; keep the
            // existing entry and don't double-count it in the FIFO.
            Some(ready @ Slot::Ready(_)) => {
                inner.map.insert(key.clone(), ready);
                return;
            }
            None => Vec::new(),
        };
        if let Ok(forecast) = result {
            if self.policy.capacity > 0 {
                while inner.order.len() >= self.policy.capacity {
                    if let Some(old) = inner.order.pop_front() {
                        if matches!(inner.map.get(&old), Some(Slot::Ready(_))) {
                            inner.map.remove(&old);
                        }
                    }
                }
                inner.map.insert(key.clone(), Slot::Ready(forecast.clone()));
                inner.order.push_back(key.clone());
            }
        }
        drop(inner);
        for waiter in waiters {
            let _ = waiter.send(result.clone());
        }
    }

    /// Drops every completed entry not from `generation` (after a
    /// hot-swap). In-flight entries survive — their carrying requests are
    /// already queued and will fulfill their waiters.
    pub(crate) fn retain_generation(&self, generation: u64) {
        let mut inner = self.lock();
        inner
            .map
            .retain(|k, slot| k.generation == generation || matches!(slot, Slot::InFlight { .. }));
        let map = &inner.map;
        let retained: VecDeque<CacheKey> = inner
            .order
            .iter()
            .filter(|k| map.contains_key(*k))
            .cloned()
            .collect();
        inner.order = retained;
    }

    /// Number of completed entries currently cached.
    pub(crate) fn len(&self) -> usize {
        self.lock()
            .map
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }
}
