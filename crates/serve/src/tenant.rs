//! Multi-tenant runtime: per-tenant sharded workers, hot-swap, and the
//! [`Tenants`] registry.
//!
//! One process serves many dataset/model tenants (METR-LA, PEMS-BAY,
//! PEMS04, PEMS08 analogues, …) concurrently. Each tenant owns:
//!
//! * its own [`ModelSnapshot`] slot, hot-swapped from its own
//!   [`CheckpointDir`] (one trainer per tenant publishes into it);
//! * `shards` independent [`Shard`]s — bounded queue + condvar + worker
//!   thread each — so the request path of one tenant never contends
//!   with another tenant, and within a tenant requests spread across
//!   shards round-robin;
//! * optional response cache with in-flight dedup ([`crate::CachePolicy`]).
//!
//! Admission control: when every shard of a tenant is at its queue
//! bound, the submit returns [`ServeError::Shed`] with the tenant name
//! and observed depth — callers see typed backpressure, queues never
//! grow without bound.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use urcl_core::persist::{CheckpointDir, CheckpointFingerprint};
use urcl_models::Backbone;
use urcl_tensor::{ParamStore, Tensor};

use crate::cache::{CacheKey, Lookup, ResponseCache};
use crate::server::{forward_batch, Forecast, PendingForecast, ServeConfig, ServeError};
use crate::shard::{Pending, Rejected, Shard};
use crate::snapshot::ModelSnapshot;

/// How long an idle worker (or the reload poller) sleeps between
/// shutdown checks; requests interrupt the wait immediately via the
/// shard's condvar.
pub(crate) const IDLE_TICK: Duration = Duration::from_millis(25);

/// A sibling queue must hold at least this many requests before an idle
/// worker steals from it — one queued request is the owning worker's
/// next batch anyway, and moving it would only forfeit its coalescing
/// window.
const STEAL_MIN_DEPTH: usize = 2;

/// How a submit picks its shard.
enum Route {
    /// Round-robin sweep over every shard (the default): admitted by the
    /// first shard with room, shed only when all are full.
    Sweep,
    /// Strict affinity: only shard `key % shards` is probed. Trades
    /// spillover for locality — see [`TenantClient::submit_affine`].
    Affine(u64),
}

/// Point-in-time counters for one tenant (all atomic reads, no locks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests accepted (including cache hits and dedup joins).
    pub requests: u64,
    /// Requests rejected with [`ServeError::Shed`].
    pub shed: u64,
    /// Batched forward passes executed.
    pub batches: u64,
    /// Largest batch fused so far.
    pub max_batch: u64,
    /// Successful snapshot loads/hot-swaps.
    pub swaps: u64,
    /// Failed reload attempts (old snapshot kept serving).
    pub reload_failures: u64,
    /// Requests answered from the response cache.
    pub cache_hits: u64,
    /// Requests that registered a fresh cache entry (computed forwards).
    pub cache_misses: u64,
    /// Requests that joined an identical in-flight forward.
    pub dedup_joins: u64,
    /// Steal operations: batches an idle shard worker pulled from a hot
    /// sibling's queue.
    pub steals: u64,
    /// Requests served out of stolen batches (each steal moves one or
    /// more queued requests).
    pub stolen: u64,
}

impl TenantStats {
    /// Field-wise sum (registry aggregate; `max_batch` takes the max).
    pub fn merge(&self, other: &TenantStats) -> TenantStats {
        TenantStats {
            requests: self.requests + other.requests,
            shed: self.shed + other.shed,
            batches: self.batches + other.batches,
            max_batch: self.max_batch.max(other.max_batch),
            swaps: self.swaps + other.swaps,
            reload_failures: self.reload_failures + other.reload_failures,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            dedup_joins: self.dedup_joins + other.dedup_joins,
            steals: self.steals + other.steals,
            stolen: self.stolen + other.stolen,
        }
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    shed: AtomicU64,
    batches: AtomicU64,
    max_batch_seen: AtomicU64,
    swaps: AtomicU64,
    reload_failures: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    dedup_joins: AtomicU64,
    steals: AtomicU64,
    stolen: AtomicU64,
}

pub(crate) struct TenantCore {
    name: String,
    model: Box<dyn Backbone + Send + Sync>,
    template: ParamStore,
    source: CheckpointDir,
    config: ServeConfig,
    snapshot: Mutex<Option<Arc<ModelSnapshot>>>,
    fingerprint: Mutex<Option<CheckpointFingerprint>>,
    shards: Vec<Shard>,
    router: AtomicUsize,
    cache: Option<ResponseCache>,
    /// Stop signal for the reload poller (the shards have their own
    /// per-queue drain flags).
    stopping: AtomicBool,
    generation: AtomicU64,
    stats: Counters,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl TenantCore {
    fn input_shape(&self) -> [usize; 3] {
        let cfg = self.model.config();
        [cfg.input_steps, cfg.num_nodes, cfg.channels]
    }

    fn current_generation(&self) -> u64 {
        lock(&self.snapshot)
            .as_ref()
            .map(|s| s.generation())
            .unwrap_or(0)
    }

    fn submit(&self, window: Tensor, route: Route) -> Result<PendingForecast, ServeError> {
        let expected = self.input_shape();
        if window.shape() != expected {
            return Err(ServeError::BadRequest(format!(
                "window shape {:?} does not match tenant {:?} geometry {:?} ([M, N, C])",
                window.shape(),
                self.name,
                expected
            )));
        }
        let (tx, rx) = mpsc::channel();
        let traced = urcl_trace::enabled();

        // Cache fast path: hit, join an identical admitted forward, or
        // register a fresh entry the queued compute will fulfill.
        let mut cache_key = None;
        if let Some(cache) = &self.cache {
            let key = CacheKey::new(self.current_generation(), &window);
            match cache.lookup_or_register(&key, &tx) {
                Lookup::Hit(forecast) => {
                    self.stats.requests.fetch_add(1, Ordering::Relaxed);
                    self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    if traced {
                        urcl_trace::counter_inc("serve.requests");
                        urcl_trace::counter_inc(&format!("serve.tenant.{}.requests", self.name));
                        urcl_trace::counter_inc(&format!("serve.tenant.{}.cache_hits", self.name));
                    }
                    let _ = tx.send(Ok(forecast));
                    return Ok(PendingForecast::new(rx));
                }
                Lookup::Joined => {
                    self.stats.requests.fetch_add(1, Ordering::Relaxed);
                    self.stats.dedup_joins.fetch_add(1, Ordering::Relaxed);
                    if traced {
                        urcl_trace::counter_inc("serve.requests");
                        urcl_trace::counter_inc(&format!("serve.tenant.{}.requests", self.name));
                        urcl_trace::counter_inc(&format!("serve.tenant.{}.dedup_joins", self.name));
                    }
                    return Ok(PendingForecast::new(rx));
                }
                Lookup::Registered => {
                    self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
                    if traced {
                        urcl_trace::counter_inc(&format!("serve.tenant.{}.cache_misses", self.name));
                    }
                    cache_key = Some(key);
                }
                Lookup::Uncached => {}
            }
        }

        let pending = Pending {
            window,
            enqueued: Instant::now(),
            tx,
            cache_key: cache_key.clone(),
        };
        let admitted = self.admit(pending, route);
        if let (Some(cache), Some(key)) = (&self.cache, &cache_key) {
            cache.settle(key, admitted.is_ok());
        }
        admitted.map(|()| PendingForecast::new(rx))
    }

    /// Enqueues one request on a shard, or fails with the typed
    /// [`ServeError::Shed`] (some shard open but full) or
    /// [`ServeError::ShuttingDown`] (every probed shard draining).
    fn admit(&self, mut pending: Pending, route: Route) -> Result<(), ServeError> {
        let traced = urcl_trace::enabled();
        // Route: either a full sweep from the round-robin cursor, or a
        // single strict-affinity probe. Each shard's drain flag and depth
        // bound are checked under that shard's own lock — there is no
        // cross-shard lock.
        let n = self.shards.len();
        let (start, probes) = match route {
            Route::Sweep => (self.router.fetch_add(1, Ordering::Relaxed), n),
            // Strict affinity: one shard, no spillover. An overloaded
            // keyed shard sheds even while siblings have room — work
            // stealing, not the submit path, is what rebalances it.
            Route::Affine(key) => ((key % n as u64) as usize, 1),
        };
        let mut any_open = false;
        let mut fullest = 0usize;
        for i in 0..probes {
            let idx = (start + i) % n;
            match self.shards[idx].try_submit(pending) {
                Ok(depth) => {
                    self.stats.requests.fetch_add(1, Ordering::Relaxed);
                    if traced {
                        urcl_trace::counter_inc("serve.requests");
                        urcl_trace::counter_inc(&format!("serve.tenant.{}.requests", self.name));
                        urcl_trace::gauge_set(
                            &format!("serve.tenant.{}.shard{idx}.queue_depth", self.name),
                            depth as f64,
                        );
                    }
                    return Ok(());
                }
                Err(Rejected::Full(p, depth)) => {
                    pending = p;
                    any_open = true;
                    fullest = fullest.max(depth);
                }
                Err(Rejected::Draining(p)) => pending = p,
            }
        }
        if !any_open {
            return Err(ServeError::ShuttingDown);
        }
        self.stats.shed.fetch_add(1, Ordering::Relaxed);
        if traced {
            urcl_trace::counter_inc("serve.shed");
            urcl_trace::counter_inc(&format!("serve.tenant.{}.shed", self.name));
        }
        Err(ServeError::Shed {
            tenant: self.name.clone(),
            depth: fullest,
        })
    }

    fn reload(&self, force: bool) -> Result<bool, ServeError> {
        let fingerprint = self.source.fingerprint();
        if !force && fingerprint.is_some() && *lock(&self.fingerprint) == fingerprint {
            return Ok(false);
        }
        let _sp = urcl_trace::span("serve_reload");
        let loaded = self.source.load().and_then(|ckpt| {
            let generation = self.generation.load(Ordering::Relaxed) + 1;
            ModelSnapshot::from_checkpoint(&ckpt, &self.template, generation)
                .map_err(|e| urcl_core::PersistError::Format(e.to_string()))
        });
        match loaded {
            Ok(snapshot) => {
                let generation = snapshot.generation();
                self.generation.store(generation, Ordering::Relaxed);
                *lock(&self.snapshot) = Some(Arc::new(snapshot));
                *lock(&self.fingerprint) = fingerprint;
                if let Some(cache) = &self.cache {
                    // Forecasts from older snapshots must never be
                    // served again; in-flight entries survive so their
                    // queued computes still fan out.
                    cache.retain_generation(generation);
                }
                self.stats.swaps.fetch_add(1, Ordering::Relaxed);
                if urcl_trace::enabled() {
                    urcl_trace::counter_inc("serve.swaps");
                    urcl_trace::counter_inc(&format!("serve.tenant.{}.swaps", self.name));
                }
                Ok(true)
            }
            Err(e) => {
                // Remember the torn/bad fingerprint so the poller does
                // not retry identical bytes every tick; the old snapshot
                // keeps serving.
                *lock(&self.fingerprint) = fingerprint;
                self.stats.reload_failures.fetch_add(1, Ordering::Relaxed);
                if urcl_trace::enabled() {
                    urcl_trace::counter_inc("serve.reload_failures");
                    urcl_trace::counter_inc(&format!(
                        "serve.tenant.{}.reload_failures",
                        self.name
                    ));
                }
                Err(ServeError::Reload(e.to_string()))
            }
        }
    }

    fn stats(&self) -> TenantStats {
        TenantStats {
            requests: self.stats.requests.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            batches: self.stats.batches.load(Ordering::Relaxed),
            max_batch: self.stats.max_batch_seen.load(Ordering::Relaxed),
            swaps: self.stats.swaps.load(Ordering::Relaxed),
            reload_failures: self.stats.reload_failures.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.stats.cache_misses.load(Ordering::Relaxed),
            dedup_joins: self.stats.dedup_joins.load(Ordering::Relaxed),
            steals: self.stats.steals.load(Ordering::Relaxed),
            stolen: self.stats.stolen.load(Ordering::Relaxed),
        }
    }
}

/// One attempt to steal a batch for an idle `thief` shard: scan the
/// siblings (starting just past the thief, so thieves spread over
/// victims) and take up to `max_batch` of the oldest requests from the
/// first one with a backlog. Returns `None` when no sibling is hot.
fn steal_batch(core: &TenantCore, thief: usize) -> Option<Vec<Pending>> {
    let n = core.shards.len();
    for off in 1..n {
        let victim = (thief + off) % n;
        let stolen = core.shards[victim].try_steal(core.config.policy.max_batch, STEAL_MIN_DEPTH);
        if !stolen.is_empty() {
            core.stats.steals.fetch_add(1, Ordering::Relaxed);
            core.stats
                .stolen
                .fetch_add(stolen.len() as u64, Ordering::Relaxed);
            if urcl_trace::enabled() {
                urcl_trace::counter_inc("serve.steals");
                urcl_trace::counter_add("serve.stolen_requests", stolen.len() as u64);
                urcl_trace::counter_inc(&format!("serve.tenant.{}.steals", core.name));
                urcl_trace::counter_add(
                    &format!("serve.tenant.{}.stolen_requests", core.name),
                    stolen.len() as u64,
                );
            }
            return Some(stolen);
        }
    }
    None
}

/// The per-shard worker: batch under the policy, forward, reply — and,
/// when its own queue is empty, steal a hot sibling's backlog instead of
/// sleeping ([`steal_batch`]).
fn worker_loop(core: &TenantCore, shard_idx: usize) {
    let shard = &core.shards[shard_idx];
    let stealing = core.config.steal && core.shards.len() > 1;
    'serve: loop {
        let batch = {
            let mut st = shard.lock();
            // Idle: wait for a request; exit only on "draining AND
            // empty", both observed under the lock. Between waits, an
            // empty queue is an invitation to steal: the lock is dropped,
            // a hot sibling is drained, and the stolen batch runs here.
            loop {
                if !st.queue.is_empty() {
                    break;
                }
                let draining = st.draining;
                if stealing {
                    drop(st);
                    if let Some(stolen) = steal_batch(core, shard_idx) {
                        run_batch(core, stolen);
                        continue 'serve;
                    }
                    st = shard.lock();
                    if !st.queue.is_empty() {
                        break;
                    }
                    // Safe even if siblings still hold work below the
                    // steal threshold: every queue is drained by its own
                    // worker before that worker exits — stealing is pure
                    // acceleration, never a responsibility transfer.
                    if st.draining {
                        return;
                    }
                } else if draining {
                    return;
                }
                st = shard
                    .notify
                    .wait_timeout(st, IDLE_TICK)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
            // Coalesce: hold the batch open until it fills or the oldest
            // request's delay budget runs out; draining closes it early.
            let policy = core.config.policy;
            let deadline = st.queue.front().expect("non-empty").enqueued + policy.max_delay;
            while st.queue.len() < policy.max_batch && !st.draining {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) = shard
                    .notify
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            let take = st.queue.len().min(policy.max_batch);
            let batch: Vec<Pending> = st.queue.drain(..take).collect();
            if urcl_trace::enabled() {
                urcl_trace::gauge_set(
                    &format!("serve.tenant.{}.shard{shard_idx}.queue_depth", core.name),
                    st.queue.len() as f64,
                );
            }
            batch
        };
        // A thief can empty this queue while the coalescing wait holds no
        // lock; an empty batch just means the work is running elsewhere.
        if !batch.is_empty() {
            run_batch(core, batch);
        }
    }
}

fn run_batch(core: &TenantCore, batch: Vec<Pending>) {
    let _sp = urcl_trace::span("serve_batch");
    let traced = urcl_trace::enabled();
    core.stats.batches.fetch_add(1, Ordering::Relaxed);
    core.stats
        .max_batch_seen
        .fetch_max(batch.len() as u64, Ordering::Relaxed);
    if traced {
        urcl_trace::counter_inc("serve.batches");
        urcl_trace::counter_inc(&format!("serve.tenant.{}.batches", core.name));
        urcl_trace::histogram_record("serve.batch_size", batch.len() as f64);
        urcl_trace::histogram_record(
            &format!("serve.tenant.{}.batch_size", core.name),
            batch.len() as f64,
        );
    }

    // Capture the snapshot once for the whole batch: a hot-swap between
    // batches never splits one batch across two snapshots, and holding
    // the Arc keeps the old snapshot alive until these replies are out.
    let snapshot = lock(&core.snapshot).clone();
    let Some(snapshot) = snapshot else {
        for pending in batch {
            let err = Err(ServeError::NoSnapshot);
            if let (Some(cache), Some(key)) = (&core.cache, &pending.cache_key) {
                cache.fulfill(key, &err);
            }
            let _ = pending.tx.send(err);
        }
        return;
    };

    let mut windows = Vec::with_capacity(batch.len());
    let mut replies = Vec::with_capacity(batch.len());
    for pending in batch {
        windows.push(pending.window);
        replies.push((pending.enqueued, pending.tx, pending.cache_key));
    }
    let predictions = forward_batch(
        core.model.as_ref(),
        &snapshot,
        &windows,
        core.config.target_channel,
    );
    for ((enqueued, tx, cache_key), prediction) in replies.into_iter().zip(predictions) {
        if traced {
            let elapsed = enqueued.elapsed().as_secs_f64();
            urcl_trace::histogram_record("serve.latency_seconds", elapsed);
            urcl_trace::histogram_record(
                &format!("serve.tenant.{}.latency_seconds", core.name),
                elapsed,
            );
        }
        let result = Ok(Forecast {
            prediction,
            generation: snapshot.generation(),
        });
        if let (Some(cache), Some(key)) = (&core.cache, &cache_key) {
            cache.fulfill(key, &result);
        }
        let _ = tx.send(result);
    }
}

fn reload_loop(core: &TenantCore, interval: Duration) {
    let mut next = Instant::now() + interval;
    while !core.stopping.load(Ordering::Acquire) {
        std::thread::sleep(IDLE_TICK.min(interval));
        if Instant::now() < next {
            continue;
        }
        next = Instant::now() + interval;
        // Failures are counted and traced; the poller just keeps trying.
        let _ = core.reload(false);
    }
}

/// A cheap, clonable handle for submitting requests to one tenant
/// without touching the registry. Handles stay safe after the tenant is
/// drained — submits then return [`ServeError::ShuttingDown`].
#[derive(Clone)]
pub struct TenantClient {
    core: Arc<TenantCore>,
}

impl TenantClient {
    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.core.name
    }

    /// Enqueues one `[M, N, C]` physical-unit window and returns a reply
    /// handle. The window's geometry is validated eagerly; normalization
    /// happens inside the batch, with the snapshot that serves it.
    pub fn submit(&self, window: Tensor) -> Result<PendingForecast, ServeError> {
        self.core.submit(window, Route::Sweep)
    }

    /// Enqueues one window with **strict shard affinity**: only shard
    /// `key % shards` is probed, with no spillover to siblings. Requests
    /// sharing a key therefore serialize through one queue (useful for
    /// per-sensor or per-upstream locality), at the price that an
    /// overloaded keyed shard sheds with [`ServeError::Shed`] even while
    /// sibling queues have room. With [`crate::ServeConfig::steal`]
    /// enabled (the default), idle sibling workers drain the hot keyed
    /// queue from the consumption side instead, which restores most of
    /// the lost capacity — the steal-duel cell in `bench_serve` measures
    /// exactly this.
    pub fn submit_affine(
        &self,
        key: u64,
        window: Tensor,
    ) -> Result<PendingForecast, ServeError> {
        self.core.submit(window, Route::Affine(key))
    }

    /// [`TenantClient::submit_affine`] followed by a blocking wait.
    pub fn predict_affine(&self, key: u64, window: &Tensor) -> Result<Forecast, ServeError> {
        self.submit_affine(key, window.clone())?.wait()
    }

    /// Submits one window and blocks for its forecast.
    pub fn predict(&self, window: &Tensor) -> Result<Forecast, ServeError> {
        self.submit(window.clone())?.wait()
    }

    /// Submits a whole burst at once and blocks for every forecast, in
    /// order. Bursts larger than the policy's `max_batch` are split across
    /// consecutive batches by the workers.
    pub fn predict_many(&self, windows: &[Tensor]) -> Result<Vec<Forecast>, ServeError> {
        let handles: Vec<PendingForecast> = windows
            .iter()
            .map(|w| self.submit(w.clone()))
            .collect::<Result<_, _>>()?;
        handles.into_iter().map(PendingForecast::wait).collect()
    }

    /// Checks the tenant's checkpoint directory and hot-swaps the
    /// snapshot if its trainer has published a new checkpoint since the
    /// last reload. Returns `true` when a swap happened, `false` when the
    /// fingerprint was unchanged. In-flight batches finish on the old
    /// snapshot; the swap takes effect from the next batch. On failure the
    /// old snapshot keeps serving and the error is returned.
    pub fn reload_now(&self) -> Result<bool, ServeError> {
        self.core.reload(false)
    }

    /// Whether a snapshot is loaded.
    pub fn has_snapshot(&self) -> bool {
        lock(&self.core.snapshot).is_some()
    }

    /// The currently serving snapshot (if any); the `Arc` stays valid
    /// across hot-swaps.
    pub fn snapshot(&self) -> Option<Arc<ModelSnapshot>> {
        lock(&self.core.snapshot).clone()
    }

    /// Generation of the current snapshot, `None` before the first load.
    pub fn generation(&self) -> Option<u64> {
        lock(&self.core.snapshot).as_ref().map(|s| s.generation())
    }

    /// Point-in-time counters (requests, sheds, batches, swaps, cache).
    pub fn stats(&self) -> TenantStats {
        self.core.stats()
    }

    /// The `[M, N, C]` window geometry requests must match.
    pub fn input_shape(&self) -> [usize; 3] {
        self.core.input_shape()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.core.shards.len()
    }

    /// Current per-shard queue depths (diagnostics).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.core.shards.iter().map(|s| s.depth()).collect()
    }

    /// Deepest queue depth each shard has seen; never exceeds the
    /// configured `queue_bound` (property-tested).
    pub fn peak_queue_depths(&self) -> Vec<usize> {
        self.core.shards.iter().map(|s| s.peak_depth()).collect()
    }

    /// Completed forecasts currently held by the response cache.
    pub fn cached_len(&self) -> usize {
        self.core.cache.as_ref().map_or(0, |c| c.len())
    }
}

/// One running tenant: the core plus its worker/reloader threads.
/// Dropping it drains every shard (queued requests are answered first)
/// and joins all threads.
struct TenantRuntime {
    core: Arc<TenantCore>,
    workers: Vec<JoinHandle<()>>,
    reloader: Option<JoinHandle<()>>,
}

impl TenantRuntime {
    /// Starts a tenant whose `config` already passed [`validate`].
    fn start(
        name: &str,
        model: Box<dyn Backbone + Send + Sync>,
        template: ParamStore,
        source: CheckpointDir,
        config: ServeConfig,
    ) -> Self {
        let core = Arc::new(TenantCore {
            name: name.to_string(),
            model,
            template,
            source,
            snapshot: Mutex::new(None),
            fingerprint: Mutex::new(None),
            shards: (0..config.shards)
                .map(|_| Shard::new(config.queue_bound))
                .collect(),
            router: AtomicUsize::new(0),
            cache: config.cache.map(ResponseCache::new),
            stopping: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            stats: Counters::default(),
            config,
        });
        // Best-effort initial load: an empty or unreadable directory just
        // means the tenant's trainer hasn't published yet.
        let _ = core.reload(true);
        let workers = (0..core.config.shards)
            .map(|idx| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("urcl-serve-{name}-s{idx}"))
                    .spawn(move || worker_loop(&core, idx))
                    .expect("spawn serve shard worker")
            })
            .collect();
        let reloader = core.config.reload_interval.map(|interval| {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name(format!("urcl-serve-{name}-reload"))
                .spawn(move || reload_loop(&core, interval))
                .expect("spawn serve reloader")
        });
        Self {
            core,
            workers,
            reloader,
        }
    }

    fn client(&self) -> TenantClient {
        TenantClient {
            core: Arc::clone(&self.core),
        }
    }
}

impl Drop for TenantRuntime {
    fn drop(&mut self) {
        self.core.stopping.store(true, Ordering::Release);
        for shard in &self.core.shards {
            shard.drain();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(reloader) = self.reloader.take() {
            let _ = reloader.join();
        }
    }
}

/// Rejects configurations the runtime cannot start with: no batch slot,
/// no shard, or a queue that admits nothing.
fn validate(config: &ServeConfig) -> Result<(), ServeError> {
    for (field, value) in [
        ("policy.max_batch", config.policy.max_batch),
        ("shards", config.shards),
        ("queue_bound", config.queue_bound),
    ] {
        if value == 0 {
            return Err(ServeError::BadRequest(format!(
                "ServeConfig::{field} must be positive"
            )));
        }
    }
    Ok(())
}

/// The multi-tenant registry: named tenants, each with its own shards,
/// snapshot, checkpoint source and (optional) cache.
///
/// This is the one way to serve: a single-model deployment is a
/// one-tenant registry. [`Tenants::add`] returns the tenant's
/// [`TenantClient`], which carries the whole request API; the registry
/// lock is only taken to add/remove/look up tenants — never on the
/// request path of a client, which holds its tenant directly.
///
/// Dropping the registry drains every tenant: queued requests are
/// answered, later submits through surviving clients fail with
/// [`ServeError::ShuttingDown`].
#[derive(Default)]
pub struct Tenants {
    map: RwLock<BTreeMap<String, TenantRuntime>>,
}

impl Tenants {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers and starts a tenant, returning its request handle.
    ///
    /// `model` is the backbone *architecture* — its weights are ignored;
    /// every forward pass reads parameters from the current snapshot.
    /// `template` is the [`ParamStore`] the model was constructed
    /// against; it defines the layout checkpoints must match. If `source`
    /// already holds a loadable checkpoint it becomes the initial
    /// snapshot; otherwise the tenant starts empty and answers
    /// [`ServeError::NoSnapshot`] until a reload succeeds.
    ///
    /// Fails with [`ServeError::BadRequest`] if `config` has a zero
    /// `policy.max_batch`, `shards` or `queue_bound`, and with
    /// [`ServeError::TenantExists`] if the name is taken.
    pub fn add(
        &self,
        name: &str,
        model: impl Backbone + Send + Sync + 'static,
        template: ParamStore,
        source: CheckpointDir,
        config: ServeConfig,
    ) -> Result<TenantClient, ServeError> {
        validate(&config)?;
        let mut map = self.map.write().unwrap_or_else(|e| e.into_inner());
        if map.contains_key(name) {
            return Err(ServeError::TenantExists(name.to_string()));
        }
        let runtime = TenantRuntime::start(name, Box::new(model), template, source, config);
        let client = runtime.client();
        map.insert(name.to_string(), runtime);
        Ok(client)
    }

    /// Drains and removes a tenant (blocking until its queued requests
    /// are answered and its threads joined). Returns `false` if the name
    /// is unknown.
    pub fn remove(&self, name: &str) -> bool {
        let runtime = self
            .map
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name);
        // Dropped outside the write lock so a long drain doesn't block
        // other tenants' lookups.
        runtime.is_some()
    }

    /// A request handle for one tenant.
    pub fn client(&self, name: &str) -> Result<TenantClient, ServeError> {
        self.map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map(TenantRuntime::client)
            .ok_or_else(|| ServeError::UnknownTenant(name.to_string()))
    }

    /// Field-wise sum of every tenant's counters.
    pub fn aggregate_stats(&self) -> TenantStats {
        let map = self.map.read().unwrap_or_else(|e| e.into_inner());
        map.values()
            .map(|rt| rt.core.stats())
            .fold(TenantStats::default(), |acc, s| acc.merge(&s))
    }

    /// Registered tenant names (sorted).
    pub fn names(&self) -> Vec<String> {
        self.map
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.map.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
