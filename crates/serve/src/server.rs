//! Shared serving types and the batched forward pass.
//!
//! The runtime itself (shards, workers, admission control, hot-swap) lives
//! in [`crate::tenant`]; a single-model deployment is a one-tenant
//! [`crate::Tenants`] registry.

use std::sync::mpsc;
use std::time::Duration;

use urcl_models::Backbone;
use urcl_tensor::Tensor;

use crate::cache::CachePolicy;
use crate::snapshot::ModelSnapshot;

/// Request-coalescing policy.
///
/// When a request arrives on an idle shard, the worker holds the batch
/// open for up to `max_delay`, hoping concurrent requests fill it to
/// `max_batch`; whichever limit is hit first closes the batch. A single
/// sparse client therefore pays at most `max_delay` extra latency, while
/// a busy one amortizes the per-forward fixed costs across up to
/// `max_batch` windows.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Largest number of requests fused into one forward pass.
    pub max_batch: usize,
    /// Longest a batch is held open waiting to fill.
    pub max_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
        }
    }
}

/// Per-tenant serving configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Request-coalescing policy (applied per shard).
    pub policy: BatchPolicy,
    /// Which input channel the forecasts denormalize as (the dataset's
    /// `target_channel`).
    pub target_channel: usize,
    /// When set, a background thread polls the checkpoint directory at
    /// this interval and hot-swaps the snapshot whenever the trainer has
    /// published a new checkpoint
    /// ([`urcl_core::CheckpointDir::fingerprint`] makes the no-change case
    /// a single `stat` call). `None` leaves reloads to explicit
    /// [`TenantClient::reload_now`](crate::TenantClient::reload_now) calls.
    pub reload_interval: Option<Duration>,
    /// Number of independent shards (queue + worker thread each). Requests
    /// are routed round-robin; shards never share a lock, so on multi-core
    /// hosts they batch and forward concurrently. Defaults to the host's
    /// available parallelism.
    pub shards: usize,
    /// Admission bound per shard queue. When every shard is at its bound,
    /// submits fail fast with [`ServeError::Shed`] instead of queueing
    /// unboundedly. Defaults to 1024.
    pub queue_bound: usize,
    /// Optional response cache with in-flight deduplication: forecasts are
    /// memoized by `(snapshot generation, window bits)` — exact, because a
    /// forecaster is a pure function of those — and identical concurrent
    /// requests share one forward. `None` (the default) disables caching.
    pub cache: Option<CachePolicy>,
    /// Cross-shard work stealing (on by default): a shard worker whose
    /// own queue is empty drains up to `max_batch` of the oldest requests
    /// from a hot sibling's queue and runs them as its own batch, instead
    /// of sleeping while the sibling's backlog grows. Admission control,
    /// the drain protocol and response bits are all unchanged — stealing
    /// moves only already-admitted requests, every stolen request is
    /// processed immediately by the thief, and batched forwards are
    /// bitwise independent of batch composition (DESIGN.md §15).
    pub steal: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            policy: BatchPolicy::default(),
            target_channel: 0,
            reload_interval: None,
            shards: urcl_tensor::host_parallelism(),
            queue_bound: 1024,
            cache: None,
            steal: true,
        }
    }
}

/// Errors surfaced by the serving runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No checkpoint has been loaded yet — the trainer has not published
    /// one, or every reload so far failed.
    NoSnapshot,
    /// The request does not fit the model's geometry.
    BadRequest(String),
    /// A checkpoint reload failed; the previous snapshot (if any) is
    /// still serving.
    Reload(String),
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown,
    /// Admission control rejected the request: every shard queue of the
    /// tenant was at its bound. `depth` is the deepest queue observed
    /// during the routing sweep. Typed backpressure — callers decide
    /// whether to retry, downsample, or surface the overload.
    Shed {
        /// Tenant that shed the request.
        tenant: String,
        /// Deepest shard queue observed at rejection time.
        depth: usize,
    },
    /// No tenant with that name is registered.
    UnknownTenant(String),
    /// A tenant with that name is already registered.
    TenantExists(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoSnapshot => write!(f, "no model snapshot loaded yet"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Reload(msg) => write!(f, "checkpoint reload failed: {msg}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Shed { tenant, depth } => write!(
                f,
                "request shed: tenant {tenant:?} at admission bound (queue depth {depth})"
            ),
            ServeError::UnknownTenant(name) => write!(f, "unknown tenant {name:?}"),
            ServeError::TenantExists(name) => write!(f, "tenant {name:?} already registered"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One horizon forecast in physical units.
#[derive(Debug, Clone)]
pub struct Forecast {
    /// `[H, N]` predictions of the target channel, denormalized.
    pub prediction: Tensor,
    /// Generation of the [`ModelSnapshot`] that served this request —
    /// after a hot-swap, responses computed on the old snapshot are
    /// distinguishable from those on the new one.
    pub generation: u64,
}

/// A submitted request's reply handle (one-shot).
pub struct PendingForecast {
    rx: mpsc::Receiver<Result<Forecast, ServeError>>,
}

impl PendingForecast {
    pub(crate) fn new(rx: mpsc::Receiver<Result<Forecast, ServeError>>) -> Self {
        Self { rx }
    }

    /// Blocks until the batch containing this request has run.
    pub fn wait(self) -> Result<Forecast, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Blocks for at most `timeout`; `None` means the reply has not
    /// arrived yet (the handle is consumed — watchdog use, where a
    /// missing reply is itself the failure being tested).
    pub fn wait_timeout(self, timeout: Duration) -> Option<Result<Forecast, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

/// Forward-only inference for a batch of raw `[M, N, C]` physical-unit
/// windows on one snapshot: normalize, stack into `[B, M, N, C]`, run one
/// forward pass, split into per-window `[H, N]` forecasts and denormalize
/// the target channel.
///
/// This is the exact computation the serving workers perform per batch,
/// exposed so the batching invariant is testable in isolation: because
/// the tensor runtime only ever parallelizes over disjoint output
/// regions, a batched forward is **bitwise identical** to running each
/// window through a batch of one.
///
/// The forward pass goes through the snapshot's plan executor
/// ([`ModelSnapshot::forward`]): it replays a compiled batch-polymorphic
/// plan, or re-records a tape when `URCL_PLAN=0` selects the interpreter
/// oracle. Both give identical bits — pinned by the hot-swap suite — and
/// both match the trainer's own evaluation forward bit for bit.
pub fn forward_batch<B: Backbone + ?Sized>(
    model: &B,
    snapshot: &ModelSnapshot,
    windows: &[Tensor],
    target_channel: usize,
) -> Vec<Tensor> {
    if windows.is_empty() {
        return Vec::new();
    }
    let cfg = model.config();
    let (m, n, c) = (cfg.input_steps, cfg.num_nodes, cfg.channels);
    let norm = snapshot.normalizer();
    let mut data = Vec::with_capacity(windows.len() * m * n * c);
    for window in windows {
        norm.transform_into(window, &mut data);
    }
    let x = Tensor::from_vec(data, &[windows.len(), m, n, c]);

    let pred = snapshot.forward(model, &x); // [B, H, N]
    let (h, nodes) = (pred.shape()[1], pred.shape()[2]);
    (0..windows.len())
        .map(|i| {
            let yi = pred.narrow(0, i, 1).reshape(&[h, nodes]);
            norm.inverse_target(&yi, target_channel)
        })
        .collect()
}
