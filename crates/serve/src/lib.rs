//! # urcl-serve
//!
//! A sharded, multi-tenant batched CPU inference runtime for URCL
//! forecasters — the *answering* half of the paper's deployment story,
//! where the *learning* half is the continual trainer in `urcl-core`.
//!
//! One process serves many dataset/model **tenants** (METR-LA, PEMS-BAY,
//! PEMS04, PEMS08 analogues, …) concurrently through a [`Tenants`]
//! registry; a single-model deployment is a one-tenant registry. There is
//! one way in: [`Tenants::add`] starts a tenant and returns its
//! [`TenantClient`], which carries the whole request API (submit,
//! predict, hot-swap, stats). Each tenant owns:
//!
//! * **Shards** — `N` independent request queues, each with its own
//!   worker thread, mutex and condvar. The request path takes only the
//!   owning shard's lock: no global lock, no cross-tenant contention.
//!   Within a shard, concurrent requests coalesce into batches under a
//!   [`BatchPolicy`] (`max_batch`/`max_delay`) and run as one forward.
//! * **Admission control** — every shard queue is bounded
//!   ([`ServeConfig::queue_bound`]); when all shards of a tenant are
//!   full the submit fails fast with [`ServeError::Shed`], carrying the
//!   tenant name and observed depth. Overload is typed backpressure,
//!   not unbounded memory growth.
//! * **Hot-swap** — weights and normalizer statistics come from
//!   `urcl-ckpt-v2` checkpoints in the tenant's own
//!   [`urcl_core::CheckpointDir`] (the very directory that tenant's
//!   still-running [`urcl_core::UrclPipeline`] trainer writes into) and
//!   swap atomically between batches via `Arc<`[`ModelSnapshot`]`>`.
//!   Every batch captures the `Arc` once, so in-flight requests always
//!   complete on the snapshot they started with; torn or unloadable
//!   checkpoints fall back per tenant and never take the registry down
//!   (see DESIGN.md §10 and §13).
//! * **Response cache** (optional, [`CachePolicy`]) — a forecaster is a
//!   pure function of `(snapshot generation, window)`, so completed
//!   forecasts are memoized *exactly* (keys compare the full window bit
//!   pattern) and identical concurrent requests deduplicate onto one
//!   in-flight forward. Hot-swaps purge stale generations.
//! * **Work stealing** ([`ServeConfig::steal`], on by default) — a shard
//!   worker whose own queue is empty drains the oldest requests of a hot
//!   sibling instead of sleeping, keeping every worker busy under skewed
//!   load without touching admission, drain, or response bits.
//!
//! The registry is externally drivable over the wire: [`HttpServer`]
//! (module [`http`]) binds a std-only HTTP/1.1 listener with a bounded
//! connection-worker pool and serves `POST
//! /v1/tenants/{name}/forecast` with JSON windows, mapping every
//! [`ServeError`] onto a typed 4xx/5xx status.
//!
//! The whole path is instrumented with `urcl-trace`: global
//! `serve.requests` / `serve.batches` / `serve.shed` / `serve.swaps` /
//! `serve.reload_failures` counters plus per-tenant
//! `serve.tenant.{name}.*` counters, `serve.tenant.{name}.batch_size` and
//! `.latency_seconds` histograms (exported with estimated `p50`/`p95`/
//! `p99`), and `serve.tenant.{name}.shard{i}.queue_depth` gauges.
//! `bench_serve` (in `crates/bench`) sweeps threads × shards × tenants ×
//! client counts over this runtime and writes `BENCH_serve.json`.
//!
//! ## Multi-tenant
//!
//! ```no_run
//! use urcl_core::CheckpointDir;
//! use urcl_serve::{CachePolicy, ServeConfig, Tenants};
//! # fn build_model() -> (urcl_models::GraphWaveNet, urcl_tensor::ParamStore) {
//! #     let mut template = urcl_tensor::ParamStore::new();
//! #     let mut rng = urcl_tensor::Rng::seed_from_u64(0);
//! #     let network = urcl_graph::random_geometric(24, 0.3, &mut rng);
//! #     let model = urcl_models::GraphWaveNet::new(&mut template, &mut rng,
//! #         &network, urcl_models::GwnConfig::small(24, 2, 12, 1));
//! #     (model, template)
//! # }
//!
//! let tenants = Tenants::new();
//! for name in ["metr-la", "pems-bay"] {
//!     let (model, template) = build_model(); // per-tenant architecture
//!     tenants.add(name, model, template,
//!         CheckpointDir::new(format!("ckpts/{name}")).unwrap(),
//!         ServeConfig {
//!             shards: 2,
//!             cache: Some(CachePolicy::default()),
//!             ..ServeConfig::default()
//!         }).unwrap();
//! }
//! let la = tenants.client("metr-la").unwrap(); // lock-free request path
//! let window = urcl_tensor::Tensor::zeros(&[12, 24, 2]);
//! match la.predict(&window) {
//!     Ok(f) => println!("{:?}", f.prediction.shape()),
//!     Err(urcl_serve::ServeError::Shed { tenant, depth }) => {
//!         eprintln!("overloaded: {tenant} at depth {depth}");
//!     }
//!     Err(e) => eprintln!("{e}"),
//! }
//! ```

#![warn(missing_docs)]

mod cache;
pub mod http;
mod server;
mod shard;
mod snapshot;
mod tenant;

pub use cache::CachePolicy;
pub use http::{HttpConfig, HttpServer, HttpStats};
pub use server::{forward_batch, BatchPolicy, Forecast, PendingForecast, ServeConfig, ServeError};
pub use snapshot::ModelSnapshot;
pub use tenant::{TenantClient, TenantStats, Tenants};
