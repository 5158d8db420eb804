//! Immutable model snapshots: the unit of hot-swap.

use urcl_core::persist::{copy_store_checked, Checkpoint};
use urcl_models::{record_forward, Backbone};
use urcl_stdata::Normalizer;
use urcl_tensor::{ParamStore, Phase, PlanExecutor, Tensor};
use urcl_trace::SpanGuard;

use crate::server::ServeError;

/// Bound on a snapshot's cached plans (one per batch size at most, if an
/// architecture only compiles mono-shape plans).
const PLAN_CACHE_CAP: usize = 64;

/// One immutable, self-contained serving state: trained parameters plus
/// the normalizer statistics that map physical units into the model's
/// normalized input space and back.
///
/// Snapshots are built from `urcl-ckpt-v2` checkpoints, validated against
/// the server's parameter-layout template, and shared behind an
/// [`std::sync::Arc`]: a hot-swap replaces which snapshot *new* batches
/// see, while any batch already holding the `Arc` finishes on the old
/// one. A snapshot is never mutated after construction.
pub struct ModelSnapshot {
    store: ParamStore,
    normalizer: Normalizer,
    description: String,
    generation: u64,
    /// Forward plans compiled lazily and shared across every shard thread
    /// holding this snapshot. Plans are batch-polymorphic, so the first
    /// batch's compile serves every admission-controlled batch size; more
    /// entries appear only if an architecture degrades to mono-shape
    /// plans. Parameters are immutable for the snapshot's lifetime, so a
    /// plan never goes stale; it dies with the snapshot on hot-swap.
    plans: PlanExecutor<SpanGuard>,
}

impl ModelSnapshot {
    /// Builds a snapshot from a loaded checkpoint.
    ///
    /// `template` supplies the expected parameter layout (the same
    /// architecture the server's backbone was constructed against); the
    /// checkpoint must match it exactly (count, names, shapes) and must
    /// carry normalizer statistics — i.e. be a full-pipeline (v2) save,
    /// not a params-only one.
    pub fn from_checkpoint(
        ckpt: &Checkpoint,
        template: &ParamStore,
        generation: u64,
    ) -> Result<Self, ServeError> {
        let normalizer = ckpt
            .normalizer()
            .ok_or_else(|| {
                ServeError::Reload(
                    "checkpoint carries no normalizer statistics (params-only save?)"
                        .to_string(),
                )
            })?
            .clone();
        let mut store = template.clone();
        copy_store_checked(&ckpt.store, &mut store)
            .map_err(|e| ServeError::Reload(e.to_string()))?;
        Ok(Self {
            store,
            normalizer,
            description: ckpt.description.clone(),
            generation,
            plans: PlanExecutor::new(PLAN_CACHE_CAP, |phase| {
                urcl_trace::span(match phase {
                    Phase::Compile => "plan_compile",
                    _ => "serve_forward",
                })
            }),
        })
    }

    /// Normalized predictions `[B, H, N]` for a normalized batch `x`,
    /// through the snapshot's plan executor: the first batch compiles a
    /// batch-polymorphic plan every later batch size replays, or — under
    /// `URCL_PLAN=0` — each batch re-records on the interpreter.
    ///
    /// Activation-kernel selection (see [`urcl_tensor::FastActGuard`])
    /// happens at *replay* time on the calling thread, exactly as the
    /// interpreter selects at record time, so one cached plan serves
    /// fast- and exact-activation callers with the same bits each would
    /// get from a fresh tape.
    pub fn forward<B: Backbone + ?Sized>(&self, model: &B, x: &Tensor) -> Tensor {
        self.plans
            .forward(&self.store, &[x], |b| {
                record_forward(model, &self.store, x.at_batch(b))
            })
            .remove(0)
    }

    /// The trained parameters this snapshot serves with.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// The normalizer mapping physical units to model space and back.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// The checkpoint's free-form description (e.g. "after I3_set").
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Monotonic swap counter: each successful reload publishes a
    /// snapshot with a higher generation, so responses can be traced back
    /// to the checkpoint that produced them.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl std::fmt::Debug for ModelSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelSnapshot")
            .field("generation", &self.generation)
            .field("description", &self.description)
            .field("params", &self.store.len())
            .field("channels", &self.normalizer.num_channels())
            .finish()
    }
}
