//! Trainer + server, side by side: batched inference with checkpoint
//! hot-swap.
//!
//! ```bash
//! cargo run --release --example serving
//! ```
//!
//! Simulates the paper's deployment shape split into two tiers. A
//! *training* process learns the stream period by period and publishes
//! each result through the crash-safe `CheckpointDir` rotation; a
//! *serving* process (which never trains) watches that directory, batches
//! concurrent forecast requests under a `max_batch`/`max_delay` policy,
//! and hot-swaps to every newly published generation between batches —
//! without dropping a single in-flight request.

use std::time::Duration;

use urcl::core::{CheckpointDir, TrainerConfig, UrclPipeline};
use urcl::serve::{BatchPolicy, ServeConfig, Tenants};
use urcl::stdata::{DatasetConfig, SyntheticDataset};
use urcl::tensor::Tensor;

fn main() {
    let ds = SyntheticDataset::generate(DatasetConfig::metr_la().tiny());
    let split = ds.continual_split(2);

    // ---- the training tier -------------------------------------------
    let trainer_cfg = TrainerConfig {
        epochs_base: 2,
        epochs_incremental: 1,
        window_stride: 4,
        ..TrainerConfig::default()
    };
    let mut trainer =
        UrclPipeline::new(ds.network.clone(), ds.config.clone(), trainer_cfg.clone(), 7);
    let ckpt_dir = std::env::temp_dir().join("urcl-serving-ckpts");
    std::fs::remove_dir_all(&ckpt_dir).ok();
    let slots = CheckpointDir::new(&ckpt_dir).expect("checkpoint dir");

    println!("training on B_set...");
    let report = trainer.observe_period(split.base.series.clone());
    trainer
        .save_checkpoint(&slots, "after B_set")
        .expect("publish checkpoint");
    println!("  B_set MAE {:.2} — checkpoint published", report.mae);

    // ---- the serving tier --------------------------------------------
    // The server only needs the *architecture* (model + parameter-store
    // template); every weight it ever serves comes from the directory.
    // A single-model deployment is a one-tenant registry; dropping the
    // registry drains the tenant.
    let (model, template) =
        UrclPipeline::serving_parts(&ds.network, &ds.config, &trainer_cfg);
    let registry = Tenants::new();
    let server = registry
        .add(
            "metr-la",
            model,
            template,
            CheckpointDir::new(&ckpt_dir).expect("checkpoint dir"),
            ServeConfig {
                policy: BatchPolicy {
                    max_batch: 8,
                    max_delay: Duration::from_millis(2),
                },
                target_channel: ds.config.target_channel,
                reload_interval: None, // we trigger reloads explicitly below
                ..ServeConfig::default()
            },
        )
        .expect("valid serving config");
    println!(
        "server up, generation {:?}, window shape {:?}",
        server.generation(),
        server.input_shape()
    );

    // Concurrent clients: each submits a recent window and blocks on its
    // forecast. The worker coalesces them into fused batches.
    let m = ds.config.input_steps;
    let windows: Vec<Tensor> = (0..12)
        .map(|i| split.base.series.narrow(0, i * 2, m))
        .collect();
    let forecasts = server.predict_many(&windows).expect("burst served");
    let stats = server.stats();
    println!(
        "served {} requests in {} batches (largest fused batch: {})",
        stats.requests, stats.batches, stats.max_batch
    );
    let g1 = forecasts[0].generation;
    let before = forecasts[0].prediction.data()[0];

    // ---- a new generation arrives ------------------------------------
    println!("training on I1_set...");
    let report = trainer.observe_period(split.incremental[0].series.clone());
    trainer
        .save_checkpoint(&slots, "after I1_set")
        .expect("publish checkpoint");
    println!("  I1_set MAE {:.2} — checkpoint published", report.mae);

    // The reload thread would pick this up on its own; an operator (or a
    // test) can also force the swap.
    let swapped = server.reload_now().expect("reload");
    let forecast = server.predict(&windows[0]).expect("served");
    println!(
        "hot-swap: {} (generation {} -> {}), sensor-0 forecast {:.1} -> {:.1}",
        swapped, g1, forecast.generation, before, forecast.prediction.data()[0]
    );
    assert!(swapped, "new checkpoint must swap");
    assert_ne!(g1, forecast.generation);

    drop(registry);

    std::fs::remove_dir_all(&ckpt_dir).ok();
}
