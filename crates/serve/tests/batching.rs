//! Batcher edge cases and the serving consistency guarantees:
//! empty-queue idling, bursts larger than `max_batch`, bitwise
//! batched-vs-single forwards, and snapshot hot-swap during a drain.

use std::time::Duration;

use urcl_core::{CheckpointDir, TrainerConfig, UrclPipeline};
use urcl_serve::{
    forward_batch, BatchPolicy, ModelSnapshot, ServeConfig, ServeError, TenantClient, Tenants,
};
use urcl_stdata::{DatasetConfig, SyntheticDataset};
use urcl_tensor::Tensor;

/// A dataset, a checkpoint directory holding a full (v2) checkpoint from
/// a pipeline seeded with `seed`, and a few raw physical-unit windows.
struct Fixture {
    ds: SyntheticDataset,
    dir_path: std::path::PathBuf,
    slots: CheckpointDir,
    windows: Vec<Tensor>,
}

impl Fixture {
    /// No training: the checkpoint carries the pipeline's *initial*
    /// weights plus fitted normalizer statistics — everything serving
    /// needs, built in milliseconds.
    fn new(tag: &str, seed: u64) -> Self {
        let ds = SyntheticDataset::generate(DatasetConfig::metr_la().tiny());
        let dir_path = std::env::temp_dir().join(format!(
            "urcl-serve-test-{}-{tag}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir_path).ok();
        let slots = CheckpointDir::new(&dir_path).unwrap();
        let mut pipe = UrclPipeline::new(
            ds.network.clone(),
            ds.config.clone(),
            TrainerConfig::default(),
            seed,
        );
        let series = &ds.continual_split(2).base.series;
        pipe.observe_period_statistics_only(series);
        pipe.save_checkpoint(&slots, &format!("seed {seed}")).unwrap();

        let m = ds.config.input_steps;
        let windows = (0..20)
            .map(|i| series.narrow(0, i * 2, m))
            .collect();
        Self {
            ds,
            dir_path,
            slots,
            windows,
        }
    }

    /// A one-tenant registry over this fixture's checkpoints, plus the
    /// tenant's client. Dropping the registry drains the tenant.
    fn server(&self, policy: BatchPolicy) -> (Tenants, TenantClient) {
        let (model, template) = UrclPipeline::serving_parts(
            &self.ds.network,
            &self.ds.config,
            &TrainerConfig::default(),
        );
        let registry = Tenants::new();
        let client = registry
            .add(
                "default",
                model,
                template,
                CheckpointDir::new(&self.dir_path).unwrap(),
                ServeConfig {
                    policy,
                    target_channel: self.ds.config.target_channel,
                    // One shard: these tests pin per-shard coalescing
                    // behaviour (burst splits, full-batch fusion).
                    shards: 1,
                    ..ServeConfig::default()
                },
            )
            .expect("valid config");
        (registry, client)
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir_path).ok();
    }
}

fn assert_bitwise_eq(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
    }
}

/// An idle server (queue empty far longer than `max_delay`) must keep its
/// worker parked without spinning or dying, serve a late request
/// normally, and shut down cleanly from the idle state.
#[test]
fn empty_queue_idles_and_serves_late_request() {
    let fx = Fixture::new("idle", 1);
    let (registry, server) = fx.server(BatchPolicy {
        max_batch: 4,
        max_delay: Duration::from_millis(1),
    });
    std::thread::sleep(Duration::from_millis(120));
    assert_eq!(server.stats().batches, 0, "idle worker must not run batches");
    let forecast = server.predict(&fx.windows[0]).expect("late request served");
    assert_eq!(
        forecast.prediction.shape(),
        &[fx.ds.config.output_steps, fx.ds.config.num_nodes]
    );
    assert_eq!(server.stats().batches, 1);
    drop(registry); // clean shutdown with an empty queue must not hang
}

/// A burst larger than `max_batch` splits across consecutive batches; no
/// batch ever exceeds the policy and every request is answered in order.
#[test]
fn burst_larger_than_max_batch_splits() {
    let fx = Fixture::new("burst", 2);
    let max_batch = 4;
    let (_registry, server) = fx.server(BatchPolicy {
        max_batch,
        max_delay: Duration::from_millis(20),
    });
    let n = 2 * max_batch + 3; // 11 requests, forced across >= 3 batches
    let forecasts = server.predict_many(&fx.windows[..n]).expect("burst served");
    assert_eq!(forecasts.len(), n);
    let stats = server.stats();
    assert_eq!(stats.requests, n as u64);
    assert!(
        stats.max_batch <= max_batch as u64,
        "policy violated: batch of {} fused (max_batch {max_batch})",
        stats.max_batch
    );
    assert!(
        stats.batches >= n.div_ceil(max_batch) as u64,
        "{n} requests cannot fit in {} batches of {max_batch}",
        stats.batches
    );
    // Order is preserved: each response equals its window's solo forecast.
    for (window, forecast) in fx.windows[..n].iter().zip(&forecasts) {
        let solo = server.predict(window).unwrap();
        assert_bitwise_eq(&solo.prediction, &forecast.prediction, "burst order");
    }
}

/// The core batching invariant, tested on the pure forward path: one
/// batched forward over B windows is bitwise identical to B forwards of
/// batch one (the tensor runtime never reorders reductions).
#[test]
fn batched_forward_is_bitwise_equal_to_single_forwards() {
    let fx = Fixture::new("bitwise", 3);
    let (model, template) = UrclPipeline::serving_parts(
        &fx.ds.network,
        &fx.ds.config,
        &TrainerConfig::default(),
    );
    let ckpt = fx.slots.load().unwrap();
    let snapshot = ModelSnapshot::from_checkpoint(&ckpt, &template, 1).unwrap();
    let batch = &fx.windows[..8];
    let fused = forward_batch(&model, &snapshot, batch, fx.ds.config.target_channel);
    assert_eq!(fused.len(), batch.len());
    for (i, window) in batch.iter().enumerate() {
        let solo = forward_batch(
            &model,
            &snapshot,
            std::slice::from_ref(window),
            fx.ds.config.target_channel,
        );
        assert_bitwise_eq(&fused[i], &solo[0], &format!("window {i}"));
    }
}

/// The same invariant end-to-end: a coalesced full batch through the
/// server equals per-request forwards. `max_batch == len` and a generous
/// `max_delay` force the burst into exactly one fused batch.
#[test]
fn server_coalesces_full_batch_bitwise_equal_to_singles() {
    let fx = Fixture::new("coalesce", 4);
    let n = 6;
    let (_registry, server) = fx.server(BatchPolicy {
        max_batch: n,
        max_delay: Duration::from_millis(500),
    });
    let fused = server.predict_many(&fx.windows[..n]).expect("burst");
    let stats = server.stats();
    assert_eq!(stats.max_batch, n as u64, "burst did not coalesce into one batch");
    for (i, window) in fx.windows[..n].iter().enumerate() {
        let solo = server.predict(window).unwrap();
        assert_bitwise_eq(
            &fused[i].prediction,
            &solo.prediction,
            &format!("window {i}"),
        );
    }
}

/// Hot-swapping while a drain is in flight: requests hammered from many
/// threads during repeated A->B->A swaps must every one complete, carry a
/// valid generation, and bitwise-match the reference forecast of the
/// snapshot generation that served them — never a torn mix of the two.
#[test]
fn swap_during_drain_serves_consistent_snapshots() {
    let fx_a = Fixture::new("swap-a", 5);
    let fx_b = Fixture::new("swap-b", 6); // same arch, different weights
    let (_registry, server) = fx_a.server(BatchPolicy {
        max_batch: 3,
        max_delay: Duration::from_millis(1),
    });

    // Reference forecasts per checkpoint, computed on the pure path.
    let (model, template) = UrclPipeline::serving_parts(
        &fx_a.ds.network,
        &fx_a.ds.config,
        &TrainerConfig::default(),
    );
    let snap_a =
        ModelSnapshot::from_checkpoint(&fx_a.slots.load().unwrap(), &template, 0).unwrap();
    let snap_b =
        ModelSnapshot::from_checkpoint(&fx_b.slots.load().unwrap(), &template, 0).unwrap();
    let target = fx_a.ds.config.target_channel;
    let windows: Vec<Tensor> = fx_a.windows[..4].to_vec();
    let ref_a = forward_batch(&model, &snap_a, &windows, target);
    let ref_b = forward_batch(&model, &snap_b, &windows, target);

    let workers: Vec<_> = (0..4)
        .map(|w| {
            let server = server.clone();
            let windows = windows.clone();
            let ref_a = ref_a.clone();
            let ref_b = ref_b.clone();
            std::thread::spawn(move || {
                for round in 0..25 {
                    let i = (w + round) % windows.len();
                    let forecast = server.predict(&windows[i]).expect("request survived swap");
                    let matches_a = forecast.prediction.data().iter().zip(ref_a[i].data())
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    let matches_b = forecast.prediction.data().iter().zip(ref_b[i].data())
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(
                        matches_a || matches_b,
                        "worker {w} round {round}: forecast matches neither snapshot"
                    );
                }
            })
        })
        .collect();

    // Main thread: keep swapping A -> B -> A while the drain runs. Each
    // save changes `latest.ckpt`, each reload_now publishes it.
    let mut swapped = 0u64;
    for round in 0..12 {
        let src = if round % 2 == 0 { &fx_b.slots } else { &fx_a.slots };
        let text = std::fs::read_to_string(src.latest_path()).unwrap();
        std::fs::write(fx_a.slots.latest_path(), text).unwrap();
        if server.reload_now().expect("reload") {
            swapped += 1;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for worker in workers {
        worker.join().expect("no worker panicked");
    }
    assert!(swapped >= 2, "test never actually swapped ({swapped})");
    assert_eq!(server.stats().swaps, swapped + 1, "initial load + live swaps");
}

/// An `Arc` snapshot captured before a swap (as each in-flight batch
/// does) keeps producing old-generation forecasts after the swap — the
/// in-flight-requests-complete-on-the-old-snapshot guarantee.
#[test]
fn captured_snapshot_survives_hot_swap() {
    let fx_a = Fixture::new("inflight-a", 7);
    let fx_b = Fixture::new("inflight-b", 8);
    let (_registry, server) = fx_a.server(BatchPolicy::default());
    let (model, _template) = UrclPipeline::serving_parts(
        &fx_a.ds.network,
        &fx_a.ds.config,
        &TrainerConfig::default(),
    );
    let target = fx_a.ds.config.target_channel;

    let captured = server.snapshot().expect("initial snapshot");
    let before = forward_batch(&model, &captured, &fx_a.windows[..1], target);

    // The trainer publishes new weights; the server swaps.
    let text = std::fs::read_to_string(fx_b.slots.latest_path()).unwrap();
    std::fs::write(fx_a.slots.latest_path(), text).unwrap();
    assert!(server.reload_now().expect("reload"));
    assert_ne!(Some(captured.generation()), server.generation());

    // The captured Arc still serves the old weights, bit for bit.
    let after = forward_batch(&model, &captured, &fx_a.windows[..1], target);
    assert_bitwise_eq(&before[0], &after[0], "in-flight snapshot");

    // New requests see the new snapshot (different weights, different
    // forecast).
    let fresh = server.predict(&fx_a.windows[0]).unwrap();
    assert_ne!(fresh.prediction, before[0], "swap visible to new requests");
}

/// Geometry and lifecycle errors are typed, not panics.
#[test]
fn bad_requests_and_empty_directories_are_typed_errors() {
    let fx = Fixture::new("errors", 9);
    let (_registry, server) = fx.server(BatchPolicy::default());

    let wrong = Tensor::zeros(&[1, 2, 3]);
    assert!(matches!(
        server.predict(&wrong),
        Err(ServeError::BadRequest(_))
    ));

    // A server over an empty directory has no snapshot: requests fail
    // with NoSnapshot until a checkpoint appears.
    let empty_path = std::env::temp_dir().join(format!(
        "urcl-serve-test-{}-empty",
        std::process::id()
    ));
    std::fs::remove_dir_all(&empty_path).ok();
    let (model, template) = UrclPipeline::serving_parts(
        &fx.ds.network,
        &fx.ds.config,
        &TrainerConfig::default(),
    );
    let empty_registry = Tenants::new();
    let empty = empty_registry
        .add(
            "empty",
            model,
            template,
            CheckpointDir::new(&empty_path).unwrap(),
            ServeConfig::default(),
        )
        .unwrap();
    assert!(!empty.has_snapshot());
    assert_eq!(empty.generation(), None);
    assert!(matches!(
        empty.predict(&fx.windows[0]),
        Err(ServeError::NoSnapshot)
    ));
    std::fs::remove_dir_all(&empty_path).ok();
}

/// A configuration the runtime cannot start with is a typed error from
/// `Tenants::add`, returned before anything is registered: the registry
/// stays empty and the same name is free for a valid `add`.
#[test]
fn zero_sized_configs_are_rejected_before_registration() {
    let fx = Fixture::new("zero-config", 10);
    let valid = ServeConfig {
        target_channel: fx.ds.config.target_channel,
        shards: 1,
        ..ServeConfig::default()
    };

    let add = |registry: &Tenants, config| {
        let (model, template) = UrclPipeline::serving_parts(
            &fx.ds.network,
            &fx.ds.config,
            &TrainerConfig::default(),
        );
        let source = CheckpointDir::new(&fx.dir_path).unwrap();
        registry.add("default", model, template, source, config)
    };
    let registry = Tenants::new();
    let zero_batch = BatchPolicy {
        max_batch: 0,
        ..BatchPolicy::default()
    };
    for (what, config) in [
        ("max_batch", ServeConfig { policy: zero_batch, ..valid }),
        ("shards", ServeConfig { shards: 0, ..valid }),
        ("queue_bound", ServeConfig { queue_bound: 0, ..valid }),
    ] {
        match add(&registry, config) {
            Err(ServeError::BadRequest(msg)) => {
                assert!(msg.contains(what), "{what}: message {msg:?}")
            }
            Err(e) => panic!("{what}: expected BadRequest, got {e}"),
            Ok(_) => panic!("{what}: zero-sized config was accepted"),
        }
        assert!(registry.is_empty(), "{what}: rejected add registered a tenant");
    }

    let client = add(&registry, valid).expect("valid add under the rejected name succeeds");
    assert_eq!(registry.names(), vec!["default".to_string()]);
    let forecast = client.predict(&fx.windows[0]).expect("served");
    assert_eq!(
        forecast.prediction.shape(),
        &[fx.ds.config.output_steps, fx.ds.config.num_nodes]
    );
}
