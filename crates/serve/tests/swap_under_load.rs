//! Per-tenant hot-swap under load: tenant A swaps checkpoints mid-burst
//! while tenant B is hammered in the same registry. In-flight batches
//! never tear (every response is bitwise one generation or the other,
//! never a mix), swapping A never perturbs B, torn-latest falls back per
//! tenant independently, and a hot-swap purges A's response cache.

use std::time::Duration;

use urcl_core::{CheckpointDir, TrainerConfig, UrclPipeline};
use urcl_serve::{
    forward_batch, BatchPolicy, CachePolicy, ModelSnapshot, ServeConfig, ServeError, TenantClient,
    Tenants,
};
use urcl_stdata::{DatasetConfig, SyntheticDataset};
use urcl_tensor::Tensor;

/// A dataset with two published weight generations (`seed` and
/// `alt_seed`) and solo-forward references for both.
struct SwapFx {
    ds: SyntheticDataset,
    dir: std::path::PathBuf,
    /// `latest.ckpt` bytes of each generation, replayed into `dir` to
    /// simulate the tenant's trainer publishing.
    gen_bytes: [String; 2],
    windows: Vec<Tensor>,
    refs: [Vec<Tensor>; 2],
}

impl SwapFx {
    fn new(tag: &str, cfg: DatasetConfig, seed: u64, alt_seed: u64) -> Self {
        let ds = SyntheticDataset::generate(cfg.tiny());
        let dir = std::env::temp_dir().join(format!(
            "urcl-swap-load-{}-{tag}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let slots = CheckpointDir::new(&dir).unwrap();
        let series = ds.continual_split(2).base.series.clone();
        let m = ds.config.input_steps;
        let windows: Vec<Tensor> = (0..6).map(|i| series.narrow(0, i * 4, m)).collect();
        let (model, template) =
            UrclPipeline::serving_parts(&ds.network, &ds.config, &TrainerConfig::default());

        let mut gen_bytes = Vec::new();
        let mut refs = Vec::new();
        for s in [seed, alt_seed] {
            let mut pipe = UrclPipeline::new(
                ds.network.clone(),
                ds.config.clone(),
                TrainerConfig::default(),
                s,
            );
            pipe.observe_period_statistics_only(&series);
            pipe.save_checkpoint(&slots, &format!("seed {s}")).unwrap();
            gen_bytes.push(std::fs::read_to_string(slots.latest_path()).unwrap());
            let snapshot =
                ModelSnapshot::from_checkpoint(&slots.load().unwrap(), &template, 1).unwrap();
            refs.push(forward_batch(
                &model,
                &snapshot,
                &windows,
                ds.config.target_channel,
            ));
        }
        // Leave generation 0 as the published latest.
        std::fs::write(slots.latest_path(), &gen_bytes[0]).unwrap();
        Self {
            ds,
            dir,
            gen_bytes: [gen_bytes.remove(0), gen_bytes.remove(0)],
            windows,
            refs: {
                let b = refs.remove(1);
                let a = refs.remove(0);
                [a, b]
            },
        }
    }

    fn publish(&self, generation: usize) {
        let slots = CheckpointDir::new(&self.dir).unwrap();
        std::fs::write(slots.latest_path(), &self.gen_bytes[generation]).unwrap();
    }

    fn add_to(&self, registry: &Tenants, name: &str, cache: bool) -> TenantClient {
        let (model, template) = UrclPipeline::serving_parts_dyn(
            &self.ds.network,
            &self.ds.config,
            &TrainerConfig::default(),
        );
        let client = registry
            .add(
                name,
                model,
                template,
                CheckpointDir::new(&self.dir).unwrap(),
                ServeConfig {
                    policy: BatchPolicy {
                        max_batch: 4,
                        max_delay: Duration::from_millis(1),
                    },
                    target_channel: self.ds.config.target_channel,
                    shards: 2,
                    cache: cache.then(CachePolicy::default),
                    ..ServeConfig::default()
                },
            )
            .expect("register tenant");
        assert!(client.has_snapshot());
        client
    }
}

impl Drop for SwapFx {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn matches_bitwise(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Truncate a checkpoint file mid-byte (trainer killed mid-publish).
fn tear(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).unwrap();
    std::fs::write(path, &text[..text.len() / 2]).unwrap();
}

/// Hammer tenants A and B from eight threads while A swaps between two
/// weight generations twelve times. Every A response must be bitwise one
/// of A's two generations (never torn), every B response bitwise B's
/// single generation (never perturbed by A's swaps).
#[test]
fn swapping_tenant_a_mid_burst_never_perturbs_tenant_b() {
    let fx_a = SwapFx::new("a", DatasetConfig::metr_la(), 11, 12);
    let fx_b = SwapFx::new("b", DatasetConfig::pems04(), 13, 14);
    let registry = Tenants::new();
    let a = fx_a.add_to(&registry, "tenant-a", false);
    let b = fx_b.add_to(&registry, "tenant-b", false);

    let mut handles = Vec::new();
    for w in 0..8 {
        let (a, b) = (a.clone(), b.clone());
        let (windows_a, refs_a0, refs_a1) =
            (fx_a.windows.clone(), fx_a.refs[0].clone(), fx_a.refs[1].clone());
        let (windows_b, refs_b) = (fx_b.windows.clone(), fx_b.refs[0].clone());
        handles.push(std::thread::spawn(move || {
            for round in 0..30 {
                let i = (w + round) % windows_a.len();
                let fa = a.predict(&windows_a[i]).expect("A served");
                assert!(
                    matches_bitwise(&fa.prediction, &refs_a0[i])
                        || matches_bitwise(&fa.prediction, &refs_a1[i]),
                    "worker {w} round {round}: tenant A forecast torn \
                     (matches neither generation)"
                );
                let j = (w + round) % windows_b.len();
                let fb = b.predict(&windows_b[j]).expect("B served");
                assert!(
                    matches_bitwise(&fb.prediction, &refs_b[j]),
                    "worker {w} round {round}: tenant B perturbed by A's swaps"
                );
            }
        }));
    }

    let mut swapped = 0u64;
    for round in 0..12 {
        fx_a.publish(1 - round % 2);
        if a.reload_now().expect("reload A") {
            swapped += 1;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for h in handles {
        h.join().expect("no worker panicked");
    }
    assert!(swapped >= 2, "load test never actually swapped ({swapped})");
    let stats_a = a.stats();
    let stats_b = b.stats();
    assert_eq!(stats_a.swaps, swapped + 1, "initial load + live swaps");
    assert_eq!(stats_b.swaps, 1, "B must never swap");
    assert_eq!(stats_b.reload_failures, 0);
}

/// Torn-latest falls back per tenant: tearing A's `latest.ckpt` sends A
/// to its `previous` slot while B (same registry) is untouched; tearing
/// both of A's slots leaves A serving its in-memory snapshot and B still
/// healthy.
#[test]
fn torn_latest_falls_back_per_tenant_independently() {
    let fx_a = SwapFx::new("torn-a", DatasetConfig::metr_la(), 21, 22);
    let fx_b = SwapFx::new("torn-b", DatasetConfig::pems08(), 23, 24);
    let registry = Tenants::new();
    let a = fx_a.add_to(&registry, "tenant-a", false);
    let b = fx_b.add_to(&registry, "tenant-b", false);
    let slots_a = CheckpointDir::new(&fx_a.dir).unwrap();

    // Rotate: generation 1 becomes latest, generation 0 previous...
    fx_a.publish(1);
    assert!(a.reload_now().unwrap());
    let ckpt_prev = std::fs::read_to_string(slots_a.latest_path()).unwrap();
    std::fs::write(slots_a.previous_path(), ckpt_prev).unwrap();
    // ...then the next publish tears mid-write.
    fx_a.publish(0);
    tear(&slots_a.latest_path());

    // A falls back to previous (generation-1 weights) — still a swap.
    assert!(a.reload_now().unwrap());
    let fa = a.predict(&fx_a.windows[0]).unwrap();
    assert!(
        matches_bitwise(&fa.prediction, &fx_a.refs[1][0]),
        "A must serve the fallback (previous) generation"
    );
    assert_eq!(a.stats().reload_failures, 0);

    // B is untouched by A's disk corruption.
    let fb = b.predict(&fx_b.windows[0]).unwrap();
    assert!(matches_bitwise(&fb.prediction, &fx_b.refs[0][0]));
    assert_eq!(b.stats().reload_failures, 0);

    // Both of A's slots torn: typed error, old snapshot keeps serving.
    tear(&slots_a.latest_path());
    tear(&slots_a.previous_path());
    match a.reload_now() {
        Err(ServeError::Reload(_)) => {}
        other => panic!("expected Reload error, got {other:?}"),
    }
    let fa = a.predict(&fx_a.windows[0]).unwrap();
    assert!(
        matches_bitwise(&fa.prediction, &fx_a.refs[1][0]),
        "A must keep serving its in-memory snapshot"
    );
    assert_eq!(a.stats().reload_failures, 1);
    let fb = b.predict(&fx_b.windows[0]).unwrap();
    assert!(matches_bitwise(&fb.prediction, &fx_b.refs[0][0]));
}

/// A hot-swap purges the swapped tenant's response cache: the same
/// window re-requested after the swap returns the *new* generation's
/// forecast (bitwise), never a stale cached one.
#[test]
fn hot_swap_purges_response_cache() {
    let fx = SwapFx::new("cache", DatasetConfig::pems_bay(), 31, 32);
    let registry = Tenants::new();
    let client = fx.add_to(&registry, "cached", true);

    // Prime the cache on generation 0.
    for w in &fx.windows {
        client.predict(w).unwrap();
    }
    let before = client.predict(&fx.windows[0]).unwrap();
    assert!(matches_bitwise(&before.prediction, &fx.refs[0][0]));
    assert!(
        client.stats().cache_hits > 0,
        "repeat request must hit the cache"
    );
    assert!(client.cached_len() > 0);

    fx.publish(1);
    assert!(client.reload_now().unwrap());

    // Same window, post-swap: must be the new generation, not the cache.
    let after = client.predict(&fx.windows[0]).unwrap();
    assert!(
        matches_bitwise(&after.prediction, &fx.refs[1][0]),
        "stale cached forecast served across a hot-swap"
    );
    assert_ne!(before.generation, after.generation);
}
