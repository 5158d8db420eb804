//! Multi-tenant stress: hundreds of concurrent clients hammering three
//! tenants at once. The contract — every request gets a response or a
//! typed shed error (none lost, none deadlocked), and every successful
//! response is bitwise equal to a solo `forward_batch` on the same
//! snapshot — plus deterministic admission-control shedding.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use urcl_core::{CheckpointDir, TrainerConfig, UrclPipeline};
use urcl_serve::{
    forward_batch, BatchPolicy, ModelSnapshot, ServeConfig, ServeError, Tenants,
};
use urcl_stdata::{DatasetConfig, SyntheticDataset};
use urcl_tensor::Tensor;

/// One tenant's dataset, published checkpoint, request windows and
/// solo-forward reference predictions.
struct TenantFx {
    name: &'static str,
    ds: SyntheticDataset,
    dir: std::path::PathBuf,
    windows: Vec<Tensor>,
    refs: Vec<Tensor>,
}

impl TenantFx {
    fn new(name: &'static str, cfg: DatasetConfig, seed: u64) -> Self {
        let ds = SyntheticDataset::generate(cfg.tiny());
        let dir = std::env::temp_dir().join(format!(
            "urcl-shard-stress-{}-{name}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let slots = CheckpointDir::new(&dir).unwrap();
        let mut pipe = UrclPipeline::new(
            ds.network.clone(),
            ds.config.clone(),
            TrainerConfig::default(),
            seed,
        );
        let series = ds.continual_split(2).base.series.clone();
        pipe.observe_period_statistics_only(&series);
        pipe.save_checkpoint(&slots, name).unwrap();

        let m = ds.config.input_steps;
        let windows: Vec<Tensor> = (0..8).map(|i| series.narrow(0, i * 3, m)).collect();
        // Solo references on the pure forward path, same snapshot bytes.
        let (model, template) =
            UrclPipeline::serving_parts(&ds.network, &ds.config, &TrainerConfig::default());
        let snapshot =
            ModelSnapshot::from_checkpoint(&slots.load().unwrap(), &template, 1).unwrap();
        let refs = forward_batch(&model, &snapshot, &windows, ds.config.target_channel);
        Self {
            name,
            ds,
            dir,
            windows,
            refs,
        }
    }

    fn config(&self, shards: usize) -> ServeConfig {
        ServeConfig {
            policy: BatchPolicy {
                max_batch: 8,
                max_delay: Duration::from_millis(1),
            },
            target_channel: self.ds.config.target_channel,
            reload_interval: None,
            shards,
            queue_bound: 1024,
            ..ServeConfig::default()
        }
    }
}

impl Drop for TenantFx {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn add_tenant(registry: &Tenants, fx: &TenantFx, config: ServeConfig) {
    let (model, template) = UrclPipeline::serving_parts_dyn(
        &fx.ds.network,
        &fx.ds.config,
        &TrainerConfig::default(),
    );
    let client = registry
        .add(
            fx.name,
            model,
            template,
            CheckpointDir::new(&fx.dir).unwrap(),
            config,
        )
        .expect("register tenant");
    assert!(client.has_snapshot(), "{}: checkpoint must load", fx.name);
}

fn assert_bitwise_eq(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
    }
}

/// 300 clients (100 per tenant) across three tenants with different
/// geometries. Every request must terminate — a response or a typed
/// error, nothing lost or deadlocked — and every response must be
/// bitwise equal to the owning tenant's solo forward of that window.
#[test]
fn hundreds_of_clients_across_three_tenants() {
    let tenants = [
        TenantFx::new("metr-la", DatasetConfig::metr_la(), 1),
        TenantFx::new("pems-bay", DatasetConfig::pems_bay(), 2),
        TenantFx::new("pems04", DatasetConfig::pems04(), 3),
    ];
    let registry = Arc::new(Tenants::new());
    for fx in &tenants {
        add_tenant(&registry, fx, fx.config(2));
    }

    const CLIENTS: usize = 100;
    const REQS: usize = 10;
    let completed = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for fx in &tenants {
        let client = registry.client(fx.name).unwrap();
        for c in 0..CLIENTS {
            let client = client.clone();
            let windows = fx.windows.clone();
            let refs = fx.refs.clone();
            let name = fx.name;
            let completed = Arc::clone(&completed);
            handles.push(std::thread::spawn(move || {
                for r in 0..REQS {
                    let i = (c + r) % windows.len();
                    let pending = client.submit(windows[i].clone()).expect("admitted");
                    let forecast = pending
                        .wait_timeout(Duration::from_secs(60))
                        .unwrap_or_else(|| panic!("{name} client {c} req {r}: stranded"))
                        .expect("served");
                    assert_bitwise_eq(
                        &forecast.prediction,
                        &refs[i],
                        &format!("{name} client {c} req {r}"),
                    );
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
    }
    for h in handles {
        h.join().expect("no client panicked");
    }
    // Conservation: every submitted request was answered exactly once.
    let expected = (tenants.len() * CLIENTS * REQS) as u64;
    assert_eq!(completed.load(Ordering::Relaxed), expected);
    for fx in &tenants {
        let stats = registry.client(fx.name).unwrap().stats();
        assert_eq!(stats.requests, (CLIENTS * REQS) as u64, "{}", fx.name);
        assert_eq!(stats.shed, 0, "{}: generous bound must not shed", fx.name);
        assert!(stats.max_batch <= 8, "{}: policy violated", fx.name);
    }
    let agg = registry.aggregate_stats();
    assert_eq!(agg.requests, expected);
}

/// Admission control is deterministic and typed: one shard coalescing a
/// large batch behind a long `max_delay` with a tiny queue bound must
/// shed the overflow of a fast burst as `ServeError::Shed` carrying the
/// tenant's name — and still answer everything it admitted.
#[test]
fn flood_beyond_queue_bound_sheds_typed_errors() {
    let fx = TenantFx::new("shed", DatasetConfig::metr_la(), 4);
    let registry = Tenants::new();
    add_tenant(
        &registry,
        &fx,
        ServeConfig {
            policy: BatchPolicy {
                max_batch: 8,
                // The worker holds its batch open this long (the queue
                // can never reach max_batch), freezing the drain while
                // the burst floods in.
                max_delay: Duration::from_millis(300),
            },
            target_channel: fx.ds.config.target_channel,
            shards: 1,
            queue_bound: 4,
            ..ServeConfig::default()
        },
    );
    let client = registry.client("shed").unwrap();
    let mut admitted = Vec::new();
    let mut shed = 0usize;
    for i in 0..50 {
        match client.submit(fx.windows[i % fx.windows.len()].clone()) {
            Ok(pending) => admitted.push((i, pending)),
            Err(ServeError::Shed { tenant, depth }) => {
                assert_eq!(tenant, "shed");
                assert!(depth > 0 && depth <= 4, "shed depth {depth} out of range");
                shed += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(shed > 0, "flood must overflow a bound of 4");
    assert!(!admitted.is_empty(), "some requests must be admitted");
    assert_eq!(admitted.len() + shed, 50, "conservation");
    for (i, pending) in admitted {
        let forecast = pending
            .wait_timeout(Duration::from_secs(60))
            .unwrap_or_else(|| panic!("admitted request {i} stranded"))
            .expect("served");
        assert_bitwise_eq(
            &forecast.prediction,
            &fx.refs[i % fx.refs.len()],
            &format!("admitted request {i}"),
        );
    }
    let stats = client.stats();
    assert_eq!(stats.shed, shed as u64);
    // Admission bound held: no shard queue ever exceeded it.
    for depth in client.peak_queue_depths() {
        assert!(depth <= 4, "peak depth {depth} exceeded bound 4");
    }
}
