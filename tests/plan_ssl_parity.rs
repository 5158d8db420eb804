//! Augmented-SSL plan parity: the paper-default training step (task MAE
//! + weighted GraphCL term over two augmentation draws) must produce
//! bitwise-identical results whether it re-records a tape every step
//! (interpreter) or replays ONE compiled batch-polymorphic plan whose
//! promoted input slots (view tensors, per-view graph supports,
//! contrastive masks) are rebound per draw.
//!
//! Two layers of coverage:
//!
//! 1. A full tiny URCL streaming run with augmentation ON, executed once
//!    per engine (`set_plan(true)` vs `set_plan(false)`): period reports
//!    and final parameters must agree bit for bit.
//! 2. A direct record-vs-replay sweep churning augmentation draws, batch
//!    sizes (poly replay) and architectures (two models alternating),
//!    asserting the loss parity at every point AND that the whole sweep
//!    costs exactly one plan compile per architecture.
//!
//! Lives in its own integration binary because the engine switch is
//! process-global.

use urcl::core::{
    Ablation, Augmentation, AugmentedView, ContinualTrainer, SslTerm, StSimSiam, StepGraph,
    TrainerConfig,
};
use urcl::graph::random_geometric;
use urcl::models::{GraphWaveNet, GwnConfig};
use urcl::stdata::{stack_samples, Batch, ContinualSplit, DatasetConfig, Sample, SyntheticDataset};
use urcl::tensor::{set_plan, thread_plan_compiles, ExecPlan, ParamStore, Rng, Tensor};

const SSL_WEIGHT: f32 = 0.05;
const K_DIFFUSION: usize = 2;
const NODES: usize = 12;
const STEPS: usize = 8;
const CHANNELS: usize = 2;

// ---------------------------------------------------------------------
// Layer 1: full streaming run, plan engine vs interpreter.
// ---------------------------------------------------------------------

struct RunResult {
    maes: Vec<u32>,
    losses: Vec<u32>,
    params: Vec<u32>,
}

/// One complete augmented tiny URCL run under the given engine; returns
/// every observable as raw bits.
fn full_run(plan_on: bool) -> RunResult {
    let prev = set_plan(plan_on);
    let mut cfg = DatasetConfig::metr_la().tiny();
    cfg.num_days = 3;
    let dataset = SyntheticDataset::generate(cfg);
    let normalizer = dataset.fit_normalizer();
    let raw = dataset.continual_split(2);
    let split = ContinualSplit {
        base: raw.base.normalized(&normalizer),
        incremental: raw
            .incremental
            .iter()
            .map(|p| p.normalized(&normalizer))
            .collect(),
    };
    let scale = normalizer.scale(dataset.config.target_channel);

    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(47);
    let mut gcfg = GwnConfig::small(
        dataset.config.num_nodes,
        dataset.config.num_channels(),
        dataset.config.input_steps,
        dataset.config.output_steps,
    );
    gcfg.layers = 2;
    let model = GraphWaveNet::new(&mut store, &mut rng, &dataset.network, gcfg);
    let simsiam = StSimSiam::new(&mut store, &mut rng, 32, 32, 0.5);
    let mut trainer = ContinualTrainer::new(TrainerConfig {
        epochs_base: 1,
        epochs_incremental: 1,
        window_stride: 6,
        buffer_capacity: 16,
        rmir_pool: 8,
        rmir_candidates: 4,
        seed: 47,
        ablation: Ablation {
            augmentation: true,
            ..Ablation::default()
        },
        ..TrainerConfig::default()
    });
    let report = trainer.run(
        &model,
        Some(&simsiam),
        &mut store,
        &dataset.network,
        &split,
        &dataset.config,
        scale,
    );
    set_plan(prev);

    let mut params = Vec::new();
    for id in store.ids() {
        params.extend(store.value(id).data().iter().map(|v| v.to_bits()));
    }
    RunResult {
        maes: report.sets.iter().map(|s| s.mae.to_bits()).collect(),
        losses: report
            .sets
            .iter()
            .flat_map(|s| s.loss_curve.iter().map(|v| v.to_bits()))
            .collect(),
        params,
    }
}

#[test]
fn augmented_run_is_bitwise_identical_across_engines() {
    let on = full_run(true);
    let off = full_run(false);
    assert_eq!(on.maes, off.maes, "period MAEs diverged across engines");
    assert_eq!(on.losses, off.losses, "loss curves diverged across engines");
    assert_eq!(
        on.params.len(),
        off.params.len(),
        "parameter counts diverged"
    );
    assert_eq!(on.params, off.params, "final parameters diverged across engines");
}

// ---------------------------------------------------------------------
// Layer 2: direct record-vs-replay sweep with draw/batch/arch churn.
// ---------------------------------------------------------------------

struct Arch {
    store: ParamStore,
    model: GraphWaveNet,
    simsiam: StSimSiam,
}

fn make_arch(net: &urcl::graph::SensorNetwork, layers: usize, seed: u64) -> Arch {
    let mut rng = Rng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let mut cfg = GwnConfig::small(NODES, CHANNELS, STEPS, 1);
    cfg.layers = layers;
    let latent = cfg.base.latent;
    let model = GraphWaveNet::new(&mut store, &mut rng, net, cfg);
    let simsiam = StSimSiam::new(&mut store, &mut rng, latent, latent, 0.5);
    Arch {
        store,
        model,
        simsiam,
    }
}

fn make_batch(rng: &mut Rng, b: usize) -> Batch {
    let samples: Vec<Sample> = (0..b)
        .map(|_| Sample {
            x: rng.uniform_tensor(&[STEPS, NODES, CHANNELS], 0.0, 1.0),
            y: rng.uniform_tensor(&[1, NODES], 0.0, 1.0),
        })
        .collect();
    stack_samples(&samples)
}

/// The augmented step graph exactly as the URCL trainer records it:
/// replay inputs `[x, y, x1, x2, eye, off_mask, view-1 supports…,
/// view-2 supports…]`.
fn ssl_graph<'a>(
    arch: &'a Arch,
    views: &'a (AugmentedView, AugmentedView),
    masks: &'a (Tensor, Tensor),
) -> StepGraph<'a> {
    StepGraph {
        backbone: &arch.model,
        ssl: Some(SslTerm {
            head: &arch.simsiam,
            weight: SSL_WEIGHT,
            views,
            masks,
        }),
        ewc: None,
    }
}

#[test]
fn one_plan_per_arch_serves_every_draw_and_batch_size() {
    let mut rng = Rng::seed_from_u64(53);
    let net = random_geometric(NODES, 0.4, &mut rng);
    let archs = [make_arch(&net, 1, 7), make_arch(&net, 2, 11)];

    // Batch sizes churn around the recorded size 4; SSL batches of 1 are
    // a structurally different graph with mono-shape plans of their own,
    // so the poly sweep starts at 2.
    let sizes = [4usize, 3, 2, 5, 4];
    let batches: Vec<Batch> = sizes.iter().map(|&b| make_batch(&mut rng, b)).collect();
    let draws: Vec<(AugmentedView, AugmentedView)> = batches
        .iter()
        .map(|batch| {
            let (a1, a2) = Augmentation::sample_two(&mut rng);
            (
                a1.apply(&batch.x, &net, K_DIFFUSION, &mut rng),
                a2.apply(&batch.x, &net, K_DIFFUSION, &mut rng),
            )
        })
        .collect();

    // Compile one batch-polymorphic plan per architecture from the first
    // (batch, draw) point.
    let compiles_before = thread_plan_compiles();
    let masks0 = StSimSiam::contrastive_masks(sizes[0]);
    let plans: Vec<ExecPlan> = archs
        .iter()
        .map(|arch| {
            let graph = ssl_graph(arch, &draws[0], &masks0);
            ExecPlan::compile_poly(sizes[0], |b| graph.record(&arch.store, &batches[0], b))
        })
        .collect();
    let compiled = thread_plan_compiles() - compiles_before;
    assert_eq!(compiled, 2, "expected one plan compile per architecture");
    for plan in &plans {
        assert!(
            plan.is_poly(),
            "augmented step failed to compile batch-polymorphically"
        );
    }

    // Arch-churn sweep: alternate architectures per (batch, draw) point.
    // Every point must match the interpreter bitwise, through one plan
    // per architecture and zero further compiles.
    for (i, (batch, views)) in batches.iter().zip(&draws).enumerate() {
        let masks = StSimSiam::contrastive_masks(batch.len());
        for (ai, (arch, plan)) in archs.iter().zip(&plans).enumerate() {
            let graph = ssl_graph(arch, views, &masks);
            let refs = graph.inputs(batch, plan.num_inputs());
            assert!(
                plan.accepts(&refs),
                "arch {ai} plan rejected batch size {} at point {i}",
                batch.len()
            );
            let (loss, _grads) = plan.run_training(&arch.store, &refs);
            let rec = graph.record(&arch.store, batch, batch.len());
            let reference = rec.tape.value_at(rec.root.expect("training graph")).item();
            assert_eq!(
                loss.item().to_bits(),
                reference.to_bits(),
                "arch {ai} point {i} (batch {}) replay diverged from interpreter",
                batch.len()
            );
        }
    }
    assert_eq!(
        thread_plan_compiles() - compiles_before,
        2,
        "draw/batch churn forced a recompile"
    );
}
