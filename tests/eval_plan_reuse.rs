//! The trainer evaluates every period through one forward plan: the
//! first period's evaluation compiles it (batch-polymorphic, so it also
//! serves the remainder chunk) and every later period replays it, since
//! plans read the parameters from the store at each replay.
//!
//! Lives in its own integration binary because it reads the
//! process-global trace recorder and pins the process-global plan switch
//! on.

use urcl::core::{ContinualTrainer, StSimSiam, TrainerConfig};
use urcl::models::{GraphWaveNet, GwnConfig};
use urcl::stdata::{ContinualSplit, DatasetConfig, SyntheticDataset};
use urcl::tensor::{set_plan, ParamStore, Rng};
use urcl::trace;

#[test]
fn multi_period_run_compiles_its_eval_plan_once() {
    let prev = set_plan(true);
    let dataset = SyntheticDataset::generate(DatasetConfig::metr_la().tiny());
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
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from_u64(5);
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
        window_stride: 16,
        ..TrainerConfig::default()
    });

    trace::reset();
    trace::enable();
    let report = trainer.run(
        &model,
        Some(&simsiam),
        &mut store,
        &dataset.network,
        &split,
        &dataset.config,
        normalizer.scale(dataset.config.target_channel),
    );
    trace::disable();
    set_plan(prev);

    let spans = trace::span_stats();
    let count = |path: &str| spans.get(path).map_or(0, |s| s.count);
    assert_eq!(report.sets.len(), 3);
    assert_eq!(count("period/eval"), 3, "one evaluation per period");
    assert_eq!(
        count("period/eval/plan_compile"),
        1,
        "evaluation recompiled its forward plan in a later period"
    );
}
