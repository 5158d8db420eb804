//! `train_stream`: paper-default URCL with GraphWaveNet through the
//! METR-LA analogue stream (30 % base set + 4 incremental sets), driven
//! by `ContinualTrainer::run_with_hook` on one tensor thread. No serving
//! layer runs. One protocol warms the process up untimed; the protocol
//! then repeats while another fits in the run, and every figure is the
//! median over the repeats.
//!
//! Times are process CPU time (see `cpuclock`) at the reference core
//! speed (see `reference`): training on one thread never waits, so on an
//! idle dedicated host CPU time is its wall time, and the scaling takes
//! out how fast the shared core happened to run. Raw CPU and wall times
//! are on the detail line.

use std::time::{Duration, Instant};

use urcl_core::trainer::evaluate;
use urcl_core::{
    ContinualTrainer, HookAction, RunOutcome, SetReport, StSimSiam, StepInfo, TrainHook,
    TrainerConfig,
};
use urcl_json::Value;
use urcl_models::{GraphWaveNet, GwnConfig};
use urcl_perfbench::cpuclock;
use urcl_perfbench::layers::{self, Phase};
use urcl_perfbench::reference;
use urcl_perfbench::report::Values;
use urcl_perfbench::stats;
use urcl_stdata::{ContinualSplit, DatasetConfig, SyntheticDataset};
use urcl_tensor::{ParamStore, Rng};

use crate::common::{self, Args, Outcome};

/// Everything one protocol run needs, built fresh per run.
struct Fixture {
    ds: SyntheticDataset,
    split: ContinualSplit,
    scale: f32,
    store: ParamStore,
    model: GraphWaveNet,
    simsiam: StSimSiam,
    config: TrainerConfig,
}

impl Fixture {
    fn new() -> Self {
        let ds = SyntheticDataset::generate(DatasetConfig::metr_la());
        let norm = ds.fit_normalizer();
        let raw = ds.continual_split(4);
        let split = ContinualSplit {
            base: raw.base.normalized(&norm),
            incremental: raw
                .incremental
                .iter()
                .map(|p| p.normalized(&norm))
                .collect(),
        };
        let config = common::urcl_config();
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(common::MODEL_SEED);
        let gwn = GwnConfig::small(
            ds.config.num_nodes,
            ds.config.num_channels(),
            ds.config.input_steps,
            ds.config.output_steps,
        );
        let latent = gwn.base.latent;
        let model = GraphWaveNet::new(&mut store, &mut rng, &ds.network, gwn);
        let simsiam = StSimSiam::new(&mut store, &mut rng, latent, latent, config.tau);
        Self {
            scale: norm.scale(ds.config.target_channel),
            ds,
            split,
            store,
            model,
            simsiam,
            config,
        }
    }
}

/// One timed interval: process CPU and wall seconds, and the CPU time at
/// the reference core speed (see `reference`).
#[derive(Clone, Copy, Default)]
struct Interval {
    cpu: f64,
    wall: f64,
    at_ref: f64,
}

impl std::ops::AddAssign for Interval {
    fn add_assign(&mut self, other: Self) {
        self.cpu += other.cpu;
        self.wall += other.wall;
        self.at_ref += other.at_ref;
    }
}

/// Times the trainer from outside: each step as the interval between
/// consecutive hook calls, evaluation as last step → `after_period`. The
/// reference kernel runs at every hook call, outside the intervals, so
/// each interval is scaled by the kernel runs at its two ends.
struct TimingHook {
    wall: Instant,
    cpu: Duration,
    /// The reference kernel's CPU seconds at the start of the interval.
    kernel_s: f64,
    kernel_runs: Vec<f64>,
    steps: Vec<Interval>,
    evals: Vec<Interval>,
    /// Train + evaluate, per period.
    periods: Vec<Interval>,
    period: Interval,
}

impl TimingHook {
    fn new() -> Self {
        let kernel_s = reference::kernel_s();
        Self {
            wall: Instant::now(),
            cpu: cpuclock::process_cpu(),
            kernel_s,
            kernel_runs: vec![kernel_s],
            steps: Vec::new(),
            evals: Vec::new(),
            periods: Vec::new(),
            period: Interval::default(),
        }
    }

    /// Ends the current interval, runs the kernel, and starts the next.
    fn close(&mut self) -> Interval {
        let cpu = (cpuclock::process_cpu() - self.cpu).as_secs_f64();
        let wall = self.wall.elapsed().as_secs_f64();
        let kernel_s = reference::kernel_s();
        let interval = Interval {
            cpu,
            wall,
            at_ref: reference::at_reference(cpu, self.kernel_s, kernel_s),
        };
        self.kernel_s = kernel_s;
        self.kernel_runs.push(kernel_s);
        self.period += interval;
        self.wall = Instant::now();
        self.cpu = cpuclock::process_cpu();
        interval
    }

    /// The sum of every interval: the protocol without the kernel runs.
    fn total(&self) -> Interval {
        let mut total = Interval::default();
        for &p in &self.periods {
            total += p;
        }
        total
    }
}

impl TrainHook for TimingHook {
    fn after_step(&mut self, _info: &StepInfo) -> HookAction {
        let step = self.close();
        self.steps.push(step);
        HookAction::Continue
    }

    fn after_period(&mut self, _period: usize, _report: &SetReport) -> HookAction {
        let eval = self.close();
        self.evals.push(eval);
        self.periods.push(std::mem::take(&mut self.period));
        HookAction::Continue
    }
}

/// One protocol run's readings.
struct Protocol {
    /// Wall seconds of the whole protocol, kernel runs included.
    wall_s: f64,
    hook: TimingHook,
    maes: Vec<f32>,
    incremental_mae: f32,
    engines_agree: bool,
}

fn run_protocol(mut fx: Fixture) -> Protocol {
    let mut trainer = ContinualTrainer::new(fx.config.clone());
    let mut hook = TimingHook::new();
    let t0 = Instant::now();
    let outcome = {
        let _sp = urcl_trace::span("bench_protocol");
        trainer.run_with_hook(
            &fx.model,
            Some(&fx.simsiam),
            &mut fx.store,
            &fx.ds.network,
            &fx.split,
            &fx.ds.config,
            fx.scale,
            &mut hook,
        )
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let RunOutcome::Completed(report) = outcome else {
        unreachable!("the timing hook never pauses a run")
    };
    Protocol {
        wall_s,
        maes: report.sets.iter().map(|s| s.mae).collect(),
        incremental_mae: report.incremental_mae(),
        engines_agree: engines_agree(&fx),
        hook,
    }
}

/// The trained model scores the last period's test windows identically
/// on the compiled-plan engine and on the tape interpreter.
fn engines_agree(fx: &Fixture) -> bool {
    let last = fx.split.incremental.last().expect("four incremental sets");
    let (_, _, test) = last.train_val_test(fx.config.train_ratio, fx.config.val_ratio);
    let windows = test.windows(&fx.ds.config);
    let (plan, _) = evaluate(&fx.model, &fx.store, &windows);
    let was = urcl_tensor::set_plan(false);
    let (interp, _) = evaluate(&fx.model, &fx.store, &windows);
    urcl_tensor::set_plan(was);
    plan.mae().to_bits() == interp.mae().to_bits() && plan.mae().is_finite()
}

pub fn run(args: &Args) -> Outcome {
    let start = Instant::now();
    let (setup, fx) = common::timed_setup(Fixture::new);
    // Warm-up: the first protocol of a process pays for first-touch
    // memory and the buffer pool's growth; users pay it once per process.
    let warm = run_protocol(Fixture::new());
    let phase = Phase::begin();
    let mut fresh = Some(fx);
    let left = args.seconds - start.elapsed().as_secs_f64();
    let runs = common::repeat_within(left, args.trace, || {
        let p = run_protocol(fresh.take().unwrap_or_else(Fixture::new));
        (p.wall_s, p)
    });
    let counters = phase.counters();
    let spans = urcl_trace::span_stats();

    // Output checks on every protocol, the warm-up's too: recorded
    // per-set MAE, identical bits on every protocol, and cross-engine
    // agreement.
    let mut attempted = 0;
    let mut failed = 0;
    let (mae_ok, mae_detail) = common::check_mae(&args.workload, &warm.maes);
    for r in std::iter::once(&warm).chain(&runs) {
        attempted += 2;
        failed += u64::from(!mae_ok || !common::same_bits(&r.maes, &warm.maes))
            + u64::from(!r.engines_agree);
    }

    // Each figure is the median over protocols of that protocol's value,
    // at the reference core speed; raw CPU and wall times go to the
    // detail line.
    let over_runs =
        |f: &dyn Fn(&Protocol) -> f64| stats::median(&runs.iter().map(f).collect::<Vec<_>>());
    let median_of = |ivs: &[Interval], f: fn(&Interval) -> f64| {
        stats::median(&ivs.iter().map(f).collect::<Vec<_>>())
    };
    let at_ref = |iv: &Interval| iv.at_ref;
    let cpu = |iv: &Interval| iv.cpu;
    let wall = |iv: &Interval| iv.wall;
    let update_s = over_runs(&|r| median_of(&r.hook.periods[1..], at_ref));
    let steps_sorted = stats::sorted(&runs[0].hook.steps.iter().map(at_ref).collect::<Vec<_>>());
    let p99 = stats::tail(&steps_sorted, 0.99);
    let all_steps = stats::sorted(
        &runs
            .iter()
            .flat_map(|r| r.hook.steps.iter().map(at_ref))
            .collect::<Vec<_>>(),
    );

    let mut e2e = Values::new();
    e2e.insert("setup_s", setup.at_ref_s);
    e2e.insert("work_s", over_runs(&|r| r.hook.total().at_ref));
    e2e.insert("update_s", update_s);
    e2e.insert(
        "p50_ms",
        over_runs(&|r| median_of(&r.hook.steps, at_ref)) * 1e3,
    );
    e2e.insert("mae", f64::from(warm.incremental_mae));
    e2e.insert("ok_ratio", (attempted - failed) as f64 / attempted as f64);

    // Per-layer readings come from the traced run's single protocol.
    let mut layer = common::zero_layers();
    layer.insert(
        "trainer.step_ms.p50",
        stats::quantile(&steps_sorted, 0.5) * 1e3,
    );
    layer.insert("trainer.step_ms.p99", p99.value * 1e3);
    layer.insert("trainer.eval_s", median_of(&runs[0].hook.evals, at_ref));
    layer.insert("trainer.steps", steps_sorted.len() as f64);
    layer.insert("trainer.period_update_s", update_s);
    common::training_layers(&mut layer, &spans, &counters);

    let kernel: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.hook.kernel_runs.iter().copied())
        .collect();
    let detail = Value::object()
        .with("setup", setup.detail())
        .with("warmup_wall_s", warm.wall_s)
        .with("protocols", runs.len())
        .with(
            "kernel_ms",
            Value::object()
                .with("reference", reference::REFERENCE_S * 1e3)
                .with("median", stats::median(&kernel) * 1e3)
                .with("runs", kernel.len()),
        )
        .with(
            "protocol_s",
            Value::Array(
                runs.iter()
                    .map(|r| {
                        let t = r.hook.total();
                        Value::object()
                            .with("at_ref", t.at_ref)
                            .with("cpu", t.cpu)
                            .with("wall", t.wall)
                    })
                    .collect(),
            ),
        )
        .with(
            "update_cpu_s",
            over_runs(&|r| median_of(&r.hook.periods[1..], cpu)),
        )
        .with(
            "update_wall_s",
            over_runs(&|r| median_of(&r.hook.periods[1..], wall)),
        )
        .with(
            "step_cpu_p50_ms",
            over_runs(&|r| median_of(&r.hook.steps, cpu)) * 1e3,
        )
        .with(
            "step_wall_p50_ms",
            over_runs(&|r| median_of(&r.hook.steps, wall)) * 1e3,
        )
        .with("step_p90_ms", stats::quantile(&all_steps, 0.9) * 1e3)
        .with("step_tail", common::tail_detail(&all_steps))
        .with("set_mae", urcl_json::f32_array(&warm.maes))
        .with("mae_check", mae_detail)
        .with(
            "engines_agree",
            std::iter::once(&warm).chain(&runs).all(|r| r.engines_agree),
        )
        .with("unattributed_share", layers::unattributed_share(&spans));
    Outcome {
        end_to_end: e2e,
        per_layer: layer,
        attempted,
        failed,
        detail,
    }
}
