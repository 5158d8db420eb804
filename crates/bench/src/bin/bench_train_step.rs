//! End-to-end training-step throughput on the tiny GraphWaveNet pipeline:
//! forward, backward, gradient accumulation and an Adam update per step,
//! swept over {1, 4} threads × {scalar kernels / SIMD fast kernels /
//! SIMD + compiled plan} in one process.
//! Prints a table and writes `BENCH_train_step.json` at the workspace
//! root.
//!
//! Every cell rebuilds the model from the same seed and consumes the same
//! fixed batch sequence, so the final losses must be bitwise identical
//! across all cells — the bench asserts this, making it a cheap
//! determinism canary on top of `pool_determinism.rs`, an end-to-end
//! SIMD↔scalar parity check on top of `simd_parity.rs`, and an
//! interpreter↔plan parity check on top of `plan_parity.rs`. Every cell
//! also asserts a zero steady-state pool miss count (every buffer shape
//! the step needs is cached during warmup). The plan cells compile one
//! batch-polymorphic `ExecPlan` up front and replay it every step; the
//! plan gate requires ≥ 1.15× over the simd interpreter at both thread
//! counts. The same bar applies to the paper-default (SSL + STA on)
//! `ssl_duel` cells, where every augmentation draw rebinds to one
//! compiled plan's promoted input slots, and a `poly_batch_check` cycles
//! batch sizes through one plan asserting zero recompiles. The artifact carries the `urcl-bench-train-v5`
//! schema, re-gated offline by `validate_json`.
//!
//! Thread-scaling acceptance is host-aware and measured as a paired duel
//! (alternating 1-thread and 4-thread rounds, see [`thread_duel`]): on a
//! host with ≥ 4 physical cores the 4-thread SIMD interpreter must beat
//! the 1-thread one by ≥ 1.3×; on a smaller host real speedup is
//! physically impossible, so the bench instead asserts the 4-thread arm
//! does not fall off a cliff (≥ 0.85× of 1-thread; the dispatch-overhead
//! cliff this guards against was ~2×). The SIMD speedup gate (≥ 1.5× at
//! 4 threads over the scalar cell) applies everywhere.
//!
//! Flags/env: `--quick` shrinks the schedule for CI smoke runs; setting
//! `URCL_BENCH_PHASES` prints a per-step forward/backward/update phase
//! breakdown for profiling.

use std::time::Instant;
use urcl_core::{Augmentation, AugmentedView, SslTerm, StSimSiam, StepGraph};
use urcl_graph::random_geometric;
use urcl_json::Value;
use urcl_models::{record_mae, Backbone, GraphWaveNet, GwnConfig};
use urcl_stdata::{stack_samples, Batch, Sample};
use urcl_tensor::autodiff::{Session, Tape};
use urcl_tensor::{
    buffer_pool_stats, op_profile, plan_stats, reset_buffer_pool_stats, reset_op_profile,
    set_simd, set_threads, Adam, ExecPlan, Optimizer, ParamStore, Rng, Tensor,
};

const NODES: usize = 24;
const STEPS: usize = 12;
const CHANNELS: usize = 2;
const BATCH: usize = 8;
const SSL_WEIGHT: f32 = 0.05;
const K_DIFFUSION: usize = 2;

fn make_batch_of(rng: &mut Rng, b: usize) -> Batch {
    let samples: Vec<Sample> = (0..b)
        .map(|_| Sample {
            x: rng.uniform_tensor(&[STEPS, NODES, CHANNELS], 0.0, 1.0),
            y: rng.uniform_tensor(&[1, NODES], 0.0, 1.0),
        })
        .collect();
    stack_samples(&samples)
}

fn make_batch(rng: &mut Rng) -> Batch {
    make_batch_of(rng, BATCH)
}

/// One full optimisation step; returns the scalar loss.
fn train_step(model: &GraphWaveNet, store: &mut ParamStore, opt: &mut Adam, batch: &Batch) -> f32 {
    let phases = std::env::var("URCL_BENCH_PHASES").is_ok();
    let t0 = Instant::now();
    store.zero_grads();
    let tape = Tape::new();
    let mut sess = Session::new(&tape, store);
    let x = sess.input(batch.x.clone());
    let y = sess.input(batch.y.clone());
    let loss = model.forward(&mut sess, x).sub(y).abs().mean_all();
    let loss_val = tape.value(loss).item();
    let t1 = Instant::now();
    let grads = tape.backward(loss);
    let t2 = Instant::now();
    let binds = sess.into_bindings();
    store.accumulate_grads(&binds, &grads);
    opt.step(store);
    drop(grads);
    drop(tape);
    if phases {
        let t3 = Instant::now();
        println!(
            "  phases: forward {:.2} ms, backward {:.2} ms, update+drop {:.2} ms",
            (t1 - t0).as_secs_f64() * 1e3,
            (t2 - t1).as_secs_f64() * 1e3,
            (t3 - t2).as_secs_f64() * 1e3,
        );
    }
    loss_val
}

/// Compiles the task-only training step into a reusable
/// batch-polymorphic plan. Parameter values are read from the store at
/// replay time, so compiling before training is fine.
fn compile_plan(model: &GraphWaveNet, store: &ParamStore, batch: &Batch) -> ExecPlan {
    ExecPlan::compile_poly(batch.len(), |b| {
        record_mae(model, store, batch.x.at_batch(b), batch.y.at_batch(b))
    })
}

/// One full optimisation step replaying a compiled plan instead of
/// re-recording the tape; must produce bitwise-identical losses/params.
fn train_step_plan(plan: &ExecPlan, store: &mut ParamStore, opt: &mut Adam, batch: &Batch) -> f32 {
    store.zero_grads();
    let (loss, grads) = plan.run_training(store, &[&batch.x, &batch.y]);
    store.accumulate_grads(plan.bindings(), &grads);
    opt.step(store);
    loss.item()
}

struct Cell {
    threads: usize,
    simd: bool,
    plan: bool,
    steps_per_sec: f64,
    final_loss: f32,
    pool_misses: u64,
}

/// A fresh task model from the table's fixed seed, with its optimizer
/// and the 4-batch schedule every cell and duel arm replays.
fn seeded_model() -> (ParamStore, GraphWaveNet, Adam, Vec<Batch>) {
    let mut rng = Rng::seed_from_u64(23);
    let net = random_geometric(NODES, 0.3, &mut rng);
    let mut store = ParamStore::new();
    let cfg = GwnConfig::small(NODES, CHANNELS, STEPS, 1);
    let model = GraphWaveNet::new(&mut store, &mut rng, &net, cfg);
    let batches: Vec<Batch> = (0..4).map(|_| make_batch(&mut rng)).collect();
    (store, model, Adam::new(1e-3), batches)
}

/// Runs one (threads, simd, plan) cell: fresh model from a fixed seed,
/// `warmup` untimed steps, then `timed` measured steps over a replayed
/// batch schedule identical across cells.
fn run_cell(threads: usize, simd: bool, plan: bool, warmup: usize, timed: usize) -> Cell {
    set_threads(threads);
    set_simd(simd);

    let (mut store, model, mut opt, batches) = seeded_model();
    let exec_plan = plan.then(|| compile_plan(&model, &store, &batches[0]));

    let step = |store: &mut ParamStore, opt: &mut Adam, batch: &Batch| match &exec_plan {
        Some(p) => train_step_plan(p, store, opt, batch),
        None => train_step(&model, store, opt, batch),
    };

    let mut final_loss = 0.0f32;
    for i in 0..warmup {
        final_loss = step(&mut store, &mut opt, &batches[i % batches.len()]);
    }
    reset_buffer_pool_stats();
    reset_op_profile();
    // Best-of-rounds: the full schedule always runs (so the determinism
    // check below sees the same step count per cell), but the throughput
    // estimate takes the fastest round to suppress scheduler noise.
    let rounds = 4;
    let mut best_secs = f64::INFINITY;
    for round in 0..rounds {
        let t0 = Instant::now();
        for i in 0..timed {
            final_loss = step(
                &mut store,
                &mut opt,
                &batches[(warmup + round * timed + i) % batches.len()],
            );
        }
        best_secs = best_secs.min(t0.elapsed().as_secs_f64());
    }
    let secs = best_secs;
    if urcl_tensor::opprof::op_profile_enabled() {
        let steps = (rounds * timed) as u64;
        let mut rows = op_profile();
        rows.sort_by_key(|r| std::cmp::Reverse(r.fwd_nanos + r.bwd_nanos));
        println!("  per-op profile ({threads} threads, simd {simd}, plan {plan}), us/step:");
        println!("    {:<12} {:>7} {:>9} {:>7} {:>9}", "op", "fwd", "fwd us", "bwd", "bwd us");
        for r in rows.iter().filter(|r| r.fwd_calls + r.bwd_calls > 0) {
            println!(
                "    {:<12} {:>7} {:>9.1} {:>7} {:>9.1}",
                r.name,
                r.fwd_calls / steps,
                r.fwd_nanos as f64 / steps as f64 / 1e3,
                r.bwd_calls / steps,
                r.bwd_nanos as f64 / steps as f64 / 1e3,
            );
        }
    }
    let stats = buffer_pool_stats();
    let pool_misses = stats.misses;

    let steps_per_sec = timed as f64 / secs;
    println!(
        "{threads} threads, simd {:<3} plan {:<3}  {steps_per_sec:>7.2} steps/s  ({:>7.2} ms/step)  \
         pool: {} misses, {} hits/step, {:.1} MB recycled/step",
        if simd { "on" } else { "off" },
        if plan { "on" } else { "off" },
        1e3 * secs / timed as f64,
        pool_misses,
        stats.hits / (rounds * timed) as u64,
        stats.bytes_recycled as f64 / (rounds * timed) as f64 / 1e6,
    );
    Cell {
        threads,
        simd,
        plan,
        steps_per_sec,
        final_loss,
        pool_misses,
    }
}

/// Rounds per paired duel: enough that the median round ratio holds
/// still while single rounds swing on a shared 2-vCPU host.
const DUEL_ROUNDS: usize = 15;

/// Paired A/B measurement: alternates one round of `timed` steps of each
/// arm inside one time window (swapping which arm goes first every
/// round), so slow host-load drift hits both arms equally. Returns each
/// arm's best-round rate in steps/s (for the printed table) and the
/// median over rounds of the paired ratio `rate_b / rate_a`, which the
/// gates test: a best-of ratio takes each arm's luckiest round, and
/// those two rounds need not be neighbours. Each arm is called with the
/// index of its timed step. The sweep table's cells run minutes apart,
/// and on a busy shared host that drift can dominate the ratios the gates
/// test.
fn paired_rounds(
    timed: usize,
    mut a: impl FnMut(usize),
    mut b: impl FnMut(usize),
) -> (f64, f64, f64) {
    let mut secs = [[0.0f64; 2]; DUEL_ROUNDS];
    for (round, pair) in secs.iter_mut().enumerate() {
        for arm in [round % 2, 1 - round % 2] {
            let t0 = Instant::now();
            for i in 0..timed {
                if arm == 0 {
                    a(round * timed + i);
                } else {
                    b(round * timed + i);
                }
            }
            pair[arm] = t0.elapsed().as_secs_f64();
        }
    }
    let best = |arm: usize| secs.iter().map(|p| p[arm]).fold(f64::INFINITY, f64::min);
    let mut ratios: Vec<f64> = secs.iter().map(|p| p[0] / p[1]).collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[DUEL_ROUNDS / 2];
    (timed as f64 / best(0), timed as f64 / best(1), median)
}

/// Paired plan-vs-interpreter duel (simd on) at `threads`. Both arms are
/// freshly seeded with the table's seed, so their step streams are
/// identical. Returns `(rate_interp, rate_plan, median speedup)`.
fn plan_duel(threads: usize, warmup: usize, timed: usize) -> (f64, f64, f64) {
    set_threads(threads);
    set_simd(true);
    let (mut s0, m0, mut o0, b0) = seeded_model();
    let (mut s1, m1, mut o1, b1) = seeded_model();
    let plan = compile_plan(&m1, &s1, &b1[0]);
    let mut interp = |i: usize| {
        train_step(&m0, &mut s0, &mut o0, &b0[i % b0.len()]);
    };
    let mut replay = |i: usize| {
        train_step_plan(&plan, &mut s1, &mut o1, &b1[i % b1.len()]);
    };
    for i in 0..warmup {
        interp(i);
        replay(i);
    }
    paired_rounds(timed, |it| interp(warmup + it), |it| replay(warmup + it))
}

/// Paired 1-thread-vs-4-thread duel of the simd interpreter step: two
/// identically seeded models, each arm setting its thread count before
/// every step. Returns `(rate_1t, rate_4t, median 4t/1t ratio)`.
fn thread_duel(warmup: usize, timed: usize) -> (f64, f64, f64) {
    set_simd(true);
    let (mut s0, m0, mut o0, b0) = seeded_model();
    let (mut s1, m1, mut o1, b1) = seeded_model();
    let mut step_1t = |i: usize| {
        set_threads(1);
        train_step(&m0, &mut s0, &mut o0, &b0[i % b0.len()]);
    };
    let mut step_4t = |i: usize| {
        set_threads(4);
        train_step(&m1, &mut s1, &mut o1, &b1[i % b1.len()]);
    };
    for i in 0..warmup {
        step_1t(i);
        step_4t(i);
    }
    paired_rounds(timed, |it| step_1t(warmup + it), |it| step_4t(warmup + it))
}

/// The paper-default step graph (task MAE + weighted GraphCL term over
/// two augmented views), exactly as the URCL trainer records it.
fn ssl_graph<'a>(
    model: &'a GraphWaveNet,
    simsiam: &'a StSimSiam,
    views: &'a (AugmentedView, AugmentedView),
    masks: &'a (Tensor, Tensor),
) -> StepGraph<'a> {
    StepGraph {
        backbone: model,
        ssl: Some(SslTerm {
            head: simsiam,
            weight: SSL_WEIGHT,
            views,
            masks,
        }),
        ewc: None,
    }
}

/// Interpreter arm of the SSL duel: re-records the augmented step every
/// iteration, evaluates the loss and backpropagates. No optimizer update,
/// so parameters stay fixed and per-iteration losses are bitwise
/// comparable across arms.
fn interp_ssl_step(graph: &StepGraph<'_>, store: &mut ParamStore, batch: &Batch) -> f32 {
    store.zero_grads();
    let rec = graph.record(store, batch, batch.len());
    let loss_val = rec.tape.value_at(rec.root.expect("training graph")).item();
    let grads = rec.backward();
    store.accumulate_grads(&rec.bindings, &grads);
    loss_val
}

/// Plan arm: rebinds the current batch, views, masks and supports to the
/// compiled plan's promoted input slots and replays.
fn plan_ssl_step(plan: &ExecPlan, store: &mut ParamStore, refs: &[&Tensor]) -> f32 {
    store.zero_grads();
    let (loss, grads) = plan.run_training(store, refs);
    store.accumulate_grads(plan.bindings(), &grads);
    loss.item()
}

/// Paper-default duel: the full augmented-SSL training step (SSL + STA
/// on) measured as paired interpreter-vs-plan rounds, exactly like
/// [`plan_duel`] but over the graph the URCL trainer actually runs with
/// its default config. Both arms consume the same pre-drawn augmentation
/// views, and the plan arm rebinds each draw's supports and masks to the
/// promoted input slots of ONE compiled plan — the tentpole claim. Every
/// draw position is first checked for bitwise loss identity between the
/// arms (parameters are never updated, so losses are directly
/// comparable). Returns `(rate_interp, rate_plan, median speedup)`.
fn ssl_duel(threads: usize, timed: usize) -> (f64, f64, f64) {
    set_threads(threads);
    set_simd(true);
    let mut net_rng = Rng::seed_from_u64(23);
    let net = random_geometric(NODES, 0.3, &mut net_rng);
    let mk = || {
        let mut rng = Rng::seed_from_u64(29);
        let mut store = ParamStore::new();
        let cfg = GwnConfig::small(NODES, CHANNELS, STEPS, 1);
        let latent = cfg.base.latent;
        let model = GraphWaveNet::new(&mut store, &mut rng, &net, cfg);
        let simsiam = StSimSiam::new(&mut store, &mut rng, latent, latent, 0.5);
        let batches: Vec<Batch> = (0..4).map(|_| make_batch(&mut rng)).collect();
        (store, model, simsiam, batches)
    };
    let (mut s0, m0, sim0, b0) = mk();
    let (mut s1, m1, sim1, b1) = mk();
    // Shared augmentation schedule: 8 draws cycling over the 4 batches
    // (draw i pairs with batch i % 4), identical for both arms.
    let mut aug_rng = Rng::seed_from_u64(101);
    let draws: Vec<(AugmentedView, AugmentedView)> = (0..8)
        .map(|i| {
            let (a1, a2) = Augmentation::sample_two(&mut aug_rng);
            let x = &b0[i % b0.len()].x;
            (
                a1.apply(x, &net, K_DIFFUSION, &mut aug_rng),
                a2.apply(x, &net, K_DIFFUSION, &mut aug_rng),
            )
        })
        .collect();

    // Compile once, batch-polymorphically, from the first draw; every
    // later draw replays through the same plan via slot rebinding.
    let masks = StSimSiam::contrastive_masks(BATCH);
    let plan = ExecPlan::compile_poly(BATCH, |b| {
        ssl_graph(&m1, &sim1, &draws[0], &masks).record(&s1, &b1[0], b)
    });

    // Bitwise parity across every draw position (doubles as warmup).
    for (i, views) in draws.iter().enumerate() {
        let bi = i % b0.len();
        let li = interp_ssl_step(&ssl_graph(&m0, &sim0, views, &masks), &mut s0, &b0[bi]);
        let refs = ssl_graph(&m1, &sim1, views, &masks).inputs(&b1[bi], plan.num_inputs());
        let lp = plan_ssl_step(&plan, &mut s1, &refs);
        assert_eq!(
            li.to_bits(),
            lp.to_bits(),
            "ssl duel loss diverged from interpreter at draw {i}"
        );
    }

    paired_rounds(
        timed,
        |it| {
            let graph = ssl_graph(&m0, &sim0, &draws[it % draws.len()], &masks);
            interp_ssl_step(&graph, &mut s0, &b0[it % b0.len()]);
        },
        |it| {
            let graph = ssl_graph(&m1, &sim1, &draws[it % draws.len()], &masks);
            let refs = graph.inputs(&b1[it % b1.len()], plan.num_inputs());
            plan_ssl_step(&plan, &mut s1, &refs);
        },
    )
}

/// Cycles batch sizes through ONE batch-polymorphic plan: the compile
/// count must stay flat (no per-shape recompiles) and every size must
/// reproduce the interpreter's loss bitwise. Returns the number of sizes
/// exercised, recorded in the JSON artifact.
fn poly_batch_check() -> u64 {
    set_threads(1);
    set_simd(true);
    let mut rng = Rng::seed_from_u64(23);
    let net = random_geometric(NODES, 0.3, &mut rng);
    let mut store = ParamStore::new();
    let cfg = GwnConfig::small(NODES, CHANNELS, STEPS, 1);
    let model = GraphWaveNet::new(&mut store, &mut rng, &net, cfg);
    let seed_batch = make_batch(&mut rng);
    let plan = compile_plan(&model, &store, &seed_batch);
    assert!(
        plan.is_poly(),
        "task-step plan failed to compile batch-polymorphically"
    );
    let compiles_before = plan_stats().compiles;
    let sizes = [BATCH, 5, 3, 1, 6, BATCH];
    for &b in &sizes {
        let batch = make_batch_of(&mut rng, b);
        assert!(
            plan.accepts(&[&batch.x, &batch.y]),
            "poly plan rejected batch size {b}"
        );
        store.zero_grads();
        let (loss, _) = plan.run_training(&store, &[&batch.x, &batch.y]);
        let rec = record_mae(&model, &store, batch.x.clone(), batch.y.clone());
        assert_eq!(
            loss.item().to_bits(),
            rec.tape
                .value_at(rec.root.expect("training graph"))
                .item()
                .to_bits(),
            "poly replay diverged from interpreter at batch {b}"
        );
    }
    let extra = plan_stats().compiles - compiles_before;
    assert_eq!(extra, 0, "batch cycling triggered {extra} recompiles");
    sizes.len() as u64
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (warmup, timed) = if quick { (2, 4) } else { (3, 16) };

    println!("train-step throughput (tiny GraphWaveNet, batch {BATCH}, {timed} timed steps)");
    println!(
        "host: {} hardware threads, detected ISA {:?}",
        urcl_tensor::host_parallelism(),
        urcl_tensor::detected_isa(),
    );
    let prev_threads = set_threads(1);
    let prev_simd = set_simd(false);
    let cells: Vec<Cell> = [
        (1usize, false, false),
        (1, true, false),
        (1, true, true),
        (4, false, false),
        (4, true, false),
        (4, true, true),
    ]
    .into_iter()
    .map(|(t, s, pl)| run_cell(t, s, pl, warmup, timed))
    .collect();
    let (duel_interp_1t, duel_plan_1t, plan_speedup_1t) = plan_duel(1, warmup, timed);
    let (duel_interp_4t, duel_plan_4t, plan_speedup_4t) = plan_duel(4, warmup, timed);
    let (ssl_interp_1t, ssl_plan_1t, ssl_speedup_1t) = ssl_duel(1, timed);
    let (ssl_interp_4t, ssl_plan_4t, ssl_speedup_4t) = ssl_duel(4, timed);
    let (scaling_1t, scaling_4t, thread_scaling) = thread_duel(warmup, timed);
    let poly_sizes_checked = poly_batch_check();
    set_threads(prev_threads);
    set_simd(prev_simd);

    // All cells ran the same seeded schedule: numerics must agree — this
    // pins the SIMD fast path AND the compiled plan bitwise to the scalar
    // tape-interpreter baseline through a full train step, not just
    // per-kernel.
    for c in &cells[1..] {
        assert_eq!(
            c.final_loss.to_bits(),
            cells[0].final_loss.to_bits(),
            "cell ({} threads, simd={}, plan={}) diverged from reference loss",
            c.threads,
            c.simd,
            c.plan,
        );
    }
    // After warmup the pool has cached every buffer shape the step needs,
    // so the timed rounds must run allocation-free.
    for c in &cells {
        assert_eq!(
            c.pool_misses, 0,
            "steady-state pool miss at {} threads, simd={}, plan={}",
            c.threads, c.simd, c.plan
        );
    }

    let rate = |threads: usize, simd: bool| {
        cells
            .iter()
            .find(|c| c.threads == threads && c.simd == simd && !c.plan)
            .map(|c| c.steps_per_sec)
            .unwrap()
    };
    // Every gate is evaluated and printed before a failure aborts the
    // run, so one run reports each failing gate with its value.
    let mut failed: Vec<String> = Vec::new();
    let mut gate = |ok: bool, msg: String| {
        if !ok {
            failed.push(msg);
        }
    };
    let simd_speedup_1t = rate(1, true) / rate(1, false);
    let simd_speedup_4t = rate(4, true) / rate(4, false);
    println!(
        "simd speedup over scalar: {simd_speedup_1t:.2}x at 1 thread, \
         {simd_speedup_4t:.2}x at 4 threads (required: 1.5x at 4 threads)"
    );
    gate(
        simd_speedup_4t >= 1.5,
        format!("SIMD fast kernels must deliver >= 1.5x at 4 threads, got {simd_speedup_4t:.2}x"),
    );
    // Plan gate: replaying the compiled plan must beat re-recording the
    // tape (simd on) at both thread counts, measured as the median ratio
    // of a paired duel (see `paired_rounds`) so host-load drift between
    // the table's cells cannot fake or mask the speedup.
    println!(
        "plan duel (paired rounds, best round): 1t interp {duel_interp_1t:.2} vs plan \
         {duel_plan_1t:.2}, 4t interp {duel_interp_4t:.2} vs plan {duel_plan_4t:.2} steps/s"
    );
    println!(
        "plan speedup over simd interpreter (median round): {plan_speedup_1t:.2}x at 1 thread, \
         {plan_speedup_4t:.2}x at 4 threads (required: 1.15x at both)"
    );
    gate(
        plan_speedup_1t >= 1.15,
        format!("compiled plan must deliver >= 1.15x at 1 thread, got {plan_speedup_1t:.2}x"),
    );
    gate(
        plan_speedup_4t >= 1.15,
        format!("compiled plan must deliver >= 1.15x at 4 threads, got {plan_speedup_4t:.2}x"),
    );
    // Paper-default plan gate: the same ≥ 1.15× bar over the full
    // augmented-SSL step, where every draw replays through one compiled
    // plan via promoted input slots (supports + contrastive masks).
    println!(
        "ssl duel (paper default, paired rounds, best round): 1t interp {ssl_interp_1t:.2} vs \
         plan {ssl_plan_1t:.2}, 4t interp {ssl_interp_4t:.2} vs plan {ssl_plan_4t:.2} steps/s"
    );
    println!(
        "ssl plan speedup over interpreter (median round): {ssl_speedup_1t:.2}x at 1 thread, \
         {ssl_speedup_4t:.2}x at 4 threads (required: 1.15x at both)"
    );
    gate(
        ssl_speedup_1t >= 1.15,
        format!("augmented-SSL plan must deliver >= 1.15x at 1 thread, got {ssl_speedup_1t:.2}x"),
    );
    gate(
        ssl_speedup_4t >= 1.15,
        format!("augmented-SSL plan must deliver >= 1.15x at 4 threads, got {ssl_speedup_4t:.2}x"),
    );
    println!(
        "poly batch check: one plan served {poly_sizes_checked} batch sizes, zero recompiles"
    );
    // Thread-scaling gate, host-aware (see module docs): the 4-thread
    // curve must rise on real multi-core hardware and must at least stay
    // flat (no dispatch-overhead cliff) when the host cannot provide
    // parallelism. Measured as a paired duel (see `thread_duel`).
    let host = urcl_tensor::host_parallelism();
    let scaling_required = if host >= 4 { 1.3 } else { 0.85 };
    println!(
        "thread duel (paired rounds, best round, simd on): 1t {scaling_1t:.2} vs 4t \
         {scaling_4t:.2} steps/s"
    );
    println!(
        "thread scaling (4t/1t median round, simd on): {thread_scaling:.2}x \
         (host has {host} core(s); required: >= {scaling_required}x)"
    );
    gate(
        thread_scaling >= scaling_required,
        format!(
            "4-thread arm must reach >= {scaling_required}x of 1-thread on a {host}-core host, \
             got {thread_scaling:.2}x"
        ),
    );
    assert!(failed.is_empty(), "bench gates failed:\n  {}", failed.join("\n  "));

    let doc = Value::object()
        .with("schema", "urcl-bench-train-v5")
        .with("benchmark", "train_step")
        .with("model", "graph_wavenet_small")
        .with("batch", BATCH)
        .with("timed_steps", timed)
        .with("host_threads", host)
        .with("simd_isa", urcl_tensor::detected_isa().code() as f64)
        .with(
            "acceptance",
            Value::object()
                .with("metric", "steps/sec with simd fast kernels vs scalar, 4 threads")
                .with("simd_speedup_1t", simd_speedup_1t)
                .with("simd_speedup_4t", simd_speedup_4t)
                .with("simd_required_4t", 1.5)
                .with("plan_speedup_1t", plan_speedup_1t)
                .with("plan_speedup_4t", plan_speedup_4t)
                .with("plan_required", 1.15)
                .with(
                    "plan_duel",
                    Value::object()
                        .with("interp_steps_per_sec_1t", duel_interp_1t)
                        .with("plan_steps_per_sec_1t", duel_plan_1t)
                        .with("interp_steps_per_sec_4t", duel_interp_4t)
                        .with("plan_steps_per_sec_4t", duel_plan_4t),
                )
                .with("ssl_plan_speedup_1t", ssl_speedup_1t)
                .with("ssl_plan_speedup_4t", ssl_speedup_4t)
                .with(
                    "ssl_duel",
                    Value::object()
                        .with("interp_steps_per_sec_1t", ssl_interp_1t)
                        .with("plan_steps_per_sec_1t", ssl_plan_1t)
                        .with("interp_steps_per_sec_4t", ssl_interp_4t)
                        .with("plan_steps_per_sec_4t", ssl_plan_4t),
                )
                // The asserts above already aborted the run if any of
                // these failed; recorded so validate_json can re-gate the
                // artifact offline.
                .with("bitwise_identical_cells", true)
                .with("ssl_bitwise_identical", true)
                .with("poly_batch_sizes_checked", poly_sizes_checked as f64)
                .with("poly_recompiles", 0.0)
                .with("thread_scaling_4t_over_1t", thread_scaling)
                .with(
                    "thread_duel",
                    Value::object()
                        .with("steps_per_sec_1t", scaling_1t)
                        .with("steps_per_sec_4t", scaling_4t),
                )
                .with("thread_scaling_required", scaling_required),
        )
        .with(
            "cells",
            Value::Array(
                cells
                    .iter()
                    .map(|c| {
                        Value::object()
                            .with("threads", c.threads)
                            .with("simd", c.simd)
                            .with("plan", c.plan)
                            .with("steps_per_sec", c.steps_per_sec)
                            .with("ms_per_step", 1e3 / c.steps_per_sec)
                            .with("steady_state_pool_misses", c.pool_misses as f64)
                    })
                    .collect(),
            ),
        );
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_train_step.json");
    std::fs::write(&path, doc.to_string_pretty()).expect("write BENCH_train_step.json");
    println!("[results -> {}]", path.display());
}
