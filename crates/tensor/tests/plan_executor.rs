//! `PlanExecutor`, the one seam every caller runs a recorded graph
//! through: a bounded find-or-compile plan cache in front of the tape
//! interpreter. One batch-polymorphic compile must serve every batch
//! size, a graph with another input signature must miss (and evict past
//! the cap, reported through the cache gauges), and with plans switched
//! off the same recording must run on the interpreter with identical
//! bits and no compile.
//!
//! Lives in its own integration binary because it flips the
//! process-global plan switch and reads the process-global gauges.

use urcl_tensor::autodiff::{Session, Tape};
use urcl_tensor::{
    plan_stats, set_plan, thread_plan_compiles, ParamId, ParamStore, PlanExecutor, Recording, Rng,
    Tensor,
};

/// `mean |tanh(x·w) − y|` with inputs `[x, y]`, or with `train` off the
/// forward graph `tanh(x·w)` with input `[x]`.
fn record(store: &ParamStore, w: ParamId, x: Tensor, y: Tensor, train: bool) -> Recording {
    let tape = Tape::new();
    let mut sess = Session::new(&tape, store);
    let xv = sess.input(x);
    let pred = xv.matmul(sess.param(w)).tanh();
    let (root, inputs, outputs) = if train {
        let yv = sess.input(y);
        let loss = pred.sub(yv).abs().mean_all();
        (Some(loss.index()), vec![xv.index(), yv.index()], vec![])
    } else {
        (None, vec![xv.index()], vec![pred.index()])
    };
    let bindings = sess.into_bindings();
    Recording {
        tape,
        root,
        inputs,
        outputs,
        bindings,
    }
}

/// Loss and gradient bits of one training run at each batch size.
fn train_bits(
    exec: &PlanExecutor,
    store: &ParamStore,
    w: ParamId,
    data: &[(Tensor, Tensor)],
) -> Vec<u32> {
    let mut bits = Vec::new();
    for (x, y) in data {
        let step = exec.train(
            store,
            x.shape()[0],
            |_| vec![x, y],
            |b| record(store, w, x.at_batch(b), y.at_batch(b), true),
        );
        bits.push(step.loss.to_bits());
        let (_, node) = step.bindings[0];
        bits.extend(
            step.grads
                .by_index(node)
                .unwrap()
                .data()
                .iter()
                .map(|v| v.to_bits()),
        );
    }
    bits
}

#[test]
fn executor_caches_evicts_and_runs_the_interpreter_oracle_bitwise() {
    let prev = set_plan(true);
    let mut rng = Rng::seed_from_u64(0xE7EC);
    let mut store = ParamStore::new();
    let w = store.add("w", rng.uniform_tensor(&[3, 4], -1.0, 1.0));
    let data: Vec<(Tensor, Tensor)> = [2usize, 5, 1, 3]
        .iter()
        .map(|&b| {
            (
                rng.uniform_tensor(&[b, 3], -1.0, 1.0),
                rng.uniform_tensor(&[b, 4], -1.0, 1.0),
            )
        })
        .collect();

    // One poly compile serves every batch size.
    let exec = PlanExecutor::new(1, |_| ()).with_cache_gauges();
    let compiles = thread_plan_compiles();
    let evictions = plan_stats().cache_evictions;
    let plan_bits = train_bits(&exec, &store, w, &data);
    assert_eq!(
        thread_plan_compiles() - compiles,
        1,
        "batch churn recompiled"
    );
    assert_eq!(plan_stats().cache_entries, 1);

    // The forward graph's single input is rejected by the training plan:
    // a miss, a compile, and at cap 1 an eviction.
    let x = &data[0].0;
    let fwd = exec.forward(&store, &[x], |b| {
        record(&store, w, x.at_batch(b), Tensor::zeros(&[0]), false)
    });
    assert_eq!(thread_plan_compiles() - compiles, 2);
    assert_eq!(exec.len(), 1);
    assert_eq!(plan_stats().cache_entries, 1);
    assert_eq!(plan_stats().cache_evictions - evictions, 1);
    exec.clear();
    assert!(exec.is_empty());
    assert_eq!(plan_stats().cache_entries, 0);

    // Plans off: the same recordings run on the interpreter, bit for bit,
    // without compiling.
    set_plan(false);
    let interp_bits = train_bits(&exec, &store, w, &data);
    let interp_fwd = exec.forward(&store, &[x], |b| {
        record(&store, w, x.at_batch(b), Tensor::zeros(&[0]), false)
    });
    set_plan(prev);
    assert_eq!(
        thread_plan_compiles() - compiles,
        2,
        "the interpreter compiled"
    );
    assert!(exec.is_empty());
    assert_eq!(plan_bits, interp_bits, "training diverged across engines");
    let to_bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        to_bits(&fwd[0]),
        to_bits(&interp_fwd[0]),
        "forward diverged across engines"
    );
}
