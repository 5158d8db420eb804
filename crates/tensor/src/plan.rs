//! Compiled execution plans: record one autodiff tape for a model,
//! compile it once, then replay it every step without re-recording the
//! graph. Plans can be **batch-polymorphic** — compiled against a
//! symbolic batch dimension so one plan serves every replay-grown batch
//! size — and accept **dynamic inputs beyond parameters** (graph
//! supports, contrastive masks) so per-step augmentation draws replay
//! through the same plan instead of forcing an interpreter fallback.
//!
//! ## Why
//!
//! The tape interpreter ([`Tape::backward`]) rebuilds the whole graph per
//! training step: every parameter is cloned onto the tape, every
//! intermediate is materialized, and gradients are computed even for
//! edges that end in constants (data tensors, graph supports, masks) and
//! are then thrown away. The model architecture is static across steps,
//! so all of that work can be decided once at compile time:
//!
//! * **Dead-gradient elimination** — the compiler computes which nodes
//!   can *usefully* receive a gradient (a path to a trainable leaf) and
//!   which are *reached* by the backward walk; edges into constants are
//!   simply never evaluated. This skips entire GEMMs (e.g. the gradient
//!   of `support @ x` into the constant support matrix).
//! * **Buffer lifetimes known up front** — each intermediate's last use
//!   is precomputed; values are dropped (recycled into the buffer pool)
//!   the moment their final consumer has run, both in the forward replay
//!   and mid-backward.
//! * **Move elision** — `reshape`/`detach` of a dying intermediate steal
//!   its buffer instead of copying; the final identity-propagated
//!   backward edge of an `add`/`sub` moves the gradient instead of
//!   cloning it.
//! * **Fused op runs** — chains of unary elementwise ops whose
//!   intermediates nobody else needs execute as one pass over the data
//!   with a precomputed parallel decision, instead of one kernel +
//!   buffer per op.
//! * **By-reference sources** — parameters are read straight from the
//!   [`ParamStore`] and recorded constants from the plan's captured set;
//!   nothing is cloned onto a tape per step.
//!
//! ## A scheduler, not a second set of rules
//!
//! The plan holds no per-op arithmetic of its own. Every forward runs
//! `Op::eval` (fused runs apply [`Unary::apply`] per stage), every
//! gradient runs `Op::backward` — the same rule the interpreter runs —
//! and the values kept alive for the backward pass are exactly those
//! `Op::grad_reads` lists. What the plan adds is scheduling: which
//! nodes and edges run, in which order, and when each buffer dies.
//!
//! ## Bitwise parity contract
//!
//! Replaying a plan is **bitwise identical** to re-recording and
//! interpreting the tape, on every observable: forward outputs, the
//! loss, gradients of trainable leaves, and post-step parameters. All
//! eliminated work is provably unobservable (gradients into constants
//! are discarded by the interpreter too; moved buffers carry the same
//! bits; fused elementwise stages round to `f32` after every stage,
//! exactly like materializing each intermediate; per-slot gradient
//! accumulation order is preserved). `tests/plan_parity.rs` and the
//! `bench_train_step` loss assertion pin this, the same contract
//! discipline the SIMD (`URCL_SIMD`) seam uses.
//!
//! ## One seam, and the oracle switch
//!
//! Callers write one recording function `batch -> `[`Recording`] per
//! graph and run it through a [`PlanExecutor`], which finds or compiles a
//! batch-polymorphic plan ([`ExecPlan::compile_poly`]) and replays it.
//! `URCL_PLAN=0` (or [`set_plan`]`(false)`) selects the oracle instead:
//! every executor then runs the same recording on the tape interpreter,
//! the bitwise reference the plan engine is pinned against. Mono-shape
//! [`ExecPlan::compile`] remains for gradcheck and the parity suites.

use crate::autodiff::{
    conv1d_backward_dw, conv1d_backward_dw_with_cols, conv1d_dw_cols, kind_index, GradCtx,
    Gradients, Op, Tape, Unary,
};
use crate::parallel::{par_fill, PAR_MIN_ELEMS};
use crate::params::{ParamId, ParamStore};
use crate::pool;
use crate::shape::numel;
use crate::tensor::Tensor;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------- toggle

/// Plan state: 0 = unset (read env on first use), 1 = on, 2 = off.
static PLAN: AtomicUsize = AtomicUsize::new(0);

fn plan_from_env() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("URCL_PLAN") {
        Ok(v) if v.trim() == "0" || v.trim().eq_ignore_ascii_case("off") => 2,
        _ => 1,
    })
}

/// Whether compiled-plan execution is currently enabled. When false,
/// every [`PlanExecutor`] (and gradcheck) runs the tape interpreter.
#[inline]
pub fn plan_enabled() -> bool {
    match PLAN.load(Ordering::Relaxed) {
        0 => {
            let v = plan_from_env();
            PLAN.store(v, Ordering::Relaxed);
            v == 1
        }
        v => v == 1,
    }
}

/// Turns plan execution on or off at runtime, returning the previous
/// setting: `false` selects the interpreter oracle. Intended for benches
/// and parity tests; normal runs use the `URCL_PLAN` environment
/// variable.
pub fn set_plan(on: bool) -> bool {
    let prev = plan_enabled();
    PLAN.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    prev
}

// -------------------------------------------------------------- counters

static COMPILES: AtomicU64 = AtomicU64::new(0);
static REPLAYS: AtomicU64 = AtomicU64::new(0);
static FUSED_STAGES: AtomicU64 = AtomicU64::new(0);
static DEAD_EDGES: AtomicU64 = AtomicU64::new(0);
static BUFFER_MOVES: AtomicU64 = AtomicU64::new(0);
static VALUES_DROPPED: AtomicU64 = AtomicU64::new(0);
static CACHE_ENTRIES: AtomicU64 = AtomicU64::new(0);
static CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Cumulative plan-execution statistics since process start (or the last
/// [`reset_plan_stats`]), exported by `urcl-trace` as the `plan` object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Tapes compiled into plans.
    pub compiles: u64,
    /// Plan replays (forward-only and training).
    pub replays: u64,
    /// Unary elementwise stages folded into a preceding op's fused run,
    /// summed over replays (each fused stage is one intermediate buffer
    /// that was never materialized).
    pub fused_stages: u64,
    /// Backward edges skipped by dead-gradient elimination, summed over
    /// replays (gradients the interpreter computes and throws away).
    pub dead_edges_skipped: u64,
    /// Buffers moved instead of copied (reshape/detach of a dying
    /// value), summed over replays.
    pub buffer_moves: u64,
    /// Intermediate values dropped at their precomputed last use (and
    /// recycled into the buffer pool), summed over replays.
    pub values_dropped: u64,
    /// Current number of plans held by the trainer's bounded step-plan
    /// executor (a gauge, updated on insert/evict/clear).
    pub cache_entries: u64,
    /// Plans evicted from the trainer's step-plan executor since reset.
    pub cache_evictions: u64,
}

/// Reads the cumulative plan counters.
pub fn plan_stats() -> PlanStats {
    PlanStats {
        compiles: COMPILES.load(Ordering::Relaxed),
        replays: REPLAYS.load(Ordering::Relaxed),
        fused_stages: FUSED_STAGES.load(Ordering::Relaxed),
        dead_edges_skipped: DEAD_EDGES.load(Ordering::Relaxed),
        buffer_moves: BUFFER_MOVES.load(Ordering::Relaxed),
        values_dropped: VALUES_DROPPED.load(Ordering::Relaxed),
        cache_entries: CACHE_ENTRIES.load(Ordering::Relaxed),
        cache_evictions: CACHE_EVICTIONS.load(Ordering::Relaxed),
    }
}

thread_local! {
    static THREAD_COMPILES: Cell<u64> = const { Cell::new(0) };
}

/// Plans compiled by the calling thread since it started. Unlike
/// [`plan_stats`]`().compiles` it cannot move under concurrent compiles
/// on other threads, so tests can assert exact compile deltas while the
/// rest of the suite runs in parallel.
pub fn thread_plan_compiles() -> u64 {
    THREAD_COMPILES.with(Cell::get)
}

/// Zeroes the cumulative plan counters.
pub fn reset_plan_stats() {
    COMPILES.store(0, Ordering::Relaxed);
    REPLAYS.store(0, Ordering::Relaxed);
    FUSED_STAGES.store(0, Ordering::Relaxed);
    DEAD_EDGES.store(0, Ordering::Relaxed);
    BUFFER_MOVES.store(0, Ordering::Relaxed);
    VALUES_DROPPED.store(0, Ordering::Relaxed);
    CACHE_ENTRIES.store(0, Ordering::Relaxed);
    CACHE_EVICTIONS.store(0, Ordering::Relaxed);
}

/// Records the current size of the gauge-reporting [`PlanExecutor`] (the
/// latest call wins).
fn note_plan_cache_entries(n: u64) {
    CACHE_ENTRIES.store(n, Ordering::Relaxed);
}

/// Counts one eviction from the gauge-reporting [`PlanExecutor`].
fn note_plan_cache_eviction() {
    CACHE_EVICTIONS.fetch_add(1, Ordering::Relaxed);
}

// ------------------------------------------------------------------ spec

/// Describes how a recorded [`Tape`] maps onto a reusable plan: which
/// nodes are substituted per replay, which are trainable parameters, and
/// what the plan must produce.
pub struct PlanSpec<'a> {
    /// Scalar loss node for training plans; `None` compiles a
    /// forward-only plan (no gradient bookkeeping, aggressive fusion).
    pub root: Option<usize>,
    /// Tape indices of per-replay inputs (recorded as `Constant` data or
    /// probe `Leaf` nodes). [`ExecPlan::run_training`] /
    /// [`ExecPlan::run_forward`] substitute fresh same-shape tensors for
    /// these, positionally.
    pub inputs: &'a [usize],
    /// Tape indices whose forward values [`ExecPlan::run_forward`]
    /// returns, in order.
    pub outputs: &'a [usize],
    /// `(ParamId, node index)` pairs from
    /// [`Session::into_bindings`](crate::autodiff::Session::into_bindings):
    /// these leaves read the *current* value from the [`ParamStore`]
    /// passed at replay time.
    pub bindings: &'a [(ParamId, usize)],
}

/// One recorded graph plus everything a plan compile needs from it — the
/// owned counterpart of [`PlanSpec`]. A caller writes one recording
/// function `batch -> Recording` and hands it to
/// [`ExecPlan::compile_poly`] or a [`PlanExecutor`]; the interpreter runs
/// the very same recording, which is what keeps both engines bitwise
/// identical.
pub struct Recording {
    /// The recorded tape.
    pub tape: Tape,
    /// Scalar loss node of a training graph; `None` for forward-only.
    pub root: Option<usize>,
    /// Per-replay input nodes, in replay order.
    pub inputs: Vec<usize>,
    /// Nodes whose values a forward run returns, in order.
    pub outputs: Vec<usize>,
    /// Parameter bindings from
    /// [`Session::into_bindings`](crate::autodiff::Session::into_bindings).
    pub bindings: Vec<(ParamId, usize)>,
}

impl Recording {
    /// The tape interpreter's backward pass from `root`: per-node
    /// gradients, to feed [`ParamStore::accumulate_grads`] with
    /// `bindings`. Panics on a forward-only recording.
    pub fn backward(&self) -> Gradients {
        let root = self.root.expect("backward of a recording without a root");
        self.tape.backward(self.tape.var(root))
    }

    fn spec(&self) -> PlanSpec<'_> {
        PlanSpec {
            root: self.root,
            inputs: &self.inputs,
            outputs: &self.outputs,
            bindings: &self.bindings,
        }
    }
}

/// Second recording for a batch-polymorphic compile: the identical graph
/// recorded at `batch0 + 1` (dummy data values are fine — only shapes are
/// read), next to the primary tape recorded at `batch0`. The compiler
/// checks the recordings are op-for-op identical and derives, for every
/// node dimension, the affine form `k + c·b` in the symbolic batch `b`
/// fitting both recordings. Two adjacent batch sizes pin an affine form
/// exactly, so every compile-time shape decision checked against both
/// recordings holds for all `b`. If any check fails (structure diverges,
/// a dimension is not affine in the batch, or a *captured* constant turns
/// out batch-dependent) the plan silently degrades to a mono-shape plan
/// for `batch0` — correct, just not shared across batch sizes.
struct PolySpec<'a> {
    tape: &'a Tape,
    batch0: usize,
}

/// Where a node's forward value comes from at replay time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Computed by executing the node's op.
    Computed,
    /// The k-th tensor passed to `run_*` by the caller.
    Input(usize),
    /// The k-th bound parameter, read from the store by reference.
    Param(usize),
    /// The k-th captured constant, recorded once at compile time
    /// (supports, masks, EWC anchors, eye matrices).
    Captured(usize),
}

/// Same-shape binary ops with a direct-loop fast path.
#[derive(Debug, Clone, Copy)]
enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
}

/// Per-node execution strategy decided at compile time.
#[derive(Debug, Clone)]
enum NodeExec {
    /// Never executed: a source node, a fused-away intermediate, or dead
    /// forward code no output depends on.
    Skip,
    /// Fused unary elementwise run ending at this node: apply `stages`
    /// ([`Unary::apply`] each, rounding to `f32` per stage exactly like
    /// materializing every intermediate) to the value of `src` in a
    /// single pass.
    Run {
        src: usize,
        stages: Vec<Unary>,
        par: bool,
    },
    /// Same-shape binary elementwise op, direct-loop.
    Bin { kind: BinKind, a: usize, b: usize, par: bool },
    /// `reshape` stealing its dying input's buffer (zero-copy).
    MoveReshape(usize),
    /// `detach` stealing its dying input's buffer (zero-copy).
    MoveDetach(usize),
    /// Channel-bias add fused into a share-group conv's GEMM scatter: the
    /// conv at `conv` never materializes its own buffer; this node writes
    /// `conv_sum + bias[c]` directly, which is bitwise exactly what the
    /// separate `[1, C, 1]` broadcast add would produce (same per-element
    /// pairing, no reassociation).
    ConvBias { conv: usize, bias: usize },
    /// Everything else: [`Op::eval`], the forward the tape records with.
    General,
}

// ------------------------------------------------------------------ plan

/// A compiled, reusable execution plan for one recorded tape. See the
/// module docs for what compilation precomputes. Plans are immutable and
/// `Send + Sync`, so a serving snapshot can share one across shard
/// threads behind an `Arc`.
pub struct ExecPlan {
    ops: Vec<Op>,
    /// Shapes of the primary recording (batch size `base_batch` for a
    /// poly plan; the only valid shapes for a mono plan).
    shapes: Vec<Vec<usize>>,
    /// Per-dimension affine forms `k + c·b` in the symbolic batch `b`;
    /// `None` for mono-shape plans.
    forms: Option<Vec<Vec<(usize, usize)>>>,
    /// Batch size the primary recording was made at (0 for mono plans).
    base_batch: usize,
    /// Materialized shape sets for batch sizes other than `base_batch`,
    /// built on first use and shared across replays and threads.
    scaled: Mutex<Vec<(usize, Arc<Vec<Vec<usize>>>)>>,
    source: Vec<Source>,
    captured: Vec<Tensor>,
    bindings: Vec<(ParamId, usize)>,
    input_nodes: Vec<usize>,
    outputs: Vec<usize>,
    root: Option<usize>,
    exec: Vec<NodeExec>,
    useful: Vec<bool>,
    /// Forward values to drop right after computing node `i`
    /// (`drop_after[i]`): each listed node's last consumer is `i` and its
    /// value is not needed by the backward pass.
    drop_after: Vec<Vec<usize>>,
    /// Reached non-leaf nodes in descending order — the backward
    /// schedule (every other node is skipped without a grads check).
    bwd_order: Vec<usize>,
    /// Panel-sharing group id for `Conv1d` nodes whose (input, geometry)
    /// pair is shared with a sibling conv (a gated TCN's filter/gate
    /// pair): the im2col panels both lowerings build depend only on the
    /// input and geometry, so group members build each panel once per
    /// replay and reuse it.
    conv_group: Vec<Option<u32>>,
    /// Group whose shared forward panel dies after node `i` runs
    /// (`i` is the group's last forward member).
    conv_release: Vec<Option<u32>>,
    /// Per-replay telemetry increments, counted once at compile time.
    fused_stages: u64,
    dead_edges: u64,
    static_moves: u64,
    static_drops: u64,
}

/// The shape set one replay executes against: the compile-time shapes
/// (mono plans, or a poly plan at its recorded batch), or a materialized
/// per-batch set shared through the plan's scaled-shape cache.
enum ReplayShapes<'a> {
    Base(&'a [Vec<usize>]),
    Scaled(Arc<Vec<Vec<usize>>>),
}

impl std::ops::Deref for ReplayShapes<'_> {
    type Target = [Vec<usize>];
    fn deref(&self) -> &[Vec<usize>] {
        match self {
            ReplayShapes::Base(s) => s,
            ReplayShapes::Scaled(s) => s,
        }
    }
}

impl ExecPlan {
    /// Compiles a recorded tape into a reusable mono-shape plan: replays
    /// must match the recorded input shapes exactly.
    ///
    /// Panics if the spec is inconsistent with the tape: input/binding
    /// indices must name `Leaf`/`Constant` nodes, a training root must be
    /// scalar, and indices must be in range.
    pub fn compile(tape: &Tape, spec: &PlanSpec<'_>) -> ExecPlan {
        Self::compile_with(tape, spec, None)
    }

    /// Compiles a batch-polymorphic plan: `record` is called at batch
    /// `b0` and again at `b0 + 1`, and the compiler abstracts the batch
    /// dimension from the pair, so one plan replays at every batch size.
    /// The `b0` recording supplies every captured constant, so it must
    /// run over real data; the `b0 + 1` one only lends its shapes (zero
    /// proxies, e.g. [`Tensor::at_batch`], are fine). Degrades to a
    /// mono-shape plan for `b0` when the graph is not batch-affine (see
    /// [`ExecPlan::is_poly`]).
    pub fn compile_poly(b0: usize, mut record: impl FnMut(usize) -> Recording) -> ExecPlan {
        let primary = record(b0);
        let second = record(b0 + 1);
        let poly = PolySpec {
            tape: &second.tape,
            batch0: b0,
        };
        Self::compile_with(&primary.tape, &primary.spec(), Some(poly))
    }

    fn compile_with(tape: &Tape, spec: &PlanSpec<'_>, poly: Option<PolySpec<'_>>) -> ExecPlan {
        let nodes = tape.nodes.borrow();
        let n = match spec
            .root
            .into_iter()
            .chain(spec.outputs.iter().copied())
            .max()
        {
            Some(hi) => {
                assert!(hi < nodes.len(), "plan root/output index out of range");
                hi + 1
            }
            None => nodes.len(),
        };
        if let Some(r) = spec.root {
            assert_eq!(
                nodes[r].value.len(),
                1,
                "training plan root must be scalar, got shape {:?}",
                nodes[r].value.shape()
            );
        }

        let ops: Vec<Op> = nodes[..n].iter().map(|nd| nd.op.clone()).collect();
        let shapes: Vec<Vec<usize>> = nodes[..n]
            .iter()
            .map(|nd| nd.value.shape().to_vec())
            .collect();

        // --- Batch-polymorphic second recording (see [`PolySpec`]):
        // check the two recordings agree op-for-op, then fit the
        // per-dimension affine forms. `None` keeps the plan mono-shape.
        let batch0 = poly.as_ref().map_or(0, |p| p.batch0);
        let mut poly = poly.and_then(|p| poly_forms(&ops, &shapes, &p));

        // --- Sources: where does each node's value come from at replay?
        let mut source = vec![Source::Computed; n];
        let mut captured = Vec::new();
        for (slot, &idx) in spec.inputs.iter().enumerate() {
            assert!(idx < n, "plan input index {idx} out of range");
            assert!(
                matches!(ops[idx], Op::Leaf | Op::Constant),
                "plan input {idx} must be a Leaf or Constant node"
            );
            source[idx] = Source::Input(slot);
        }
        for (k, &(_, idx)) in spec.bindings.iter().enumerate() {
            assert!(idx < n, "plan binding index {idx} out of range");
            assert!(
                matches!(ops[idx], Op::Leaf),
                "plan binding {idx} must be a Leaf node"
            );
            assert!(
                matches!(source[idx], Source::Computed),
                "plan binding {idx} is also listed as an input"
            );
            source[idx] = Source::Param(k);
        }
        for i in 0..n {
            if matches!(ops[i], Op::Leaf | Op::Constant)
                && matches!(source[i], Source::Computed)
            {
                source[i] = Source::Captured(captured.len());
                captured.push(nodes[i].value.clone());
            }
        }
        drop(nodes);

        // A captured constant is recorded once and reused at every batch
        // size, so its shape must be batch-independent (equal in both
        // recordings ⇔ affine coefficient 0). A batch-dependent constant
        // the caller did not promote to an input (e.g. a contrastive mask
        // in a graph compiled without slot promotion) degrades the plan
        // to mono-shape rather than replaying with a stale value.
        if let Some((shapes1, _)) = &poly {
            let stale_capture = (0..n)
                .any(|i| matches!(source[i], Source::Captured(_)) && shapes1[i] != shapes[i]);
            if stale_capture {
                poly = None;
            }
        }
        let poly_shapes = poly.as_ref().map(|(s1, _)| s1.as_slice());

        // --- useful[i]: a gradient flowing into node i can reach a
        // trainable leaf, so the backward pass must produce it.
        let mut scratch = Vec::with_capacity(4);
        let mut useful = vec![false; n];
        for i in 0..n {
            useful[i] = match &ops[i] {
                Op::Leaf => true,
                Op::Constant | Op::Detach(_) => false,
                op => {
                    scratch.clear();
                    op.inputs(&mut scratch);
                    scratch.iter().any(|&a| useful[a])
                }
            };
        }

        // --- reached[i]: the backward walk from the root produces a
        // gradient for node i. Constants and detach cut propagation.
        let mut reached = vec![false; n];
        if let Some(root) = spec.root {
            reached[root] = true;
            for i in (0..n).rev() {
                if !reached[i] || matches!(ops[i], Op::Detach(_)) {
                    continue;
                }
                scratch.clear();
                ops[i].inputs(&mut scratch);
                for &a in &scratch {
                    if useful[a] {
                        reached[a] = true;
                    }
                }
            }
        }

        // --- needed_fwd[i]: the forward value is (transitively) required
        // to produce the root or an output. Anything else is dead forward
        // code and is skipped entirely.
        let mut needed_fwd = vec![false; n];
        if let Some(root) = spec.root {
            needed_fwd[root] = true;
        }
        for &o in spec.outputs {
            assert!(o < n, "plan output index out of range");
            needed_fwd[o] = true;
        }
        for i in (0..n).rev() {
            if !needed_fwd[i] {
                continue;
            }
            scratch.clear();
            ops[i].inputs(&mut scratch);
            for &a in &scratch {
                needed_fwd[a] = true;
            }
        }

        // --- keep_value[i]: the forward value survives past its last
        // forward consumer because a backward rule reads it
        // (`Op::grad_reads`).
        let mut keep_value = vec![false; n];
        if let Some(root) = spec.root {
            keep_value[root] = true; // the loss value is returned
        }
        for &o in spec.outputs {
            keep_value[o] = true;
        }
        for i in 0..n {
            if reached[i] {
                ops[i].grad_reads(i, |j| useful[j], &mut keep_value);
            }
        }

        // --- Reference counts over live forward code (for fusion and
        // move legality) and last forward use (for the drop schedule).
        let mut refs = vec![0usize; n];
        let mut last_use = vec![usize::MAX; n];
        for i in 0..n {
            if !needed_fwd[i] {
                continue;
            }
            scratch.clear();
            ops[i].inputs(&mut scratch);
            for &a in &scratch {
                refs[a] += 1;
                last_use[a] = i;
            }
        }
        if let Some(root) = spec.root {
            refs[root] += 1;
            last_use[root] = usize::MAX;
        }
        for &o in spec.outputs {
            refs[o] += 1;
            last_use[o] = usize::MAX;
        }

        // --- Fusion: fold chains of unary elementwise ops whose
        // intermediates are single-consumer, not kept for backward, and
        // computed (not sources) into a single run.
        let mut exec: Vec<NodeExec> = Vec::with_capacity(n);
        let mut fused_stages = 0u64;
        for i in 0..n {
            if !needed_fwd[i] || !matches!(source[i], Source::Computed) {
                exec.push(NodeExec::Skip);
                continue;
            }
            let e = match &ops[i] {
                &Op::Unary(a, stage) => {
                    // Extend the input's run when it can be fused away.
                    let fuse_prev = matches!(source[a], Source::Computed)
                        && refs[a] == 1
                        && !keep_value[a]
                        && matches!(exec[a], NodeExec::Run { .. });
                    let par = numel(&shapes[i]) >= PAR_MIN_ELEMS;
                    if fuse_prev {
                        let NodeExec::Run { src, mut stages, .. } =
                            std::mem::replace(&mut exec[a], NodeExec::Skip)
                        else {
                            unreachable!()
                        };
                        stages.push(stage);
                        fused_stages += 1;
                        NodeExec::Run { src, stages, par }
                    } else {
                        NodeExec::Run {
                            src: a,
                            stages: vec![stage],
                            par,
                        }
                    }
                }
                Op::Reshape(a)
                    if matches!(source[*a], Source::Computed)
                        && refs[*a] == 1
                        && !keep_value[*a]
                        && !matches!(exec[*a], NodeExec::Skip) =>
                {
                    NodeExec::MoveReshape(*a)
                }
                Op::Detach(a)
                    if matches!(source[*a], Source::Computed)
                        && refs[*a] == 1
                        && !keep_value[*a]
                        && !matches!(exec[*a], NodeExec::Skip) =>
                {
                    NodeExec::MoveDetach(*a)
                }
                // Same-shape in *both* recordings: per-dim affine forms
                // equal at two adjacent batches are equal at every batch,
                // so the direct-loop fast path stays exact for any replay
                // size.
                Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b)
                    if shapes[*a] == shapes[i]
                        && shapes[*b] == shapes[i]
                        && poly_shapes
                            .map_or(true, |s1| s1[*a] == s1[i] && s1[*b] == s1[i]) =>
                {
                    let kind = match &ops[i] {
                        Op::Add(..) => BinKind::Add,
                        Op::Sub(..) => BinKind::Sub,
                        Op::Mul(..) => BinKind::Mul,
                        _ => BinKind::Div,
                    };
                    NodeExec::Bin {
                        kind,
                        a: *a,
                        b: *b,
                        par: numel(&shapes[i]) >= PAR_MIN_ELEMS,
                    }
                }
                _ => NodeExec::General,
            };
            exec.push(e);
        }

        // --- Demote single-stage runs: a fused run only wins when it
        // eliminates an intermediate buffer. A lone stage pays per-element
        // enum dispatch that `Op::eval`'s monomorphized closures (e.g.
        // relu's `map` vectorizing to maxps) do not, so route it through
        // the same forward the recorder used.
        for e in &mut exec {
            if matches!(e, NodeExec::Run { stages, .. } if stages.len() == 1) {
                *e = NodeExec::General;
            }
        }

        // --- Conv panel sharing: live `Conv1d` nodes that consume the
        // same input node with the same (kernel, dilation, pad) geometry
        // build identical im2col panels in both the forward GEMM lowering
        // and the dw backward lowering — the panels never depend on the
        // weights or the upstream gradient. Group such siblings so the
        // executor builds each panel once per replay.
        let mut conv_group: Vec<Option<u32>> = vec![None; n];
        let mut conv_release: Vec<Option<u32>> = vec![None; n];
        {
            let mut groups: Vec<((usize, usize, usize, usize), Vec<usize>)> = Vec::new();
            for i in 0..n {
                if matches!(exec[i], NodeExec::Skip) {
                    continue;
                }
                if let Op::Conv1d {
                    input,
                    weight,
                    dilation,
                    pad_left,
                } = &ops[i]
                {
                    let key = (*input, shapes[*weight][2], *dilation, *pad_left);
                    match groups.iter_mut().find(|(k2, _)| *k2 == key) {
                        Some((_, members)) => members.push(i),
                        None => groups.push((key, vec![i])),
                    }
                }
            }
            for (gid, (_, members)) in groups
                .into_iter()
                .filter(|(_, m)| m.len() >= 2)
                .enumerate()
            {
                for &m in &members {
                    conv_group[m] = Some(gid as u32);
                }
                conv_release[*members.last().unwrap()] = Some(gid as u32);
            }
        }

        // --- Conv + bias fusion: a share-group conv whose only consumer
        // is a channel-bias add (`[1, C, 1]` against its `[B, C, T]`
        // output) never needs its own buffer — the GEMM scatter writes
        // `sum + bias[c]` directly. A group's panel-release marker moves
        // with the conv to the fused node so the panel still dies on time.
        for i in 0..n {
            let Op::Add(a, b) = &ops[i] else { continue };
            let (a, b) = (*a, *b);
            if !matches!(exec[i], NodeExec::General)
                || conv_group[a].is_none()
                || refs[a] != 1
                || keep_value[a]
                || !matches!(exec[a], NodeExec::General)
                || shapes[a] != shapes[i]
                || shapes[i].len() != 3
                || shapes[b][..] != [1, shapes[i][1], 1]
                // The channel-bias pattern must hold at every batch size.
                || poly_shapes
                    .is_some_and(|s1| s1[a] != s1[i] || s1[b][..] != [1, s1[i][1], 1])
            {
                continue;
            }
            exec[a] = NodeExec::Skip;
            exec[i] = NodeExec::ConvBias { conv: a, bias: b };
            fused_stages += 1;
            if let Some(g) = conv_release[a].take() {
                conv_release[i] = Some(g);
            }
        }

        // --- Forward drop schedule: a computed value whose last consumer
        // is node i and which the backward pass never reads is dropped
        // right after i executes. Fused-away intermediates never
        // materialize at all; moved inputs are consumed by the move.
        let mut drop_after: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut static_drops = 0u64;
        let mut static_moves = 0u64;
        for i in 0..n {
            match exec[i] {
                NodeExec::Skip => continue,
                NodeExec::MoveReshape(_) | NodeExec::MoveDetach(_) => {
                    static_moves += 1;
                    continue; // input consumed by the move itself
                }
                _ => {}
            }
            // A value may be dropped at its own index only when nothing
            // consumes it (dead-end kept out by needed_fwd) — not a case
            // that occurs in live code, so only check real consumers.
            if last_use[i] != usize::MAX {
                let j = last_use[i];
                if !keep_value[i] {
                    // Values read through a fused run belong to the run's
                    // terminal node; redirect the drop to it. (The original
                    // consumer was fused away, so `exec[j]` is Skip.)
                    let owner = if matches!(exec[j], NodeExec::Skip) {
                        // Find the run that absorbed j: scan forward for the
                        // run whose src chain includes i. Runs record their
                        // ultimate src, so the terminal node of j's chain
                        // reads i directly.
                        (j..n).find(|&t| match &exec[t] {
                            NodeExec::Run { src, .. } => *src == i,
                            _ => false,
                        })
                    } else {
                        Some(j)
                    };
                    if let Some(owner) = owner {
                        drop_after[owner].push(i);
                        static_drops += 1;
                    }
                }
            }
        }

        // --- Backward schedule + dead-edge census.
        let mut bwd_order = Vec::new();
        let mut dead_edges = 0u64;
        if spec.root.is_some() {
            for i in (0..n).rev() {
                // `reached && !useful` only happens at the root (reached is
                // seeded there unconditionally): a loss over constants and
                // detached values has no edge to schedule, and its backward
                // arms assume at least one useful input.
                if !reached[i] || !useful[i] {
                    continue;
                }
                if matches!(ops[i], Op::Leaf | Op::Constant) {
                    continue; // gradient is kept in the slot for retrieval
                }
                bwd_order.push(i);
                scratch.clear();
                ops[i].inputs(&mut scratch);
                dead_edges += scratch.iter().filter(|&&a| !useful[a]).count() as u64;
            }
        }

        COMPILES.fetch_add(1, Ordering::Relaxed);
        THREAD_COMPILES.with(|c| c.set(c.get() + 1));
        let (forms, base_batch) = match poly {
            Some((_, forms)) => (Some(forms), batch0),
            None => (None, 0),
        };
        ExecPlan {
            ops,
            shapes,
            forms,
            base_batch,
            scaled: Mutex::new(Vec::new()),
            source,
            captured,
            bindings: spec.bindings.to_vec(),
            input_nodes: spec.inputs.to_vec(),
            outputs: spec.outputs.to_vec(),
            root: spec.root,
            exec,
            useful,
            drop_after,
            bwd_order,
            conv_group,
            conv_release,
            fused_stages,
            dead_edges,
            static_moves,
            static_drops,
        }
    }

    /// The `(ParamId, node index)` bindings this plan was compiled with,
    /// in the layout [`ParamStore::accumulate_grads`] expects.
    pub fn bindings(&self) -> &[(ParamId, usize)] {
        &self.bindings
    }

    /// Number of tape nodes the plan covers.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the plan covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// True when the plan was compiled with a training root.
    pub fn is_training(&self) -> bool {
        self.root.is_some()
    }

    /// Number of per-replay inputs the plan substitutes.
    pub fn num_inputs(&self) -> usize {
        self.input_nodes.len()
    }

    /// True when the plan was compiled batch-polymorphic: one compile
    /// serves every batch size consistent with its affine shape forms.
    pub fn is_poly(&self) -> bool {
        self.forms.is_some()
    }

    /// Infers the symbolic batch size from the replay inputs (poly
    /// plans) or checks exact shape equality (mono plans). `Err` carries
    /// the mismatch description.
    fn try_batch(&self, inputs: &[&Tensor]) -> Result<usize, String> {
        if inputs.len() != self.input_nodes.len() {
            return Err(format!(
                "plan expects {} inputs, got {}",
                self.input_nodes.len(),
                inputs.len()
            ));
        }
        let Some(forms) = &self.forms else {
            for (k, (&t, &idx)) in inputs.iter().zip(&self.input_nodes).enumerate() {
                if t.shape() != &self.shapes[idx][..] {
                    return Err(format!(
                        "plan input {k} shape mismatch (compile a new plan for new shapes)"
                    ));
                }
            }
            return Ok(self.base_batch);
        };
        let mut batch: Option<usize> = None;
        for (k, (&t, &idx)) in inputs.iter().zip(&self.input_nodes).enumerate() {
            let form = &forms[idx];
            let shape = t.shape();
            if shape.len() != form.len() {
                return Err(format!("plan input {k} rank mismatch"));
            }
            for (j, (&d, &(k0, c))) in shape.iter().zip(form).enumerate() {
                if c == 0 {
                    if d != k0 {
                        return Err(format!(
                            "plan input {k} dim {j}: expected {k0}, got {d}"
                        ));
                    }
                    continue;
                }
                let num = d
                    .checked_sub(k0)
                    .filter(|num| num % c == 0 && num / c > 0)
                    .ok_or_else(|| {
                        format!("plan input {k} dim {j}: {d} not on the batch form {k0}+{c}b")
                    })?;
                let b = num / c;
                match batch {
                    Some(prev) if prev != b => {
                        return Err(format!(
                            "plan inputs disagree on the batch size ({prev} vs {b})"
                        ))
                    }
                    _ => batch = Some(b),
                }
            }
        }
        Ok(batch.unwrap_or(self.base_batch))
    }

    /// True when `inputs` can replay through this plan: exact shape match
    /// for a mono plan, one consistent batch size for a poly plan.
    pub fn accepts(&self, inputs: &[&Tensor]) -> bool {
        self.try_batch(inputs).is_ok()
    }

    /// Resolves the shape set this replay executes against, materializing
    /// (and caching) the affine forms at the inferred batch size — the
    /// "lifetime rescale": the drop/move/fusion schedule is index-based
    /// and batch-free, so only buffer extents change between batches.
    fn shapes_for(&self, inputs: &[&Tensor]) -> ReplayShapes<'_> {
        let b = self.try_batch(inputs).unwrap_or_else(|e| panic!("{e}"));
        if self.forms.is_none() || b == self.base_batch {
            return ReplayShapes::Base(&self.shapes);
        }
        let mut cache = self.scaled.lock().unwrap();
        if let Some((_, s)) = cache.iter().find(|(b2, _)| *b2 == b) {
            return ReplayShapes::Scaled(Arc::clone(s));
        }
        let forms = self.forms.as_ref().expect("checked above");
        let shapes: Vec<Vec<usize>> = forms
            .iter()
            .map(|f| f.iter().map(|&(k, c)| k + c * b).collect())
            .collect();
        let arc = Arc::new(shapes);
        cache.push((b, Arc::clone(&arc)));
        ReplayShapes::Scaled(arc)
    }

    /// Replays the forward pass and returns clones of the output nodes'
    /// values, in spec order. Parameters are read from `store` by
    /// reference; `inputs` substitute the spec's input nodes positionally
    /// and must match the compiled shapes (exactly for mono plans, up to
    /// the symbolic batch size for poly plans).
    pub fn run_forward(&self, store: &ParamStore, inputs: &[&Tensor]) -> Vec<Tensor> {
        let shapes = self.shapes_for(inputs);
        let mut values: Vec<Option<Tensor>> = Vec::new();
        values.resize_with(self.ops.len(), || None);
        self.forward(&mut values, store, inputs, &shapes);
        self.note_replay();
        self.outputs
            .iter()
            .map(|&o| self.value(&values, store, inputs, o).clone())
            .collect()
    }

    /// Replays the full training step computation: forward, then the
    /// backward walk. Returns the scalar loss value and per-node
    /// gradients (retrieve via [`Gradients::by_index`] or feed to
    /// [`ParamStore::accumulate_grads`] with [`Self::bindings`]).
    ///
    /// Bitwise identical to recording a fresh tape with the current
    /// parameter values and calling [`Tape::backward`].
    pub fn run_training(&self, store: &ParamStore, inputs: &[&Tensor]) -> (Tensor, Gradients) {
        let root = self.root.expect("run_training on a forward-only plan");
        let shapes = self.shapes_for(inputs);
        let mut values: Vec<Option<Tensor>> = Vec::new();
        values.resize_with(self.ops.len(), || None);
        self.forward(&mut values, store, inputs, &shapes);
        let loss = self.value(&values, store, inputs, root).clone();
        let grads = self.backward(&mut values, store, inputs, root, &shapes);
        self.note_replay();
        (loss, Gradients::from_raw(grads))
    }

    /// Bumps the per-replay telemetry counters by this plan's
    /// compile-time census.
    fn note_replay(&self) {
        REPLAYS.fetch_add(1, Ordering::Relaxed);
        FUSED_STAGES.fetch_add(self.fused_stages, Ordering::Relaxed);
        DEAD_EDGES.fetch_add(self.dead_edges, Ordering::Relaxed);
        BUFFER_MOVES.fetch_add(self.static_moves, Ordering::Relaxed);
        VALUES_DROPPED.fetch_add(self.static_drops, Ordering::Relaxed);
    }

    /// Forward value of node `i` at replay time, by source.
    #[inline]
    fn value<'a>(
        &'a self,
        values: &'a [Option<Tensor>],
        store: &'a ParamStore,
        inputs: &'a [&'a Tensor],
        i: usize,
    ) -> &'a Tensor {
        match self.source[i] {
            Source::Computed => values[i]
                .as_ref()
                .unwrap_or_else(|| panic!("plan lifetime bug: value of node {i} already dropped")),
            Source::Input(slot) => inputs[slot],
            Source::Param(k) => store.value(self.bindings[k].0),
            Source::Captured(k) => &self.captured[k],
        }
    }

    fn forward(
        &self,
        values: &mut [Option<Tensor>],
        store: &ParamStore,
        inputs: &[&Tensor],
        shapes: &[Vec<usize>],
    ) {
        let prof = crate::opprof::op_profile_enabled();
        // Shared im2col panels, keyed by conv group id; built on first
        // member, recycled after the group's last forward member.
        let mut panels: Vec<(u32, pool::Buffer)> = Vec::new();
        for i in 0..self.ops.len() {
            let t0 = if prof && !matches!(self.exec[i], NodeExec::Skip) {
                Some(std::time::Instant::now())
            } else {
                None
            };
            match &self.exec[i] {
                NodeExec::Skip => continue,
                NodeExec::Run { src, stages, par } => {
                    let out = exec_run(
                        self.value(values, store, inputs, *src),
                        stages,
                        *par,
                        &shapes[i],
                    );
                    values[i] = Some(out);
                }
                NodeExec::Bin { kind, a, b, par } => {
                    let out = exec_bin(
                        *kind,
                        self.value(values, store, inputs, *a),
                        self.value(values, store, inputs, *b),
                        *par,
                        &shapes[i],
                    );
                    values[i] = Some(out);
                }
                NodeExec::MoveReshape(a) => {
                    let t = values[*a]
                        .take()
                        .unwrap_or_else(|| panic!("plan lifetime bug: move of dropped node {a}"));
                    values[i] = Some(t.reshape(&shapes[i]));
                }
                NodeExec::MoveDetach(a) => {
                    let t = values[*a]
                        .take()
                        .unwrap_or_else(|| panic!("plan lifetime bug: move of dropped node {a}"));
                    values[i] = Some(t);
                }
                NodeExec::ConvBias { conv, bias } => {
                    let out = self.conv_forward_shared(
                        values,
                        store,
                        inputs,
                        shapes,
                        *conv,
                        Some(*bias),
                        &mut panels,
                    );
                    values[i] = Some(out);
                }
                NodeExec::General => {
                    let out = match self.conv_group[i] {
                        Some(_) => self.conv_forward_shared(
                            values, store, inputs, shapes, i, None, &mut panels,
                        ),
                        None => self.ops[i]
                            .eval(|j| self.value(values, store, inputs, j), &shapes[i]),
                    };
                    values[i] = Some(out);
                }
            }
            if let Some(t0) = t0 {
                if let Some(k) = kind_index(&self.ops[i]) {
                    crate::opprof::record_forward(k, t0.elapsed().as_nanos() as u64);
                }
            }
            for &d in &self.drop_after[i] {
                values[d] = None;
            }
            if let Some(gid) = self.conv_release[i] {
                if let Some(p) = panels.iter().position(|(g2, _)| *g2 == gid) {
                    pool::recycle(panels.swap_remove(p).1);
                }
            }
        }
    }

    /// Forward conv1d for a member of a panel-sharing group: when the
    /// im2col lowering applies (same guard as [`Tensor::conv1d`]), get or
    /// build the group's shared column panel and run only the GEMM +
    /// scatter half — fusing a trailing channel-bias add into the scatter
    /// when `bias` is set; otherwise fall back to the plain kernels.
    /// Bitwise identical either way — the shared panel holds exactly the
    /// values each member would have built privately, and the fused bias
    /// performs the same per-element `sum + bias[c]` the broadcast add
    /// would.
    fn conv_forward_shared(
        &self,
        values: &[Option<Tensor>],
        store: &ParamStore,
        inputs: &[&Tensor],
        shapes: &[Vec<usize>],
        conv: usize,
        bias: Option<usize>,
        panels: &mut Vec<(u32, pool::Buffer)>,
    ) -> Tensor {
        let Op::Conv1d {
            input,
            weight,
            dilation,
            pad_left,
        } = &self.ops[conv]
        else {
            unreachable!("conv group on a non-conv node")
        };
        let gid = self.conv_group[conv].expect("shared conv without a group");
        let x = self.value(values, store, inputs, *input);
        let w = self.value(values, store, inputs, *weight);
        let (b, cin) = (x.shape()[0], x.shape()[1]);
        let k = w.shape()[2];
        let t_out = shapes[conv][2];
        let n_out = numel(&shapes[conv]);
        if t_out < crate::gemm::NR && cin * k <= crate::gemm::KC && n_out > 0 && cin > 0 {
            if !panels.iter().any(|(g2, _)| *g2 == gid) {
                panels.push((gid, x.conv1d_cols(k, *dilation, *pad_left, t_out)));
            }
            let cols = &panels.iter().find(|(g2, _)| *g2 == gid).unwrap().1;
            let bias_data = bias.map(|bn| self.value(values, store, inputs, bn).data());
            // The scatter writes every slot, so no zero-fill is needed.
            let mut out = pool::take_uninit(n_out);
            Tensor::conv1d_apply_cols(w, cols, b, t_out, bias_data, &mut out);
            Tensor::from_vec(out, &shapes[conv])
        } else {
            let y = x.conv1d(w, *dilation, *pad_left);
            match bias {
                None => y,
                // Same broadcast add the interpreter would run.
                Some(bn) => y.add(self.value(values, store, inputs, bn)),
            }
        }
    }

    /// The backward walk over the precomputed `bwd_order` schedule: each
    /// node applies [`Op::backward`] — the interpreter's rule — through a
    /// [`PlanGradCtx`] that never evaluates dead edges (gradients into
    /// constants) and shares conv dw panels. After its rule runs, a
    /// node's own value is dead and is recycled for gradient buffers.
    fn backward(
        &self,
        values: &mut [Option<Tensor>],
        store: &ParamStore,
        inputs: &[&Tensor],
        root: usize,
        shapes: &[Vec<usize>],
    ) -> Vec<Option<Tensor>> {
        let mut grads: Vec<Option<Tensor>> = Vec::new();
        grads.resize_with(self.ops.len(), || None);
        grads[root] = Some(Tensor::ones(&shapes[root]));
        let prof = crate::opprof::op_profile_enabled();
        let mut ctx = PlanGradCtx {
            plan: self,
            values,
            store,
            inputs,
            shapes,
            dw_panels: Vec::new(),
        };
        for &i in &self.bwd_order {
            let t0 = prof.then(std::time::Instant::now);
            let g = grads[i]
                .take()
                .unwrap_or_else(|| panic!("plan backward bug: node {i} reached but has no grad"));
            self.ops[i].backward(i, g, &mut ctx, &mut grads);
            if let (Some(t0), Some(k)) = (t0, kind_index(&self.ops[i])) {
                crate::opprof::record_backward(k, t0.elapsed().as_nanos() as u64);
            }
            // Node i's value can only be read by its own rule (just run)
            // or by consumers' rules (run earlier in the walk).
            if matches!(self.source[i], Source::Computed) {
                ctx.values[i] = None;
            }
        }
        for (_, p) in ctx.dw_panels {
            pool::recycle(p);
        }
        grads
    }
}

/// The plan engine's view for [`Op::backward`]: replay values by source,
/// replay shapes, compile-time dead-edge analysis, and dw im2col panels
/// shared inside a conv group (built by the first member the walk
/// reaches, recycled once the walk finishes).
struct PlanGradCtx<'a> {
    plan: &'a ExecPlan,
    values: &'a mut [Option<Tensor>],
    store: &'a ParamStore,
    inputs: &'a [&'a Tensor],
    shapes: &'a [Vec<usize>],
    dw_panels: Vec<(u32, pool::Buffer)>,
}

impl GradCtx for PlanGradCtx<'_> {
    fn value(&self, j: usize) -> &Tensor {
        self.plan.value(self.values, self.store, self.inputs, j)
    }

    fn shape(&self, j: usize) -> &[usize] {
        &self.shapes[j]
    }

    fn useful(&self, j: usize) -> bool {
        self.plan.useful[j]
    }

    fn conv_dw(
        &mut self,
        i: usize,
        g: &Tensor,
        input: usize,
        weight: usize,
        dilation: usize,
        pad_left: usize,
    ) -> Tensor {
        let x = self.plan.value(self.values, self.store, self.inputs, input);
        let t_out = self.shapes[i][2];
        // Panel sharing applies exactly when the dw GEMM lowering would
        // run (`conv1d_backward_dw`'s own guard); the shared panel holds
        // the same values each member would build privately, so bits
        // match.
        match self.plan.conv_group[i] {
            Some(gid) if t_out < crate::gemm::NR => {
                if !self.dw_panels.iter().any(|(g2, _)| *g2 == gid) {
                    let k = self.shapes[weight][2];
                    let cols = conv1d_dw_cols(x, k, dilation, pad_left, t_out);
                    self.dw_panels.push((gid, cols));
                }
                let cols = &self.dw_panels.iter().find(|(g2, _)| *g2 == gid).unwrap().1;
                conv1d_backward_dw_with_cols(g, x.shape(), &self.shapes[weight], cols)
            }
            _ => conv1d_backward_dw(g, x, &self.shapes[weight], dilation, pad_left),
        }
    }
}

// -------------------------------------------------------------- executor

/// What a [`PlanExecutor`] call is doing, reported to the executor's span
/// hook so callers can attribute the time (this crate sits below the
/// tracing crate and opens no spans itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Recording the graph twice and compiling a plan.
    Compile,
    /// Replaying a compiled plan.
    Replay,
    /// Recording the graph on the tape interpreter (its forward pass).
    Record,
    /// The tape interpreter's backward pass.
    Backward,
}

/// Loss and gradients of one training run, from whichever engine ran it.
pub struct Trained {
    /// Scalar loss value.
    pub loss: f32,
    /// Per-node gradients; feed them to [`ParamStore::accumulate_grads`]
    /// together with `bindings`.
    pub grads: Gradients,
    /// `(ParamId, node index)` bindings of the graph that ran.
    pub bindings: Vec<(ParamId, usize)>,
}

/// The one place that decides how a recorded graph runs: a bounded cache
/// of compiled plans, most recently used first and keyed by
/// [`ExecPlan::accepts`], in front of the tape interpreter.
///
/// With plans on (the default) a call replays the first cached plan that
/// accepts its inputs; on a miss it compiles one through
/// [`ExecPlan::compile_poly`] and evicts the least recently used plan
/// past the cap. With plans off ([`set_plan`]`(false)` or `URCL_PLAN=0`)
/// it runs the same recording function on the tape interpreter, the
/// bitwise oracle the plan engine is pinned against. Callers never branch
/// on the engine.
///
/// Plans are told apart by `accepts()` alone, so an executor must see
/// only one graph per input signature. The executor is `Sync`: shard
/// threads share a serving snapshot's executor, and its lock covers
/// lookup and compile, never a replay.
pub struct PlanExecutor<G = ()> {
    plans: Mutex<Vec<Arc<ExecPlan>>>,
    cap: usize,
    span: fn(Phase) -> G,
    gauges: bool,
}

impl<G> PlanExecutor<G> {
    /// An empty executor holding at most `cap` plans. `span` is called
    /// as each [`Phase`] begins; its guard is dropped when the phase ends.
    pub fn new(cap: usize, span: fn(Phase) -> G) -> Self {
        assert!(cap > 0, "a plan executor needs room for one plan");
        Self {
            plans: Mutex::new(Vec::new()),
            cap,
            span,
            gauges: false,
        }
    }

    /// Also reports this executor's size and evictions as the
    /// `cache_entries` / `cache_evictions` gauges of [`plan_stats`] —
    /// meant for the one cache those gauges describe (the trainer's).
    pub fn with_cache_gauges(mut self) -> Self {
        self.gauges = true;
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<ExecPlan>>> {
        // Every update (insert, move to front, evict, clear) leaves the
        // list valid, and a compile that panics inserts nothing, so a
        // poisoned lock still guards a usable cache.
        self.plans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan.
    pub fn clear(&self) {
        self.lock().clear();
        if self.gauges {
            note_plan_cache_entries(0);
        }
    }

    /// Runs a forward graph over batch-led `inputs` and returns the
    /// values of the recording's outputs.
    pub fn forward(
        &self,
        store: &ParamStore,
        inputs: &[&Tensor],
        mut record: impl FnMut(usize) -> Recording,
    ) -> Vec<Tensor> {
        let batch = inputs[0].shape()[0];
        match self.plan_for(batch, |_| inputs.to_vec(), &mut record) {
            Some(plan) => {
                let _sp = (self.span)(Phase::Replay);
                plan.run_forward(store, inputs)
            }
            None => {
                let _sp = (self.span)(Phase::Record);
                let rec = record(batch);
                rec.outputs.iter().map(|&o| rec.tape.value_at(o)).collect()
            }
        }
    }

    /// Compiles the plan a [`Self::forward`] over `inputs` would need, if
    /// plans are on and no cached plan accepts them, so a caller timing
    /// the forward pass keeps the one-time compile out of its clock.
    pub fn prepare(&self, inputs: &[&Tensor], record: impl FnMut(usize) -> Recording) {
        self.plan_for(inputs[0].shape()[0], |_| inputs.to_vec(), record);
    }

    /// Runs a training graph at `batch` and returns its loss and
    /// gradients. `inputs(n)` lists the replay inputs for a plan with `n`
    /// input slots; callers with a fixed slot count ignore `n`.
    pub fn train<'a>(
        &self,
        store: &ParamStore,
        batch: usize,
        inputs: impl Fn(usize) -> Vec<&'a Tensor>,
        mut record: impl FnMut(usize) -> Recording,
    ) -> Trained {
        if let Some(plan) = self.plan_for(batch, &inputs, &mut record) {
            let refs = inputs(plan.num_inputs());
            let _sp = (self.span)(Phase::Replay);
            let (loss, grads) = plan.run_training(store, &refs);
            return Trained {
                loss: loss.item(),
                grads,
                bindings: plan.bindings.clone(),
            };
        }
        let rec = {
            let _sp = (self.span)(Phase::Record);
            record(batch)
        };
        let root = rec.root.expect("training run of a recording without a root");
        let loss = rec.tape.value_at(root).item();
        let grads = {
            let _sp = (self.span)(Phase::Backward);
            rec.backward()
        };
        Trained {
            loss,
            grads,
            bindings: rec.bindings,
        }
    }

    /// The cached plan accepting `inputs(n)` (moved to the front), or a
    /// freshly compiled one; `None` when plans are off.
    fn plan_for<'a>(
        &self,
        batch: usize,
        inputs: impl Fn(usize) -> Vec<&'a Tensor>,
        record: impl FnMut(usize) -> Recording,
    ) -> Option<Arc<ExecPlan>> {
        if !plan_enabled() {
            return None;
        }
        let mut plans = self.lock();
        match plans
            .iter()
            .position(|p| p.accepts(&inputs(p.num_inputs())))
        {
            Some(i) => {
                let plan = plans.remove(i);
                plans.insert(0, plan);
            }
            None => {
                let plan = {
                    let _sp = (self.span)(Phase::Compile);
                    ExecPlan::compile_poly(batch, record)
                };
                plans.insert(0, Arc::new(plan));
                if plans.len() > self.cap {
                    plans.pop();
                    if self.gauges {
                        note_plan_cache_eviction();
                    }
                }
                if self.gauges {
                    note_plan_cache_entries(plans.len() as u64);
                }
            }
        }
        Some(Arc::clone(&plans[0]))
    }
}

/// True when a parallel region can actually run on more than one worker;
/// on an oversubscribed host (requested threads > physical cores) the
/// dispatch overhead has no upside, and serial execution is bitwise
/// identical for elementwise work (splits only partition the output).
#[inline]
fn parallelism_available() -> bool {
    crate::parallel::num_threads() > 1 && crate::parallel::host_parallelism() > 1
}

/// Executes a fused unary elementwise run over `src`, producing a tensor
/// of `out_shape`.
fn exec_run(
    src: &Tensor,
    stages: &[Unary],
    par: bool,
    out_shape: &[usize],
) -> Tensor {
    let sd = src.data();
    let n = sd.len();
    let mut data = pool::take_uninit(n);
    if !par || n < PAR_MIN_ELEMS || !parallelism_available() {
        for (slot, &x) in data.iter_mut().zip(sd.iter()) {
            let mut v = x;
            for s in stages {
                v = s.apply(v);
            }
            *slot = v;
        }
    } else {
        par_fill(&mut data, PAR_MIN_ELEMS / 4, |chunk, r| {
            for (slot, &x) in chunk.iter_mut().zip(&sd[r]) {
                let mut v = x;
                for s in stages {
                    v = s.apply(v);
                }
                *slot = v;
            }
        });
    }
    Tensor::from_vec(data, out_shape)
}

/// Same-shape binary elementwise op via a direct slice loop (the exact
/// per-element arithmetic of [`Tensor::zip`]'s same-shape path, minus the
/// shape analysis per call).
fn exec_bin(kind: BinKind, a: &Tensor, b: &Tensor, par: bool, out_shape: &[usize]) -> Tensor {
    let ad = a.data();
    let bd = b.data();
    let n = ad.len();
    let mut data = pool::take_uninit(n);
    macro_rules! go {
        ($f:expr) => {{
            let f = $f;
            if !par || n < PAR_MIN_ELEMS || !parallelism_available() {
                for ((slot, &x), &y) in data.iter_mut().zip(ad.iter()).zip(bd.iter()) {
                    *slot = f(x, y);
                }
            } else {
                par_fill(&mut data, PAR_MIN_ELEMS / 4, |chunk, r| {
                    for ((slot, &x), &y) in
                        chunk.iter_mut().zip(&ad[r.clone()]).zip(&bd[r])
                    {
                        *slot = f(x, y);
                    }
                });
            }
        }};
    }
    match kind {
        BinKind::Add => go!(|x: f32, y: f32| x + y),
        BinKind::Sub => go!(|x: f32, y: f32| x - y),
        BinKind::Mul => go!(|x: f32, y: f32| x * y),
        BinKind::Div => go!(|x: f32, y: f32| x / y),
    }
    Tensor::from_vec(data, out_shape)
}

/// Validates a [`PolySpec`] against the primary recording and fits the
/// per-dimension affine forms `k + c·b`. Returns the second recording's
/// shapes (used by the compile-time shape guards) plus the forms, or
/// `None` when the recordings diverge structurally or a dimension is not
/// affine in the batch — in which case the plan stays mono-shape.
fn poly_forms(
    ops: &[Op],
    shapes: &[Vec<usize>],
    p: &PolySpec<'_>,
) -> Option<(Vec<Vec<usize>>, Vec<Vec<(usize, usize)>>)> {
    let nodes1 = p.tape.nodes.borrow();
    if nodes1.len() < ops.len() {
        return None;
    }
    if ops.iter().zip(nodes1.iter()).any(|(op, nd)| *op != nd.op) {
        return None;
    }
    let shapes1: Vec<Vec<usize>> = nodes1[..ops.len()]
        .iter()
        .map(|nd| nd.value.shape().to_vec())
        .collect();
    drop(nodes1);
    let mut forms = Vec::with_capacity(shapes.len());
    for (s0, s1) in shapes.iter().zip(&shapes1) {
        if s0.len() != s1.len() {
            return None;
        }
        let mut f = Vec::with_capacity(s0.len());
        for (&d0, &d1) in s0.iter().zip(s1) {
            // d = k + c·b fit through (batch0, d0) and (batch0 + 1, d1);
            // shrinking or super-linear dims have no valid (k, c) ≥ 0.
            let c = d1.checked_sub(d0)?;
            let k = d0.checked_sub(c.checked_mul(p.batch0)?)?;
            f.push((k, c));
        }
        forms.push(f);
    }
    Some((shapes1, forms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autodiff::Session;
    use crate::rng::Rng;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::from_vec(v, s)
    }

    /// Interpreter and plan must agree bitwise on loss and param grads
    /// for a mixed graph with constants, broadcasts and shared leaves.
    #[test]
    fn training_replay_matches_interpreter_bitwise() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(11);
        let w = store.add("w", rng.uniform_tensor(&[3, 4], -1.0, 1.0));
        let b = store.add("b", rng.uniform_tensor(&[4], -1.0, 1.0));
        let x0 = rng.uniform_tensor(&[2, 3], -1.0, 1.0);
        let y0 = rng.uniform_tensor(&[2, 4], -1.0, 1.0);

        let run_interp = |store: &ParamStore, x: &Tensor, y: &Tensor| {
            let tape = Tape::new();
            let mut sess = Session::new(&tape, store);
            let xv = sess.input(x.clone());
            let yv = sess.input(y.clone());
            let wv = sess.param(w);
            let bv = sess.param(b);
            let pred = xv.matmul(wv).add(bv).tanh();
            let loss = pred.sub(yv).abs().mean_all();
            let lv = loss.value();
            let grads = tape.backward(loss);
            let binds = sess.into_bindings();
            let gw = grads.by_index(binds[0].1).unwrap().clone();
            let gb = grads.by_index(binds[1].1).unwrap().clone();
            (lv, gw, gb)
        };

        // Record once, compile, then replay with a *different* batch.
        let plan = {
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &store);
            let xv = sess.input(x0.clone());
            let yv = sess.input(y0.clone());
            let wv = sess.param(w);
            let bv = sess.param(b);
            let pred = xv.matmul(wv).add(bv).tanh();
            let loss = pred.sub(yv).abs().mean_all();
            let binds = sess.into_bindings();
            ExecPlan::compile(
                &tape,
                &PlanSpec {
                    root: Some(loss.index()),
                    inputs: &[xv.index(), yv.index()],
                    outputs: &[],
                    bindings: &binds,
                    },
            )
        };

        let x1 = rng.uniform_tensor(&[2, 3], -1.0, 1.0);
        let y1 = rng.uniform_tensor(&[2, 4], -1.0, 1.0);
        let (li, gwi, gbi) = run_interp(&store, &x1, &y1);
        let (lp, grads) = plan.run_training(&store, &[&x1, &y1]);
        assert_eq!(lp.item().to_bits(), li.item().to_bits());
        let gwp = grads.by_index(plan.bindings()[0].1).unwrap();
        let gbp = grads.by_index(plan.bindings()[1].1).unwrap();
        assert_eq!(gwp.shape(), gwi.shape());
        for (a, b) in gwp.data().iter().zip(gwi.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in gbp.data().iter().zip(gbi.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Gradients into constants are eliminated; the plan must report the
    /// dead edges and still produce identical observables.
    #[test]
    fn dead_gradient_elimination_counts_edges() {
        let mut store = ParamStore::new();
        let w = store.add("w", t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let support = t(vec![0.5, 0.1, 0.2, 0.7], &[2, 2]);
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let sv = sess.input(support.clone());
        let wv = sess.param(w);
        // support @ w: the edge into the constant support is dead.
        let loss = sv.matmul(wv).mean_all();
        let binds = sess.into_bindings();
        let plan = ExecPlan::compile(
            &tape,
            &PlanSpec {
                root: Some(loss.index()),
                inputs: &[],
                outputs: &[],
                bindings: &binds,
            },
        );
        assert!(plan.dead_edges >= 1, "support edge should be dead");
        let (lp, grads) = plan.run_training(&store, &[]);
        let gi = tape.backward(loss);
        assert_eq!(lp.item().to_bits(), loss.value().item().to_bits());
        let gw_i = gi.by_index(binds[0].1).unwrap();
        let gw_p = grads.by_index(binds[0].1).unwrap();
        for (a, b) in gw_p.data().iter().zip(gw_i.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Forward-only plans fuse unary chains and return output clones.
    #[test]
    fn forward_only_plan_fuses_and_matches() {
        let store = ParamStore::new();
        let x0 = Rng::seed_from_u64(3).uniform_tensor(&[4, 5], -2.0, 2.0);
        let tape = Tape::new();
        let sess = Session::new(&tape, &store);
        let xv = sess.input(x0.clone());
        let y = xv.scale(2.0).add_scalar(1.0).tanh().relu();
        let plan = ExecPlan::compile(
            &tape,
            &PlanSpec {
                root: None,
                inputs: &[xv.index()],
                outputs: &[y.index()],
                bindings: &[],
            },
        );
        assert!(plan.fused_stages >= 3, "chain of 4 should fuse 3 stages");
        let x1 = Rng::seed_from_u64(4).uniform_tensor(&[4, 5], -2.0, 2.0);
        let out = plan.run_forward(&store, &[&x1]);
        let expect = x1.scale(2.0).add_scalar(1.0).map(f32::tanh).map(|v| v.max(0.0));
        assert_eq!(out.len(), 1);
        for (a, b) in out[0].data().iter().zip(expect.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The toggle follows the pool/simd seam pattern.
    #[test]
    fn toggle_roundtrip() {
        let prev = set_plan(false);
        assert!(!plan_enabled());
        set_plan(true);
        assert!(plan_enabled());
        set_plan(prev);
    }

    /// Replaying after a parameter update sees the *current* store values.
    #[test]
    fn replay_reads_current_params() {
        let mut store = ParamStore::new();
        let w = store.add("w", t(vec![2.0], &[1]));
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let wv = sess.param(w);
        let loss = wv.mul(wv).mean_all();
        let binds = sess.into_bindings();
        let plan = ExecPlan::compile(
            &tape,
            &PlanSpec {
                root: Some(loss.index()),
                inputs: &[],
                outputs: &[],
                bindings: &binds,
            },
        );
        let (l0, g0) = plan.run_training(&store, &[]);
        assert_eq!(l0.item(), 4.0);
        assert_eq!(g0.by_index(binds[0].1).unwrap().data(), &[4.0]);
        store.value_mut(w).data_mut()[0] = 3.0;
        let (l1, g1) = plan.run_training(&store, &[]);
        assert_eq!(l1.item(), 9.0);
        assert_eq!(g1.by_index(binds[0].1).unwrap().data(), &[6.0]);
    }

    /// One batch-polymorphic plan (recorded at batches 2 and 3) replays
    /// bitwise against the interpreter at unseen batch sizes, with no
    /// recompilation.
    #[test]
    fn poly_plan_replays_at_unseen_batches() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(21);
        let w = store.add("w", rng.uniform_tensor(&[3, 4], -1.0, 1.0));
        let b = store.add("b", rng.uniform_tensor(&[4], -1.0, 1.0));
        let x2 = rng.uniform_tensor(&[2, 3], -1.0, 1.0);
        let y2 = rng.uniform_tensor(&[2, 4], -1.0, 1.0);
        let compiles_before = thread_plan_compiles();
        // Recorded at batches 2 and 3; only shapes matter at 3, so
        // `at_batch` zero proxies are fine.
        let plan = ExecPlan::compile_poly(2, |bsz| {
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &store);
            let xv = sess.input(x2.at_batch(bsz));
            let yv = sess.input(y2.at_batch(bsz));
            let wv = sess.param(w);
            let bv = sess.param(b);
            let pred = xv.matmul(wv).add(bv).tanh();
            let loss = pred.sub(yv).abs().mean_all();
            let (root, inputs) = (Some(loss.index()), vec![xv.index(), yv.index()]);
            let bindings = sess.into_bindings();
            Recording {
                tape,
                root,
                inputs,
                outputs: vec![],
                bindings,
            }
        });
        assert!(plan.is_poly());
        for bsz in [5usize, 2, 7, 3] {
            let x = rng.uniform_tensor(&[bsz, 3], -1.0, 1.0);
            let y = rng.uniform_tensor(&[bsz, 4], -1.0, 1.0);
            assert!(plan.accepts(&[&x, &y]));
            // Interpreter reference at this batch size.
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &store);
            let xv = sess.input(x.clone());
            let yv = sess.input(y.clone());
            let wv = sess.param(w);
            let bv = sess.param(b);
            let loss = xv.matmul(wv).add(bv).tanh().sub(yv).abs().mean_all();
            let gi = tape.backward(loss);
            let binds = sess.into_bindings();
            let (lp, gp) = plan.run_training(&store, &[&x, &y]);
            assert_eq!(lp.item().to_bits(), loss.value().item().to_bits());
            for (k, &(_, idx)) in binds.iter().enumerate() {
                let a = gp.by_index(plan.bindings()[k].1).unwrap();
                let b = gi.by_index(idx).unwrap();
                for (av, bv) in a.data().iter().zip(b.data()) {
                    assert_eq!(av.to_bits(), bv.to_bits());
                }
            }
        }
        assert_eq!(
            thread_plan_compiles(),
            compiles_before + 1,
            "batch churn must not recompile a poly plan"
        );
        // A mismatched rank or off-form shape is rejected, not replayed.
        let bad = Tensor::zeros(&[2, 5]);
        assert!(!plan.accepts(&[&bad, &Tensor::zeros(&[2, 4])]));
    }

    /// A batch-dependent constant that was *not* promoted to an input
    /// degrades the plan to mono-shape: replaying it at a new batch size
    /// with a stale captured value would be wrong, so only the recorded
    /// batch is accepted.
    #[test]
    fn stale_capture_degrades_to_mono() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(22);
        let w = store.add("w", rng.uniform_tensor(&[3, 3], -1.0, 1.0));
        let plan = ExecPlan::compile_poly(2, |bsz| {
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &store);
            let xv = sess.input(Tensor::zeros(&[bsz, 3]));
            let wv = sess.param(w);
            // Batch-dependent mask recorded as a plain captured constant.
            let mask = sess.input(Tensor::ones(&[bsz, 3]));
            let loss = xv.matmul(wv).mul(mask).mean_all();
            let (root, inputs) = (Some(loss.index()), vec![xv.index()]);
            let bindings = sess.into_bindings();
            Recording {
                tape,
                root,
                inputs,
                outputs: vec![],
                bindings,
            }
        });
        assert!(!plan.is_poly());
        assert!(plan.accepts(&[&Tensor::zeros(&[2, 3])]));
        assert!(!plan.accepts(&[&Tensor::zeros(&[3, 3])]));
    }
}
