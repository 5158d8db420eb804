//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation as an explicit [`Op`] node; calling
//! [`Tape::backward`] walks the tape in reverse, applying one hand-written
//! backward rule per variant. Compared to closure-captured backward
//! functions this keeps every rule inspectable and testable — each one is
//! verified against numerical differentiation in `gradcheck` tests.
//!
//! Variables ([`Var`]) are `Copy` indices into the tape, so expression code
//! reads naturally:
//!
//! ```
//! use urcl_tensor::{Tensor, autodiff::Tape};
//! let tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![2.0], &[1]));
//! let y = x.mul(x).add_scalar(1.0); // y = x^2 + 1
//! let g = tape.backward(y);
//! assert_eq!(g.get(x).unwrap().data(), &[4.0]); // dy/dx = 2x
//! ```

use crate::params::{ParamId, ParamStore};
use crate::parallel::{par_fill, PAR_MIN_ELEMS};
use crate::pool;
use crate::shape::numel;
use crate::tensor::Tensor;
use std::cell::RefCell;

/// One recorded operation. Fields are the tape indices of the inputs plus
/// whatever metadata the backward rule needs. `PartialEq` compares the
/// recorded structure (indices and metadata, scalar constants bitwise via
/// `f32` equality) — the plan compiler uses it to check that two
/// recordings of the same step graph are op-for-op identical.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Trainable input: receives a gradient slot.
    Leaf,
    /// Non-trainable input (data, masks, adjacency matrices).
    Constant,
    /// Broadcasting elementwise `a + b`.
    Add(usize, usize),
    /// Broadcasting elementwise `a - b`.
    Sub(usize, usize),
    /// Broadcasting elementwise `a * b`.
    Mul(usize, usize),
    /// Broadcasting elementwise `a / b`.
    Div(usize, usize),
    /// Elementwise negation `-a`.
    Neg(usize),
    /// Multiplication by a compile-time scalar: `a * c`.
    Scale(usize, f32),
    /// Addition of a compile-time scalar: `a + c`.
    AddScalar(usize, f32),
    /// Elementwise power with a scalar exponent: `a^c`.
    PowF(usize, f32),
    /// Elementwise `exp(a)`.
    Exp(usize),
    /// Elementwise natural logarithm `ln(a)`.
    Ln(usize),
    /// Elementwise square root.
    Sqrt(usize),
    /// Elementwise absolute value (subgradient 0 at the kink).
    Abs(usize),
    /// Rectified linear unit `max(a, 0)`.
    Relu(usize),
    /// Leaky ReLU with the given negative-side slope.
    LeakyRelu(usize, f32),
    /// Logistic sigmoid `1 / (1 + exp(-a))`.
    Sigmoid(usize),
    /// Hyperbolic tangent.
    Tanh(usize),
    /// Batched matrix product over the two trailing axes.
    MatMul(usize, usize),
    /// Axis permutation (generalised transpose); the `Vec` is the
    /// forward permutation, inverted in the backward rule.
    Permute(usize, Vec<usize>),
    /// Shape change without data movement; the backward rule reshapes
    /// the gradient back to the input's shape.
    Reshape(usize),
    /// Sum-reduction over a set of axes.
    SumAxes {
        /// Tape index of the reduced tensor.
        input: usize,
        /// Axes being summed over (ascending, deduplicated).
        axes: Vec<usize>,
        /// Keep reduced axes as size-1 dims instead of dropping them.
        keepdim: bool,
    },
    /// Sum of every element, yielding a scalar.
    SumAll(usize),
    /// Mean of every element, yielding a scalar.
    MeanAll(usize),
    /// Softmax along one axis: `Softmax(input, axis)`.
    Softmax(usize, usize),
    /// Concatenation of several tensors along one axis; the backward
    /// rule narrows the gradient back into per-input slices.
    Concat {
        /// Tape indices of the concatenated tensors, in order.
        inputs: Vec<usize>,
        /// Axis along which the inputs were joined.
        axis: usize,
    },
    /// Contiguous slice `[start, start + len)` along one axis.
    Narrow {
        /// Tape index of the sliced tensor.
        input: usize,
        /// Axis being sliced.
        axis: usize,
        /// First element of the slice along `axis`.
        start: usize,
        /// Slice length along `axis`.
        len: usize,
    },
    /// Dilated causal 1-D convolution over the trailing time axis.
    Conv1d {
        /// Tape index of the `[B, C_in, T]` input.
        input: usize,
        /// Tape index of the `[C_out, C_in, K]` kernel.
        weight: usize,
        /// Spacing between kernel taps.
        dilation: usize,
        /// Zero-padding prepended to the time axis (causality).
        pad_left: usize,
    },
    /// Identity in the forward pass, blocks gradient flow (the paper's
    /// `SG(·)` stop-gradient of Eq. 13).
    Detach(usize),
}

/// Profile index of an op kind (aligned with [`crate::opprof::OP_NAMES`]);
/// `None` for pure tape bookkeeping nodes.
pub(crate) fn kind_index(op: &Op) -> Option<usize> {
    Some(match op {
        Op::Leaf | Op::Constant => return None,
        Op::Add(..) => 0,
        Op::Sub(..) => 1,
        Op::Mul(..) => 2,
        Op::Div(..) => 3,
        Op::Neg(..) => 4,
        Op::Scale(..) => 5,
        Op::AddScalar(..) => 6,
        Op::PowF(..) => 7,
        Op::Exp(..) => 8,
        Op::Ln(..) => 9,
        Op::Sqrt(..) => 10,
        Op::Abs(..) => 11,
        Op::Relu(..) => 12,
        Op::LeakyRelu(..) => 13,
        Op::Sigmoid(..) => 14,
        Op::Tanh(..) => 15,
        Op::MatMul(..) => 16,
        Op::Permute(..) => 17,
        Op::Reshape(..) => 18,
        Op::SumAxes { .. } => 19,
        Op::SumAll(..) => 20,
        Op::MeanAll(..) => 21,
        Op::Softmax(..) => 22,
        Op::Concat { .. } => 23,
        Op::Narrow { .. } => 24,
        Op::Conv1d { .. } => 25,
        Op::Detach(..) => 26,
    })
}

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) op: Op,
}

/// The autodiff tape. Create one per training step; parameters are bound to
/// it through [`Session`].
pub struct Tape {
    pub(crate) nodes: RefCell<Vec<Node>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self {
            nodes: RefCell::new(Vec::new()),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&self, value: Tensor, op: Op) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, op });
        Var {
            tape: self,
            idx: nodes.len() - 1,
        }
    }

    /// Registers a trainable input.
    pub fn leaf(&self, value: Tensor) -> Var<'_> {
        self.push(value, Op::Leaf)
    }

    /// Registers a non-trainable input. Gradients are not propagated into
    /// constants, which keeps the backward pass cheap for data tensors.
    pub fn constant(&self, value: Tensor) -> Var<'_> {
        self.push(value, Op::Constant)
    }

    /// Concatenates variables along `axis`.
    pub fn concat<'t>(&'t self, parts: &[Var<'t>], axis: usize) -> Var<'t> {
        assert!(!parts.is_empty(), "concat of zero vars");
        let value = {
            let nodes = self.nodes.borrow();
            let tensors: Vec<&Tensor> = parts.iter().map(|v| &nodes[v.idx].value).collect();
            Tensor::concat(&tensors, axis)
        };
        self.push(
            value,
            Op::Concat {
                inputs: parts.iter().map(|v| v.idx).collect(),
                axis,
            },
        )
    }

    /// Clones the forward value of a variable.
    pub fn value(&self, v: Var<'_>) -> Tensor {
        self.nodes.borrow()[v.idx].value.clone()
    }

    /// Clones the forward value of the node at `idx`. Index-based
    /// counterpart of [`Tape::value`] for callers that hold node indices
    /// (plan input slots) rather than live `Var`s.
    pub fn value_at(&self, idx: usize) -> Tensor {
        self.nodes.borrow()[idx].value.clone()
    }

    /// Handle to the node at `idx`.
    pub(crate) fn var(&self, idx: usize) -> Var<'_> {
        Var { tape: self, idx }
    }

    /// Runs the backward pass from `loss` (which must hold exactly one
    /// element) and returns per-node gradients.
    pub fn backward(&self, loss: Var<'_>) -> Gradients {
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[loss.idx].value.len(),
            1,
            "backward root must be a scalar, got shape {:?}",
            nodes[loss.idx].value.shape()
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        grads[loss.idx] = Some(Tensor::ones(nodes[loss.idx].value.shape()));

        // With pooling (memory reuse) off, every arm below falls back to
        // the seed-era kernels: materialize each edge's temporary tensor,
        // reduce_to_shape even when shapes already match, then accumulate.
        // The per-element arithmetic of both paths is identical, so the
        // toggle is a pure before/after switch for allocation behaviour —
        // `pool_determinism` asserts bitwise equality, `bench_train_step`
        // measures the speed difference.
        let reuse = pool::pooling_enabled();
        let prof = crate::opprof::op_profile_enabled();
        for i in (0..=loss.idx).rev() {
            let Some(g) = grads[i].take() else { continue };
            let node = &nodes[i];
            let t0 = if prof {
                Some(std::time::Instant::now())
            } else {
                None
            };
            match &node.op {
                Op::Leaf | Op::Constant => {
                    grads[i] = Some(g); // keep for retrieval
                    continue;
                }
                Op::Add(a, b) => {
                    // Same-shape edges propagate g by reference (one clone
                    // at most); broadcast edges reduce first as before.
                    for &inp in &[*a, *b] {
                        if reuse && nodes[inp].value.shape() == g.shape() {
                            accumulate_ref(&mut grads, inp, &g);
                        } else {
                            accumulate(&mut grads, inp, g.reduce_to_shape(nodes[inp].value.shape()));
                        }
                    }
                }
                Op::Sub(a, b) => {
                    if reuse && nodes[*a].value.shape() == g.shape() {
                        accumulate_ref(&mut grads, *a, &g);
                    } else {
                        accumulate(&mut grads, *a, g.reduce_to_shape(nodes[*a].value.shape()));
                    }
                    if reuse && nodes[*b].value.shape() == g.shape() {
                        fused_scale_acc(&mut grads, *b, &g, -1.0);
                    } else {
                        accumulate(
                            &mut grads,
                            *b,
                            g.scale(-1.0).reduce_to_shape(nodes[*b].value.shape()),
                        );
                    }
                }
                Op::Mul(a, b) => {
                    let av = &nodes[*a].value;
                    let bv = &nodes[*b].value;
                    if reuse && av.shape() == g.shape() && bv.shape() == g.shape() {
                        fused_mul_acc(&mut grads, *a, &g, bv);
                        fused_mul_acc(&mut grads, *b, &g, av);
                    } else {
                        let ga = g.mul(bv).reduce_to_shape(av.shape());
                        let gb = g.mul(av).reduce_to_shape(bv.shape());
                        accumulate(&mut grads, *a, ga);
                        accumulate(&mut grads, *b, gb);
                    }
                }
                Op::Div(a, b) => {
                    let av = &nodes[*a].value;
                    let bv = &nodes[*b].value;
                    if reuse && av.shape() == g.shape() && bv.shape() == g.shape() {
                        fused_map2(&mut grads, *a, &g, bv, |gv, b| gv / b);
                        // d/db (a/b) = -a / b^2, with the exact expression
                        // tree of the old temporary chain.
                        fused_map3(&mut grads, *b, &g, av, bv, |gv, a, b| {
                            ((gv * a) / (b * b)) * -1.0
                        });
                    } else {
                        let ga = g.div(bv).reduce_to_shape(av.shape());
                        let gb = g
                            .mul(av)
                            .div(&bv.mul(bv))
                            .scale(-1.0)
                            .reduce_to_shape(bv.shape());
                        accumulate(&mut grads, *a, ga);
                        accumulate(&mut grads, *b, gb);
                    }
                }
                Op::Neg(a) => {
                    if reuse {
                        fused_scale_acc(&mut grads, *a, &g, -1.0);
                    } else {
                        accumulate(&mut grads, *a, g.scale(-1.0));
                    }
                }
                Op::Scale(a, c) => {
                    let c = *c;
                    if reuse {
                        fused_scale_acc(&mut grads, *a, &g, c);
                    } else {
                        accumulate(&mut grads, *a, g.scale(c));
                    }
                }
                Op::AddScalar(a, _) => accumulate(&mut grads, *a, g),
                Op::PowF(a, p) => {
                    let p = *p;
                    if reuse {
                        fused_map2(&mut grads, *a, &g, &nodes[*a].value, move |gv, v| {
                            gv * (p * v.powf(p - 1.0))
                        });
                    } else {
                        let dg = g.mul(&nodes[*a].value.map(|v| p * v.powf(p - 1.0)));
                        accumulate(&mut grads, *a, dg);
                    }
                }
                Op::Exp(a) => {
                    if reuse {
                        fused_map2(&mut grads, *a, &g, &node.value, |gv, y| gv * y);
                    } else {
                        accumulate(&mut grads, *a, g.mul(&node.value));
                    }
                }
                Op::Ln(a) => {
                    if reuse {
                        fused_map2(&mut grads, *a, &g, &nodes[*a].value, |gv, v| gv / v);
                    } else {
                        accumulate(&mut grads, *a, g.div(&nodes[*a].value));
                    }
                }
                Op::Sqrt(a) => {
                    // dy/dx = 1 / (2 sqrt(x)) = 1 / (2 y)
                    if reuse {
                        fused_map2(&mut grads, *a, &g, &node.value, |gv, y| gv / (y * 2.0));
                    } else {
                        accumulate(&mut grads, *a, g.div(&node.value.scale(2.0)));
                    }
                }
                Op::Abs(a) => {
                    // Mask-multiply (not branch-select on g) so signed
                    // zeros match the old `g.mul(&sign)` exactly.
                    let sign = |v: f32| {
                        if v > 0.0 {
                            1.0
                        } else if v < 0.0 {
                            -1.0
                        } else {
                            0.0
                        }
                    };
                    if reuse {
                        fused_map2(&mut grads, *a, &g, &nodes[*a].value, |gv, v| gv * sign(v));
                    } else {
                        accumulate(&mut grads, *a, g.mul(&nodes[*a].value.map(sign)));
                    }
                }
                Op::Relu(a) => {
                    if reuse {
                        fused_map2(&mut grads, *a, &g, &nodes[*a].value, |gv, v| {
                            gv * if v > 0.0 { 1.0 } else { 0.0 }
                        });
                    } else {
                        let mask = nodes[*a].value.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                        accumulate(&mut grads, *a, g.mul(&mask));
                    }
                }
                Op::LeakyRelu(a, slope) => {
                    let s = *slope;
                    if reuse {
                        fused_map2(&mut grads, *a, &g, &nodes[*a].value, move |gv, v| {
                            gv * if v > 0.0 { 1.0 } else { s }
                        });
                    } else {
                        let mask = nodes[*a].value.map(|v| if v > 0.0 { 1.0 } else { s });
                        accumulate(&mut grads, *a, g.mul(&mask));
                    }
                }
                Op::Sigmoid(a) => {
                    if reuse {
                        fused_map2(&mut grads, *a, &g, &node.value, |gv, y| gv * (y * (1.0 - y)));
                    } else {
                        let y = &node.value;
                        accumulate(&mut grads, *a, g.mul(&y.mul(&y.map(|v| 1.0 - v))));
                    }
                }
                Op::Tanh(a) => {
                    if reuse {
                        fused_map2(&mut grads, *a, &g, &node.value, |gv, y| gv * (1.0 - y * y));
                    } else {
                        let y = &node.value;
                        accumulate(&mut grads, *a, g.mul(&y.map(|v| 1.0 - v * v)));
                    }
                }
                Op::MatMul(a, b) => {
                    let av = &nodes[*a].value;
                    let bv = &nodes[*b].value;
                    // Fused-transpose gemm: dA = dC @ B^T, dB = A^T @ dC,
                    // without materializing B^T / A^T copies. With reuse on,
                    // the reduce_to_shape (a full-tensor copy when shapes
                    // already match) only runs on broadcast edges.
                    let ga = g.matmul_nt(bv);
                    let ga = if reuse && ga.shape() == av.shape() {
                        ga
                    } else {
                        ga.reduce_to_shape(av.shape())
                    };
                    let gb = av.matmul_tn(&g);
                    let gb = if reuse && gb.shape() == bv.shape() {
                        gb
                    } else {
                        gb.reduce_to_shape(bv.shape())
                    };
                    accumulate(&mut grads, *a, ga);
                    accumulate(&mut grads, *b, gb);
                }
                Op::Permute(a, perm) => {
                    let mut inv = vec![0usize; perm.len()];
                    for (i, &p) in perm.iter().enumerate() {
                        inv[p] = i;
                    }
                    accumulate(&mut grads, *a, g.permute(&inv));
                }
                Op::Reshape(a) => {
                    accumulate(&mut grads, *a, g.reshape(nodes[*a].value.shape()));
                }
                Op::SumAxes {
                    input,
                    axes,
                    keepdim,
                } => {
                    let in_shape = nodes[*input].value.shape().to_vec();
                    let keep_shape: Vec<usize> = {
                        let mut s = in_shape.clone();
                        for &a in axes {
                            s[a] = 1;
                        }
                        s
                    };
                    let gk = if *keepdim {
                        g
                    } else {
                        g.reshape(&keep_shape)
                    };
                    // Broadcast the kept-dim gradient back over the input.
                    let expanded = Tensor::zeros(&in_shape).add(&gk);
                    accumulate(&mut grads, *input, expanded);
                }
                Op::SumAll(a) => {
                    let full = Tensor::full(nodes[*a].value.shape(), g.item());
                    accumulate(&mut grads, *a, full);
                }
                Op::MeanAll(a) => {
                    let n = nodes[*a].value.len().max(1) as f32;
                    let full = Tensor::full(nodes[*a].value.shape(), g.item() / n);
                    accumulate(&mut grads, *a, full);
                }
                Op::Softmax(a, axis) => {
                    // dx = y * (g - sum(g*y, axis, keepdim))
                    let y = &node.value;
                    let gy = g.mul(y);
                    let s = gy.sum_axes(&[*axis], true);
                    let dg = y.mul(&g.sub(&s));
                    accumulate(&mut grads, *a, dg);
                }
                Op::Concat { inputs, axis } => {
                    let mut start = 0;
                    for &inp in inputs {
                        let len = nodes[inp].value.shape()[*axis];
                        let part = g.narrow(*axis, start, len);
                        accumulate(&mut grads, inp, part);
                        start += len;
                    }
                }
                Op::Narrow {
                    input,
                    axis,
                    start,
                    len,
                } => {
                    let dg = narrow_scatter(&g, nodes[*input].value.shape(), *axis, *start, *len);
                    accumulate(&mut grads, *input, dg);
                }
                Op::Conv1d {
                    input,
                    weight,
                    dilation,
                    pad_left,
                } => {
                    let (dx, dw) = conv1d_backward(
                        &g,
                        &nodes[*input].value,
                        &nodes[*weight].value,
                        *dilation,
                        *pad_left,
                    );
                    accumulate(&mut grads, *input, dx);
                    accumulate(&mut grads, *weight, dw);
                }
                Op::Detach(_) => { /* gradient intentionally dropped */ }
            }
            if let (Some(t0), Some(k)) = (t0, kind_index(&node.op)) {
                crate::opprof::record_backward(k, t0.elapsed().as_nanos() as u64);
            }
        }
        Gradients { grads }
    }
}

pub(crate) fn accumulate(grads: &mut [Option<Tensor>], idx: usize, g: Tensor) {
    match &mut grads[idx] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

/// Like [`accumulate`] but borrows the gradient, cloning only when the
/// slot is empty. Lets rules that propagate `g` unchanged to several
/// inputs skip one full-tensor copy per edge with an occupied slot.
pub(crate) fn accumulate_ref(grads: &mut [Option<Tensor>], idx: usize, g: &Tensor) {
    match &mut grads[idx] {
        Some(existing) => existing.add_assign(g),
        slot @ None => *slot = Some(g.clone()),
    }
}

/// Core of the fused backward kernels: `grads[idx][e] (+)= eval(e)`.
///
/// When the slot already holds a partial gradient the contribution is
/// accumulated *in place* — no temporary tensor is materialized, which is
/// the axpy-style fusion that removes one allocation + write + read per
/// backward edge. When the slot is empty the contribution is written into
/// a pooled buffer. Either way the per-element arithmetic is "evaluate
/// `eval(e)`, then add" — exactly what the old temporary-then-`add_assign`
/// code produced (Rust does not contract `a + b * c` to FMA), so results
/// are bitwise identical. Large tensors split over the thread pool on
/// disjoint output chunks, preserving determinism at any thread count.
fn fused_apply(
    grads: &mut [Option<Tensor>],
    idx: usize,
    shape: &[usize],
    eval: &(impl Fn(usize) -> f32 + Sync),
) {
    let n = numel(shape);
    match &mut grads[idx] {
        Some(existing) => {
            debug_assert_eq!(existing.shape(), shape, "fused gradient shape mismatch");
            let dst = existing.data_mut();
            if n < PAR_MIN_ELEMS {
                for (e, d) in dst.iter_mut().enumerate() {
                    *d += eval(e);
                }
            } else {
                par_fill(dst, PAR_MIN_ELEMS / 4, |chunk, r| {
                    for (d, e) in chunk.iter_mut().zip(r) {
                        *d += eval(e);
                    }
                });
            }
        }
        slot @ None => {
            let mut data = pool::take_uninit(n);
            if n < PAR_MIN_ELEMS {
                for (e, d) in data.iter_mut().enumerate() {
                    *d = eval(e);
                }
            } else {
                par_fill(&mut data, PAR_MIN_ELEMS / 4, |chunk, r| {
                    for (d, e) in chunk.iter_mut().zip(r) {
                        *d = eval(e);
                    }
                });
            }
            *slot = Some(Tensor::from_vec(data, shape));
        }
    }
}

/// `grads[idx] (+)= f(g)` elementwise (same-shape inputs only).
pub(crate) fn fused_map1(
    grads: &mut [Option<Tensor>],
    idx: usize,
    g: &Tensor,
    f: impl Fn(f32) -> f32 + Sync,
) {
    let gd = g.data();
    fused_apply(grads, idx, g.shape(), &|e| f(gd[e]));
}

/// `grads[idx] (+)= f(g, x)` elementwise (same-shape inputs only).
pub(crate) fn fused_map2(
    grads: &mut [Option<Tensor>],
    idx: usize,
    g: &Tensor,
    x: &Tensor,
    f: impl Fn(f32, f32) -> f32 + Sync,
) {
    debug_assert_eq!(g.shape(), x.shape(), "fused_map2 shape mismatch");
    let gd = g.data();
    let xd = x.data();
    fused_apply(grads, idx, g.shape(), &|e| f(gd[e], xd[e]));
}

/// `grads[idx] (+)= f(g, a, b)` elementwise (same-shape inputs only).
pub(crate) fn fused_map3(
    grads: &mut [Option<Tensor>],
    idx: usize,
    g: &Tensor,
    a: &Tensor,
    b: &Tensor,
    f: impl Fn(f32, f32, f32) -> f32 + Sync,
) {
    debug_assert_eq!(g.shape(), a.shape(), "fused_map3 shape mismatch");
    debug_assert_eq!(g.shape(), b.shape(), "fused_map3 shape mismatch");
    let gd = g.data();
    let ad = a.data();
    let bd = b.data();
    fused_apply(grads, idx, g.shape(), &|e| f(gd[e], ad[e], bd[e]));
}

/// `grads[idx] (+)= g * x` elementwise through the SIMD seam
/// ([`crate::simd::mul_acc`]). The scalar fallback inside the seam is the
/// literal loop `fused_map2` would run (`dst (+)= g[e] * x[e]`, ascending
/// `e`), and the AVX2 arm does mul-then-add per lane in the same order, so
/// all three paths are bitwise identical. With the fast kernels disabled
/// (`URCL_SIMD=0`) this routes through [`fused_map2`] so the disabled path
/// stays byte-for-byte the seed code path.
pub(crate) fn fused_mul_acc(grads: &mut [Option<Tensor>], idx: usize, g: &Tensor, x: &Tensor) {
    if !crate::simd::fast_kernels() {
        return fused_map2(grads, idx, g, x, |gv, xv| gv * xv);
    }
    debug_assert_eq!(g.shape(), x.shape(), "fused_mul_acc shape mismatch");
    let gd = g.data();
    let xd = x.data();
    let n = gd.len();
    match &mut grads[idx] {
        Some(existing) => {
            debug_assert_eq!(existing.shape(), g.shape(), "fused gradient shape mismatch");
            let dst = existing.data_mut();
            if n < PAR_MIN_ELEMS {
                crate::simd::mul_acc(dst, gd, xd, true);
            } else {
                par_fill(dst, PAR_MIN_ELEMS / 4, |chunk, r| {
                    crate::simd::mul_acc(chunk, &gd[r.clone()], &xd[r], true);
                });
            }
        }
        slot @ None => {
            let mut data = pool::take_uninit(n);
            if n < PAR_MIN_ELEMS {
                crate::simd::mul_acc(&mut data, gd, xd, false);
            } else {
                par_fill(&mut data, PAR_MIN_ELEMS / 4, |chunk, r| {
                    crate::simd::mul_acc(chunk, &gd[r.clone()], &xd[r], false);
                });
            }
            *slot = Some(Tensor::from_vec(data, g.shape()));
        }
    }
}

/// `grads[idx] (+)= g * c` elementwise through the SIMD seam
/// ([`crate::simd::scale_acc`]); same bitwise-parity contract as
/// [`fused_mul_acc`], with [`fused_map1`] as the `URCL_SIMD=0` route.
pub(crate) fn fused_scale_acc(grads: &mut [Option<Tensor>], idx: usize, g: &Tensor, c: f32) {
    if !crate::simd::fast_kernels() {
        return fused_map1(grads, idx, g, move |gv| gv * c);
    }
    let gd = g.data();
    let n = gd.len();
    match &mut grads[idx] {
        Some(existing) => {
            debug_assert_eq!(existing.shape(), g.shape(), "fused gradient shape mismatch");
            let dst = existing.data_mut();
            if n < PAR_MIN_ELEMS {
                crate::simd::scale_acc(dst, gd, c, true);
            } else {
                par_fill(dst, PAR_MIN_ELEMS / 4, |chunk, r| {
                    crate::simd::scale_acc(chunk, &gd[r], c, true);
                });
            }
        }
        slot @ None => {
            let mut data = pool::take_uninit(n);
            if n < PAR_MIN_ELEMS {
                crate::simd::scale_acc(&mut data, gd, c, false);
            } else {
                par_fill(&mut data, PAR_MIN_ELEMS / 4, |chunk, r| {
                    crate::simd::scale_acc(chunk, &gd[r], c, false);
                });
            }
            *slot = Some(Tensor::from_vec(data, g.shape()));
        }
    }
}

/// Embeds a gradient of the narrowed slice back into a zero tensor of the
/// input's shape.
pub(crate) fn narrow_scatter(
    g: &Tensor,
    in_shape: &[usize],
    axis: usize,
    start: usize,
    len: usize,
) -> Tensor {
    let mut out = Tensor::zeros(in_shape);
    let outer: usize = in_shape[..axis].iter().product();
    let inner: usize = in_shape[axis + 1..].iter().product();
    let d = in_shape[axis];
    let gd = g.data();
    let od = out.data_mut();
    for o in 0..outer {
        let src = o * len * inner;
        let dst = o * d * inner + start * inner;
        od[dst..dst + len * inner].copy_from_slice(&gd[src..src + len * inner]);
    }
    out
}

/// Gradients of a dilated causal 1-D convolution w.r.t. input and weight.
///
/// `dx` is parallelized over (batch, in-channel) and `dw` over
/// (out-channel, in-channel): each work item owns a disjoint output slice
/// and accumulates in a fixed loop order, so results are bitwise identical
/// at any thread count. Inner loops clamp the valid `to` range up front
/// (no per-tap bounds tests, no zero-value shortcuts).
fn conv1d_backward(
    g: &Tensor,
    x: &Tensor,
    w: &Tensor,
    dilation: usize,
    pad_left: usize,
) -> (Tensor, Tensor) {
    let dx = conv1d_backward_dx(g, x.shape(), w, dilation, pad_left);
    let dw = conv1d_backward_dw(g, x, w.shape(), dilation, pad_left);
    (dx, dw)
}

/// Input gradient of a dilated causal 1-D convolution. Only the *shape*
/// of `x` is needed (the data gradient never reads the input values), so
/// callers that skip the weight gradient — the plan executor's
/// dead-gradient elimination — can drop the input tensor early.
pub(crate) fn conv1d_backward_dx(
    g: &Tensor,
    x_shape: &[usize],
    w: &Tensor,
    dilation: usize,
    pad_left: usize,
) -> Tensor {
    use crate::parallel::{parallel_for, SendPtr, PAR_MIN_FLOPS};

    let (b, cin, t) = (x_shape[0], x_shape[1], x_shape[2]);
    let (cout, _, k) = (w.shape()[0], w.shape()[1], w.shape()[2]);
    let t_out = g.shape()[2];
    let mut dx = Tensor::zeros(x_shape);
    let gd = g.data();
    let wd = w.data();
    // Valid to-range for tap ki: j = to + ki*dilation - pad_left in [0, t).
    let to_range = |shift: usize| -> (usize, usize) {
        (
            pad_left.saturating_sub(shift),
            t_out.min((t + pad_left).saturating_sub(shift)),
        )
    };
    let flops = b * cout * cin * k * t_out;

    // dx via an im2col-of-g GEMM when pooling is on and the time rows are
    // short (per-tap slice setup dominates the direct loop there). Bits
    // are unchanged: each dx element is a single flat +0.0-seeded running
    // sum over (co, ki) ascending — exactly the direct loop's order — the
    // `cout*k <= KC` guard keeps the GEMM from splitting that sum into KC
    // partials, and taps the direct loop clamps away become `w * 0.0`
    // terms, which never change the bits of a +0.0-seeded sum.
    let dx_gemm = crate::pool::pooling_enabled() && t < crate::gemm::NR && cout * k <= crate::gemm::KC;
    if dx_gemm {
        use crate::pool;
        // wT[ci, co*k + ki] = w[co, ci, ki]
        let kk = cout * k;
        let mut wt = pool::take_uninit(cin * kk);
        for ci in 0..cin {
            for co in 0..cout {
                for ki in 0..k {
                    wt[ci * kk + co * k + ki] = wd[(co * cin + ci) * k + ki];
                }
            }
        }
        // gcol[co*k + ki, bi*t + j] = g[bi, co, j + pad - ki*dilation]
        // (the tap that touches input position j), zero where clamped.
        let cols_n = b * t;
        let mut gcol = pool::take_zeroed(kk * cols_n);
        for co in 0..cout {
            for ki in 0..k {
                let shift = ki * dilation;
                let (to_lo, to_hi) = to_range(shift);
                if to_lo >= to_hi {
                    continue;
                }
                let j_lo = to_lo + shift - pad_left;
                let row = &mut gcol[(co * k + ki) * cols_n..][..cols_n];
                for bi in 0..b {
                    let src = &gd[(bi * cout + co) * t_out + to_lo..][..to_hi - to_lo];
                    row[bi * t + j_lo..][..to_hi - to_lo].copy_from_slice(src);
                }
            }
        }
        let mut dx_mat = pool::take_uninit(cin * cols_n);
        let threads = crate::parallel::num_threads();
        if flops < PAR_MIN_FLOPS || threads == 1 {
            crate::gemm::gemm_strided(cin, kk, cols_n, &wt, kk, 1, &gcol, cols_n, 1, &mut dx_mat);
        } else {
            let strip = cin.div_ceil(2 * threads).max(1);
            let strips = cin.div_ceil(strip);
            let mat_ptr = SendPtr(dx_mat.as_mut_ptr());
            parallel_for(strips, 1, |r| {
                for s in r {
                    let r0 = s * strip;
                    let rows = strip.min(cin - r0);
                    // SAFETY: strip s owns dx_mat rows [r0, r0 + rows).
                    let o = unsafe { mat_ptr.slice(r0 * cols_n, rows * cols_n) };
                    crate::gemm::gemm_strided(
                        rows, kk, cols_n, &wt[r0 * kk..], kk, 1, &gcol, cols_n, 1, o,
                    );
                }
            });
        }
        // Scatter [ci, (bi, j)] back to [bi, ci, j]; every element is
        // covered, so this fully overwrites dx.
        let dxd = dx.data_mut();
        for bi in 0..b {
            for ci in 0..cin {
                let src = &dx_mat[ci * cols_n + bi * t..][..t];
                dxd[(bi * cin + ci) * t..][..t].copy_from_slice(src);
            }
        }
        pool::recycle(dx_mat);
        pool::recycle(gcol);
        pool::recycle(wt);
    } else {
        let dx_ptr = SendPtr(dx.data_mut().as_mut_ptr());
        let dx_item = |item: usize| {
            let bi = item / cin;
            let ci = item % cin;
            // SAFETY: item owns dx slice [(bi*cin+ci)*t ..][..t].
            let dxrow = unsafe { dx_ptr.slice((bi * cin + ci) * t, t) };
            for co in 0..cout {
                let g_base = (bi * cout + co) * t_out;
                let w_base = (co * cin + ci) * k;
                for ki in 0..k {
                    let shift = ki * dilation;
                    let wv = wd[w_base + ki];
                    let (to_lo, to_hi) = to_range(shift);
                    if to_lo >= to_hi {
                        continue;
                    }
                    let src = &gd[g_base + to_lo..g_base + to_hi];
                    let dst = &mut dxrow[to_lo + shift - pad_left..][..to_hi - to_lo];
                    for (o, &gv) in dst.iter_mut().zip(src) {
                        *o += wv * gv;
                    }
                }
            }
        };
        if flops < PAR_MIN_FLOPS {
            for item in 0..b * cin {
                dx_item(item);
            }
        } else {
            parallel_for(b * cin, 1, |r| {
                for item in r {
                    dx_item(item);
                }
            });
        }
    }
    dx
}

/// Weight gradient of a dilated causal 1-D convolution. Only the *shape*
/// of `w` is needed, so callers that skip the input gradient can drop the
/// weight tensor early.
pub(crate) fn conv1d_backward_dw(
    g: &Tensor,
    x: &Tensor,
    w_shape: &[usize],
    dilation: usize,
    pad_left: usize,
) -> Tensor {
    use crate::parallel::{parallel_for, SendPtr, PAR_MIN_FLOPS};

    let (b, cin, t) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (cout, k) = (w_shape[0], w_shape[2]);
    let t_out = g.shape()[2];
    let mut dw = Tensor::zeros(w_shape);
    let gd = g.data();
    let xd = x.data();
    let to_range = |shift: usize| -> (usize, usize) {
        (
            pad_left.saturating_sub(shift),
            t_out.min((t + pad_left).saturating_sub(shift)),
        )
    };
    let flops = b * cout * cin * k * t_out;

    // dw via per-batch `g_bi @ im2col(x_bi)^T` GEMMs. Unlike dx, the
    // direct dw loop does NOT keep one flat running sum per element — it
    // accumulates a register dot product per (bi, ki) and adds those
    // partials in bi order. The lowering reproduces that grouping
    // exactly: each per-batch GEMM computes the same to-ascending dot
    // (clamped taps appear as `g * 0.0` terms — adding a signed zero to a
    // +0.0-seeded sum is the identity), and the partials are then summed
    // serially in bi order, so every bit matches the direct loop.
    let dw_gemm = crate::pool::pooling_enabled() && t_out < crate::gemm::NR;
    if dw_gemm {
        use crate::pool;
        let kk = cin * k;
        let mut partials = pool::take_uninit(b * cout * kk);
        {
            let part_ptr = SendPtr(partials.as_mut_ptr());
            let bi_item = |bi: usize| {
                // colsxt[to, ci*k + ki] = x[bi, ci, to + ki*dilation - pad]
                let mut colsxt = pool::take_zeroed(t_out * kk);
                for ci in 0..cin {
                    for ki in 0..k {
                        let shift = ki * dilation;
                        let (to_lo, to_hi) = to_range(shift);
                        if to_lo >= to_hi {
                            continue;
                        }
                        let x_base = (bi * cin + ci) * t + to_lo + shift - pad_left;
                        for to in to_lo..to_hi {
                            colsxt[to * kk + ci * k + ki] = xd[x_base + (to - to_lo)];
                        }
                    }
                }
                // SAFETY: item bi owns partials[bi*cout*kk ..][..cout*kk].
                let o = unsafe { part_ptr.slice(bi * cout * kk, cout * kk) };
                crate::gemm::gemm_strided(
                    cout,
                    t_out,
                    kk,
                    &gd[bi * cout * t_out..],
                    t_out,
                    1,
                    &colsxt,
                    kk,
                    1,
                    o,
                );
                pool::recycle(colsxt);
            };
            if flops < PAR_MIN_FLOPS {
                for bi in 0..b {
                    bi_item(bi);
                }
            } else {
                parallel_for(b, 1, |r| {
                    for bi in r {
                        bi_item(bi);
                    }
                });
            }
        }
        // dw's [co, ci, ki] layout is exactly the partials' [co, (ci, ki)]
        // row-major layout, so the bi-ordered accumulate is a flat zip.
        let dwd = dw.data_mut();
        for bi in 0..b {
            let part = &partials[bi * cout * kk..][..cout * kk];
            for (slot, &p) in dwd.iter_mut().zip(part) {
                *slot += p;
            }
        }
        pool::recycle(partials);
    } else {
        let dw_ptr = SendPtr(dw.data_mut().as_mut_ptr());
        let dw_item = |item: usize| {
            let co = item / cin;
            let ci = item % cin;
            // SAFETY: item owns dw slice [(co*cin+ci)*k ..][..k].
            let dwrow = unsafe { dw_ptr.slice((co * cin + ci) * k, k) };
            for bi in 0..b {
                let g_base = (bi * cout + co) * t_out;
                let x_base = (bi * cin + ci) * t;
                for (ki, slot) in dwrow.iter_mut().enumerate() {
                    let shift = ki * dilation;
                    let (to_lo, to_hi) = to_range(shift);
                    if to_lo >= to_hi {
                        continue;
                    }
                    let gs = &gd[g_base + to_lo..g_base + to_hi];
                    let xs = &xd[x_base + to_lo + shift - pad_left..][..to_hi - to_lo];
                    let mut acc = 0.0f32;
                    for (&gv, &xv) in gs.iter().zip(xs) {
                        acc += gv * xv;
                    }
                    *slot += acc;
                }
            }
        };
        if flops < PAR_MIN_FLOPS {
            for item in 0..cout * cin {
                dw_item(item);
            }
        } else {
            parallel_for(cout * cin, 1, |r| {
                for item in r {
                    dw_item(item);
                }
            });
        }
    }
    dw
}

/// Builds the transposed per-batch im2col panel used by the dw GEMM
/// lowering: `cols[bi*t_out*kk + to*kk + ci*k + ki] =
/// x[bi, ci, to + ki*dilation - pad_left]` (zero where the tap is
/// clamped), with `kk = cin*k`. Like the forward panel, it depends only
/// on the input values and the conv geometry — not on `g` — so sibling
/// convolutions sharing an input (a gated TCN's filter/gate pair) can
/// build it once and reuse it for both weight gradients.
pub(crate) fn conv1d_dw_cols(
    x: &Tensor,
    k: usize,
    dilation: usize,
    pad_left: usize,
    t_out: usize,
) -> crate::pool::Buffer {
    use crate::parallel::{parallel_for, SendPtr, PAR_MIN_ELEMS};
    use crate::pool;

    let (b, cin, t) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let kk = cin * k;
    let xd = x.data();
    // With no left padding every panel slot is written below (to_lo is 0
    // and to_hi is t_out for every tap), so the zero-fill is pure waste;
    // padded convs keep it for the clamped slots.
    let mut cols = if pad_left == 0 {
        pool::take_uninit(b * t_out * kk)
    } else {
        pool::take_zeroed(b * t_out * kk)
    };
    let cols_ptr = SendPtr(cols.as_mut_ptr());
    let bi_item = |bi: usize| {
        // SAFETY: item bi owns cols[bi*t_out*kk ..][..t_out*kk].
        let panel = unsafe { cols_ptr.slice(bi * t_out * kk, t_out * kk) };
        for ci in 0..cin {
            for ki in 0..k {
                let shift = ki * dilation;
                let to_lo = pad_left.saturating_sub(shift);
                let to_hi = t_out.min((t + pad_left).saturating_sub(shift));
                if to_lo >= to_hi {
                    continue;
                }
                let x_base = (bi * cin + ci) * t + to_lo + shift - pad_left;
                for to in to_lo..to_hi {
                    panel[to * kk + ci * k + ki] = xd[x_base + (to - to_lo)];
                }
            }
        }
    };
    // Serial when small — or when requested threads exceed the physical
    // cores, where dispatch is pure overhead (bitwise identical either
    // way: items only partition the panel).
    let par_ok = crate::parallel::num_threads() > 1 && crate::parallel::host_parallelism() > 1;
    if b * t_out * kk < PAR_MIN_ELEMS || !par_ok {
        for bi in 0..b {
            bi_item(bi);
        }
    } else {
        parallel_for(b, 1, |r| {
            for bi in r {
                bi_item(bi);
            }
        });
    }
    cols
}

/// Weight gradient of a dilated causal 1-D convolution from a prebuilt
/// [`conv1d_dw_cols`] panel. Bitwise identical to the GEMM branch of
/// [`conv1d_backward_dw`] (same per-batch GEMMs over the same panel
/// values, same bi-ordered serial accumulate); callers must check the
/// same `pooling_enabled() && t_out < NR` guard that selects that
/// branch before using this path.
pub(crate) fn conv1d_backward_dw_with_cols(
    g: &Tensor,
    x_shape: &[usize],
    w_shape: &[usize],
    cols: &[f32],
) -> Tensor {
    use crate::parallel::{parallel_for, SendPtr, PAR_MIN_FLOPS};
    use crate::pool;

    let (b, cin) = (x_shape[0], x_shape[1]);
    let (cout, k) = (w_shape[0], w_shape[2]);
    let t_out = g.shape()[2];
    let kk = cin * k;
    let mut dw = Tensor::zeros(w_shape);
    let gd = g.data();
    let flops = b * cout * cin * k * t_out;
    let mut partials = pool::take_uninit(b * cout * kk);
    {
        let part_ptr = SendPtr(partials.as_mut_ptr());
        let bi_item = |bi: usize| {
            let colsxt = &cols[bi * t_out * kk..][..t_out * kk];
            // SAFETY: item bi owns partials[bi*cout*kk ..][..cout*kk].
            let o = unsafe { part_ptr.slice(bi * cout * kk, cout * kk) };
            crate::gemm::gemm_strided(
                cout,
                t_out,
                kk,
                &gd[bi * cout * t_out..],
                t_out,
                1,
                colsxt,
                kk,
                1,
                o,
            );
        };
        if flops < PAR_MIN_FLOPS {
            for bi in 0..b {
                bi_item(bi);
            }
        } else {
            parallel_for(b, 1, |r| {
                for bi in r {
                    bi_item(bi);
                }
            });
        }
    }
    // Same bi-ordered flat-zip accumulate as `conv1d_backward_dw`.
    let dwd = dw.data_mut();
    for bi in 0..b {
        let part = &partials[bi * cout * kk..][..cout * kk];
        for (slot, &p) in dwd.iter_mut().zip(part) {
            *slot += p;
        }
    }
    pool::recycle(partials);
    dw
}

/// Per-node gradients produced by [`Tape::backward`].
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Wraps a raw per-node gradient vector (used by the plan executor,
    /// whose backward pass produces the same indexed layout).
    pub(crate) fn from_raw(grads: Vec<Option<Tensor>>) -> Self {
        Gradients { grads }
    }

    /// Gradient of the loss w.r.t. `v`, if any path reached it.
    pub fn get(&self, v: Var<'_>) -> Option<&Tensor> {
        self.grads.get(v.idx).and_then(|g| g.as_ref())
    }

    /// Gradient by raw node index (used by [`Session`]).
    pub fn by_index(&self, idx: usize) -> Option<&Tensor> {
        self.grads.get(idx).and_then(|g| g.as_ref())
    }
}

/// A differentiable variable: a copyable handle into a [`Tape`].
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    idx: usize,
}

#[allow(clippy::should_implement_trait)] // add/sub/mul/div/neg mirror tensor math, not std ops
impl<'t> Var<'t> {
    /// Raw node index (stable for the lifetime of the tape).
    pub fn index(&self) -> usize {
        self.idx
    }

    /// Clones the forward value.
    pub fn value(&self) -> Tensor {
        self.tape.value(*self)
    }

    /// Shape of the forward value.
    pub fn shape(&self) -> Vec<usize> {
        self.tape.nodes.borrow()[self.idx].value.shape().to_vec()
    }

    fn unary(self, f: impl FnOnce(&Tensor) -> Tensor, op: Op) -> Var<'t> {
        let prof = crate::opprof::op_profile_enabled();
        let t0 = if prof {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let value = {
            let nodes = self.tape.nodes.borrow();
            f(&nodes[self.idx].value)
        };
        if let (Some(t0), Some(k)) = (t0, kind_index(&op)) {
            crate::opprof::record_forward(k, t0.elapsed().as_nanos() as u64);
        }
        self.tape.push(value, op)
    }

    fn binary(self, other: Var<'t>, f: impl FnOnce(&Tensor, &Tensor) -> Tensor, op: Op) -> Var<'t> {
        assert!(
            std::ptr::eq(self.tape, other.tape),
            "variables belong to different tapes"
        );
        let prof = crate::opprof::op_profile_enabled();
        let t0 = if prof {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let value = {
            let nodes = self.tape.nodes.borrow();
            f(&nodes[self.idx].value, &nodes[other.idx].value)
        };
        if let (Some(t0), Some(k)) = (t0, kind_index(&op)) {
            crate::opprof::record_forward(k, t0.elapsed().as_nanos() as u64);
        }
        self.tape.push(value, op)
    }

    /// Elementwise addition (broadcasting).
    pub fn add(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, |a, b| a.add(b), Op::Add(self.idx, other.idx))
    }

    /// Elementwise subtraction (broadcasting).
    pub fn sub(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, |a, b| a.sub(b), Op::Sub(self.idx, other.idx))
    }

    /// Elementwise multiplication (broadcasting).
    pub fn mul(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, |a, b| a.mul(b), Op::Mul(self.idx, other.idx))
    }

    /// Elementwise division (broadcasting).
    pub fn div(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, |a, b| a.div(b), Op::Div(self.idx, other.idx))
    }

    /// Negation.
    pub fn neg(self) -> Var<'t> {
        self.unary(|a| a.scale(-1.0), Op::Neg(self.idx))
    }

    /// Scalar multiply.
    pub fn scale(self, c: f32) -> Var<'t> {
        self.unary(|a| a.scale(c), Op::Scale(self.idx, c))
    }

    /// Scalar add.
    pub fn add_scalar(self, c: f32) -> Var<'t> {
        self.unary(|a| a.add_scalar(c), Op::AddScalar(self.idx, c))
    }

    /// Elementwise power with a constant exponent.
    pub fn powf(self, p: f32) -> Var<'t> {
        self.unary(|a| a.map(|v| v.powf(p)), Op::PowF(self.idx, p))
    }

    /// Elementwise exponential.
    pub fn exp(self) -> Var<'t> {
        self.unary(|a| a.map(f32::exp), Op::Exp(self.idx))
    }

    /// Elementwise natural logarithm.
    pub fn ln(self) -> Var<'t> {
        self.unary(|a| a.map(f32::ln), Op::Ln(self.idx))
    }

    /// Elementwise square root.
    pub fn sqrt(self) -> Var<'t> {
        self.unary(|a| a.map(f32::sqrt), Op::Sqrt(self.idx))
    }

    /// Elementwise absolute value.
    pub fn abs(self) -> Var<'t> {
        self.unary(|a| a.map(f32::abs), Op::Abs(self.idx))
    }

    /// Rectified linear unit.
    pub fn relu(self) -> Var<'t> {
        self.unary(|a| a.map(|v| v.max(0.0)), Op::Relu(self.idx))
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(self, slope: f32) -> Var<'t> {
        self.unary(
            |a| a.map(|v| if v > 0.0 { v } else { slope * v }),
            Op::LeakyRelu(self.idx, slope),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(self) -> Var<'t> {
        self.unary(
            |a| a.map(|v| 1.0 / (1.0 + (-v).exp())),
            Op::Sigmoid(self.idx),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(self) -> Var<'t> {
        self.unary(|a| a.map(f32::tanh), Op::Tanh(self.idx))
    }

    /// Matrix product (batched with broadcasting, see [`Tensor::matmul`]).
    pub fn matmul(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, |a, b| a.matmul(b), Op::MatMul(self.idx, other.idx))
    }

    /// Generalized transpose.
    pub fn permute(self, perm: &[usize]) -> Var<'t> {
        let p = perm.to_vec();
        self.unary(|a| a.permute(perm), Op::Permute(self.idx, p))
    }

    /// Swaps two axes.
    pub fn transpose(self, a: usize, b: usize) -> Var<'t> {
        let ndim = self.shape().len();
        let mut perm: Vec<usize> = (0..ndim).collect();
        perm.swap(a, b);
        self.permute(&perm)
    }

    /// Reshape preserving element count.
    pub fn reshape(self, shape: &[usize]) -> Var<'t> {
        assert_eq!(
            numel(shape),
            numel(&self.shape()),
            "reshape changes element count"
        );
        self.unary(|a| a.clone().reshape(shape), Op::Reshape(self.idx))
    }

    /// Sum over axes.
    pub fn sum_axes(self, axes: &[usize], keepdim: bool) -> Var<'t> {
        let ax = axes.to_vec();
        self.unary(
            |a| a.sum_axes(axes, keepdim),
            Op::SumAxes {
                input: self.idx,
                axes: ax,
                keepdim,
            },
        )
    }

    /// Mean over axes (sum then scale).
    pub fn mean_axes(self, axes: &[usize], keepdim: bool) -> Var<'t> {
        let shape = self.shape();
        let n: usize = axes.iter().map(|&a| shape[a]).product();
        self.sum_axes(axes, keepdim).scale(1.0 / n.max(1) as f32)
    }

    /// Sum of all elements, as a `[1]`-shaped variable.
    pub fn sum_all(self) -> Var<'t> {
        self.unary(
            |a| Tensor::scalar(a.sum_all()),
            Op::SumAll(self.idx),
        )
    }

    /// Mean of all elements, as a `[1]`-shaped variable.
    pub fn mean_all(self) -> Var<'t> {
        self.unary(
            |a| Tensor::scalar(a.mean_all()),
            Op::MeanAll(self.idx),
        )
    }

    /// Softmax along `axis`.
    pub fn softmax(self, axis: usize) -> Var<'t> {
        self.unary(|a| a.softmax(axis), Op::Softmax(self.idx, axis))
    }

    /// Slice along an axis.
    pub fn narrow(self, axis: usize, start: usize, len: usize) -> Var<'t> {
        self.unary(
            |a| a.narrow(axis, start, len),
            Op::Narrow {
                input: self.idx,
                axis,
                start,
                len,
            },
        )
    }

    /// Dilated causal 1-D convolution; see [`Tensor::conv1d`].
    pub fn conv1d(self, weight: Var<'t>, dilation: usize, pad_left: usize) -> Var<'t> {
        self.binary(
            weight,
            |x, w| x.conv1d(w, dilation, pad_left),
            Op::Conv1d {
                input: self.idx,
                weight: weight.idx,
                dilation,
                pad_left,
            },
        )
    }

    /// Stop-gradient: identity forward, zero backward (Eq. 13's `SG(·)`).
    pub fn detach(self) -> Var<'t> {
        self.unary(Clone::clone, Op::Detach(self.idx))
    }

    /// L2-normalizes along `axis` (used by the cosine similarity of the
    /// STSimSiam loss). Adds a small epsilon for stability.
    pub fn l2_normalize(self, axis: usize) -> Var<'t> {
        let norm = self
            .mul(self)
            .sum_axes(&[axis], true)
            .add_scalar(1e-12)
            .sqrt();
        self.div(norm)
    }
}

/// Binds a [`ParamStore`] to a [`Tape`], memoizing one leaf node per
/// parameter so that shared parameters (e.g. the STEncoder used by both the
/// prediction head and STSimSiam) receive accumulated gradients.
///
/// Sessions also carry the **input-slot registry**: recording code can
/// register a constant under a scoped name ([`Session::slot_input`]), and
/// a plan-compiling caller can look those names up afterwards to promote
/// the constants to per-replay plan inputs (graph supports, contrastive
/// masks) instead of letting them be captured at compile time.
pub struct Session<'t, 's> {
    tape: &'t Tape,
    store: &'s ParamStore,
    bindings: Vec<(ParamId, usize)>,
    /// `(scoped name, node index)` in recording order.
    slots: Vec<(String, usize)>,
    /// Active scope names; joined with `.` to prefix slot names.
    scope: Vec<String>,
}

impl<'t, 's> Session<'t, 's> {
    /// Creates a session binding `store` to `tape`.
    pub fn new(tape: &'t Tape, store: &'s ParamStore) -> Self {
        Self {
            tape,
            store,
            bindings: Vec::new(),
            slots: Vec::new(),
            scope: Vec::new(),
        }
    }

    /// The underlying tape.
    pub fn tape(&self) -> &'t Tape {
        self.tape
    }

    /// Returns the tape variable for a parameter, creating the leaf on
    /// first use.
    pub fn param(&mut self, id: ParamId) -> Var<'t> {
        if let Some(&(_, idx)) = self.bindings.iter().find(|(pid, _)| *pid == id) {
            return Var {
                tape: self.tape,
                idx,
            };
        }
        let v = self.tape.leaf(self.store.value(id).clone());
        self.bindings.push((id, v.idx));
        v
    }

    /// Registers input data as a constant variable.
    pub fn input(&self, value: Tensor) -> Var<'t> {
        self.tape.constant(value)
    }

    /// Pushes `name` onto the slot scope stack: until the matching
    /// [`Session::pop_scope`], every [`Session::slot_input`] name is
    /// prefixed with `name.` (scopes nest, outermost first).
    pub fn push_scope(&mut self, name: &str) {
        self.scope.push(name.to_string());
    }

    /// Pops the innermost slot scope pushed by [`Session::push_scope`].
    pub fn pop_scope(&mut self) {
        self.scope
            .pop()
            .expect("pop_scope without a matching push_scope");
    }

    /// Registers a constant like [`Session::input`] and records it in the
    /// slot registry under `name`, prefixed by the active scopes. The
    /// recorded graph is identical to a plain `input` call — slots only
    /// add metadata that a plan compiler may use to bind this node per
    /// replay instead of capturing its value.
    pub fn slot_input(&mut self, name: &str, value: Tensor) -> Var<'t> {
        let v = self.tape.constant(value);
        let full = if self.scope.is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", self.scope.join("."), name)
        };
        self.slots.push((full, v.idx));
        v
    }

    /// All registered slots as `(scoped name, node index)`, in recording
    /// order.
    pub fn slots(&self) -> &[(String, usize)] {
        &self.slots
    }

    /// Node indices of slots whose scoped name equals `name` exactly, in
    /// recording order.
    pub fn slot_nodes(&self, name: &str) -> Vec<usize> {
        self.slots
            .iter()
            .filter(|(n, _)| n == name)
            .map(|&(_, idx)| idx)
            .collect()
    }

    /// Node indices of slots whose scoped name starts with `prefix`, in
    /// recording order.
    pub fn slot_nodes_prefix(&self, prefix: &str) -> Vec<usize> {
        self.slots
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|&(_, idx)| idx)
            .collect()
    }

    /// Consumes the session, returning `(ParamId, node index)` bindings for
    /// gradient extraction.
    pub fn into_bindings(self) -> Vec<(ParamId, usize)> {
        self.bindings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::from_vec(v, s)
    }

    #[test]
    fn add_backward_broadcast() {
        let tape = Tape::new();
        let a = tape.leaf(t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]));
        let b = tape.leaf(t(vec![1.0, 1.0, 1.0], &[3]));
        let loss = a.add(b).sum_all();
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[1.0; 6]);
        assert_eq!(g.get(b).unwrap().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn mul_backward() {
        let tape = Tape::new();
        let a = tape.leaf(t(vec![2.0, 3.0], &[2]));
        let b = tape.leaf(t(vec![5.0, 7.0], &[2]));
        let loss = a.mul(b).sum_all();
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[5.0, 7.0]);
        assert_eq!(g.get(b).unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn matmul_backward_shapes() {
        let tape = Tape::new();
        let a = tape.leaf(t(vec![1.0; 6], &[2, 3]));
        let b = tape.leaf(t(vec![1.0; 12], &[3, 4]));
        let loss = a.matmul(b).sum_all();
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().shape(), &[2, 3]);
        assert_eq!(g.get(b).unwrap().shape(), &[3, 4]);
        // dA = ones(2,4) @ B^T = each entry 4 (row sums of ones B)
        assert_eq!(g.get(a).unwrap().data(), &[4.0; 6]);
        assert_eq!(g.get(b).unwrap().data(), &[2.0; 12]);
    }

    #[test]
    fn matmul_backward_broadcast_lhs() {
        // A[2,2] shared across a batch of 3: grads accumulate over batch.
        let tape = Tape::new();
        let a = tape.leaf(Tensor::eye(2));
        let x = tape.leaf(Tensor::ones(&[3, 2, 2]));
        let loss = a.matmul(x).sum_all();
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().shape(), &[2, 2]);
        // dA = sum over batch of g @ X^T = 3 * ones@ones^T = all 6
        assert_eq!(g.get(a).unwrap().data(), &[6.0; 4]);
    }

    #[test]
    fn chain_rule_through_tanh() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![0.5], &[1]));
        let y = x.tanh().mul(x.tanh()); // tanh(x)^2
        let g = tape.backward(y.sum_all());
        let th = 0.5f32.tanh();
        let expected = 2.0 * th * (1.0 - th * th);
        assert!((g.get(x).unwrap().data()[0] - expected).abs() < 1e-5);
    }

    #[test]
    fn detach_blocks_gradient() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![3.0], &[1]));
        let loss = x.detach().mul(x).sum_all(); // treated as c*x
        let g = tape.backward(loss);
        assert_eq!(g.get(x).unwrap().data(), &[3.0]); // only the non-detached path
    }

    #[test]
    fn shared_leaf_accumulates() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![2.0], &[1]));
        let loss = x.mul(x).sum_all(); // x^2
        let g = tape.backward(loss);
        assert_eq!(g.get(x).unwrap().data(), &[4.0]);
    }

    #[test]
    fn softmax_backward_sums_to_zero() {
        // Softmax gradient rows always sum to ~0 when upstream grad hits a
        // single logit.
        let tape = Tape::new();
        let x = tape.leaf(t(vec![1.0, 2.0, 3.0], &[1, 3]));
        let y = x.softmax(1);
        let first = y.narrow(1, 0, 1).sum_all();
        let g = tape.backward(first);
        let gx = g.get(x).unwrap();
        let s: f32 = gx.data().iter().sum();
        assert!(s.abs() < 1e-6, "softmax grad sum {s}");
    }

    #[test]
    fn concat_backward_splits() {
        let tape = Tape::new();
        let a = tape.leaf(t(vec![1.0, 2.0], &[1, 2]));
        let b = tape.leaf(t(vec![3.0], &[1, 1]));
        let c = tape.concat(&[a, b], 1);
        let loss = c.mul(c).sum_all();
        let g = tape.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[2.0, 4.0]);
        assert_eq!(g.get(b).unwrap().data(), &[6.0]);
    }

    #[test]
    fn narrow_backward_scatters() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![1.0, 2.0, 3.0, 4.0], &[4]));
        let loss = x.narrow(0, 1, 2).sum_all();
        let g = tape.backward(loss);
        assert_eq!(g.get(x).unwrap().data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn conv1d_backward_matches_manual() {
        // y = conv(x, w) with K=2, no pad: y[t] = w0 x[t] + w1 x[t+1]
        let tape = Tape::new();
        let x = tape.leaf(t(vec![1.0, 2.0, 3.0], &[1, 1, 3]));
        let w = tape.leaf(t(vec![10.0, 20.0], &[1, 1, 2]));
        let y = x.conv1d(w, 1, 0); // length 2
        let g = tape.backward(y.sum_all());
        // dL/dw0 = x0+x1 = 3; dL/dw1 = x1+x2 = 5
        assert_eq!(g.get(w).unwrap().data(), &[3.0, 5.0]);
        // dL/dx = [w0, w0+w1, w1]
        assert_eq!(g.get(x).unwrap().data(), &[10.0, 30.0, 20.0]);
    }

    #[test]
    fn sum_axes_backward_no_keepdim() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]));
        let s = x.sum_axes(&[0], false); // shape [3]
        let w = tape.constant(t(vec![1.0, 10.0, 100.0], &[3]));
        let loss = s.mul(w).sum_all();
        let g = tape.backward(loss);
        assert_eq!(g.get(x).unwrap().data(), &[1.0, 10.0, 100.0, 1.0, 10.0, 100.0]);
    }

    #[test]
    fn l2_normalize_unit_norm() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![3.0, 4.0], &[1, 2]));
        let n = x.l2_normalize(1);
        let v = n.value();
        assert!((v.data()[0] - 0.6).abs() < 1e-5);
        assert!((v.data()[1] - 0.8).abs() < 1e-5);
        // Gradient flows without NaN.
        let g = tape.backward(n.sum_all());
        assert!(g.get(x).unwrap().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn constants_do_not_block_backward() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![2.0], &[1]));
        let c = tape.constant(t(vec![5.0], &[1]));
        let g = tape.backward(x.mul(c).sum_all());
        assert_eq!(g.get(x).unwrap().data(), &[5.0]);
        // The constant also records its grad slot but that's incidental.
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_requires_scalar_root() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![1.0, 2.0], &[2]));
        let _ = tape.backward(x);
    }

    #[test]
    fn session_binds_params_once() {
        use crate::params::ParamStore;
        let mut store = ParamStore::new();
        let w = store.add("w", t(vec![2.0], &[1]));
        let tape = Tape::new();
        let mut sess = Session::new(&tape, &store);
        let w1 = sess.param(w);
        let w2 = sess.param(w);
        assert_eq!(w1.index(), w2.index());
        let loss = w1.mul(w2).sum_all(); // w^2
        let grads = tape.backward(loss);
        let binds = sess.into_bindings();
        store.accumulate_grads(&binds, &grads);
        assert_eq!(store.grad(w).data(), &[4.0]);
    }
}
