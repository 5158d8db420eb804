//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation as an explicit [`Op`] node; calling
//! [`Tape::backward`] walks the tape in reverse, applying one hand-written
//! backward rule per variant. Compared to closure-captured backward
//! functions this keeps every rule inspectable and testable — each one is
//! verified against numerical differentiation by the `gradcheck` table,
//! which covers every op kind and every broadcast and self edge.
//!
//! `Op` is the single source of per-op facts: its forward
//! (`Op::eval`, [`Unary::apply`]), its gradient rule (`Op::backward`)
//! and the forward values that rule reads (`Op::grad_reads`). The
//! interpreter here and the compiled plan engine ([`crate::plan`]) are
//! two schedulers over those calls: the interpreter evaluates every
//! edge and keeps every value, the plan skips dead edges and frees each
//! value after its last reader. The interpreter is the bitwise oracle
//! the plan is pinned against (`URCL_PLAN=0`).
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
///
/// Every per-op fact lives on this type and is written once: the forward
/// (`Op::eval`, with [`Unary::apply`] as the per-element forward of the
/// elementwise ops), the gradient rule (`Op::backward`) and the list of
/// forward values that rule reads (`Op::grad_reads`). The tape
/// interpreter and the plan engine only schedule these calls.
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
    /// Unary elementwise op applied to every element of `a`.
    Unary(usize, Unary),
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

/// A unary elementwise op, the payload of [`Op::Unary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Unary {
    /// Negation `-a`.
    Neg,
    /// Multiplication by a compile-time scalar: `a * c`.
    Scale(f32),
    /// Addition of a compile-time scalar: `a + c`.
    AddScalar(f32),
    /// Power with a scalar exponent: `a^c`.
    PowF(f32),
    /// `exp(a)`.
    Exp,
    /// Natural logarithm `ln(a)`.
    Ln,
    /// Square root.
    Sqrt,
    /// Absolute value (subgradient 0 at the kink).
    Abs,
    /// Rectified linear unit `max(a, 0)`.
    Relu,
    /// Leaky ReLU with the given negative-side slope.
    LeakyRelu(f32),
    /// Logistic sigmoid `1 / (1 + exp(-a))`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Unary {
    /// The per-element forward. Every path that evaluates the op — tape
    /// recording, the plan's unfused eval and its fused multi-stage runs —
    /// computes exactly this and rounds to `f32` per stage, so all paths
    /// agree bitwise.
    #[inline(always)]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Unary::Neg => v * -1.0,
            Unary::Scale(c) => v * c,
            Unary::AddScalar(c) => v + c,
            Unary::PowF(p) => v.powf(p),
            Unary::Exp => v.exp(),
            Unary::Ln => v.ln(),
            Unary::Sqrt => v.sqrt(),
            Unary::Abs => v.abs(),
            Unary::Relu => v.max(0.0),
            Unary::LeakyRelu(s) => {
                if v > 0.0 {
                    v
                } else {
                    s * v
                }
            }
            Unary::Sigmoid => 1.0 / (1.0 + (-v).exp()),
            Unary::Tanh => v.tanh(),
        }
    }

    /// Whole-tensor forward. `Neg`/`Scale`/`AddScalar` go through their
    /// SIMD `Tensor` methods (`v * c` and `v + c` per element, the same
    /// bits as [`Unary::apply`]); the rest map [`Unary::apply`] with one
    /// arm per variant, so each closure is monomorphic and vectorizes
    /// instead of dispatching on the variant per element.
    fn eval(self, a: &Tensor) -> Tensor {
        match self {
            Unary::Neg => a.scale(-1.0),
            Unary::Scale(c) => a.scale(c),
            Unary::AddScalar(c) => a.add_scalar(c),
            Unary::PowF(p) => a.map(move |v| Unary::PowF(p).apply(v)),
            Unary::Exp => a.map(|v| Unary::Exp.apply(v)),
            Unary::Ln => a.map(|v| Unary::Ln.apply(v)),
            Unary::Sqrt => a.map(|v| Unary::Sqrt.apply(v)),
            Unary::Abs => a.map(|v| Unary::Abs.apply(v)),
            Unary::Relu => a.map(|v| Unary::Relu.apply(v)),
            Unary::LeakyRelu(s) => a.map(move |v| Unary::LeakyRelu(s).apply(v)),
            Unary::Sigmoid => a.map(|v| Unary::Sigmoid.apply(v)),
            Unary::Tanh => a.map(|v| Unary::Tanh.apply(v)),
        }
    }

    /// Profile slot (see [`crate::opprof::OP_NAMES`]).
    fn kind_index(self) -> usize {
        match self {
            Unary::Neg => 4,
            Unary::Scale(_) => 5,
            Unary::AddScalar(_) => 6,
            Unary::PowF(_) => 7,
            Unary::Exp => 8,
            Unary::Ln => 9,
            Unary::Sqrt => 10,
            Unary::Abs => 11,
            Unary::Relu => 12,
            Unary::LeakyRelu(_) => 13,
            Unary::Sigmoid => 14,
            Unary::Tanh => 15,
        }
    }
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
        Op::Unary(_, u) => u.kind_index(),
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

/// What a backward rule needs from the engine running it. The tape
/// interpreter answers from its recorded nodes; the plan engine from its
/// replay values, compile-time shapes and dead-edge analysis.
/// [`Op::backward`] is generic over it, so each engine gets its own
/// monomorphized copy of the rules (no dynamic dispatch per node).
pub(crate) trait GradCtx {
    /// Forward value of node `j`.
    fn value(&self, j: usize) -> &Tensor;

    /// Shape of node `j`'s forward value.
    fn shape(&self, j: usize) -> &[usize];

    /// Whether a gradient flowing into node `j` can reach a trainable
    /// leaf. Edges into nodes that are not useful are never evaluated;
    /// the interpreter evaluates every edge.
    fn useful(&self, _j: usize) -> bool {
        true
    }

    /// Weight gradient of the `Conv1d` node `i`. The plan engine
    /// overrides it to share one im2col panel between sibling convs.
    fn conv_dw(
        &mut self,
        _i: usize,
        g: &Tensor,
        input: usize,
        weight: usize,
        dilation: usize,
        pad_left: usize,
    ) -> Tensor {
        conv1d_backward_dw(g, self.value(input), self.shape(weight), dilation, pad_left)
    }
}

impl Op {
    /// Appends the tape indices this op reads to `out`.
    pub(crate) fn inputs(&self, out: &mut Vec<usize>) {
        match self {
            Op::Leaf | Op::Constant => {}
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) | Op::MatMul(a, b) => {
                out.push(*a);
                out.push(*b);
            }
            Op::Unary(a, _)
            | Op::Permute(a, _)
            | Op::Reshape(a)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::Softmax(a, _)
            | Op::Detach(a) => out.push(*a),
            Op::SumAxes { input, .. } | Op::Narrow { input, .. } => out.push(*input),
            Op::Conv1d { input, weight, .. } => {
                out.push(*input);
                out.push(*weight);
            }
            Op::Concat { inputs, .. } => out.extend_from_slice(inputs),
        }
    }

    /// The forward: evaluates the op over its inputs' values (`v(j)` is
    /// node `j`'s value). `out_shape` is read only by `Reshape`; every
    /// other op derives its shape from its inputs.
    pub(crate) fn eval<'v>(&self, v: impl Fn(usize) -> &'v Tensor, out_shape: &[usize]) -> Tensor {
        match self {
            Op::Leaf | Op::Constant => unreachable!("source nodes are never evaluated"),
            Op::Add(a, b) => v(*a).add(v(*b)),
            Op::Sub(a, b) => v(*a).sub(v(*b)),
            Op::Mul(a, b) => v(*a).mul(v(*b)),
            Op::Div(a, b) => v(*a).div(v(*b)),
            Op::Unary(a, u) => u.eval(v(*a)),
            Op::MatMul(a, b) => v(*a).matmul(v(*b)),
            Op::Permute(a, perm) => v(*a).permute(perm),
            Op::Reshape(a) => v(*a).clone().reshape(out_shape),
            Op::SumAxes {
                input,
                axes,
                keepdim,
            } => v(*input).sum_axes(axes, *keepdim),
            Op::SumAll(a) => Tensor::scalar(v(*a).sum_all()),
            Op::MeanAll(a) => Tensor::scalar(v(*a).mean_all()),
            Op::Softmax(a, axis) => v(*a).softmax(*axis),
            Op::Concat { inputs, axis } => {
                let tensors: Vec<&Tensor> = inputs.iter().map(|&p| v(p)).collect();
                Tensor::concat(&tensors, *axis)
            }
            Op::Narrow {
                input,
                axis,
                start,
                len,
            } => v(*input).narrow(*axis, *start, *len),
            Op::Conv1d {
                input,
                weight,
                dilation,
                pad_left,
            } => v(*input).conv1d(v(*weight), *dilation, *pad_left),
            Op::Detach(a) => v(*a).clone(),
        }
    }

    /// The gradient rule: propagates node `i`'s gradient `g` into the
    /// gradient slots of its useful inputs (`grads[j] (+)= ∂`). Slots are
    /// written in a fixed order, so per-slot accumulation is the same in
    /// every engine. Where two edges land in different slots the order
    /// between them is free, which lets the last identity edge move `g`
    /// instead of cloning it.
    pub(crate) fn backward(
        &self,
        i: usize,
        g: Tensor,
        ctx: &mut impl GradCtx,
        grads: &mut [Option<Tensor>],
    ) {
        match self {
            // A source keeps its gradient: that slot is the result.
            Op::Leaf | Op::Constant => grads[i] = Some(g),
            Op::Add(a, b) => {
                let (a, b) = (*a, *b);
                if ctx.useful(a) && ctx.useful(b) {
                    pass_ref(grads, a, &g, ctx.shape(a));
                    pass(grads, b, g, ctx.shape(b)); // final edge: move, not clone
                } else {
                    let j = if ctx.useful(a) { a } else { b };
                    pass(grads, j, g, ctx.shape(j));
                }
            }
            Op::Sub(a, b) => {
                let (a, b) = (*a, *b);
                // With distinct inputs the two edges land in different
                // slots, so b's edge (which borrows g) goes first and a's
                // identity edge moves g. For `x - x` both land in one
                // slot and keep the a-then-b order.
                if ctx.useful(b) && (a != b || !ctx.useful(a)) {
                    neg_pass(grads, b, &g, ctx.shape(b));
                    if ctx.useful(a) {
                        pass(grads, a, g, ctx.shape(a));
                    }
                } else {
                    if ctx.useful(a) {
                        pass_ref(grads, a, &g, ctx.shape(a));
                    }
                    if ctx.useful(b) {
                        neg_pass(grads, b, &g, ctx.shape(b));
                    }
                }
            }
            Op::Mul(a, b) => {
                let (a, b) = (*a, *b);
                let same = ctx.shape(a) == g.shape() && ctx.shape(b) == g.shape();
                if ctx.useful(a) {
                    if same {
                        fused_mul_acc(grads, a, &g, ctx.value(b));
                    } else {
                        accumulate(grads, a, g.mul(ctx.value(b)).reduce_to_shape(ctx.shape(a)));
                    }
                }
                if ctx.useful(b) {
                    if same {
                        fused_mul_acc(grads, b, &g, ctx.value(a));
                    } else {
                        accumulate(grads, b, g.mul(ctx.value(a)).reduce_to_shape(ctx.shape(b)));
                    }
                }
            }
            Op::Div(a, b) => {
                let (a, b) = (*a, *b);
                let same = ctx.shape(a) == g.shape() && ctx.shape(b) == g.shape();
                if ctx.useful(a) {
                    if same {
                        fused_map2(grads, a, &g, ctx.value(b), |gv, b| gv / b);
                    } else {
                        accumulate(grads, a, g.div(ctx.value(b)).reduce_to_shape(ctx.shape(a)));
                    }
                }
                if ctx.useful(b) {
                    let (av, bv) = (ctx.value(a), ctx.value(b));
                    if same {
                        // d/db (a/b) = -a / b^2, with the exact expression
                        // tree of the broadcast arm's temporary chain.
                        fused_map3(grads, b, &g, av, bv, |gv, a, b| ((gv * a) / (b * b)) * -1.0);
                    } else {
                        let gb = g.mul(av).div(&bv.mul(bv)).scale(-1.0);
                        accumulate(grads, b, gb.reduce_to_shape(ctx.shape(b)));
                    }
                }
            }
            Op::Unary(a, u) => {
                let a = *a;
                match *u {
                    Unary::Neg => fused_scale_acc(grads, a, &g, -1.0),
                    Unary::Scale(c) => fused_scale_acc(grads, a, &g, c),
                    Unary::AddScalar(_) => accumulate(grads, a, g),
                    Unary::PowF(p) => fused_map2(grads, a, &g, ctx.value(a), move |gv, v| {
                        gv * (p * v.powf(p - 1.0))
                    }),
                    Unary::Exp => fused_map2(grads, a, &g, ctx.value(i), |gv, y| gv * y),
                    Unary::Ln => fused_map2(grads, a, &g, ctx.value(a), |gv, v| gv / v),
                    // dy/dx = 1 / (2 sqrt(x)) = 1 / (2 y)
                    Unary::Sqrt => fused_map2(grads, a, &g, ctx.value(i), |gv, y| gv / (y * 2.0)),
                    Unary::Abs => {
                        // Mask-multiply (not branch-select on g) so signed
                        // zeros match `g * sign(x)` exactly.
                        let sign = |v: f32| {
                            if v > 0.0 {
                                1.0
                            } else if v < 0.0 {
                                -1.0
                            } else {
                                0.0
                            }
                        };
                        fused_map2(grads, a, &g, ctx.value(a), |gv, v| gv * sign(v));
                    }
                    Unary::Relu => fused_map2(grads, a, &g, ctx.value(a), |gv, v| {
                        gv * if v > 0.0 { 1.0 } else { 0.0 }
                    }),
                    Unary::LeakyRelu(s) => fused_map2(grads, a, &g, ctx.value(a), move |gv, v| {
                        gv * if v > 0.0 { 1.0 } else { s }
                    }),
                    Unary::Sigmoid => {
                        fused_map2(grads, a, &g, ctx.value(i), |gv, y| gv * (y * (1.0 - y)));
                    }
                    Unary::Tanh => {
                        fused_map2(grads, a, &g, ctx.value(i), |gv, y| gv * (1.0 - y * y));
                    }
                }
            }
            Op::MatMul(a, b) => {
                let (a, b) = (*a, *b);
                // Fused-transpose gemm: dA = dC @ B^T, dB = A^T @ dC,
                // without materializing B^T / A^T copies. The
                // reduce_to_shape (a full-tensor copy) only runs on
                // broadcast edges.
                if ctx.useful(a) {
                    let ga = g.matmul_nt(ctx.value(b));
                    let ga = if ga.shape() == ctx.shape(a) {
                        ga
                    } else {
                        ga.reduce_to_shape(ctx.shape(a))
                    };
                    accumulate(grads, a, ga);
                }
                if ctx.useful(b) {
                    let gb = ctx.value(a).matmul_tn(&g);
                    let gb = if gb.shape() == ctx.shape(b) {
                        gb
                    } else {
                        gb.reduce_to_shape(ctx.shape(b))
                    };
                    accumulate(grads, b, gb);
                }
            }
            Op::Permute(a, perm) => {
                let mut inv = vec![0usize; perm.len()];
                for (i, &p) in perm.iter().enumerate() {
                    inv[p] = i;
                }
                accumulate(grads, *a, g.permute(&inv));
            }
            Op::Reshape(a) => accumulate(grads, *a, g.reshape(ctx.shape(*a))),
            Op::SumAxes {
                input,
                axes,
                keepdim,
            } => {
                let in_shape = ctx.shape(*input);
                let gk = if *keepdim {
                    g
                } else {
                    let mut keep_shape = in_shape.to_vec();
                    for &a in axes {
                        keep_shape[a] = 1;
                    }
                    g.reshape(&keep_shape)
                };
                // Broadcast the kept-dim gradient back over the input.
                let expanded = Tensor::zeros(in_shape).add(&gk);
                accumulate(grads, *input, expanded);
            }
            Op::SumAll(a) => {
                let full = Tensor::full(ctx.shape(*a), g.item());
                accumulate(grads, *a, full);
            }
            Op::MeanAll(a) => {
                let n = numel(ctx.shape(*a)).max(1) as f32;
                let full = Tensor::full(ctx.shape(*a), g.item() / n);
                accumulate(grads, *a, full);
            }
            Op::Softmax(a, axis) => {
                // dx = y * (g - sum(g*y, axis, keepdim))
                let y = ctx.value(i);
                let s = g.mul(y).sum_axes(&[*axis], true);
                let dg = y.mul(&g.sub(&s));
                accumulate(grads, *a, dg);
            }
            Op::Concat { inputs, axis } => {
                let mut start = 0;
                for &inp in inputs {
                    let len = ctx.shape(inp)[*axis];
                    if ctx.useful(inp) {
                        accumulate(grads, inp, g.narrow(*axis, start, len));
                    }
                    start += len;
                }
            }
            Op::Narrow {
                input,
                axis,
                start,
                len,
            } => {
                let dg = narrow_scatter(&g, ctx.shape(*input), *axis, *start, *len);
                accumulate(grads, *input, dg);
            }
            Op::Conv1d {
                input,
                weight,
                dilation,
                pad_left,
            } => {
                let (input, weight) = (*input, *weight);
                if ctx.useful(input) {
                    let dx = conv1d_backward_dx(
                        &g,
                        ctx.shape(input),
                        ctx.value(weight),
                        *dilation,
                        *pad_left,
                    );
                    accumulate(grads, input, dx);
                }
                if ctx.useful(weight) {
                    let dw = ctx.conv_dw(i, &g, input, weight, *dilation, *pad_left);
                    accumulate(grads, weight, dw);
                }
            }
            Op::Detach(_) => { /* gradient intentionally dropped */ }
        }
    }

    /// Marks in `keep` the forward values [`Op::backward`] reads for node
    /// `i`, given which inputs are `useful`. A value the rule reads must be
    /// marked here, or the plan engine frees it before the backward walk
    /// gets to it; the match is exhaustive, so every new op has to say.
    pub(crate) fn grad_reads(&self, i: usize, useful: impl Fn(usize) -> bool, keep: &mut [bool]) {
        match self {
            // Each edge multiplies by the other operand.
            Op::Mul(a, b) | Op::MatMul(a, b) | Op::Conv1d { input: a, weight: b, .. } => {
                if useful(*a) {
                    keep[*b] = true;
                }
                if useful(*b) {
                    keep[*a] = true;
                }
            }
            Op::Div(a, b) => {
                if useful(*a) {
                    keep[*b] = true;
                }
                if useful(*b) {
                    keep[*a] = true;
                    keep[*b] = true;
                }
            }
            Op::Unary(a, u) => match u {
                Unary::Neg | Unary::Scale(_) | Unary::AddScalar(_) => {}
                Unary::PowF(_) | Unary::Ln | Unary::Abs | Unary::Relu | Unary::LeakyRelu(_) => {
                    if useful(*a) {
                        keep[*a] = true;
                    }
                }
                Unary::Exp | Unary::Sqrt | Unary::Sigmoid | Unary::Tanh => keep[i] = true,
            },
            Op::Softmax(..) => keep[i] = true,
            // These rules read only `g` and shapes.
            Op::Leaf
            | Op::Constant
            | Op::Add(..)
            | Op::Sub(..)
            | Op::Permute(..)
            | Op::Reshape(..)
            | Op::SumAxes { .. }
            | Op::SumAll(..)
            | Op::MeanAll(..)
            | Op::Concat { .. }
            | Op::Narrow { .. }
            | Op::Detach(_) => {}
        }
    }
}

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) op: Op,
}

/// The interpreter's view for [`Op::backward`]: values and shapes come
/// straight from the recorded nodes, and every edge is evaluated.
struct TapeCtx<'a> {
    nodes: &'a [Node],
}

impl GradCtx for TapeCtx<'_> {
    fn value(&self, j: usize) -> &Tensor {
        &self.nodes[j].value
    }

    fn shape(&self, j: usize) -> &[usize] {
        self.nodes[j].value.shape()
    }
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

    /// Evaluates `op` over the recorded values and appends it.
    fn record(&self, op: Op) -> Var<'_> {
        self.record_shaped(op, &[])
    }

    /// [`Tape::record`] with the output shape a `Reshape` needs.
    fn record_shaped(&self, op: Op, out_shape: &[usize]) -> Var<'_> {
        let t0 = crate::opprof::op_profile_enabled().then(std::time::Instant::now);
        let value = {
            let nodes = self.nodes.borrow();
            op.eval(|j| &nodes[j].value, out_shape)
        };
        if let (Some(t0), Some(k)) = (t0, kind_index(&op)) {
            crate::opprof::record_forward(k, t0.elapsed().as_nanos() as u64);
        }
        self.push(value, op)
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
        self.record(Op::Concat {
            inputs: parts.iter().map(|v| v.idx).collect(),
            axis,
        })
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
    /// element) and returns per-node gradients: every recorded node, in
    /// reverse order, applies `Op::backward` to the gradient it holds.
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

        let prof = crate::opprof::op_profile_enabled();
        let mut ctx = TapeCtx { nodes: &nodes };
        for i in (0..=loss.idx).rev() {
            let Some(g) = grads[i].take() else { continue };
            let t0 = prof.then(std::time::Instant::now);
            nodes[i].op.backward(i, g, &mut ctx, &mut grads);
            if let (Some(t0), Some(k)) = (t0, kind_index(&nodes[i].op)) {
                crate::opprof::record_backward(k, t0.elapsed().as_nanos() as u64);
            }
        }
        Gradients { grads }
    }
}

/// Identity edge `grads[j] (+)= g`, borrowing `g`: same-shape edges clone
/// at most once, broadcast edges reduce over the broadcast axes first.
fn pass_ref(grads: &mut [Option<Tensor>], j: usize, g: &Tensor, shape: &[usize]) {
    if shape == g.shape() {
        accumulate_ref(grads, j, g);
    } else {
        accumulate(grads, j, g.reduce_to_shape(shape));
    }
}

/// [`pass_ref`] for an edge that may consume `g`.
fn pass(grads: &mut [Option<Tensor>], j: usize, g: Tensor, shape: &[usize]) {
    if shape == g.shape() {
        accumulate(grads, j, g);
    } else {
        accumulate(grads, j, g.reduce_to_shape(shape));
    }
}

/// Negated identity edge `grads[j] (+)= -g` (the `b` edge of `a - b`).
fn neg_pass(grads: &mut [Option<Tensor>], j: usize, g: &Tensor, shape: &[usize]) {
    if shape == g.shape() {
        fused_scale_acc(grads, j, g, -1.0);
    } else {
        accumulate(grads, j, g.scale(-1.0).reduce_to_shape(shape));
    }
}

fn accumulate(grads: &mut [Option<Tensor>], idx: usize, g: Tensor) {
    match &mut grads[idx] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

/// Like [`accumulate`] but borrows the gradient, cloning only when the
/// slot is empty. Lets rules that propagate `g` unchanged to several
/// inputs skip one full-tensor copy per edge with an occupied slot.
fn accumulate_ref(grads: &mut [Option<Tensor>], idx: usize, g: &Tensor) {
    match &mut grads[idx] {
        Some(existing) => existing.add_assign(g),
        slot @ None => *slot = Some(g.clone()),
    }
}

/// Core of the fused backward kernels: `grads[idx] (+)= contribution`,
/// where `kernel(dst, range, acc)` writes (`acc == false`) or adds
/// (`acc == true`) the contribution of elements `range` into `dst`.
///
/// When the slot already holds a partial gradient the contribution is
/// accumulated *in place* — no temporary tensor is materialized, which is
/// the axpy-style fusion that removes one allocation + write + read per
/// backward edge. When the slot is empty the contribution is written into
/// a pooled buffer. Either way the per-element arithmetic is "evaluate
/// the contribution, then add" — exactly what materializing a temporary
/// and `add_assign`ing it would produce (Rust does not contract
/// `a + b * c` to FMA), so results are bitwise identical. Large tensors
/// split over the thread pool on disjoint output chunks, preserving
/// determinism at any thread count.
fn fused_kernel(
    grads: &mut [Option<Tensor>],
    idx: usize,
    shape: &[usize],
    kernel: impl Fn(&mut [f32], std::ops::Range<usize>, bool) + Sync,
) {
    let n = numel(shape);
    let run = |dst: &mut [f32], acc: bool| {
        if n < PAR_MIN_ELEMS {
            kernel(dst, 0..n, acc);
        } else {
            par_fill(dst, PAR_MIN_ELEMS / 4, |chunk, r| kernel(chunk, r, acc));
        }
    };
    match &mut grads[idx] {
        Some(existing) => {
            debug_assert_eq!(existing.shape(), shape, "fused gradient shape mismatch");
            run(existing.data_mut(), true);
        }
        slot @ None => {
            let mut data = pool::take_uninit(n);
            run(&mut data, false);
            *slot = Some(Tensor::from_vec(data, shape));
        }
    }
}

/// `grads[idx][e] (+)= eval(e)` elementwise.
fn fused_apply(
    grads: &mut [Option<Tensor>],
    idx: usize,
    shape: &[usize],
    eval: &(impl Fn(usize) -> f32 + Sync),
) {
    fused_kernel(grads, idx, shape, |dst, r, acc| {
        if acc {
            for (d, e) in dst.iter_mut().zip(r) {
                *d += eval(e);
            }
        } else {
            for (d, e) in dst.iter_mut().zip(r) {
                *d = eval(e);
            }
        }
    });
}

/// `grads[idx] (+)= f(g, x)` elementwise (same-shape inputs only).
fn fused_map2(
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
fn fused_map3(
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
fn fused_mul_acc(grads: &mut [Option<Tensor>], idx: usize, g: &Tensor, x: &Tensor) {
    if !crate::simd::fast_kernels() {
        return fused_map2(grads, idx, g, x, |gv, xv| gv * xv);
    }
    debug_assert_eq!(g.shape(), x.shape(), "fused_mul_acc shape mismatch");
    let (gd, xd) = (g.data(), x.data());
    fused_kernel(grads, idx, g.shape(), |dst, r, acc| {
        crate::simd::mul_acc(dst, &gd[r.clone()], &xd[r], acc);
    });
}

/// `grads[idx] (+)= g * c` elementwise through the SIMD seam
/// ([`crate::simd::scale_acc`]); same bitwise-parity contract as
/// [`fused_mul_acc`], with a `gv * c` [`fused_apply`] as the
/// `URCL_SIMD=0` route.
fn fused_scale_acc(grads: &mut [Option<Tensor>], idx: usize, g: &Tensor, c: f32) {
    let gd = g.data();
    if !crate::simd::fast_kernels() {
        return fused_apply(grads, idx, g.shape(), &|e| gd[e] * c);
    }
    fused_kernel(grads, idx, g.shape(), |dst, r, acc| {
        crate::simd::scale_acc(dst, &gd[r], c, acc);
    });
}

/// Embeds a gradient of the narrowed slice back into a zero tensor of the
/// input's shape.
fn narrow_scatter(
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

/// Input gradient of a dilated causal 1-D convolution. Only the *shape*
/// of `x` is needed (the data gradient never reads the input values), so
/// callers that skip the weight gradient — the plan executor's
/// dead-gradient elimination — can drop the input tensor early.
///
/// `dx` is parallelized over (batch, in-channel) and `dw` over
/// (out-channel, in-channel): each work item owns a disjoint output slice
/// and accumulates in a fixed loop order, so results are bitwise identical
/// at any thread count. Inner loops clamp the valid `to` range up front
/// (no per-tap bounds tests, no zero-value shortcuts).
fn conv1d_backward_dx(
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

    // dx via an im2col-of-g GEMM when the time rows are short (per-tap
    // slice setup dominates the direct loop there). Bits are unchanged: each dx element is a single flat +0.0-seeded running
    // sum over (co, ki) ascending — exactly the direct loop's order — the
    // `cout*k <= KC` guard keeps the GEMM from splitting that sum into KC
    // partials, and taps the direct loop clamps away become `w * 0.0`
    // terms, which never change the bits of a +0.0-seeded sum.
    let dx_gemm = t < crate::gemm::NR && cout * k <= crate::gemm::KC;
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

    // dw via per-batch `g_bi @ im2col(x_bi)^T` GEMMs when the time rows
    // are short. Unlike dx, the direct dw loop below does NOT keep one
    // flat running sum per element — it accumulates a register dot
    // product per (bi, ki) and adds those partials in bi order. The
    // lowering reproduces that grouping exactly: each per-batch GEMM
    // computes the same to-ascending dot (clamped taps appear as
    // `g * 0.0` terms — adding a signed zero to a +0.0-seeded sum is the
    // identity), and the partials are then summed serially in bi order,
    // so every bit matches the direct loop.
    if t_out < crate::gemm::NR {
        let cols = conv1d_dw_cols(x, k, dilation, pad_left, t_out);
        let dw = conv1d_backward_dw_with_cols(g, x.shape(), w_shape, &cols);
        crate::pool::recycle(cols);
        return dw;
    }

    let mut dw = Tensor::zeros(w_shape);
    let gd = g.data();
    let xd = x.data();
    let to_range = |shift: usize| -> (usize, usize) {
        (
            pad_left.saturating_sub(shift),
            t_out.min((t + pad_left).saturating_sub(shift)),
        )
    };
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
    if b * cout * cin * k * t_out < PAR_MIN_FLOPS {
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
/// [`conv1d_dw_cols`] panel: the GEMM lowering of [`conv1d_backward_dw`]
/// (per-batch GEMMs, then a bi-ordered serial accumulate). Callers must
/// check the same `t_out < NR` guard that selects it there.
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

    fn unary(self, u: Unary) -> Var<'t> {
        self.tape.record(Op::Unary(self.idx, u))
    }

    fn binary(self, other: Var<'t>, op: impl FnOnce(usize, usize) -> Op) -> Var<'t> {
        assert!(
            std::ptr::eq(self.tape, other.tape),
            "variables belong to different tapes"
        );
        self.tape.record(op(self.idx, other.idx))
    }

    /// Elementwise addition (broadcasting).
    pub fn add(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Op::Add)
    }

    /// Elementwise subtraction (broadcasting).
    pub fn sub(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Op::Sub)
    }

    /// Elementwise multiplication (broadcasting).
    pub fn mul(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Op::Mul)
    }

    /// Elementwise division (broadcasting).
    pub fn div(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Op::Div)
    }

    /// Negation.
    pub fn neg(self) -> Var<'t> {
        self.unary(Unary::Neg)
    }

    /// Scalar multiply.
    pub fn scale(self, c: f32) -> Var<'t> {
        self.unary(Unary::Scale(c))
    }

    /// Scalar add.
    pub fn add_scalar(self, c: f32) -> Var<'t> {
        self.unary(Unary::AddScalar(c))
    }

    /// Elementwise power with a constant exponent.
    pub fn powf(self, p: f32) -> Var<'t> {
        self.unary(Unary::PowF(p))
    }

    /// Elementwise exponential.
    pub fn exp(self) -> Var<'t> {
        self.unary(Unary::Exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(self) -> Var<'t> {
        self.unary(Unary::Ln)
    }

    /// Elementwise square root.
    pub fn sqrt(self) -> Var<'t> {
        self.unary(Unary::Sqrt)
    }

    /// Elementwise absolute value.
    pub fn abs(self) -> Var<'t> {
        self.unary(Unary::Abs)
    }

    /// Rectified linear unit.
    pub fn relu(self) -> Var<'t> {
        self.unary(Unary::Relu)
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(self, slope: f32) -> Var<'t> {
        self.unary(Unary::LeakyRelu(slope))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(self) -> Var<'t> {
        self.unary(Unary::Sigmoid)
    }

    /// Hyperbolic tangent.
    pub fn tanh(self) -> Var<'t> {
        self.unary(Unary::Tanh)
    }

    /// Matrix product (batched with broadcasting, see [`Tensor::matmul`]).
    pub fn matmul(self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Op::MatMul)
    }

    /// Generalized transpose.
    pub fn permute(self, perm: &[usize]) -> Var<'t> {
        self.tape.record(Op::Permute(self.idx, perm.to_vec()))
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
        self.tape.record_shaped(Op::Reshape(self.idx), shape)
    }

    /// Sum over axes.
    pub fn sum_axes(self, axes: &[usize], keepdim: bool) -> Var<'t> {
        self.tape.record(Op::SumAxes {
            input: self.idx,
            axes: axes.to_vec(),
            keepdim,
        })
    }

    /// Mean over axes (sum then scale).
    pub fn mean_axes(self, axes: &[usize], keepdim: bool) -> Var<'t> {
        let shape = self.shape();
        let n: usize = axes.iter().map(|&a| shape[a]).product();
        self.sum_axes(axes, keepdim).scale(1.0 / n.max(1) as f32)
    }

    /// Sum of all elements, as a `[1]`-shaped variable.
    pub fn sum_all(self) -> Var<'t> {
        self.tape.record(Op::SumAll(self.idx))
    }

    /// Mean of all elements, as a `[1]`-shaped variable.
    pub fn mean_all(self) -> Var<'t> {
        self.tape.record(Op::MeanAll(self.idx))
    }

    /// Softmax along `axis`.
    pub fn softmax(self, axis: usize) -> Var<'t> {
        self.tape.record(Op::Softmax(self.idx, axis))
    }

    /// Slice along an axis.
    pub fn narrow(self, axis: usize, start: usize, len: usize) -> Var<'t> {
        self.tape.record(Op::Narrow {
            input: self.idx,
            axis,
            start,
            len,
        })
    }

    /// Dilated causal 1-D convolution; see [`Tensor::conv1d`].
    pub fn conv1d(self, weight: Var<'t>, dilation: usize, pad_left: usize) -> Var<'t> {
        self.binary(weight, |input, weight| Op::Conv1d {
            input,
            weight,
            dilation,
            pad_left,
        })
    }

    /// Stop-gradient: identity forward, zero backward (Eq. 13's `SG(·)`).
    pub fn detach(self) -> Var<'t> {
        self.tape.record(Op::Detach(self.idx))
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
