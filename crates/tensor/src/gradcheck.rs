//! Numerical gradient checking.
//!
//! Every backward rule in [`crate::autodiff`] is validated against central
//! finite differences. The checker rebuilds the computation twice per
//! probed coordinate, which is slow but only runs in tests.
//!
//! When the plan engine is on (the default, see
//! [`crate::plan::plan_enabled`]), the harness is also a plan-parity
//! check: the analytic gradient is replayed through a compiled training
//! [`crate::plan::ExecPlan`] and asserted **bitwise**
//! equal to the interpreter's, and every finite-difference probe replays a
//! forward-only plan instead of re-recording a tape. With `URCL_PLAN=0`
//! the whole check runs on the seed-era interpreter path.

use crate::autodiff::{Tape, Var};
use crate::params::ParamStore;
use crate::plan::{plan_enabled, ExecPlan, PlanSpec};
use crate::tensor::Tensor;

/// Result of a gradient check: the largest absolute and relative deviation
/// found over all probed coordinates.
#[derive(Debug)]
pub struct GradCheck {
    /// Largest |analytic − numeric| over probed coordinates.
    pub max_abs_err: f32,
    /// Largest |analytic − numeric| / max(1, |numeric|).
    pub max_rel_err: f32,
}

impl GradCheck {
    /// Asserts both deviations are under `tol`, with a readable panic.
    pub fn assert_close(&self, tol: f32) {
        assert!(
            self.max_abs_err < tol && self.max_rel_err < tol,
            "gradient check failed: abs {} rel {} (tol {tol})",
            self.max_abs_err,
            self.max_rel_err
        );
    }
}

/// Checks the gradient of a scalar-valued graph at `x`.
///
/// `build` receives a fresh tape plus `x` as a leaf and must return a
/// scalar-shaped loss variable; the checker compares the tape gradient
/// against central differences with step `eps` at every coordinate. With
/// the plan engine on, the recorded tape is additionally compiled into a
/// training plan (analytic gradient asserted bitwise equal to the
/// interpreter's) and a forward-only plan that serves the FD probes.
pub fn check_scalar<F>(x: &Tensor, eps: f32, build: F) -> GradCheck
where
    F: for<'t> Fn(&'t Tape, Var<'t>) -> Var<'t> + Copy,
{
    let store = ParamStore::new();
    let tape = Tape::new();
    let v = tape.leaf(x.clone());
    let loss = build(&tape, v);
    let analytic = tape
        .backward(loss)
        .get(v)
        .cloned()
        .unwrap_or_else(|| Tensor::zeros(x.shape()));

    let fwd_plan = plan_enabled().then(|| {
        let spec_inputs = [v.index()];
        let train = ExecPlan::compile(
            &tape,
            &PlanSpec {
                root: Some(loss.index()),
                inputs: &spec_inputs,
                outputs: &[],
                bindings: &[],
            },
        );
        let (l, grads) = train.run_training(&store, &[x]);
        assert_eq!(
            l.item().to_bits(),
            tape.value(loss).item().to_bits(),
            "gradcheck: plan loss diverged from interpreter"
        );
        let plan_g = grads
            .by_index(v.index())
            .cloned()
            .unwrap_or_else(|| Tensor::zeros(x.shape()));
        for (i, (a, p)) in analytic.data().iter().zip(plan_g.data()).enumerate() {
            assert_eq!(
                a.to_bits(),
                p.to_bits(),
                "gradcheck: plan analytic grad diverged at coord {i}: {a:?} vs {p:?}"
            );
        }
        ExecPlan::compile(
            &tape,
            &PlanSpec {
                root: None,
                inputs: &spec_inputs,
                outputs: &[loss.index()],
                bindings: &[],
            },
        )
    });

    let eval = |xt: &Tensor| -> f32 {
        match &fwd_plan {
            Some(plan) => plan.run_forward(&store, &[xt])[0].item(),
            None => {
                let tape = Tape::new();
                let v = tape.leaf(xt.clone());
                build(&tape, v).value().item()
            }
        }
    };
    let mut max_abs: f32 = 0.0;
    let mut max_rel: f32 = 0.0;
    for i in 0..x.len() {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let numeric = (eval(&xp) - eval(&xm)) / (2.0 * eps);
        let a = analytic.data()[i];
        let abs = (a - numeric).abs();
        let rel = abs / numeric.abs().max(1.0);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(rel);
    }
    GradCheck {
        max_abs_err: max_abs,
        max_rel_err: max_rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    const EPS: f32 = 1e-2;
    const TOL: f32 = 2e-2;

    fn uni(shape: &[usize], seed: u64, lo: f32, hi: f32) -> Tensor {
        Rng::seed_from_u64(seed).uniform_tensor(shape, lo, hi)
    }

    fn rand_t(shape: &[usize], seed: u64) -> Tensor {
        uni(shape, seed, -1.0, 1.0)
    }

    /// Values of alternating sign, at least 0.2 from zero: clear of the
    /// kinks of `abs`/`relu`/`leaky_relu` by far more than the FD step.
    fn signed_t(shape: &[usize], seed: u64) -> Tensor {
        let t = uni(shape, seed, 0.2, 1.0);
        let data = t.data().iter().enumerate();
        let data: Vec<f32> = data.map(|(i, &v)| if i % 2 == 0 { v } else { -v }).collect();
        Tensor::from_vec(data, shape)
    }

    /// Random weighted sum of `y`, so every output element gets its own
    /// upstream gradient.
    fn weighted<'t>(t: &'t Tape, y: Var<'t>) -> Var<'t> {
        y.mul(t.constant(rand_t(&y.shape(), 99))).sum_all()
    }

    /// The `[2, 3]` constant operand of the binary rows.
    fn c23() -> Tensor {
        rand_t(&[2, 3], 30)
    }

    type Build = for<'t> fn(&'t Tape, Var<'t>) -> Var<'t>;

    /// One row per op kind and per edge form — same-shape, broadcast with
    /// the checked input as the smaller operand (on either side), and self
    /// edges — each checked against finite differences (and, with plans
    /// on, replayed bitwise through a compiled plan). The rows' recorded
    /// nodes must cover every profiled op kind.
    #[test]
    fn every_op_kind_and_edge_form() {
        let rows: Vec<(&str, Tensor, f32, Build)> = vec![
            ("add", rand_t(&[2, 3], 31), EPS, |t, v| weighted(t, v.add(t.constant(c23())))),
            ("add_broadcast", rand_t(&[1, 3], 32), EPS, |t, v| {
                weighted(t, v.add(t.constant(c23())))
            }),
            ("add_self", rand_t(&[2, 3], 33), EPS, |t, v| weighted(t, v.add(v))),
            ("sub", rand_t(&[2, 3], 34), EPS, |t, v| weighted(t, v.sub(t.constant(c23())))),
            ("sub_broadcast", rand_t(&[3], 35), EPS, |t, v| {
                weighted(t, t.constant(c23()).sub(v))
            }),
            ("sub_self", rand_t(&[2, 3], 36), EPS, |t, v| weighted(t, v.sub(v).add(v.powf(2.0)))),
            ("mul_broadcast", rand_t(&[1, 3], 38), EPS, |t, v| {
                weighted(t, t.constant(c23()).mul(v))
            }),
            ("mul_self", rand_t(&[2, 3], 39), EPS, |t, v| weighted(t, v.mul(v))),
            ("div", rand_t(&[2, 3], 40), 1e-3, |t, v| {
                weighted(t, v.div(t.constant(uni(&[2, 3], 41, 0.5, 1.5))))
            }),
            ("div_broadcast_num", rand_t(&[1, 3], 42), 1e-3, |t, v| {
                weighted(t, v.div(t.constant(uni(&[2, 3], 41, 0.5, 1.5))))
            }),
            ("div_broadcast_den", uni(&[1, 3], 43, 0.5, 1.5), 1e-3, |t, v| {
                weighted(t, t.constant(c23()).div(v))
            }),
            ("div_self", uni(&[2, 3], 44, 0.5, 1.5), 1e-3, |t, v| weighted(t, v.div(v).add(v))),
            ("neg", rand_t(&[2, 3], 45), EPS, |t, v| weighted(t, v.neg())),
            ("add_scalar", rand_t(&[2, 3], 47), EPS, |t, v| weighted(t, v.add_scalar(0.3))),
            ("elementwise_chain", rand_t(&[2, 3], 1), EPS, |_t, v| {
                v.tanh().mul(v.sigmoid()).sum_all()
            }),
            ("exp", uni(&[6], 2, 0.5, 2.0), 1e-3, |_t, v| v.exp().mean_all()),
            ("ln", uni(&[6], 2, 0.5, 2.0), 1e-3, |_t, v| v.ln().sum_all()),
            ("sqrt", uni(&[6], 2, 0.5, 2.0), 1e-3, |_t, v| v.sqrt().sum_all()),
            ("abs", uni(&[8], 3, 0.2, 1.0), 1e-3, |_t, v| v.abs().sum_all()),
            ("relu", signed_t(&[2, 3], 49), 1e-3, |t, v| weighted(t, v.relu())),
            ("leaky_relu", rand_t(&[10], 19), 1e-3, |_t, v| v.leaky_relu(0.1).powf(2.0).sum_all()),
            ("matmul", rand_t(&[3, 4], 4), EPS, |t, v| {
                v.matmul(t.constant(rand_t(&[4, 2], 5))).powf(2.0).sum_all()
            }),
            ("matmul_broadcast_lhs", rand_t(&[2, 2], 6), EPS, |t, v| {
                let batch = t.constant(rand_t(&[3, 2, 2], 7));
                v.matmul(batch).mul(v.matmul(batch)).sum_all()
            }),
            ("matmul_broadcast_rhs", rand_t(&[2, 2], 56), EPS, |t, v| {
                weighted(t, t.constant(rand_t(&[3, 2, 2], 57)).matmul(v))
            }),
            ("softmax", rand_t(&[2, 4], 8), EPS, |t, v| {
                v.softmax(1).mul(t.constant(rand_t(&[2, 4], 9))).sum_all()
            }),
            ("conv1d_input", rand_t(&[2, 2, 6], 10), EPS, |t, v| {
                v.conv1d(t.constant(rand_t(&[3, 2, 2], 11)), 2, 0).powf(2.0).sum_all()
            }),
            ("conv1d_weight", rand_t(&[2, 2, 2], 12), EPS, |t, v| {
                t.constant(rand_t(&[1, 2, 5], 13)).conv1d(v, 1, 1).powf(2.0).sum_all()
            }),
            ("permute_reshape_narrow", rand_t(&[2, 3, 4], 14), EPS, |_t, v| {
                let p = v.permute(&[2, 0, 1]).reshape(&[4, 6]);
                p.narrow(1, 1, 3).powf(2.0).sum_all()
            }),
            ("sum_axes_and_div", uni(&[3, 4], 15, 0.5, 1.5), 1e-3, |_t, v| {
                v.div(v.sum_axes(&[1], true)).powf(2.0).sum_all()
            }),
            ("sum_axes_drop", rand_t(&[2, 3], 61), EPS, |t, v| {
                weighted(t, v.sum_axes(&[0], false))
            }),
            ("mean_all", rand_t(&[2, 3], 63), EPS, |t, v| weighted(t, v.powf(2.0).mean_all())),
            ("mean_axes_keepdim", rand_t(&[2, 3, 2], 20), EPS, |_t, v| {
                v.mean_axes(&[1], true).powf(2.0).sum_all()
            }),
            ("l2_normalize", uni(&[2, 5], 16, 0.3, 1.0), 1e-3, |t, v| {
                v.l2_normalize(1).mul(t.constant(rand_t(&[2, 5], 17))).sum_all()
            }),
            ("concat", rand_t(&[2, 3], 18), EPS, |t, v| {
                let parts = [v.narrow(1, 0, 1), v.narrow(1, 1, 2).scale(2.0)];
                t.concat(&parts, 1).powf(2.0).sum_all()
            }),
            // Only the undetached path carries gradient; the detached
            // difference is identically zero, so FD agrees.
            ("detach", rand_t(&[2, 3], 71), EPS, |t, v| {
                weighted(t, v.detach().sub(v.detach()).mul(v).add(v.powf(2.0)))
            }),
        ];

        let mut covered = [false; crate::opprof::OP_KINDS];
        for (name, x, eps, build) in rows {
            let tape = Tape::new();
            build(&tape, tape.leaf(x.clone()));
            for node in tape.nodes.borrow().iter() {
                if let Some(k) = crate::autodiff::kind_index(&node.op) {
                    covered[k] = true;
                }
            }
            let check = check_scalar(&x, eps, build);
            assert!(
                check.max_abs_err < TOL && check.max_rel_err < TOL,
                "{name}: {check:?} (tol {TOL})"
            );
        }
        let missing: Vec<&str> = (0..crate::opprof::OP_KINDS)
            .filter(|&k| !covered[k])
            .map(|k| crate::opprof::OP_NAMES[k])
            .collect();
        assert!(missing.is_empty(), "op kinds without a gradcheck row: {missing:?}");
    }
}
