//! SIMD ↔ scalar bitwise-parity property tests.
//!
//! The SIMD seam (`urcl_tensor::simd`) promises that enabling the fast
//! kernels — and, separately, forcing the explicit AVX2 intrinsic arms —
//! never changes a single result bit relative to the scalar baseline.
//! This suite drives that promise through xoshiro-seeded shape and stride
//! churn: every case runs three times, with
//!
//! 1. `set_simd(false)` — the seed-era scalar path (reference),
//! 2. `set_simd(true)` — stride-collapsed fast kernels + SIMD routing,
//! 3. `set_simd(true)` + `set_force_intrinsics(true)` — the hand-written
//!    AVX2 arms, which a `target-cpu=native` build would otherwise skip
//!    because the autovectorized loops already cover them,
//!
//! and asserts all three produce bitwise-identical outputs (`to_bits`,
//! not approximate comparison). Coverage: `gemm_strided` over all four
//! A/B transpose layouts including the skinny/strided shapes the training
//! step hits, `conv1d` forward *and* backward (input + weight gradients
//! through a real tape), and the elementwise fast paths (permute,
//! broadcast zip, axis reductions).
//!
//! [`set_simd`]/[`set_threads`] mutate process-global state, so every
//! test serializes on a file-local mutex and restores what it changed.

use std::sync::{Mutex, MutexGuard, OnceLock};

use urcl_tensor::autodiff::{Session, Tape};
use urcl_tensor::gemm::gemm_strided;
use urcl_tensor::simd::set_force_intrinsics;
use urcl_tensor::{set_simd, set_threads, ParamStore, Rng};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` under the three SIMD configurations and asserts every output
/// buffer is bitwise identical to the scalar reference.
fn assert_three_way_parity(label: &str, f: impl Fn() -> Vec<Vec<f32>>) {
    let prev_simd = set_simd(false);
    let reference = f();
    set_simd(true);
    let fast = f();
    set_force_intrinsics(true);
    let forced = f();
    set_force_intrinsics(false);
    set_simd(prev_simd);
    for (mode, outs) in [("simd", &fast), ("forced-intrinsics", &forced)] {
        assert_eq!(reference.len(), outs.len(), "{label}: output count ({mode})");
        for (i, (r, o)) in reference.iter().zip(outs).enumerate() {
            assert_eq!(r.len(), o.len(), "{label}: output {i} length ({mode})");
            for (e, (rv, ov)) in r.iter().zip(o).enumerate() {
                assert_eq!(
                    rv.to_bits(),
                    ov.to_bits(),
                    "{label}: output {i} elem {e} diverged under {mode}: \
                     {rv:?} vs {ov:?}"
                );
            }
        }
    }
}

#[test]
fn gemm_strided_parity_over_shape_and_layout_churn() {
    let _guard = lock();
    let prev_threads = set_threads(1);

    let mut rng = Rng::seed_from_u64(0x51_3D);
    // Random small/medium shapes plus the exact skinny/strided shapes the
    // GraphWaveNet training step routes through the fast paths: the TN
    // backward [k x m]^T @ [k x n] with large k (transpose-A packing),
    // tiny strided-B products (transpose-B packing), and single-block
    // direct shapes.
    let mut shapes: Vec<(usize, usize, usize)> = vec![
        (16, 2112, 16),
        (16, 960, 16),
        (2112, 16, 16),
        (16, 300, 8),
        (1, 1, 1),
        (7, 9, 5),
        (33, 65, 17),
        (130, 300, 270),
    ];
    for _ in 0..12 {
        let m = 1 + (rng.next_u64() % 48) as usize;
        let k = 1 + (rng.next_u64() % 333) as usize;
        let n = 1 + (rng.next_u64() % 48) as usize;
        shapes.push((m, k, n));
    }

    for (m, k, n) in shapes {
        let a = rng.uniform_tensor(&[m * k], -1.0, 1.0);
        let b = rng.uniform_tensor(&[k * n], -1.0, 1.0);
        let (ad, bd) = (a.data(), b.data());
        // (a_rs, a_cs, b_rs, b_cs) for NN, TN, NT, TT: the transposed
        // operand keeps the same backing array, read column-major.
        let layouts = [
            (k, 1, n, 1),
            (1, m, n, 1),
            (k, 1, 1, k),
            (1, m, 1, k),
        ];
        for (a_rs, a_cs, b_rs, b_cs) in layouts {
            let label = format!("gemm {m}x{k}x{n} rs/cs=({a_rs},{a_cs},{b_rs},{b_cs})");
            assert_three_way_parity(&label, || {
                let mut out = vec![0.0f32; m * n];
                gemm_strided(m, k, n, ad, a_rs, a_cs, bd, b_rs, b_cs, &mut out);
                vec![out]
            });
        }
    }

    set_threads(prev_threads);
}

#[test]
fn conv1d_forward_and_backward_parity() {
    let _guard = lock();
    let prev_threads = set_threads(1);

    let mut rng = Rng::seed_from_u64(0xC0_71);
    // (batch, cin, t, cout, kernel, dilation) — includes the GWN gated-TCN
    // shapes (small channels, dilated) and degenerate edges.
    let cases = [
        (2, 3, 12, 4, 2, 1),
        (4, 8, 24, 8, 2, 4),
        (1, 1, 5, 1, 3, 1),
        (3, 16, 20, 16, 3, 2),
        (8, 2, 12, 32, 2, 1),
    ];
    for (b, cin, t, cout, k, dilation) in cases {
        let pad_left = (k - 1) * dilation;
        let x0 = rng.uniform_tensor(&[b, cin, t], -1.0, 1.0);
        let w0 = rng.uniform_tensor(&[cout, cin, k], -1.0, 1.0);
        let label = format!("conv1d b{b} c{cin}x{cout} t{t} k{k}d{dilation}");
        assert_three_way_parity(&label, || {
            let mut store = ParamStore::new();
            let w_id = store.add("w", w0.clone());
            let x_id = store.add("x", x0.clone());
            store.zero_grads();
            let tape = Tape::new();
            let mut sess = Session::new(&tape, &mut store);
            let w = sess.param(w_id);
            let x = sess.param(x_id);
            let y = x.conv1d(w, dilation, pad_left);
            let fwd = tape.value(y).clone();
            let loss = y.abs().mean_all();
            let grads = tape.backward(loss);
            let binds = sess.into_bindings();
            store.accumulate_grads(&binds, &grads);
            vec![
                fwd.data().to_vec(),
                store.grad(x_id).data().to_vec(),
                store.grad(w_id).data().to_vec(),
            ]
        });
    }

    set_threads(prev_threads);
}

#[test]
fn elementwise_fast_path_parity_over_stride_churn() {
    let _guard = lock();
    let prev_threads = set_threads(1);

    let mut rng = Rng::seed_from_u64(0xE1E);

    // Permute: 3-D and 4-D shapes with every axis order hit by the model
    // (channels-last <-> channels-first moves) plus random churn.
    let permute_cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (vec![8, 9, 24, 16], vec![0, 2, 3, 1]),
        (vec![8, 11, 24, 16], vec![0, 3, 1, 2]),
        (vec![5, 7, 3], vec![2, 0, 1]),
        (vec![1, 13, 1, 4], vec![3, 2, 1, 0]),
        (vec![64, 48], vec![1, 0]),
    ];
    for (shape, perm) in permute_cases {
        let x = rng.uniform_tensor(&shape, -1.0, 1.0);
        let label = format!("permute {shape:?} perm {perm:?}");
        assert_three_way_parity(&label, || vec![x.permute(&perm).into_vec()]);
    }

    // Broadcast zips: the bias-add / gate shapes from the backbone, with
    // both operands in both positions.
    let zip_cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (vec![192, 16, 9], vec![1, 16, 1]),
        (vec![88, 24, 16], vec![16]),
        (vec![6, 5, 4], vec![6, 5, 4]),
        (vec![3, 1, 7], vec![1, 9, 7]),
    ];
    for (sa, sb) in zip_cases {
        let a = rng.uniform_tensor(&sa, -1.0, 1.0);
        let b = rng.uniform_tensor(&sb, -1.0, 1.0);
        let label = format!("zip {sa:?} x {sb:?}");
        assert_three_way_parity(&label, || {
            vec![
                a.add(&b).into_vec(),
                a.mul(&b).into_vec(),
                b.add(&a).into_vec(),
            ]
        });
    }

    // Axis reductions: leading, trailing and mixed reduced axes.
    let sum_cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (vec![40, 24, 24], vec![0]),
        (vec![192, 16, 9], vec![0, 2]),
        (vec![7, 5, 3], vec![1]),
        (vec![6, 4], vec![0, 1]),
    ];
    for (shape, axes) in sum_cases {
        let x = rng.uniform_tensor(&shape, -1.0, 1.0);
        let label = format!("sum_axes {shape:?} axes {axes:?}");
        assert_three_way_parity(&label, || {
            vec![
                x.sum_axes(&axes, false).into_vec(),
                x.sum_axes(&axes, true).into_vec(),
            ]
        });
    }

    set_threads(prev_threads);
}
