//! # urcl-tensor
//!
//! A dense, CPU-only, `f32` tensor library with tape-based reverse-mode
//! automatic differentiation. It is the training substrate for the
//! [URCL](https://doi.org/10.1109/ICDE60146.2024) reproduction: every
//! gradient computed by the spatio-temporal models in `urcl-models` and by
//! the continuous-learning framework in `urcl-core` flows through this crate.
//!
//! Tensors are contiguous row-major `Vec<f32>` buffers, and the autodiff
//! tape records an explicit [`Op`](autodiff::Op) per node so every backward
//! rule is a readable `match` arm. The heavy kernels run on a
//! dependency-free parallel runtime ([`parallel`]) and a cache-blocked
//! GEMM ([`gemm`]); thread count comes from `URCL_THREADS` (default:
//! available parallelism), and results are bitwise reproducible at any
//! thread count because parallel splits only ever partition output
//! regions, never reduction axes.
//!
//! ## Quick tour
//!
//! ```
//! use urcl_tensor::{Tensor, autodiff::Tape};
//!
//! let tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]));
//! let w = tape.leaf(Tensor::from_vec(vec![0.5, 0.5, 0.5], &[3]));
//! let loss = x.mul(w).sum_all();
//! let grads = tape.backward(loss);
//! // d(sum(x*w))/dx = w
//! assert_eq!(grads.get(x).unwrap().data(), &[0.5, 0.5, 0.5]);
//! ```
//!
//! Higher-level training code uses [`params::ParamStore`] +
//! [`autodiff::Session`] to bind persistent parameters to a fresh tape per
//! step, and [`optim`] for SGD/Adam updates.

#![warn(missing_docs)]

pub mod autodiff;
pub mod gemm;
pub mod gradcheck;
pub mod opprof;
pub mod optim;
pub mod parallel;
pub mod params;
pub mod plan;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use autodiff::{Session, Tape, Var};
pub use opprof::{op_profile, reset_op_profile, set_op_profile, OpProfileRow};
pub use optim::{Adam, AdamState, Optimizer, Sgd};
pub use parallel::{
    host_parallelism, num_threads, parallel_for, pool_stats, reset_pool_stats, set_threads,
    PoolStats,
};
pub use pool::{
    buffer_pool_stats, pool_poison_enabled, pooling_enabled, reset_buffer_pool_stats, set_pool_poison,
    set_pooling, trim_excess, BufferPoolStats,
};
pub use plan::{
    plan_enabled, plan_stats, reset_plan_stats, set_plan, thread_plan_compiles, ExecPlan, Phase,
    PlanExecutor, PlanSpec, PlanStats, Recording, Trained,
};
pub use simd::{active_isa, detected_isa, set_simd, simd_enabled, Isa};
pub use params::{ParamId, ParamStore};
pub use rng::Rng;
pub use tensor::Tensor;
