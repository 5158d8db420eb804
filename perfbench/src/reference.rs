//! The reference kernel: CPU time at a fixed core speed.
//!
//! On a shared host the core itself runs slower or faster from one
//! minute to the next (other machines share its execution units), and
//! CPU time moves with it: on the 2-vCPU virtual machine this benchmark
//! was built on, the same training protocol took 2.3 s of CPU time in
//! one run and 5.6 s in another, with no steal time, in spells lasting
//! minutes. The benchmark
//! therefore runs a fixed kernel of its own — dense `f32`
//! multiply-adds, like the program's hot loops — right before and after
//! each timed interval, on the same thread, and scales the interval's
//! CPU time by [`REFERENCE_S`] over the kernel's mean CPU time at its two
//! ends. The result reads in seconds on a core that runs the kernel in
//! [`REFERENCE_S`]. The kernel is the benchmark's code, not the
//! program's, so a change to the program moves the interval and leaves
//! the kernel alone.

use std::hint::black_box;

use crate::cpuclock;

/// CPU seconds the reference kernel takes on the reference core.
pub const REFERENCE_S: f64 = 0.002;

/// Side of the square matrices the kernel multiplies: three 16 KiB
/// operands, resident in any L1/L2 cache.
const N: usize = 64;
/// Multiplications per kernel run: 1.8–2.6 ms on the 2-vCPU Xeon virtual
/// machine the benchmark was built on.
const REPS: usize = 160;

/// Runs the reference kernel once and returns the calling thread's CPU
/// seconds it took.
pub fn kernel_s() -> f64 {
    let a: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.1).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 5) as f32 * 0.2).collect();
    let mut c = vec![0f32; N * N];
    let start = cpuclock::thread_cpu();
    for _ in 0..REPS {
        for i in 0..N {
            let row = &mut c[i * N..(i + 1) * N];
            for k in 0..N {
                let aik = a[i * N + k];
                for (x, y) in row.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                    *x += aik * y;
                }
            }
        }
        black_box(&mut c);
    }
    (cpuclock::thread_cpu() - start).as_secs_f64()
}

/// `cpu_s` seconds of CPU time, measured between kernel runs that took
/// `before` and `after` seconds, in seconds on the reference core.
pub fn at_reference(cpu_s: f64, before: f64, after: f64) -> f64 {
    cpu_s * REFERENCE_S * 2.0 / (before + after)
}
