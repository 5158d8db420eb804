//! Process and thread CPU time, the clocks of the benchmark's
//! compute-bound metrics.
//!
//! On a virtual machine whose kernel accounts paravirtual steal time
//! (`CONFIG_PARAVIRT_TIME_ACCOUNTING`, the KVM default), a task's CPU
//! time leaves out the time the hypervisor gave to other machines, which
//! wall time includes. Work that runs on one thread and never waits
//! takes as much CPU time as wall time on an idle dedicated host, so CPU
//! time measures the program's cost without its neighbours' load.

use std::time::Duration;

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads the Linux process CPU clock");

/// `clock_gettime` clock ids of the calling process's and the calling
/// thread's CPU time (Linux).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

fn read(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec, and both clock ids are
    // ones every Linux kernel provides.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// Wall and CPU time of one piece of work, started together.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu: Duration,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Self {
            wall: std::time::Instant::now(),
            cpu: process_cpu(),
        }
    }

    /// Seconds of wall time since [`Stopwatch::start`].
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Seconds of process CPU time since [`Stopwatch::start`].
    pub fn cpu_s(&self) -> f64 {
        (process_cpu() - self.cpu).as_secs_f64()
    }
}
