//! Harness logic of the urcl-rs benchmark: the CPU clocks and the
//! reference kernel, order statistics, open-loop accounting,
//! phase-scoped counters and the result line. The workloads themselves
//! live in the `urcl-perfbench` binary; see README.md.

pub mod cpuclock;
pub mod layers;
pub mod openloop;
pub mod reference;
pub mod report;
pub mod stats;
