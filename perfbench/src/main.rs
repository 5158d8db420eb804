//! The urcl-rs benchmark: one command, two workloads.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_stream --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Prints a `host` line, a `detail` line and, last, the result line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. README.md defines every metric per workload.

mod common;
mod train;
mod wire;

use std::process::ExitCode;

use common::{Args, Outcome};
use urcl_json::Value;
use urcl_perfbench::report::{self, END_TO_END, PER_LAYER};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <train_stream|serve_wire> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        Value::object()
            .with("host", common::host(&args))
            .to_string_compact()
    );
    urcl_tensor::set_threads(common::TENSOR_THREADS);
    if args.trace {
        urcl_trace::enable();
    }
    let steal = common::StealMeter::start();
    let outcome: Outcome = match args.workload.as_str() {
        "train_stream" => train::run(&args),
        "serve_wire" => wire::run(&args),
        other => unreachable!("workload {other} passed argument checks"),
    };
    let overhead = common::trace_overhead(&args, &outcome.end_to_end);
    println!(
        "{}",
        Value::object()
            .with(
                "detail",
                outcome
                    .detail
                    .clone()
                    .with("cpu_steal_share", steal.share())
                    .with("trace_overhead", overhead)
            )
            .to_string_compact()
    );
    let (values, table) = if args.trace {
        (&outcome.per_layer, PER_LAYER)
    } else {
        (&outcome.end_to_end, END_TO_END)
    };
    println!(
        "{}",
        report::result_line(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            values,
            table
        )
    );
    ExitCode::SUCCESS
}
