#!/usr/bin/env bash
# Builds the release workspace and runs the tensor-ops micro-benchmark.
# The binary itself sweeps 1 and 4 threads in one process (so determinism
# across thread counts is asserted on identical inputs) and writes
# BENCH_tensor_ops.json — GFLOP/s and speedup fields per case — at the
# repository root. Also emits BENCH_trace.json via a traced framework run
# (per-stage spans, per-period errors, disabled-tracing overhead probe)
# and validates it through the in-tree JSON parser. Pass --quick for a
# fast smoke run.
#
# Also runs bench_checkpoint, which times full-pipeline (v2) and
# params-only checkpoint saves/loads through the atomic latest/previous
# rotation and writes BENCH_checkpoint.json (latency + document size),
# and bench_serve, which closed-loop sweeps the sharded multi-tenant
# serving runtime — solo, sharded, hot-set (cache on) and over-the-wire
# cells across (threads, shards, tenants, max_batch, cache), thousands of
# client threads at the top end, plus a work-stealing duel — and writes
# BENCH_serve.json (schema urcl-bench-serve-v3: aggregate req/s plus
# per-tenant p50/p95/p99, shed and cache counters, the wire floor and the
# steal-duel gates, re-validated by validate_json), and bench_train_step,
# which measures end-to-end training-step throughput over {1,4} threads
# x {scalar, SIMD, SIMD + compiled plan} plus paired plan, paper-default
# SSL plan and 1t-vs-4t thread duels and a batch-polymorphism check, and
# writes BENCH_train_step.json (schema urcl-bench-train-v5).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline -p urcl-bench
./target/release/bench_framework "$@" --trace BENCH_trace.json
./target/release/bench_checkpoint "$@"
./target/release/bench_serve "$@"
./target/release/bench_train_step "$@"
./target/release/validate_json BENCH_trace.json BENCH_checkpoint.json BENCH_serve.json BENCH_train_step.json
exec ./target/release/bench_tensor_ops "$@"
