#!/usr/bin/env bash
# One-shot CI gate: release build, full test suite, then a traced
# framework run whose JSON output (and any other BENCH_*.json / results
# files present) is schema-validated through the in-tree parser.
#
# Usage: scripts/ci.sh [--full]
#   --full   also runs the #[ignore]-gated full-size integration tests
#            (slow in debug builds).
set -euo pipefail
cd "$(dirname "$0")/.."

FULL=0
for arg in "$@"; do
  case "$arg" in
    --full) FULL=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== build (release) =="
cargo build --release --offline

echo "== tests =="
cargo test -q --offline

echo "== tests with SIMD fast kernels force-disabled (URCL_SIMD=0) =="
# The scalar fallback is the bitwise reference for every SIMD fast path
# and must keep working standalone; run the kernel-owning crate's suite
# (unit tests + parity/determinism integration tests) with the seam
# forced off so the baseline cannot rot unnoticed.
URCL_SIMD=0 cargo test -q --offline -p urcl-tensor

echo "== tests with the interpreter oracle selected (URCL_PLAN=0) =="
# The tape interpreter is the bitwise oracle the compiled-plan engine
# is pinned against; run the kernel-owning crate's full suite with the
# oracle selected so it cannot rot unnoticed.
URCL_PLAN=0 cargo test -q --offline -p urcl-tensor

echo "== plan parity + buffer-lifetime suites (release) =="
# Architecture-churned graphs and gated-conv share groups replayed
# through compiled plans, asserted bitwise against per-step re-recorded
# tapes; the lifetime suite re-runs them under pool NaN-poisoning —
# including the batch-polymorphic replay with a per-step rebound
# dynamic input — to surface any use-after-release or read-before-init
# in the plan's precomputed drop schedule.
cargo test -q --offline --release -p urcl-tensor \
  --test plan_parity --test plan_lifetimes

echo "== augmented-SSL plan parity: engine duel + churn sweep (release) =="
# Full tiny augmented run under both engines (bitwise period reports
# and final params), then a record-vs-replay sweep churning draws,
# batch sizes and architectures with compile-count assertions. Both
# tests pin their engine in-process, so one pass covers both engines.
timeout 600 cargo test -q --offline --release --test plan_ssl_parity

echo "== rustdoc (warnings are errors) =="
# Catches broken intra-doc links and, via the per-crate
# #![warn(missing_docs)] attributes, any undocumented public item.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== doc-tests (README + API examples) =="
cargo test -q --offline --doc --workspace

echo "== crash/resume fault injection (release) =="
# The kill/resume harness re-runs the tiny pipeline once per step
# boundary, so it runs in release; the timeout is a wall-clock budget
# guarding against a resume loop that stops making progress.
timeout 600 cargo test -q --offline --release --test crash_resume

echo "== serve stress: sharded multi-tenant runtime under load (release) =="
# Hundreds of concurrent clients across three tenants, hot-swap mid-burst,
# seeded drain interleavings and the router property sweep — debug builds
# make the forward passes dominate, so this stage runs in release with a
# wall-clock budget against scheduler-dependent hangs.
timeout 600 cargo test -q --offline --release -p urcl-serve \
  --test shard_stress --test swap_under_load \
  --test router_props --test drain_interleavings

echo "== serve network front-end + work stealing (release) =="
# http_wire binds a real listener on an ephemeral port and drives it
# over TCP: forecast parity, the typed 4xx/5xx mapping, slowloris/
# truncation/oversize edges, keep-alive pipelining, a killed client
# mid-response, and graceful drain under load inside a 10 s budget.
# steal pins bitwise parity and the strictly-fewer-sheds duel with
# cross-shard work stealing enabled.
timeout 600 cargo test -q --offline --release -p urcl-serve \
  --test http_wire --test steal

echo "== benchmark harness: builds against the current crates + its tests =="
# perfbench/ is a package of its own (not a workspace member), so no
# other stage compiles it; this one catches a deleted or renamed public
# item it uses before the benchmark run does, and runs its harness tests.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

if [[ "$FULL" == 1 ]]; then
  echo "== full-size integration tests (ignored set) =="
  cargo test -q --offline --test end_to_end --test backbones -- --ignored
fi

echo "== traced framework run =="
./target/release/bench_framework --quick --trace BENCH_trace.json

echo "== train-step throughput smoke (pooling/SIMD/plan determinism) =="
# Quick schedule: asserts bitwise-identical losses across all
# (threads, pooling, simd, plan) cells, zero steady-state pool misses,
# the SIMD speedup gate, the plan duels (task-only and paper-default
# augmented-SSL, both >= 1.15x), the one-poly-plan-many-batch-sizes
# zero-recompile check and the host-aware thread-scaling gate.
./target/release/bench_train_step --quick

echo "== JSON round-trip + trace schema validation =="
files=(BENCH_trace.json)
for f in BENCH_*.json results/*.json; do
  [[ -e "$f" && "$f" != BENCH_trace.json ]] && files+=("$f")
done
./target/release/validate_json "${files[@]}"

echo "CI OK"
