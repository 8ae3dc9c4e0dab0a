#!/usr/bin/env bash
# Regenerates bench/baselines/BENCH_serve_baseline.json: the serving-path record
# the serve_perf CI gate compares against (DESIGN.md §7.9).
#
# The probe drives the open-loop load generator against one in-process
# server on the serving path (keep-alive connections on the epoll reactor,
# single-flight batching; Linux only) and records its saturation
# throughput and coordinated-omission-safe p99.
#
# Refresh the baseline only after a deliberate serving-path change, on a
# quiet machine; review the diff — it IS the perf contract.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release -p indigo-bench --bin serve_perf

target/release/serve_perf > bench/baselines/BENCH_serve_baseline.json
echo "wrote bench/baselines/BENCH_serve_baseline.json:"
cat bench/baselines/BENCH_serve_baseline.json
