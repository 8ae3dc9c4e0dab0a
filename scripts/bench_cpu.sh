#!/usr/bin/env bash
# Regenerates bench/baselines/BENCH_cpu_baseline.json: the CPU-baseline kernel
# record the cpu_perf CI gate compares against (DESIGN.md §7.7).
#
# The probe runs the six tuned CPU baselines (bfs, sssp, cc, mis, pr, tc)
# over three suite graphs and records deterministic frontier/bucket
# counters, the steady-state allocation count (pinned at 0), and an
# informational min-of-N kernel wall-clock. Counter fields are measured
# single-threaded (fully deterministic); allocations and wall-clock use the
# fig16 smoke thread count.
#
# Refresh the baseline only when a deliberate algorithm change shifts the
# counters; review the diff — it IS the perf contract.
set -euo pipefail
cd "$(dirname "$0")/.."

# the probe reads telemetry counter deltas, so it needs the feature on
cargo build -q --release -p indigo-bench --bin cpu_perf --features telemetry

target/release/cpu_perf > bench/baselines/BENCH_cpu_baseline.json
echo "wrote bench/baselines/BENCH_cpu_baseline.json:"
grep '"name"' bench/baselines/BENCH_cpu_baseline.json
