#!/usr/bin/env bash
# Regenerates results/BENCH_gpusim.json: the simulator hot-path record.
#
# Combines three measurements (DESIGN.md §7.4):
#   * the deterministic perf probe (simulated cycles, access counts,
#     steady-state allocations — flake-free, used by the CI gate),
#   * the gpusim_hotpath microbench medians (host wall-clock),
#   * one harness smoke run's gpu-sim phase (end-to-end cells/sec),
# next to the committed PR 2 baseline so the speedup trajectory stays
# visible in-tree.
#
# The CI gate's baseline is the probe alone, tracked in
# bench/baselines/BENCH_gpusim_baseline.json; refresh it only after a
# deliberate cost-model change (review the diff — it IS the perf contract):
#   target/release/gpusim_perf > bench/baselines/BENCH_gpusim_baseline.json
set -euo pipefail
cd "$(dirname "$0")/.."

# the perf probe reads telemetry counter deltas, so it needs the feature;
# the smoke timing below uses the default (telemetry-off) harness build
cargo build -q --release -p indigo-bench --features telemetry
cargo build -q --release -p indigo-harness

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

probe_json=$(target/release/gpusim_perf)

micro=$(cargo bench -q -p indigo-bench --bench gpusim_hotpath 2>/dev/null |
    awk '/median/ && $1 ~ /gpusim_hotpath\// {
        name=$1; sub("gpusim_hotpath/", "", name)
        printf "%s    {\"name\": \"%s\", \"median\": \"%s\"}", sep, name, $3
        sep=",\n"
    } END { print "" }')

target/release/indigo-exp --smoke --scale small --jobs 1 --sim-workers 1 \
    --out "$out" >/dev/null
gpu_line=$(grep -o '"phase": "gpu-sim"[^}]*' "$out/BENCH_harness.json")
cells=$(echo "$gpu_line" | grep -o '"units": [0-9]*' | grep -o '[0-9]*')
secs=$(echo "$gpu_line" | grep -o '"secs": [0-9.]*' | grep -o '[0-9.]*')
cells_per_sec=$(awk -v c="$cells" -v s="$secs" 'BEGIN { printf "%.3f", c / s }')

# PR 2 committed baseline: gpu-sim phase 5.148 s / 208 cells
base_cps=$(awk 'BEGIN { printf "%.3f", 208 / 5.148 }')
speedup=$(awk -v n="$cells_per_sec" -v b="$base_cps" 'BEGIN { printf "%.2f", n / b }')

cat > results/BENCH_gpusim.json <<EOF
{
  "generated_by": "scripts/bench_gpusim.sh",
  "probe": $(echo "$probe_json" | sed '2,$s/^/  /'),
  "microbench_host_medians": [
$micro
  ],
  "harness_gpu_sim_phase": {
    "cells": $cells,
    "secs": $secs,
    "cells_per_sec": $cells_per_sec,
    "baseline_pr2": {"cells": 208, "secs": 5.148, "cells_per_sec": $base_cps},
    "speedup_vs_pr2": $speedup
  }
}
EOF

echo "wrote results/BENCH_gpusim.json (gpu-sim ${secs}s, ${cells_per_sec} cells/s, ${speedup}x vs PR 2)"
