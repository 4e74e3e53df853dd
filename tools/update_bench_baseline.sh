#!/usr/bin/env bash
# Rebuild the release preset, run the CI-gated benches, and rewrite
# bench/baseline.json from the measured values (directions and tolerances
# are preserved). Run from the repo root after an intentional performance
# change, then commit the baseline diff alongside the change:
#
#   tools/update_bench_baseline.sh
#
# Only deterministic simulated-clock metrics are tracked (see DESIGN.md,
# "Observability"), so the refreshed values are machine-independent.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset release
cmake --build --preset release -j "$(nproc)"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
build-release/bench/bench_fig15_metadata "--json_out=$out/BENCH_fig15_metadata.json"
build-release/bench/bench_fig14_throughput "--json_out=$out/BENCH_fig14_throughput.json"
build-release/bench/bench_table1 20000 "--json_out=$out/BENCH_table1.json" \
    >/dev/null
build-release/bench/bench_ablation_mor \
    "--json_out=$out/BENCH_ablation_mor.json" >/dev/null
build-release/bench/bench_micro "--json_out=$out/BENCH_micro.json" \
    --benchmark_min_time=0.01 >/dev/null

python3 tools/bench_compare.py --baseline bench/baseline.json --update \
    "$out"/BENCH_*.json
