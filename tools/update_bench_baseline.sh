#!/usr/bin/env bash
# Rebuild the release preset, run every CI-gated bench
# (tools/run_gated_benches.sh), and rewrite bench/baseline.json from the
# measured values (directions and tolerances are preserved). Run from the
# repo root after an intentional performance change, then commit the
# baseline diff alongside the change:
#
#   tools/update_bench_baseline.sh
#
# Only deterministic simulated-clock metrics are tracked (see DESIGN.md,
# "Observability"), so the refreshed values are machine-independent.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset release
# shellcheck disable=SC2046  # one target per word
cmake --build --preset release -j "$(nproc)" \
    --target $(tools/run_gated_benches.sh --targets)

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
tools/run_gated_benches.sh "$out" >/dev/null

python3 tools/bench_compare.py --baseline bench/baseline.json --update \
    "$out"/BENCH_*.json
