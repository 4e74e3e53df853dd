#!/usr/bin/env bash
# The one list of benches that bench/baseline.json gates. Both CI's bench
# job and tools/update_bench_baseline.sh go through this script, so the
# benches they run cannot drift apart.
#
#   tools/run_gated_benches.sh --targets   # print the CMake bench targets
#   tools/run_gated_benches.sh OUT_DIR     # run them from build-release/,
#                                          # writing OUT_DIR/BENCH_<name>.json
#
# A bench's stdout passes through; the first failing bench stops the run.
set -euo pipefail
cd "$(dirname "$0")/.."

# name, then any arguments before --json_out.
BENCHES=(
  "fig15_metadata"
  "fig14_throughput"
  "fig14_scaling"
  "shard_scaling"
  "scan_scaling"
  "cluster_scale"
  "join_sessionization"
  "columnar_scan"
  "table1 20000"
  "ablation_mor"
  "fig16_compaction"
  "micro"
)

if [[ $# -ne 1 ]]; then
  echo "usage: $0 --targets | OUT_DIR" >&2
  exit 2
fi

if [[ $1 == --targets ]]; then
  for entry in "${BENCHES[@]}"; do
    read -r name _ <<<"$entry"
    echo "bench_$name"
  done
  exit 0
fi

out=$1
mkdir -p "$out"
for entry in "${BENCHES[@]}"; do
  read -r name args <<<"$entry"
  extra=()
  if [[ $name == micro ]]; then
    extra=(--benchmark_format=json "--benchmark_out=$out/gbench_micro.json"
           --benchmark_min_time=0.01)
  fi
  # shellcheck disable=SC2086  # args is a space-separated argument list
  "build-release/bench/bench_$name" $args "--json_out=$out/BENCH_$name.json" \
      "${extra[@]}"
done
