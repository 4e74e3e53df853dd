#!/usr/bin/env bash
# One-command verify: static lint, clang-tidy, the link audit, tier-1
# build+tests, and both sanitizer tiers. Mirrors what CI runs; any failure fails the script, and a
# per-tier summary prints at the end either way.
#
# Usage: scripts/check.sh [--fast] [--no-tidy] [--no-slint]
#   --fast      lint + tidy + slint + tier-1 only (skip the sanitizer builds)
#   --no-tidy   skip clang-tidy (without this flag a missing clang-tidy
#               binary is an error, not a silent skip)
#   --no-slint  skip the whole-program static lock analyzer (tools/slint);
#               escape hatch for iterating on code the analyzer flags

set -uo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
fast=0
tidy=1
slint=1
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    --no-tidy) tidy=0 ;;
    --no-slint) slint=0 ;;
    *) echo "usage: scripts/check.sh [--fast] [--no-tidy] [--no-slint]" >&2
       exit 2 ;;
  esac
done

declare -a summary=()
failed=0

record() {  # record <name> <exit-code>
  if [[ "$2" == 0 ]]; then
    summary+=("PASS  $1")
  else
    summary+=("FAIL  $1")
    failed=1
  fi
}

print_summary() {
  echo
  echo "==> summary"
  for line in "${summary[@]}"; do
    echo "  $line"
  done
}
trap print_summary EXIT

run_step() {  # run_step <name> <cmd...>
  local name="$1"
  shift
  echo "==> [$name]"
  "$@"
  record "$name" "$?"
}

run_tier() {
  local preset="$1"
  echo "==> [$preset] configure + build + test"
  cmake --preset "$preset" &&
    cmake --build --preset "$preset" -j "$jobs" &&
    ctest --preset "$preset" -j "$jobs"
  record "$preset" "$?"
}

run_step lint python3 tools/lint.py
run_step lint-selftest python3 tools/lint_test.py

if [[ "$slint" == 1 ]]; then
  run_step slint python3 tools/slint
  run_step slint-selftest python3 tools/slint_test.py
else
  summary+=("SKIP  slint (--no-slint)")
fi

if [[ "$tidy" == 1 ]]; then
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "error: clang-tidy not found on PATH." >&2
    echo "  Install it (e.g. apt-get install clang-tidy) or rerun with" >&2
    echo "  scripts/check.sh --no-tidy to run every other check." >&2
    record clang-tidy 1
    exit 1
  fi
  run_step clang-tidy tools/run_clang_tidy.sh
else
  summary+=("SKIP  clang-tidy (--no-tidy)")
fi

run_step link-audit python3 tools/link_audit.py --jobs "$jobs"

run_tier default

if [[ "$fast" == 0 ]]; then
  run_tier asan-ubsan
  run_tier tsan
fi

if [[ "$failed" == 0 ]]; then
  echo "==> all checks passed"
fi
exit "$failed"
