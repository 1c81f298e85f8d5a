#!/usr/bin/env bash
# Build the Release perf suite and refresh BENCH_skyline.json at the repo
# root.  Usage:
#
#   tools/run-bench.sh [--quick] [--out PATH] [--section NAME]...
#
# --quick cuts the per-measurement time budget ~10x (the CI bench-smoke
# job uses it); full runs are what get checked in.  Without --out, results
# go to BENCH_skyline.json at the repo root.  Every other argument goes to
# perf_suite as it is.  The suite runs on sim::default_pool(): set
# MLDCS_THREADS=N in the environment to pin its size.  See
# docs/PERFORMANCE.md for the JSON schema.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

cmake --preset release
cmake --build --preset release --target perf_suite -j "$(nproc)"

# Default the output path only when the caller did not pass --out.
out_args=(--out "${repo_root}/BENCH_skyline.json")
for arg in "$@"; do
  if [[ "${arg}" == "--out" ]]; then
    out_args=()
    break
  fi
done

./build/release/bench/perf_suite "$@" "${out_args[@]}"
echo "bench results: done"
