#!/usr/bin/env bash
# Regenerate the committed benchmark artifacts at the repo root:
#
#   BENCH_engine.json           — google-benchmark JSON for the C-10 DES
#                                 engine microbenchmarks (event storm,
#                                 self-scheduling cascade, oversized
#                                 payloads on the heap, fair-share
#                                 channel, fabric, end-to-end PFS model
#                                 ops, frame CRC-32, a cached pioevald
#                                 campaign served)
#   BENCH_campaign_scaling.json — C-12 campaign thread-scaling curve with
#                                 the cross-thread determinism digest
#   BENCH_parsim.json           — C-13 facility pool-width scaling (cells
#                                 as pool tasks) with the cross-thread
#                                 determinism digest
#   BENCH_membership.json       — C-F3 cluster-membership curves: detection
#                                 latency vs heartbeat grace, migration
#                                 volume by placement mode, drain window vs
#                                 rebuild cap
#   BENCH_overload.json         — C-F4 overload-control comparison: naive
#                                 retry storm (congestion collapse) vs the
#                                 controlled stack (admission control, retry
#                                 budget, breakers, deadlines) through a
#                                 transient capacity loss
#   BENCH_service.json          — C-F5 campaign-service load harness: 1200
#                                 client sessions through one pioevald
#                                 instance; result-cache hit rate, cold vs
#                                 served per-point cost, byte-identity and
#                                 cache-accounting audit
#
# Usage:  bench/run_benches.sh [build-dir]
#
# Numbers are host-dependent; commit them as an honest record of the machine
# the PR was validated on (CI treats the committed files as documentation,
# not as a regression gate).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

if [[ ! -x "$build_dir/bench/bench_c10_sim_engine" ]]; then
  echo "error: $build_dir/bench/bench_c10_sim_engine not built" >&2
  echo "hint: cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j" >&2
  exit 1
fi

# Committed BENCH_*.json artifacts must come from an optimized build: debug
# numbers are meaningless as a performance record (and google-benchmark would
# stamp them "library_build_type": "debug").
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build_dir/CMakeCache.txt" 2>/dev/null || true)"
if [[ "$build_type" != "Release" ]]; then
  echo "error: refusing to record BENCH_*.json from a non-Release build" >&2
  echo "       (CMAKE_BUILD_TYPE='${build_type:-<unset>}' in $build_dir/CMakeCache.txt)" >&2
  echo "hint: cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j" >&2
  exit 1
fi

# Repetitions + aggregates: on a small (often 1-CPU) host a single run's
# mean is hostage to scheduler noise; recording mean/median/stddev across
# repetitions makes the committed number reproducible — read the median.
echo "== C-10 engine microbenchmarks -> BENCH_engine.json"
"$build_dir/bench/bench_c10_sim_engine" \
  --benchmark_format=json \
  --benchmark_out="$repo_root/BENCH_engine.json" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.3 \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true

echo "== C-12 campaign scaling -> BENCH_campaign_scaling.json"
"$build_dir/bench/bench_c12_campaign_scaling" \
  --json-out "$repo_root/BENCH_campaign_scaling.json"

echo "== C-13 facility -> BENCH_parsim.json"
"$build_dir/bench/bench_c13_facility" \
  --json-out "$repo_root/BENCH_parsim.json"

echo "== C-F3 cluster membership -> BENCH_membership.json"
"$build_dir/bench/bench_cf3_membership" \
  --json-out "$repo_root/BENCH_membership.json"

echo "== C-F4 overload control -> BENCH_overload.json"
"$build_dir/bench/bench_cf4_overload" \
  --json-out "$repo_root/BENCH_overload.json"

echo "== C-F5 campaign service -> BENCH_service.json"
"$build_dir/bench/bench_cf5_service" \
  --json-out "$repo_root/BENCH_service.json"

echo "done: $repo_root/BENCH_engine.json $repo_root/BENCH_campaign_scaling.json $repo_root/BENCH_parsim.json $repo_root/BENCH_membership.json $repo_root/BENCH_overload.json $repo_root/BENCH_service.json"
