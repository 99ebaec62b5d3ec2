#!/usr/bin/env bash
# CI smoke run of the micro-benchmarks: builds bench_micro in a Release tree
# and runs the engine, capacity, ready-queue and live-steady-state rows with
# a tiny min_time, leaving the JSON at build/bench_micro_smoke.json for the
# CI artifact (never committed). It checks that the benches build and run;
# its numbers are not a baseline (docs/performance.md withdraws single
# captures — compare alternating parent/change pairs instead).
#
# Usage:
#   SMOKE=1 scripts/bench_baseline.sh
#   SMOKE=1 BUILD_DIR=build-foo scripts/bench_baseline.sh   # a specific tree
#
# The script refuses to run on anything but a plain Release tree:
# benchmarking a Debug/RelWithDebInfo or sanitizer build silently
# understates the hot paths by integer factors. It also warns when the
# machine is already busy (1-minute load average).
#
# Note: --benchmark_min_time is passed as a plain double (not "0.2s") for
# compatibility with older google-benchmark releases that reject the
# unit-suffixed form.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"

if [[ "${SMOKE:-0}" != "1" ]]; then
  echo "error: only the smoke run remains (SMOKE=1); single baseline captures" >&2
  echo "       are withdrawn — see docs/performance.md." >&2
  exit 2
fi

# Release-only gate. For a pre-existing tree, inspect the cache BEFORE
# running cmake on it: re-configuring with -DCMAKE_BUILD_TYPE=Release would
# silently rewrite the tree's cached build type (e.g. flip a TSan
# RelWithDebInfo tree to Release), so an unsuitable tree must be rejected
# untouched. Fresh trees are configured Release explicitly.
cache="${BUILD_DIR}/CMakeCache.txt"
if [[ -f "${cache}" ]]; then
  build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "${cache}")
  sanitize=$(sed -n 's/^SJS_SANITIZE:[^=]*=//p' "${cache}")
  if [[ "${build_type}" != "Release" ]]; then
    echo "error: ${BUILD_DIR} is configured as '${build_type:-<empty>}', not Release." >&2
    echo "       Benchmark numbers from non-Release trees are meaningless;" >&2
    echo "       reconfigure with -DCMAKE_BUILD_TYPE=Release or point BUILD_DIR" >&2
    echo "       at a Release tree." >&2
    exit 1
  fi
  if [[ -n "${sanitize}" ]]; then
    echo "error: ${BUILD_DIR} has SJS_SANITIZE='${sanitize}'; sanitizer" >&2
    echo "       instrumentation distorts benchmarks. Use an uninstrumented" >&2
    echo "       Release tree." >&2
    exit 1
  fi
  cmake -B "${BUILD_DIR}" >/dev/null
else
  generator_args=()
  if command -v ninja >/dev/null 2>&1; then
    generator_args=(-G Ninja)
  fi
  cmake -B "${BUILD_DIR}" "${generator_args[@]}" \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
fi

# Busy-box warning: a 1-minute load average at or above 1 per core means the
# bench will time-share the CPU and report inflated, noisy wall-clock times.
load=$(cut -d' ' -f1 /proc/loadavg 2>/dev/null || echo 0)
ncpu=$(nproc 2>/dev/null || echo 1)
if awk -v l="${load}" -v n="${ncpu}" 'BEGIN { exit !(l >= n * 0.8) }'; then
  echo "warning: load average ${load} on ${ncpu} CPU(s) — the machine is busy;" >&2
  echo "         benchmark numbers captured now will be noisy." >&2
fi

cmake --build "${BUILD_DIR}" --target bench_micro

out="${BUILD_DIR}/bench_micro_smoke.json"
# The BM_Engine prefix deliberately covers the timer-wheel benches too
# (BM_EngineTimerChurn, BM_EngineTimerOccupancy) so every CI run leaves an
# inspectable wheel-vs-heap datapoint in the artifact. BM_LiveSteadyState
# rides along so each CI artifact also records allocs_per_op for the warmed
# live session (must be 0; it runs a fixed iteration count, so min_time
# does not shorten it).
"./${BUILD_DIR}/bench/bench_micro" \
  --benchmark_filter='BM_Capacity|BM_Engine|BM_FullSimulation|BM_LiveSteadyState|BM_ReadyQueue' \
  --benchmark_min_time=0.01 \
  --benchmark_format=json \
  --benchmark_out="${out}"
echo "smoke run ok (json at ${out}, uploaded as a CI artifact, not committed)"
