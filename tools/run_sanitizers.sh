#!/usr/bin/env bash
# Builds the Asan (address+undefined) and Tsan build types and runs the
# test suites that exercise memory- and thread-hazardous paths under each:
#
#   - label `threaded`      — thread pool, threaded kernel dispatch,
#                             lock-free metrics/tracer paths, lock-order
#                             validator tests
#   - label `sanitizer`     — tape sanitizer behavior + death tests
#   - label `observability` — windowed metrics, the SLO pin test, request
#                             tracing, and the admin endpoint (HTTP scrape
#                             round-trips)
#   - label `quantized`     — int8 kernels, int8 plan compilation, and the
#                             checkpoint quant block (DESIGN §6g)
#   - label `retrieval`     — the random-walk loop (path array, flat
#                             dedup table) and its golden Tree-of-Chains test
#   - label `lint`          — cf_lint source/docs/suppression checks and the
#                             clang -Wthread-safety target; build-type
#                             independent and cheap, included so sanitizer CI
#                             also catches lint/docs-drift regressions
#
# Usage: tools/run_sanitizers.sh [build-dir-prefix]
#
# Build trees default to <repo>/build-asan and <repo>/build-tsan (or
# <prefix>-asan / <prefix>-tsan when a prefix is given) and are reused
# incrementally across runs. Exits non-zero on the first failing suite.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
prefix="${1:-${repo_root}/build}"

run_config() {
  local name="$1" build_type="$2" build_dir="${prefix}-$1"
  echo "=== ${name}: configure + build (${build_dir}) ==="
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE="${build_type}" \
    -DCF_KERNELS_NATIVE_ARCH=OFF
  cmake --build "${build_dir}" -j
  echo "=== ${name}: ctest -L 'threaded|sanitizer|observability|quantized|retrieval|lint' ==="
  ctest --test-dir "${build_dir}" \
    -L 'threaded|sanitizer|observability|quantized|retrieval|lint' \
    --output-on-failure
}

run_config asan Asan
run_config tsan Tsan

echo "=== sanitizers clean ==="
