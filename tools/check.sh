#!/usr/bin/env bash
# One-command local gate: configure, build everything, run ctest, then
# rebuild the library with -Wall -Wextra -Werror to keep it warning-clean.
#
#   tools/check.sh [build-dir] [--sanitize] [--tsan] [--tidy]
#   (default: build)
#
# --sanitize additionally configures/builds/tests the `sanitize` CMake
# preset (ASan + UBSan, see CMakePresets.json) in build-sanitize/.
# --tsan     additionally builds the `tsan` preset (ThreadSanitizer) in
#            build-tsan/ and runs the concurrency-bearing tests under it
#            (the same subset CI's tsan job runs).
# --tidy     additionally runs tools/lint.sh (clang-tidy over src/; skips
#            with a notice when clang-tidy is not installed).
#
# The default run is unchanged: configure + build + ctest + strict build.
# All three flags compose: `tools/check.sh --tidy --tsan --sanitize` is
# the full local correctness gate.
#
# Mirrors the tier-1 verify in ROADMAP.md; run before every push.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="build"
SANITIZE=0
TSAN=0
TIDY=0
for arg in "$@"; do
  case "$arg" in
    --sanitize) SANITIZE=1 ;;
    --tsan) TSAN=1 ;;
    --tidy) TIDY=1 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

echo "== configure (${BUILD_DIR})"
cmake -B "$BUILD_DIR" -S .

echo "== build (all targets, -j${JOBS})"
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== ctest"
# --timeout 120 is the default for tests without an explicit TIMEOUT
# property (the CLI cases): a hung walker fails in minutes, not hours.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" --timeout 120

echo "== warning-clean library build (-Wall -Wextra -Werror)"
STRICT_DIR="${BUILD_DIR}-strict"
cmake -B "$STRICT_DIR" -S . \
  -DFRONTIER_WERROR=ON \
  -DFRONTIER_BUILD_TESTS=OFF \
  -DFRONTIER_BUILD_BENCH=OFF \
  -DFRONTIER_BUILD_EXAMPLES=OFF \
  -DFRONTIER_BUILD_TOOLS=OFF \
  >/dev/null
cmake --build "$STRICT_DIR" -j "$JOBS" --target frontier

if [ "$SANITIZE" -eq 1 ]; then
  echo "== sanitize build + tests (ASan + UBSan)"
  cmake --preset sanitize >/dev/null
  cmake --build --preset sanitize -j "$JOBS"
  ctest --preset sanitize -j "$JOBS" --timeout 120
fi

if [ "$TSAN" -eq 1 ]; then
  echo "== tsan build + concurrency tests (ThreadSanitizer)"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$JOBS" --target \
    test_replication_runner test_metrics_registry test_obs_determinism \
    test_graph_storage test_distributed_fs test_metrics test_stream_block \
    test_parallel test_stream_batch test_stream_checkpoint test_stream_sinks \
    test_motif_sinks
  # The concurrency-bearing subset: the replication work queue, the
  # sharded metrics registry, telemetry attach/detach during crawls, the
  # parallel edge-list parser / parallel sort, the walker shards of
  # ParallelFrontierSampler, the per-thread state of the intersection
  # kernel (its marks) and of the block's pick column, the codegree fill's
  # row split and its chase of the cursor, the sinks folded on a pool
  # worker while the cursor writes (also at two and three threads, where
  # one worker fills and folds or folds beside one filler), the engines
  # pumped through that chase, and the worker pool itself (nested and
  # concurrent callers, thread reuse, background jobs).
  # TSan's happens-before checking makes these meaningful; the rest of
  # the suite is single-threaded and already covered by ASan/UBSan.
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" --timeout 300 \
    -R '^(test_replication_runner|test_metrics_registry|test_obs_determinism|test_graph_storage|test_distributed_fs|test_metrics|test_stream_block(_threads[23])?|test_parallel|test_stream_batch(_threads[23])?|test_stream_checkpoint|test_stream_sinks|test_motif_sinks)$'
fi

if [ "$TIDY" -eq 1 ]; then
  echo "== clang-tidy (tools/lint.sh)"
  tools/lint.sh --build-dir "$BUILD_DIR"
fi

echo "== OK"
