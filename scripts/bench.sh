#!/usr/bin/env bash
# Perf-trajectory runner: builds (if needed) and runs the host NTT
# kernel harness, validates its JSON artifact, and in full mode also
# runs the micro/host benches that put the number in context.
#
#   ./scripts/bench.sh           full run (logN 12-16 and 20/22/24,
#                                median and IQR of 9 interleaved reps)
#   ./scripts/bench.sh --smoke   CI mode: tiny sizes, fails if the
#                                fused path's median is >10% slower
#                                than the per-stage path's, or if a
#                                vector path loses to scalar
#
# The artifact BENCH_host_ntt.json lands in the repo root so commits
# can be diffed against each other; see EXPERIMENTS.md for the schema.
# A --smoke run writes its points to a temp file instead (they are not
# a trajectory point) unless OUT names a destination.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"

SMOKE=""
for arg in "$@"; do
    case "$arg" in
    --smoke) SMOKE="--smoke" ;;
    *)
        echo "usage: $0 [--smoke]" >&2
        exit 2
        ;;
    esac
done

# Scratch files live in a private directory, so concurrent runs (two
# checkouts, say) never read each other's output.
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

if [ -z "${OUT:-}" ]; then
    if [ -n "$SMOKE" ]; then
        OUT="$TMP_DIR/BENCH_host_ntt.json"
    else
        OUT=BENCH_host_ntt.json
    fi
fi

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j"$JOBS" --target bench_host_ntt \
    fig22_simd_speedup micro_ntt micro_field fig18_host_parallel \
    unintt-cli

echo "==> host NTT kernel harness (one sweep per ISA path)"
"$BUILD_DIR"/bench/bench_host_ntt $SMOKE --out="$OUT" \
    | tee "$TMP_DIR/bench_host_ntt.txt"
grep -q "router: " "$TMP_DIR/bench_host_ntt.txt"

if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$OUT" >/dev/null
    grep -q '"router"' "$OUT"
    grep -q '"isa"' "$OUT"
    echo "==> $OUT parses and carries the router/isa fields"
fi

echo "==> fig22: SIMD speedup gate (vector must not lose at any swept size)"
"$BUILD_DIR"/bench/fig22_simd_speedup $SMOKE

if [ -z "$SMOKE" ]; then
    echo "==> context benches"
    "$BUILD_DIR"/bench/micro_field --benchmark_min_time=0.05
    "$BUILD_DIR"/bench/micro_ntt --benchmark_min_time=0.05
    "$BUILD_DIR"/bench/fig18_host_parallel
fi

echo "==> bench OK"
