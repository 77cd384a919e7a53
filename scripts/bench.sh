#!/usr/bin/env bash
# Perf-trajectory runner: builds (if needed) and runs the host NTT
# kernel harness, validates its JSON artifact, and in full mode also
# runs the micro/host benches that put the number in context.
#
#   ./scripts/bench.sh           full run (logN 20/22/24, best-of-5)
#   ./scripts/bench.sh --smoke   CI mode: tiny sizes, fails if the
#                                fused path is >10% slower than the
#                                per-stage path
#   ./scripts/bench.sh --tune    refresh tuning/tunedb.json with the
#                                autotuner, re-emit the artifact from
#                                tuned schedules, and gate: no tuned
#                                point slower than its previous tuned
#                                value beyond noise tolerance
#
# The artifact BENCH_host_ntt.json lands in the repo root so commits
# can be diffed against each other; see EXPERIMENTS.md for the schema.
# A --smoke run writes its points to a temp file instead (they are not
# a trajectory point) unless OUT names a destination.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"
TUNE_DB="${TUNE_DB:-tuning/tunedb.json}"

SMOKE=""
TUNE=""
for arg in "$@"; do
    case "$arg" in
    --smoke) SMOKE="--smoke" ;;
    --tune) TUNE=1 ;;
    *)
        echo "usage: $0 [--smoke] [--tune]" >&2
        exit 2
        ;;
    esac
done

if [ -z "${OUT:-}" ]; then
    if [ -n "$SMOKE" ]; then
        OUT_DIR="$(mktemp -d)"
        trap 'rm -rf "$OUT_DIR"' EXIT
        OUT="$OUT_DIR/BENCH_host_ntt.json"
    else
        OUT=BENCH_host_ntt.json
    fi
fi

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j"$JOBS" --target bench_host_ntt \
    fig22_simd_speedup micro_ntt micro_field fig18_host_parallel \
    unintt-cli

TUNE_FLAGS=""
if [ -n "$TUNE" ]; then
    echo "==> autotuner refresh of $TUNE_DB (pinned bench key: "
    echo "    Goldilocks, 1 GPU, 1 host thread, functional)"
    "$BUILD_DIR"/src/tools/unintt-cli tune --fields=goldilocks \
        --log-ns=20,22,24 --gpus=1 --threads=1 --reps=3 \
        --db="$TUNE_DB"
    # Bank the previous artifact so the regression gate below can
    # compare tuned points across the refresh.
    if [ -f "$OUT" ]; then
        cp "$OUT" "$OUT.prev"
    fi
    TUNE_FLAGS="--tune --tune-db=$TUNE_DB"
fi

echo "==> host NTT kernel harness (one sweep per ISA path)"
"$BUILD_DIR"/bench/bench_host_ntt $SMOKE $TUNE_FLAGS --out="$OUT" \
    | tee /tmp/bench_host_ntt.txt
grep -q "router: " /tmp/bench_host_ntt.txt

if [ -n "$TUNE" ] && [ -f "$OUT.prev" ] \
    && command -v python3 >/dev/null 2>&1; then
    echo "==> tuned-point regression gate ($OUT.prev vs $OUT)"
    python3 scripts/check_bench_regression.py "$OUT.prev" "$OUT"
fi

if [ -n "$TUNE" ] && [ -z "$SMOKE" ] \
    && command -v python3 >/dev/null 2>&1; then
    echo "==> tuned headline gate (AVX-512 fused ns/butterfly <= 1.29)"
    # The reference number is AVX-512; hosts routing elsewhere have no
    # comparable baseline and skip the absolute gate.
    python3 - "$OUT" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if doc.get("router") != "avx512":
    print(f"skipped: router is {doc.get('router')}, reference is avx512")
    sys.exit(0)
pts = [p for p in doc["points"]
       if p["isa"] == "avx512" and p.get("tuned")]
if not pts:
    print("FAIL: no tuned avx512 points in the artifact")
    sys.exit(1)
best = min(p["fusedNsPerButterfly"] for p in pts)
print(f"best tuned avx512 fused ns/butterfly: {best:.3f} "
      f"(gate <= 1.29)")
sys.exit(0 if best <= 1.29 else 1)
EOF
fi

if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$OUT" >/dev/null
    grep -q '"router"' "$OUT"
    grep -q '"isa"' "$OUT"
    echo "==> $OUT parses and carries the router/isa fields"
fi

echo "==> fig22: SIMD speedup gate (vector must not lose at logN >= 16)"
"$BUILD_DIR"/bench/fig22_simd_speedup $SMOKE

if [ -z "$SMOKE" ]; then
    echo "==> context benches"
    "$BUILD_DIR"/bench/micro_field --benchmark_min_time=0.05s
    "$BUILD_DIR"/bench/micro_ntt --benchmark_min_time=0.05s
    "$BUILD_DIR"/bench/fig18_host_parallel
fi

echo "==> bench OK"
