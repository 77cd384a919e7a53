#!/usr/bin/env bash
# Build everything, run the full test suite, regenerate every
# table/figure, and run all examples — the one-command reproduction.
# Every bench and example runs even when an earlier one fails; the
# script then names each that exited non-zero and exits 1.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j"$(nproc)"

echo "== tests =="
ctest --test-dir build --output-on-failure

FAILED=()
# Run "$@" and record its name when it exits non-zero.
run() {
    "$@" || FAILED+=("$(basename "$1")")
}

echo "== benches (tables & figures) =="
# bench_host_ntt writes its JSON artifact; keep the committed one intact.
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT
for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    if [ "$(basename "$b")" = bench_host_ntt ]; then
        run "$b" --out="$OUT_DIR/BENCH_host_ntt.json"
    else
        run "$b"
    fi
done

echo "== examples =="
for e in build/examples/*; do
    [ -f "$e" ] && [ -x "$e" ] || continue
    run "$e"
done

if [ "${#FAILED[@]}" -gt 0 ]; then
    echo "FAILED (exited non-zero): ${FAILED[*]}" >&2
    exit 1
fi
echo "all green"
