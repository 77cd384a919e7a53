#!/usr/bin/env bash
# Build everything, run the full test suite, regenerate every
# table/figure, and run all examples — the one-command reproduction.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j"$(nproc)"

echo "== tests =="
ctest --test-dir build --output-on-failure

echo "== benches (tables & figures) =="
# bench_host_ntt writes its JSON artifact; keep the committed one intact.
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT
for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    if [ "$(basename "$b")" = bench_host_ntt ]; then
        "$b" --out="$OUT_DIR/BENCH_host_ntt.json"
    else
        "$b"
    fi
done

echo "== examples =="
for e in build/examples/*; do
    [ -f "$e" ] && [ -x "$e" ] && "$e"
done

echo "all green"
