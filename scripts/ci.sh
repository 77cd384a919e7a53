#!/usr/bin/env bash
# The full CI pipeline: build the regular tree and run the complete
# test suite, run the concurrency-heavy tests under ThreadSanitizer,
# then run the suite under ASan + UBSan via scripts/check_sanitize.sh
# (separate build trees). Every step must pass for a change to merge.
# Local usage is identical: ./scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"
# CI must leave the checkout as it found it: no rewritten artifact, no
# stray scratch file. Compared again at the end.
GIT_STATUS_BEFORE="$(git status --porcelain)"
# Scratch output of the smoke steps goes to a private directory, so
# concurrent runs (two checkouts, say) never read each other's files.
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

echo "==> reachability guard (no src/ file only tests reach)"
python3 scripts/check_reachability.py

echo "==> regular build + tests ($BUILD_DIR)"
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$JOBS"
# Two full passes of the suite: first pinned to the scalar kernels
# (the pre-SIMD reference bytes), then with the router free to bind
# the best vector path. Both must be green — byte-identity across
# acceleration paths is a correctness contract, not a fast path.
echo "==> tests, forced scalar kernels (UNINTT_FORCE_ISA=scalar)"
UNINTT_FORCE_ISA=scalar \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"
echo "==> tests, auto-routed kernels"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"
# Where the router binds AVX-512, the pass above never runs the AVX2
# table inside the engine, only in the span-level test. Run the
# engine-level byte-identity matrices, the resilient tile recovery
# that shares the fused sweeps' stage walk, the proving service,
# whose job inputs and output checksums run the word slots, and the
# STARK tests, whose FRI LDEs run the radix-2 span kernels (so the
# pinned and resumed proofs are also produced on the AVX2 table), once
# more on the AVX2 kernels.
if env -u UNINTT_FORCE_ISA "$BUILD_DIR"/src/tools/unintt-cli list-kernels |
    grep -q "^router: avx512 "; then
    echo "==> engine-level tests, forced AVX2 kernels (UNINTT_FORCE_ISA=avx2)"
    UNINTT_FORCE_ISA=avx2 ctest --test-dir "$BUILD_DIR" \
        --output-on-failure -j"$JOBS" \
        -R '^(test_differential|test_determinism|test_fault|test_service|test_air|test_stark|test_checkpoint|test_serialize)$'
fi
# The shared caches' single-flight contract must hold on every run, not
# most: repeat the concurrency stress binary until it fails (it must not).
echo "==> cache concurrency stress, 200 repeats"
ctest --test-dir "$BUILD_DIR" -R test_concurrency --output-on-failure \
    --repeat until-fail:200
# ctest runs each test binary inside the build tree. Run every one once
# more from the checkout root: no test may depend on where it runs.
# The names come from ctest, so a stale binary of a deleted test is
# never run.
echo "==> test binaries, run from the checkout root"
for t in $(ctest --test-dir "$BUILD_DIR" -N |
    sed -n 's/^ *Test *#[0-9]*: \(test_[a-z0-9_]*\)$/\1/p'); do
    echo "--- $t"
    "$BUILD_DIR/tests/$t" >"$TMP_DIR/ci_test_from_root.txt" 2>&1 || {
        cat "$TMP_DIR/ci_test_from_root.txt"
        exit 1
    }
done

echo "==> ThreadSanitizer tree ($BUILD_DIR-tsan)"
# Races are caught here, not by luck: the concurrency stress tests, the
# proving service, the differential harness (thread-count sweeps), the
# resilient paths (test_fault: in-place partner reads under overlapped
# waves) and both soaks run under -fsanitize=thread, which exits
# non-zero on any report.
cmake -B "$BUILD_DIR-tsan" -S . -DCMAKE_CXX_FLAGS=-fsanitize=thread \
    -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread >/dev/null
cmake --build "$BUILD_DIR-tsan" -j"$JOBS" --target test_concurrency \
    test_service test_differential test_fault unintt-cli
ctest --test-dir "$BUILD_DIR-tsan" --output-on-failure -j"$JOBS" \
    -R '^(test_concurrency|test_service|test_differential|test_fault)$'
"$BUILD_DIR-tsan"/src/tools/unintt-cli soak --campaigns 4 --small
"$BUILD_DIR-tsan"/src/tools/unintt-cli soak --service --small

echo "==> acceleration router smoke (--list-kernels + report line)"
"$BUILD_DIR"/src/tools/unintt-cli list-kernels \
    | tee "$TMP_DIR/ci_kernels.txt"
grep -q "router: " "$TMP_DIR/ci_kernels.txt"
grep -qi "goldilocks" "$TMP_DIR/ci_kernels.txt"
# The functional engine must surface its bound path in the report.
"$BUILD_DIR"/src/tools/unintt-cli ntt --log-n=14 --gpus=2 \
    --functional | tee "$TMP_DIR/ci_ntt_isa.txt"
grep -Eq "isa [a-z0-9]+ \([0-9]+ lanes?, [0-9]+ dispatches\)" \
    "$TMP_DIR/ci_ntt_isa.txt"
# Forcing scalar through the config flag must also stick.
"$BUILD_DIR"/src/tools/unintt-cli ntt --log-n=14 --gpus=2 \
    --functional --isa=scalar | grep -q "isa scalar (1 lane,"

echo "==> compile-only config: -DUNINTT_DISABLE_SIMD=ON"
# The vector TUs are optional by design; the scalar-only tree must
# keep configuring and compiling (no tests — the regular tree already
# proved scalar correctness via UNINTT_FORCE_ISA=scalar above).
cmake -B "$BUILD_DIR-nosimd" -S . -DUNINTT_DISABLE_SIMD=ON >/dev/null
cmake --build "$BUILD_DIR-nosimd" -j"$JOBS" --target unintt-cli
# With the vector TUs stripped the probe may still see the hardware,
# but the router must resolve to scalar and bind only scalar tables.
"$BUILD_DIR-nosimd"/src/tools/unintt-cli list-kernels \
    | grep -q "router: scalar"

echo "==> chaos soak (checkpointed pipeline + resilient NTT)"
# The soak itself hard-gates the ABFT ledger (injected == caught +
# escalated) and silent corruptions; the greps below additionally pin
# that the sdc-* grid rows actually exercised the compute-flip path,
# so the gate can never go green by injecting nothing.
"$BUILD_DIR"/src/tools/unintt-cli soak --campaigns 8 --small \
    | tee "$TMP_DIR/ci_soak.txt"
grep -Eq "compute flips:  [1-9][0-9]* injected" "$TMP_DIR/ci_soak.txt"
grep -Eq "[1-9][0-9]* caught by ABFT" "$TMP_DIR/ci_soak.txt"

echo "==> ABFT negative control (--no-abft must see silent corruption)"
# Expected failure: with the checksums off, seeded in-kernel bit flips
# must surface as silent corruptions and fail the soak. If this exits
# zero the injection path is dead and the ABFT gate above is vacuous.
if "$BUILD_DIR"/src/tools/unintt-cli soak --campaigns 8 --small \
    --no-abft >"$TMP_DIR/ci_soak_noabft.txt" 2>&1; then
    echo "FAIL: --no-abft soak passed — compute-flip injection is dead"
    exit 1
fi
grep -q "silent corruption" "$TMP_DIR/ci_soak_noabft.txt"

echo "==> ABFT overhead smoke (fig21: checksum tax + tile recovery)"
"$BUILD_DIR"/bench/fig21_abft_overhead --smoke | tee "$TMP_DIR/ci_fig21.txt"
grep -Eq "abftCatches=[1-9][0-9]*" "$TMP_DIR/ci_fig21.txt"

echo "==> service chaos soak (multi-tenant load + seeded device kills)"
# Exits non-zero on silent corruption, unaccounted jobs, or a healthy
# tenant's p99 blowing past 2x its fault-free baseline. The same gate
# also runs as the service_soak_smoke ctest (including the ASan tree)
# and under ThreadSanitizer above.
"$BUILD_DIR"/src/tools/unintt-cli soak --service --small

echo "==> schedule IR smoke (table + JSON + fused groups)"
"$BUILD_DIR"/src/tools/unintt-cli schedule --log-n=20 --gpus=4 \
    | tee "$TMP_DIR/ci_schedule.txt"
grep -q "fused-pass" "$TMP_DIR/ci_schedule.txt"
if command -v python3 >/dev/null 2>&1; then
    "$BUILD_DIR"/src/tools/unintt-cli schedule --log-n=20 --gpus=4 --json \
        | python3 -m json.tool >/dev/null
fi

echo "==> DAG overlap smoke (4-GPU 2^22 plan must carry the overlay)"
# The differential DAG matrix and the mid-overlap chaos tests run in
# the ctest passes above (test_differential, test_fault, and
# test_concurrency under ThreadSanitizer); this gate additionally pins the
# user-visible surface: the compiled schedule reports overlap.
"$BUILD_DIR"/src/tools/unintt-cli schedule --log-n=22 --gpus=4 --json \
    | tee "$TMP_DIR/ci_schedule_dag.json" | grep -q '"overlap": true'
grep -q '"waves": [1-9]' "$TMP_DIR/ci_schedule_dag.json"

if command -v python3 >/dev/null 2>&1; then
    echo "==> benchmark self-tests (perfbench/test_benchlib.py)"
    # Builds the benchmark and replays short ntt-hardened and
    # service-mix runs: resilient bytes equal the plain engine's,
    # injected == caught + escalated, deterministic counters repeat
    # exactly, and --inject-wrong outputs are counted as failed.
    python3 perfbench/test_benchlib.py
fi

echo "==> host kernel perf smoke (fused vs per-stage)"
./scripts/bench.sh --smoke

echo "==> sanitizer build + tests"
./scripts/check_sanitize.sh

echo "==> checkout unchanged by CI (git status --porcelain)"
if [ "$(git status --porcelain)" != "$GIT_STATUS_BEFORE" ]; then
    echo "FAIL: CI changed the checkout:"
    diff <(echo "$GIT_STATUS_BEFORE") <(git status --porcelain) || true
    exit 1
fi

echo "==> CI OK"
