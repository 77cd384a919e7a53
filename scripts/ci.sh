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
# The shared caches' single-flight contract must hold on every run, not
# most: repeat the concurrency stress binary until it fails (it must not).
echo "==> cache concurrency stress, 200 repeats"
ctest --test-dir "$BUILD_DIR" -R test_concurrency --output-on-failure \
    --repeat until-fail:200

echo "==> ThreadSanitizer tree ($BUILD_DIR-tsan)"
# Races are caught here, not by luck: the concurrency stress tests, the
# proving service, the differential harness (thread-count sweeps) and
# both soaks run under -fsanitize=thread, which exits non-zero on any
# report.
cmake -B "$BUILD_DIR-tsan" -S . -DCMAKE_CXX_FLAGS=-fsanitize=thread \
    -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread >/dev/null
cmake --build "$BUILD_DIR-tsan" -j"$JOBS" --target test_concurrency \
    test_service test_differential unintt-cli
# Through ctest, so the binaries run in the build tree as in the regular
# passes (from the repo root they would consult tuning/tunedb.json).
ctest --test-dir "$BUILD_DIR-tsan" --output-on-failure -j"$JOBS" \
    -R '^(test_concurrency|test_service|test_differential)$'
"$BUILD_DIR-tsan"/src/tools/unintt-cli soak --campaigns 4 --small
"$BUILD_DIR-tsan"/src/tools/unintt-cli soak --service --small

echo "==> acceleration router smoke (--list-kernels + report line)"
"$BUILD_DIR"/src/tools/unintt-cli list-kernels \
    | tee /tmp/ci_kernels.txt
grep -q "router: " /tmp/ci_kernels.txt
grep -qi "goldilocks" /tmp/ci_kernels.txt
# The functional engine must surface its bound path in the report.
"$BUILD_DIR"/src/tools/unintt-cli ntt --log-n=14 --gpus=2 \
    --functional | tee /tmp/ci_ntt_isa.txt
grep -Eq "isa [a-z0-9]+ \([0-9]+ lanes?, [0-9]+ dispatches\)" \
    /tmp/ci_ntt_isa.txt
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
    | tee /tmp/ci_soak.txt
grep -Eq "compute flips:  [1-9][0-9]* injected" /tmp/ci_soak.txt
grep -Eq "[1-9][0-9]* caught by ABFT" /tmp/ci_soak.txt

echo "==> ABFT negative control (--no-abft must see silent corruption)"
# Expected failure: with the checksums off, seeded in-kernel bit flips
# must surface as silent corruptions and fail the soak. If this exits
# zero the injection path is dead and the ABFT gate above is vacuous.
if "$BUILD_DIR"/src/tools/unintt-cli soak --campaigns 8 --small \
    --no-abft >/tmp/ci_soak_noabft.txt 2>&1; then
    echo "FAIL: --no-abft soak passed — compute-flip injection is dead"
    exit 1
fi
grep -q "silent corruption" /tmp/ci_soak_noabft.txt

echo "==> ABFT overhead smoke (fig21: checksum tax + tile recovery)"
"$BUILD_DIR"/bench/fig21_abft_overhead --smoke | tee /tmp/ci_fig21.txt
grep -Eq "abftCatches=[1-9][0-9]*" /tmp/ci_fig21.txt

echo "==> service chaos soak (multi-tenant load + seeded device kills)"
# Exits non-zero on silent corruption, unaccounted jobs, or a healthy
# tenant's p99 blowing past 2x its fault-free baseline. The same gate
# also runs as the service_soak_smoke ctest (including the ASan tree)
# and under ThreadSanitizer above.
"$BUILD_DIR"/src/tools/unintt-cli soak --service --small

echo "==> schedule IR smoke (table + JSON + fused groups)"
"$BUILD_DIR"/src/tools/unintt-cli schedule --log-n=20 --gpus=4 \
    | tee /tmp/ci_schedule.txt
grep -q "fused-pass" /tmp/ci_schedule.txt
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
    | tee /tmp/ci_schedule_dag.json | grep -q '"overlap": true'
grep -q '"waves": [1-9]' /tmp/ci_schedule_dag.json

echo "==> autotuner smoke (tiny space -> DB write -> DB hit)"
# One CLI tune over the tiny grid must produce at least one DB entry,
# and a recompile pointed at that DB must report tuned provenance.
TDB=/tmp/ci_tunedb.json
rm -f "$TDB"
"$BUILD_DIR"/src/tools/unintt-cli tune --small --fields=goldilocks \
    --log-ns=12 --gpus=1 --reps=2 --db="$TDB" | tee /tmp/ci_tune.txt
grep -Eq "wrote [1-9][0-9]* entries" /tmp/ci_tune.txt
UNINTT_TUNEDB="$TDB" "$BUILD_DIR"/src/tools/unintt-cli schedule \
    --log-n=12 --gpus=1 --json | grep -q '"scheduleSource": "tuned"'
# With the DB off the same compile must stay heuristic.
UNINTT_TUNEDB=off "$BUILD_DIR"/src/tools/unintt-cli schedule \
    --log-n=12 --gpus=1 --json | grep -q '"scheduleSource": "heuristic"'

if command -v python3 >/dev/null 2>&1; then
    echo "==> tuned-point regression gate self-test"
    # The gate bench.sh --tune runs over refreshed artifacts: a
    # within-tolerance refresh must pass and a 2x slowdown must fail
    # (negative control, so the gate can never rot into a no-op).
    python3 - <<'EOF'
import json
point = {"logN": 24, "isa": "avx512", "tuned": True,
         "fusedNsPerButterfly": 1.0}
json.dump({"points": [point]}, open("/tmp/ci_bench_prev.json", "w"))
point_ok = dict(point, fusedNsPerButterfly=1.05)
json.dump({"points": [point_ok]}, open("/tmp/ci_bench_ok.json", "w"))
point_bad = dict(point, fusedNsPerButterfly=2.0)
json.dump({"points": [point_bad]}, open("/tmp/ci_bench_bad.json", "w"))
EOF
    python3 scripts/check_bench_regression.py \
        /tmp/ci_bench_prev.json /tmp/ci_bench_ok.json
    if python3 scripts/check_bench_regression.py \
        /tmp/ci_bench_prev.json /tmp/ci_bench_bad.json; then
        echo "FAIL: regression gate accepted a 2x tuned slowdown"
        exit 1
    fi
fi

if command -v python3 >/dev/null 2>&1; then
    echo "==> benchmark self-tests (perfbench/test_benchlib.py)"
    # Builds the benchmark and replays short ntt-hardened and
    # service-mix runs: resilient bytes equal the plain engine's,
    # injected == caught + escalated, deterministic counters repeat
    # exactly, and --inject-wrong outputs are counted as failed.
    python3 perfbench/test_benchlib.py
fi

echo "==> fig23 autotune smoke (tuned >= heuristic per point)"
"$BUILD_DIR"/bench/fig23_autotune --smoke

echo "==> host kernel perf smoke (fused vs per-stage)"
./scripts/bench.sh --smoke

echo "==> sanitizer build + tests"
./scripts/check_sanitize.sh

echo "==> CI OK"
