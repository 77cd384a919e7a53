#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload ntt-large --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. It builds the library modules and the
driver from source (CMake, into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), runs one workload, checks every output, prints a
readable report and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced variant and reports the per-layer metrics. The exit status is
0 only when every checked output was correct. Workloads, metrics and what
each per-layer metric should move are described in perfbench/README.md
and perfbench/metrics.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import benchlib  # noqa: E402

WORKLOADS = ("ntt-large", "ntt-hardened", "stark-prove", "service-mix")
DRIVER_TIMEOUT_S = 170


def build_dir(root):
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    return target / "perfbench"


def build(root):
    """Configure (once) and build perfbench_driver; returns its path."""
    out = build_dir(root)
    steps = []
    if not (out / "Makefile").exists():  # only a good configure writes it
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j3"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                               stderr=sys.stderr)
        except OSError as e:
            raise SystemExit("perfbench: cannot run %s: %s" % (cmd[0], e))
        if r.returncode != 0:
            raise SystemExit("perfbench: build step failed: " + " ".join(cmd))
    return out / "perfbench_driver"


def run_driver(driver, args, extra=()):
    cmd = [str(driver), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           "1" if args.trace else "0", *extra]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: driver timed out")
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        raise SystemExit("perfbench: driver exited with %d" % r.returncode)
    return json.loads(lines[-1])


def report(doc, figures, metrics, sources):
    """Readable lines: host, every metric with unit and samples."""
    h = doc["host"]
    print("perfbench %s seed=%d trace=%d" % (
        doc["workload"], doc["seed"], 1 if doc["traced"] else 0))
    print("host: %s; nproc=%d; L3=%.1f MiB; %s %s; host threads=%d; "
          "tuning DB %s" % (h["router"], h["nproc"], h["l3_mib"],
                            h["compiler"], h["build_type"],
                            h["host_threads"], h["tunedb"]))
    print("op: %s" % doc["op"])
    for name, (value, unit, n, note) in metrics.items():
        src = " [%s]" % sources[name] if name in sources else ""
        print("  %-36s %14.6g %-8s n=%-6s %s%s" % (name, value, unit, n,
                                                    note, src))
    for name, (value, note) in figures.items():
        print("  %-36s %14.6g %s" % (name, value, note))
    if doc["deterministic"]:
        print("deterministic: " + ", ".join(
            "%s=%.17g" % kv for kv in sorted(doc["deterministic"].items())))
    for why in doc["failures"]:
        print("FAILED: " + why)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-wrong", type=int, default=0,
                   help="self-test: corrupt this many checked outputs")
    args = p.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    driver = build(root)
    extra = ["--inject-wrong", str(args.inject_wrong)]
    if args.trace:
        trace_file = build_dir(root) / ("trace-%s-%d.json" % (
            args.workload, args.seed))
        extra += ["--trace-out", str(trace_file)]
    doc = run_driver(driver, args, extra)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = benchlib.per_layer(doc)
        metrics = {m["name"]: (values[m["name"]], m["unit"], 1, "")
                   for m in wanted if m["name"] in values}
        sources = doc["layer_source"]
    else:
        e2e = benchlib.end_to_end(doc)
        metrics = {m["name"]: (e2e[m["name"]][0], m["unit"],
                               e2e[m["name"]][1], e2e[m["name"]][2])
                   for m in wanted}
        values = {k: v[0] for k, v in e2e.items()}
        sources = {}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit("perfbench: no value for " + ", ".join(missing))

    report(doc, benchlib.workload_figures(doc), metrics, sources)
    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps(benchlib.result_line(doc, units, values)), flush=True)
    return 0 if doc["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
