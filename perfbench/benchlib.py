"""Pure helpers of the repository benchmark: statistics, failure
accounting and turning perfbench_driver's raw document into metrics.

Kept free of I/O so perfbench/test_benchlib.py can check them on known
inputs.
"""

import statistics

# A timing's tail is the highest percentile with at least this many
# samples beyond it.
TAIL_BEYOND = 10


def median(values):
    """Median of a non-empty sample."""
    return statistics.median(values)


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile of `values` with at least `beyond` samples
    above it, as (value, percentile, sample count).

    The order statistic sorted[n - beyond - 1] has exactly `beyond`
    samples after it and sits at percentile (n - beyond) / n. With fewer
    than 2 * beyond samples that percentile falls below the median, so
    the median is reported instead, at percentile 50.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n < 2 * beyond:
        return median(values), 50.0, n
    ordered = sorted(values)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def failed_ratio(attempted, failed):
    """Failed operations over attempted ones (each failure counts once,
    and a run can never report more failures than operations)."""
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    return min(failed, attempted) / attempted


def tail_note(pct, n):
    """How a tail value was taken, for the report."""
    if pct > 50:
        return "p%.1f of %d, %d beyond" % (pct, n, TAIL_BEYOND)
    return "median of %d: too few samples for a tail" % n


def end_to_end(doc):
    """The end-to-end metrics of one untraced perfbench_driver document, as
    (value, sample count, note)."""
    op_ms = [s * 1e3 for s in doc["op_s"]]
    tail_ms, pct, n = tail(op_ms)
    return {
        "setup_s": (median(doc["setup_s"]), len(doc["setup_s"]),
                    "median of cold set-ups"),
        "op_ms_p50": (median(op_ms), n, "median " + doc["op"]),
        "op_ms_tail": (tail_ms, n, tail_note(pct, n)),
        "ops_per_s": (doc["loop_ops"] / doc["loop_wall_s"], doc["loop_ops"],
                      "operations over their summed host time"),
        "peak_rss_mib": (doc["peak_rss_mib"], 1, "ru_maxrss"),
    }


def workload_figures(doc):
    """The workload-specific figures the report prints under their own
    names (see metrics.json "workload_figures"), each as (value, note)."""
    e2e = end_to_end(doc)
    out = {"failed_ratio": (failed_ratio(doc["attempted"], doc["failed"]),
                            "%d of %d" % (doc["failed"], doc["attempted"]))}
    extra, samples = doc["extra"], doc["samples"]
    w = doc["workload"]
    if w in ("ntt-large", "ntt-hardened"):
        t = samples["transform_ms"]
        value, pct, n = tail(t)
        out["melem_per_s"] = (extra["melem_per_s"], "")
        out["transform_ms_p50"] = (median(t), "median of %d" % n)
        out["transform_ms_tail"] = (value, tail_note(pct, n))
        out["sim_transform_us"] = (extra["sim_transform_us"],
                                   "simulated, one forward")
    elif w == "stark-prove":
        out["prove_s_p50"] = (e2e["op_ms_p50"][0] / 1e3, "")
        out["prove_s_tail"] = (e2e["op_ms_tail"][0] / 1e3,
                               e2e["op_ms_tail"][2])
        out["verify_ms_p50"] = (extra["verify_ms_p50"], "")
    elif w == "service-mix":
        lat = samples["job_sim_us"]
        value, pct, n = tail(lat)
        out["jobs_per_s"] = (extra["jobs_per_s"], "host wall")
        out["job_sim_us_p50"] = (median(lat), "virtual time")
        out["job_sim_us_tail"] = (value, "virtual time, " +
                                  tail_note(pct, n))
    return out


def per_layer(doc):
    """The per-layer metrics of one traced perfbench_driver document: its
    layer values plus those derived here from its samples."""
    layers = dict(doc["layers"])
    lat = doc["samples"]["job_sim_us"]
    layers["service.job_sim_us_p50"] = median(lat)
    layers["service.job_sim_us_tail"] = tail(lat)[0]
    layers["service.queue_wait_sim_us_p50"] = median(
        doc["samples"]["queue_wait_sim_us"])
    traced, untraced = doc["traced_op_s"], doc["op_s"]
    if traced and untraced:
        layers["perfbench.trace_overhead_pct"] = (
            median(traced) / median(untraced) - 1) * 100
    return layers


def result_line(doc, metric_units, values):
    """The benchmark's final JSON object: correctness, counts and the
    named metrics with their units."""
    return {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metric_units.items()},
    }
