"""One benchmark process: set up, generate inputs, time, check, report.

Launched by ``run.py`` under the hermetic environment; prints one JSON
line.  ``--setup-only`` prints ``ready`` once the workload's deployments
are calibrated and exits (``run.py`` times that launch as ``setup_s``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

import benchlib
import layers
from benchlib import percentile


def _repro_is_local() -> None:
    import repro

    where = os.path.dirname(os.path.realpath(repro.__file__))
    if os.path.dirname(where) != os.path.realpath(benchlib.SRC):
        raise SystemExit(f"repro imported from {where}, not from {benchlib.SRC}")


def end_to_end(phase, peak_rss_mb: float, tail_q: float) -> dict:
    """Untraced metrics; timings normalized to the nominal host speed."""
    latencies = phase.normalized_latencies()
    return {
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": phase.ops_per_s(),
        "cpu_ms_per_op": phase.cpu_ms_per_op(),
        "latency_p50_ms": percentile(latencies, 50.0),
        "latency_tail_ms": percentile(latencies, tail_q),
    }


def counts(phase) -> dict:
    """Raw (unnormalized) figures of a pass, for the record."""
    return {
        "ops": phase.attempted,
        "latency_samples": len(phase.latencies_ms),
        "wall_s": phase.wall_s,
        "cpu_s": phase.cpu_s,
        "host_factor": phase.factor,
        "reference_bursts": len(phase.speed.samples),
        "slices": len(phase.slices),
        "accuracy": phase.correct / max(phase.attempted, 1),
    }


def measure_inprocess(wl, seed: int, seconds: float, trace: bool, size: str,
                      corrupt: bool) -> dict:
    state = wl.setup(seed, size)
    inputs = wl.prepare(state, seed, size, corrupt)
    # Peak memory of the timed phase alone, not of set-up and inputs.
    rss_reset = benchlib.reset_peak_rss(os.getpid())
    phase = wl.run(state, inputs, seconds, size)
    peak_rss_mb = benchlib.proc_peak_rss_mb(os.getpid())
    errors = wl.check(state, inputs, phase, seed, size)
    result = {
        "attempted": phase.attempted,
        "failed": phase.failed,
        "errors": errors,
        "e2e": end_to_end(phase, peak_rss_mb, wl.TAIL_Q),
        "counts": dict(counts(phase), rss_reset=rss_reset),
    }
    if not trace:
        return result
    # Same seed and size: a fresh set-up replays the same trial draws.
    timers = benchlib.Timers()
    traced_state = wl.setup(seed, size)
    layers.install(timers)
    try:
        traced = wl.run(traced_state, inputs, seconds, size)
    finally:
        timers.unpatch()
    per_layer = layers.from_timers(timers, traced.completed, traced.wall_s,
                                   traced.factor)
    per_layer["trace_overhead_pct"] = 100.0 * (1.0 - traced.ops_per_s() / phase.ops_per_s())
    if phase.chunk_ms:
        factor = phase.factor
        per_layer["stream.chunk_p50_ms"] = percentile(phase.chunk_ms, 50.0) / factor
        per_layer["stream.chunk_p99_ms"] = percentile(phase.chunk_ms, 99.0) / factor
    if phase.lags_ms:
        per_layer["stream.decision_lag_ms"] = percentile(phase.lags_ms, 50.0)
    if phase.stitch_cm:
        per_layer["core.stitch_err_cm"] = percentile(phase.stitch_cm, 50.0)
    per_layer["latency_tail_ms"] = result["e2e"]["latency_tail_ms"]
    per_layer["accuracy"] = phase.correct / max(phase.attempted, 1)
    result["layers"] = per_layer
    result["traced_counts"] = counts(traced)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _repro_is_local()
    wl = importlib.import_module(f"workloads.{args.workload}")
    if args.setup_only:
        wl.setup(args.seed, args.size)
        print("ready", flush=True)
        return 0
    start = time.perf_counter()
    if hasattr(wl, "measure"):
        result = wl.measure(args.seed, args.seconds, bool(args.trace), args.size,
                            args.corrupt)
    else:
        result = measure_inprocess(wl, args.seed, args.seconds, bool(args.trace),
                                   args.size, args.corrupt)
    import numpy

    result["numpy"] = numpy.__version__
    result["worker_s"] = time.perf_counter() - start
    print(json.dumps(result), flush=True)  # the line run.py reads
    return 0


if __name__ == "__main__":
    sys.exit(main())
