"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

Workloads and metrics are defined in ``BENCHMARK.json`` (see
``perfbench/README.md``).  ``--trace 0`` prints every end-to-end metric;
``--trace 1`` prints every per-layer metric from a traced pass.  The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the full
record (host fingerprint, launch environment, check errors) is appended
to ``.perfbench_out/results.jsonl`` for ``perfbench/compare.py``.  The
exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import subprocess
import sys
import time

import benchlib

#: ``setup_s`` is the median of this many launches, each timed against
#: the baseline launches (``benchlib.BASELINE_ARGV``) on either side of it.
SETUP_LAUNCHES = 7
#: Whole-run budget: a run must end within 180 s.
RUN_BUDGET_S = 170.0


def setup_seconds(workload: str, seed: int, size: str, env: dict) -> dict:
    """``setup_s`` (process start, imports included, until ready for the
    first input) and the raw launch times it comes from."""
    module = importlib.import_module(f"workloads.{workload}")

    def probe(launch: int):
        if hasattr(module, "setup_probe"):
            return module.setup_probe(seed, size, launch)
        argv = [sys.executable, os.path.join(benchlib.BENCH_DIR, "worker.py"),
                "--workload", workload, "--seed", str(seed), "--size", size,
                "--setup-only"]
        return argv, benchlib.ready_line, lambda proc: None

    def baseline() -> float:
        return benchlib.time_until_ready(benchlib.BASELINE_ARGV, env,
                                         benchlib.ready_line, lambda proc: None)

    launches, baselines = [], [baseline()]
    for launch in range(SETUP_LAUNCHES):
        argv, ready, stop = probe(launch)
        launches.append(benchlib.time_until_ready(argv, env, ready, stop))
        baselines.append(baseline())
    ratios = [t / (0.5 * (b0 + b1))
              for t, b0, b1 in zip(launches, baselines, baselines[1:])]
    return {
        "setup_s": benchlib.median(ratios) * benchlib.BASELINE_LAUNCH_S,
        "launches_s": launches,
        "baselines_s": baselines,
    }


def run_worker(args, env: dict, budget_s: float) -> dict:
    argv = [sys.executable, os.path.join(benchlib.BENCH_DIR, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size] + (["--corrupt"] if args.corrupt else [])
    # Its own process group, so a hub it started cannot outlive a kill.
    proc = subprocess.Popen(argv, cwd=benchlib.ROOT, env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=budget_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: worker exceeded {budget_s:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: worker failed with status {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few ops, for the benchmark's self-tests")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one op's input; its output check must fail")
    parser.add_argument("--out", default=os.path.join(benchlib.OUT_DIR, "results.jsonl"),
                        help="JSONL file the full record is appended to")
    args = parser.parse_args(argv)

    if not benchlib.program_present():
        print(f"perfbench: no program source under {benchlib.SRC}", file=sys.stderr)
        return 2
    spec = benchlib.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2

    env = benchlib.hermetic_env()
    setup = None if args.trace else setup_seconds(args.workload, args.seed, args.size, env)
    budget = RUN_BUDGET_S - (time.perf_counter() - started)
    result = run_worker(args, env, budget)

    if args.trace:
        wanted, values = spec["per_layer"], result["layers"]
    else:
        wanted = spec["end_to_end"]
        values = dict(result["e2e"], setup_s=setup["setup_s"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    errors = result["errors"]
    line = {
        "correct": not errors,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    record = dict(
        line,
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, size=args.size, corrupt=args.corrupt,
        errors=errors[:20], setup=setup,
        counts=result.get("counts"), traced_counts=result.get("traced_counts"),
        host=benchlib.host_fingerprint(result.get("numpy")),
        env=benchlib.env_record(env),
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for err in errors[:20]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
