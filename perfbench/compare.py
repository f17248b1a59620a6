"""Compare two benchmark result sets, metric by metric and layer by layer.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds records appended by ``run.py --out FILE`` (default
``.perfbench_out/results.jsonl``).  For every workload the end-to-end
metrics come first, then every per-layer metric, each with its median,
its spread (interquartile range / median over the runs) and the run
count; given two sets, the change of the medians and, for end-to-end
metrics, whether it exceeds the bound in ``BENCHMARK.json``.  Records
from different hosts are reported, since they do not compare like with
like.  With one file it summarises that set (the steadiness check).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from typing import Dict, List, Optional

import benchlib


def load(path: str) -> Dict[tuple, List[dict]]:
    """(workload, trace) -> full-size, uncorrupted records."""
    groups: Dict[tuple, List[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("size") == "full" and not rec.get("corrupt"):
                groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def summary(records: List[dict], name: str) -> Optional[tuple]:
    values = [r["metrics"][name]["value"] for r in records if name in r["metrics"]]
    if not values:
        return None
    return benchlib.median(values), benchlib.spread(values), len(values)


def hosts(records: List[dict]) -> set:
    keys = ("cores", "cpu_model", "python", "numpy", "platform")
    return {tuple(r["host"].get(k) for k in keys) for r in records}


def _fmt(x: Optional[float]) -> str:
    if x is None:
        return "-"
    return f"{x:.4g}"


def _pct(x: Optional[float]) -> str:
    return "-" if x is None else f"{100 * x:.1f}%"


def table(title: str, metrics: List[dict], base: List[dict], new: Optional[List[dict]]):
    print(f"  {title}")
    head = f"    {'metric':28} {'unit':9} {'base':>11} {'spread':>7} {'n':>3}"
    if new is not None:
        head += f" {'new':>11} {'spread':>7} {'n':>3} {'change':>8}  verdict"
    print(head)
    for m in metrics:
        b = summary(base, m["name"])
        row = f"    {m['name']:28} {m['unit']:9} "
        row += (f"{_fmt(b[0]):>11} {_pct(b[1]):>7} {b[2]:>3}" if b else f"{'-':>11} {'-':>7} {'-':>3}")
        if new is not None:
            n = summary(new, m["name"])
            row += (f" {_fmt(n[0]):>11} {_pct(n[1]):>7} {n[2]:>3}" if n else f" {'-':>11} {'-':>7} {'-':>3}")
            change = (n[0] - b[0]) / abs(b[0]) if b and n and b[0] else None
            row += f" {_pct(change) if change is not None else '-':>8}"
            if change is not None and "bound" in m:
                worse = change if m["better"] == "lower" else -change
                row += "  REGRESSED" if worse > m["bound"] else "  within bound"
        print(row)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    args = parser.parse_args(argv)
    spec = benchlib.load_spec()
    base = load(args.base)
    new = load(args.new) if args.new else None
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"== {workload}")
        b0, b1 = base.get((workload, 0), []), base.get((workload, 1), [])
        n0 = new.get((workload, 0), []) if new is not None else None
        n1 = new.get((workload, 1), []) if new is not None else None
        seen = hosts(b0 + b1) | (hosts(n0 + n1) if new is not None else set())
        if len(seen) > 1:
            print(f"  warning: records from {len(seen)} different hosts: {sorted(seen)}")
        table("end to end (untraced runs)", spec["end_to_end"], b0, n0)
        table("per layer (traced runs)", spec["per_layer"], b1, n1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
