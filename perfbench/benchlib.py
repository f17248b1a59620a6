"""Shared plumbing of the benchmark: paths, launch environment, statistics,
host fingerprint, /proc readers, the host-speed reference and the
outside-in layer timers.

Nothing here imports the ``repro`` package (and numpy only inside
``HostSpeed``), so the orchestrator (``run.py``) never loads the program;
workload modules import ``repro`` themselves.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Everything a run leaves behind (result records, temporary files).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Variables that switch the program's code paths or worker counts.  Every
#: ``REPRO_*`` variable is removed, which covers REPRO_WORKERS,
#: REPRO_SCALAR_CHANNEL, REPRO_SCALAR_INVENTORY, REPRO_PARALLEL_* and
#: REPRO_TRIAL_TIMEOUT_S, plus any toggle added later.
CLEARED_PREFIX = "REPRO_"

#: Pinned so BLAS/OpenMP pools cannot oversubscribe the host's cores.
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metrics and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def hermetic_env() -> Dict[str, str]:
    """The environment every benchmark process (and the hub) runs under."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(CLEARED_PREFIX)}
    env.pop("PYTHONSTARTUP", None)
    env.update(PINNED)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = os.path.join(OUT_DIR, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def env_record(env: Dict[str, str]) -> Dict[str, object]:
    """What the launch pinned and cleared, for the result record."""
    cleared = sorted(k for k in os.environ if k.startswith(CLEARED_PREFIX))
    return {
        "pinned": {k: env[k] for k in sorted(PINNED)},
        "cleared": cleared,
        "pythonpath": os.path.relpath(env["PYTHONPATH"], ROOT),
    }


# -- statistics ---------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range as a share of the median: how steady a metric is."""
    import statistics

    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else None


# -- host fingerprint ---------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the program's source files: identifies the code even in
    a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def host_fingerprint(numpy_version: Optional[str] = None) -> Dict[str, object]:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": source_digest(),
    }


# -- /proc readers (Linux) ----------------------------------------------

CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds consumed so far by process ``pid``."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (stat field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of process ``pid`` in MB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reset_peak_rss(pid: int) -> bool:
    """Restart process ``pid``'s VmHWM from its current RSS, so a later
    ``proc_peak_rss_mb`` covers only what ran after this call.  Returns
    False where the kernel does not allow it."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


# -- timing a launch until it is ready ------------------------------------

#: A launch of the same interpreter that imports numpy and nothing of the
#: program.  Set-up launches are timed as multiples of it, which cancels
#: most of the host's drift (its speed moves by up to 2x over minutes).
BASELINE_ARGV = [sys.executable, "-c",
                 "import asyncio, json, numpy; print('ready', flush=True)"]
#: Nominal duration of the baseline launch: ``setup_s`` reads as if
#: measured on a host where it takes exactly this long.
BASELINE_LAUNCH_S = 0.17


def ready_line(line: str) -> bool:
    return line.strip() == "ready"


def time_until_ready(
    argv: List[str],
    env: Dict[str, str],
    ready: Callable[[str], bool],
    stop: Callable[[subprocess.Popen], None],
    timeout_s: float = 60.0,
) -> float:
    """Seconds from spawning ``argv`` until it prints a ``ready`` line.

    ``stop`` ends the process afterwards; this function waits for it.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    elapsed = None
    try:
        deadline = t0 + timeout_s
        while time.perf_counter() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            if ready(line):
                elapsed = time.perf_counter() - t0
                break
        if elapsed is None:
            raise RuntimeError(f"{argv[:4]} never became ready")
        stop(proc)
        proc.communicate(timeout=timeout_s)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return elapsed


# -- host speed -----------------------------------------------------------

#: Nominal duration of one warm reference burst.  Timing metrics are
#: reported in units of a host on which a burst takes exactly this long.
REFERENCE_BURST_S = 2.0e-3


class HostSpeed:
    """How fast the host is running right now, from a fixed reference kernel.

    The host's speed drifts by up to 2x over minutes (CPU steal from
    other tenants), far more than any bound a benchmark could hold.  A
    workload times short bursts of a fixed kernel between its ops (the
    kernel is the benchmark's own code, so no program change can move
    it); timings divided by burst time over ``REFERENCE_BURST_S`` read as
    if run on the nominal host.  Each sample runs one untimed burst
    first, so samples see warm caches whatever ran before them.  Burst
    time is tallied so the workload can exclude it from its own totals.

    The kernel mixes interpreter work with signal processing on small
    arrays, the program's own kind of work.  In a 7-minute probe on the
    2-vCPU host, stream replays and motion trials normalized by it moved
    2% between 10 s windows, with no trend left against host speed; a
    kernel of Python loops with tiny matrix products left 4% and a
    residual trend, and memory-bound kernels did worse.
    """

    def __init__(self) -> None:
        import numpy as np

        self._x = np.random.default_rng(0).random(2048)
        self.samples: List[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _kernel(self) -> float:
        import numpy as np

        acc, table, recent = 0, {}, []
        for i in range(2000):
            table[i & 511] = (i, acc)
            acc += len(table)
            recent.append(acc)
            if len(recent) > 100:
                recent.clear()
        total = float(acc)
        for _ in range(6):
            spectrum = np.fft.rfft(self._x)
            total += float(np.unwrap(np.angle(spectrum))[-1])
            total += float(np.argsort(self._x)[0]) + float(np.percentile(self._x, 90))
        return total

    def sample(self, bursts: int = 1) -> None:
        cpu0, start = time.process_time(), time.perf_counter()
        # A cyclic collection over the workload's heap would land in a
        # burst at random; the kernel itself makes no reference cycles.
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._kernel()
            for _ in range(bursts):
                t0 = time.perf_counter()
                self._kernel()
                self.samples.append(time.perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()
        self.wall_s += time.perf_counter() - start
        self.cpu_s += time.process_time() - cpu0

    @property
    def factor(self) -> float:
        """>1 when the host runs slower than nominal."""
        return median(self.samples) / REFERENCE_BURST_S


# -- outside-in layer timers --------------------------------------------


class Timers:
    """Wall-clock timers installed around program calls from outside.

    Each wrapped call adds its duration to ``total[name]`` and its
    duration minus that of nested timed calls to ``self_s[name]``, so the
    self times of all timers partition the time any timer covered.  Not
    thread-safe: only the single-threaded in-process workloads use it.
    """

    def __init__(self) -> None:
        self.total: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.peaks: Dict[str, float] = {}
        self._stack: List[List[float]] = []
        self._patched: List[tuple] = []

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0.0), value)

    def covered_s(self) -> float:
        return sum(self.self_s.values())

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        timers = self

        def timed(*args, **kwargs):
            child = [0.0]
            timers._stack.append(child)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                timers._stack.pop()
                timers.total[name] = timers.total.get(name, 0.0) + dt
                timers.self_s[name] = timers.self_s.get(name, 0.0) + dt - child[0]
                timers.calls[name] = timers.calls.get(name, 0) + 1
                if timers._stack:
                    timers._stack[-1][0] += dt
            if after is not None:
                after(timers, args, result)
            return result

        timed.__wrapped__ = fn
        return timed

    def patch(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (class method or module function)."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original, after))
        self._patched.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

