"""``serve``: the shipped ``repro serve`` hub under open-loop load.

``python -m repro serve --port 0`` runs as its own process and is the
system under test; this process is the load generator.  It simulates a
corpus of letter sessions (26 letters x 2, NLOS location 2, the hub's own
deployment), then opens ``RATE_PER_S * seconds + 1`` sessions whose
pen-up instants form a seeded Poisson process spanning ``seconds``: each
session opens its duration earlier, sends its 0.1 s chunks at real-time
pace and then ``finalize``.  Sessions are multiplexed over at most
``nproc`` (max 2) ``ServeClient`` connections.  An op is one session.
Every final stroke or letter event is a latency sample, from the
*scheduled* send of the frame that completed it (the chunk holding the
event's newest read, or the finalize for the letter) to its receipt.
Hub CPU and peak memory are read from ``/proc``.  The hub and this
process run on separate cores (``split_cpus``), and ``speedprobe.py``
measures the hub core's speed during the load (``SpeedProbe``).

The traced pass starts the hub with ``--metrics-port 0`` and reads the
hub's own spans and counters from ``/metrics``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from typing import Dict, List, Optional, Tuple

import numpy as np

import benchlib
import layers
from benchlib import median, percentile

from . import CHUNK_S, derived_seed, drop_closing_chunk, windows_of
from .stream import chunked, deployment, letters_for, simulate

#: Offered load: sessions per second, near half of one core's capacity
#: for the hub (about 55 ms of hub CPU per session).  Lower load keeps
#: queueing, which grows faster than linearly as the host slows, from
#: dominating the latency figures.
RATE_PER_S = 8.0
#: Tail percentile of the latency samples (a few hundred events per run).
TAIL_Q = 90.0
#: The corpus holds A-Z this many times.
CORPUS_COPIES = 2
#: Latency percentiles are medians over this many slices of the sessions
#: (in pen-up order), so a host stall in one slice cannot set them.
SLICES = 3
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
SESSION_TIMEOUT_S = 30.0
SCRAPE_EVERY_S = 0.25
#: Seconds between reference bursts on the hub's core (``speedprobe.py``).
PROBE_EVERY_S = 0.1
READY_PREFIX = "serving pad sessions on "
METRICS_PREFIX = "metrics on http://"


def hub_argv(seed: int, metrics: bool, deployment: int = 0) -> List[str]:
    """``repro serve`` on the ``deployment``-th NLOS location-2 deployment
    of ``seed`` (the 0th is the one the load runs against)."""
    argv = [
        sys.executable, "-m", "repro", "--seed", str(derived_seed(seed, deployment)),
        "--mount", "nlos", "--location", "2", "serve", "--port", "0",
    ]
    return argv + (["--metrics-port", "0"] if metrics else [])


def stop_hub(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGINT)


def setup_probe(seed: int, size: str, launch: int):
    """What ``setup_s`` times: hub launch until it prints its address.
    Each launch calibrates another seeded deployment, as calibration cost
    varies between deployments."""
    return (hub_argv(seed, False, deployment=launch),
            (lambda line: line.startswith(READY_PREFIX)), stop_hub)


def split_cpus() -> Optional[Tuple[int, int]]:
    """(load generator's CPU, hub's CPU), or None with fewer than two.

    Each gets a core of its own, so neither queues behind the other's
    work.  In four runs each of one seed on the 2-vCPU host, pinned runs'
    latency p50 averaged 16% lower and spanned 6% of its mean, against
    11% unpinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[-1]) if len(cpus) >= 2 else None


class SpeedProbe:
    """``speedprobe.py`` on ``cpu`` while the load runs: how fast the
    hub's core ran, as a factor like ``benchlib.HostSpeed.factor``."""

    def __init__(self, cpu: int, env: Dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(benchlib.BENCH_DIR, "speedprobe.py"),
             str(cpu), str(PROBE_EVERY_S)],
            cwd=benchlib.ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        self.proc.stdout.readline()

    def stop(self) -> float:
        self.proc.terminate()
        out, _ = self.proc.communicate(timeout=30)
        return median(json.loads(out.strip().splitlines()[-1])) / benchlib.REFERENCE_BURST_S


class Hub:
    """A ``repro serve`` process; stopped with SIGINT (graceful drain)."""

    def __init__(self, seed: int, metrics: bool, env: Dict[str, str],
                 cpu: Optional[int] = None) -> None:
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        self.proc = subprocess.Popen(
            hub_argv(seed, metrics), cwd=benchlib.ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            preexec_fn=pin,
        )
        self.metrics_url: Optional[str] = None
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith(METRICS_PREFIX):
                self.metrics_url = "http://" + line[len(METRICS_PREFIX):].strip()
            if line.startswith(READY_PREFIX):
                host, port = line[len(READY_PREFIX):].split()[0].rsplit(":", 1)
                self.address = (host, int(port))
                return
        self.stop()
        raise RuntimeError("repro serve did not report its address")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def scrape(self) -> Dict[str, float]:
        with urllib.request.urlopen(self.metrics_url, timeout=10) as resp:
            return parse_exposition(resp.read().decode())

    def stop(self) -> None:
        if self.proc.poll() is None:
            stop_hub(self.proc)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def parse_exposition(text: str) -> Dict[str, float]:
    """Prometheus text exposition -> {series: value}."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        out[series] = float(value)
    return out


# -- inputs -----------------------------------------------------------


def prepare(seed: int, size: str, corrupt: bool):
    """Corpus of letter sessions on the hub's deployment, each with its
    batch recognition result."""
    runner = deployment(seed, 0)
    corpus = []
    letters = letters_for(size) * (1 if size == "tiny" else CORPUS_COPIES)
    for truth, log in simulate(runner, letters):
        batch = runner.pad.recognize_letter(log)
        chunks = chunked(log)
        if corrupt and not corpus:
            chunks = drop_closing_chunk(chunks, batch.windows[0])
        corpus.append({
            "truth": truth,
            "chunks": chunks,
            "letter": batch.letter,
            "windows": windows_of(batch.windows),
            "tokens": tuple(s.token for s in batch.strokes),
        })
    return corpus


def plan_sessions(corpus, seed: int, seconds: float, size: str):
    """(corpus index, open offset, pen-up offset) per session, by pen-up."""
    rng = np.random.default_rng(derived_seed(seed, 100))
    n = len(corpus) if size == "tiny" else int(round(RATE_PER_S * seconds)) + 1
    span = 1.0 if size == "tiny" else seconds
    # A Poisson process conditioned on n events in [0, span], pinned at
    # both ends so the completion window has a fixed nominal length.
    pen_up = np.concatenate(([0.0], np.sort(rng.uniform(0.0, span, n - 2)), [span]))
    assign = np.concatenate([
        rng.permutation(len(corpus)) for _ in range(n // len(corpus) + 1)
    ])[:n]
    durations = [(len(corpus[i]["chunks"]) - 1) * CHUNK_S for i in assign]
    lead = max(durations)
    return [
        (int(i), lead + float(p) - d, lead + float(p))
        for i, p, d in zip(assign, pen_up, durations)
    ]


# -- the load generator -------------------------------------------------


class Session:
    """What the generator saw of one session."""

    __slots__ = ("index", "letter", "windows", "lags_ms", "tokens", "dropped",
                 "error", "latencies_ms", "receipt")

    def __init__(self, index: int) -> None:
        self.index = index
        self.letter: Optional[str] = None
        self.windows: Tuple = ()
        self.lags_ms: List[float] = []
        self.tokens: List[Optional[str]] = []
        self.dropped = 0
        self.error: Optional[str] = None
        #: Latency of every final event, ms.
        self.latencies_ms: List[float] = []
        self.receipt: Optional[float] = None


async def _sleep_until(t: float) -> None:
    delay = t - time.monotonic()
    if delay > 0.0:
        await asyncio.sleep(delay)


async def _drive(address, corpus, plan, late_ms: List[float]) -> Tuple[float, List[Session]]:
    from repro.serve.client import ServeClient

    clients = [await ServeClient.connect(*address) for _ in range(CONNECTIONS)]
    t_base = time.monotonic() + 0.2
    sessions = [Session(i) for i in range(len(plan))]

    async def one(j: int) -> None:
        index, open_at, pen_up = plan[j]
        record = sessions[j]
        client = clients[j % CONNECTIONS]
        chunks = corpus[index]["chunks"]
        # A stroke event's newest read is the last read of the chunk that
        # completed it; that chunk's due time starts the event's latency.
        due_by_read = {chunk.end_time: t_base + open_at + k * CHUNK_S
                       for k, chunk in enumerate(chunks) if len(chunk)}
        finalize_due = t_base + pen_up
        try:
            await _sleep_until(t_base + open_at)
            handle = await client.open(f"s{j}")
            for k, chunk in enumerate(chunks):
                due = t_base + open_at + k * CHUNK_S
                await _sleep_until(due)
                late_ms.append(1e3 * (time.monotonic() - due))
                await client.send_chunk(handle, chunk)
            # The finalize is due with the last chunk: the pen lifts.
            late_ms.append(1e3 * (time.monotonic() - finalize_due))
            await client.finalize(handle)
            await client.wait_done(handle, timeout=SESSION_TIMEOUT_S)
        except (ConnectionError, asyncio.TimeoutError, OSError) as exc:
            record.error = repr(exc)
            return
        record.dropped = handle.dropped_chunks
        record.letter = handle.final_letter()
        windows = []
        for header, wall in zip(handle.events, handle.event_walls):
            if not header.get("final"):
                continue
            if header.get("kind") == "stroke":
                windows.append((header["t0"], header["t1"]))
                record.lags_ms.append(1e3 * (header["emitted_at"] - header["t1"]))
                record.tokens.append(header.get("token"))
                due = due_by_read.get(header["emitted_at"], finalize_due)
                record.latencies_ms.append(1e3 * (wall - due))
            elif header.get("kind") == "letter":
                record.receipt = wall
                record.latencies_ms.append(1e3 * (wall - finalize_due))
        record.windows = tuple(windows)
        if record.receipt is None:
            record.error = "no final letter event"

    try:
        await asyncio.gather(*(one(j) for j in range(len(plan))))
    finally:
        for client in clients:
            await client.close()
    return t_base, sessions


class _Sampler(threading.Thread):
    """Scrapes the hub's queue-depth gauge while the load runs."""

    def __init__(self, hub: Hub) -> None:
        super().__init__(name="perfbench-scrape", daemon=True)
        self.hub = hub
        self.depth_max = 0.0
        self.halt = threading.Event()

    def run(self) -> None:
        while not self.halt.wait(SCRAPE_EVERY_S):
            try:
                depth = self.hub.scrape().get("repro_serve_queue_depth", 0.0)
            except OSError:
                continue
            self.depth_max = max(self.depth_max, depth)


def run_pass(seed: int, corpus, plan, env, traced: bool) -> dict:
    """One hub process, one timed load; returns what it measured."""
    cpus = split_cpus()
    hub = Hub(seed, traced, env, cpu=cpus[1] if cpus else None)
    affinity = os.sched_getaffinity(0)
    if cpus:
        os.sched_setaffinity(0, {cpus[0]})
    probe = sampler = None
    try:
        probe = SpeedProbe(cpus[1] if cpus else min(affinity), env)
        before = hub.scrape() if traced else {}
        if traced:
            sampler = _Sampler(hub)
            sampler.start()
        late_ms: List[float] = []
        # Peak memory under load, not that of the hub's start-up.
        rss_reset = benchlib.reset_peak_rss(hub.pid)
        cpu0 = benchlib.proc_cpu_s(hub.pid)
        loop = asyncio.new_event_loop()
        try:
            t_base, sessions = loop.run_until_complete(
                _drive(hub.address, corpus, plan, late_ms)
            )
        finally:
            loop.close()
        cpu_s = benchlib.proc_cpu_s(hub.pid) - cpu0
        t_end = time.monotonic()
        factor = probe.stop()
        if sampler is not None:
            sampler.halt.set()
            sampler.join(timeout=10)
        after = hub.scrape() if traced else {}
        peak_rss_mb = benchlib.proc_peak_rss_mb(hub.pid)
    finally:
        if probe is not None and probe.proc.poll() is None:
            probe.proc.kill()
            probe.proc.communicate()
        hub.stop()
        os.sched_setaffinity(0, affinity)
    return {
        "sessions": sessions, "cpu_s": cpu_s, "wall_s": t_end - t_base,
        "late_ms": late_ms, "peak_rss_mb": peak_rss_mb, "rss_reset": rss_reset,
        "cpus": cpus, "factor": factor,
        "before": before, "after": after,
        "queue_depth_max": sampler.depth_max if sampler is not None else 0.0,
    }


# -- metrics and checks ---------------------------------------------------


def _completed(sessions: List[Session]) -> List[Session]:
    return [s for s in sessions if s.error is None]


def end_to_end(run: dict, corpus, plan) -> dict:
    """Untraced metrics.  Hub CPU and latencies are divided by the speed of
    the hub's core during the load (``SpeedProbe``); ``ops_per_s`` is
    not, as the open loop sets it."""
    factor = run["factor"]
    sessions = run["sessions"]
    done = _completed(sessions)
    receipts = sorted(s.receipt for s in done)
    if len(receipts) >= 2:
        ops_per_s = (len(receipts) - 1) / (receipts[-1] - receipts[0])
    else:
        ops_per_s = len(receipts) / run["wall_s"]
    p50s, tails = [], []
    for part in np.array_split(np.arange(len(sessions)), min(SLICES, len(sessions))):
        # A failed session misses every latency percentile, once per
        # event its log should have produced.
        latencies = []
        for s in (sessions[i] for i in part):
            if s.error is None:
                latencies += s.latencies_ms
            else:
                expected = len(corpus[plan[s.index][0]]["windows"]) + 1
                latencies += [1e3 * SESSION_TIMEOUT_S] * expected
        p50s.append(percentile(latencies, 50.0))
        tails.append(percentile(latencies, TAIL_Q))
    return {
        "peak_rss_mb": run["peak_rss_mb"],
        "ops_per_s": ops_per_s,
        "cpu_ms_per_op": 1e3 * run["cpu_s"] / max(len(done), 1) / factor,
        "latency_p50_ms": median(p50s) / factor,
        "latency_tail_ms": median(tails) / factor,
    }


def accuracy(run: dict, corpus, plan) -> float:
    """Sessions whose final letter is the written one / sessions."""
    sessions = run["sessions"]
    truths = [corpus[plan[s.index][0]]["truth"] for s in sessions]
    return sum(s.letter == t for s, t in zip(sessions, truths)) / len(sessions)


def check(run: dict, corpus, plan) -> List[str]:
    """Every session finished, dropped nothing, and its letter, windows and
    stroke tokens equal batch recognition of its log."""
    errors = []
    for s in run["sessions"]:
        ref = corpus[plan[s.index][0]]
        if s.error is not None:
            errors.append(f"session {s.index}: {s.error}")
        elif s.dropped:
            errors.append(f"session {s.index}: hub dropped {s.dropped} chunk(s)")
        elif (s.letter, s.windows, tuple(t for t in s.tokens if t is not None)) != (
                ref["letter"], ref["windows"], ref["tokens"]):
            errors.append(
                f"session {s.index}: hub output differs from batch (letter "
                f"{s.letter!r} vs {ref['letter']!r}, {len(s.windows)} vs "
                f"{len(ref['windows'])} windows)"
            )
    return errors


def _delta(run: dict, series: str) -> float:
    return run["after"].get(series, 0.0) - run["before"].get(series, 0.0)


def _span_totals(run: dict, kind: str) -> Dict[str, float]:
    """Per-path span totals (or counts) accrued during the pass."""
    prefix = f"repro_span_{kind}" + '{path="'
    out = {}
    for series in run["after"]:
        if series.startswith(prefix):
            out[series[len(prefix):-2]] = _delta(run, series)
    return out


def _histogram_percentile(run: dict, family: str, q: float) -> float:
    """Percentile of a histogram's in-pass observations, interpolated
    linearly within its bucket."""
    prefix = family + '_bucket{le="'
    buckets = []
    for series in run["after"]:
        if series.startswith(prefix):
            bound = float(series[len(prefix):-2])
            buckets.append((bound, _delta(run, series)))
    buckets.sort()
    total = buckets[-1][1] if buckets else 0.0
    if total <= 0:
        return 0.0
    rank = total * q / 100.0
    lo_bound, lo_count = 0.0, 0.0
    for bound, cum in buckets:
        if cum >= rank:
            if bound == float("inf"):
                return lo_bound
            share = (rank - lo_count) / (cum - lo_count) if cum > lo_count else 1.0
            return lo_bound + share * (bound - lo_bound)
        lo_bound, lo_count = bound, cum
    return lo_bound


def _framing_us_per_chunk(corpus, plan) -> float:
    """FrameDecoder.feed + decode_chunk over this run's chunk frames."""
    from repro.serve.framing import FrameDecoder, chunk_message, decode_chunk, encode_frame

    frames = []
    for j, (index, _open, _pen) in enumerate(plan):
        for chunk in corpus[index]["chunks"]:
            frames.append(encode_frame(*chunk_message(f"s{j}", chunk)))
    stream = b"".join(frames)
    decoder = FrameDecoder()
    chunks = 0
    start = time.perf_counter()
    for at in range(0, len(stream), 65536):
        for header, payload in decoder.feed(stream[at:at + 65536]):
            decode_chunk(header, payload)
            chunks += 1
    return 1e6 * (time.perf_counter() - start) / max(chunks, 1)


def per_layer(run: dict, untraced: dict, corpus, plan) -> dict:
    """Traced metrics, from /metrics and from outside; times normalized."""
    done = _completed(run["sessions"])
    n = max(len(done), 1)
    factor = run["factor"]
    totals = _span_totals(run, "total_seconds")
    counts = _span_totals(run, "count_total")

    def ms_per_session(suffix: str) -> float:
        return 1e3 * sum(v for p, v in totals.items()
                         if p.startswith("serve.batch/") and p.endswith(suffix)) / n / factor

    def self_ms(path: str) -> float:
        children = sum(v for p, v in totals.items()
                       if p.startswith(path + "/") and "/" not in p[len(path) + 1:])
        return 1e3 * (totals.get(path, 0.0) - children) / n / factor

    out = layers.zeros()
    for stage in ("suppression", "imaging", "otsu", "direction", "classify", "grammar"):
        out[f"core.{stage}_ms"] = ms_per_session("/" + stage)
    out["core.analyze_ms"] = ms_per_session("/analyze_window")
    windows = sum(v for p, v in counts.items()
                  if p.startswith("serve.batch/") and p.endswith("/analyze_window"))
    out["core.windows"] = windows / n
    tokens = [t for s in done for t in s.tokens]
    out["core.stroke_yield"] = (
        sum(t is not None for t in tokens) / len(tokens) if tokens else 0.0
    )
    out["stream.ingest_self_ms"] = (
        self_ms("serve.batch/stream.chunk") + self_ms("serve.batch/stream.finalize")
    )
    lags = [lag for s in done for lag in s.lags_ms]
    out["stream.decision_lag_ms"] = percentile(lags, 50.0) if lags else 0.0
    batches = _delta(run, "repro_serve_batches_total")
    out["serve.batches"] = batches / n
    batch_count = _delta(run, "repro_serve_batch_sessions_count")
    out["serve.sessions_per_batch"] = (
        _delta(run, "repro_serve_batch_sessions_sum") / batch_count if batch_count else 0.0
    )
    out["serve.queue_depth_max"] = run["queue_depth_max"]
    out["serve.backpressure_waits"] = _delta(run, "repro_serve_backpressure_waits_total")
    out["serve.dropped_chunks"] = _delta(run, "repro_serve_dropped_chunks_total")
    analysis_s = totals.get("serve.batch", 0.0)
    out["serve.analysis_ms"] = 1e3 * analysis_s / n / factor
    out["serve.hub_letter_p90_ms"] = 1e3 * _histogram_percentile(
        run, "repro_serve_event_latency_s", 90.0) / factor
    out["serve.hub_busy_frac"] = run["cpu_s"] / run["wall_s"]
    events = [lat for s in done for lat in s.latencies_ms]
    client_p50 = percentile(events, 50.0) if events else 0.0
    hub_p50 = 1e3 * _histogram_percentile(run, "repro_serve_event_latency_s", 50.0)
    out["serve.wire_ms"] = (client_p50 - hub_p50) / factor
    out["serve.framing_us_per_chunk"] = _framing_us_per_chunk(corpus, plan)
    out["loadgen.late_p99_ms"] = percentile(run["late_ms"], 99.0)
    out["loadgen.frames"] = sum(len(corpus[i]["chunks"]) + 2 for i, _, _ in plan) / len(plan)
    out["unattributed_ms"] = 1e3 * (run["cpu_s"] - analysis_s) / n / factor
    traced_cpu = end_to_end(run, corpus, plan)["cpu_ms_per_op"]
    untraced_cpu = end_to_end(untraced, corpus, plan)["cpu_ms_per_op"]
    out["trace_overhead_pct"] = 100.0 * (traced_cpu / untraced_cpu - 1.0)
    return out


def measure(seed: int, seconds: float, trace: bool, size: str, corrupt: bool) -> dict:
    env = benchlib.hermetic_env()
    corpus = prepare(seed, size, corrupt)
    plan = plan_sessions(corpus, seed, seconds, size)
    untraced = run_pass(seed, corpus, plan, env, traced=False)
    errors = check(untraced, corpus, plan)
    failed = sum(s.error is not None or s.dropped > 0 for s in untraced["sessions"])
    result = {
        "attempted": len(plan),
        "failed": failed,
        "errors": errors,
        "e2e": end_to_end(untraced, corpus, plan),
        "counts": {
            "ops": len(plan),
            "latency_samples": sum(len(s.latencies_ms) for s in untraced["sessions"]),
            "wall_s": untraced["wall_s"],
            "cpu_s": untraced["cpu_s"],
            "host_factor": untraced["factor"],
            "accuracy": accuracy(untraced, corpus, plan),
            "late_p50_ms": percentile(untraced["late_ms"], 50.0),
            "late_p99_ms": percentile(untraced["late_ms"], 99.0),
            "rss_reset": untraced["rss_reset"],
            "generator_hub_cpus": untraced["cpus"],
        },
    }
    if trace:
        traced = run_pass(seed, corpus, plan, env, traced=True)
        result["errors"] += check(traced, corpus, plan)
        result["layers"] = dict(per_layer(traced, untraced, corpus, plan),
                                latency_tail_ms=result["e2e"]["latency_tail_ms"],
                                accuracy=accuracy(untraced, corpus, plan))
    return result
