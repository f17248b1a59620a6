"""Load generator for the serving hub: N synthetic writers, measured.

Drives ``sessions`` concurrent writers against a running hub, each
replaying a simulated letter session chunk-by-chunk at (scaled) real-time
pace over its own connection — the traffic shape of N people writing on N
pads at once.  Records what the serving benchmark needs: sustained
concurrency, completed sessions per second, and the p50/p95/p99 of the
finalize-to-letter latency a writer perceives after lifting the pen.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..rfid.reports import ReportLog
from ..sim.live import iter_chunks
from ..sim.runner import SessionRunner
from ..motion.script import script_for_letter
from .client import ServeClient

__all__ = ["LoadgenResult", "run_loadgen", "run_loadgen_sync", "session_logs"]


def session_logs(
    runner: SessionRunner, letter: str, count: int
) -> List[ReportLog]:
    """Collect ``count`` distinct simulated sessions writing ``letter``.

    Writers share these round-robin: hub sessions are independent, so N
    writers replaying K distinct logs still exercise N concurrent
    sessions — while keeping loadgen startup O(K), not O(N).
    """
    return [
        runner.run_script(script_for_letter(letter, runner.rng))
        for _ in range(count)
    ]


@dataclass
class LoadgenResult:
    """What one loadgen run measured."""

    sessions: int
    completed: int = 0
    failed: int = 0
    letters_expected: int = 0
    #: Peak number of sessions open at the same instant.
    peak_concurrent: int = 0
    wall_s: float = 0.0
    sessions_per_s: float = 0.0
    event_p50_ms: float = 0.0
    event_p95_ms: float = 0.0
    event_p99_ms: float = 0.0
    dropped_chunks: int = 0
    errors: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "sessions": self.sessions,
            "completed": self.completed,
            "failed": self.failed,
            "letters_expected": self.letters_expected,
            "peak_concurrent": self.peak_concurrent,
            "wall_s": round(self.wall_s, 4),
            "sessions_per_s": round(self.sessions_per_s, 3),
            "event_p50_ms": round(self.event_p50_ms, 3),
            "event_p95_ms": round(self.event_p95_ms, 3),
            "event_p99_ms": round(self.event_p99_ms, 3),
            "dropped_chunks": self.dropped_chunks,
            "errors": self.errors[:10],
        }


def _percentile(sorted_vals: Sequence[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


async def run_loadgen(
    host: str,
    port: int,
    logs: Sequence[ReportLog],
    sessions: int,
    concurrency: Optional[int] = None,
    chunk_s: float = 0.1,
    time_scale: float = 1.0,
    pace: bool = True,
    ramp_s: float = 0.0,
    expected_letter: Optional[str] = None,
    meta: Optional[Dict[str, object]] = None,
    session_timeout_s: float = 120.0,
) -> LoadgenResult:
    """Drive ``sessions`` writers against ``host:port`` and measure.

    Each writer opens its own connection, replays one of ``logs``
    (round-robin) in ``chunk_s`` slices with ``chunk_s * time_scale``
    inter-chunk pacing (``pace=False`` firehoses instead), finalizes, and
    waits for its letter.  ``concurrency`` caps simultaneous writers
    (default: all at once).  ``ramp_s`` staggers writer starts uniformly
    across that many seconds — real writers are not phase-locked, and a
    ramp shorter than the session keeps them all concurrently open while
    spreading the finalize burst.
    """
    if not logs:
        raise ValueError("loadgen needs at least one session log")
    cap = concurrency if concurrency is not None else sessions
    gate = asyncio.Semaphore(max(1, cap))
    chunked = [list(iter_chunks(log, chunk_s)) for log in logs]
    delay = chunk_s * time_scale if pace else 0.0
    result = LoadgenResult(sessions=sessions)
    latencies: List[float] = []
    open_now = 0

    async def one_writer(i: int) -> None:
        nonlocal open_now
        if ramp_s > 0.0 and sessions > 1:
            await asyncio.sleep(ramp_s * i / sessions)
        async with gate:
            chunks = chunked[i % len(chunked)]
            client = await ServeClient.connect(host, port)
            open_now += 1
            result.peak_concurrent = max(result.peak_concurrent, open_now)
            try:
                handle, latency = await client.run_session(
                    f"loadgen-{i}",
                    chunks,
                    meta=meta,
                    pace=[delay] * len(chunks) if delay > 0.0 else None,
                    timeout=session_timeout_s,
                )
                result.completed += 1
                result.dropped_chunks += handle.dropped_chunks
                latencies.append(latency)
                if (
                    expected_letter is not None
                    and handle.final_letter() == expected_letter
                ):
                    result.letters_expected += 1
            except (ConnectionError, asyncio.TimeoutError, OSError) as exc:
                result.failed += 1
                result.errors.append(f"session {i}: {exc!r}")
            finally:
                open_now -= 1
                await client.close()

    t0 = time.monotonic()
    await asyncio.gather(*[one_writer(i) for i in range(sessions)])
    result.wall_s = time.monotonic() - t0
    if result.wall_s > 0.0:
        result.sessions_per_s = result.completed / result.wall_s
    latencies.sort()
    result.event_p50_ms = _percentile(latencies, 0.50) * 1e3
    result.event_p95_ms = _percentile(latencies, 0.95) * 1e3
    result.event_p99_ms = _percentile(latencies, 0.99) * 1e3
    return result


def run_loadgen_sync(*args, **kwargs) -> LoadgenResult:
    """Run :func:`run_loadgen` on a fresh event loop (CLI/bench entry)."""
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(run_loadgen(*args, **kwargs))
    finally:
        loop.close()
