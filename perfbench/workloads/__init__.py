"""The benchmark's workloads.

An in-process workload module provides ``setup`` (what ``setup_s``
times: deployments built and calibrated), ``prepare`` (input generation,
untimed), ``run`` (the timed phase, returning a :class:`Pass`) and
``check`` (output checks, untimed).  ``serve`` drives a separate hub
process and provides ``measure`` instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from benchlib import REFERENCE_BURST_S, HostSpeed, median

#: Chunk length a live reader reports at, and the LiveDriver default.
CHUNK_S = 0.1


@dataclass
class Slice:
    """Whole ops with their wall and CPU time, normalized to the nominal
    host speed stretch by stretch (see ``Pass.lap``)."""

    ops: int
    wall_s: float
    cpu_s: float


@dataclass
class Pass:
    """What one timed phase did and measured.

    A workload calls ``start``; then ``lap`` after every stretch of whole
    ops (an op, a battery call), which times a host-speed reference burst
    and normalizes the stretch by the mean of the readings on either side
    of it; then ``end_slice`` after every run of stretches that covers
    every deployment of the run (a ``stream`` or ``workspace`` pass, a
    ``battery`` slice); then ``stop``.  The host's speed moves within
    seconds, so a reading next to the work it normalizes tracks it far
    better than one reading per slice.  Metrics are medians over slices,
    so a stall that hits one slice moves the result little.
    """

    attempted: int = 0
    failed: int = 0
    correct: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Raw latency samples, ms (what a sample is depends on the workload).
    latencies_ms: List[float] = field(default_factory=list)
    #: Host-speed factor of each latency sample's stretch.
    latency_factors: List[float] = field(default_factory=list)
    #: Raw wall of every 0.1 s chunk's ingest, ms (streaming workloads).
    chunk_ms: List[float] = field(default_factory=list)
    #: Stream-time decision lag of final stroke events, ms.
    lags_ms: List[float] = field(default_factory=list)
    #: Stitched trajectory error per letter, cm (workspace).
    stitch_cm: List[float] = field(default_factory=list)
    #: Per-op outputs kept for the output checks.
    outputs: Dict[object, object] = field(default_factory=dict)
    #: Reference bursts timed between stretches (see ``benchlib.HostSpeed``).
    speed: HostSpeed = field(default_factory=HostSpeed)
    slices: List[Slice] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def _clock(self) -> tuple:
        """(wall, cpu) so far with reference bursts excluded, completed ops."""
        return (time.perf_counter() - self.speed.wall_s,
                time.process_time() - self.speed.cpu_s, self.completed)

    def _reading(self, bursts: int) -> float:
        self.speed.sample(bursts)
        return median(self.speed.samples[-bursts:]) / REFERENCE_BURST_S

    def start(self) -> None:
        self._last_reading = self._reading(1)
        self._start = self._mark = self._clock()
        self._open = Slice(ops=0, wall_s=0.0, cpu_s=0.0)

    def elapsed_s(self) -> float:
        """Timed-phase seconds so far, reference bursts excluded."""
        return self._clock()[0] - self._start[0]

    def lap(self, bursts: int = 1) -> None:
        now = self._clock()
        reading = self._reading(bursts)
        factor = 0.5 * (self._last_reading + reading)
        self._open.ops += now[2] - self._mark[2]
        self._open.wall_s += (now[0] - self._mark[0]) / factor
        self._open.cpu_s += (now[1] - self._mark[1]) / factor
        self.latency_factors += [factor] * (len(self.latencies_ms) - len(self.latency_factors))
        self._last_reading = reading
        self._mark = self._clock()

    def end_slice(self) -> None:
        if self._open.ops:
            self.slices.append(self._open)
        self._open = Slice(ops=0, wall_s=0.0, cpu_s=0.0)

    def stop(self) -> None:
        if self.completed > self._mark[2]:
            self.lap()
        self.end_slice()
        self.wall_s = self._mark[0] - self._start[0]
        self.cpu_s = self._mark[1] - self._start[1]

    @property
    def factor(self) -> float:
        """Host-speed factor over the whole phase."""
        return self.speed.factor

    def normalized_latencies(self) -> List[float]:
        """Latency samples, each divided by its stretch's factor.  A
        workload that records none (``battery``) has one per slice: its
        normalized wall per op."""
        if not self.latencies_ms:
            return [1e3 * sl.wall_s / sl.ops for sl in self.slices]
        return [v / f for v, f in zip(self.latencies_ms, self.latency_factors)]

    def ops_per_s(self) -> float:
        return median([sl.ops / sl.wall_s for sl in self.slices])

    def cpu_ms_per_op(self) -> float:
        return median([1e3 * sl.cpu_s / sl.ops for sl in self.slices])


def derived_seed(seed: int, stream: int) -> int:
    """Independent, reproducible integer seeds drawn from the workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def windows_of(windows) -> tuple:
    return tuple((w.t0, w.t1) for w in windows)


def outcome(letter, windows, strokes) -> tuple:
    """What streamed and batch recognition must agree on, to the float:
    the letter, the windows and each stroke's token and confidence."""
    return (letter, windows_of(windows),
            tuple((s.token, s.confidence) for s in strokes))


def drop_closing_chunk(chunks: list, window) -> list:
    """``chunks`` without the last one holding reads of ``window``.

    Used by ``--corrupt``: losing the chunk that closes a stroke changes
    the stroke's analysis and usually its window, so every output check
    must notice.
    """
    inside = [i for i, chunk in enumerate(chunks)
              if len(chunk) and chunk.start_time < window.t1]
    i = inside[-1]
    return chunks[:i] + chunks[i + 1:]
