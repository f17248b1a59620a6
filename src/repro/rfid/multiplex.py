"""Multi-pad operation: one reader, several antennas, several RFIPads.

The paper's cost argument (section I) is that "an existing reader can
monitor multiple RFIPads while performing its regular applications": the
reader is the expensive component, antennas and tags are cheap.  A
commodity reader multiplexes its antenna ports in time, so each pad sees
the inventory duty-cycled.

:class:`MultiplexedReader` models exactly that: a list of ports (each an
independent antenna + tag array + environment) served round-robin with a
configurable dwell time.  Each port's report log looks like a normal —
just sparser — RFIPad stream, so the per-pad pipelines run unchanged; the
``ext_multipad`` experiment measures what the duty-cycling costs.

The dwell plan is computed up front by :class:`DwellScheduler`, a pure
function of ``(port_count, dwell_s, duration)``.  Each port owns its RNG
stream, so a collect hands every port its share of the plan in one
``Reader.collect(slices=...)`` call: one inventory pass (a fresh round
per slice, as on an antenna switch) and one emit per port.  The plan
buys two invariants the workspace layer depends on:

* **1x1 degeneracy** — a single-port schedule is ONE contiguous slice
  covering the whole duration, so the port's reader consumes its RNG in
  exactly the same inventory-round boundaries as a solo
  ``reader.collect(duration)``: the log is bit-identical, not just
  statistically equivalent.
* **Deterministic dwell accounting** — per-port dwell totals come from
  the plan, not from timing side effects, so they are identical no
  matter how many workers (``REPRO_WORKERS``) run trials around the
  multiplexed collect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..physics.antenna import ReaderAntenna
from ..physics.multipath import Environment
from ..physics.noise import ReceiverNoise
from .deployment import TagArray
from .reader import HandPoseFn, Reader, ReaderConfig
from .reports import ReportLog

_MIN_DWELL_S = 1e-6


@dataclass
class ReaderPort:
    """One antenna port: its own pad, environment, and scene."""

    antenna: ReaderAntenna
    array: TagArray
    environment: Optional[Environment] = None


@dataclass(frozen=True)
class DwellSlice:
    """One scheduled stretch of inventory on one port."""

    port: int
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class DwellScheduler:
    """Round-robin dwell planning, as pure data.

    ``plan(duration)`` returns the exact slice sequence a collect will
    execute; ``dwell_totals(duration)`` integrates it per port.  Both are
    deterministic functions of the constructor arguments and
    ``duration`` — no clocks, no RNG — which is what makes multi-pad
    dwell accounting reproducible across worker counts.
    """

    def __init__(self, port_count: int, dwell_s: float) -> None:
        if port_count < 1:
            raise ValueError("need at least one port")
        if dwell_s <= 0.0:
            raise ValueError("dwell must be positive")
        self.port_count = port_count
        self.dwell_s = dwell_s

    def plan(self, duration: float) -> List[DwellSlice]:
        if duration <= 0.0:
            raise ValueError("duration must be positive")
        # A solo port never benefits from switching; keeping the whole
        # duration as one slice preserves the inventory-round (and hence
        # RNG-stream) boundaries of an unmultiplexed reader exactly.
        if self.port_count == 1:
            return [DwellSlice(port=0, t0=0.0, t1=duration)]
        slices: List[DwellSlice] = []
        t = 0.0
        port = 0
        while t < duration:
            dwell = min(self.dwell_s, duration - t)
            if dwell > _MIN_DWELL_S:
                slices.append(DwellSlice(port=port, t0=t, t1=t + dwell))
            t += dwell
            port = (port + 1) % self.port_count
        return slices

    def dwell_totals(self, duration: float) -> List[float]:
        """Seconds of inventory each port receives over ``duration``."""
        totals = [0.0] * self.port_count
        for s in self.plan(duration):
            totals[s.port] += s.duration
        return totals


class MultiplexedReader:
    """Round-robin time multiplexing over several reader ports.

    All ports share one RF front end (one ``ReaderConfig``); commodity
    readers default to a few hundred milliseconds per antenna
    (``dwell_s``).  ``rngs`` gives each port its own generator: a port's
    draws then depend only on its own slices, which lets a collect run
    port by port, and keeps each workspace tile bit-identical to its
    solo-pad twin regardless of what the other tiles are doing.

    Each per-port reader is engine-backed exactly like a solo reader:
    ``Reader`` builds its vectorized ``ChannelEngine`` (with the
    per-deployment ``static_base`` precompute) and round-batched
    inventory per port.
    """

    def __init__(
        self,
        ports: Sequence[ReaderPort],
        config: ReaderConfig = ReaderConfig(),
        noise: ReceiverNoise = ReceiverNoise(),
        dwell_s: float = 0.25,
        *,
        rngs: Sequence[np.random.Generator],
    ) -> None:
        if not ports:
            raise ValueError("need at least one port")
        if len(rngs) != len(ports):
            raise ValueError(
                f"need {len(ports)} per-port rngs, got {len(rngs)}"
            )
        self.scheduler = DwellScheduler(len(ports), dwell_s)
        self.readers: List[Reader] = [
            Reader(
                p.antenna,
                p.array,
                ReaderConfig(
                    tx_power_dbm=config.tx_power_dbm,
                    frequency_hz=config.frequency_hz,
                    system_loss_db=config.system_loss_db,
                    theta_reader=config.theta_reader,
                    los_occlusion=config.los_occlusion,
                    antenna_port=i + 1,
                    link_profile=config.link_profile,
                ),
                p.environment,
                noise,
                rng=rng,
            )
            for i, (p, rng) in enumerate(zip(ports, rngs))
        ]

    @property
    def dwell_s(self) -> float:
        return self.scheduler.dwell_s

    @property
    def port_count(self) -> int:
        return len(self.readers)

    def dwell_totals(self, duration: float) -> List[float]:
        """Planned per-port inventory seconds for a collect of ``duration``."""
        return self.scheduler.dwell_totals(duration)

    def collect(
        self,
        duration: float,
        pose_fns: Sequence[Optional[HandPoseFn]],
    ) -> List[ReportLog]:
        """Inventory all ports round-robin for ``duration`` seconds.

        ``pose_fns[i]`` is port i's scene callback in *global* session
        time (or None for a quiet pad).  Returns one log per port, with
        timestamps on the shared session clock; a port the plan never
        reaches (a collect shorter than one dwell) gets an empty log.
        """
        if len(pose_fns) != self.port_count:
            raise ValueError(
                f"need {self.port_count} pose callbacks, got {len(pose_fns)}"
            )
        plans: List[List[Tuple[float, float]]] = [[] for _ in self.readers]
        for s in self.scheduler.plan(duration):
            plans[s.port].append((s.t0, s.t1))
        return [
            reader.collect(hand_pose_at=fn, slices=plan) if plan else ReportLog()
            for reader, fn, plan in zip(self.readers, pose_fns, plans)
        ]

    def collect_static(self, duration: float) -> List[ReportLog]:
        """Quiet-scene collect on every port (calibration traffic)."""
        return self.collect(duration, [None] * self.port_count)
