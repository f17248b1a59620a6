"""Process-pool battery runner: fan trials out across worker processes.

The paper-scale evaluation repeats hundreds of independent sessions per
deployment; each trial only shares the (read-only) deployment with its
siblings, so the battery is embarrassingly parallel.  The one thing a
naive fan-out breaks is determinism: the serial battery threads a single
RNG through every trial, so trial N's draws depend on trials 0..N-1.

The parallel path therefore gives every trial its *own* deterministic
stream, derived from the scenario seed and the trial's position in the
battery (``SeedSequence(entropy=seed, spawn_key=(trial_index,))``).  The
assignment of trials to workers — and the worker count itself — cannot
change any draw, so ``workers=1`` and ``workers=8`` produce bit-identical
batteries.  Chunk results are collected in submission order.

Parallel batteries are **off by default** (``workers=0`` means the legacy
serial shared-RNG loop, byte-for-byte compatible with the pre-parallel
code).  Opt in per call (``workers=N``), per process (``REPRO_WORKERS``),
or per experiment run (:func:`workers_override`, wired to the CLI's
``--workers`` flag).

**Warmed persistent workers.**  Pools are cached per (scenario config,
pipeline config, calibration, telemetry flags) and reused across
batteries, so the per-worker deployment build + static calibration is
paid once per process lifetime instead of once per battery.  Call
:func:`shutdown_pools` to tear them down explicitly (an ``atexit`` hook
does it on interpreter exit).

**Chunking.**  Tasks are split into at most ``min(workers,
os.cpu_count())`` contiguous chunks (override with
``REPRO_PARALLEL_CHUNKS``), and each worker runs its whole chunk through
:meth:`SessionRunner.run_motion_batch` — the reader's round loop, one
trial after another, each on its own per-trial generator.  Chunking is
pure scheduling: per-trial RNG streams make the merged battery
bit-identical for any chunk/worker layout.

**Fault containment.**  Each chunk future is awaited with a per-trial
timeout (``REPRO_TRIAL_TIMEOUT_S`` seconds per trial, default 120).  A
worker crash (``BrokenProcessPool``) or hang (timeout) evicts the pool
and cancels what has not started.  A crash also fails every chunk
running beside the faulty one, so each lost chunk is retried alone on a
fresh pool, and only a chunk that fails by itself is re-executed
serially on the parent runner — same seeds, so the recovered battery is
bit-identical to an undisturbed run, and ``parallel.trials_recovered``
counts the faulty chunk's trials on any core count.
``REPRO_PARALLEL_FAULT`` (``crash:<trial>`` / ``hang:<trial>[:secs]``)
injects such faults for the tests.

**Telemetry relay.**  When the parent's tracer or metrics registry is
enabled at pool-build time, each worker enables its own registries and
ships one delta :class:`~repro.obs.telemetry.TelemetrySnapshot` per
*trial* (captured via the batch runner's ``on_trial`` hook, so reused
workers never accumulate cross-trial state); the parent folds snapshots
in submission order.  Worker-side *calibration* telemetry is discarded
once at init, which keeps merged counter totals worker-count invariant.
Relayed spans carry ``attrs["relayed"] = True``.

**Log transport.**  With ``collect_logs=True`` each trial keeps its
ReportLog, and a worker's trials carry their logs back in the pickled
chunk result; a log pickles as its numpy columns.
"""

from __future__ import annotations

import atexit
import os
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..motion.strokes import Motion
    from ..motion.user import UserProfile
    from .runner import LetterTrial, MotionTrial, SessionRunner

#: Environment knob: default worker count when no explicit value is given.
WORKERS_ENV = "REPRO_WORKERS"

#: Environment knob: force the number of chunks per battery (scheduling
#: only — results are chunk-layout invariant).
CHUNKS_ENV = "REPRO_PARALLEL_CHUNKS"

#: Environment knob: per-trial timeout budget, seconds (default 120).
TRIAL_TIMEOUT_ENV = "REPRO_TRIAL_TIMEOUT_S"

#: Environment knob: worker fault injection for the recovery tests.
#: ``crash:<trial_index>`` exits the worker holding that trial;
#: ``hang:<trial_index>[:secs]`` sleeps it (default 600 s).
FAULT_ENV = "REPRO_PARALLEL_FAULT"

_DEFAULT_TRIAL_TIMEOUT_S = 120.0

#: Per-process override installed by :func:`workers_override` (CLI --workers).
_override: Optional[int] = None


def resolve_workers(explicit: Optional[int] = None) -> int:
    """Resolve the worker count: explicit > override > env > 0 (serial)."""
    if explicit is not None:
        return int(explicit)
    if _override is not None:
        return _override
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}")
    return 0


@contextmanager
def workers_override(workers: Optional[int]) -> Iterator[None]:
    """Temporarily set the process-wide default worker count (None = no-op)."""
    global _override
    if workers is None:
        yield
        return
    prev = _override
    _override = int(workers)
    try:
        yield
    finally:
        _override = prev


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """The independent RNG stream for trial ``trial_index`` of a battery.

    Derived with ``SeedSequence`` spawn keys, so streams are statistically
    independent across trials and deterministic in (seed, index) alone —
    a trial's draws do not depend on the worker that runs it, on the
    worker count, or on any other trial.
    """
    ss = np.random.SeedSequence(entropy=seed % 2**63, spawn_key=(trial_index,))
    return np.random.default_rng(ss)


# ----------------------------------------------------------------------
# Worker-side machinery.  Each worker builds its deployment once (module
# global), then every task reseeds it with the trial's own stream.

_worker_runner: "SessionRunner | None" = None
_worker_telemetry: bool = False


def _init_worker(
    scenario_config, pipeline_config, calibration_duration, telemetry
) -> None:
    global _worker_runner, _worker_telemetry
    from ..obs.metrics import get_metrics
    from ..obs.telemetry import capture_snapshot
    from ..obs.trace import get_tracer
    from .runner import SessionRunner
    from .scenario import build_scenario

    trace_on, metrics_on = telemetry
    _worker_telemetry = bool(trace_on or metrics_on)
    if trace_on:
        get_tracer().enable()
    else:
        get_tracer().disable()
    if metrics_on:
        get_metrics().enable()
    else:
        get_metrics().disable()
    _worker_runner = SessionRunner(
        build_scenario(scenario_config),
        pipeline_config=pipeline_config,
        calibration_duration=calibration_duration,
    )
    if _worker_telemetry:
        # Discard init-time telemetry (per-worker calibration, plus any
        # state a fork start method copied from the parent) so every
        # shipped snapshot is exactly one trial's delta and merged totals
        # do not depend on the worker count.
        capture_snapshot(reset=True)


def _task_snapshot():
    if not _worker_telemetry:
        return None
    from ..obs.telemetry import capture_snapshot

    return capture_snapshot(reset=True)


def _maybe_inject_fault(indices: Sequence[int]) -> None:
    """Honour ``REPRO_PARALLEL_FAULT`` when this chunk holds the target."""
    spec = os.environ.get(FAULT_ENV, "")
    if not spec:
        return
    parts = spec.split(":")
    try:
        target = int(parts[1])
    except (IndexError, ValueError):
        return
    if target not in indices:
        return
    if parts[0] == "crash":
        os._exit(1)
    elif parts[0] == "hang":
        time.sleep(float(parts[2]) if len(parts) > 2 else 600.0)


def _motion_chunk_task(args):
    """Run one contiguous chunk of motion trials, trial by trial."""
    chunk, collect_logs = args
    _maybe_inject_fault([t[0] for t in chunk])
    runner = _worker_runner
    seed = runner.scenario.config.seed
    items = [
        (motion, user, speed, trial_rng(seed, index))
        for index, motion, user, speed in chunk
    ]
    pairs = []
    runner.run_motion_batch(
        items,
        on_trial=lambda trial: pairs.append((trial, _task_snapshot())),
        keep_logs=collect_logs,
    )
    return pairs


def _letter_chunk_task(args):
    """Run one contiguous chunk of letter trials, trial by trial."""
    chunk, collect_logs = args
    _maybe_inject_fault([t[0] for t in chunk])
    runner = _worker_runner
    seed = runner.scenario.config.seed
    items = [
        (letter, user, trial_rng(seed, index)) for index, letter, user in chunk
    ]
    pairs = []
    runner.run_letter_batch(
        items,
        on_trial=lambda trial: pairs.append((trial, _task_snapshot())),
        keep_logs=collect_logs,
    )
    return pairs


def _motion_fallback(runner: "SessionRunner", task, collect_logs: bool):
    index, motion, user, speed = task
    runner.reseed(trial_rng(runner.scenario.config.seed, index))
    return runner.run_motion(motion, user=user, speed=speed, keep_log=collect_logs)


def _letter_fallback(runner: "SessionRunner", task, collect_logs: bool):
    index, letter, user = task
    runner.reseed(trial_rng(runner.scenario.config.seed, index))
    return runner.run_letter(letter, user=user, keep_log=collect_logs)


# ----------------------------------------------------------------------
# Parent-side pool cache and scheduling.

_pools: "dict[tuple, ProcessPoolExecutor]" = {}


def _pool_key(runner: "SessionRunner", flags: Tuple[bool, bool]) -> tuple:
    return (
        repr(runner.scenario.config),
        repr(runner._pipeline_config),
        runner._calibration_duration,
        flags,
    )


def _get_pool(runner: "SessionRunner", flags: Tuple[bool, bool]) -> ProcessPoolExecutor:
    key = _pool_key(runner, flags)
    pool = _pools.get(key)
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=max(1, os.cpu_count() or 1),
            initializer=_init_worker,
            initargs=(
                runner.scenario.config,
                runner._pipeline_config,
                runner._calibration_duration,
                flags,
            ),
        )
        _pools[key] = pool
    return pool


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    """Evict a broken/hung pool; best-effort terminate its workers."""
    for key, cached in list(_pools.items()):
        if cached is pool:
            del _pools[key]
    pool.shutdown(wait=False, cancel_futures=True)
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already-dead workers
            pass


def shutdown_pools() -> None:
    """Tear down every cached worker pool (tests; interpreter exit)."""
    for pool in list(_pools.values()):
        pool.shutdown(wait=False, cancel_futures=True)
    _pools.clear()


atexit.register(shutdown_pools)


def _chunk_count(workers: int, n_tasks: int) -> int:
    env = os.environ.get(CHUNKS_ENV, "").strip()
    if env:
        try:
            chunks = int(env)
        except ValueError:
            raise ValueError(f"{CHUNKS_ENV} must be an integer, got {env!r}")
    else:
        # More chunks than cores only add task round trips for no
        # concurrency gain, so cap at the physical parallelism.
        chunks = min(workers, os.cpu_count() or 1)
    return max(1, min(chunks, n_tasks))


def _split_chunks(tasks: list, n_chunks: int) -> "List[list]":
    base, extra = divmod(len(tasks), n_chunks)
    chunks = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        if size:
            chunks.append(tasks[start : start + size])
        start += size
    return chunks


def _trial_timeout_s() -> float:
    env = os.environ.get(TRIAL_TIMEOUT_ENV, "").strip()
    if env:
        try:
            return float(env)
        except ValueError:
            raise ValueError(f"{TRIAL_TIMEOUT_ENV} must be a number, got {env!r}")
    return _DEFAULT_TRIAL_TIMEOUT_S


def _run_pool(
    runner: "SessionRunner",
    workers: int,
    chunk_fn,
    tasks: list,
    fallback_fn,
    collect_logs: bool,
) -> list:
    from ..obs.metrics import get_metrics
    from ..obs.telemetry import merge_snapshot
    from ..obs.trace import get_tracer

    tracer, metrics = get_tracer(), get_metrics()
    flags = (tracer.enabled, metrics.enabled)
    pool = _get_pool(runner, flags)
    chunks = _split_chunks(tasks, _chunk_count(workers, len(tasks)))
    timeout = _trial_timeout_s()
    futures = [pool.submit(chunk_fn, (chunk, collect_logs)) for chunk in chunks]

    slots: "List[Optional[list]]" = [None] * len(chunks)
    lost: "List[int]" = []
    evicted = False
    for ci, fut in enumerate(futures):
        try:
            slots[ci] = fut.result(timeout=timeout * len(chunks[ci]))
        except (Exception, CancelledError):
            # Crash (BrokenProcessPool), hang (TimeoutError), or a chunk
            # cancelled by a previous eviction: drop the pool once.
            lost.append(ci)
            if not evicted:
                evicted = True
                _discard_pool(pool)

    # One crashing worker breaks the whole pool, so the chunks running
    # beside it are lost too.  Retry each lost chunk alone on a fresh pool;
    # only a chunk that fails by itself is re-executed serially on the
    # parent runner — same per-trial seeds, so the merged battery is
    # unchanged, and the recovered count does not depend on the core count.
    recovered = 0
    for ci in lost:
        retry = _get_pool(runner, flags)
        try:
            slots[ci] = retry.submit(chunk_fn, (chunks[ci], collect_logs)).result(
                timeout=timeout * len(chunks[ci])
            )
            continue
        except (Exception, CancelledError):
            _discard_pool(retry)
        slots[ci] = [
            (fallback_fn(runner, task, collect_logs), None) for task in chunks[ci]
        ]
        recovered += len(chunks[ci])

    trials = []
    relayed = 0
    for pairs in slots:
        for trial, snapshot in pairs:
            trials.append(trial)
            if snapshot is not None and not snapshot.is_empty:
                merge_snapshot(
                    snapshot, tracer=tracer, metrics=metrics,
                    span_attrs={"relayed": True},
                )
                relayed += 1
    if metrics.enabled:
        if relayed:
            metrics.inc("parallel.snapshots_merged", float(relayed))
        if recovered:
            metrics.inc("parallel.trials_recovered", float(recovered))
    return trials


def run_motion_battery_parallel(
    runner: "SessionRunner",
    motions: "Sequence[Motion]",
    repeats: int,
    user: "UserProfile",
    workers: int,
    collect_logs: bool = False,
) -> "List[MotionTrial]":
    """Run a motion battery on the persistent pool (see module docstring)."""
    ordered = [m for m in motions for _ in range(repeats)]
    tasks = [(i, m, user, None) for i, m in enumerate(ordered)]
    return _run_pool(
        runner, workers, _motion_chunk_task, tasks, _motion_fallback, collect_logs
    )


def run_letter_battery_parallel(
    runner: "SessionRunner",
    letters: Sequence[str],
    repeats: int,
    user: "UserProfile",
    workers: int,
    collect_logs: bool = False,
) -> "List[LetterTrial]":
    """Run a letter battery on the persistent pool (see module docstring)."""
    ordered = [letter for letter in letters for _ in range(repeats)]
    tasks = [(i, letter, user) for i, letter in enumerate(ordered)]
    return _run_pool(
        runner, workers, _letter_chunk_task, tasks, _letter_fallback, collect_logs
    )
