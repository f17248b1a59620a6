"""Hot-path performance benchmark: the `repro stats` battery, timed.

Measures the standard motion+letter workload (13 motions + the letter
"T" on the seed-11 NLOS deployment) two ways:

* **engine** — the reader's one collection path, serial;
* **parallel** — the same path fanned out over worker processes.

Every run appends one trajectory entry to ``BENCH_pipeline.json`` at the
repo root: wall times, reads/sec, trials/sec, and per-stage p95
latencies from the tracer, so the performance history is recorded next to
the code it measures.

``REPRO_BENCH_SMOKE=1`` shrinks the workload to a few trials and a single
round — `scripts/check.sh` uses it to keep the benchmark exercised without
paying the full measurement cost.  Full runs: ``sh scripts/bench.sh``.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Dict, Tuple

from repro.motion.strokes import all_motions
from repro.obs.trace import get_tracer
from repro.sim.runner import SessionRunner
from repro.sim.scenario import ScenarioConfig, build_scenario

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(ROOT, "BENCH_pipeline.json")

#: Pre-vectorization baseline: the same workload at commit 1d0d95e
#: (scalar ChannelModel per read, serial battery), best of 3 interleaved
#: runs on the reference container.  Kept for the trajectory record.
PRE_PR_BASELINE_S = 4.418


def _battery_spec() -> Tuple[list, str]:
    motions = all_motions()
    if SMOKE:
        motions = motions[:3]
    return motions, "T"


def _run_battery(trace: bool = False) -> Dict[str, float]:
    """One full workload run; returns wall time and read/trial counts."""
    tracer = get_tracer()
    if trace:
        tracer.reset()
        tracer.enable()
    motions, letter = _battery_spec()
    t0 = time.perf_counter()
    runner = SessionRunner(
        build_scenario(ScenarioConfig(seed=11, mount="nlos", location=2))
    )
    reads = 0
    slots = 0
    for motion in motions:
        reads += runner.run_motion(motion).log_size
        slots += runner.reader.last_inventory_stats.slots
    runner.run_letter(letter)
    slots += runner.reader.last_inventory_stats.slots
    wall = time.perf_counter() - t0
    # reads counts the motion trials' logs (the letter log is not
    # retained on LetterTrial); the rate is still apples-to-apples
    # across entries because the workload is fixed.  slots counts every
    # MAC slot (successes + collisions + idles) the inventory engine
    # resolved across the battery's collect windows.
    return {
        "wall_s": wall,
        "reads": float(reads),
        "slots": float(slots),
        "trials": float(len(motions) + 1),
    }


def _best_of(rounds: int) -> Dict[str, float]:
    best = None
    for _ in range(rounds):
        run = _run_battery()
        if best is None or run["wall_s"] < best["wall_s"]:
            best = run
    return best


def _stage_p95() -> Dict[str, float]:
    """Per-stage p95 (ms) from a traced engine run of the workload."""
    _run_battery(trace=True)
    tracer = get_tracer()
    agg = tracer.aggregate()
    tracer.reset()
    return {path: round(stats["p95_s"] * 1e3, 4) for path, stats in agg.items()}


def _stream_event_p95_ms() -> "float | None":
    """p95 stroke-event latency of one streamed letter session, in ms.

    Latency is measured in *stream time* (newest read seen at emission
    minus window close), so it captures the segmenter's decision lag —
    lookahead windows + merge-gap settling — not host speed.  The run is
    scoped to a fresh registry (``scoped_metrics``) so nothing recorded
    by earlier benchmark legs — or left behind by previous entries in the
    same process — can leak into the histogram this leg reports.
    """
    from repro.obs.metrics import MetricsRegistry, scoped_metrics
    from repro.sim.live import LiveDriver

    with scoped_metrics(MetricsRegistry(enabled=True)) as metrics:
        runner = SessionRunner(
            build_scenario(ScenarioConfig(seed=11, mount="nlos", location=2))
        )
        LiveDriver(runner, chunk_s=0.1).run_letter("T")
        hist = metrics.get_histogram("stream.event_latency_s")
        if hist is None or hist.count == 0:
            return None
        return round(hist.percentile(95.0) * 1e3, 4)


def _telemetry_wall_s(rounds: int) -> float:
    """Best engine-battery wall with the full telemetry stack *on*.

    Tracer + metrics enabled (scoped, so the measurement doesn't pollute
    the process registries) and a TelemetryHub sampling at 10 Hz — the
    worst-case observability configuration a monitored run pays.
    """
    from repro.obs.metrics import MetricsRegistry, scoped_metrics
    from repro.obs.telemetry import TelemetryHub
    from repro.obs.trace import Tracer, scoped_tracer

    best = None
    for _ in range(rounds):
        with scoped_tracer(Tracer(enabled=True)), scoped_metrics(
            MetricsRegistry(enabled=True)
        ):
            hub = TelemetryHub(interval_s=0.1)
            hub.start()
            try:
                wall = _run_battery()["wall_s"]
            finally:
                hub.stop(final_sample=True)
        if best is None or wall < best:
            best = wall
    return best


def _stream_provisional_p95_ms() -> Dict[str, "float | None"]:
    """Provisional-session latency percentiles from one streamed letter.

    ``stream.provisional_latency_s`` is the stream-time lag of each
    preview behind the newest ingested read; ``stream.letter_latency_s``
    is the lag of the *finalized* letter decision behind the last read of
    its final window — the number the acceptance bound (< 150 ms) gates.
    """
    from repro.obs.metrics import MetricsRegistry, scoped_metrics
    from repro.sim.live import LiveDriver

    with scoped_metrics(MetricsRegistry(enabled=True)) as metrics:
        runner = SessionRunner(
            build_scenario(ScenarioConfig(seed=11, mount="nlos", location=2))
        )
        LiveDriver(runner, chunk_s=0.05, provisional=True).run_letter("T")
        out: Dict[str, "float | None"] = {}
        for key, name in (
            ("stream_provisional_p95_ms", "stream.provisional_latency_s"),
            ("stream_letter_p95_ms", "stream.letter_latency_s"),
        ):
            hist = metrics.get_histogram(name)
            if hist is None or hist.count == 0:
                out[key] = None
            else:
                out[key] = round(hist.percentile(95.0) * 1e3, 4)
        return out


#: Serving-leg shape: the acceptance bar is >= 200 concurrent real-time
#: sessions on the 1-core container with finalized-letter p95 < 150 ms.
SERVE_SESSIONS = 200
SERVE_CHUNK_S = 0.4
SERVE_RAMP_S = 2.0


def _serve_leg() -> Dict[str, "float | None"]:
    """Multi-session serving throughput: 200 concurrent paced writers.

    A :class:`BackgroundHub` serves on an ephemeral port while the
    loadgen drives ``SERVE_SESSIONS`` concurrent writers, each replaying
    a seed-11 letter-"T" session over its own TCP connection in
    real-time-paced ``SERVE_CHUNK_S`` report batches (starts staggered
    across ``SERVE_RAMP_S`` — writers are not phase-locked in real
    deployments).  ``serve_event_p95_ms`` is the client-perceived
    finalize-to-letter tail latency; ``serve_hub_event_p95_ms`` is the
    hub-side enqueue-to-emit lag of final events.  Runs at full scale in
    smoke mode too: the 200-session bar *is* the acceptance criterion,
    and the leg costs seconds, not minutes.
    """
    from repro.obs.metrics import MetricsRegistry, scoped_metrics
    from repro.serve import BackgroundHub, HubConfig
    from repro.serve.loadgen import run_loadgen_sync, session_logs

    runner = SessionRunner(
        build_scenario(ScenarioConfig(seed=11, mount="nlos", location=2))
    )
    logs = session_logs(runner, "T", 4)
    with scoped_metrics(MetricsRegistry(enabled=True)) as metrics:
        hub = BackgroundHub(
            runner.pad, HubConfig(port=0, workers=1, batch_sessions=32)
        )
        try:
            result = run_loadgen_sync(
                hub.address[0],
                hub.address[1],
                logs,
                sessions=SERVE_SESSIONS,
                chunk_s=SERVE_CHUNK_S,
                time_scale=1.0,
                pace=True,
                ramp_s=SERVE_RAMP_S,
                expected_letter="T",
            )
        finally:
            hub.stop()
        hist = metrics.get_histogram("serve.event_latency_s")
        hub_p95 = (
            round(hist.percentile(95.0) * 1e3, 4)
            if hist is not None and hist.count
            else None
        )
        dropped = metrics.counter_value("serve.dropped_chunks")
    assert result.completed == SERVE_SESSIONS, (
        f"serving leg: only {result.completed}/{SERVE_SESSIONS} sessions "
        f"completed; errors: {result.errors[:3]}"
    )
    assert result.peak_concurrent >= SERVE_SESSIONS, (
        f"serving leg never reached {SERVE_SESSIONS} concurrent sessions "
        f"(peak {result.peak_concurrent})"
    )
    assert result.letters_expected == result.completed, (
        "serving leg: some sessions finalized the wrong letter — the hub "
        "is not stream-equivalent under concurrency"
    )
    return {
        "serve_concurrent_sessions": float(result.peak_concurrent),
        "serve_sessions_per_s": round(result.sessions_per_s, 2),
        "serve_event_p95_ms": round(result.event_p95_ms, 4),
        "serve_event_p99_ms": round(result.event_p99_ms, 4),
        "serve_hub_event_p95_ms": hub_p95,
        "serve_dropped_chunks": dropped,
    }


def _multipad_leg() -> Dict[str, "float | None"]:
    """Multipad throughput + workspace stitch quality.

    Throughput: simultaneous writers on two multiplexed pads (the
    ``ext_multipad`` shape) on the vectorized engine path, in trials/s.
    Stitch quality: a 2x1 workspace runs one boundary-crossing letter
    and reports fig25's Kinect trajectory-error metric on the stitched
    workspace-frame trajectory, in cm — the seam cost, recorded next to
    the throughput it buys.
    """
    import numpy as np

    from repro.motion.script import script_for_letter, script_for_motion
    from repro.motion.strokes import Motion, StrokeKind
    from repro.rfid.multiplex import MultiplexedReader, ReaderPort
    from repro.rfid.reader import ReaderConfig
    from repro.sim.runner import WorkspaceRunner
    from repro.sim.workspace import WorkspaceConfig, build_workspace

    scen_a = build_scenario(ScenarioConfig(seed=11, mount="nlos", location=2))
    scen_b = build_scenario(ScenarioConfig(seed=12, mount="nlos", location=2))
    mux = MultiplexedReader(
        [
            ReaderPort(scen_a.antenna, scen_a.array, scen_a.environment),
            ReaderPort(scen_b.antenna, scen_b.array, scen_b.environment),
        ],
        ReaderConfig(),
        dwell_s=0.1,
        rngs=[np.random.default_rng(11), np.random.default_rng(12)],
    )
    motions = [Motion(StrokeKind.HBAR), Motion(StrokeKind.VBAR)]
    if not SMOKE:
        motions += [Motion(StrokeKind.SLASH), Motion(StrokeKind.BACKSLASH)]
    script_rng = np.random.default_rng(11)
    trials = 0
    t0 = time.perf_counter()
    for motion_a in motions:
        for motion_b in motions:
            script_a = script_for_motion(motion_a, script_rng)
            script_b = script_for_motion(motion_b, script_rng)
            mux.collect(
                max(script_a.duration, script_b.duration),
                [script_a.hand_pose_at, script_b.hand_pose_at],
            )
            trials += 2
    wall = time.perf_counter() - t0

    ws_runner = WorkspaceRunner(
        build_workspace(WorkspaceConfig(base=ScenarioConfig(seed=7), tiles_x=2))
    )
    script = script_for_letter("L", ws_runner.rng)
    log = ws_runner.run_script(script)
    letter = ws_runner.pad.recognize_letter(log).letter
    err = ws_runner.stitched_trajectory_error(log, script)
    return {
        "multipad_trials_per_s": round(trials / wall, 2),
        "multipad_boundary_letter_ok": letter == "L",
        "stitch_trajectory_err_cm": round(err * 100, 3) if err is not None else None,
    }


def _serial_trials_per_s(rounds: int) -> float:
    """True serial battery throughput: shared-RNG loop, workers=0."""
    motions, _ = _battery_spec()
    runner = SessionRunner(
        build_scenario(ScenarioConfig(seed=11, mount="nlos", location=2))
    )
    best = None
    trials = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        trials = runner.run_motion_battery(motions, 1, workers=0)
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    return len(trials) / best


def _parallel_trials_per_s(workers: int, rounds: int) -> float:
    """Warmed-pool battery throughput for a given worker count.

    The first battery pays pool spawn + per-worker engine construction;
    it is run once and discarded so the recorded number is the steady
    state a monitored session reaches after its opening battery.
    Recorded in smoke mode too, so the "parallel vs serial" trajectory
    stays visible in every entry, not just full runs.
    """
    from repro.sim.parallel import shutdown_pools

    motions, _ = _battery_spec()
    runner = SessionRunner(
        build_scenario(ScenarioConfig(seed=11, mount="nlos", location=2))
    )
    try:
        runner.run_motion_battery(motions, 1, workers=workers)  # warm
        best = None
        trials = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            trials = runner.run_motion_battery(motions, 1, workers=workers)
            wall = time.perf_counter() - t0
            best = wall if best is None else min(best, wall)
        return len(trials) / best
    finally:
        shutdown_pools()


def _git_head() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _append_entry(entry: Dict) -> None:
    doc = {"workload": "repro stats battery (13 motions + letter T, seed 11)",
           "entries": []}
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.setdefault("entries", []).append(entry)
    with open(BENCH_JSON, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _best_recorded_wall(smoke: bool) -> "float | None":
    """Fastest engine wall among recorded entries of the same workload size."""
    if not os.path.exists(BENCH_JSON):
        return None
    with open(BENCH_JSON, encoding="utf-8") as fh:
        doc = json.load(fh)
    walls = [
        e["engine_wall_s"]
        for e in doc.get("entries", [])
        if e.get("smoke", False) == smoke and e.get("engine_wall_s")
    ]
    return min(walls) if walls else None


def test_hotpath_benchmark():
    rounds = 1 if SMOKE else 3
    prior_best_wall = _best_recorded_wall(SMOKE)
    engine = _best_of(rounds)
    telemetry_wall = _telemetry_wall_s(rounds)
    stage_p95_ms = _stage_p95()
    serial_tps = _serial_trials_per_s(rounds)
    parallel2_tps = _parallel_trials_per_s(2, rounds)
    parallel4_tps = _parallel_trials_per_s(4, rounds)
    stream_p95 = _stream_provisional_p95_ms()
    serve = _serve_leg()
    multipad = _multipad_leg()

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "commit": _git_head(),
        "smoke": SMOKE,
        "rounds": rounds,
        "engine_wall_s": round(engine["wall_s"], 4),
        "pre_pr_scalar_baseline_s": PRE_PR_BASELINE_S,
        "speedup_vs_pre_pr_baseline": round(PRE_PR_BASELINE_S / engine["wall_s"], 2)
        if not SMOKE
        else None,
        "reads_per_s": round(engine["reads"] / engine["wall_s"], 1),
        "slots_per_s": round(engine["slots"] / engine["wall_s"], 1),
        "trials_per_s": round(engine["trials"] / engine["wall_s"], 2),
        "reader_collect_p95_ms": stage_p95_ms.get("trial.motion/reader.collect"),
        "stream_event_p95_ms": _stream_event_p95_ms(),
        "telemetry_wall_s": round(telemetry_wall, 4),
        "telemetry_overhead_pct": round(
            100.0 * (telemetry_wall - engine["wall_s"]) / engine["wall_s"], 2
        ),
        "serial_trials_per_s": round(serial_tps, 2),
        "parallel_trials_per_s_workers2": round(parallel2_tps, 2),
        "parallel_trials_per_s_workers4": round(parallel4_tps, 2),
        "parallel_speedup_workers4": round(parallel4_tps / serial_tps, 2),
        "stream_provisional_p95_ms": stream_p95["stream_provisional_p95_ms"],
        "stream_letter_p95_ms": stream_p95["stream_letter_p95_ms"],
        **serve,
        **multipad,
        "stage_p95_ms": stage_p95_ms,
    }
    _append_entry(entry)
    print()
    print(json.dumps(entry, indent=2))

    assert engine["reads"] > 0
    assert os.path.exists(BENCH_JSON)
    # Regression floor: never regress more than 2x over the best recorded
    # wall for the same workload size.  check.sh's smoke run arms this
    # against the smoke history; full runs guard against the full history.
    if prior_best_wall is not None:
        assert engine["wall_s"] <= 2.0 * prior_best_wall, (
            f"engine wall {engine['wall_s']:.4f}s regressed more than 2x over "
            f"the best recorded entry ({prior_best_wall:.4f}s)"
        )
    # Telemetry overhead bound: the fully-instrumented run (tracer +
    # metrics + 10 Hz hub sampling) must stay within 5% of the same-run
    # plain engine wall, with a small absolute slack term absorbing this
    # container's clock noise on sub-second walls.
    assert telemetry_wall <= 1.05 * engine["wall_s"] + 0.05, (
        f"telemetry-on wall {telemetry_wall:.4f}s exceeds the 5% overhead "
        f"budget over the plain engine wall {engine['wall_s']:.4f}s"
    )
    # Parallel must never fall behind serial again (the regression this
    # battery of changes fixed).  The warmed 4-worker pool runs its chunks
    # side by side, each trial through the same round loop as the serial
    # loop, so it wins by using more than one core: on a 2-vCPU host it
    # measured 1.8x serial, but pinned to one core only about 0.95x.
    # check.sh re-enforces the same bound from the recorded entry.
    assert parallel4_tps >= serial_tps, (
        f"parallel(4) throughput {parallel4_tps:.2f} trials/s fell below "
        f"serial {serial_tps:.2f} trials/s"
    )
    # Finalized letter decisions must land promptly after their last
    # read: the provisional layer's reason to exist.
    if stream_p95["stream_letter_p95_ms"] is not None:
        assert stream_p95["stream_letter_p95_ms"] < 150.0, (
            f"finalized letter-event p95 "
            f"{stream_p95['stream_letter_p95_ms']:.1f} ms breaches the "
            f"150 ms streaming budget"
        )
    # Serving acceptance: 200 concurrent real-time sessions on this
    # 1-core container must finalize letters with p95 tail latency under
    # the same 150 ms budget, without shedding a single chunk.
    assert serve["serve_event_p95_ms"] < 150.0, (
        f"serving letter-event p95 {serve['serve_event_p95_ms']:.1f} ms "
        f"breaches the 150 ms budget at {SERVE_SESSIONS} concurrent sessions"
    )
    assert serve["serve_dropped_chunks"] == 0, (
        f"the lossless 'block' policy shed {serve['serve_dropped_chunks']} "
        f"chunk(s) during the serving leg"
    )
    # Workspace acceptance: the 2x1 tiled run must recognize its
    # boundary-crossing letter and keep the stitched trajectory within a
    # tag pitch (+ slack) of ground truth — the seam must not cost more
    # than the solo tracker's own error budget.
    assert multipad["multipad_boundary_letter_ok"], (
        "2x1 workspace failed to recognize the boundary-crossing letter"
    )
    assert multipad["stitch_trajectory_err_cm"] is not None, (
        "2x1 workspace produced no stitched trajectory"
    )
    assert multipad["stitch_trajectory_err_cm"] < 8.0, (
        f"stitched trajectory error {multipad['stitch_trajectory_err_cm']} cm "
        f"breaches the 8 cm (~tag pitch + slack) budget"
    )
