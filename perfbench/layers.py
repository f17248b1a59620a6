"""Per-layer metrics: their definitions, what each should move, and the
outside-in timers that measure them in a traced run.

Layers are the package's modules (``motion``, ``physics``, ``rfid``,
``core``, ``stream``, ``sim``, ``serve``, ``obs``).  In-process workloads
time the public calls below with :class:`benchlib.Timers` patched in from
this file; the ``serve`` workload reads the hub's own spans and counters
from its ``/metrics`` endpoint instead (see ``workloads/serve.py``).

Every ``*_ms`` metric is milliseconds *per op* (normalized to the
nominal host speed, ``benchlib.HostSpeed``, except on ``serve``) of
**self** time (the
call's duration minus nested calls that are also timed), except
``rfid.mux_collect_ms`` and ``core.analyze_ms``, which are totals of
their calls.  Counts are per op unless the definition says otherwise.
A layer a workload does not exercise reports 0.
"""

from __future__ import annotations

from typing import Dict

from benchlib import Timers, load_spec

#: For every per-layer metric of ``BENCHMARK.json`` (which holds its unit
#: and direction): its definition, the end-to-end metric it should move
#: (and on which workloads), and the workloads where it should stay flat.
#: The ``BENCHMARK.json`` schema has no key for these, so they live here.
EFFECTS: Dict[str, Dict[str, str]] = {
    "motion.script_ms": dict(
        what="script_for_motion / script_for_letter",
        moves="ops_per_s on battery, workspace", flat="stream, serve"),
    "rfid.collect_ms": dict(
        what="Reader.collect / collect_batch / emit_lane, self",
        moves="ops_per_s on battery, workspace", flat="stream, serve"),
    "rfid.reads": dict(
        what="reads per op (last_inventory_stats.successes)",
        moves="ops_per_s, accuracy on battery", flat="stream, serve"),
    "rfid.slots": dict(
        what="MAC slots per op (last_inventory_stats.slots)",
        moves="ops_per_s on battery", flat="stream, serve"),
    "rfid.slot_yield": dict(
        what="successful slots / slots",
        moves="ops_per_s on battery", flat="stream, serve"),
    "physics.channel_ms": dict(
        what="ChannelEngine.scene_powers / scene_powers_trials / backscatter_rows",
        moves="ops_per_s on battery, workspace", flat="stream, serve"),
    "physics.channel_calls": dict(
        what="ChannelEngine calls per op",
        moves="ops_per_s on battery, workspace", flat="stream, serve"),
    "rfid.mux_collect_ms": dict(
        what="Workspace.collect_tiles, total (contains rfid.collect, physics.channel)",
        moves="ops_per_s on workspace", flat="battery, stream, serve"),
    "core.segment_ms": dict(
        what="SegmentationStage.run (batch), StreamSegmenter.ingest/finalize",
        moves="ops_per_s on battery; latency_p50_ms on stream", flat="serve (not visible)"),
    "core.suppression_ms": dict(
        what="SuppressionStage.run (incl. unwrap)",
        moves="latency_tail_ms on stream, serve; cpu_ms_per_op on serve", flat=""),
    "core.imaging_ms": dict(
        what="ImagingStage.run",
        moves="latency_tail_ms on stream, serve; cpu_ms_per_op on serve", flat=""),
    "core.otsu_ms": dict(
        what="OtsuStage.run",
        moves="latency_tail_ms on stream, serve; cpu_ms_per_op on serve", flat=""),
    "core.direction_ms": dict(
        what="DirectionStage.run / vote",
        moves="latency_tail_ms on stream, serve; cpu_ms_per_op on serve", flat=""),
    "core.classify_ms": dict(
        what="ClassifyStage.run",
        moves="latency_tail_ms on stream, serve; cpu_ms_per_op on serve", flat=""),
    "core.analyze_ms": dict(
        what="WindowAnalyzer.analyze, total (the five stages above)",
        moves="latency_tail_ms on stream, serve; cpu_ms_per_op on serve; some of battery",
        flat=""),
    "core.grammar_ms": dict(
        what="GrammarStage.run",
        moves="latency_tail_ms on stream, serve", flat=""),
    "core.windows": dict(
        what="windows analysed per op",
        moves="cpu_ms_per_op on every workload", flat=""),
    "core.stroke_yield": dict(
        what="windows that gave a stroke / windows analysed",
        moves="accuracy", flat=""),
    "stream.ingest_self_ms": dict(
        what="StreamingSession.ingest/finalize minus segmentation, analysis, grammar",
        moves="latency_p50_ms, peak_rss_mb on stream; cpu_ms_per_op on serve",
        flat="battery"),
    "stream.buffered_reads_max": dict(
        what="largest StreamingSession.buffered_reads after an ingest",
        moves="peak_rss_mb on stream", flat="battery"),
    "stream.chunk_p50_ms": dict(
        what="median wall of one 0.1 s chunk's ingest (all tiles' ingest_tile), untraced",
        moves="latency_p50_ms on stream, workspace", flat="battery, serve"),
    "stream.chunk_p99_ms": dict(
        what="99th percentile of the same, untraced",
        moves="latency_tail_ms on stream, workspace", flat="battery, serve"),
    "stream.decision_lag_ms": dict(
        what="median stream-time lag emitted_at - window.t1 of final stroke events",
        moves="nothing: guards segmentation behaviour", flat="every workload"),
    "stream.merge_ms": dict(
        what="WorkspaceSession.ingest_tile/finalize minus the inner session",
        moves="ops_per_s on workspace", flat="stream"),
    "stream.held_reads_max": dict(
        what="largest count of reads held at the watermark merge",
        moves="peak_rss_mb on workspace", flat="stream"),
    "core.stitch_ms": dict(
        what="WorkspaceRunner.stitched_trajectory_error",
        moves="ops_per_s on workspace", flat="battery, stream, serve"),
    "core.stitch_err_cm": dict(
        what="median stitched trajectory error over the run's letters",
        moves="nothing: guards stitching quality", flat="every workload"),
    "serve.batches": dict(
        what="hub micro-batches per session (/metrics)",
        moves="cpu_ms_per_op on serve", flat="stream"),
    "serve.sessions_per_batch": dict(
        what="mean sessions coalesced per micro-batch (/metrics)",
        moves="cpu_ms_per_op on serve", flat="stream"),
    "serve.queue_depth_max": dict(
        what="largest sampled serve.queue_depth gauge",
        moves="latency_tail_ms on serve", flat="stream"),
    "serve.backpressure_waits": dict(
        what="serve.backpressure_waits over the run",
        moves="latency_tail_ms on serve", flat="stream"),
    "serve.dropped_chunks": dict(
        what="serve.dropped_chunks over the run",
        moves="accuracy on serve", flat="stream"),
    "serve.analysis_ms": dict(
        what="serve.batch span time per session",
        moves="cpu_ms_per_op, latency_tail_ms on serve", flat="stream"),
    "serve.hub_letter_p90_ms": dict(
        what="p90 of the hub's serve.event_latency_s histogram",
        moves="latency_tail_ms on serve", flat="stream"),
    "serve.hub_busy_frac": dict(
        what="hub CPU seconds / wall seconds over the run",
        moves="cpu_ms_per_op on serve", flat="stream"),
    "serve.wire_ms": dict(
        what="client event latency p50 - hub serve.event_latency_s p50",
        moves="latency_p50_ms on serve", flat="stream"),
    "serve.framing_us_per_chunk": dict(
        what="FrameDecoder.feed + decode_chunk on the run's frames (not normalized)",
        moves="cpu_ms_per_op on serve", flat="stream"),
    "loadgen.late_p99_ms": dict(
        what="p99 lateness of the generator's sends (not the program)",
        moves="nothing: a large value invalidates a serve run", flat="every workload"),
    "loadgen.frames": dict(
        what="frames the generator sent per session",
        moves="nothing: fixed by the inputs", flat="every workload"),
    "latency_tail_ms": dict(
        what="tail of the end-to-end latency samples: p99 (stream, workspace), "
             "p90 (serve, battery); untraced",
        moves="nothing by itself: the tail of latency_p50_ms's samples", flat=""),
    "accuracy": dict(
        what="ops whose final motion or letter is correct / ops attempted (untraced)",
        moves="nothing: deterministic per seed, moves when draws or recognition change",
        flat="every workload unless recognition changes"),
    "unattributed_ms": dict(
        what="wall per op no timed layer covers (serve: hub CPU outside serve.batch)",
        moves="shows missing instrumentation", flat=""),
    "trace_overhead_pct": dict(
        what="traced vs untraced ops_per_s (serve: hub cpu_ms_per_op)",
        moves="nothing: the cost of this trace", flat=""),
}

#: Timer name -> metric, for timers reported as self time per op.
_SELF_MS = {
    "motion.script": "motion.script_ms",
    "rfid.collect": "rfid.collect_ms",
    "physics.channel": "physics.channel_ms",
    "core.segment": "core.segment_ms",
    "core.suppression": "core.suppression_ms",
    "core.imaging": "core.imaging_ms",
    "core.otsu": "core.otsu_ms",
    "core.direction": "core.direction_ms",
    "core.classify": "core.classify_ms",
    "core.grammar": "core.grammar_ms",
    "stream.session": "stream.ingest_self_ms",
    "stream.merge": "stream.merge_ms",
    "core.stitch": "core.stitch_ms",
}
_TOTAL_MS = {
    "rfid.mux_collect": "rfid.mux_collect_ms",
    "core.analyze": "core.analyze_ms",
}


def zeros() -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``, at 0."""
    return {m["name"]: 0.0 for m in load_spec()["per_layer"]}


# -- hooks run after a timed call ----------------------------------------


def _after_inventory(timers: Timers, args, result) -> None:
    stats = args[0].last_inventory_stats
    timers.count("rfid.reads", stats.successes)
    timers.count("rfid.slots", stats.slots)


def _after_analyze(timers: Timers, args, result) -> None:
    timers.count("core.windows")
    if result is not None:
        timers.count("core.strokes")


def _after_session_ingest(timers: Timers, args, result) -> None:
    session, chunk = args[0], args[1]
    timers.count("stream.inner_reads", len(chunk))
    timers.peak("stream.buffered_reads_max", session.buffered_reads)


def _after_tile_ingest(timers: Timers, args, result) -> None:
    timers.count("stream.tile_reads", len(args[2]))
    held = timers.counts["stream.tile_reads"] - timers.counts.get("stream.inner_reads", 0.0)
    timers.peak("stream.held_reads_max", held)


def install(timers: Timers) -> None:
    """Patch timers around the public calls of every in-process layer."""
    from repro.core.segmentation import StreamSegmenter
    from repro.core.stages import (
        ClassifyStage,
        DirectionStage,
        GrammarStage,
        ImagingStage,
        OtsuStage,
        SegmentationStage,
        SuppressionStage,
        WindowAnalyzer,
    )
    from repro.motion import script as script_mod
    from repro.physics.channel_vec import ChannelEngine
    from repro.rfid.reader import Reader
    from repro.sim import runner as runner_mod
    from repro.sim.workspace import Workspace
    from repro.stream.session import StreamingSession, WorkspaceSession

    for module in (script_mod, runner_mod):
        for fn in ("script_for_motion", "script_for_letter"):
            timers.patch(module, fn, "motion.script")
    timers.patch(Reader, "collect", "rfid.collect", _after_inventory)
    timers.patch(Reader, "collect_batch", "rfid.collect")
    timers.patch(Reader, "emit_lane", "rfid.collect", _after_inventory)
    for fn in ("scene_powers", "scene_powers_trials", "backscatter_rows"):
        timers.patch(ChannelEngine, fn, "physics.channel")
    timers.patch(Workspace, "collect_tiles", "rfid.mux_collect")
    timers.patch(SegmentationStage, "run", "core.segment")
    timers.patch(StreamSegmenter, "ingest", "core.segment")
    timers.patch(StreamSegmenter, "finalize", "core.segment")
    timers.patch(SuppressionStage, "run", "core.suppression")
    timers.patch(ImagingStage, "run", "core.imaging")
    timers.patch(OtsuStage, "run", "core.otsu")
    timers.patch(DirectionStage, "run", "core.direction")
    timers.patch(DirectionStage, "vote", "core.direction")
    timers.patch(ClassifyStage, "run", "core.classify")
    timers.patch(WindowAnalyzer, "analyze", "core.analyze", _after_analyze)
    timers.patch(GrammarStage, "run", "core.grammar")
    timers.patch(StreamingSession, "ingest", "stream.session", _after_session_ingest)
    timers.patch(StreamingSession, "finalize", "stream.session")
    timers.patch(WorkspaceSession, "ingest_tile", "stream.merge", _after_tile_ingest)
    timers.patch(WorkspaceSession, "finalize", "stream.merge")
    timers.patch(runner_mod.WorkspaceRunner, "stitched_trajectory_error", "core.stitch")


def from_timers(timers: Timers, ops: int, wall_s: float, factor: float) -> Dict[str, float]:
    """Per-layer metrics of one traced in-process pass of ``ops`` ops;
    times are divided by the pass's host-speed ``factor``."""
    out = zeros()
    per_op = 1.0 / max(ops, 1)
    ms_per_op = 1e3 * per_op / factor
    for timer, metric in _SELF_MS.items():
        out[metric] = timers.self_s.get(timer, 0.0) * ms_per_op
    for timer, metric in _TOTAL_MS.items():
        out[metric] = timers.total.get(timer, 0.0) * ms_per_op
    reads = timers.counts.get("rfid.reads", 0.0)
    slots = timers.counts.get("rfid.slots", 0.0)
    windows = timers.counts.get("core.windows", 0.0)
    out["rfid.reads"] = reads * per_op
    out["rfid.slots"] = slots * per_op
    out["rfid.slot_yield"] = reads / slots if slots else 0.0
    out["physics.channel_calls"] = timers.calls.get("physics.channel", 0) * per_op
    out["core.windows"] = windows * per_op
    out["core.stroke_yield"] = (
        timers.counts.get("core.strokes", 0.0) / windows if windows else 0.0
    )
    out["stream.buffered_reads_max"] = timers.peaks.get("stream.buffered_reads_max", 0.0)
    out["stream.held_reads_max"] = timers.peaks.get("stream.held_reads_max", 0.0)
    out["unattributed_ms"] = (wall_s - timers.covered_s()) * ms_per_op
    return out
