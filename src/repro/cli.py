"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments``        list all registered experiments
``run <id> [...]``     run experiments and print their artefacts
``demo motion``        recognise the 13-motion battery live
``demo letter <L>``    write one letter and show the pipeline's view
``demo word <WORD>``   write a word (letters clustered by pauses)
``inspect``            dump the signal views of a single-motion session
``record <path>``      simulate a session and save its report stream (JSONL)
``replay <path>``      run the pipeline on a saved capture (``--stream`` feeds
                       it chunk-by-chunk through a ``StreamingSession``)
``live``               simulate a session and stream it, printing events as
                       stroke windows close
``stats``              run a standard battery with tracing + metrics on
                       (``--prometheus`` prints text exposition instead)
``serve-metrics``      expose /metrics (Prometheus) + /healthz over HTTP
``top``                live terminal health view: span p95s, read rate,
                       stream gauges, and declarative health rules
``serve``              run the multi-session serving hub: many concurrent
                       pads over length-prefixed TCP framing, micro-batched
                       analysis, bounded queues, graceful drain on SIGINT
``feed``               stream a saved capture into a running ``serve`` hub
                       and print the events it sends back
``loadgen``            drive N synthetic concurrent writers against a hub
                       and report throughput + tail-latency percentiles

Global observability flags: ``--trace-out PATH`` records every span of the
invoked command to a JSONL file; ``--metrics-out PATH`` samples the metric
registries on an interval (``--metrics-interval``) and writes the sampled
time series as JSONL; ``--log-level`` / ``--log-json`` configure the
``repro.*`` loggers (see README "Observability" and "Monitoring").
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import analysis
from .experiments import ALL_EXPERIMENTS, run_experiment
from .motion.script import script_for_letter, script_for_motion, script_for_word
from .motion.strokes import Motion, StrokeKind, all_motions
from .obs import configure as configure_logging
from .obs import get_logger, get_metrics, get_tracer
from .sim.runner import SessionRunner
from .sim.scenario import ScenarioConfig, build_scenario


def _parse_workspace(value: str) -> "tuple[int, int]":
    """Parse a ``--workspace`` tile grid like ``2x1`` into (tiles_x, tiles_y)."""
    try:
        tx, ty = (int(part) for part in value.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workspace must look like '2x1' (tiles_x x tiles_y), got {value!r}"
        )
    if tx < 1 or ty < 1:
        raise argparse.ArgumentTypeError("workspace needs at least 1x1 tiles")
    return tx, ty


def _workspace_tiles(args: argparse.Namespace) -> "tuple[int, int]":
    return getattr(args, "workspace", None) or (1, 1)


def _make_workspace_runner(args: argparse.Namespace):
    """A WorkspaceRunner for the CLI's tiled modes (``--workspace``)."""
    from .sim.runner import WorkspaceRunner
    from .sim.workspace import WorkspaceConfig, build_workspace

    tiles_x, tiles_y = _workspace_tiles(args)
    config = WorkspaceConfig(
        base=ScenarioConfig(
            seed=args.seed,
            mount=args.mount,
            location=args.location,
            tx_power_dbm=args.power,
        ),
        tiles_x=tiles_x,
        tiles_y=tiles_y,
        dwell_s=getattr(args, "dwell", 0.05),
    )
    return WorkspaceRunner(build_workspace(config))


def _make_runner(args: argparse.Namespace) -> SessionRunner:
    return SessionRunner(
        build_scenario(
            ScenarioConfig(
                seed=args.seed,
                mount=args.mount,
                location=args.location,
                tx_power_dbm=args.power,
            )
        )
    )


def cmd_experiments(args: argparse.Namespace) -> int:
    for eid in ALL_EXPERIMENTS:
        print(eid)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    ids = args.ids if args.ids else ALL_EXPERIMENTS
    failures = 0
    for eid in ids:
        result = run_experiment(
            eid, workers=args.workers, fast=not args.full, seed=args.seed
        )
        print(result.to_text())
        print()
        if result.expectation_met is False:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) missed their shape expectation",
              file=sys.stderr)
    return 1 if failures else 0


def cmd_demo_motion(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    correct = 0
    motions = all_motions()
    for motion in motions:
        trial = runner.run_motion(motion)
        obs = trial.observed
        mark = "ok " if trial.fully_correct else "** "
        correct += trial.fully_correct
        print(f"{mark}{motion.label:4s} -> {obs.label if obs else '(none)'}")
    print(f"\n{correct}/{len(motions)} motions correct")
    return 0


def cmd_demo_letter(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    script = script_for_letter(args.letter, runner.rng)
    log = runner.run_script(script)
    result = runner.pad.recognize_letter(log)
    print(f"wrote {args.letter!r}: read {result.letter!r} "
          f"(tokens {result.stroke_tokens})")
    print(f"candidates: {[(l, round(s, 2)) for l, s in result.candidates[:5]]}\n")
    print(analysis.session_summary(log, runner.pad.calibration))
    for i, stroke in enumerate(result.strokes, 1):
        print(f"\nstroke {i} ({stroke.label}):")
        print(stroke.binary.ascii_art())
    return 0


def cmd_demo_word(args: argparse.Namespace) -> int:
    from .core.words import WordDecoder, WordRecognizer

    runner = _make_runner(args)
    script = script_for_word(args.word, runner.rng)
    log = runner.run_script(script)
    lexicon = args.lexicon.split(",") if args.lexicon else []
    recognizer = WordRecognizer(runner.pad, decoder=WordDecoder(lexicon=lexicon))
    result = recognizer.recognize_word(log)
    print(f"wrote {args.word!r}: raw {result.raw!r}, decoded {result.text!r}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    kind = StrokeKind[args.stroke.upper()]
    script = script_for_motion(Motion(kind), runner.rng)
    log = runner.run_script(script)
    print(analysis.session_summary(log, runner.pad.calibration))
    print("\nper-tag |phase residual|:")
    for line in analysis.phase_sparklines(log, runner.pad.calibration):
        print(" ", line)
    print("\nper-tag RSS dip:")
    for line in analysis.rss_sparklines(log, runner.pad.calibration):
        print(" ", line)
    obs = runner.pad.detect_motion(log)
    print(f"\nrecognised: {obs.label if obs else '(nothing)'}")
    return 0


#: Header keys that pin a capture to its deployment; a session replayed
#: against a calibration capture whose values differ was recorded on a
#: *different* simulated rig, and the calibrated thresholds are suspect.
_SCENARIO_META_KEYS = ("seed", "mount", "location", "tx_power_dbm")


def _scenario_metadata(args: argparse.Namespace) -> dict:
    return {
        "seed": args.seed,
        "mount": args.mount,
        "location": args.location,
        "tx_power_dbm": args.power,
    }


def cmd_record(args: argparse.Namespace) -> int:
    from .rfid.capture import dump_log

    runner = _make_runner(args)
    if args.letter:
        script = script_for_letter(args.letter, runner.rng)
        label = args.letter
    else:
        kind = StrokeKind[args.stroke.upper()]
        script = script_for_motion(Motion(kind), runner.rng)
        label = kind.name
    log = runner.run_script(script)
    # The calibration capture travels with the session: a replayed capture
    # must be interpretable without re-simulating the deployment.  Both
    # headers carry the scenario identity so replay can detect mismatches.
    scenario_meta = _scenario_metadata(args)
    static_path = args.path + ".calibration"
    dump_log(runner.static_log, static_path,
             metadata={"kind": "static", **scenario_meta})
    count = dump_log(log, args.path, metadata={"label": label, **scenario_meta})
    print(f"recorded {count} reads to {args.path} "
          f"(+ calibration capture {static_path})")
    return 0


def _print_stream_events(events) -> None:
    from .stream import StrokeEvent

    for ev in events:
        if isinstance(ev, StrokeEvent):
            w = ev.window
            label = ev.stroke.label if ev.stroke is not None else "(no stroke)"
            kind = "stroke window" if ev.final else "stroke preview"
            print(f"[{ev.emitted_at:7.3f}s] {kind} "
                  f"{w.t0:.3f}-{w.t1:.3f}s -> {label}")
        elif ev.final:
            print(f"[{ev.emitted_at:7.3f}s] letter: {ev.result.letter!r} "
                  f"(tokens {ev.result.stroke_tokens})")
        else:
            print(f"[{ev.emitted_at:7.3f}s] letter preview: {ev.result.letter!r}")


def cmd_live(args: argparse.Namespace) -> int:
    from .sim.live import stream_log
    from .stream import StreamingSession

    tiles_x, tiles_y = _workspace_tiles(args)
    if tiles_x * tiles_y > 1:
        return _cmd_live_workspace(args, tiles_x * tiles_y)
    runner = _make_runner(args)
    if args.letter:
        script = script_for_letter(args.letter, runner.rng)
        truth = args.letter
    else:
        kind = StrokeKind[args.stroke.upper()]
        script = script_for_motion(Motion(kind), runner.rng)
        truth = kind.name
    log = runner.run_script(script)
    print(f"streaming {len(log)} reads in {args.chunk * 1000:.0f} ms chunks "
          f"(truth {truth!r})")
    session = StreamingSession(
        runner.pad, session_id="live", provisional=args.provisional
    )
    for ev in stream_log(runner.pad, log, args.chunk, session=session):
        _print_stream_events([ev])
    print(f"retained {session.buffered_reads} of {len(log)} reads at finish")
    return 0


def _cmd_live_workspace(args: argparse.Namespace, tile_count: int) -> int:
    """Tiled live mode: per-tile chunk streams through a WorkspaceSession."""
    from .core.segmentation import stitch_windows
    from .sim.live import iter_chunks
    from .stream import WorkspaceSession

    runner = _make_workspace_runner(args)
    if args.letter:
        script = script_for_letter(args.letter, runner.rng)
        truth = args.letter
    else:
        kind = StrokeKind[args.stroke.upper()]
        script = script_for_motion(Motion(kind), runner.rng)
        truth = kind.name
    tile_logs = runner.workspace.collect_tiles(script.duration, script)
    total = sum(len(lg) for lg in tile_logs)
    per_tile = ", ".join(str(len(lg)) for lg in tile_logs)
    print(f"streaming {total} reads from {tile_count} tiles ({per_tile}) "
          f"in {args.chunk * 1000:.0f} ms chunks (truth {truth!r})")
    session = WorkspaceSession(
        runner.pad, tile_count=tile_count, session_id="live",
        provisional=args.provisional,
    )
    chunk_iters = [list(iter_chunks(lg, args.chunk)) for lg in tile_logs]
    for i in range(max((len(c) for c in chunk_iters), default=0)):
        for tile, chunks in enumerate(chunk_iters):
            if i < len(chunks):
                _print_stream_events(session.ingest_tile(tile, chunks[i]))
    _print_stream_events(session.finalize())
    tile_windows = [runner.pad.segment(lg) for lg in tile_logs]
    stitched = stitch_windows(tile_windows)
    print(f"stitched {sum(len(w) for w in tile_windows)} per-tile "
          f"windows into {len(stitched)} workspace windows")
    from .rfid.reports import merge_logs

    err = runner.stitched_trajectory_error(merge_logs(tile_logs), script)
    if err is not None:
        print(f"stitched trajectory error: {err * 100:.2f} cm")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from .core.pipeline import RFIPad
    from .physics.geometry import GridLayout
    from .rfid.capture import load_log, load_metadata

    logger = get_logger("cli.replay")
    log = load_log(args.path)
    meta = load_metadata(args.path)
    static_path = args.path + ".calibration"
    static_meta = load_metadata(static_path)
    for key in _SCENARIO_META_KEYS:
        session_value, static_value = meta.get(key), static_meta.get(key)
        if session_value != static_value:
            logger.warning(
                "capture %s: scenario %s mismatch between session (%r) and "
                "calibration capture (%r); calibrated thresholds may not fit "
                "this recording",
                args.path, key, session_value, static_value,
            )
    tiles_x, tiles_y = _workspace_tiles(args)
    tile_count = tiles_x * tiles_y
    # A tiled capture is replayed against the combined workspace grid:
    # --rows/--cols describe one tile, the workspace multiplies them.
    pad = RFIPad(
        GridLayout(rows=args.rows * tiles_y, cols=args.cols * tiles_x)
    )
    pad.calibrate_from(load_log(static_path))
    print(f"replaying {args.path}: {len(log)} reads, metadata {meta}")
    if args.stream:
        from .sim.live import stream_log
        from .stream import StreamingSession, WorkspaceSession

        if tile_count > 1:
            session = WorkspaceSession(
                pad, tile_count=tile_count, provisional=args.provisional
            )
        else:
            session = StreamingSession(pad, provisional=args.provisional)
        for ev in stream_log(pad, log, args.chunk, session=session):
            _print_stream_events([ev])
        result = session.letter_result
        if result.letter is None and len(result.strokes) <= 1:
            obs = session.motion_result()
            print(f"motion: {obs.label if obs else '(nothing)'}")
        return 0
    result = pad.recognize_letter(log)
    if result.letter is not None or len(result.strokes) > 1:
        print(f"letter: {result.letter!r} (tokens {result.stroke_tokens})")
    else:
        obs = pad.detect_motion(log)
        print(f"motion: {obs.label if obs else '(nothing)'}")
    return 0


def _run_observed_battery(
    args: argparse.Namespace,
    repeats: int = 1,
    motions=None,
    workers: Optional[int] = None,
) -> SessionRunner:
    """The standard observed workload: motions + a letter + a streamed leg.

    Shared by ``stats``, ``top``, and ``serve-metrics --populate`` so
    every observability surface describes the same battery.
    """
    runner = _make_runner(args)  # calibration collect() is traced too
    battery = motions if motions is not None else all_motions()
    runner.run_motion_battery(battery, repeats, workers=workers)
    # One letter session exercises the letter path: multi-stroke
    # segmentation plus the tree-grammar composition stage.
    runner.run_letter("T")
    # And one streamed session exercises the online layer, so the
    # stream.* spans and the event-latency histogram show up too.
    from .sim.live import LiveDriver

    LiveDriver(runner, chunk_s=0.1).run_letter("H")
    return runner


def cmd_stats(args: argparse.Namespace) -> int:
    """Run a standard battery with full observability and print summaries."""
    tracer = get_tracer()
    metrics = get_metrics()
    tracer.enable()
    metrics.enable()
    repeats = 1 if args.fast else args.repeats
    _run_observed_battery(args, repeats=repeats, workers=args.workers)

    if args.prometheus:
        from .obs.export import to_prometheus

        sys.stdout.write(to_prometheus(metrics, tracer))
        return 0
    print("== span tree (count / total / mean / p95 per path) ==")
    print(tracer.render_tree())
    print()
    print("== metrics ==")
    print(metrics.render())
    return 0


def _load_cli_rules(path: str):
    """Load health rules for a CLI command (default set when no path)."""
    from .obs.health import default_rules, load_rules

    return load_rules(path) if path else default_rules()


def cmd_serve_metrics(args: argparse.Namespace) -> int:
    """Serve /metrics (Prometheus exposition) and /healthz over HTTP."""
    from .obs.export import make_metrics_server
    from .obs.health import HealthRuleError
    from .obs.telemetry import TelemetryHub

    try:
        rules = _load_cli_rules(args.rules)
    except HealthRuleError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    get_tracer().enable()
    get_metrics().enable()
    if args.populate:
        # A small battery so the endpoint has data before the first scrape.
        _run_observed_battery(args, motions=all_motions()[:3])
    hub = TelemetryHub(interval_s=args.interval)
    hub.start()
    server = make_metrics_server(
        port=args.port, rules=rules, hub=hub, max_requests=args.max_requests
    )
    host, port = server.server_address[:2]
    print(f"serving metrics on http://{host}:{port}/metrics "
          f"(health at /healthz)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        hub.stop(final_sample=False)
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live health view; ``--once`` prints a single frame and exits."""
    import threading
    import time as _time

    from .obs.health import (
        HealthRuleError,
        evaluate_rules,
        load_rules,
        render_status,
        worst_status,
    )
    from .obs.telemetry import TelemetryHub

    if args.validate_rules:
        try:
            rules = load_rules(args.validate_rules)
        except HealthRuleError as exc:
            print(f"repro: invalid health rules: {exc}", file=sys.stderr)
            return 2
        print(f"{args.validate_rules}: {len(rules)} health rule(s) ok")
        return 0
    try:
        rules = _load_cli_rules(args.rules)
    except HealthRuleError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2

    tracer, metrics = get_tracer(), get_metrics()
    tracer.enable()
    metrics.enable()
    hub = TelemetryHub(interval_s=args.interval)

    def frame():
        findings = evaluate_rules(rules, metrics=metrics, tracer=tracer, hub=hub)
        return render_status(metrics, tracer, findings, hub=hub), findings

    if args.once:
        _run_observed_battery(
            args, repeats=1 if args.fast else 3, workers=args.workers
        )
        hub.sample()
        text, findings = frame()
        print(text)
        return 1 if worst_status(findings) == "fail" else 0

    # Live mode: batteries repeat on a worker thread while the foreground
    # refreshes one frame per interval from the hub's sampled window.
    stop = threading.Event()

    def _work() -> None:
        while not stop.is_set():
            _run_observed_battery(args, repeats=1, workers=args.workers)

    worker = threading.Thread(target=_work, name="repro-top-battery", daemon=True)
    worker.start()
    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
    iterations = 0
    findings = []
    try:
        while not args.iterations or iterations < args.iterations:
            _time.sleep(args.interval)
            hub.sample()
            text, findings = frame()
            print(f"{clear}{text}\n", flush=True)
            iterations += 1
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
    return 1 if worst_status(findings) == "fail" else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-session serving hub until interrupted, then drain."""
    import asyncio
    import signal
    import threading

    from .obs.export import make_metrics_server
    from .obs.health import HealthRuleError
    from .obs.telemetry import TelemetryHub
    from .serve import HubConfig, SessionHub

    try:
        rules = _load_cli_rules(args.rules)
    except HealthRuleError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    get_metrics().enable()
    get_tracer().enable()
    tiles_x, tiles_y = _workspace_tiles(args)
    tile_count = tiles_x * tiles_y
    if tile_count > 1:
        # Calibrates the combined workspace pad every session shares.
        runner = _make_workspace_runner(args)
    else:
        runner = _make_runner(args)  # calibrates the pad every session shares
    try:
        config = HubConfig(
            host=args.host,
            port=args.port,
            max_pending=args.max_pending,
            drop_policy=args.drop_policy,
            batch_sessions=args.batch_sessions,
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    hub = SessionHub(
        runner.pad, config, scenario_meta=_scenario_metadata(args),
        tiles=tile_count,
    )

    tele = None
    http_server = None
    if args.metrics_port is not None:
        tele = TelemetryHub(interval_s=args.interval)
        tele.start()
        http_server = make_metrics_server(
            port=args.metrics_port, rules=rules, hub=tele
        )
        threading.Thread(
            target=http_server.serve_forever, name="repro-serve-scrape",
            daemon=True,
        ).start()
        mhost, mport = http_server.server_address[:2]
        print(f"metrics on http://{mhost}:{mport}/metrics", flush=True)

    async def _serve() -> None:
        await hub.start()
        host, port = hub.bound_address
        print(f"serving pad sessions on {host}:{port} "
              f"(policy {config.drop_policy}, max-pending {config.max_pending})",
              flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await stop.wait()
        print("draining open sessions...", flush=True)
        await hub.stop(drain=True)

    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(_serve())
    finally:
        loop.close()
        if http_server is not None:
            http_server.shutdown()
            http_server.server_close()
        if tele is not None:
            tele.stop(final_sample=False)
    print(f"served {hub.sessions_opened} session(s)")
    return 0


def _print_event_headers(headers) -> None:
    """Render the wire form of hub events (`repro feed`'s output)."""
    for h in headers:
        kind = h.get("kind")
        at = float(h.get("emitted_at", 0.0))
        if kind == "stroke":
            what = "stroke window" if h.get("final") else "stroke preview"
            print(f"[{at:7.3f}s] {what} {h.get('t0'):.3f}-{h.get('t1'):.3f}s "
                  f"-> {h.get('token') or '(no stroke)'}")
        else:
            tokens = tuple(h.get("tokens", ()))
            print(f"[{at:7.3f}s] letter: {h.get('letter')!r} (tokens {tokens})")


def cmd_feed(args: argparse.Namespace) -> int:
    """Stream a saved capture into a running hub; print the events."""
    import asyncio
    import os

    from .rfid.capture import load_log, load_metadata
    from .serve.client import ServeClient
    from .sim.live import iter_chunks

    log = load_log(args.path)
    meta = load_metadata(args.path)
    chunks = list(iter_chunks(log, args.chunk))
    delay = 0.0 if args.no_pace else args.chunk * args.time_scale
    sid = args.session or os.path.basename(args.path)
    print(f"feeding {args.path}: {len(log)} reads in {len(chunks)} chunks "
          f"as session {sid!r}")

    async def _run() -> int:
        client = await ServeClient.connect(args.host, args.port)
        try:
            handle, latency = await client.run_session(
                sid,
                chunks,
                meta={k: meta[k] for k in _SCENARIO_META_KEYS if k in meta},
                pace=[delay] * len(chunks) if delay > 0.0 else None,
                timeout=args.timeout,
            )
        except (ConnectionError, asyncio.TimeoutError, OSError) as exc:
            print(f"repro: error: feed failed: {exc}", file=sys.stderr)
            return 1
        finally:
            await client.close()
        for warning in handle.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        _print_event_headers(handle.events)
        if handle.dropped_chunks:
            print(f"hub shed {handle.dropped_chunks} chunk(s) "
                  f"({handle.dropped_reads} reads)", file=sys.stderr)
        print(f"letter: {handle.final_letter()!r} "
              f"(tail latency {latency * 1e3:.1f} ms)")
        return 0

    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(_run())
    finally:
        loop.close()


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive N synthetic writers against a hub and report what they saw."""
    import json

    from .serve.loadgen import run_loadgen_sync, session_logs

    runner = _make_runner(args)
    logs = session_logs(runner, args.letter, min(args.distinct, args.sessions))
    result = run_loadgen_sync(
        args.host,
        args.port,
        logs,
        sessions=args.sessions,
        concurrency=args.concurrency,
        chunk_s=args.chunk,
        time_scale=args.time_scale,
        pace=not args.no_pace,
        ramp_s=args.ramp,
        expected_letter=args.letter,
        meta=_scenario_metadata(args),
        session_timeout_s=args.timeout,
    )
    if args.json:
        print(json.dumps(result.as_dict(), sort_keys=True))
    else:
        print(f"{result.completed}/{result.sessions} sessions completed "
              f"({result.peak_concurrent} concurrent peak) in "
              f"{result.wall_s:.2f} s = {result.sessions_per_s:.1f} sessions/s")
        print(f"letter correct: {result.letters_expected}/{result.completed}; "
              f"dropped chunks: {result.dropped_chunks}")
        print(f"finalize-to-letter latency ms: p50 {result.event_p50_ms:.1f} "
              f"p95 {result.event_p95_ms:.1f} p99 {result.event_p99_ms:.1f}")
        for err in result.errors[:5]:
            print(f"  {err}", file=sys.stderr)
    return 0 if result.failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RFIPad reproduction: experiments and demos on a simulated pad",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--mount", choices=("nlos", "los"), default="nlos")
    parser.add_argument("--location", type=int, choices=(1, 2, 3, 4), default=2)
    parser.add_argument("--power", type=float, default=30.0, help="TX power, dBm")
    parser.add_argument(
        "--trace-out", default="",
        help="record all spans of this invocation to a JSONL file",
    )
    parser.add_argument(
        "--metrics-out", default="",
        help="sample the metric registries on an interval and write the "
             "time series to a JSONL file at exit",
    )
    parser.add_argument(
        "--metrics-interval", type=float, default=0.5,
        help="sampling interval in seconds for --metrics-out (default 0.5)",
    )
    parser.add_argument(
        "--log-level", default="warning",
        choices=("debug", "info", "warning", "error"),
        help="repro.* logger level (default: warning)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log records as JSON lines instead of plain text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list experiment ids")

    p_run = sub.add_parser("run", help="run experiments and print artefacts")
    p_run.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    p_run.add_argument("--full", action="store_true", help="paper-scale repeats")
    p_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan trial batteries out to N worker processes "
        "(default: serial, or REPRO_WORKERS)",
    )

    p_demo = sub.add_parser("demo", help="interactive-style demos")
    demo_sub = p_demo.add_subparsers(dest="demo", required=True)
    demo_sub.add_parser("motion", help="run the 13-motion battery")
    p_letter = demo_sub.add_parser("letter", help="write one letter")
    p_letter.add_argument("letter")
    p_word = demo_sub.add_parser("word", help="write a word")
    p_word.add_argument("word")
    p_word.add_argument("--lexicon", default="", help="comma-separated lexicon")

    p_inspect = sub.add_parser("inspect", help="signal views of one stroke session")
    p_inspect.add_argument(
        "--stroke", default="vbar",
        choices=[k.name.lower() for k in StrokeKind],
    )

    p_record = sub.add_parser("record", help="simulate + save a session capture")
    p_record.add_argument("path")
    p_record.add_argument("--letter", default="", help="record a letter session")
    p_record.add_argument(
        "--stroke", default="vbar",
        choices=[k.name.lower() for k in StrokeKind],
    )

    p_replay = sub.add_parser("replay", help="run the pipeline on a capture")
    p_replay.add_argument("path")
    p_replay.add_argument("--rows", type=int, default=5)
    p_replay.add_argument("--cols", type=int, default=5)
    p_replay.add_argument(
        "--stream", action="store_true",
        help="feed the capture chunk-by-chunk through a StreamingSession, "
             "printing events as stroke windows close",
    )
    p_replay.add_argument(
        "--chunk", type=float, default=0.1,
        help="streaming chunk length in seconds (default 0.1)",
    )
    p_replay.add_argument(
        "--provisional", action="store_true",
        help="with --stream: also print final=False previews of the "
             "still-forming stroke window and in-progress letter",
    )
    p_replay.add_argument(
        "--workspace", type=_parse_workspace, default=None, metavar="TXxTY",
        help="replay against a tiled workspace, e.g. 2x1; --rows/--cols "
             "describe one tile (default: single pad)",
    )

    p_live = sub.add_parser(
        "live",
        help="simulate a session and stream it chunk-by-chunk, printing "
             "stroke/letter events as they fire",
    )
    p_live.add_argument("--letter", default="", help="stream a letter session")
    p_live.add_argument(
        "--stroke", default="vbar",
        choices=[k.name.lower() for k in StrokeKind],
    )
    p_live.add_argument(
        "--chunk", type=float, default=0.1,
        help="chunk length in seconds (default 0.1)",
    )
    p_live.add_argument(
        "--provisional", action="store_true",
        help="also print final=False previews of the still-forming stroke "
             "window and in-progress letter",
    )
    p_live.add_argument(
        "--workspace", type=_parse_workspace, default=None, metavar="TXxTY",
        help="simulate a tiled workspace, e.g. 2x1, streaming per-tile "
             "chunks through the cross-pad stitching layer",
    )
    p_live.add_argument(
        "--dwell", type=float, default=0.05,
        help="with --workspace: per-tile antenna dwell in seconds "
             "(default 0.05)",
    )

    p_stats = sub.add_parser(
        "stats",
        help="run a standard motion+letter battery with tracing and metrics "
             "enabled, then print the aggregated span tree and metric summaries",
    )
    p_stats.add_argument("--fast", action="store_true",
                         help="single repeat per motion (smoke-test mode)")
    p_stats.add_argument("--repeats", type=int, default=3,
                         help="repeats per motion when not --fast (default 3)")
    p_stats.add_argument(
        "--prometheus", action="store_true",
        help="print the metrics in Prometheus text exposition format "
             "instead of the human-readable summaries",
    )
    p_stats.add_argument(
        "--workers", type=int, default=None,
        help="run the battery on N worker processes (telemetry is relayed "
             "back and merged, so the totals match a serial run)",
    )

    p_serve = sub.add_parser(
        "serve-metrics",
        help="expose /metrics (Prometheus text exposition) and /healthz "
             "(JSON health-rule findings) over HTTP",
    )
    p_serve.add_argument(
        "--port", type=int, default=9464,
        help="TCP port to bind on 127.0.0.1 (0 picks a free port; "
             "the bound address is printed at startup)",
    )
    p_serve.add_argument(
        "--max-requests", type=int, default=0,
        help="exit after N successful scrapes (0 = serve until interrupted)",
    )
    p_serve.add_argument(
        "--populate", action="store_true",
        help="run a small observed battery before serving so the first "
             "scrape already has data",
    )
    p_serve.add_argument(
        "--interval", type=float, default=1.0,
        help="telemetry-hub sampling interval in seconds (default 1.0)",
    )
    p_serve.add_argument(
        "--rules", default="",
        help="JSON health-rule file for /healthz (default: built-in rules)",
    )

    p_top = sub.add_parser(
        "top",
        help="live terminal health view: span p95s, read rate, stream "
             "gauges, and declarative health-rule findings; exits nonzero "
             "when a 'fail'-severity rule trips",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="run one observed battery, print a single frame, and exit",
    )
    p_top.add_argument("--fast", action="store_true",
                       help="single repeat per motion in --once mode")
    p_top.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh/sampling interval in seconds (default 1.0)",
    )
    p_top.add_argument(
        "--iterations", type=int, default=0,
        help="stop after N refreshes (0 = run until interrupted)",
    )
    p_top.add_argument(
        "--rules", default="",
        help="JSON health-rule file (default: built-in Fig. 24 budgets)",
    )
    p_top.add_argument(
        "--validate-rules", default="", metavar="PATH",
        help="validate a health-rule file and exit (nonzero if malformed)",
    )
    p_top.add_argument(
        "--workers", type=int, default=None,
        help="run the observed batteries on N worker processes",
    )

    p_hub = sub.add_parser(
        "serve",
        help="run the multi-session serving hub: concurrent pads over "
             "length-prefixed TCP framing with micro-batched analysis, "
             "bounded per-session queues, and graceful drain on SIGINT",
    )
    p_hub.add_argument("--host", default="127.0.0.1")
    p_hub.add_argument(
        "--port", type=int, default=9470,
        help="TCP port for pad sessions (0 picks a free port; the bound "
             "address is printed at startup)",
    )
    p_hub.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also expose /metrics + /healthz over HTTP on this port "
             "(0 picks a free port)",
    )
    p_hub.add_argument(
        "--workers", type=int, default=1,
        help="analysis worker threads (default 1)",
    )
    p_hub.add_argument(
        "--max-pending", type=int, default=64,
        help="bounded ingest queue: pending chunks per session (default 64)",
    )
    p_hub.add_argument(
        "--drop-policy", choices=("block", "oldest", "newest"),
        default="block",
        help="full-queue policy: block the connection (lossless, default) "
             "or shed the oldest/newest chunk (counted + reported)",
    )
    p_hub.add_argument(
        "--batch-sessions", type=int, default=32,
        help="max sessions coalesced into one analysis micro-batch",
    )
    p_hub.add_argument(
        "--interval", type=float, default=1.0,
        help="telemetry sampling interval for --metrics-port (default 1.0)",
    )
    p_hub.add_argument(
        "--rules", default="",
        help="JSON health-rule file for /healthz (default: built-in rules)",
    )
    p_hub.add_argument(
        "--workspace", type=_parse_workspace, default=None, metavar="TXxTY",
        help="serve tiled workspace sessions (e.g. 2x1): each tenant feeds "
             "N pad tiles over one connection via per-tile chunk routing",
    )
    p_hub.add_argument(
        "--dwell", type=float, default=0.05,
        help="per-tile reader dwell in seconds for --workspace (default 0.05)",
    )

    p_feed = sub.add_parser(
        "feed",
        help="stream a saved capture (see `record`) into a running serve "
             "hub and print the events it sends back",
    )
    p_feed.add_argument("path", help="capture file written by `repro record`")
    p_feed.add_argument("--host", default="127.0.0.1")
    p_feed.add_argument("--port", type=int, default=9470)
    p_feed.add_argument(
        "--session", default="",
        help="session id (default: the capture's file name)",
    )
    p_feed.add_argument(
        "--chunk", type=float, default=0.1,
        help="chunk length in seconds (default 0.1)",
    )
    p_feed.add_argument(
        "--time-scale", type=float, default=1.0,
        help="pace chunks at chunk*scale seconds apart (default 1.0 = "
             "real time)",
    )
    p_feed.add_argument(
        "--no-pace", action="store_true",
        help="send chunks as fast as the hub accepts them",
    )
    p_feed.add_argument(
        "--timeout", type=float, default=120.0,
        help="give up on the session after this many seconds",
    )

    p_load = sub.add_parser(
        "loadgen",
        help="drive N synthetic concurrent writers against a serve hub and "
             "report sessions/s plus finalize-to-letter latency percentiles",
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, default=9470)
    p_load.add_argument(
        "--sessions", type=int, default=50,
        help="total writer sessions to run (default 50)",
    )
    p_load.add_argument(
        "--concurrency", type=int, default=None,
        help="max simultaneous writers (default: all at once)",
    )
    p_load.add_argument(
        "--letter", default="T",
        help="letter every synthetic writer writes (default T)",
    )
    p_load.add_argument(
        "--distinct", type=int, default=8,
        help="distinct simulated session logs writers share round-robin",
    )
    p_load.add_argument(
        "--chunk", type=float, default=0.1,
        help="chunk length in seconds (default 0.1)",
    )
    p_load.add_argument(
        "--time-scale", type=float, default=1.0,
        help="pace chunks at chunk*scale seconds apart (default 1.0 = "
             "real time)",
    )
    p_load.add_argument(
        "--no-pace", action="store_true",
        help="send chunks as fast as the hub accepts them",
    )
    p_load.add_argument(
        "--ramp", type=float, default=0.0,
        help="stagger writer starts uniformly across this many seconds "
             "(writers are not phase-locked in real deployments)",
    )
    p_load.add_argument(
        "--timeout", type=float, default=120.0,
        help="per-session timeout in seconds (default 120)",
    )
    p_load.add_argument(
        "--json", action="store_true",
        help="print the result record as one JSON object",
    )
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "experiments":
        return cmd_experiments(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "demo":
        if args.demo == "motion":
            return cmd_demo_motion(args)
        if args.demo == "letter":
            return cmd_demo_letter(args)
        if args.demo == "word":
            return cmd_demo_word(args)
    if args.command == "inspect":
        return cmd_inspect(args)
    if args.command == "record":
        return cmd_record(args)
    if args.command == "replay":
        return cmd_replay(args)
    if args.command == "live":
        return cmd_live(args)
    if args.command == "stats":
        return cmd_stats(args)
    if args.command == "serve-metrics":
        return cmd_serve_metrics(args)
    if args.command == "top":
        return cmd_top(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "feed":
        return cmd_feed(args)
    if args.command == "loadgen":
        return cmd_loadgen(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def _check_writable(path: str, what: str) -> bool:
    # Fail fast: exports run after the command, and a long run that ends
    # in an unwritable path would silently lose the whole recording.
    try:
        with open(path, "w", encoding="utf-8"):
            pass
    except OSError as exc:
        print(f"repro: error: cannot write {what} to {path}: {exc}",
              file=sys.stderr)
        return False
    return True


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json=args.log_json)
    if args.trace_out:
        if not _check_writable(args.trace_out, "trace"):
            return 2
        get_tracer().enable()
    hub = None
    if args.metrics_out:
        from .obs.telemetry import TelemetryHub

        if not _check_writable(args.metrics_out, "metrics"):
            return 2
        get_metrics().enable()
        hub = TelemetryHub(interval_s=args.metrics_interval)
        hub.start()
    try:
        return _dispatch(args)
    except KeyboardInterrupt:
        # ^C is a normal way to leave `live`, `replay --stream`, `serve`,
        # and `top`: no traceback, but the finally below still stops the
        # telemetry sampler thread and the warmed worker pools, so the
        # process exits cleanly instead of hanging on non-daemon threads.
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if hub is not None:
            hub.stop(final_sample=True)
            count = hub.export_jsonl(args.metrics_out)
            print(f"wrote {count} metric samples to {args.metrics_out}",
                  file=sys.stderr)
        if args.trace_out:
            count = get_tracer().export_jsonl(args.trace_out)
            print(f"wrote {count} spans to {args.trace_out}", file=sys.stderr)
        from .sim.parallel import shutdown_pools

        shutdown_pools()


if __name__ == "__main__":
    raise SystemExit(main())
