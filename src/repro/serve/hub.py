"""Async multi-session serving hub: thousands of pads behind one engine.

:class:`SessionHub` lifts :class:`~repro.stream.StreamingSession` from a
single-tenant library into a service: an asyncio socket server
multiplexes many concurrent writing sessions (one
:class:`StreamingSession` each) over the length-prefixed framing of
:mod:`repro.serve.framing`, while **all numpy work stays off the event
loop** — the loop only parses frames, enforces queue policy, and ships
events back; analysis runs on a small warmed worker tier.

Serving contract (DESIGN.md §14)
--------------------------------
* **Ordering**: per session, chunks are analysed in arrival order and
  events are delivered in emission order.  Sessions are independent.
* **Micro-batching**: a dispatcher drains every session's pending chunks
  in one go (chunk *coalescing*) and analyses up to
  ``batch_sessions`` sessions per worker hand-off.  Both are pure
  scheduling: the streaming layer's chunking-invariance contract
  (DESIGN.md §11) guarantees the finalized event stream of a session is
  bit-identical to batch no matter how its chunks were coalesced, so
  batching buys amortization without touching correctness.
* **Backpressure & drop policy**: each session's ingest queue is bounded
  (``max_pending`` chunks).  Policy ``block`` (default) suspends reading
  the producing connection until the dispatcher catches up — lossless,
  TCP pushes back on the writer.  ``oldest`` / ``newest`` shed load
  instead, counting every shed chunk (labeled
  ``serve.dropped_chunks{policy=...}``) and notifying the client with a
  ``dropped`` frame.  A session that dropped chunks forfeits bit-identity
  (documented, counted, never silent).
* **Graceful drain**: ``stop(drain=True)`` stops accepting, finalizes
  every open session (flushing tail windows and the letter composition),
  delivers the remaining events plus a ``shutdown`` notice, then tears
  the worker tier down.

The worker tier is a *thread* pool: sessions are stateful (segmenter +
retention buffer), numpy releases the GIL across the heavy kernels, and
threads keep session affinity free.  The process-pool machinery of
:mod:`repro.sim.parallel` stays the right tool for stateless trial
batteries; its columnar transport idea is reused here at the framing
layer instead (see :func:`repro.serve.framing.chunk_message`).
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.pipeline import RFIPad
from ..obs.log import get_logger
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from ..rfid.reports import ReportLog
from ..stream import (
    LetterEvent,
    StreamEvent,
    StreamingSession,
    StrokeEvent,
    WorkspaceSession,
)
from .framing import (
    FrameDecoder,
    FramingError,
    decode_chunk,
    encode_frame,
    t_hi_of,
    tile_of,
)

__all__ = ["BackgroundHub", "DROP_POLICIES", "HubConfig", "LocalFeed", "SessionHub"]

DROP_POLICIES = ("block", "oldest", "newest")

#: Keys of the scenario identity compared between a client's ``hello``
#: metadata and the hub's own scenario (mirrors ``repro replay``).
SCENARIO_KEYS = ("seed", "mount", "location", "tx_power_dbm")


@dataclass
class HubConfig:
    """Tunables of one hub instance (all enforced per session)."""

    host: str = "127.0.0.1"
    port: int = 9470
    #: Bounded ingest queue: pending (not yet analysed) chunks per session.
    max_pending: int = 64
    #: What to do when a session's queue is full: "block" | "oldest" | "newest".
    drop_policy: str = "block"
    #: Max sessions coalesced into one worker hand-off.
    batch_sessions: int = 32
    #: Analysis worker threads (1 is right for a 1-core container).
    workers: int = 1
    #: Per-session labeled stream gauges (cleaned up at session close).
    label_sessions: bool = True
    #: Drain budget for stop(): seconds to finish open sessions.
    drain_timeout_s: float = 30.0
    #: Fault-injection knob for the policy tests: every analysis batch
    #: sleeps this long, so tests can force queue growth deterministically.
    analysis_stall_s: float = 0.0

    def __post_init__(self) -> None:
        if self.drop_policy not in DROP_POLICIES:
            raise ValueError(
                f"drop_policy must be one of {DROP_POLICIES}, "
                f"got {self.drop_policy!r}"
            )
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.batch_sessions < 1:
            raise ValueError("batch_sessions must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


class _HubSession:
    """Hub-side state of one tenant session."""

    __slots__ = (
        "sid", "stream", "pending", "pending_reads", "finalize_pending",
        "finalize_wall", "in_flight", "queued", "done", "aborted", "gate",
        "sender", "writer", "dropped_chunks",
    )

    def __init__(
        self,
        sid: str,
        stream: "StreamingSession | WorkspaceSession",
        sender: Callable[["_HubSession", List[StreamEvent], bool], None],
        writer: Optional[asyncio.StreamWriter],
    ) -> None:
        self.sid = sid
        self.stream = stream
        #: Pending chunks: (enqueue_wall, (ts, tag, phase, rss, dopp),
        #: epcs, port, tile, t_hi) — tile/t_hi are None for single-pad
        #: tenants.
        self.pending: List[
            Tuple[float, tuple, List[str], int, Optional[int], Optional[float]]
        ] = []
        self.pending_reads = 0
        self.finalize_pending = False
        self.finalize_wall: Optional[float] = None
        self.in_flight = False
        self.queued = False
        self.done = False
        self.aborted = False
        self.gate = asyncio.Event()
        self.gate.set()
        self.sender = sender
        self.writer = writer
        self.dropped_chunks = 0


class SessionHub:
    """Multiplex many concurrent streaming sessions over one engine.

    Parameters
    ----------
    pad:
        The calibrated :class:`RFIPad` every session runs against (the
        per-session :class:`StreamingSession` snapshots its stage set).
    config:
        :class:`HubConfig` tunables.
    scenario_meta:
        Optional scenario identity dict; compared against each client's
        ``hello`` metadata, mismatches are returned as warnings in the
        ``welcome`` frame (a session recorded on a different rig will be
        scored against the wrong calibration).
    tiles:
        Tile count of the workspace the hub's pad was calibrated against
        (1 = ordinary single-pad hub).  When > 1, every session is a
        :class:`~repro.stream.WorkspaceSession` and tenants may route
        per-tile chunk streams via the ``tile``/``t_hi`` header keys of
        :func:`~repro.serve.framing.chunk_message`.
    """

    def __init__(
        self,
        pad: RFIPad,
        config: Optional[HubConfig] = None,
        scenario_meta: Optional[Dict[str, object]] = None,
        tiles: int = 1,
    ) -> None:
        if tiles < 1:
            raise ValueError("tiles must be >= 1")
        self.pad = pad
        self.tiles = tiles
        self.config = config if config is not None else HubConfig()
        self.scenario_meta = dict(scenario_meta) if scenario_meta else None
        self._log = get_logger("serve.hub")
        self._sessions: Dict[str, _HubSession] = {}
        self._sessions_opened = 0
        self._queue_depth = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatchers: List[asyncio.Task] = []
        self._ready: Optional[asyncio.Queue] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = False
        self._started = False

    # -- lifecycle -----------------------------------------------------

    async def start(self, serve_network: bool = True) -> None:
        """Warm the worker tier, start dispatchers, optionally bind."""
        if self._started:
            raise RuntimeError("hub already started")
        self._started = True
        cfg = self.config
        self._loop = asyncio.get_running_loop()
        self._ready = asyncio.Queue()
        self._pool = ThreadPoolExecutor(
            max_workers=cfg.workers, thread_name_prefix="repro-serve"
        )
        # Warm every worker thread once: thread creation, the stage
        # objects' first-touch allocations, and the grammar's empty run
        # all happen before the first tenant's chunk, not during it.
        await asyncio.gather(
            *[
                self._loop.run_in_executor(self._pool, self._warm_worker)
                for _ in range(cfg.workers)
            ]
        )
        self._dispatchers = [
            asyncio.ensure_future(self._dispatch_loop())
            for _ in range(cfg.workers)
        ]
        if serve_network:
            self._server = await asyncio.start_server(
                self._on_connection, host=cfg.host, port=cfg.port
            )

    def _warm_worker(self) -> None:
        session = StreamingSession(self.pad)
        session.ingest(ReportLog())
        session.finalize()

    @property
    def bound_address(self) -> Tuple[str, int]:
        """The listening ``(host, port)`` (resolves ``port=0`` bindings)."""
        if self._server is None:
            raise RuntimeError("hub is not serving a network endpoint")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def open_sessions(self) -> int:
        return len(self._sessions)

    @property
    def sessions_opened(self) -> int:
        """Total sessions ever accepted (monotonic)."""
        return self._sessions_opened

    @property
    def queue_depth(self) -> int:
        """Pending (accepted, not yet analysed) chunks across all sessions."""
        return self._queue_depth

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting; optionally drain and finalize open sessions."""
        if not self._started:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain:
            for sess in list(self._sessions.values()):
                if not sess.done and not sess.finalize_pending:
                    self.request_finalize(sess)
            deadline = time.monotonic() + self.config.drain_timeout_s
            while self._sessions and time.monotonic() < deadline:
                await asyncio.sleep(0.005)
            if self._sessions:
                self._log.warning(
                    "drain timed out with %d session(s) open", len(self._sessions)
                )
                for sess in list(self._sessions.values()):
                    self._abort_session(sess)
        else:
            for sess in list(self._sessions.values()):
                self._abort_session(sess)
        assert self._ready is not None
        for _ in self._dispatchers:
            self._ready.put_nowait(None)
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._dispatchers = []
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._started = False
        self._stopping = False

    # -- session management --------------------------------------------

    def open_session(
        self,
        sid: str,
        sender: Callable[["_HubSession", List[StreamEvent], bool], None],
        writer: Optional[asyncio.StreamWriter] = None,
    ) -> _HubSession:
        if self._stopping:
            raise RuntimeError("hub is draining; not accepting sessions")
        if sid in self._sessions:
            raise ValueError(f"session {sid!r} is already open")
        label = sid if self.config.label_sessions else None
        if self.tiles > 1:
            stream: "StreamingSession | WorkspaceSession" = WorkspaceSession(
                self.pad, tile_count=self.tiles, session_id=label
            )
        else:
            stream = StreamingSession(self.pad, session_id=label)
        sess = _HubSession(sid, stream, sender, writer)
        self._sessions[sid] = sess
        self._sessions_opened += 1
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("serve.sessions_opened")
            metrics.set_gauge("serve.sessions_open", float(len(self._sessions)))
        return sess

    async def submit_chunk(
        self,
        sess: _HubSession,
        columns: tuple,
        epcs: List[str],
        port: int,
        tile: Optional[int] = None,
        t_hi: Optional[float] = None,
    ) -> bool:
        """Enqueue one decoded chunk under the session's queue policy.

        Returns ``False`` when the chunk (or an older one) was shed by a
        drop policy; ``True`` when the chunk was accepted losslessly.
        Under ``block`` this coroutine suspends until the dispatcher has
        made room — the caller (a connection reader) therefore stops
        consuming its socket, which is the backpressure.
        """
        if sess.done or sess.finalize_pending:
            raise FramingError(f"session {sess.sid!r} is already finalized")
        cfg = self.config
        metrics = get_metrics()
        accepted = True
        while len(sess.pending) >= cfg.max_pending:
            if cfg.drop_policy == "block":
                if metrics.enabled:
                    metrics.inc("serve.backpressure_waits")
                    metrics.inc(
                        "serve.backpressure_waits", labels={"policy": "block"}
                    )
                sess.gate.clear()
                await sess.gate.wait()
                if sess.done or sess.aborted:
                    return False
                continue
            if cfg.drop_policy == "oldest":
                wall, cols, *_rest = sess.pending.pop(0)
                shed_reads = int(cols[0].size)
                sess.pending_reads -= shed_reads
                self._queue_depth -= 1
            else:  # newest: shed the incoming chunk itself
                shed_reads = int(columns[0].size)
                accepted = False
            sess.dropped_chunks += 1
            self._note_drop(sess, shed_reads)
            if not accepted:
                return False
            break
        rows = int(columns[0].size)
        sess.pending.append((time.monotonic(), columns, epcs, port, tile, t_hi))
        sess.pending_reads += rows
        self._queue_depth += 1
        if metrics.enabled:
            metrics.inc("serve.chunks")
            metrics.inc("serve.reads", float(rows))
            metrics.set_gauge("serve.queue_depth", float(self._queue_depth))
        self._enqueue_ready(sess)
        return accepted

    def request_finalize(self, sess: _HubSession) -> None:
        """Mark the session's stream ended; the tail flush is queued."""
        if sess.done or sess.finalize_pending:
            return
        sess.finalize_pending = True
        sess.finalize_wall = time.monotonic()
        self._enqueue_ready(sess)

    def _note_drop(self, sess: _HubSession, reads: int) -> None:
        policy = self.config.drop_policy
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("serve.dropped_chunks")
            metrics.inc("serve.dropped_chunks", labels={"policy": policy})
            metrics.inc("serve.dropped_reads", float(reads))
        if sess.writer is not None and not sess.writer.is_closing():
            sess.writer.write(
                encode_frame(
                    {
                        "type": "dropped",
                        "session": sess.sid,
                        "reads": reads,
                        "policy": policy,
                    }
                )
            )

    def _enqueue_ready(self, sess: _HubSession) -> None:
        if sess.queued or sess.in_flight or sess.done:
            return
        sess.queued = True
        assert self._ready is not None
        self._ready.put_nowait(sess)

    def _abort_session(self, sess: _HubSession) -> None:
        """Tear a session down without finalizing (peer vanished)."""
        if sess.done:
            return
        sess.aborted = True
        sess.done = True
        sess.gate.set()
        self._queue_depth -= len(sess.pending)
        sess.pending = []
        sess.pending_reads = 0
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("serve.sessions_aborted")
        self._forget_session(sess)

    def _forget_session(self, sess: _HubSession) -> None:
        self._sessions.pop(sess.sid, None)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("serve.sessions_closed")
            metrics.set_gauge("serve.sessions_open", float(len(self._sessions)))
            metrics.set_gauge("serve.queue_depth", float(self._queue_depth))
            if self.config.label_sessions:
                metrics.remove_labeled({"session": sess.sid})

    # -- the dispatcher ------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Micro-batching pump: coalesce pending work, hand to a worker.

        Waits for one ready session, then opportunistically drains every
        other session that became ready in the meantime (up to
        ``batch_sessions``) — so under load, one executor hand-off
        amortizes across many tenants, and when idle, latency is one
        queue wake-up.
        """
        assert self._ready is not None and self._loop is not None
        cfg = self.config
        metrics = get_metrics()
        while True:
            sess = await self._ready.get()
            if sess is None:
                return
            batch = [sess]
            while len(batch) < cfg.batch_sessions:
                try:
                    nxt = self._ready.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    self._ready.put_nowait(None)
                    break
                batch.append(nxt)
            jobs = []
            for s in batch:
                s.queued = False
                if s.done:
                    continue
                s.in_flight = True
                chunks, finalize = s.pending, s.finalize_pending
                s.pending = []
                s.pending_reads = 0
                s.finalize_pending = False
                self._queue_depth -= len(chunks)
                jobs.append((s, chunks, finalize))
                s.gate.set()  # room freed: release blocked producers
            if not jobs:
                continue
            if metrics.enabled:
                metrics.set_gauge("serve.queue_depth", float(self._queue_depth))
                metrics.inc("serve.batches")
                metrics.observe("serve.batch_sessions", float(len(jobs)))
            results = await self._loop.run_in_executor(
                self._pool, self._analyze_batch, jobs
            )
            writers = []
            for s, events, finalized in results:
                s.in_flight = False
                if s.aborted:
                    continue
                try:
                    s.sender(s, events, finalized)
                except Exception:  # pragma: no cover - peer went away mid-send
                    self._abort_session(s)
                    continue
                if s.writer is not None and not s.writer.is_closing():
                    writers.append(s.writer)
                if finalized:
                    s.done = True
                    s.gate.set()
                    self._forget_session(s)
                elif s.pending or s.finalize_pending:
                    self._enqueue_ready(s)
            for writer in writers:
                try:
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                    pass

    def _analyze_batch(
        self, jobs: Sequence[Tuple[_HubSession, list, bool]]
    ) -> List[Tuple[_HubSession, List[StreamEvent], bool]]:
        """Worker-side: run the numpy stages for one micro-batch.

        Each single-pad session's pending chunks are coalesced into
        **one** ingest call — legal because the finalized stream is
        chunking-invariant — which amortizes the per-ingest
        segmenter/stage dispatch across everything that queued since the
        session was last served.  Workspace sessions are instead ingested
        chunk-by-chunk in arrival order: each chunk routes to its tile's
        watermark merge, which does its own buffering, so coalescing
        across tiles would reorder the per-tile streams for nothing.
        """
        cfg = self.config
        metrics = get_metrics()
        tracer = get_tracer()
        if cfg.analysis_stall_s > 0.0:
            time.sleep(cfg.analysis_stall_s)
        out: List[Tuple[_HubSession, List[StreamEvent], bool]] = []
        with tracer.span("serve.batch", sessions=len(jobs)) as sp:
            total_reads = 0
            for sess, chunks, finalize in jobs:
                events: List[StreamEvent] = []
                oldest_wall: Optional[float] = None
                try:
                    if chunks and isinstance(sess.stream, WorkspaceSession):
                        oldest_wall = chunks[0][0]
                        for _, cols, epcs, port, tile, t_hi in chunks:
                            log = ReportLog()
                            if cols[0].size:
                                log.extend_columns(*cols, epcs, antenna_port=port)
                            total_reads += int(cols[0].size)
                            if tile is not None:
                                events.extend(
                                    sess.stream.ingest_tile(tile, log, t_hi=t_hi)
                                )
                            else:
                                events.extend(sess.stream.ingest(log))
                    elif chunks:
                        oldest_wall = chunks[0][0]
                        coalesced = ReportLog()
                        for _, cols, epcs, port, _tile, _t_hi in chunks:
                            if cols[0].size:
                                coalesced.extend_columns(
                                    *cols, epcs, antenna_port=port
                                )
                            total_reads += int(cols[0].size)
                        events.extend(sess.stream.ingest(coalesced))
                    if finalize:
                        if oldest_wall is None:
                            oldest_wall = sess.finalize_wall
                        events.extend(sess.stream.finalize())
                except Exception:
                    # A poisoned session must not take the batch (or the
                    # dispatcher) down with it.
                    self._log.exception(
                        "session %s: analysis failed; aborting it", sess.sid
                    )
                    sess.aborted = True
                    events, finalize = [], True
                if metrics.enabled and events and oldest_wall is not None:
                    lag = max(0.0, time.monotonic() - oldest_wall)
                    for ev in events:
                        if ev.final:
                            metrics.observe("serve.event_latency_s", lag)
                out.append((sess, events, finalize))
            sp.set(reads=total_reads)
        return out

    # -- network layer -------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn_sessions: Dict[str, _HubSession] = {}
        decoder = FrameDecoder()
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("serve.connections")
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for header, payload in decoder.feed(data):
                    await self._handle_message(
                        conn_sessions, writer, header, payload
                    )
        except FramingError as exc:
            self._send_error(writer, str(exc))
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            for sess in conn_sessions.values():
                if not sess.done:
                    self._abort_session(sess)
            writer.close()

    async def _handle_message(
        self,
        conn_sessions: Dict[str, _HubSession],
        writer: asyncio.StreamWriter,
        header: Dict[str, object],
        payload: bytes,
    ) -> None:
        mtype = header.get("type")
        if mtype == "hello":
            sid = header.get("session")
            if not sid:
                raise FramingError("hello is missing a session id")
            sid = str(sid)
            try:
                sess = self.open_session(
                    sid, self._network_sender, writer=writer
                )
            except (RuntimeError, ValueError) as exc:
                self._send_error(writer, str(exc), session=sid)
                return
            conn_sessions[sid] = sess
            welcome: Dict[str, object] = {"type": "welcome", "session": sid}
            warnings = self._scenario_warnings(header.get("meta"))
            if warnings:
                welcome["warnings"] = warnings
            writer.write(encode_frame(welcome))
            return
        if mtype == "chunk":
            sess = self._resolve(conn_sessions, header)
            columns_epcs = decode_chunk(header, payload)
            ts, tag, phase, rss, dopp, epcs, port = columns_epcs
            await self.submit_chunk(
                sess, (ts, tag, phase, rss, dopp), epcs, port,
                tile=tile_of(header), t_hi=t_hi_of(header),
            )
            return
        if mtype == "finalize":
            sess = self._resolve(conn_sessions, header)
            self.request_finalize(sess)
            return
        raise FramingError(f"unknown message type {mtype!r}")

    def _resolve(
        self, conn_sessions: Dict[str, _HubSession], header: Dict[str, object]
    ) -> _HubSession:
        sid = header.get("session")
        sess = conn_sessions.get(str(sid)) if sid is not None else None
        if sess is None:
            raise FramingError(f"message references unknown session {sid!r}")
        if sess.done:
            raise FramingError(f"session {sid!r} is already closed")
        return sess

    def _scenario_warnings(self, meta: object) -> List[str]:
        if not isinstance(meta, dict) or self.scenario_meta is None:
            return []
        warnings = []
        for key in SCENARIO_KEYS:
            if key in meta and meta[key] != self.scenario_meta.get(key):
                warnings.append(
                    f"scenario {key} mismatch: session {meta[key]!r} vs "
                    f"hub {self.scenario_meta.get(key)!r}"
                )
        for w in warnings:
            self._log.warning("%s", w)
        return warnings

    def _network_sender(
        self, sess: _HubSession, events: List[StreamEvent], finalized: bool
    ) -> None:
        writer = sess.writer
        if writer is None or writer.is_closing():
            if not finalized:
                self._abort_session(sess)
            return
        for ev in events:
            writer.write(encode_frame(event_header(sess.sid, ev)))
        if finalized:
            writer.write(encode_frame({"type": "done", "session": sess.sid}))
            if self._stopping:
                writer.write(
                    encode_frame({"type": "shutdown", "session": sess.sid})
                )

    @staticmethod
    def _send_error(
        writer: asyncio.StreamWriter, message: str, session: Optional[str] = None
    ) -> None:
        if writer.is_closing():
            return
        header: Dict[str, object] = {"type": "error", "message": message}
        if session is not None:
            header["session"] = session
        writer.write(encode_frame(header))


def event_header(sid: str, ev: StreamEvent) -> Dict[str, object]:
    """The wire form of one stream event (lossy: labels, not arrays)."""
    if isinstance(ev, StrokeEvent):
        return {
            "type": "event",
            "session": sid,
            "kind": "stroke",
            "final": ev.final,
            "t0": ev.window.t0,
            "t1": ev.window.t1,
            "emitted_at": ev.emitted_at,
            "token": ev.stroke.token if ev.stroke is not None else None,
        }
    assert isinstance(ev, LetterEvent)
    return {
        "type": "event",
        "session": sid,
        "kind": "letter",
        "final": ev.final,
        "letter": ev.result.letter,
        "tokens": list(ev.result.stroke_tokens),
        "emitted_at": ev.emitted_at,
    }


# ----------------------------------------------------------------------
# In-process tenants (tests, benchmarks, embedded use).


class LocalFeed:
    """Drive one hub session in-process, skipping the socket layer.

    Exercises the same queue policy, dispatcher, coalescing, and worker
    tier as a network tenant — only the framing codec is bypassed — so
    the golden-stream equivalence tests can compare the hub's full event
    objects (numpy maps included) against the batch pipeline.
    """

    def __init__(self, hub: SessionHub, sid: str) -> None:
        self._hub = hub
        self.events: List[StreamEvent] = []
        self._done = asyncio.Event()
        self.session = hub.open_session(sid, self._collect)

    def _collect(
        self, sess: _HubSession, events: List[StreamEvent], finalized: bool
    ) -> None:
        self.events.extend(events)
        if finalized:
            self._done.set()

    async def feed(self, chunk: ReportLog) -> bool:
        """Submit one chunk (any chunking); see :meth:`SessionHub.submit_chunk`."""
        ts, tag, phase, rss, dopp, port, epc = chunk.columns()
        return await self._hub.submit_chunk(
            self.session,
            (ts, tag, phase, rss, dopp),
            list(epc),
            int(port[0]) if port.size else 1,
        )

    async def feed_tile(
        self, chunk: ReportLog, tile: int, t_hi: Optional[float] = None
    ) -> bool:
        """Submit one tile's chunk to a workspace-bound hub session."""
        ts, tag, phase, rss, dopp, port, epc = chunk.columns()
        return await self._hub.submit_chunk(
            self.session,
            (ts, tag, phase, rss, dopp),
            list(epc),
            int(port[0]) if port.size else 1,
            tile=tile,
            t_hi=t_hi,
        )

    async def finalize(self) -> List[StreamEvent]:
        """End the stream and wait for every remaining event."""
        self._hub.request_finalize(self.session)
        await self._done.wait()
        return list(self.events)


# ----------------------------------------------------------------------
# Running a hub off-thread (benchmarks, tests, `loadgen --self-serve`).


class BackgroundHub:
    """Run a :class:`SessionHub` on its own event loop in a daemon thread.

    The constructor blocks until the hub is listening; :attr:`address`
    then carries the bound ``(host, port)``.  :meth:`stop` drains
    gracefully and joins the thread.
    """

    def __init__(
        self,
        pad: RFIPad,
        config: Optional[HubConfig] = None,
        scenario_meta: Optional[Dict[str, object]] = None,
        tiles: int = 1,
    ) -> None:
        self.hub = SessionHub(
            pad, config=config, scenario_meta=scenario_meta, tiles=tiles
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self.address: Optional[Tuple[str, int]] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-hub", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._failure is not None:
            raise RuntimeError("hub failed to start") from self._failure
        if self.address is None:
            raise RuntimeError("hub did not come up within 30 s")

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        stop = asyncio.Event()
        self._stop_event = stop

        async def _main() -> None:
            try:
                await self.hub.start()
                self.address = self.hub.bound_address
            except BaseException as exc:  # pragma: no cover - startup failure
                self._failure = exc
                self._ready.set()
                return
            self._ready.set()
            await stop.wait()
            await self.hub.stop(drain=True)

        try:
            loop.run_until_complete(_main())
        finally:
            loop.close()

    def stop(self) -> None:
        """Drain the hub and stop the background loop (idempotent)."""
        loop = self._loop
        if loop is None or not self._thread.is_alive():
            return
        loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=60.0)
