"""Live-feed driver: replay collected report streams chunk-by-chunk.

The simulator's :meth:`Reader.collect` hands back a complete session log;
real deployments instead receive LLRP report batches every few tens of
milliseconds.  This module bridges the two: :func:`iter_chunks` slices a
log along the wall clock, and :class:`LiveDriver` feeds those slices into
a :class:`repro.stream.StreamingSession` — so the streaming stack is
exercised with exactly the traffic shape a live reader produces, while
staying deterministic and comparable to the batch path on the same log.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from ..core.pipeline import RFIPad
from ..motion.script import WritingScript, script_for_letter, script_for_motion
from ..motion.strokes import Motion
from ..rfid.reports import ReportLog
from ..stream import StreamEvent, StreamingSession
from .runner import SessionRunner

__all__ = ["LiveDriver", "iter_chunks", "stream_log"]


def iter_chunks(log: ReportLog, chunk_s: float = 0.1) -> Iterator[ReportLog]:
    """Slice a collected log into contiguous ``chunk_s`` report batches.

    Chunks are zero-copy time-slice views covering ``[start, end]``;
    quiet intervals yield empty chunks (a live reader's report timer
    fires whether or not tags answered), so consumers see realistic
    pacing gaps too.
    """
    if chunk_s <= 0.0:
        raise ValueError("chunk length must be positive")
    if len(log) == 0:
        return
    start = log.start_time
    t_end = log.end_time
    while start <= t_end:
        yield log.slice_time(start, start + chunk_s)
        start += chunk_s


def stream_log(
    pad: RFIPad,
    log: ReportLog,
    chunk_s: float = 0.1,
    session: Optional[StreamingSession] = None,
) -> Iterable[StreamEvent]:
    """Run a whole log through a streaming session, yielding events live.

    Events surface as soon as their chunk closes them — iterate to react
    per-stroke; the final item is always the finalizing
    :class:`~repro.stream.LetterEvent`.  ``session`` defaults to a fresh
    ``StreamingSession(pad)``; one built with ``provisional=True``
    additionally yields ``final=False`` previews of the still-forming
    window and its in-progress letter composition.
    """
    if session is None:
        session = StreamingSession(pad)
    for chunk in iter_chunks(log, chunk_s):
        yield from session.ingest(chunk)
    yield from session.finalize()


class LiveDriver:
    """Feed simulated sessions through the streaming stack.

    Binds a :class:`SessionRunner` (scenario + reader + calibrated pad)
    and replays each collected session chunk-by-chunk.  The returned
    session exposes the event list, the per-window strokes, and the
    letter/motion results — byte-for-byte what the batch pipeline computes
    on the same log (see the equivalence contract in ``repro.stream``).
    """

    def __init__(
        self,
        runner: SessionRunner,
        chunk_s: float = 0.1,
        provisional: bool = False,
    ) -> None:
        self.runner = runner
        self.chunk_s = chunk_s
        self.provisional = provisional

    def run_script(self, script: WritingScript) -> StreamingSession:
        """Collect one session and stream it; returns the finished session."""
        log = self.runner.run_script(script)
        session = StreamingSession(self.runner.pad, provisional=self.provisional)
        for _ in stream_log(
            self.runner.pad, log, self.chunk_s, session=session
        ):
            pass
        return session

    def run_letter(self, letter: str) -> StreamingSession:
        return self.run_script(script_for_letter(letter, self.runner.rng))

    def run_motion(self, motion: Motion) -> StreamingSession:
        return self.run_script(script_for_motion(motion, self.runner.rng))
