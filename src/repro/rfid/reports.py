"""The reader's data plane: per-read reports and the report log.

This mirrors what an LLRP client sees from an Impinj-class reader with the
low-level user data extension enabled (paper section IV-A): a stream of
``(EPC, antenna, timestamp, RSS, phase, Doppler)`` records.  RFIPad's whole
pipeline consumes nothing but this stream, which is what makes the
simulation substitution faithful: the algorithm cannot tell a simulated
stream from a captured one.

``ReportLog`` is stored column-wise (struct-of-arrays): one numpy array per
field, so ``slice_time`` is a pair of ``searchsorted`` calls returning
array *views* and ``per_tag`` is a boolean-mask split — no per-row Python
objects are materialized on the hot path.  ``TagReadReport`` remains the
row type: indexing or iterating a log builds the dataclass lazily, with
plain Python ``int``/``float`` fields so the record/replay capture format
(``json.dumps(asdict(report))``) is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np


@dataclass(frozen=True)
class TagReadReport:
    """One successful singulation, as reported over LLRP."""

    epc: str
    tag_index: int          # flat array index; -1 for tags outside the pad
    timestamp: float        # seconds since session start
    phase_rad: float        # wrapped [0, 2*pi), quantised
    rss_dbm: float          # quantised
    doppler_hz: float = 0.0
    antenna_port: int = 1


@dataclass
class TagSeries:
    """All reads of one tag, in time order, unpacked into numpy arrays."""

    tag_index: int
    epc: str
    timestamps: np.ndarray
    phases: np.ndarray
    rss: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)

    def slice_time(self, t0: float, t1: float) -> "TagSeries":
        """Sub-series with t0 <= timestamp < t1."""
        lo = int(np.searchsorted(self.timestamps, t0, side="left"))
        hi = int(np.searchsorted(self.timestamps, t1, side="left"))
        return TagSeries(
            self.tag_index,
            self.epc,
            self.timestamps[lo:hi],
            self.phases[lo:hi],
            self.rss[lo:hi],
        )


#: Column dtypes, in ``columns()`` order: ts, tag, phase, rss, doppler,
#: antenna port, EPC.
_DTYPES = (float, np.int64, float, float, float, np.int64, object)
_EMPTY = tuple(np.empty(0, dtype=dt) for dt in _DTYPES)
#: Smallest buffer a log grows or compacts into, in reads: below this a
#: rolling log (a stream buffer, a watermark merge) would reallocate on
#: nearly every chunk.
_MIN_CAPACITY = 256


class ReportLog:
    """An append-only, time-ordered log of tag read reports.

    Provides the two views the pipeline needs: the raw interleaved stream
    (for segmentation, which frames by wall-clock time) and per-tag series
    (for calibration, imaging, and direction estimation).

    Storage is columnar; single-row ``append`` goes to Python staging
    lists and is consolidated into the numpy columns on first read, so
    both bulk (``extend_columns``) and row-at-a-time producers stay cheap.

    The seven columns live in buffers with an explicitly tracked spare
    capacity.  Appends write past the live end.  A log's first fill is
    sized exactly (most logs are filled once, by a collect); after that a
    full buffer is replaced by a fresh one of twice the live reads plus the
    append (at least ``_MIN_CAPACITY``), so a stream of small appends costs
    amortized O(1) per read instead of a copy of the whole log.
    :meth:`drop_before` only advances the live start; once the dead prefix
    outgrows both the live part and ``_MIN_CAPACITY``, the live reads move
    to fresh buffers, which releases the dropped memory and keeps the log
    within twice its live size plus a chunk, or ``_MIN_CAPACITY`` reads
    (the retention bound of DESIGN.md §11).  Views handed out
    (:meth:`columns`, :meth:`slice_time`, :meth:`per_tag`, view-backed logs)
    never see a later write: appends only fill positions no view covers,
    reordering and compaction always allocate new buffers, and a
    view-backed log starts with no spare capacity, so its first append
    moves it to buffers of its own.
    """

    __slots__ = (
        "_buf", "_cap", "_lo", "_hi",
        "_p_ts", "_p_tag", "_p_phase", "_p_rss", "_p_dopp", "_p_port",
        "_p_epc", "_sorted", "_last_ts",
    )

    def __init__(self, reports: Iterable[TagReadReport] = ()) -> None:
        self._buf = _EMPTY
        self._cap = 0   # reads the buffers can hold
        self._lo = 0    # live reads are buffer rows [_lo, _hi)
        self._hi = 0
        self._p_ts: List[float] = []
        self._p_tag: List[int] = []
        self._p_phase: List[float] = []
        self._p_rss: List[float] = []
        self._p_dopp: List[float] = []
        self._p_port: List[int] = []
        self._p_epc: List[str] = []
        self._sorted = True
        self._last_ts: Optional[float] = None
        for r in reports:
            self.append(r)

    # -- producers --------------------------------------------------------

    def append(self, report: TagReadReport) -> None:
        t = report.timestamp
        if self._last_ts is not None and t < self._last_ts:
            self._sorted = False
        self._last_ts = t
        self._p_ts.append(t)
        self._p_tag.append(report.tag_index)
        self._p_phase.append(report.phase_rad)
        self._p_rss.append(report.rss_dbm)
        self._p_dopp.append(report.doppler_hz)
        self._p_port.append(report.antenna_port)
        self._p_epc.append(report.epc)

    def extend(self, reports: Iterable[TagReadReport]) -> None:
        for r in reports:
            self.append(r)

    def extend_columns(
        self,
        timestamps: np.ndarray,
        tag_indices: np.ndarray,
        phases: np.ndarray,
        rss: np.ndarray,
        doppler: np.ndarray,
        epcs: Sequence[str],
        antenna_port: int = 1,
    ) -> None:
        """Bulk append a block of reads already held column-wise.

        The block itself may be unsorted; sortedness bookkeeping matches a
        sequence of single ``append`` calls on the same rows.
        """
        ts = np.ascontiguousarray(timestamps, dtype=float)
        n = ts.size
        if n == 0:
            return
        self._flush()
        if self._sorted:
            if self._last_ts is not None and float(ts[0]) < self._last_ts:
                self._sorted = False
            elif n > 1 and bool((ts[1:] < ts[:-1]).any()):
                self._sorted = False
        self._last_ts = float(ts[-1])
        self._write(ts, tag_indices, phases, rss, doppler, antenna_port, epcs)

    # -- internal ---------------------------------------------------------

    def _live(self) -> tuple:
        """Views of the live rows of all seven columns."""
        lo, hi = self._lo, self._hi
        ts, tag, phase, rss, dopp, port, epc = self._buf
        return (ts[lo:hi], tag[lo:hi], phase[lo:hi], rss[lo:hi], dopp[lo:hi],
                port[lo:hi], epc[lo:hi])

    def _realloc(self, capacity: int) -> None:
        """Move the live rows to fresh buffers of ``capacity`` rows."""
        live = self._hi - self._lo
        fresh = []
        for col, dtype in zip(self._live(), _DTYPES):
            buf = np.empty(capacity, dtype=dtype)
            buf[:live] = col
            fresh.append(buf)
        self._buf = tuple(fresh)
        self._cap = capacity
        self._lo, self._hi = 0, live

    def _write(self, ts, tag, phase, rss, dopp, port, epc) -> None:
        """Append ``len(ts)`` rows past the live end (``port`` may be a
        scalar)."""
        n = len(ts)
        if self._hi + n > self._cap:
            live = self._hi - self._lo
            self._realloc(
                live + n if self._cap == 0 else max(2 * (live + n), _MIN_CAPACITY)
            )
        hi = self._hi
        rows = slice(hi, hi + n)
        if not isinstance(epc, np.ndarray):
            epc = list(epc)
        for buf, col in zip(self._buf, (ts, tag, phase, rss, dopp, port, epc)):
            buf[rows] = col
        self._hi = hi + n

    def _flush(self) -> None:
        """Consolidate staged single-row appends into the columns."""
        if not self._p_ts:
            return
        self._write(
            self._p_ts, self._p_tag, self._p_phase, self._p_rss,
            self._p_dopp, self._p_port, self._p_epc,
        )
        self._p_ts = []
        self._p_tag = []
        self._p_phase = []
        self._p_rss = []
        self._p_dopp = []
        self._p_port = []
        self._p_epc = []

    def _ensure_sorted(self) -> None:
        self._flush()
        if not self._sorted:
            # Stable sort on timestamp, matching list.sort(key=timestamp),
            # into fresh buffers: views already handed out keep their rows.
            live = self._live()
            order = np.argsort(live[0], kind="stable")
            self._buf = tuple(col[order] for col in live)
            self._lo, self._hi = 0, order.size
            self._cap = order.size
            self._sorted = True
            # Later appends must compare against the newest read, which is
            # no longer the last one appended.
            self._last_ts = float(self._buf[0][-1])

    @classmethod
    def _from_columns(
        cls,
        ts: np.ndarray,
        tag: np.ndarray,
        phase: np.ndarray,
        rss: np.ndarray,
        dopp: np.ndarray,
        port: np.ndarray,
        epc: np.ndarray,
    ) -> "ReportLog":
        """View-backed log over already-sorted column slices (no copy).

        The log's capacity is exactly its length, so it never writes into
        the arrays it was given.
        """
        log = cls()
        log._buf = (ts, tag, phase, rss, dopp, port, epc)
        log._cap = log._hi = ts.size
        log._last_ts = float(ts[-1]) if ts.size else None
        return log

    def _row(self, i: int) -> TagReadReport:
        j = self._lo + i
        ts, tag, phase, rss, dopp, port, epc = self._buf
        return TagReadReport(
            epc=epc[j],
            tag_index=int(tag[j]),
            timestamp=float(ts[j]),
            phase_rad=float(phase[j]),
            rss_dbm=float(rss[j]),
            doppler_hz=float(dopp[j]),
            antenna_port=int(port[j]),
        )

    # -- consumers --------------------------------------------------------

    def __len__(self) -> int:
        return self._hi - self._lo + len(self._p_ts)

    def __iter__(self) -> Iterator[TagReadReport]:
        self._ensure_sorted()
        for i in range(self._hi - self._lo):
            yield self._row(i)

    def __getitem__(
        self, i: Union[int, slice]
    ) -> Union[TagReadReport, List[TagReadReport]]:
        self._ensure_sorted()
        n = self._hi - self._lo
        if isinstance(i, slice):
            return [self._row(j) for j in range(*i.indices(n))]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("report index out of range")
        return self._row(i)

    @property
    def timestamps(self) -> np.ndarray:
        """Sorted timestamp column (read-only view for bulk consumers)."""
        self._ensure_sorted()
        return self._buf[0][self._lo:self._hi]

    @property
    def duration(self) -> float:
        """Time span covered by the log (0 for empty/single-read logs)."""
        self._ensure_sorted()
        if self._hi - self._lo < 2:
            return 0.0
        ts = self._buf[0]
        return float(ts[self._hi - 1] - ts[self._lo])

    @property
    def start_time(self) -> float:
        self._ensure_sorted()
        if self._hi == self._lo:
            raise ValueError("empty report log has no start time")
        return float(self._buf[0][self._lo])

    @property
    def end_time(self) -> float:
        self._ensure_sorted()
        if self._hi == self._lo:
            raise ValueError("empty report log has no end time")
        return float(self._buf[0][self._hi - 1])

    def tag_indices(self) -> List[int]:
        self._flush()
        return [int(v) for v in np.unique(self._buf[1][self._lo:self._hi])]

    def read_count(self, tag_index: int) -> int:
        self._flush()
        return int(np.count_nonzero(self._buf[1][self._lo:self._hi] == tag_index))

    def per_tag(self) -> Dict[int, TagSeries]:
        """Split the log into per-tag numpy series.

        Keys follow first-appearance order in the time-sorted stream
        (matching the historical dict-of-buckets construction).
        """
        self._ensure_sorted()
        out: Dict[int, TagSeries] = {}
        if self._hi == self._lo:
            return out
        ts, tags, phase, rss, _, _, epc = self._live()
        uniq, first = np.unique(tags, return_index=True)
        for k in np.argsort(first, kind="stable"):
            idx = int(uniq[k])
            mask = tags == idx
            out[idx] = TagSeries(
                tag_index=idx,
                epc=epc[int(first[k])],
                timestamps=ts[mask],
                phases=phase[mask],
                rss=rss[mask],
            )
        return out

    def columns(self) -> tuple:
        """Time-sorted column views ``(ts, tag, phase, rss, doppler, port,
        epc)`` — the bulk hand-off format for streaming consumers (pair
        with :meth:`extend_columns` on the receiving log)."""
        self._ensure_sorted()
        return self._live()

    def drop_before(self, t: float) -> int:
        """Discard all reports with ``timestamp < t``; returns the count.

        Advances the live start; once the dropped prefix outgrows the live
        part (and ``_MIN_CAPACITY``), the live reads move to fresh buffers
        so the dropped memory is released (bounded-retention streaming
        relies on this).
        """
        self._ensure_sorted()
        k = int(self._buf[0][self._lo:self._hi].searchsorted(t, side="left"))
        if k == 0:
            return 0
        self._lo += k
        live = self._hi - self._lo
        if self._lo > max(live, _MIN_CAPACITY):
            self._realloc(max(2 * live, _MIN_CAPACITY))
        return k

    def slice_time(self, t0: float, t1: float) -> "ReportLog":
        """New log with reports in [t0, t1) — a view, not a copy."""
        self._ensure_sorted()
        live_ts = self._buf[0][self._lo:self._hi]
        lo = self._lo + int(live_ts.searchsorted(t0, side="left"))
        hi = self._lo + int(live_ts.searchsorted(t1, side="left"))
        ts, tag, phase, rss, dopp, port, epc = self._buf
        return ReportLog._from_columns(
            ts[lo:hi], tag[lo:hi], phase[lo:hi], rss[lo:hi], dopp[lo:hi],
            port[lo:hi], epc[lo:hi],
        )

    def aggregate_read_rate(self) -> float:
        """Total successful reads per second across all tags."""
        d = self.duration
        if d <= 0.0:
            return 0.0
        return len(self) / d


def merge_logs(logs: Sequence["ReportLog"]) -> "ReportLog":
    """Merge per-port logs into one time-sorted workspace log.

    Concatenates the column views of every non-empty input (in input
    order) and stable-sorts on timestamp, so reads that tie on timestamp
    keep the input-port ordering — the same tie rule ``ReportLog`` itself
    uses.  Per-row antenna ports and EPCs survive the merge, which is
    what lets workspace-level consumers attribute any read back to its
    tile.  A single non-empty input merges to a value-identical log.
    """
    live = [log.columns() for log in logs if len(log)]
    if not live:
        return ReportLog()
    cols = [np.concatenate([c[i] for c in live]) for i in range(7)]
    order = np.argsort(cols[0], kind="stable")
    return ReportLog._from_columns(*(c[order] for c in cols))
