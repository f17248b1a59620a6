"""Length-prefixed socket framing for the serving hub.

The wire protocol between a pad (client) and the :class:`~repro.serve.hub.
SessionHub` is a stream of self-delimiting frames over any reliable byte
transport (TCP here; the codec itself is transport-agnostic):

::

    frame := u32_be body_len | body
    body  := u32_be header_len | header_json | payload

``header_json`` is a compact UTF-8 JSON object (the message); ``payload``
is opaque binary — empty for control messages, a columnar block of reads
for ``chunk`` messages.  TCP delivers bytes, not frames: a single
``recv`` may hold half a frame or twenty, so :class:`FrameDecoder` is an
incremental parser — feed it arbitrary byte fragments and it yields every
complete message exactly once, in order, regardless of how the stream was
fragmented or coalesced (property-tested in ``tests/serve/``).

Chunk payloads are columnar: the five numeric columns of a
:class:`~repro.rfid.reports.ReportLog` laid end-to-end as little-endian
float64, with the EPC string column collapsed to a per-chunk
``tag_index -> epc`` map in the header (EPCs are a static property of the
deployment, so a few dozen short strings regenerate the column exactly).
float64 survives the byte round-trip bit-for-bit, which is what lets the
hub's finalized event streams stay bit-identical to batch.

Message vocabulary (``type`` field):

==============  =========  ==================================================
type            direction  meaning
==============  =========  ==================================================
``hello``       c -> s     open a session (``session`` id, optional ``meta``)
``chunk``       c -> s     one report chunk (columnar payload)
``finalize``    c -> s     end of stream; flush tail windows + letter
``welcome``     s -> c     session accepted (echoes ``session``)
``event``       s -> c     a stroke/letter event (``kind``, ``final``, ...)
``done``        s -> c     session finalized; no more events will follow
``dropped``     s -> c     the hub shed a chunk under a drop policy
``error``       s -> c     protocol violation; the connection will close
``shutdown``    s -> c     hub is draining; open sessions were finalized
==============  =========  ==================================================
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..rfid.reports import ReportLog

__all__ = [
    "FrameDecoder",
    "FramingError",
    "MAX_FRAME_BYTES",
    "chunk_message",
    "decode_chunk",
    "encode_frame",
    "t_hi_of",
    "tile_of",
]

#: Ceiling on one frame's body; a length prefix beyond this is corruption
#: (or a hostile peer), not a frame worth buffering for.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_U32 = struct.Struct(">I")

#: Numeric columns per chunk payload, in layout order:
#: timestamp, tag_index, phase, rss, doppler — all as little-endian f8.
_N_COLS = 5


class FramingError(ValueError):
    """The byte stream or a message violates the framing contract."""


def encode_frame(header: Dict[str, object], payload: bytes = b"") -> bytes:
    """Encode one message as a self-delimiting frame."""
    head = json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")
    body_len = 4 + len(head) + len(payload)
    if body_len > MAX_FRAME_BYTES:
        raise FramingError(
            f"frame body of {body_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling"
        )
    return b"".join((_U32.pack(body_len), _U32.pack(len(head)), head, payload))


class FrameDecoder:
    """Incremental frame parser over an arbitrarily fragmented byte stream.

    ``feed`` buffers whatever bytes arrive and returns the list of
    complete ``(header, payload)`` messages they completed, preserving
    stream order.  Partial frames stay buffered; a malformed prefix
    raises :class:`FramingError` (the connection is unrecoverable once
    frame boundaries are lost, so decoding must stop).
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards a not-yet-complete frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> List[Tuple[Dict[str, object], bytes]]:
        self._buf += data
        out: List[Tuple[Dict[str, object], bytes]] = []
        while True:
            if len(self._buf) < 4:
                return out
            body_len = _U32.unpack_from(self._buf)[0]
            if body_len < 4 or body_len > MAX_FRAME_BYTES:
                raise FramingError(f"invalid frame length prefix {body_len}")
            if len(self._buf) < 4 + body_len:
                return out
            body = bytes(self._buf[4 : 4 + body_len])
            del self._buf[: 4 + body_len]
            head_len = _U32.unpack_from(body)[0]
            if head_len > body_len - 4:
                raise FramingError(
                    f"header length {head_len} overruns frame body of "
                    f"{body_len} bytes"
                )
            try:
                header = json.loads(body[4 : 4 + head_len].decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise FramingError(f"frame header is not valid JSON: {exc}") from exc
            if not isinstance(header, dict) or "type" not in header:
                raise FramingError("frame header must be an object with a 'type'")
            out.append((header, body[4 + head_len :]))


# ----------------------------------------------------------------------
# Chunk payload codec (columnar).


def epc_map_of(tag: np.ndarray, epc: np.ndarray) -> Dict[int, str]:
    """First-seen ``tag_index -> epc`` map for a column pair.

    EPCs are a static property of the deployment, so this small dict is
    all a chunk needs to regenerate the per-row EPC string column exactly.
    """
    out: Dict[int, str] = {}
    for t, e in zip(tag.tolist(), epc.tolist()):
        if t not in out:
            out[t] = e
    return out


def chunk_message(
    session: str,
    chunk: ReportLog,
    tile: Optional[int] = None,
    t_hi: Optional[float] = None,
) -> Tuple[Dict[str, object], bytes]:
    """Build the ``chunk`` message for one report chunk.

    Returns ``(header, payload)`` ready for :func:`encode_frame`.  The
    numeric columns ride as one contiguous little-endian float64 block;
    tag indices are exactly recoverable from their float64 image (they
    are tiny integers).

    Workspace tenants route per-tile streams over the same message by
    setting ``tile`` (0-based tile number) and optionally ``t_hi`` — the
    tile's watermark, vouching that no later chunk from this tile will
    carry reads at or before it.  Both keys are simply absent for
    ordinary single-pad sessions, so old clients and servers interop
    unchanged.
    """
    ts, tag, phase, rss, dopp, port, epc = chunk.columns()
    block = np.empty((_N_COLS, ts.size), dtype="<f8")
    block[0] = ts
    block[1] = tag
    block[2] = phase
    block[3] = rss
    block[4] = dopp
    header: Dict[str, object] = {
        "type": "chunk",
        "session": session,
        "rows": int(ts.size),
        "port": int(port[0]) if port.size else 1,
        "epcs": {str(t): e for t, e in epc_map_of(tag, epc).items()},
    }
    if tile is not None:
        header["tile"] = int(tile)
    if t_hi is not None:
        header["t_hi"] = float(t_hi)
    return header, block.tobytes()


def tile_of(header: Dict[str, object]) -> Optional[int]:
    """The ``tile`` field of a chunk message, if present (else ``None``)."""
    tile = header.get("tile")
    return int(tile) if tile is not None else None  # type: ignore[arg-type]


def t_hi_of(header: Dict[str, object]) -> Optional[float]:
    """The ``t_hi`` watermark of a chunk message, if present."""
    t_hi = header.get("t_hi")
    return float(t_hi) if t_hi is not None else None  # type: ignore[arg-type]


def decode_chunk(
    header: Dict[str, object], payload: bytes
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[str], int]:
    """Reverse :func:`chunk_message`.

    Returns ``(ts, tag, phase, rss, dopp, epcs, port)`` — the argument
    shape of :meth:`~repro.rfid.reports.ReportLog.extend_columns`.
    """
    try:
        rows = int(header["rows"])
        port = int(header.get("port", 1))
        epc_field = header.get("epcs", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise FramingError(f"malformed chunk header: {exc}") from exc
    if rows < 0 or len(payload) != rows * 8 * _N_COLS:
        raise FramingError(
            f"chunk payload of {len(payload)} bytes does not hold "
            f"{rows} rows x {_N_COLS} float64 columns"
        )
    block = np.frombuffer(payload, dtype="<f8").reshape(_N_COLS, rows)
    ts = np.array(block[0])
    tag = block[1].astype(np.int64)
    epc_map = {int(k): str(v) for k, v in dict(epc_field).items()}
    try:
        epcs = [epc_map[t] for t in tag.tolist()]
    except KeyError as exc:
        raise FramingError(f"chunk references tag {exc} missing from epc map") from exc
    return ts, tag, np.array(block[2]), np.array(block[3]), np.array(block[4]), epcs, port


def chunk_log(header: Dict[str, object], payload: bytes) -> ReportLog:
    """Decode a ``chunk`` message straight into a fresh :class:`ReportLog`."""
    ts, tag, phase, rss, dopp, epcs, port = decode_chunk(header, payload)
    log = ReportLog()
    if ts.size:
        log.extend_columns(ts, tag, phase, rss, dopp, epcs, antenna_port=port)
    return log


def session_of(header: Dict[str, object]) -> Optional[str]:
    """The ``session`` field of a message, if present (else ``None``)."""
    sid = header.get("session")
    return str(sid) if sid is not None else None
