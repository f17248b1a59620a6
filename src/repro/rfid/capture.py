"""Capture persistence: record and replay report streams as JSON Lines.

The recognition pipeline consumes nothing but ``TagReadReport`` streams,
so a capture file is the complete interface between a *real* RFIPad rig
and this library: record LLRP reports from hardware into this format and
every pipeline, experiment, and demo here runs on them unchanged.

Format: one JSON object per line, keys matching ``TagReadReport`` fields;
a single header line (``{"repro_capture": 1, ...}``) carries metadata.
JSONL keeps captures appendable, diffable, and streamable.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Union

from .reports import ReportLog, TagReadReport

#: Format version stamped into the header line.
CAPTURE_VERSION = 1

PathLike = Union[str, Path]


def dump_log(
    log: ReportLog,
    path: PathLike,
    metadata: Optional[Dict[str, object]] = None,
) -> int:
    """Write a report log as a JSONL capture.  Returns the report count."""
    header = {"repro_capture": CAPTURE_VERSION}
    if metadata:
        header.update(metadata)
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for report in log:
            fh.write(json.dumps(asdict(report)) + "\n")
            count += 1
    return count


def _parse_report(record: Dict[str, object], line_no: int) -> TagReadReport:
    try:
        return TagReadReport(
            epc=str(record["epc"]),
            tag_index=int(record["tag_index"]),
            timestamp=float(record["timestamp"]),
            phase_rad=float(record["phase_rad"]),
            rss_dbm=float(record["rss_dbm"]),
            doppler_hz=float(record.get("doppler_hz", 0.0)),
            antenna_port=int(record.get("antenna_port", 1)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed capture record on line {line_no}: {exc}") from exc


def load_log(path: PathLike) -> ReportLog:
    """Load a JSONL capture into a :class:`ReportLog`.

    Raises ``ValueError`` on a missing/incompatible header or a malformed
    record — a silently half-loaded capture would corrupt any experiment
    run on it.
    """
    log = ReportLog()
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path}: empty capture file")
        header = json.loads(header_line)
        version = header.get("repro_capture")
        if version != CAPTURE_VERSION:
            raise ValueError(
                f"{path}: unsupported capture version {version!r} "
                f"(this build reads version {CAPTURE_VERSION})"
            )
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            log.append(_parse_report(json.loads(line), line_no))
    return log


def load_metadata(path: PathLike) -> Dict[str, object]:
    """Read just the header metadata of a capture."""
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path}: empty capture file")
        header = json.loads(header_line)
    if header.get("repro_capture") != CAPTURE_VERSION:
        raise ValueError(f"{path}: not a repro capture file")
    return {k: v for k, v in header.items() if k != "repro_capture"}
