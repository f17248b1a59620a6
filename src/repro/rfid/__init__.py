"""RFID system substrate: passive tags, the EPC C1G2 inventory MAC, and the
reader that fuses protocol events with channel physics into an LLRP-style
report stream.
"""

from .capture import dump_log, load_log, load_metadata
from .deployment import TagArray, deploy_array
from .multiplex import MultiplexedReader, ReaderPort
from .protocol import (
    COLLISION_SLOT_S,
    IDLE_SLOT_S,
    PROFILE_DENSE,
    PROFILE_FAST,
    PROFILE_FAST_SHORT,
    PROFILE_ROBUST,
    ROUND_OVERHEAD_S,
    SUCCESS_SLOT_S,
    InventoryStats,
    LinkProfile,
    QAlgorithm,
    expected_round_efficiency,
)
from .reader import HandPoseFn, Reader, ReaderConfig
from .reports import ReportLog, TagReadReport, TagSeries
from .tag import (
    DEFAULT_IC_SENSITIVITY_DBM,
    Tag,
    make_epc,
    sample_ic_sensitivity_dbm,
    sample_modulation_efficiency,
    sample_theta_tag,
)

__all__ = [
    "COLLISION_SLOT_S",
    "DEFAULT_IC_SENSITIVITY_DBM",
    "HandPoseFn",
    "IDLE_SLOT_S",
    "InventoryStats",
    "LinkProfile",
    "MultiplexedReader",
    "PROFILE_DENSE",
    "PROFILE_FAST",
    "PROFILE_FAST_SHORT",
    "PROFILE_ROBUST",
    "QAlgorithm",
    "ReaderPort",
    "ROUND_OVERHEAD_S",
    "Reader",
    "ReaderConfig",
    "ReportLog",
    "SUCCESS_SLOT_S",
    "Tag",
    "TagArray",
    "TagReadReport",
    "TagSeries",
    "deploy_array",
    "dump_log",
    "expected_round_efficiency",
    "load_log",
    "load_metadata",
    "make_epc",
    "sample_ic_sensitivity_dbm",
    "sample_modulation_efficiency",
    "sample_theta_tag",
]
