"""repro — a full reproduction of RFIPad (ICDCS 2017).

RFIPad turns a plane of passive UHF RFID tags into a device-free, in-air
handwriting surface.  This package contains both the paper's recognition
pipeline (:mod:`repro.core`) and, because the original runs on hardware we
do not have, the complete simulation substrate it needs: backscatter
channel physics (:mod:`repro.physics`), an EPC C1G2 reader/tag system
(:mod:`repro.rfid`), hand-motion synthesis (:mod:`repro.motion`), and the
experiment harness (:mod:`repro.sim`, :mod:`repro.experiments`).

Quickstart::

    from repro import SessionRunner, Motion, StrokeKind

    runner = SessionRunner()                     # build + calibrate a pad
    trial = runner.run_motion(Motion(StrokeKind.VBAR))
    print(trial.observed.label, trial.fully_correct)
"""

from .core import (
    LetterResult,
    RFIPad,
    RFIPadConfig,
    StaticCalibration,
    StrokeObservation,
    TreeGrammar,
    calibrate,
)
from .motion import (
    ALPHABET,
    Direction,
    Motion,
    StrokeKind,
    UserProfile,
    WritingScript,
    all_motions,
    default_users,
    script_for_letter,
    script_for_motion,
)
from .physics import GridLayout, ReaderAntenna, Vec3
from .rfid import Reader, ReaderConfig, ReportLog, TagReadReport, deploy_array
from .sim import (
    ScenarioConfig,
    SessionRunner,
    build_scenario,
    score_motion_trials,
    score_segmentation,
)
from .stream import LetterEvent, StreamEvent, StreamingSession, StrokeEvent

__version__ = "1.0.0"

__all__ = [
    "ALPHABET",
    "Direction",
    "GridLayout",
    "LetterEvent",
    "LetterResult",
    "Motion",
    "RFIPad",
    "RFIPadConfig",
    "Reader",
    "ReaderAntenna",
    "ReaderConfig",
    "ReportLog",
    "ScenarioConfig",
    "SessionRunner",
    "StaticCalibration",
    "StreamEvent",
    "StreamingSession",
    "StrokeEvent",
    "StrokeKind",
    "StrokeObservation",
    "TagReadReport",
    "TreeGrammar",
    "UserProfile",
    "Vec3",
    "WritingScript",
    "all_motions",
    "build_scenario",
    "calibrate",
    "default_users",
    "deploy_array",
    "score_motion_trials",
    "score_segmentation",
    "script_for_letter",
    "script_for_motion",
    "__version__",
]
