"""RFIPad's recognition pipeline: the paper's primary contribution.

Stages (paper section III): phase de-periodicity, diversity suppression,
grey-map imaging + OTSU binarisation, image-assisted stroke classification,
RSS-trough direction estimation, RMS-window segmentation, and the
tree-structure letter grammar.
"""

from .calibration import (
    StaticCalibration,
    TagCalibration,
    calibrate,
    circular_mean,
    circular_std,
)
from .classifier import ClassifierConfig, ShapeDecision, classify_shape
from .direction import (
    DirectionConfig,
    Trough,
    detect_troughs,
    estimate_direction,
    passage_order,
)
from .events import LetterResult, SegmentedWindow, StrokeObservation
from .features import ShapeFeatures, extract_features, opening_quadrant
from .grammar import (
    GrammarNode,
    StrokeGeometry,
    TreeGrammar,
    letter_geometry,
    observed_geometry,
    stroke_pair_cost,
    token_distance,
)
from .holistic import (
    HolisticRecognizer,
    HybridRecognizer,
    fuse_letter_image,
    render_template,
)
from .trajectory import TrajectoryEstimate, reconstruct_trajectory, trajectory_error
from .words import (
    WordDecoder,
    WordRecognizer,
    WordResult,
    cluster_windows_into_letters,
)
from .imaging import BinaryMap, GreyMap, render_grey_map
from .otsu import between_class_variance, binarize, binarize_fixed, otsu_threshold
from .pipeline import RFIPad, RFIPadConfig
from .segmentation import (
    SegmentationConfig,
    StreamSegmenter,
    auto_threshold,
    frame_rms,
    segment_strokes,
    window_std,
)
from .stages import (
    ClassifyStage,
    DirectionStage,
    GrammarStage,
    ImagingStage,
    OtsuStage,
    SegmentationStage,
    Stage,
    StageContext,
    StageSet,
    SuppressionStage,
    WindowAnalyzer,
    widest_window,
)
from .suppression import SuppressionResult, accumulative_differences, disturbance_score
from .unwrap import fold_to_pi, largest_jump, total_variation, unwrap, unwrap_residual

__all__ = [
    "BinaryMap",
    "ClassifierConfig",
    "ClassifyStage",
    "DirectionConfig",
    "DirectionStage",
    "GrammarStage",
    "ImagingStage",
    "OtsuStage",
    "SegmentationStage",
    "Stage",
    "StageContext",
    "StageSet",
    "StreamSegmenter",
    "SuppressionStage",
    "WindowAnalyzer",
    "GrammarNode",
    "GreyMap",
    "HolisticRecognizer",
    "HybridRecognizer",
    "LetterResult",
    "RFIPad",
    "RFIPadConfig",
    "SegmentationConfig",
    "SegmentedWindow",
    "ShapeDecision",
    "ShapeFeatures",
    "StaticCalibration",
    "StrokeGeometry",
    "StrokeObservation",
    "SuppressionResult",
    "TagCalibration",
    "TrajectoryEstimate",
    "TreeGrammar",
    "Trough",
    "WordDecoder",
    "WordRecognizer",
    "WordResult",
    "accumulative_differences",
    "auto_threshold",
    "between_class_variance",
    "binarize",
    "binarize_fixed",
    "calibrate",
    "circular_mean",
    "circular_std",
    "classify_shape",
    "cluster_windows_into_letters",
    "fuse_letter_image",
    "render_template",
    "stroke_pair_cost",
    "detect_troughs",
    "disturbance_score",
    "estimate_direction",
    "extract_features",
    "fold_to_pi",
    "frame_rms",
    "largest_jump",
    "letter_geometry",
    "observed_geometry",
    "opening_quadrant",
    "otsu_threshold",
    "passage_order",
    "reconstruct_trajectory",
    "render_grey_map",
    "segment_strokes",
    "trajectory_error",
    "token_distance",
    "total_variation",
    "unwrap",
    "unwrap_residual",
    "widest_window",
    "window_std",
]
