"""Video object segmentation built on robust outlier statistics.

The package discovers foreground objects as statistical outliers in
per-frame optical-flow and visual-saliency rasters, refines object
boundaries with supervoxel consensus voting, fuses binary masks from
multiple segmentation methods under reliability weights, and scores the
results with region- and contour-accuracy metrics.
"""

from tukeyseg.fusion import fuse_frame, fuse_sequence
from tukeyseg.io import FlowField, FrameSequence, open_sequence
from tukeyseg.metrics import contour_f, evaluate_dataset, jaccard, sequence_scores
from tukeyseg.refine import RefineConfig, refine_mask, refine_sequence, rgb_to_lab
from tukeyseg.segment import SegmenterConfig, segment_sequence, select_top_segments
from tukeyseg.stats import (
    OutlierFences,
    Quartiles,
    fences,
    mask_outlier_scales,
    outlier_scale,
    outlier_set,
    quartiles,
)

__version__ = "0.1.0"

__all__ = [
    "FlowField",
    "FrameSequence",
    "OutlierFences",
    "Quartiles",
    "RefineConfig",
    "SegmenterConfig",
    "contour_f",
    "evaluate_dataset",
    "fences",
    "fuse_frame",
    "fuse_sequence",
    "jaccard",
    "mask_outlier_scales",
    "open_sequence",
    "outlier_scale",
    "outlier_set",
    "quartiles",
    "refine_mask",
    "refine_sequence",
    "rgb_to_lab",
    "segment_sequence",
    "select_top_segments",
    "sequence_scores",
]
