"""Video object segmentation built on robust outlier statistics.

The package discovers foreground objects as statistical outliers in
per-frame optical-flow and visual-saliency rasters, refines object
boundaries with supervoxel consensus voting, fuses binary masks from
multiple segmentation methods under reliability weights, and scores the
results with region- and contour-accuracy metrics.

``import tukeyseg`` loads none of the package's modules. Each name in
``__all__`` is looked up in the module that defines it when it is first
used (PEP 562), so ``from tukeyseg import fuse_frame`` loads
``tukeyseg.fusion`` and what it imports, and nothing else.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "fusion": ("fuse_frame", "fuse_sequence"),
    "io": ("FlowField", "FrameSequence", "open_sequence"),
    "metrics": ("contour_f", "evaluate_dataset", "jaccard", "sequence_scores"),
    "refine": ("RefineConfig", "refine_mask", "refine_sequence", "rgb_to_lab"),
    "segment": ("SegmenterConfig", "segment_sequence", "select_top_segments"),
    "stats": ("OutlierFences", "Quartiles", "fences", "mask_outlier_scales", "outlier_scale",
              "outlier_set", "quartiles"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
