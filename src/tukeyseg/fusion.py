"""Reliability-weighted fusion of binary masks from multiple methods.

For each frame, every method's mask is weighted by how close its
foreground-pixel count sits to the median count across all methods
(:func:`tukeyseg.stats.mask_outlier_scales`); outlier counts weigh zero.
The weighted mean of the masks, thresholded strictly at 0.5, is the fused
output. :func:`fuse_frame` is the one per-frame fusion path: it validates,
counts and weighs a frame's masks once, then applies the strategy, either
this weighted vote (``tism``) or one of two baselines, the unweighted vote
(``mean``) and the lower-median-count mask (``median``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tukeyseg import stats
from tukeyseg.parallel import parallel_map

STRATEGIES = ("tism", "mean", "median")


@dataclass(frozen=True)
class FusionRecord:
    """Per-frame, per-method fusion diagnostics."""

    frame: int
    method: str
    count: int    # foreground pixels in the method's mask
    alpha: float  # reliability weight for the frame


def _validated(masks) -> list[np.ndarray]:
    masks = list(masks)
    if not masks:
        raise ValueError("at least one mask is required")
    arrays = [np.asarray(m) for m in masks]
    for a in arrays:
        if a.shape != arrays[0].shape:
            raise ValueError(
                f"dimension mismatch across masks: {a.shape} vs {arrays[0].shape}"
            )
        if not np.isin(a, (0, 1)).all():
            raise ValueError("mask values must be 0 or 1")
    return [a.astype(np.uint8) for a in arrays]


def foreground_counts(masks) -> list[int]:
    """Foreground-pixel count of each mask."""
    return [int(np.asarray(m).sum()) for m in masks]


def fuse_frame(
    masks, k_fences: float = 1.5, strategy: str = "tism"
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Fuse one frame's masks; returns (fused mask, per-mask weights, counts).

    The masks are validated, counted and weighed once, whatever the
    strategy. ``tism`` is the weighted vote, ``mean`` the same vote with unit
    weights; either way the vote share must strictly exceed 0.5 for a
    foreground pixel. ``median`` returns the input mask whose foreground
    count is the lower median, the earliest among equal counts; ``tism`` does
    too when every weight is zero, which happens when no count sits on the
    median and every count lies at or beyond a fence, for example counts
    [0, 10] with ``k_fences=0``.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy '{strategy}' (choose from {STRATEGIES})")
    ms = _validated(masks)
    counts = foreground_counts(ms)
    alphas = stats.mask_outlier_scales(counts, k_fences)
    weights = alphas if strategy == "tism" else np.ones(len(ms))
    total = float(weights.sum())
    if strategy == "median" or total == 0.0:
        median_count = sorted(counts)[(len(counts) - 1) // 2]
        return ms[counts.index(median_count)], alphas, counts
    weighted = np.zeros(ms[0].shape, dtype=np.float64)
    for weight, mask in zip(weights, ms):
        weighted += weight * mask
    return (weighted / total > 0.5).astype(np.uint8), alphas, counts


def fuse_sequence(
    frames,
    method_names=None,
    strategy: str = "tism",
    k_fences: float = 1.5,
    jobs: int = 1,
) -> tuple[list[np.ndarray], list[FusionRecord]]:
    """Fuse a whole sequence frame by frame.

    ``frames`` is a list over frames, each entry a list of per-method
    masks in a fixed method order. Weights are recomputed independently
    for every frame; the diagnostic records always carry the reliability
    weights, whatever the fusion strategy. :func:`fuse_frame` fuses each
    frame, so each frame's masks are validated, counted and weighed once.
    """
    frames = [list(frame) for frame in frames]
    if not frames:
        raise ValueError("no frames to fuse")
    n_methods = len(frames[0])
    if any(len(frame) != n_methods for frame in frames):
        raise ValueError("every frame must provide the same number of masks")
    if method_names is None:
        method_names = [f"method{j:02d}" for j in range(n_methods)]
    method_names = [str(name) for name in method_names]
    if len(method_names) != n_methods:
        raise ValueError("method_names length must match the number of masks per frame")

    def fuse_one(index: int):
        fused, alphas, counts = fuse_frame(frames[index], k_fences, strategy)
        records = [
            FusionRecord(frame=index, method=name, count=count, alpha=float(alpha))
            for name, count, alpha in zip(method_names, counts, alphas)
        ]
        return fused, records

    results = parallel_map(fuse_one, range(len(frames)), jobs)
    fused_masks = [fused for fused, _ in results]
    records = [record for _, frame_records in results for record in frame_records]
    return fused_masks, records
