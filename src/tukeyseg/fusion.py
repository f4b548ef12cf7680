"""Reliability-weighted fusion of binary masks from multiple methods.

For each frame, every method's mask is weighted by how close its
foreground-pixel count sits to the median count across all methods
(:func:`tukeyseg.stats.mask_outlier_scales`); outlier counts weigh zero.
The weighted mean of the masks, thresholded strictly at 0.5, is the fused
output. Plain mean and median combiners are provided as baselines.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from tukeyseg import stats
from tukeyseg.parallel import parallel_map

log = logging.getLogger(__name__)

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


def fuse_frame(masks, k_fences: float = 1.5) -> tuple[np.ndarray, np.ndarray]:
    """Fuse one frame's masks; returns (fused mask, per-mask weights).

    The weighted vote share must strictly exceed 0.5 for a foreground
    pixel. When every weight is zero the lower-median-count mask is
    returned, as :func:`fuse_median` would. That happens when no count sits
    on the median and every count lies at or beyond a fence, for example
    counts [0, 10] with ``k_fences=0``.
    """
    ms = _validated(masks)
    counts = foreground_counts(ms)
    alphas = stats.mask_outlier_scales(counts, k_fences)
    total = float(alphas.sum())
    if total == 0.0:
        return _lower_median_mask(ms, counts), alphas
    weighted = np.zeros(ms[0].shape, dtype=np.float64)
    for alpha, mask in zip(alphas, ms):
        weighted += alpha * mask
    return (weighted / total > 0.5).astype(np.uint8), alphas


def fuse_mean(masks) -> np.ndarray:
    """Unweighted vote: foreground where the pixel mean strictly exceeds 0.5."""
    ms = _validated(masks)
    votes = np.zeros(ms[0].shape, dtype=np.int64)
    for mask in ms:
        votes += mask
    return (2 * votes > len(ms)).astype(np.uint8)


def fuse_median(masks) -> np.ndarray:
    """The input mask whose foreground count is the (lower) median.

    For an even number of masks the lower median is used; among equal
    counts the earliest mask wins.
    """
    ms = _validated(masks)
    return _lower_median_mask(ms, foreground_counts(ms))


def _lower_median_mask(ms: list[np.ndarray], counts: list[int]) -> np.ndarray:
    median_count = sorted(counts)[(len(counts) - 1) // 2]
    return ms[counts.index(median_count)].copy()


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
    weights, whatever the fusion strategy. Each frame's masks are validated
    once, by the strategy's combiner.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy '{strategy}' (choose from {STRATEGIES})")
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
        masks = frames[index]
        if strategy == "tism":
            fused, alphas = fuse_frame(masks, k_fences)
            counts = foreground_counts(masks)
        else:
            fused = fuse_mean(masks) if strategy == "mean" else fuse_median(masks)
            counts = foreground_counts(masks)
            alphas = stats.mask_outlier_scales(counts, k_fences)
        records = [
            FusionRecord(frame=index, method=name, count=count, alpha=float(alpha))
            for name, count, alpha in zip(method_names, counts, alphas)
        ]
        return fused, records

    results = parallel_map(fuse_one, range(len(frames)), jobs)
    fused_masks = [fused for fused, _ in results]
    records = [record for _, frame_records in results for record in frame_records]
    return fused_masks, records
