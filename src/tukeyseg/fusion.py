"""Reliability-weighted fusion of binary masks from multiple methods.

For each frame, every method's mask is weighted by how close its
foreground-pixel count sits to the median count across all methods
(:func:`tukeyseg.stats.mask_outlier_scales`); outlier counts weigh zero.
The weighted mean of the masks, thresholded strictly at 0.5, is the fused
output. :func:`fuse_frame` is the one per-frame fusion path: it validates,
counts and weighs a frame's masks once, then applies the strategy, either
this weighted vote (``tism``) or one of two baselines, the unweighted vote
(``mean``) and the lower-median-count mask (``median``).

Masks are read by the one mask rule of :mod:`tukeyseg.io`, which takes 2-D
arrays of 0s and 1s only, and fused into bool masks. The vote is summed in
place on the bounding box of the voting masks' foreground (the metrics'
box too), so its cost follows the object, not the frame; the result is
bit-exact with the whole-frame sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tukeyseg import stats
from tukeyseg.io import _foreground_box, _mask_array
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
    """The masks as 2-D bool arrays of one shape, each read once by io's mask rule."""
    arrays = [_mask_array(m) for m in masks]
    if not arrays:
        raise ValueError("at least one mask is required")
    for a in arrays:
        if a.shape != arrays[0].shape:
            raise ValueError(
                f"dimension mismatch across masks: {a.shape} vs {arrays[0].shape}"
            )
    return arrays


def foreground_counts(masks) -> list[int]:
    """Foreground-pixel count of each mask."""
    return [int(np.count_nonzero(m)) for m in masks]


def _vote(masks, weights, total: float) -> np.ndarray:
    """Pixels of the bool ``masks`` whose weighted vote share strictly exceeds 0.5.

    The votes are summed in place on the bounding box of the voting masks'
    foreground, adding each weight only where its mask is set. That is
    bit-exact with summing ``weight * mask`` over the whole frame: weights
    are finite and non-negative, so every vote outside the box, and every
    vote of an unset pixel, is +0.0.
    """
    fused = np.zeros(masks[0].shape, dtype=bool)
    voters = [(w, m) for w, m in zip(weights, masks) if w != 0.0]
    box = _foreground_box([m for _, m in voters])
    if box is None:
        return fused
    weighted = np.zeros(fused[box].shape, dtype=np.float64)
    for weight, mask in voters:
        np.add(weighted, weight, out=weighted, where=mask[box])
    fused[box] = weighted / total > 0.5
    return fused


def fuse_frame(
    masks, k_fences: float = 1.5, strategy: str = "tism"
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Fuse one frame's masks; returns (fused mask, per-mask weights, counts).

    The masks are validated, counted and weighed once, whatever the
    strategy. ``tism`` is the weighted vote, ``mean`` the same vote with unit
    weights; either way the vote share must strictly exceed 0.5 for a
    foreground pixel. ``median`` returns a copy of the input mask whose
    foreground count is the lower median, the earliest among equal counts;
    ``tism`` does too when every weight is zero, which happens when no count
    sits on the median and every count lies at or beyond a fence, for
    example counts [0, 10] with ``k_fences=0``. The fused mask is a new
    bool array in every case.
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
        return ms[counts.index(median_count)].copy(), alphas, counts
    return _vote(ms, weights, total), alphas, counts


def fuse_sequence(
    frames,
    method_names=None,
    strategy: str = "tism",
    k_fences: float = 1.5,
    jobs: int = 1,
) -> tuple[list[np.ndarray], list[FusionRecord]]:
    """Fuse a whole sequence frame by frame; returns (bool fused masks, records).

    ``frames`` is any iterable over frames, each entry an iterable of
    per-method masks in a fixed method order. It is walked once, lazily and
    in order on the calling thread, by the feed of
    :func:`~tukeyseg.parallel.parallel_map`: a frame's masks are listed, and
    so decoded by a lazy source, only when a worker is free for it, so at
    most ``jobs + 1`` frames' masks are held at once. The method names
    default to ``method00``, ``method01``, ... after the first frame's mask
    count, and every frame must hold one mask per name. Weights are
    recomputed independently for every frame; the diagnostic records always
    carry the reliability weights, whatever the fusion strategy.
    :func:`fuse_frame` fuses each frame, so each frame's masks are
    validated, counted and weighed once.
    """
    def numbered():
        names = None if method_names is None else [str(name) for name in method_names]
        for index, frame in enumerate(frames):
            masks = list(frame)
            if names is None:
                names = [f"method{j:02d}" for j in range(len(masks))]
            if len(masks) != len(names):
                raise ValueError(f"frame {index} has {len(masks)} masks: every frame must "
                                 f"provide the same number of masks as method names ({len(names)})")
            yield index, masks, names

    def fuse_one(item):
        index, masks, names = item
        fused, alphas, counts = fuse_frame(masks, k_fences, strategy)
        records = [
            FusionRecord(frame=index, method=name, count=count, alpha=float(alpha))
            for name, count, alpha in zip(names, counts, alphas)
        ]
        return fused, records

    results = parallel_map(fuse_one, numbered(), jobs)
    if not results:
        raise ValueError("no frames to fuse")
    fused_masks = [fused for fused, _ in results]
    records = [record for _, frame_records in results for record in frame_records]
    return fused_masks, records
