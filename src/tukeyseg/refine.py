"""Supervoxel consensus refinement of segmentation masks.

Supervoxels span many frames, so refinement is a two-pass affair: pass one
segments the whole video, pass two folds every frame's labels into
per-supervoxel consensus scores and rewrites each frame's mask. Of pass one
only the foregroundness fields and masks are kept; pass two reads each
label map again and adjusts and thresholds one frame at a time. A
supervoxel's local consensus is its mean label polarity in [-1, 1]; its
non-local consensus is an inverse-square-distance weighted vote among its
nearest neighbors in mean-LAB color. Both are added to the (rescaled)
foregroundness field and the sign of the result decides each pixel, keeping
the two strongest segments per frame.

No LAB frame is ever held. The ``jobs`` worker that decodes a frame and
its labels also tallies it, a band of rows at a time: each band is
converted to LAB in cache-sized scratch and summed per supervoxel into
the frame's partial, and the per-channel LAB bounds are tracked on the
way. The calling thread merges the partials in frame order, so a worker
holds one frame's RGB, labels and partial sums; pass two refines one
frame per worker. Min-max normalization is affine, so
:func:`build_consensus` applies it to the per-supervoxel means rather than
to every pixel.
The neighbor search is exact but pruned: blocks of rows close in color look
only at the columns within a growing radius of their bounding box, and
select each row's k nearest with a partial sort; ties at the k-th distance
go to the smaller id.
"""

from __future__ import annotations

import contextlib
import logging
import math
from dataclasses import dataclass

import numpy as np

from tukeyseg.io import _mask_array
from tukeyseg.parallel import parallel_imap, parallel_map
from tukeyseg.segment import (SegmenterConfig, SegmentationResult, segment_sequence,
                              select_top_segments)
from tukeyseg.stats import _CACHE_ELEMENTS

log = logging.getLogger(__name__)

NONLOCAL_WEIGHT_TOTAL = 2.0 / 3.0
NONLOCAL_EPSILON = 1e-3  # floor on LAB distances before squaring
REFINED_SEGMENTS = 2  # segments each refined frame keeps

# sRGB (D65) to XYZ, IEC 61966-2-1 primaries
_SRGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_D65_WHITE = np.array([0.95047, 1.0, 1.08883])


@dataclass(frozen=True)
class RefineConfig:
    """Consensus mode and local-consensus weight for refinement."""

    mode: str = "nonlocal"   # "local": supervoxel-internal votes only; "nonlocal" adds neighbors
    w0: float | None = None  # local-consensus weight; None derives 1 (local) or 1/3 (nonlocal)

    def __post_init__(self):
        if self.mode not in ("local", "nonlocal"):
            raise ValueError("mode must be 'local' or 'nonlocal'")
        if self.w0 is not None and not math.isfinite(self.w0):
            raise ValueError("w0 must be finite")

    @property
    def local_weight(self) -> float:
        if self.w0 is not None:
            return self.w0
        return 1.0 if self.mode == "local" else 1.0 / 3.0


def _srgb_linear(c: np.ndarray) -> np.ndarray:
    """Undo the sRGB transfer curve on values in [0, 1]."""
    return np.where(c <= 0.04045, c / 12.92, ((c + 0.055) / 1.055) ** 2.4)


# Linear-light value of every 8-bit sRGB level, computed once.
_SRGB_LINEAR_LUT = _srgb_linear(np.arange(256, dtype=np.float64) / 255.0)


def _lab_into(rgb, out, t, f, dark) -> None:
    """Write the L*a*b* of ``rgb`` into the channel planes ``out``.

    ``t``, ``f`` and ``dark`` are scratch of ``rgb``'s shape; ``out`` has
    one plane of ``rgb``'s shape without its channel axis per channel.
    """
    np.matmul(_SRGB_LINEAR_LUT.take(rgb), _SRGB_TO_XYZ.T, out=t)
    # One scalar division per channel view; Y's white is 1.0, which leaves it as it is.
    t[..., 0] /= _D65_WHITE[0]
    t[..., 2] /= _D65_WHITE[2]
    delta = 6.0 / 29.0
    np.cbrt(t, out=f)
    np.less_equal(t, delta**3, out=dark)  # the linear toe of the L*a*b* transfer function
    if dark.any():
        np.divide(t, 3.0 * delta**2, out=f, where=dark)
        np.add(f, 4.0 / 29.0, out=f, where=dark)
    light, a, b = out
    np.multiply(116.0, f[..., 1], out=light)
    light -= 16.0
    np.multiply(500.0, np.subtract(f[..., 0], f[..., 1], out=a), out=a)
    np.multiply(200.0, np.subtract(f[..., 1], f[..., 2], out=b), out=b)


def rgb_to_lab(rgb) -> np.ndarray:
    """Convert 8-bit sRGB (a uint8 array) to CIE L*a*b* under the D65 white point.

    The pixels are converted a band of image rows at a time, into scratch
    reused across bands. Each row stays one ``(width, 3) @ (3, 3)`` product,
    and a 1-D or 2-D array is one row, so the bits do not depend on the band.

    The result has ``rgb``'s shape but is held as three contiguous channel
    planes: it is a channel-last view of planar storage, not C-contiguous,
    and each ``lab[..., c]`` is a C-contiguous plane.
    """
    a = np.asarray(rgb)
    if a.ndim < 1 or a.shape[-1] != 3:
        raise ValueError("rgb array must have a trailing dimension of 3")
    if a.dtype != np.uint8:
        raise ValueError(f"rgb array must be uint8, not {a.dtype}")
    planes = np.empty((3, *a.shape[:-1]))
    width = a.shape[-2] if a.ndim > 1 else 1
    rows = math.prod(a.shape[:-2])
    pixels, lab = a.reshape(rows, width, 3), planes.reshape(3, rows, width)
    band = max(1, min(rows, _CACHE_ELEMENTS // (3 * width or 1)))
    t, f = np.empty((2, band, width, 3))
    dark = np.empty((band, width, 3), dtype=bool)
    for start in range(0, rows, band):
        n = min(band, rows - start)
        _lab_into(pixels[start : start + n], lab[:, start : start + n], t[:n], f[:n], dark[:n])
    return np.moveaxis(planes, 0, -1)


def normalize_lab(lab, low, high) -> np.ndarray:
    """Min-max map each LAB channel to [0, 1] given its video-wide bounds.

    ``lab`` is any array with a trailing channel axis of 3, typically the
    ``(n, 3)`` per-supervoxel means; ``low`` and ``high`` are the per-channel
    extremes over every pixel of the video (``SupervoxelStats.lab_min`` and
    ``lab_max``). The map is affine, so normalizing the means equals taking
    the mean of the normalized pixels, up to rounding; :func:`build_consensus`
    calls it on the means of its table. A channel that is constant across the
    video maps to 0. Non-finite bounds, or ``None``, raise ``ValueError``.
    """
    lab = np.asarray(lab, dtype=np.float64)
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    if not (np.isfinite(low).all() and np.isfinite(high).all()):
        raise ValueError(f"LAB bounds must be given and finite, not low={low}, high={high}")
    span = high - low
    safe = np.where(span > 0, span, 1.0)
    return np.where(span > 0, (lab - low) / safe, 0.0)


@dataclass(frozen=True)
class SupervoxelStats:
    """Per-supervoxel pixel tallies over a supervoxel's full extent."""

    ids: np.ndarray           # (n,) distinct supervoxel ids, ascending
    pixel_counts: np.ndarray  # (n,) pixels carrying each id, all frames
    label_sums: np.ndarray    # (n,) of those, pixels labeled foreground
    mean_lab: np.ndarray      # (n, 3) mean LAB color of the frames tallied
    lab_min: np.ndarray       # (3,) per-channel minimum over every pixel tallied
    lab_max: np.ndarray       # (3,) per-channel maximum over every pixel tallied

    @property
    def local_consensus(self) -> np.ndarray:
        """Mean label polarity per supervoxel: (2 * fg - total) / total in [-1, 1]."""
        return (2.0 * self.label_sums - self.pixel_counts) / self.pixel_counts


@dataclass(frozen=True)
class ConsensusTable:
    """Local and non-local consensus per supervoxel id."""

    ids: np.ndarray
    f_local: np.ndarray
    f_nonlocal: np.ndarray


def _grown(a: np.ndarray, size: int) -> np.ndarray:
    """``a`` zero-padded along its first axis to ``size`` rows."""
    out = np.zeros((size, *a.shape[1:]), dtype=a.dtype)
    out[: len(a)] = a
    return out


def _check_ids(labels: np.ndarray) -> None:
    """Refuse a supervoxel id map of a non-integer dtype, bool too, or with a negative id.

    A float id such as 0.7 would be truncated into supervoxel 0, and a bool
    map would index as a mask rather than as ids.
    """
    if labels.dtype.kind not in "ui":
        raise TypeError(f"Cannot cast supervoxel ids of dtype {labels.dtype} to integers")
    if labels.min() < 0:
        raise ValueError("supervoxel ids must be non-negative")


def _frame_tally(rgb, labels, mask):
    """One frame's per-supervoxel partial: (counts, foreground counts, LAB sums, low, high).

    The counts run over ids 0 to the frame's largest; the LAB sums are
    ``(3, n)`` channel planes, and ``low`` and ``high`` the per-channel LAB
    extremes. The frame is taken a band of rows at a time, converted to LAB
    by :func:`rgb_to_lab` and added into the sums with ``np.add.at`` in pixel
    order: the float additions of one ``np.bincount(weights=)`` per channel
    over the whole frame, so the bits do not depend on the band.
    """
    rgb, labels, mask = np.asarray(rgb), np.asarray(labels), _mask_array(mask)
    if labels.shape != mask.shape or rgb.shape != (*labels.shape, 3):
        raise ValueError(
            f"dimension mismatch: labels {labels.shape}, rgb {rgb.shape}, mask {mask.shape}"
        )
    _check_ids(labels)
    size = int(labels.max()) + 1
    counts = np.zeros(size, dtype=np.int64)
    label_sums = np.zeros(size, dtype=np.int64)
    lab_sums = np.zeros((3, size))
    low, high = np.full(3, np.inf), np.full(3, -np.inf)
    band = max(1, _CACHE_ELEMENTS // (3 * labels.shape[1]))
    for start in range(0, len(labels), band):
        rows = slice(start, start + band)
        ids = labels[rows].ravel().astype(np.intp)
        counts += np.bincount(ids, minlength=size)
        label_sums += np.bincount(ids[mask[rows].ravel()], minlength=size)
        lab = rgb_to_lab(rgb[rows])
        for channel in range(3):
            values = lab[..., channel].ravel()  # a view of rgb_to_lab's planes, no copy
            np.add.at(lab_sums[channel], ids, values)
            low[channel] = min(low[channel], values.min())
            high[channel] = max(high[channel], values.max())
    return counts, label_sums, lab_sums, low, high


def supervoxel_stats(seq, masks, jobs: int = 1) -> SupervoxelStats:
    """Accumulate per-supervoxel tallies over every frame of ``seq``.

    ``seq`` gives each frame's uint8 RGB and supervoxel labels through
    ``seq.frame(i)`` and ``seq.labels(i)``; ``masks`` holds one bool mask per
    frame. Each frame is read and tallied by one of ``jobs`` workers, a band
    of rows at a time, so no LAB frame is built: a worker holds its frame's
    RGB and labels, one band's LAB and the frame's partial sums. The
    partials are merged in frame order, so the result does not depend on
    ``jobs``. ``mean_lab`` is the mean LAB color per supervoxel; ``lab_min``
    and ``lab_max`` are the per-channel extremes over every pixel, the
    bounds ``normalize_lab`` needs.
    """
    if len(masks) != seq.num_frames:
        raise ValueError(f"{len(masks)} masks for {seq.num_frames} frames: "
                         "mask and frame lists must have equal length")
    if not seq.num_frames:
        raise ValueError("no frames")
    counts = np.zeros(0, dtype=np.int64)
    label_sums = np.zeros(0, dtype=np.int64)
    lab_sums = np.zeros((0, 3), dtype=np.float64)
    lab_min = np.full(3, np.inf)
    lab_max = np.full(3, -np.inf)
    partials = parallel_imap(lambda i: _frame_tally(seq.frame(i), seq.labels(i), masks[i]),
                             range(seq.num_frames), jobs)
    with contextlib.closing(partials):
        for frame_counts, frame_label_sums, frame_lab_sums, low, high in partials:
            n = len(frame_counts)
            if n > len(counts):
                counts, label_sums, lab_sums = (_grown(a, n) for a in (counts, label_sums, lab_sums))
            counts[:n] += frame_counts
            label_sums[:n] += frame_label_sums
            lab_sums[:n] += frame_lab_sums.T
            np.minimum(lab_min, low, out=lab_min)
            np.maximum(lab_max, high, out=lab_max)
    present = np.nonzero(counts)[0]
    return SupervoxelStats(
        ids=present,
        pixel_counts=counts[present],
        label_sums=label_sums[present],
        mean_lab=lab_sums[present] / counts[present, None],
        lab_min=lab_min,
        lab_max=lab_max,
    )


_CONSENSUS_BLOCK = 32  # rows per block of the neighbor search
_RADIUS_SAMPLE = 64    # rows whose k-th distance sets the first search radius


def _morton_order(points: np.ndarray) -> np.ndarray:
    """Indices that sort ``(n, 3)`` points along a Z-order curve through their bounding box.

    Each channel is cut into 1024 cells between its minimum and maximum.
    """
    low = points.min(axis=0)
    span = points.max(axis=0) - low
    scale = np.divide(1023, span, out=np.zeros(3), where=span > 0)
    cells = np.clip((points - low) * scale, 0, 1023).astype(np.int64)
    code = np.zeros(len(points), dtype=np.int64)
    for channel in range(3):
        v = cells[:, channel]  # its 10 bits spread to every third bit
        v = (v | (v << 16)) & 0x030000FF
        v = (v | (v << 8)) & 0x0300F00F
        v = (v | (v << 4)) & 0x030C30C3
        v = (v | (v << 2)) & 0x09249249
        code |= v << (2 - channel)
    return np.argsort(code, kind="stable")


def _city_block(channels: np.ndarray, rows, cols) -> np.ndarray:
    """``(len(rows), len(cols))`` distances |dL| + |da| + |db|, added in that order.

    ``channels`` is ``(3, n)``; ``rows`` and ``cols`` index its columns.
    """
    dist = np.abs(channels[0, cols] - channels[0, rows, None])
    for channel in channels[1:]:
        dist += np.abs(channel[cols] - channel[rows, None])
    return dist


def _first_radius(channels: np.ndarray, k: int) -> float:
    """About the 90th percentile of the k-th neighbor distance, over evenly spaced rows."""
    n = channels.shape[1]
    sample = np.arange(0, n, max(1, n // _RADIUS_SAMPLE))[:_RADIUS_SAMPLE]
    kth = []
    for start in range(0, len(sample), _CONSENSUS_BLOCK):
        rows = sample[start : start + _CONSENSUS_BLOCK]
        dist = _city_block(channels, rows, slice(None))
        dist[np.arange(len(rows)), rows] = np.inf
        kth.append(np.partition(dist, k - 1, axis=1)[:, k - 1])
    kth = np.concatenate(kth)
    rank = (9 * len(kth)) // 10
    return float(np.partition(kth, rank)[rank])


def _search_block(channels, ids, rows, k, radius, near, near_dist) -> np.ndarray:
    """The k nearest of ``rows`` among the columns within ``radius`` of their bounding box.

    Fills ``near`` and ``near_dist`` for the rows whose k-th distance is at
    most ``radius`` and returns which rows those are.
    """
    box = channels[:, rows]
    # each column's L1 distance to the box, the channel gaps added in L, a, b order
    gaps = np.maximum(np.maximum(box.min(axis=1, keepdims=True) - channels,
                                 channels - box.max(axis=1, keepdims=True)), 0.0)
    cols = np.flatnonzero(gaps[0] + gaps[1] + gaps[2] <= radius)
    if len(cols) <= k:
        return np.zeros(len(rows), dtype=bool)
    dist = _city_block(channels, rows, cols)
    index = np.arange(len(rows))
    dist[index, np.searchsorted(cols, rows)] = np.inf
    part = np.argpartition(dist, k - 1, axis=1)[:, :k]
    kth = dist[index, part[:, -1]]
    done = kth <= radius
    tied = done & (np.count_nonzero(dist <= kth[:, None], axis=1) > k)
    for row in np.flatnonzero(tied):
        part[row] = np.lexsort((ids[cols], dist[row]))[:k]
    near[rows[done]] = cols[part[done]]
    near_dist[rows[done]] = dist[index[done, None], part[done]]
    return done


def build_consensus(stats: SupervoxelStats, cfg: RefineConfig | None = None) -> ConsensusTable:
    """Compute local consensus and, in non-local mode, neighbor votes.

    The mean colors are first min-max normalized by the table's own LAB
    bounds (:func:`normalize_lab` with ``stats.lab_min`` and ``lab_max``), so
    ``stats`` is passed as :func:`supervoxel_stats` returns it; local mode
    reads no color. Each supervoxel's neighbors are the k = ceil(n/100)
    others closest in city-block normalized mean-LAB distance; a tie at the
    k-th distance goes to the smaller id. Raw weights are
    1 / max(distance, NONLOCAL_EPSILON)^2, rescaled to sum to 2/3, and the
    vote adds neighbors in (distance, id) order.

    The search is exact but pruned. Supervoxels are put in Z-order of their
    means, and each block of 32 consecutive rows in that order computes
    distances only to the columns within a radius r of the block's bounding
    box; r starts near the 90th percentile of the k-th distance of 64
    sampled rows. A row whose k-th distance among those columns is at most
    r is final. The others go again with 2r, or with 1/1024 of the means'
    extent (the sum of the channel ranges) if that is larger; a radius at or
    past the extent takes every column, so the search ends.

    Why it is exact: rounding is monotone, so per channel the computed gap
    of a column to the box (``lo - x`` or ``x - hi``, or 0) is at most the
    rounded ``|d|`` to any row of the box, and the three gaps, added in the
    same order as the distance, sum to at most the rounded distance. Every
    column within r of a row is thus a candidate, so a row with k-th
    distance at most r has among its candidates every column nearer than
    that and every column tied at it, and the smaller id takes the ties as
    in the full search. The distances are the full search's to the bit.
    Memory stays at a few 32-by-n arrays.
    """
    cfg = cfg or RefineConfig()
    f_local = stats.local_consensus
    if cfg.mode == "local":
        return ConsensusTable(stats.ids, f_local, np.zeros_like(f_local))
    n = len(stats.ids)
    if n < 2:
        raise ValueError("non-local consensus needs at least 2 supervoxels")
    points = normalize_lab(stats.mean_lab, stats.lab_min, stats.lab_max)
    if not np.isfinite(points).all():
        raise ValueError("supervoxel mean colors must be finite")
    k = math.ceil(n / 100)
    order = _morton_order(points)
    ids = stats.ids[order]
    channels = np.ascontiguousarray(points[order].T)
    extent = float(np.ptp(channels, axis=1).sum())
    near, near_dist = np.empty((n, k), dtype=np.intp), np.empty((n, k))
    radius = _first_radius(channels, k)
    pending = np.arange(n)
    while len(pending):
        if radius >= extent:
            radius = math.inf  # every column is within it
        left = []
        for start in range(0, len(pending), _CONSENSUS_BLOCK):
            rows = pending[start : start + _CONSENSUS_BLOCK]
            left.append(rows[~_search_block(channels, ids, rows, k, radius, near, near_dist)])
        pending = np.concatenate(left)
        # at least a 1024th of the extent, so that a zero radius grows too
        radius = max(2.0 * radius, extent / 1024)
    # (distance, id) order: by distance alone, except in the rows with a tie
    rank = np.argsort(near_dist, axis=1)
    ranked = np.take_along_axis(near_dist, rank, axis=1)
    tied = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
    rank[tied] = np.lexsort((ids[near[tied]], near_dist[tied]), axis=1)
    near = np.take_along_axis(near, rank, axis=1)
    weights = 1.0 / np.maximum(np.take_along_axis(near_dist, rank, axis=1),
                               NONLOCAL_EPSILON) ** 2
    weights *= NONLOCAL_WEIGHT_TOTAL / weights.sum(axis=1, keepdims=True)
    f_nonlocal = np.empty(n, dtype=np.float64)
    f_nonlocal[order] = (weights[:, None, :] @ f_local[order][near][:, :, None])[:, 0, 0]
    return ConsensusTable(stats.ids, f_local, f_nonlocal)


def adjusted_foregroundness(
    fore,
    labels,
    consensus: ConsensusTable,
    video_max: float,
    cfg: RefineConfig | None = None,
) -> np.ndarray:
    """One frame's consensus-adjusted foregroundness field.

    The field is rescaled to [0, 1] by ``video_max``, the largest
    foregroundness of any frame of the video (a video whose maximum is 0
    stays all-zero), then per pixel the containing supervoxel's weighted
    local and non-local consensus are added. The result is built from the
    gathered consensus term, and the rescaled field is added to it in
    place: addition commutes, so the bits are those of field plus term,
    with one full-frame temporary fewer.
    """
    cfg = cfg or RefineConfig()
    fore, labels = np.asarray(fore, dtype=np.float64), np.asarray(labels)
    if fore.shape != labels.shape:
        raise ValueError(f"dimension mismatch: field {fore.shape} vs labels {labels.shape}")
    _check_ids(labels)
    lookup = np.full(max(int(consensus.ids.max()), int(labels.max())) + 1, np.nan)
    lookup[consensus.ids] = cfg.local_weight * consensus.f_local + consensus.f_nonlocal
    adjusted = lookup[labels]
    if np.any(np.isnan(adjusted)):
        missing = np.unique(labels[np.isnan(adjusted)])
        raise ValueError(f"supervoxel ids missing from consensus table: {missing.tolist()}")
    adjusted += fore / video_max if video_max > 0 else 0.0
    return adjusted


def refine_mask(
    fore,
    labels,
    consensus: ConsensusTable,
    video_max: float,
    cfg: RefineConfig | None = None,
    connectivity: int = 8,
) -> np.ndarray:
    """One frame's refined bool mask from its consensus-adjusted foregroundness.

    Pixels with a positive adjusted foregroundness are foreground; the
    frame then keeps its ``REFINED_SEGMENTS`` strongest segments.
    """
    adjusted = adjusted_foregroundness(fore, labels, consensus, video_max, cfg)
    return select_top_segments(adjusted > 0, adjusted, REFINED_SEGMENTS, connectivity)


@dataclass
class RefinementResult:
    """Refined masks plus the intermediate products that shaped them."""

    masks: list[np.ndarray]
    initial: SegmentationResult
    consensus: ConsensusTable


def refine_sequence(
    seq,
    seg_cfg: SegmenterConfig | None = None,
    ref_cfg: RefineConfig | None = None,
    jobs: int = 1,
) -> RefinementResult:
    """Segment a sequence, then refine every frame with supervoxel consensus.

    Pass two reads each label map again, so one rewritten since pass one
    fails with the ``ValueError`` that names the ids the table lacks.
    """
    seg_cfg = seg_cfg or SegmenterConfig()
    ref_cfg = ref_cfg or RefineConfig()
    if not seq.has_labels:
        raise ValueError(f"sequence '{seq.name}': supervoxel label rasters are required")
    initial = segment_sequence(seq, seg_cfg, jobs)
    table = build_consensus(supervoxel_stats(seq, initial.masks, jobs), ref_cfg)
    log.info("consensus over %d supervoxels (mode=%s)", len(table.ids), ref_cfg.mode)
    video_max = max(float(fore.max()) for fore in initial.foregroundness)
    masks = parallel_map(
        lambda i: refine_mask(initial.foregroundness[i], seq.labels(i), table, video_max,
                              ref_cfg, seg_cfg.connectivity),
        range(seq.num_frames),
        jobs,
    )
    return RefinementResult(masks=masks, initial=initial, consensus=table)
