"""Foreground discovery from optical-flow and visual-saliency outliers.

Per frame, four flow measures (x, y, magnitude, angle) are screened for
statistical outliers; outlier pixels accumulate motion saliency weighted by
each measure's outlier scale, and a visual-saliency map modulates the
un-gated deviation sum. :func:`frame_foregroundness` is the one place these
terms are computed and summed; it relies on the
:class:`~tukeyseg.io.FrameSequence` accessors for rasters of the sequence's
shape. The statistics take whole-frame measures, x and y at the width the
flow was decoded (float32 from ``.flo``) with float64 arithmetic inside each
ufunc, so the values are those of the widened flow. The magnitude is the
correctly rounded square root of the once-rounded float64 sum of the
components' exact squares: its bits depend on no libm, and it is within 1
ulp of ``hypot``. The terms are summed a band of rows at a time, in buffers
of about 512 KB each so that they stay in cache. Each pixel's operations
keep their whole-frame order, so the bits do not depend on the band. The
foregroundness field is thresholded at mean + standard deviation, with a
half-threshold discount wherever the previous frame's mask was foreground,
and reduced to the single strongest connected segment. Segments are labelled
in numpy from the mask's row runs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from tukeyseg import stats
from tukeyseg.io import FlowField, FrameSequence, _mask_array
from tukeyseg.parallel import parallel_map

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SegmenterConfig:
    """Tuning knobs for the outlier segmenter."""

    k_fences: float = 1.5
    vs_exponents: tuple[float, ...] = (1.0, 0.5, 1.0 / 3.0)
    min_flow_scale: float = 0.5
    connectivity: int = 8

    def __post_init__(self):
        if not 0 <= self.k_fences < math.inf:
            raise ValueError("k_fences must be finite and non-negative")
        if not self.vs_exponents or not all(0 < k < math.inf for k in self.vs_exponents):
            raise ValueError("visual-saliency exponents must be finite and positive")
        if not 0.0 <= self.min_flow_scale <= 1.0:
            raise ValueError("min_flow_scale must lie in [0, 1]")
        if self.connectivity not in (4, 8):
            raise ValueError("connectivity must be 4 or 8")


class FlowMeasures(NamedTuple):
    """The four per-pixel measures of one flow field; their names are ``COMPONENT_NAMES``.

    ``x`` and ``y`` are the flow's own arrays, of its dtype (float32 from a
    ``.flo`` file); ``magnitude`` and ``angle`` are float64.
    """

    x: np.ndarray
    y: np.ndarray
    magnitude: np.ndarray  # sqrt(x^2 + y^2), >= 0
    angle: np.ndarray      # atan2(y, x) in (-pi, pi]; zero vector maps to 0


COMPONENT_NAMES = FlowMeasures._fields


def flow_measures(flow: FlowField) -> FlowMeasures:
    """Derive x/y components, Euclidean magnitude, and angle from a flow field.

    The components are returned as given, not copied or widened. Magnitude
    and angle are computed in float64, each component widened inside the
    ufunc, so they have the bits of the widened flow's. A float32
    component's square is exact in float64, so the magnitude rounds only
    the sum of the squares and its square root, both correctly rounded
    IEEE 754 operations. Its bits depend on no libm or SIMD dispatch, and
    it is within 1 ulp of ``hypot``.
    """
    u, v = np.asarray(flow.u), np.asarray(flow.v)
    # v*v goes in the angle's array, which arctan2 then overwrites, so that
    # no third float64 array is made.
    magnitude = np.multiply(u, u, dtype=np.float64)
    angle = np.multiply(v, v, dtype=np.float64)
    np.sqrt(np.add(magnitude, angle, out=magnitude), out=magnitude)
    np.arctan2(v, u, out=angle, dtype=np.float64)
    angle[angle == -np.pi] = np.pi
    return FlowMeasures(x=u, y=v, magnitude=magnitude, angle=angle)


def threshold_mask(fore, previous_mask=None) -> np.ndarray:
    """Binarize foregroundness at mean + population standard deviation into a bool mask.

    Pixels under the previous frame's mask only need to clear half the
    threshold, which favors frame-to-frame continuity. Pass ``None`` for
    the first frame; a previous mask must be 2-D and hold 0s and 1s only.
    """
    f = np.asarray(fore, dtype=np.float64)
    beta = float(f.mean() + f.std())
    if previous_mask is None:
        return f > beta
    prev = _mask_array(previous_mask)
    if prev.shape != f.shape:
        raise ValueError(f"dimension mismatch: field {f.shape} vs previous mask {prev.shape}")
    return np.where(prev, f > 0.5 * beta, f > beta)


def _run_components(fg, connectivity):
    """Label the foreground of a 2-D bool array as row runs.

    Returns each run's first pixel (a flat row-major index), length and
    component, runs in row-major order, and the number of components.
    Components are numbered in the order of their first run, which is the
    order of their first row-major pixel.
    """
    height, width = fg.shape
    stride = width + 2
    padded = np.zeros((height, stride), dtype=np.int8)
    padded[:, 1:-1] = fg
    # Each row is framed by two zero columns, so runs never cross rows and
    # nonzero steps alternate between a start (+1) and an end (-1).
    steps = np.flatnonzero(np.diff(padded.ravel()))
    starts, ends = steps[0::2], steps[1::2]
    # Run j of the previous row touches run i when their column ranges overlap;
    # under 8-connectivity the ranges are widened by one column. The framing
    # columns keep these ranges from reaching any other row.
    widen = 1 if connectivity == 8 else 0
    first = np.searchsorted(ends + stride, starts - widen, side="right")
    stop = np.searchsorted(starts + stride, ends + widen, side="left")
    links = np.maximum(stop - first, 0)
    below = np.repeat(np.arange(starts.size), links)
    above = np.arange(below.size) - np.repeat(np.cumsum(links) - links - first, links)
    # Hook each root to the smallest root it is linked to, then jump pointers
    # until every run points at its root; repeat until no link joins two roots.
    # A parent is never larger than its run, so each root is its component's
    # first run.
    parent = np.arange(starts.size)
    while True:
        a, b = parent[below], parent[above]
        joins = a != b
        if not joins.any():
            break
        np.minimum.at(parent, np.maximum(a, b)[joins], np.minimum(a, b)[joins])
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped
    is_root = parent == np.arange(starts.size)
    component = (np.cumsum(is_root) - 1)[parent]
    # A start step sits just before its run's first pixel, at padded column
    # c + 1 of frame column c, so it is the pixel's flat index plus 2 per row.
    first_pixel = starts - 2 * (starts // stride)
    return first_pixel, ends - starts, component, int(np.count_nonzero(is_root))


def _run_pixels(first_pixel, lengths):
    """Flat row-major indices of every pixel of the given runs, run by run."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(first_pixel - offsets, lengths)


def select_top_segments(mask, weight, n_segments: int = 1, connectivity: int = 8) -> np.ndarray:
    """Keep only the n connected components with the largest weight sums, as a new bool mask.

    Ties go to the larger component, then to the component whose first
    row-major pixel comes first, so the result is fully deterministic. Each
    component's weights are added in row-major order.

    Past labelling, the work is in the runs and their pixels, not the
    frame: weights are gathered and kept runs painted from the runs' first
    pixels, and only the components weighing at least the n-th largest
    sum are ranked.
    """
    fg = _mask_array(mask)
    w = np.asarray(weight, dtype=np.float64)
    if fg.shape != w.shape:
        raise ValueError(f"dimension mismatch: mask {fg.shape} vs weight {w.shape}")
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    if n_segments < 1:
        raise ValueError("n_segments must be at least 1")
    first_pixel, lengths, component, count = _run_components(fg, connectivity)
    if count <= n_segments:
        return fg.copy()
    weight_sums = np.bincount(np.repeat(component, lengths),
                              weights=w.ravel()[_run_pixels(first_pixel, lengths)],
                              minlength=count)
    # Only components whose sum is at least the n-th largest can be kept. A
    # NaN key sorts last, as in the full sort, and stays a candidate.
    keys = -weight_sums
    nth = np.partition(keys, n_segments - 1)[n_segments - 1]
    candidates = np.flatnonzero(~(keys > nth))
    sizes = np.bincount(component, weights=lengths, minlength=count)[candidates]
    # lexsort is stable and components are numbered by first pixel, which
    # settles the remaining ties.
    ranked = candidates[np.lexsort((-sizes, keys[candidates]))]
    keep = np.zeros(count, dtype=bool)
    keep[ranked[:n_segments]] = True
    kept = keep[component]
    out = np.zeros(fg.shape, dtype=bool)
    out.ravel()[_run_pixels(first_pixel[kept], lengths[kept])] = True
    return out


@dataclass
class SegmentationResult:
    """Per-frame outputs of a segmentation run."""

    masks: list[np.ndarray]
    foregroundness: list[np.ndarray]
    flow_scales: list[dict[str, float]]  # per frame, per flow component


def frame_foregroundness(seq: FrameSequence, index: int, cfg: SegmenterConfig | None = None):
    """Foregroundness field and flow-component scales for one frame.

    Each flow measure d with outlier scale alpha and frame median m adds
    alpha * |d - m| at its outlier pixels when alpha >= ``min_flow_scale``
    (motion saliency), and max(alpha, ``min_flow_scale``) * |d - m| at every
    pixel to an un-gated deviation sum. Each visual-saliency exponent k then
    adds vs**k times that sum. The terms are added to +0.0 in this order;
    floating-point addition is not associative, so the order fixes the bits.

    The terms are computed a band of rows at a time, in buffers reused
    across bands.
    """
    cfg = cfg or SegmenterConfig()
    measures = flow_measures(seq.flow(index))
    vs = seq.saliency(index)
    terms = []
    scales = {}
    for name, component in zip(COMPONENT_NAMES, measures):
        q = stats.quartiles(component)
        outliers = stats.outlier_set(component, stats.fences(q, cfg.k_fences))
        alpha = stats.outlier_scale(component, outliers)
        gate = outliers if alpha >= cfg.min_flow_scale else None
        terms.append((component, q.q2, alpha, gate, max(alpha, cfg.min_flow_scale)))
        scales[name] = alpha
    fore = np.zeros(vs.shape)
    height, width = fore.shape
    band = min(height, max(1, stats._CACHE_ELEMENTS // width))
    buffers = np.empty((3, band, width))
    for start in range(0, height, band):
        rows = slice(start, start + band)
        out = fore[rows]
        absdev, term, deviations = buffers[:, : len(out)]
        deviations.fill(0.0)
        for component, median, alpha, gate, floored in terms:
            # a float32 component is widened inside the ufunc, not in a copy
            np.abs(np.subtract(component[rows], median, out=absdev, dtype=np.float64),
                   out=absdev)
            if gate is not None:
                # Off the outliers the motion term is +0.0, which changes only a
                # -0.0 sum; a sum started at +0.0 never is one, so it is not added.
                np.multiply(alpha, absdev, out=term)
                np.add(out, term, out=out, where=gate[rows])
            deviations += np.multiply(floored, absdev, out=term)
        for k in cfg.vs_exponents:
            out += np.multiply(np.power(vs[rows], k, out=term), deviations, out=term)
    return fore, scales


def segment_sequence(
    seq: FrameSequence,
    cfg: SegmenterConfig | None = None,
    jobs: int = 1,
) -> SegmentationResult:
    """Run the full segmenter over a sequence.

    Foregroundness fields are computed independently per frame (and may be
    fanned out over ``jobs`` threads); thresholding is a sequential fold
    because each frame's discount reads the previous frame's mask.
    """
    cfg = cfg or SegmenterConfig()
    if not seq.has_flow:
        raise ValueError(f"sequence '{seq.name}': flow rasters are required")
    if not seq.has_saliency:
        raise ValueError(f"sequence '{seq.name}': saliency rasters are required")
    per_frame = parallel_map(
        lambda i: frame_foregroundness(seq, i, cfg), range(seq.num_frames), jobs
    )
    masks: list[np.ndarray] = []
    previous = None
    for index, (fore, scales) in enumerate(per_frame):
        mask = threshold_mask(fore, previous)
        mask = select_top_segments(mask, fore, 1, cfg.connectivity)
        masks.append(mask)
        previous = mask
        if log.isEnabledFor(logging.DEBUG):
            log.debug("frame %d: %d foreground pixels, scales %s", index, int(mask.sum()), scales)
    return SegmentationResult(
        masks=masks,
        foregroundness=[fore for fore, _ in per_frame],
        flow_scales=[scales for _, scales in per_frame],
    )
