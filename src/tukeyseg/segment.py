"""Foreground discovery from optical-flow and visual-saliency outliers.

Per frame, four flow measures (x, y, magnitude, angle) are screened for
statistical outliers; outlier pixels accumulate motion saliency weighted by
each measure's outlier scale, and a visual-saliency map modulates the
un-gated deviation sum. :func:`frame_foregroundness` is the one place these
terms are computed and summed; it relies on the
:class:`~tukeyseg.io.FrameSequence` accessors for rasters of the sequence's
shape. The foregroundness field is thresholded at mean + standard
deviation, with a half-threshold discount wherever the previous frame's
mask was foreground, and reduced to the single strongest connected segment.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from tukeyseg import stats
from tukeyseg.io import FlowField, FrameSequence
from tukeyseg.parallel import parallel_map

log = logging.getLogger(__name__)

COMPONENT_NAMES = ("x", "y", "magnitude", "angle")

_STRUCTURES = {
    4: ndimage.generate_binary_structure(2, 1),
    8: np.ones((3, 3), dtype=bool),
}


@dataclass(frozen=True)
class SegmenterConfig:
    """Tuning knobs for the outlier segmenter."""

    k_fences: float = 1.5
    vs_exponents: tuple[float, ...] = (1.0, 0.5, 1.0 / 3.0)
    min_flow_scale: float = 0.5
    connectivity: int = 8

    def __post_init__(self):
        if not self.vs_exponents or any(k <= 0 for k in self.vs_exponents):
            raise ValueError("visual-saliency exponents must be positive")
        if not 0.0 <= self.min_flow_scale <= 1.0:
            raise ValueError("min_flow_scale must lie in [0, 1]")
        if self.connectivity not in (4, 8):
            raise ValueError("connectivity must be 4 or 8")


@dataclass(frozen=True)
class FlowMeasures:
    """The four per-pixel scalar measures derived from one flow field."""

    x: np.ndarray
    y: np.ndarray
    magnitude: np.ndarray  # sqrt(x^2 + y^2), >= 0
    angle: np.ndarray      # atan2(y, x) in (-pi, pi]; zero vector maps to 0

    def as_tuple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.x, self.y, self.magnitude, self.angle)


def flow_measures(flow: FlowField) -> FlowMeasures:
    """Derive x/y components, Euclidean magnitude, and angle from a flow field."""
    u = np.asarray(flow.u, dtype=np.float64)
    v = np.asarray(flow.v, dtype=np.float64)
    magnitude = np.hypot(u, v)
    angle = np.arctan2(v, u)
    angle = np.where(angle == -np.pi, np.pi, angle)
    return FlowMeasures(x=u, y=v, magnitude=magnitude, angle=angle)


def threshold_mask(fore, previous_mask=None) -> np.ndarray:
    """Binarize foregroundness at mean + population standard deviation.

    Pixels under the previous frame's mask only need to clear half the
    threshold, which favors frame-to-frame continuity. Pass ``None`` for
    the first frame.
    """
    f = np.asarray(fore, dtype=np.float64)
    beta = float(f.mean() + f.std())
    if previous_mask is None:
        return (f > beta).astype(np.uint8)
    prev = np.asarray(previous_mask)
    if prev.shape != f.shape:
        raise ValueError(f"dimension mismatch: field {f.shape} vs previous mask {prev.shape}")
    threshold = np.where(prev != 0, 0.5 * beta, beta)
    return (f > threshold).astype(np.uint8)


def select_top_segments(mask, weight, n_segments: int = 1, connectivity: int = 8) -> np.ndarray:
    """Keep only the n connected components with the largest weight sums.

    Ties go to the larger component, then to the component whose first
    row-major pixel comes first, so the result is fully deterministic.
    """
    m = np.asarray(mask)
    w = np.asarray(weight, dtype=np.float64)
    if m.shape != w.shape:
        raise ValueError(f"dimension mismatch: mask {m.shape} vs weight {w.shape}")
    if connectivity not in _STRUCTURES:
        raise ValueError("connectivity must be 4 or 8")
    labeled, count = ndimage.label(m != 0, structure=_STRUCTURES[connectivity])
    if count <= n_segments:
        return (m != 0).astype(np.uint8)
    flat = labeled.ravel()
    weight_sums = np.bincount(flat, weights=w.ravel(), minlength=count + 1)
    sizes = np.bincount(flat, minlength=count + 1)
    first_pixel = np.full(count + 1, flat.size, dtype=np.int64)
    np.minimum.at(first_pixel, flat, np.arange(flat.size))
    ranked = sorted(
        range(1, count + 1),
        key=lambda c: (-weight_sums[c], -sizes[c], first_pixel[c]),
    )
    keep = np.zeros(count + 1, dtype=bool)
    keep[ranked[:n_segments]] = True
    keep[0] = False
    return keep[labeled].astype(np.uint8)


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
    """
    cfg = cfg or SegmenterConfig()
    measures = flow_measures(seq.flow(index))
    vs = seq.saliency(index)
    fore = np.zeros(vs.shape)
    deviations = 0.0
    scales = {}
    for name, component in zip(COMPONENT_NAMES, measures.as_tuple()):
        q = stats.quartiles(component)
        outliers = stats.outlier_set(component, stats.fences(q, cfg.k_fences))
        alpha = stats.outlier_scale(component, outliers)
        absdev = np.abs(component - q.q2)
        if alpha >= cfg.min_flow_scale:
            fore += np.where(outliers != 0, alpha * absdev, 0.0)
        deviations = deviations + max(alpha, cfg.min_flow_scale) * absdev
        scales[name] = alpha
    for k in cfg.vs_exponents:
        fore += np.power(vs, k) * deviations
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
        log.debug("frame %d: %d foreground pixels, scales %s", index, int(mask.sum()), scales)
    return SegmentationResult(
        masks=masks,
        foregroundness=[fore for fore, _ in per_frame],
        flow_scales=[scales for _, scales in per_frame],
    )
