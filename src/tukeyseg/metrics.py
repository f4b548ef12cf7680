"""Region similarity and contour accuracy for binary mask sequences.

Region similarity is the Jaccard index (intersection over union); contour
accuracy is the boundary-matching F-measure under a pixel tolerance. Both
aggregate over a sequence as a mean, a recall indicator (sequence mean above
0.5), and a decay (mean of the first quarter of frames minus mean of the
last quarter).

Contour accuracy follows the DAVIS benchmark (Perazzi et al., CVPR 2016):
boundaries are mask pixels with a background 4-neighbor, the tolerance
defaults to ceil(0.0075 x image diagonal), and a boundary pixel matches when
the other boundary has a pixel within that Euclidean distance. Boundaries and
matches are found with numpy slices on the bounding box of the two masks, so
their cost scales with the object and not the frame. The box comes from the
helper in :mod:`tukeyseg.io` that fusion uses too. Masks are read by io's one
mask rule, as in every stage: 2-D arrays of 0s and 1s only, and a bool mask,
as :mod:`tukeyseg.io` decodes it, is scored without a copy. The evaluation
table is written as CSV by the command-line interface.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from tukeyseg.io import (_check_same_extent, _foreground_box, _mask_array, _mask_dirs,
                         read_mask_dir)
from tukeyseg.parallel import parallel_map

RECALL_THRESHOLD = 0.5
_END = object()  # marks the end of the shorter of two zipped sequences


def _mask_pair(mask, reference) -> tuple[np.ndarray, np.ndarray]:
    """Two same-shape 2-D bool masks cut to the bounding box of their union.

    Both crops are empty when neither mask has a foreground pixel.
    """
    m = _mask_array(mask)
    g = _mask_array(reference)
    if m.shape != g.shape:
        raise ValueError(f"dimension mismatch: {m.shape} vs {g.shape}")
    box = _foreground_box([m, g])
    if box is None:
        return m[:0, :0], g[:0, :0]
    return m[box], g[box]


def jaccard(mask, reference) -> float:
    """Intersection over union; two empty masks score a perfect 1.

    The pixels are counted on the bounding box of both masks, outside which
    neither has any.
    """
    m, g = _mask_pair(mask, reference)
    if m.size == 0:
        return 1.0
    return np.count_nonzero(m & g) / np.count_nonzero(m | g)


def mask_boundary(mask) -> np.ndarray:
    """Mask pixels with a background 4-neighbor or on the image border."""
    m = _mask_array(mask)
    boundary = m.copy()
    boundary[1:-1, 1:-1] &= ~(m[:-2, 1:-1] & m[2:, 1:-1] & m[1:-1, :-2] & m[1:-1, 2:])
    return boundary


def _near(boundary, tolerance) -> np.ndarray:
    """Pixels with a ``boundary`` pixel within Euclidean distance ``tolerance``.

    The test is sqrt(dy**2 + dx**2) <= tolerance on float64, which is exactly
    the test of a Euclidean distance transform's value, since that value is
    the sqrt of the integer squared distance to the nearest boundary pixel.
    For each row offset dy, a window of row prefix counts answers whether row
    y + dy has a boundary pixel within the disk's half-width of each column.
    Offsets are cut to the array's size, as no two of its pixels are further
    apart, so the cost is O(area x min(tolerance, height)) for any tolerance.
    """
    height, width = boundary.shape
    dx_squared = np.arange(width, dtype=np.float64) ** 2

    def half_width(dy):
        return int(np.count_nonzero(np.sqrt(dy * dy + dx_squared) <= tolerance)) - 1

    widest = half_width(0)  # at least 0: contour_f refuses a negative tolerance
    near = np.zeros(boundary.shape, dtype=bool)
    # counts[:, widest + 1 + x] = boundary pixels in columns 0..x of the row,
    # with the row's total beyond the last column and 0 before the first.
    counts = np.zeros((height, width + 2 * widest + 1), dtype=np.int32)
    np.cumsum(boundary, axis=1, out=counts[:, widest + 1:widest + 1 + width])
    counts[:, widest + 1 + width:] = counts[:, widest + width:widest + 1 + width]
    for dy in range(height):
        r = half_width(dy)
        if r < 0:
            break
        hit = (counts[:, widest + r + 1:widest + r + 1 + width]
               > counts[:, widest - r:widest - r + width])
        if dy == 0:
            near |= hit
        else:
            near[:-dy] |= hit[dy:]
            near[dy:] |= hit[:-dy]
    return near


def default_tolerance(width: int, height: int) -> int:
    """Boundary-matching tolerance scaled to the image diagonal."""
    return math.ceil(0.0075 * math.hypot(width, height))


def _check_tolerance(tolerance: float | None) -> None:
    """Refuse a NaN, infinite or negative tolerance; ``None`` asks for the default."""
    if tolerance is not None and not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance {tolerance} is not finite and non-negative")


def contour_f(mask, reference, tolerance: float | None = None) -> float:
    """Boundary-matching F-measure between two masks.

    A boundary pixel matches when a boundary pixel of the other mask lies
    within ``tolerance`` (Euclidean distance). Two empty boundaries score
    1, one empty boundary scores 0. A NaN, infinite or negative
    ``tolerance`` raises ``ValueError``.

    Boundaries and matches are computed on the bounding box of both masks
    only. The result is exactly that of the whole image: every boundary
    pixel lies in the box, and every pixel outside the box is background,
    which is what the boundary test assumes beyond the box's edges.
    """
    _check_tolerance(tolerance)
    m, g = _mask_pair(mask, reference)
    if tolerance is None:
        height, width = np.shape(mask)
        tolerance = default_tolerance(width, height)
    if m.size == 0:
        return 1.0
    boundary_m = mask_boundary(m)
    boundary_g = mask_boundary(g)
    if not boundary_m.any() or not boundary_g.any():
        return 0.0
    precision = float(_near(boundary_g, tolerance)[boundary_m].mean())
    recall = float(_near(boundary_m, tolerance)[boundary_g].mean())
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def score_decay(series) -> float:
    """Mean of the first ceil(T/4) scores minus mean of the last ceil(T/4)."""
    values = [float(v) for v in series]
    if not values:
        raise ValueError("empty score series")
    quarter = math.ceil(len(values) / 4)
    return float(np.mean(values[:quarter]) - np.mean(values[-quarter:]))


@dataclass(frozen=True)
class SequenceScore:
    """Per-frame and aggregate scores for one sequence."""

    j_per_frame: tuple[float, ...]
    f_per_frame: tuple[float, ...]
    j_mean: float
    f_mean: float
    j_recall: bool
    f_recall: bool
    j_decay: float
    f_decay: float


def sequence_scores(masks, references, tolerance: float | None = None) -> SequenceScore:
    """Score a predicted mask sequence against its references.

    ``masks`` and ``references`` may be any iterables. They are walked in
    step, one (prediction, reference) pair at a time, so two lazy sequences
    or generators are never held whole; one that ends before the other
    raises ``ValueError`` ("length mismatch"). Each pair is cut to its
    bounding box once, and the default tolerance taken from the whole
    frame, before the crops are scored.
    """
    j, f = [], []
    for index, (m, g) in enumerate(itertools.zip_longest(masks, references, fillvalue=_END)):
        if m is _END or g is _END:
            ended = "predictions" if m is _END else "references"
            raise ValueError(f"length mismatch: the {ended} end after {index} frames")
        crop_m, crop_g = _mask_pair(m, g)
        height, width = np.shape(m)
        frame_tolerance = default_tolerance(width, height) if tolerance is None else tolerance
        j.append(jaccard(crop_m, crop_g))
        f.append(contour_f(crop_m, crop_g, frame_tolerance))
    if not j:
        raise ValueError("empty sequence")
    j_mean = float(np.mean(j))
    f_mean = float(np.mean(f))
    return SequenceScore(
        j_per_frame=tuple(j),
        f_per_frame=tuple(f),
        j_mean=j_mean,
        f_mean=f_mean,
        j_recall=j_mean > RECALL_THRESHOLD,
        f_recall=f_mean > RECALL_THRESHOLD,
        j_decay=score_decay(j),
        f_decay=score_decay(f),
    )


@dataclass(frozen=True)
class DatasetRow:
    """One line of the evaluation table; recall is 0/1 per sequence and a fraction for ALL."""

    sequence: str
    j_mean: float
    j_recall: float
    j_decay: float
    f_mean: float
    f_recall: float
    f_decay: float


# The six summaries of a row, in the table's column order: every field after ``sequence``.
_SUMMARIES = tuple(f.name for f in fields(DatasetRow))[1:]
_SEQUENCES = "ground-truth sequences"  # what an evaluation's tree of mask directories holds


def evaluate_dataset(
    prediction_root,
    ground_truth_root,
    tolerance: float | None = None,
    jobs: int = 1,
) -> list[DatasetRow]:
    """Score every sequence under a ground-truth root; appends an ALL row.

    Both roots hold one directory per sequence with %05d.pgm masks. Every
    ground-truth sequence must have a matching prediction directory with
    the same mask count and size. An invalid ``tolerance`` is refused
    before any mask is read.
    """
    _check_tolerance(tolerance)
    prediction_root = Path(prediction_root)
    truth_dirs = _mask_dirs(ground_truth_root, _SEQUENCES)
    for truth in truth_dirs:
        if not (prediction_root / truth.name).is_dir():
            raise ValueError(f"missing prediction directory for sequence '{truth.name}'")

    def score_one(truth: Path) -> DatasetRow:
        references = read_mask_dir(truth)
        predictions = read_mask_dir(prediction_root / truth.name)
        _check_same_extent([references, predictions])
        score = sequence_scores(predictions, references, tolerance)
        return DatasetRow(truth.name, *(float(getattr(score, s)) for s in _SUMMARIES))

    rows = parallel_map(score_one, truth_dirs, jobs)
    rows.append(DatasetRow("ALL", *(float(np.mean([getattr(r, s) for r in rows]))
                                    for s in _SUMMARIES)))
    return rows
