"""Robust statistics kernel: quartiles, Tukey fences, and outlier scales.

Everything here is a pure function of its inputs and safe to call from any
number of threads. Samples may be passed as any array-like; the bool
indicator masks returned by :func:`outlier_set` match the input's shape. A
float32 sample is read at its own width and any other as float64; the
arithmetic is float64 either way, so a float32 sample gives the results of
its exact float64 widening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Quartiles:
    """First, second (median), and third quartiles of a sample."""

    q1: float
    q2: float
    q3: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


@dataclass(frozen=True)
class OutlierFences:
    """Tukey thresholds: values strictly outside (o1, o3) are outliers."""

    o1: float
    o3: float
    k: float


def _sample_array(data) -> np.ndarray:
    """``data`` as an array: a float32 one as it is, anything else as float64.

    This is the one finiteness check of a sample: a NaN or infinite value
    raises ``ValueError``.
    """
    d = np.asarray(data)
    d = d if d.dtype == np.float32 else np.asarray(d, dtype=np.float64)
    if not np.all(np.isfinite(d)):
        raise ValueError("non-finite input")
    return d


def quartiles(sample) -> Quartiles:
    """Compute Q1/Q2/Q3 by linear interpolation between order statistics.

    Uses the "type 7" rule of Hyndman & Fan (1996), numpy's
    ``method="linear"``: the q-quantile sits at zero-based position
    p = (n - 1) * q of the sorted sample, between the order statistics a at
    k = floor(p) and b at k + 1, and equals ``a + (b - a) * g`` with
    g = p - k, or ``b - (b - a) * (1 - g)`` where g >= 0.5. Each quartile has
    the bits of ``np.quantile(sample, q, method="linear")`` on the sample
    widened to float64, save possibly the sign of a zero result.

    The sample is copied once, flattened, and only the six order statistics
    needed are selected in the copy: one partition at the median's k, then
    one partition of each half at Q1's and Q3's k; each b is the minimum of
    the values between its a and the next partition point. Samples of fewer
    than 4 values are sorted instead. The caller's array is never reordered,
    so one array may be shared by any number of threads.

    The selection runs on integer keys of the sample's own width, which
    order as the values do: each value is keyed by its bits as the signed
    integer of its width (int32 for a float32 sample, which is not widened,
    int64 for any other), with every bit but the sign flipped on negative
    values. The six order statistics are then widened, which is exact, and
    interpolated on Python floats.

    Raises ``ValueError`` for an empty or non-finite sample, and for a
    finite one whose spread overflows float64 (a quartile or the IQR would
    be infinite or NaN).
    """
    data = _sample_array(sample)
    if data.size == 0:
        raise ValueError("empty sample")
    work = data.view(np.int32 if data.dtype == np.float32 else np.int64).flatten()
    _flip_negatives(work)
    n = work.size
    positions = [(n - 1) * q for q in (0.25, 0.5, 0.75)]
    k1, k2, k3 = lows = [math.floor(p) for p in positions]
    if n < 4:
        work.sort()
        picked = [work[i] for k in lows for i in (k, min(k + 1, n - 1))]
    else:
        work.partition(k2)
        work[:k2].partition(k1)
        work[k2 + 1 :].partition(k3 - k2 - 1)
        picked = [
            work[k1], work[k1 + 1 : k2 + 1].min(),
            work[k2], work[k2 + 1 : k3 + 1].min(),
            work[k3], work[k3 + 1 :].min(),
        ]
    values = np.array(picked, dtype=work.dtype)
    _flip_negatives(values)
    values = values.view(data.dtype).tolist()
    q = Quartiles(*(
        _lerp(values[2 * i], values[2 * i + 1], p - k)
        for i, (p, k) in enumerate(zip(positions, lows))
    ))
    if not all(math.isfinite(v) for v in (q.q1, q.q2, q.q3, q.iqr)):
        raise ValueError("sample spread overflows float64")
    return q


# values per block of _flip_negatives: 256 KB of int32 or 512 KB of int64 temporary
_FLIP_BLOCK = 1 << 16


def _flip_negatives(keys: np.ndarray) -> None:
    """Flip every bit but the sign of the negative 1-D int32 or int64 ``keys``, in place.

    On the bits of float values of the same width this gives keys that
    order as the values do (-0.0 just below +0.0), and on such keys it
    gives the bits back. It runs a block at a time, so its temporary is one
    block, not a second copy of the keys.
    """
    sign = 8 * keys.itemsize - 1
    low = (1 << sign) - 1
    for block in np.split(keys, range(_FLIP_BLOCK, keys.size, _FLIP_BLOCK)):
        flip = block >> sign
        flip &= low
        block ^= flip


def _lerp(a: float, b: float, g: float) -> float:
    """numpy's ``_lerp`` on Python floats, which overflow without a warning."""
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def fences(q: Quartiles, k: float = 1.5) -> OutlierFences:
    """Tukey fences at Q1 - k*IQR and Q3 + k*IQR."""
    if not np.isfinite(k):
        raise ValueError("non-finite fence constant")
    if k < 0:
        raise ValueError("fence constant must be non-negative")
    return OutlierFences(q.q1 - k * q.iqr, q.q3 + k * q.iqr, float(k))


def outlier_set(data, f: OutlierFences) -> np.ndarray:
    """Bool indicator of values strictly below o1 or strictly above o3.

    The comparisons are made in float64: a float32 sample is widened inside
    the ufunc, value by value, never rounding a fence to float32.
    """
    d = _sample_array(data)
    # np.float64 fences, since NEP 50 would round a Python float to the array's float32
    return (d < np.float64(f.o1)) | (d > np.float64(f.o3))


def outlier_scale(data, outliers) -> float:
    """Fraction of the data's total absolute magnitude carried by outliers.

    A bool ``outliers``, as :func:`outlier_set` returns, is read without a
    copy. Returns 0 when the outlier set is empty, and also when the data
    sums to zero magnitude (an all-zero source carries no signal to weight).
    The magnitudes are float64 whatever the data's width, and summed as such.
    """
    o = np.asarray(outliers, dtype=bool)
    if np.shape(data) != o.shape:
        raise ValueError(f"dimension mismatch: data {np.shape(data)} vs outliers {o.shape}")
    d = _sample_array(data)
    magnitude = np.abs(d, dtype=np.float64)
    total = float(magnitude.sum())
    if total == 0.0:
        return 0.0
    return float(magnitude[o].sum() / total)


def mask_outlier_scales(counts, k: float = 1.5) -> np.ndarray:
    """Reliability weights for masks from their foreground-pixel counts.

    Each count is scored by proximity to the median count across all masks:
    1.0 at the median, falling linearly to 0 at the Tukey fences, and 0 for
    counts at or beyond a fence. Counts sitting exactly on the median always
    score 1, which also covers the degenerate zero-spread cases (for an
    all-equal count list every mask scores 1); counts away from a collapsed
    fence score 0, the limit of the linear ramp.
    """
    n = np.asarray(counts, dtype=np.float64)
    if n.size == 0:
        raise ValueError("empty count list")
    q = quartiles(n)
    f = fences(q, k)
    alphas = np.zeros(n.shape, dtype=np.float64)
    at_median = n == q.q2
    below = n < q.q2
    above = ~(at_median | below)
    alphas[at_median] = 1.0
    if q.q2 > f.o1:
        alphas[below] = np.maximum((n[below] - f.o1) / (q.q2 - f.o1), 0.0)
    if q.q2 < f.o3:
        alphas[above] = np.maximum((n[above] - f.o3) / (q.q2 - f.o3), 0.0)
    return alphas
