"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written in plain Python (loops, lists,
``math``) so it shares no code path with the numpy/scipy implementations
under test. Expected values frozen into the test suite were produced by
these functions.

The exception is the "bit-exact references" section: numpy/scipy versions
of kernels the package has since rewritten for speed, kept unchanged so
tests can demand ``np.array_equal`` or ``==`` results from the rewrites.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
from scipy import ndimage

from tukeyseg import stats
from tukeyseg.refine import SupervoxelStats
from tukeyseg.segment import COMPONENT_NAMES, SegmenterConfig, flow_measures


# --- robust statistics ---


def quartiles(values):
    """Sort-and-interpolate quartiles at zero-based positions (n-1)*q."""
    xs = sorted(float(v) for v in values)
    n = len(xs)

    def at(p):
        pos = (n - 1) * p
        lo = math.floor(pos)
        hi = math.ceil(pos)
        frac = pos - lo
        return xs[lo] + (xs[hi] - xs[lo]) * frac

    return at(0.25), at(0.5), at(0.75)


def tukey_fences(q1, q3, k=1.5):
    iqr = q3 - q1
    return q1 - k * iqr, q3 + k * iqr


def outlier_scale(values, flags):
    total = sum(abs(v) for v in values)
    if total == 0:
        return 0.0
    return sum(abs(v) for v, f in zip(values, flags) if f) / total


def mask_alphas(counts, k=1.5):
    """Piecewise reliability weights, with limits at collapsed fences."""
    q1, q2, q3 = quartiles(counts)
    o1, o3 = tukey_fences(q1, q3, k)
    out = []
    for n in counts:
        if n == q2:
            out.append(1.0)
        elif n < q2:
            out.append(max((n - o1) / (q2 - o1), 0.0) if q2 > o1 else 0.0)
        else:
            out.append(max((n - o3) / (q2 - o3), 0.0) if q2 < o3 else 0.0)
    return out


# --- connected components (BFS flood fill) ---


def connected_components(grid, connectivity=8):
    """Components of nonzero cells as lists of (row, col), scan order."""
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    if connectivity == 8:
        offsets = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        offsets = [(-1, 0), (0, -1), (0, 1), (1, 0)]
    seen = [[False] * cols for _ in range(rows)]
    components = []
    for r in range(rows):
        for c in range(cols):
            if grid[r][c] and not seen[r][c]:
                queue = deque([(r, c)])
                seen[r][c] = True
                pixels = []
                while queue:
                    pr, pc = queue.popleft()
                    pixels.append((pr, pc))
                    for dr, dc in offsets:
                        nr, nc = pr + dr, pc + dc
                        if 0 <= nr < rows and 0 <= nc < cols:
                            if grid[nr][nc] and not seen[nr][nc]:
                                seen[nr][nc] = True
                                queue.append((nr, nc))
                components.append(pixels)
    return components


def top_segments(grid, weight, n_segments, connectivity=8):
    """Keep the n components with the largest weight sums (same tie rules)."""
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    comps = connected_components(grid, connectivity)

    def key(pixels):
        total = sum(weight[r][c] for r, c in pixels)
        first = min(r * cols + c for r, c in pixels)
        return (-total, -len(pixels), first)

    keep = sorted(comps, key=key)[:n_segments]
    out = [[0] * cols for _ in range(rows)]
    for pixels in keep:
        for r, c in pixels:
            out[r][c] = 1
    return out


# --- the full flow/saliency pipeline, step by step ---


def _flow_components(u, v):
    """The four flow measures of nested lists, one pixel at a time.

    The magnitude is ``math.hypot``, a reference independent of the
    package's square root of the rounded sum of squares. The two agree
    within 1 ulp, which ``rtol=1e-12`` on the foregroundness covers.
    """
    rows, cols = len(u), len(u[0])
    x = [[float(u[r][c]) for c in range(cols)] for r in range(rows)]
    y = [[float(v[r][c]) for c in range(cols)] for r in range(rows)]
    mag = [[math.hypot(u[r][c], v[r][c]) for c in range(cols)] for r in range(rows)]
    ang = [[0.0] * cols for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            a = math.atan2(v[r][c], u[r][c])
            ang[r][c] = math.pi if a == -math.pi else a
    return [x, y, mag, ang]


def _component_stats(field, k):
    flat = [v for row in field for v in row]
    q1, q2, q3 = quartiles(flat)
    o1, o3 = tukey_fences(q1, q3, k)
    flags = [[1 if (v < o1 or v > o3) else 0 for v in row] for row in field]
    flat_flags = [f for row in flags for f in row]
    alpha = outlier_scale(flat, flat_flags)
    return q2, alpha, flags


def foregroundness_field(u, v, vs, k=1.5, exponents=(1.0, 0.5, 1.0 / 3.0), min_scale=0.5):
    """Reference foregroundness of one frame: gated motion plus saliency-weighted deviations."""
    rows, cols = len(u), len(u[0])
    fore = [[0.0] * cols for _ in range(rows)]
    deviation = [[0.0] * cols for _ in range(rows)]
    for comp in _flow_components(u, v):
        q2, alpha, flags = _component_stats(comp, k)
        for r in range(rows):
            for c in range(cols):
                dev = abs(comp[r][c] - q2)
                deviation[r][c] += max(alpha, min_scale) * dev
                if flags[r][c] and alpha >= min_scale:
                    fore[r][c] += alpha * dev
    for exp in exponents:
        for r in range(rows):
            for c in range(cols):
                fore[r][c] += (vs[r][c] ** exp) * deviation[r][c]
    return fore


def pipeline_masks(flows, saliencies, k=1.5, exponents=(1.0, 0.5, 1.0 / 3.0), min_scale=0.5):
    """Reference per-frame masks for the flow/saliency segmenter."""
    masks = []
    prev = None
    for (u, v), vs in zip(flows, saliencies):
        rows, cols = len(u), len(u[0])
        fore = foregroundness_field(u, v, vs, k, exponents, min_scale)
        flat = [v for row in fore for v in row]
        mean = sum(flat) / len(flat)
        std = math.sqrt(sum((v - mean) ** 2 for v in flat) / len(flat))
        beta = mean + std
        mask = [[0] * cols for _ in range(rows)]
        for r in range(rows):
            for c in range(cols):
                discount = 0.5 if (prev is not None and prev[r][c]) else 1.0
                mask[r][c] = 1 if fore[r][c] > beta * discount else 0
        mask = top_segments(mask, fore, 1)
        masks.append(mask)
        prev = mask
    return masks


# --- mask fusion ---


def fuse_masks(mask_list, k=1.5):
    """Reference weighted fusion of one frame's {0,1} masks (list-of-list)."""
    counts = [sum(sum(row) for row in m) for m in mask_list]
    alphas = mask_alphas(counts, k)
    total = sum(alphas)
    rows, cols = len(mask_list[0]), len(mask_list[0][0])
    out = [[0] * cols for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            vote = sum(a * m[r][c] for a, m in zip(alphas, mask_list))
            out[r][c] = 1 if vote / total > 0.5 else 0
    return out, alphas


def mean_vote(mask_list):
    """Reference unweighted fusion: foreground where more than half the masks are."""
    rows, cols = len(mask_list[0]), len(mask_list[0][0])
    return [[1 if 2 * sum(m[r][c] for m in mask_list) > len(mask_list) else 0
             for c in range(cols)] for r in range(rows)]


def lower_median_mask(mask_list):
    """Reference median fusion: the earliest mask whose count is the lower median."""
    counts = [sum(sum(row) for row in m) for m in mask_list]
    median = sorted(counts)[(len(counts) - 1) // 2]
    return mask_list[counts.index(median)]


# --- color conversion ---


def srgb_to_lab(r, g, b):
    """Scalar CIE L*a*b* (D65) of one 8-bit sRGB triple."""

    def linearize(c8):
        c = c8 / 255.0
        return c / 12.92 if c <= 0.04045 else ((c + 0.055) / 1.055) ** 2.4

    rl, gl, bl = linearize(r), linearize(g), linearize(b)
    x = 0.4124564 * rl + 0.3575761 * gl + 0.1804375 * bl
    y = 0.2126729 * rl + 0.7151522 * gl + 0.0721750 * bl
    z = 0.0193339 * rl + 0.1191920 * gl + 0.9503041 * bl
    xn, yn, zn = 0.95047, 1.0, 1.08883
    delta = 6.0 / 29.0

    def f(t):
        return t ** (1.0 / 3.0) if t > delta**3 else t / (3 * delta**2) + 4.0 / 29.0

    fx, fy, fz = f(x / xn), f(y / yn), f(z / zn)
    return 116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)


# --- supervoxel consensus refinement ---


def refine_fields(fore_frames, label_frames, mask_frames, mean_lab_by_id,
                  mode="nonlocal", epsilon=1e-3, w0=None):
    """Reference consensus-adjusted foregroundness fields (pre-selection).

    ``mean_lab_by_id`` maps every supervoxel id to its mean normalized LAB
    triple; label/mask/foregroundness frames are lists of lists.
    """
    counts: dict[int, int] = {}
    fg: dict[int, int] = {}
    for labels, mask in zip(label_frames, mask_frames):
        for lrow, mrow in zip(labels, mask):
            for sid, m in zip(lrow, mrow):
                counts[sid] = counts.get(sid, 0) + 1
                fg[sid] = fg.get(sid, 0) + (1 if m else 0)
    ids = sorted(counts)
    f_local = {sid: (2.0 * fg[sid] - counts[sid]) / counts[sid] for sid in ids}
    if mode == "local":
        f_nonlocal = {sid: 0.0 for sid in ids}
        weight0 = 1.0 if w0 is None else w0
    else:
        n_neighbors = math.ceil(len(ids) / 100)
        f_nonlocal = {}
        for sid in ids:
            others = []
            for other in ids:
                if other == sid:
                    continue
                dist = sum(
                    abs(a - b) for a, b in zip(mean_lab_by_id[sid], mean_lab_by_id[other])
                )
                others.append((dist, other))
            others.sort()
            chosen = others[:n_neighbors]
            raw = [1.0 / max(dist, epsilon) ** 2 for dist, _ in chosen]
            scale = (2.0 / 3.0) / sum(raw)
            f_nonlocal[sid] = sum(
                w * scale * f_local[other] for w, (_, other) in zip(raw, chosen)
            )
        weight0 = (1.0 / 3.0) if w0 is None else w0
    video_max = max(v for frame in fore_frames for row in frame for v in row)
    adjusted = []
    for fore, labels in zip(fore_frames, label_frames):
        frame = []
        for frow, lrow in zip(fore, labels):
            row = []
            for value, sid in zip(frow, lrow):
                scaled = value / video_max if video_max > 0 else 0.0
                row.append(scaled + weight0 * f_local[sid] + f_nonlocal[sid])
            frame.append(row)
        adjusted.append(frame)
    return adjusted


# --- boundaries and contour matching ---


def boundary_pixels(grid):
    """Mask pixels with a background 4-neighbor or on the image border."""
    rows, cols = len(grid), len(grid[0])
    out = set()
    for r in range(rows):
        for c in range(cols):
            if not grid[r][c]:
                continue
            if r in (0, rows - 1) or c in (0, cols - 1):
                out.add((r, c))
                continue
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                if not grid[r + dr][c + dc]:
                    out.add((r, c))
                    break
    return out


def contour_f(pred, ref, tolerance):
    """Brute-force boundary F-measure: pairwise Euclidean distances."""
    bp = boundary_pixels(pred)
    br = boundary_pixels(ref)
    if not bp and not br:
        return 1.0
    if not bp or not br:
        return 0.0

    def fraction_within(source, target):
        hits = 0
        for r, c in source:
            best = min(math.hypot(r - tr, c - tc) for tr, tc in target)
            if best <= tolerance:
                hits += 1
        return hits / len(source)

    precision = fraction_within(bp, br)
    recall = fraction_within(br, bp)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


# --- bit-exact references (numpy) ---


def quartiles_np(sample):
    """Q1/Q2/Q3 from ``np.quantile``'s linear rule on the whole sample."""
    data = np.asarray(sample, dtype=np.float64)
    q1, q2, q3 = np.quantile(data, (0.25, 0.5, 0.75), method="linear")
    return float(q1), float(q2), float(q3)


def rgb_to_lab_pow(rgb):
    """8-bit sRGB to L*a*b* (D65) with a per-pixel ``pow`` linearization."""
    c = np.asarray(rgb).astype(np.float64) / 255.0
    linear = np.where(c <= 0.04045, c / 12.92, ((c + 0.055) / 1.055) ** 2.4)
    srgb_to_xyz = np.array(
        [
            [0.4124564, 0.3575761, 0.1804375],
            [0.2126729, 0.7151522, 0.0721750],
            [0.0193339, 0.1191920, 0.9503041],
        ]
    )
    xyz = linear @ srgb_to_xyz.T
    t = xyz / np.array([0.95047, 1.0, 1.08883])
    delta = 6.0 / 29.0
    f = np.where(t > delta**3, np.cbrt(t), t / (3.0 * delta**2) + 4.0 / 29.0)
    lightness = 116.0 * f[..., 1] - 16.0
    a_axis = 500.0 * (f[..., 0] - f[..., 1])
    b_axis = 200.0 * (f[..., 1] - f[..., 2])
    return np.stack([lightness, a_axis, b_axis], axis=-1)


def frame_foregroundness_full_frame(seq, index, cfg=None):
    """``segment.frame_foregroundness`` with every term a whole-frame temporary.

    The measures and their statistics come from the package; the terms are
    added to +0.0 in the package's order.
    """
    cfg = cfg or SegmenterConfig()
    measures = flow_measures(seq.flow(index))
    vs = seq.saliency(index)
    fore = np.zeros(vs.shape)
    deviations = 0.0
    scales = {}
    for name, component in zip(COMPONENT_NAMES, measures):
        q = stats.quartiles(component)
        outliers = stats.outlier_set(component, stats.fences(q, cfg.k_fences))
        alpha = stats.outlier_scale(component, outliers)
        absdev = np.abs(component.astype(np.float64) - q.q2)
        if alpha >= cfg.min_flow_scale:
            fore += np.where(outliers != 0, alpha * absdev, 0.0)
        deviations = deviations + max(alpha, cfg.min_flow_scale) * absdev
        scales[name] = alpha
    for k in cfg.vs_exponents:
        fore += np.power(vs, k) * deviations
    return fore, scales


def rgb_to_lab_full_frame(rgb):
    """8-bit sRGB to L*a*b* (D65) from a table linearization, whole-array temporaries."""
    levels = np.arange(256) / 255.0
    linear = np.where(levels <= 0.04045, levels / 12.92, ((levels + 0.055) / 1.055) ** 2.4)
    srgb_to_xyz = np.array(
        [
            [0.4124564, 0.3575761, 0.1804375],
            [0.2126729, 0.7151522, 0.0721750],
            [0.0193339, 0.1191920, 0.9503041],
        ]
    )
    t = linear[np.asarray(rgb)] @ srgb_to_xyz.T
    t /= np.array([0.95047, 1.0, 1.08883])
    delta = 6.0 / 29.0
    f = np.cbrt(t)
    dark = t <= delta**3
    f[dark] = t[dark] / (3.0 * delta**2) + 4.0 / 29.0
    lightness = 116.0 * f[..., 1] - 16.0
    a_axis = 500.0 * (f[..., 0] - f[..., 1])
    b_axis = 200.0 * (f[..., 1] - f[..., 2])
    return np.stack([lightness, a_axis, b_axis], axis=-1)


def supervoxel_stats_lab(label_frames, lab_frames, mask_frames):
    """Per-supervoxel tallies of whole LAB frames: one ``np.bincount`` per channel per frame.

    The frames are equal-length lists; ``lab_frames`` may hold any float
    values, not only the LAB of an RGB frame. Each frame's bincounts are
    added to the running sums in frame order, zero-padded to the ids seen.
    """
    if not len(label_frames) == len(lab_frames) == len(mask_frames):
        raise ValueError("label, LAB, and mask frame lists must have equal length")
    counts = np.zeros(0, dtype=np.int64)
    label_sums = np.zeros(0, dtype=np.int64)
    lab_sums = np.zeros((0, 3))
    lab_min, lab_max = np.full(3, np.inf), np.full(3, -np.inf)
    for labels, lab, mask in zip(label_frames, lab_frames, mask_frames):
        flat = np.asarray(labels).ravel().astype(np.intp)
        lab = np.asarray(lab, dtype=np.float64)
        frame_counts = np.bincount(flat, minlength=len(counts))
        if len(frame_counts) > len(counts):
            grown = [np.zeros((len(frame_counts), *a.shape[1:]), a.dtype)
                     for a in (counts, label_sums, lab_sums)]
            for new, old in zip(grown, (counts, label_sums, lab_sums)):
                new[: len(old)] = old
            counts, label_sums, lab_sums = grown
        counts += frame_counts
        label_sums += np.bincount(flat[np.asarray(mask, dtype=bool).ravel()],
                                  minlength=len(counts))
        for channel in range(3):
            values = lab[..., channel].ravel()
            lab_sums[:, channel] += np.bincount(flat, weights=values, minlength=len(counts))
            lab_min[channel] = min(lab_min[channel], values.min())
            lab_max[channel] = max(lab_max[channel], values.max())
    present = np.nonzero(counts)[0]
    return SupervoxelStats(
        ids=present,
        pixel_counts=counts[present],
        label_sums=label_sums[present],
        mean_lab=lab_sums[present] / counts[present, None],
        lab_min=lab_min,
        lab_max=lab_max,
    )


def consensus_rows(ids, f_local, mean_lab, epsilon=1e-3):
    """Non-local votes, one full distance row and one full sort per supervoxel.

    Neighbors are the ceil(n/100) others nearest in city-block mean-LAB
    distance, ties by smaller id; weights 1 / max(d, epsilon)^2 rescaled to
    sum to 2/3.
    """
    ids = np.asarray(ids)
    mean_lab = np.asarray(mean_lab, dtype=np.float64)
    n = len(ids)
    n_neighbors = math.ceil(n / 100)
    f_nonlocal = np.empty(n, dtype=np.float64)
    for i in range(n):
        distances = np.abs(mean_lab - mean_lab[i]).sum(axis=1)
        order = np.lexsort((ids, distances))
        neighbors = order[order != i][:n_neighbors]
        weights = 1.0 / np.maximum(distances[neighbors], epsilon) ** 2
        weights *= (2.0 / 3.0) / weights.sum()
        f_nonlocal[i] = float(weights @ f_local[neighbors])
    return f_nonlocal


def top_segments_ndimage(mask, weight, n_segments, connectivity=8):
    """The n heaviest components from ``ndimage.label``; weights summed in row-major order."""
    structure = ndimage.generate_binary_structure(2, 1 if connectivity == 4 else 2)
    m = np.asarray(mask)
    labeled, count = ndimage.label(m != 0, structure=structure)
    if count <= n_segments:
        return (m != 0).astype(np.uint8)
    flat = labeled.ravel()
    weight_sums = np.bincount(flat, weights=np.asarray(weight, np.float64).ravel(),
                              minlength=count + 1)
    sizes = np.bincount(flat, minlength=count + 1)
    first_pixel = np.full(count + 1, flat.size, dtype=np.int64)
    np.minimum.at(first_pixel, flat, np.arange(flat.size))
    ranked = sorted(
        range(1, count + 1),
        key=lambda c: (-weight_sums[c], -sizes[c], first_pixel[c]),
    )
    keep = np.zeros(count + 1, dtype=bool)
    keep[ranked[:n_segments]] = True
    return keep[labeled].astype(np.uint8)


def jaccard_full_frame(mask, reference):
    """Intersection over union counted over the whole image."""
    m = np.asarray(mask) != 0
    g = np.asarray(reference) != 0
    union = int(np.logical_or(m, g).sum())
    if union == 0:
        return 1.0
    return float(np.logical_and(m, g).sum() / union)


def threshold_mask_field(fore, previous_mask=None):
    """Mean + std threshold, halved under the previous mask, as a float64 threshold field."""
    f = np.asarray(fore, dtype=np.float64)
    beta = float(f.mean() + f.std())
    if previous_mask is None:
        return (f > beta).astype(np.uint8)
    return (f > np.where(np.asarray(previous_mask) != 0, 0.5 * beta, beta)).astype(np.uint8)


def contour_f_full_frame(mask, reference, tolerance):
    """Boundary F-measure with one erosion per mask and two EDTs over the whole image."""
    cross = ndimage.generate_binary_structure(2, 1)
    m = np.asarray(mask) != 0
    g = np.asarray(reference) != 0
    boundary_m = m & ~ndimage.binary_erosion(m, structure=cross, border_value=0)
    boundary_g = g & ~ndimage.binary_erosion(g, structure=cross, border_value=0)
    if not boundary_m.any() and not boundary_g.any():
        return 1.0
    if not boundary_m.any() or not boundary_g.any():
        return 0.0
    distance_to_g = ndimage.distance_transform_edt(~boundary_g)
    distance_to_m = ndimage.distance_transform_edt(~boundary_m)
    precision = float((distance_to_g[boundary_m] <= tolerance).mean())
    recall = float((distance_to_m[boundary_g] <= tolerance).mean())
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def validated_isin(masks):
    """Masks checked for {0, 1} with one ``np.isin`` scan each, returned as uint8 copies."""
    arrays = [np.asarray(m) for m in masks]
    if not arrays:
        raise ValueError("at least one mask is required")
    for a in arrays:
        if a.shape != arrays[0].shape:
            raise ValueError(f"dimension mismatch across masks: {a.shape} vs {arrays[0].shape}")
        if not np.isin(a, (0, 1)).all():
            raise ValueError("mask values must be 0 or 1")
    return [a.astype(np.uint8) for a in arrays]


def vote_full_frame(masks, weights):
    """Weighted vote share > 0.5, summing ``weight * mask`` over the whole frame."""
    weighted = np.zeros(np.shape(masks[0]), dtype=np.float64)
    for weight, mask in zip(weights, masks):
        weighted += weight * mask
    return (weighted / float(np.sum(weights)) > 0.5).astype(np.uint8)


def fuse_frame_full_frame(masks, alphas_of, strategy="tism"):
    """One frame fused from ``validated_isin`` masks and ``vote_full_frame``.

    ``alphas_of`` maps the list of foreground counts to the reliability
    weights; returns (fused mask, weights, counts) like ``fuse_frame``.
    """
    ms = validated_isin(masks)
    counts = [int(m.sum()) for m in ms]
    alphas = alphas_of(counts)
    weights = alphas if strategy == "tism" else np.ones(len(ms))
    if strategy == "median" or float(np.sum(weights)) == 0.0:
        return ms[counts.index(sorted(counts)[(len(counts) - 1) // 2])], alphas, counts
    return vote_full_frame(ms, weights), alphas, counts
