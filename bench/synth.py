"""Seeded synthetic inputs at DAVIS size, written through the public tukeyseg.io writers.

Every raster comes from ``numpy.random.default_rng(seed)``, so one seed
always yields byte-identical files. The seed changes the noise and jitters
the geometry a little; sizes, shares and counts come from the shape only,
so timings and scores stay comparable across seeds.

A video is a static textured background with one red ellipse moving
across it. Its flow is noisy everywhere and carries the object's motion
inside the ellipse; saliency is high on the object and low elsewhere. The
supervoxels are square tiles: a background grid that drifts by one pixel
per frame, and a grid that moves with the object and also covers a thin
ring of background around it, so refinement has mixed tiles to decide.
A fusion sequence is a moving ellipse as ground truth plus per-method
masks that are jittered copies of it, with some frames where one or two
methods return a mask far too large or empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tukeyseg.io import (
    FlowField,
    write_flo,
    write_mask_pgm,
    write_pgm16,
    write_ppm,
    write_saliency_pgm,
)

FLOW_NOISE = 0.25       # px, standard deviation of the flow on every pixel
SVX_LEAK = 6.0          # px of background around the object that its supervoxels also cover
OUTLIER_FRAME_SHARE = 0.3
OUTLIER_SCALE = 3.5     # an oversized outlier mask has about 12x the object's area


@dataclass(frozen=True)
class VideoShape:
    frames: int
    tile: int             # supervoxel tile edge in pixels
    object_share: float   # object area / frame area


@dataclass(frozen=True)
class FusionShape:
    sequences: int
    frames: int
    methods: int
    object_share: float


def _ellipse(height, width, cx, cy, a, b) -> np.ndarray:
    """{0,1} mask of the axis-aligned ellipse, rasterised on its bounding box only."""
    mask = np.zeros((height, width), dtype=np.uint8)
    y0, y1 = max(0, int(cy - b) - 1), min(height, int(cy + b) + 2)
    x0, x1 = max(0, int(cx - a) - 1), min(width, int(cx + a) + 2)
    if y0 >= y1 or x0 >= x1:
        return mask
    ys = (np.arange(y0, y1) - cy) / b
    xs = (np.arange(x0, x1) - cx) / a
    mask[y0:y1, x0:x1] = (ys[:, None] ** 2 + xs[None, :] ** 2 <= 1.0)
    return mask


def _axes(height, width, share) -> tuple[float, float]:
    """Semi-axes (a, b) with a = 1.4 b whose ellipse covers ``share`` of the frame."""
    b = math.sqrt(share * height * width / (1.4 * math.pi))
    return 1.4 * b, b


def _track(rng, height, width, a, b, frames) -> list[tuple[float, float]]:
    """Object centres: a straight path across the frame, 2-3 px per frame in x."""
    vx = rng.uniform(2.0, 3.0) * min(1.0, (width - 2 * a - 8) / (3.0 * max(frames - 1, 1)))
    vy = rng.uniform(-0.5, 0.5)
    cx0 = a + 4 + rng.uniform(0, 4)
    cy0 = height / 2 + rng.uniform(-0.1, 0.1) * height
    return [(cx0 + vx * t, cy0 + vy * t) for t in range(frames)]


def write_video(root, truth_root, seed, height, width, shape: VideoShape) -> None:
    """Write one video directory and its ground-truth masks."""
    rng = np.random.default_rng(seed)
    root, truth_root = Path(root), Path(truth_root)
    dirs = {name: root / name for name in ("frames", "flow", "saliency", "svx")}
    for d in (*dirs.values(), truth_root):
        d.mkdir(parents=True, exist_ok=True)

    # Background blocks stay clear of the object's red, so that scores do not hinge on
    # which seed happens to paint an object-coloured patch.
    coarse = rng.integers((40, 90, 90), (120, 200, 200),
                          size=(height // 16 + 1, width // 16 + 1, 3))
    background = np.repeat(np.repeat(coarse, 16, axis=0), 16, axis=1)[:height, :width]
    color = np.array([215, 45, 50]) + rng.integers(-10, 11, size=3)
    a, b = _axes(height, width, shape.object_share)
    track = _track(rng, height, width, a, b, shape.frames)
    velocity = np.subtract(track[1], track[0]) if shape.frames > 1 else np.zeros(2)

    rows = np.arange(height) // shape.tile
    n_cols = (width - 1 + shape.frames - 1) // shape.tile + 1
    n_background = ((height - 1) // shape.tile + 1) * n_cols
    n_object_cols = int(2 * (a + SVX_LEAK)) // shape.tile + 2
    for t, (cx, cy) in enumerate(track):
        mask = _ellipse(height, width, cx, cy, a, b)
        inside = mask.astype(bool)
        rgb = background + rng.integers(-6, 7, size=(height, width, 3))
        rgb[inside] = color + rng.integers(-12, 13, size=(int(inside.sum()), 3))
        (dirs["frames"] / f"{t:05d}.ppm").write_bytes(write_ppm(np.clip(rgb, 0, 255)))

        if t < shape.frames - 1 or shape.frames == 1:
            u = rng.normal(0.0, FLOW_NOISE, size=(height, width)).astype(np.float32)
            v = rng.normal(0.0, FLOW_NOISE, size=(height, width)).astype(np.float32)
            u[inside] += velocity[0]
            v[inside] += velocity[1]
            (dirs["flow"] / f"{t:05d}.flo").write_bytes(write_flo(FlowField(u=u, v=v)))

        saliency = np.where(inside, 0.75, 0.15) + rng.uniform(-0.1, 0.1, size=(height, width))
        (dirs["saliency"] / f"{t:05d}.pgm").write_bytes(
            write_saliency_pgm(np.clip(saliency, 0.0, 1.0)))

        cols = (np.arange(width) + t) // shape.tile
        labels = rows[:, None] * n_cols + cols[None, :]
        # The object and a thin ring around it carry their own tiles, which move with it.
        covered = _ellipse(height, width, cx, cy, a + SVX_LEAK, b + SVX_LEAK).astype(bool)
        object_rows = (np.arange(height) - int(cy - b - SVX_LEAK)) // shape.tile
        object_cols = (np.arange(width) - int(cx - a - SVX_LEAK)) // shape.tile
        object_ids = n_background + object_rows[:, None] * n_object_cols + object_cols[None, :]
        labels[covered] = object_ids[covered]
        (dirs["svx"] / f"{t:05d}.pgm16").write_bytes(write_pgm16(labels))
        (truth_root / f"{t:05d}.pgm").write_bytes(write_mask_pgm(mask))


def write_fusion(methods_root, truth_root, seed, height, width, shape: FusionShape) -> None:
    """Write ``sequences`` method-mask sets and their ground truth.

    ``methods_root/seqNN/mMM/%05d.pgm`` holds method MM's masks for sequence NN
    and ``truth_root/seqNN/%05d.pgm`` the ground truth.
    """
    rng = np.random.default_rng(seed)
    a, b = _axes(height, width, shape.object_share)
    for s in range(shape.sequences):
        name = f"seq{s:02d}"
        truth_dir = Path(truth_root) / name
        method_dirs = [Path(methods_root) / name / f"m{m:02d}" for m in range(shape.methods)]
        for d in (truth_dir, *method_dirs):
            d.mkdir(parents=True, exist_ok=True)
        track = _track(rng, height, width, a, b, shape.frames)
        # Each method is off by 2 px in its own direction and 8% at most in size; the
        # seed turns the pattern, so the fused masks score alike for every seed.
        angles = 2 * np.pi * np.arange(shape.methods) / shape.methods + rng.uniform(0, 2 * np.pi)
        offsets = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        scales = rng.permutation(np.linspace(0.92, 1.08, shape.methods))
        for t, (cx, cy) in enumerate(track):
            (truth_dir / f"{t:05d}.pgm").write_bytes(
                write_mask_pgm(_ellipse(height, width, cx, cy, a, b)))
            outliers = {}
            if rng.random() < OUTLIER_FRAME_SHARE:
                for m in rng.choice(shape.methods, size=rng.integers(1, 3), replace=False):
                    outliers[int(m)] = "large" if rng.random() < 0.5 else "empty"
            jitter = rng.uniform(-1.0, 1.0, size=(shape.methods, 2))
            for m, d in enumerate(method_dirs):
                kind = outliers.get(m)
                if kind == "empty":
                    mask = np.zeros((height, width), dtype=np.uint8)
                else:
                    k = scales[m] * (OUTLIER_SCALE if kind == "large" else 1.0)
                    dx, dy = offsets[m] + jitter[m]
                    mask = _ellipse(height, width, cx + dx, cy + dy, k * a, k * b)
                (d / f"{t:05d}.pgm").write_bytes(write_mask_pgm(mask))
