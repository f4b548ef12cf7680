"""Shared fixtures: synthetic videos written through the package codecs."""

from __future__ import annotations

import itertools
import math
import threading

import numpy as np
import pytest

from tukeyseg.io import (
    FlowField,
    write_flo,
    write_mask_pgm,
    write_pgm16,
    write_ppm,
    write_saliency_pgm,
)


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves a thread running which was not running before it.

    Every ``--jobs`` pool must be shut down by the time its call returns or
    raises, so a leaked pool fails the test that leaked it.
    """
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads still running after the test: {left}"


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def write_video_dir(
    root,
    frames=None,
    flows=None,
    saliencies=None,
    labels=None,
    masks=None,
):
    """Materialize a video directory from in-memory rasters.

    ``flows`` entries are (u, v) array pairs; ``masks`` maps method name to
    a list of {0,1} masks. Only the given components are written.
    """
    root.mkdir(parents=True, exist_ok=True)
    if frames is not None:
        d = root / "frames"
        d.mkdir()
        for i, frame in enumerate(frames):
            (d / f"{i:05d}.ppm").write_bytes(write_ppm(frame))
    if flows is not None:
        d = root / "flow"
        d.mkdir()
        for i, (u, v) in enumerate(flows):
            field = FlowField(u=np.asarray(u, np.float32), v=np.asarray(v, np.float32))
            (d / f"{i:05d}.flo").write_bytes(write_flo(field))
    if saliencies is not None:
        d = root / "saliency"
        d.mkdir()
        for i, sal in enumerate(saliencies):
            (d / f"{i:05d}.pgm").write_bytes(write_saliency_pgm(sal))
    if labels is not None:
        d = root / "svx"
        d.mkdir()
        for i, ids in enumerate(labels):
            (d / f"{i:05d}.pgm16").write_bytes(write_pgm16(ids))
    if masks is not None:
        for method, mask_list in masks.items():
            d = root / "masks" / method
            d.mkdir(parents=True)
            for i, mask in enumerate(mask_list):
                (d / f"{i:05d}.pgm").write_bytes(write_mask_pgm(mask))
    return root


class ArrayVideo:
    """RGB frames and supervoxel label maps held in memory, read by index like a ``FrameSequence``."""

    def __init__(self, frames, labels):
        self._frames, self._labels = list(frames), list(labels)

    @property
    def num_frames(self) -> int:
        return len(self._frames)

    def frame(self, index):
        return self._frames[index]

    def labels(self, index):
        return self._labels[index]


def zero_raster(subdir, shape):
    """An encoded all-zero raster of the kind a video's ``subdir`` holds, at (height, width) ``shape``."""
    zeros = np.zeros(shape)
    return {
        "frames": lambda: write_ppm(np.zeros((*shape, 3), np.uint8)),
        "flow": lambda: write_flo(FlowField(zeros.astype(np.float32), zeros.astype(np.float32))),
        "saliency": lambda: write_saliency_pgm(zeros),
        "svx": lambda: write_pgm16(zeros.astype(np.int64)),
    }[subdir]()


def moving_block_arrays(
    height=30,
    width=40,
    block=(slice(10, 20), slice(15, 25)),
    background_flow=(1.0, 0.0),
    block_flow=(8.0, 0.0),
    saliency_value=0.5,
    num_frames=1,
):
    """The moving-block scene: uniform flow except a block moving differently."""
    u = np.full((height, width), background_flow[0], dtype=np.float32)
    v = np.full((height, width), background_flow[1], dtype=np.float32)
    u[block] = block_flow[0]
    v[block] = block_flow[1]
    saliency = np.full((height, width), saliency_value, dtype=np.float64)
    frame = np.zeros((height, width, 3), dtype=np.uint8)
    frame[..., 2] = 40
    frame[block] = (200, 60, 60)
    truth = np.zeros((height, width), dtype=np.uint8)
    truth[block] = 1
    return {
        "frames": [frame] * num_frames,
        "flows": [(u, v)] * max(num_frames - 1, 1),
        "saliencies": [saliency] * num_frames,
        "truth": truth,
    }


def fusion_scene(seed, height=96, width=128, frames=20, methods=6, object_share=0.05,
                 outlier_share=0.3):
    """One sequence of the fusion workload's shape, in memory: (truth, masks).

    An ellipse with axes 1.4 : 1 covering ``object_share`` of the frame moves
    2-3 px per frame across it; ``truth[t]`` is its bool mask in frame t. Each
    method sees it offset 2 px in the method's own direction, plus up to 1 px
    of jitter per frame and axis, and scaled by its own factor in
    [0.92, 1.08]. On about ``outlier_share`` of the frames one or two methods
    are outliers instead, each "large" (axes 3.5 times as long) or "empty".
    ``masks[t][m]`` is method m's bool mask in frame t.
    """
    rng = np.random.default_rng(seed)
    b = math.sqrt(object_share * height * width / (1.4 * math.pi))
    a = 1.4 * b
    rows, cols = np.indices((height, width))

    def ellipse(cx, cy, scale=1.0):
        return ((cols - cx) / (scale * a)) ** 2 + ((rows - cy) / (scale * b)) ** 2 <= 1.0

    vx = rng.uniform(2.0, 3.0) * min(1.0, (width - 2 * a - 8) / (3.0 * (frames - 1)))
    vy = rng.uniform(-0.5, 0.5)
    cx0, cy0 = a + 4 + rng.uniform(0, 4), height / 2 + rng.uniform(-0.1, 0.1) * height
    angles = 2 * np.pi * np.arange(methods) / methods + rng.uniform(0, 2 * np.pi)
    offsets = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    scales = rng.permutation(np.linspace(0.92, 1.08, methods))
    truth, masks = [], []
    for t in range(frames):
        cx, cy = cx0 + vx * t, cy0 + vy * t
        truth.append(ellipse(cx, cy))
        outliers = {}
        if rng.random() < outlier_share:
            for m in rng.choice(methods, size=rng.integers(1, 3), replace=False):
                outliers[int(m)] = "large" if rng.random() < 0.5 else "empty"
        jitter = rng.uniform(-1.0, 1.0, size=(methods, 2))
        frame = []
        for m in range(methods):
            dx, dy = offsets[m] + jitter[m]
            if outliers.get(m) == "empty":
                frame.append(np.zeros((height, width), dtype=bool))
            else:
                size = scales[m] * (3.5 if outliers.get(m) == "large" else 1.0)
                frame.append(ellipse(cx + dx, cy + dy, size))
        masks.append(frame)
    return truth, masks


def mask_dtype_matrix():
    """(name, array) pairs spanning the dtypes and values a mask check must tell apart.

    Each array holds 0 and 1 plus at most one odd value, so that the
    verdict of ``np.isin(a, (0, 1)).all()`` turns on that value and dtype.
    """
    base = np.array([[0, 1, 1], [1, 0, 0]])
    cases = [("bool", base.astype(bool))]
    for dtype in (np.uint8, np.uint16, np.int8, np.int64, np.float32, np.float64):
        cases.append((f"{np.dtype(dtype).name} 0/1", base.astype(dtype)))
    odd = [
        (np.uint8, 2), (np.uint8, 255), (np.uint16, 256), (np.int8, -1), (np.int64, 2),
        (np.int64, -1), (np.float64, 0.5), (np.float32, 0.5), (np.float64, np.nan),
        (np.float64, np.inf), (np.float64, -np.inf), (np.float64, 1 + 2**-52),
        (np.float64, -0.0),
    ]
    for dtype, value in odd:
        a = base.astype(dtype)
        a[0, 0] = value
        cases.append((f"{np.dtype(dtype).name} holding {value!r}", a))
    for dtype, shape in ((np.uint8, (0, 3)), (np.float64, (0, 3)), (bool, (2, 0)),
                         (np.int8, (0, 0))):
        cases.append((f"{np.dtype(dtype).name} {shape}", np.zeros(shape, dtype)))
    return cases



def _spiral(height, width):
    """A one-pixel-wide 4-connected path spiralling inward, arms one pixel apart."""
    m = np.zeros((height, width), dtype=np.uint8)
    m[0, :] = 1
    row, col = 0, width - 1
    across, down = width - 1, height - 1
    for turn in itertools.count():
        length = down if turn % 2 == 0 else across
        if length <= 0:
            return m
        if turn % 4 == 0:
            m[row:row + length + 1, col] = 1
            row += length
        elif turn % 4 == 1:
            m[row, col - length:col + 1] = 1
            col -= length
        elif turn % 4 == 2:
            m[row - length:row + 1, col] = 1
            row -= length
        else:
            m[row, col:col + length + 1] = 1
            col += length
        if turn % 2 == 0:
            down -= 2
        else:
            across -= 2


def adversarial_masks(height=480, width=854):
    """Masks at DAVIS size that are hard for component labelling and contour matching.

    ``noise`` is 50% iid foreground: tens of thousands of 4-connected
    components and as many row runs as pixels allow. ``comb`` is two
    interlocking combs, one hanging from the top row and one standing on the
    bottom row, with one-pixel teeth and gaps: two components of one run per
    tooth per row. ``spiral`` is one 4-connected path through the whole
    frame, so that merging runs must carry a label around every arm.
    """
    comb = np.zeros((height, width), dtype=np.uint8)
    comb[0] = 1
    comb[:height - 2, 0::4] = 1
    comb[-1] = 1
    comb[2:, 2::4] = 1
    noise = np.random.default_rng(20181119).random((height, width)) < 0.5
    return {"noise": noise.astype(np.uint8), "comb": comb, "spiral": _spiral(height, width)}


@pytest.fixture
def video_builder(tmp_path):
    def build(name="video", **kwargs):
        return write_video_dir(tmp_path / name, **kwargs)

    return build
