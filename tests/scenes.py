"""Synthetic videos for the tests: seeded in-memory scenes and one writer.

Every builder returns a :class:`Scene` of arrays, and returns the same
arrays, bit for bit, for the same arguments. A scene reads by frame index
like ``tukeyseg.io.FrameSequence``, so a stage can run on it without files;
:func:`write` puts it on disk in the layout of ``tukeyseg.io``, through the
package's own encoders, for a stage or subcommand to open, and
:func:`read_tree` reads back what a run wrote. A scene that one
test needs is built in that test, as arrays handed to :class:`Scene`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
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


def flow_field(u, v) -> FlowField:
    """A flow of ``u`` and ``v`` rounded to float32, as ``.flo`` files hold it."""
    return FlowField(np.asarray(u, np.float32), np.asarray(v, np.float32))


@dataclass
class Scene:
    """A video's rasters in memory, one list entry per frame.

    ``flows`` may be given as (u, v) pairs and are held as float32
    flow fields, and ``saliencies`` are held as float64 arrays: the types the
    io decoders return. Like a video directory, a scene may hold one flow
    fewer than frames: the last frame then reuses the final flow. ``masks``
    maps a method name to its masks, and ``truth`` holds the object's mask in
    each frame; neither is read by the accessors.
    """

    frames: Sequence = ()
    flows: Sequence = ()
    saliencies: Sequence = ()
    label_maps: Sequence = ()
    masks: Mapping = field(default_factory=dict)
    truth: Sequence = ()

    def __post_init__(self):
        self.flows = [f if isinstance(f, FlowField) else flow_field(*f) for f in self.flows]
        self.saliencies = [np.asarray(s, np.float64) for s in self.saliencies]

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    def frame(self, index):
        return self.frames[index]

    def flow(self, index):
        return self.flows[min(index, len(self.flows) - 1)]

    def saliency(self, index):
        return self.saliencies[index]

    def labels(self, index):
        return self.label_maps[index]


# Each raster directory of a video: the Scene field it is written from, its
# file extension and its encoder.
KINDS = {
    "frames": ("frames", "ppm", write_ppm),
    "flow": ("flows", "flo", write_flo),
    "saliency": ("saliencies", "pgm", write_saliency_pgm),
    "svx": ("label_maps", "pgm16", write_pgm16),
}


def encode(scene: Scene, kind: str, index: int = 0) -> bytes:
    """The file bytes of raster ``index`` of ``kind``, a key of :data:`KINDS`, in ``scene``."""
    attribute, _, encoder = KINDS[kind]
    return encoder(getattr(scene, attribute)[index])


def write_masks(directory: Path, masks) -> Path:
    """Write ``masks`` as ``directory/%05d.pgm``, making the directory; returns it."""
    directory.mkdir(parents=True)
    for i, mask in enumerate(masks):
        (directory / f"{i:05d}.pgm").write_bytes(write_mask_pgm(mask))
    return directory


def write(root: Path, scene: Scene) -> Path:
    """Write ``scene`` as a video directory at ``root``; returns ``root``.

    Each kind the scene holds goes to its raster directory, and each
    method's masks to ``masks/<method>``. ``truth`` is not written.
    """
    root.mkdir(parents=True, exist_ok=True)
    for kind, (attribute, extension, _) in KINDS.items():
        count = len(getattr(scene, attribute))
        if count:
            (root / kind).mkdir()
        for i in range(count):
            (root / kind / f"{i:05d}.{extension}").write_bytes(encode(scene, kind, i))
    for method, masks in scene.masks.items():
        write_masks(root / "masks" / method, masks)
    return root


def read_tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root``, as {path relative to ``root``: bytes}, in sorted order."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def moving_block(height=30, width=40, block=(slice(10, 20), slice(15, 25)),
                 block_flow=(8.0, 0.0), num_frames=1) -> Scene:
    """A block moving at ``block_flow`` on a background moving at (1, 0), in every frame.

    The block is red on a blue background; saliency is 0.5 everywhere; a
    one-frame scene holds one flow. ``truth`` is the block as a uint8 mask.
    """
    u = np.full((height, width), 1.0, dtype=np.float32)
    v = np.zeros((height, width), dtype=np.float32)
    u[block], v[block] = block_flow
    frame = np.zeros((height, width, 3), dtype=np.uint8)
    frame[..., 2] = 40
    frame[block] = (200, 60, 60)
    truth = np.zeros((height, width), dtype=np.uint8)
    truth[block] = 1
    return Scene(frames=[frame] * num_frames, flows=[(u, v)] * max(num_frames - 1, 1),
                 saliencies=[np.full((height, width), 0.5)] * num_frames,
                 truth=[truth] * num_frames)


def labelled_block() -> Scene:
    """The 3-frame moving block with supervoxels and three methods' masks.

    Supervoxel 1 is the block and 2 the five leftmost columns. Methods
    ``alpha`` and ``beta`` are the truth, ``gamma`` the truth one column
    to the right.
    """
    scene = moving_block(num_frames=3)
    truth = scene.truth[0]
    labels = truth.astype(np.int64)
    labels[:, :5] = 2
    masks = {"alpha": scene.truth, "beta": scene.truth, "gamma": [np.roll(truth, 1, axis=1)] * 3}
    return replace(scene, label_maps=[labels] * 3, masks=masks)


def tiles(height, width, tile) -> np.ndarray:
    """Supervoxel ids of a grid of (rows, columns) ``tile`` s, numbered row by row from 0."""
    rows, cols = np.indices((height, width))
    return (rows // tile[0]) * -(-width // tile[1]) + cols // tile[1]


def tile_video(height, width, num_frames) -> Scene:
    """The moving block over a third of each axis, random colours and 10 x 10 tile supervoxels.

    The colours are drawn from a generator seeded with ``num_frames``.
    """
    rng = np.random.default_rng(num_frames)
    scene = moving_block(height, width, block=(slice(height // 3, 2 * height // 3),
                                               slice(width // 3, width // 2)),
                         num_frames=num_frames)
    frames = [rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
              for _ in range(num_frames)]
    return replace(scene, frames=frames, label_maps=[tiles(height, width, (10, 10))] * num_frames)


def flat(height, width, num_frames, u=1.0, v=0.0) -> Scene:
    """Uniform grey frames, constant flow (u, v) and one saliency ramp from 0 to 1."""
    return Scene(frames=[np.full((height, width, 3), 90, dtype=np.uint8)] * num_frames,
                 flows=[(np.full((height, width), u), np.full((height, width), v))]
                 * max(num_frames - 1, 1),
                 saliencies=[np.linspace(0.0, 1.0, height * width).reshape(height, width)]
                 * num_frames)


def blank(height, width) -> Scene:
    """One frame with every raster kind all zero."""
    zeros = np.zeros((height, width))
    return Scene(frames=[np.zeros((height, width, 3), np.uint8)], flows=[(zeros, zeros)],
                 saliencies=[zeros], label_maps=[zeros.astype(np.int64)])


def fusion(seed) -> Scene:
    """One sequence of the fusion benchmark's shape at 96 x 128: ``truth`` and 6 methods.

    An ellipse with axes 1.4 : 1 covering 5% of the frame moves 2-3 px per
    frame across it over 20 frames; ``truth[t]`` is its bool mask in frame
    t. Each method, ``m00`` to ``m05``, sees it offset 2 px in the method's
    own direction, plus up to 1 px of jitter per frame and axis, and scaled
    by its own factor in [0.92, 1.08]. On about 30% of the frames one or two
    methods are outliers instead, each "large" (axes 3.5 times as long) or
    "empty".
    """
    height, width, frames, methods = 96, 128, 20, 6
    rng = np.random.default_rng(seed)
    b = math.sqrt(0.05 * height * width / (1.4 * math.pi))
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
    truth, masks = [], {f"m{m:02d}": [] for m in range(methods)}
    for t in range(frames):
        cx, cy = cx0 + vx * t, cy0 + vy * t
        truth.append(ellipse(cx, cy))
        outliers = {}
        if rng.random() < 0.3:
            for m in rng.choice(methods, size=rng.integers(1, 3), replace=False):
                outliers[int(m)] = "large" if rng.random() < 0.5 else "empty"
        jitter = rng.uniform(-1.0, 1.0, size=(methods, 2))
        for m, method in enumerate(masks.values()):
            dx, dy = offsets[m] + jitter[m]
            if outliers.get(m) == "empty":
                method.append(np.zeros((height, width), dtype=bool))
            else:
                size = scales[m] * (3.5 if outliers.get(m) == "large" else 1.0)
                method.append(ellipse(cx + dx, cy + dy, size))
    return Scene(masks=masks, truth=truth)
