"""Memory in video length: one table of every stage's traced peak slope.

Each stage runs as its subcommand drives it, on one input at two video
lengths. Its slope is the growth of the ``tracemalloc`` peak (numpy and
Python allocations, not RSS) from the shorter run to the longer, in bytes
per pixel per frame. The *guard* pins today's slope, so a change that keeps
more per frame fails it. The *target* is the bound of ROADMAP item 20: a
stage that works one frame at a time holds almost nothing per frame. A
target that today's code misses is a strict expected failure naming the
ROADMAP item that lifts it.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np
import pytest

from conftest import traced_peak
from scenes import moving_block, tile_video, tiles, write, write_masks
from test_cli import _method_masks
from tukeyseg.cli import main
from tukeyseg.io import open_sequence
from tukeyseg.metrics import evaluate_dataset
from tukeyseg.refine import refine_sequence
from tukeyseg.segment import segment_sequence


def _tis0(root, shape, frames):
    seq = open_sequence(write(root, tile_video(*shape, frames)))
    return lambda: segment_sequence(seq)


def _refine(root, shape, frames):
    height, width = shape
    scene = moving_block(height=height, width=width, block=(slice(40, 80), slice(60, 100)),
                         num_frames=frames)
    scene = replace(scene, label_maps=[tiles(height, width, (10, 10))] * frames)
    seq = open_sequence(write(root, scene))
    return lambda: refine_sequence(seq)


def _combine(root, shape, frames):
    methods = _method_masks(root / "methods", frames, shape)
    runs = itertools.count()

    def combine():
        assert main(["combine", "--input", str(methods),
                     "--output", str(root / f"out{next(runs)}")]) == 0

    return combine


def _eval(root, shape, frames):
    for side, shift in (("pred", 0), ("gt", 2)):
        masks = [np.zeros(shape, np.uint8) for _ in range(frames)]
        for i, m in enumerate(masks):
            m[20 + i + shift:120 + i, 30:150 + shift] = 1
        write_masks(root / side / "s", masks)
    return lambda: evaluate_dataset(root / "pred", root / "gt")


class Stage(NamedTuple):
    build: Callable  # (root, shape, frames) -> a call that runs the stage once
    shape: tuple[int, int]
    lengths: tuple[int, int]
    guard: float  # B per pixel per frame: today's slope must stay below it
    target: float  # B per pixel per frame: ROADMAP item 20's bound
    lifted_by: str | None = None  # the ROADMAP item whose change meets the target


STAGES = {
    # float64 foregroundness (8 B per pixel) and the bool mask of every frame
    # are kept: 8.0 B today
    "tis0": Stage(_tis0, (120, 160), (8, 32), 8.5, 0.25,
                  "item 4: segment_sequence keeps every frame's float64 field"),
    # the same fields for pass two, plus the initial and refined masks: 9.1 B today
    "refine": Stage(_refine, (120, 160), (4, 12), 10.0, 1e6 / (480 * 854),
                    "item 4: refine keeps every frame's float64 field for pass two"),
    # the fused bool masks are held until written (1.0 B today); their
    # encoded files, if all were held too, would be one more
    "combine": Stage(_combine, (96, 128), (32, 64), 1.5, 0.25,
                     "item 12B: fuse_sequence returns every fused mask as a list"),
    # one (prediction, reference) pair is decoded at a time; the guard is a
    # quarter of one pair over the 12 extra frames
    "eval": Stage(_eval, (240, 320), (4, 16), 2 / 4 / 12, 0.25),
}


@pytest.fixture(scope="module")
def slopes(tmp_path_factory):
    """Each stage's peak growth per pixel per frame; each runs its short input once first."""
    measured = {}
    for name, stage in STAGES.items():
        root = tmp_path_factory.mktemp(name)
        calls = [stage.build(root / str(n), stage.shape, n) for n in stage.lengths]
        calls[0]()  # lazy imports and first-call caches stay outside the traced runs
        short, long = (traced_peak(call)[1] for call in calls)
        frames = stage.lengths[1] - stage.lengths[0]
        measured[name] = (long - short) / frames / (stage.shape[0] * stage.shape[1])
    return measured


@pytest.mark.parametrize("name", STAGES)
def test_slope_within_guard(slopes, name):
    assert slopes[name] < STAGES[name].guard, f"{slopes[name]:.3f} B per pixel per frame"


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(raises=AssertionError, strict=True,
                                               reason=stage.lifted_by))
    if stage.lifted_by else name
    for name, stage in STAGES.items()
])
def test_slope_within_target(slopes, name):
    assert slopes[name] < STAGES[name].target, f"{slopes[name]:.3f} B per pixel per frame"
