"""Shared fixtures and mask sets; synthetic videos are built in ``scenes.py``."""

from __future__ import annotations

import itertools
import logging
import threading

import numpy as np
import pytest


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


@pytest.fixture(autouse=True)
def package_log_level():
    """Restore the ``tukeyseg`` logger's level, which each ``cli.main`` call sets."""
    logger = logging.getLogger("tukeyseg")
    level = logger.level
    yield
    logger.setLevel(level)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


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
