"""Tests for region similarity and contour accuracy."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from conftest import adversarial_masks
from scenes import write_masks
from tukeyseg import metrics
from tukeyseg.cli import main
from tukeyseg.io import _mask_array, read_mask_pgm, write_mask_pgm
from tukeyseg.metrics import (
    contour_f,
    default_tolerance,
    evaluate_dataset,
    jaccard,
    mask_boundary,
    score_decay,
    sequence_scores,
)


def _square(h, w, rows, cols):
    m = np.zeros((h, w), dtype=np.uint8)
    m[rows, cols] = 1
    return m


class TestJaccard:
    def test_identity(self):
        m = _square(5, 5, slice(1, 3), slice(1, 3))
        assert jaccard(m, m) == 1.0

    def test_disjoint(self):
        a = _square(5, 5, slice(0, 2), slice(0, 2))
        b = _square(5, 5, slice(3, 5), slice(3, 5))
        assert jaccard(a, b) == 0.0

    def test_partial_overlap(self):
        a = np.array([[1, 1, 0]])
        b = np.array([[0, 1, 1]])
        assert jaccard(a, b) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert jaccard(np.zeros((3, 3)), np.zeros((3, 3))) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            jaccard(np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("shape", [(5,), (2, 2, 2), ()])
    def test_rejects_mask_that_is_not_2d(self, shape):
        flat = np.zeros((2, 2), dtype=np.uint8)
        for mask in (np.ones(shape, np.uint8), np.zeros(shape, np.uint8)):
            with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
                jaccard(mask, mask)
            with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
                jaccard(flat, mask)

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_symmetric(self, bits_a, bits_b):
        a = np.array([(bits_a >> i) & 1 for i in range(16)]).reshape(4, 4)
        b = np.array([(bits_b >> i) & 1 for i in range(16)]).reshape(4, 4)
        assert jaccard(a, b) == jaccard(b, a)

    def test_equals_full_frame_count(self, rng):
        # the counts are taken on the bounding box of both masks
        for _ in range(200):
            height, width = rng.integers(1, 12, size=2)
            density = rng.choice([0.0, 0.02, 0.3, 1.0])
            a, b = (rng.random((2, height, width)) < density).astype(np.uint8)
            for m, g in ((a, b), (a.astype(bool), b), (a.astype(np.float64), b.astype(bool))):
                assert jaccard(m, g) == oracles.jaccard_full_frame(m, g)
        for mask in adversarial_masks(60, 90).values():
            shifted = np.roll(mask, (3, 5), axis=(0, 1))
            assert jaccard(mask, shifted) == oracles.jaccard_full_frame(mask, shifted)

    def test_bool_mask_used_as_given(self):
        # the mask rule every stage reads masks by: no copy of a bool or one-byte mask
        m = np.eye(3, dtype=bool)
        assert _mask_array(m) is m
        for dtype in (np.uint8, np.int8):
            a = m.astype(dtype)
            view = _mask_array(a)
            assert view.dtype == bool and np.shares_memory(view, a)
            assert view.tolist() == m.tolist()
        assert _mask_array(m.astype(np.float64)).tolist() == m.tolist()

    def test_monotone_under_true_positive(self, rng):
        for _ in range(100):
            g = (rng.random((6, 6)) > 0.5).astype(np.uint8)
            m = g & (rng.random((6, 6)) > 0.5).astype(np.uint8)
            missing = np.argwhere(g & ~m)
            if missing.size == 0:
                continue
            r, c = missing[0]
            improved = m.copy()
            improved[r, c] = 1
            assert jaccard(improved, g) >= jaccard(m, g)


@pytest.mark.parametrize("score", [jaccard, contour_f])
def test_decoded_pair_is_scored_without_a_full_frame_copy(score):
    m, g = (read_mask_pgm(write_mask_pgm(_square(480, 854, slice(r, r + 30), slice(r, r + 40))))
            for r in (200, 205))
    tracemalloc.start()
    try:
        score(m, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m.size  # one full-frame bool array is 409,920 B


class TestBoundary:
    def test_matches_oracle(self, rng):
        for _ in range(50):
            mask = (rng.random((7, 9)) > 0.5).astype(np.uint8)
            got = {tuple(p) for p in np.argwhere(mask_boundary(mask))}
            assert got == oracles.boundary_pixels(mask.tolist())

    def test_full_mask_boundary_is_border(self):
        boundary = mask_boundary(np.ones((4, 5)))
        interior = boundary[1:-1, 1:-1]
        assert not interior.any()
        assert boundary.sum() == 4 * 5 - 2 * 3

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 4), ()])
    def test_rejects_mask_that_is_not_2d(self, shape):
        flat = np.zeros((3, 4), dtype=np.uint8)
        for mask in (np.ones(shape, np.uint8), np.zeros(shape, np.uint8)):
            with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
                mask_boundary(mask)
            with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
                contour_f(mask, mask, 1)
            with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
                contour_f(flat, mask, 1)


class TestContourF:
    def test_identity(self):
        m = _square(8, 8, slice(2, 6), slice(2, 6))
        assert contour_f(m, m, 1) == 1.0

    def test_one_empty(self):
        g = _square(8, 8, slice(2, 6), slice(2, 6))
        assert contour_f(np.zeros((8, 8)), g, 1) == 0.0
        assert contour_f(g, np.zeros((8, 8)), 1) == 0.0

    def test_both_empty(self):
        assert contour_f(np.zeros((4, 4)), np.zeros((4, 4)), 1) == 1.0

    def test_shifted_square_within_tolerance(self):
        g = _square(10, 10, slice(2, 6), slice(2, 6))
        m = _square(10, 10, slice(3, 7), slice(2, 6))
        assert contour_f(m, g, 1) == 1.0
        assert contour_f(m, g, 1) == oracles.contour_f(m.tolist(), g.tolist(), 1)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            m = (rng.random((8, 8)) > 0.6).astype(np.uint8)
            g = (rng.random((8, 8)) > 0.6).astype(np.uint8)
            for tolerance in (0, 1, 2.5):
                got = contour_f(m, g, tolerance)
                expected = oracles.contour_f(m.tolist(), g.tolist(), tolerance)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_symmetric(self, rng):
        for _ in range(50):
            m = (rng.random((8, 8)) > 0.6).astype(np.uint8)
            g = (rng.random((8, 8)) > 0.6).astype(np.uint8)
            assert contour_f(m, g, 1) == pytest.approx(contour_f(g, m, 1), abs=1e-12)

    def test_monotone_in_tolerance(self, rng):
        for _ in range(100):
            m = (rng.random((10, 10)) > 0.6).astype(np.uint8)
            g = (rng.random((10, 10)) > 0.6).astype(np.uint8)
            scores = [contour_f(m, g, t) for t in (0, 1, 2, 4, 8)]
            assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))

    def test_default_tolerance_scales_with_diagonal(self):
        assert default_tolerance(854, 480) == 8
        assert default_tolerance(10, 10) == 1

    @pytest.mark.parametrize("tolerance", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_invalid_tolerance_refused(self, tolerance):
        m = _square(10, 10, slice(2, 6), slice(2, 6))
        disjoint = (_square(40, 60, slice(0, 4), slice(0, 5)),
                    _square(40, 60, slice(30, 40), slice(50, 60)))
        for masks in ((m, m), disjoint, (np.zeros((10, 10)), np.zeros((10, 10)))):
            with pytest.raises(ValueError, match=re.escape(f"tolerance {tolerance}")):
                contour_f(*masks, tolerance)
        with pytest.raises(ValueError, match="tolerance"):
            sequence_scores([m], [m], tolerance)

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
    def test_tolerance_checked_before_the_masks(self, tolerance):
        # mismatched shapes and a 3-D mask: the tolerance is named, not the masks
        pairs = ((np.zeros((4, 5)), np.zeros((5, 4))), (np.zeros((2, 2, 2)), np.zeros((2, 2))))
        for masks in pairs:
            with pytest.raises(ValueError, match=re.escape(f"tolerance {tolerance}")):
                contour_f(*masks, tolerance)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        tolerance=st.sampled_from([0, 1, 2, 3, 5, 8]) | st.floats(0, 16),
    )
    def test_matches_distance_transform_and_brute_force(self, data, shape, tolerance):
        m, g = (data.draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, 1)))
                for _ in range(2))
        got = contour_f(m, g, tolerance)
        assert got == oracles.contour_f_full_frame(m, g, tolerance)
        assert got == pytest.approx(oracles.contour_f(m.tolist(), g.tolist(), tolerance),
                                    abs=1e-12)

    @pytest.mark.parametrize("tolerance, expected", [(1e300, 1.0), (0, 0.0)])
    def test_extreme_tolerances_on_disjoint_boundaries(self, tolerance, expected):
        m = _square(40, 60, slice(0, 4), slice(0, 5))
        g = _square(40, 60, slice(30, 40), slice(50, 60))
        assert contour_f(m, g, tolerance) == expected
        assert contour_f(g, m, tolerance) == expected
        assert oracles.contour_f_full_frame(m, g, tolerance) == expected

    def test_huge_tolerance_allocates_nothing_large(self):
        m = _square(480, 854, slice(100, 105), slice(200, 205))
        g = _square(480, 854, slice(140, 150), slice(250, 260))
        tracemalloc.start()
        try:
            assert contour_f(m, g, 1e5) == 1.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the full-frame bool copies of both masks, and next to nothing for the box
        assert peak < 3 * m.size

    @pytest.mark.parametrize("tolerance", [None, 2.5])
    @pytest.mark.parametrize("pair", [
        ("noise", "noise"), ("noise", "comb"), ("comb", "spiral"), ("spiral", "noise"),
    ])
    def test_adversarial_masks_match_distance_transform(self, pair, tolerance):
        masks = adversarial_masks()
        m = masks[pair[0]]
        g = np.roll(masks[pair[1]], 3, axis=1)
        resolved = default_tolerance(m.shape[1], m.shape[0]) if tolerance is None else tolerance
        assert contour_f(m, g, tolerance) == oracles.contour_f_full_frame(m, g, resolved)


_H, _W = 48, 64
_BLOB = np.array(
    [
        [0, 1, 1, 1, 0],
        [1, 1, 1, 1, 1],
        [1, 1, 0, 1, 1],
        [1, 1, 1, 1, 0],
        [0, 1, 1, 0, 0],
    ],
    dtype=np.uint8,
)


def _placed(patch, top, left):
    """``patch`` at (top, left) in an _H x _W frame; negative offsets count from the far edge."""
    m = np.zeros((_H, _W), dtype=np.uint8)
    h, w = patch.shape
    top = top if top >= 0 else _H - h + 1 + top
    left = left if left >= 0 else _W - w + 1 + left
    m[top:top + h, left:left + w] = patch
    return m


def _pixel(row, col):
    m = np.zeros((_H, _W), dtype=np.uint8)
    m[row, col] = 1
    return m


_EDGES_AND_CORNERS = {
    "top": (0, 30), "bottom": (-1, 30), "left": (20, 0), "right": (20, -1),
    "top-left": (0, 0), "top-right": (0, -1), "bottom-left": (-1, 0),
    "bottom-right": (-1, -1), "interior": (20, 30),
}

_SMALL_OBJECTS = {
    **{
        f"blob-{name}": (_placed(_BLOB, *at), _placed(_BLOB[::-1, ::-1], *at))
        for name, at in _EDGES_AND_CORNERS.items()
    },
    **{
        f"shifted-{name}": (_placed(_BLOB[:, :4], *at), _placed(_BLOB[:4, :], *at))
        for name, at in _EDGES_AND_CORNERS.items()
    },
    "pixel-same": (_pixel(0, 0), _pixel(0, 0)),
    "pixel-neighbors": (_pixel(_H - 1, 5), _pixel(_H - 2, 7)),
    "pixel-vs-blob": (_pixel(21, 31), _placed(_BLOB, 20, 30)),
    "opposite-corners": (_placed(_BLOB, 0, 0), _placed(_BLOB, -1, -1)),
    "opposite-pixels": (_pixel(0, _W - 1), _pixel(_H - 1, 0)),
    "one-empty": (np.zeros((_H, _W), dtype=np.uint8), _placed(_BLOB, 0, -1)),
    "both-empty": (np.zeros((_H, _W), dtype=np.uint8), np.zeros((_H, _W), dtype=np.uint8)),
    "full-vs-blob": (np.ones((_H, _W), dtype=np.uint8), _placed(_BLOB, 20, 30)),
}


class TestContourFOnBoundingBox:
    """The bounding-box contour F equals the whole-image computation exactly."""

    @pytest.mark.parametrize("tolerance", [0, 2.5, 1000, None])
    @pytest.mark.parametrize("case", sorted(_SMALL_OBJECTS))
    def test_equals_full_frame(self, case, tolerance):
        m, g = _SMALL_OBJECTS[case]
        resolved = default_tolerance(_W, _H) if tolerance is None else tolerance
        for a, b in ((m, g), (g, m)):
            got = contour_f(a, b, tolerance)
            assert got == oracles.contour_f_full_frame(a, b, resolved)
            expected = oracles.contour_f(a.tolist(), b.tolist(), resolved)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_random_small_objects_equal_full_frame(self, rng):
        for _ in range(200):
            masks = []
            for _ in range(2):
                m = np.zeros((_H, _W), dtype=np.uint8)
                h, w = rng.integers(1, 9, 2)
                top, left = rng.integers(0, _H - h + 1), rng.integers(0, _W - w + 1)
                m[top:top + h, left:left + w] = rng.random((h, w)) > 0.3
                masks.append(m)
            for tolerance in (0, 1, 2.5):
                assert contour_f(*masks, tolerance) == oracles.contour_f_full_frame(
                    *masks, tolerance)

    def test_dataset_csv_matches_full_frame(self, tmp_path, monkeypatch):
        # border-touching objects in every frame; the default tolerance is used
        names = sorted(_SMALL_OBJECTS)
        for s, start in enumerate((0, 7, 14)):
            frames = [_SMALL_OBJECTS[names[(start + i) % len(names)]] for i in range(7)]
            for root, pick in (("pred", 0), ("gt", 1)):
                write_masks(tmp_path / root / f"seq{s}", [pair[pick] for pair in frames])
        tables = {
            jobs: evaluate_dataset(tmp_path / "pred", tmp_path / "gt", jobs=jobs)
            for jobs in (1, 2)
        }
        monkeypatch.setattr(
            metrics, "contour_f",
            lambda m, g, t: oracles.contour_f_full_frame(m, g, default_tolerance(_W, _H)),
        )
        reference = evaluate_dataset(tmp_path / "pred", tmp_path / "gt")
        assert tables[1] == reference
        assert tables[2] == reference


class TestDecayAndSequences:
    def test_constant_series(self):
        assert score_decay([0.8] * 7) == 0.0

    def test_step_series(self):
        assert score_decay([1.0, 1.0, 0.0, 0.0]) == 1.0

    def test_non_increasing_series_non_negative(self, rng):
        for _ in range(100):
            series = np.sort(rng.random(rng.integers(1, 20)))[::-1]
            assert score_decay(series) >= -1e-12

    def test_sequence_scores_means_and_recall(self):
        g = _square(6, 6, slice(1, 4), slice(1, 4))
        scores = sequence_scores([g, g, g], [g, g, g], tolerance=1)
        assert scores.j_mean == 1.0
        assert scores.f_mean == 1.0
        assert scores.j_recall and scores.f_recall
        assert scores.j_decay == 0.0

    def test_default_tolerance_is_the_whole_frames(self):
        # at 480x854 the default is 8 px; the 10x15 box of the pair alone would give 1 px
        g = np.zeros((480, 854), dtype=np.uint8)
        g[100:110, 100:110] = 1
        m = np.roll(g, 5, axis=1)
        assert default_tolerance(854, 480) == 8 and contour_f(m, g, 1) < 1.0
        scores = sequence_scores([m, g], [g, g])
        assert scores.f_per_frame == (contour_f(m, g), 1.0) == (1.0, 1.0)
        assert scores.j_per_frame == (jaccard(m, g), 1.0) == (50 / 150, 1.0)

    def test_empty_series_and_sequence_refused(self):
        with pytest.raises(ValueError, match="^empty score series$"):
            score_decay([])
        with pytest.raises(ValueError, match="^empty sequence$"):
            sequence_scores([], [])

    def test_length_mismatch(self):
        g = np.zeros((2, 2))
        with pytest.raises(ValueError, match="length mismatch"):
            sequence_scores([g], [g, g])

    @pytest.mark.parametrize("predictions, references", [(1, 2), (3, 2), (0, 1)])
    def test_length_mismatch_of_generators(self, predictions, references):
        g = _square(4, 4, slice(1, 3), slice(1, 3))
        with pytest.raises(ValueError, match="length mismatch"):
            sequence_scores((g for _ in range(predictions)), (g for _ in range(references)))


class TestEvaluateDataset:
    def test_identity_dataset_all_ones(self, tmp_path):
        g = _square(6, 6, slice(1, 4), slice(1, 4))
        for root in ("pred", "gt"):
            write_masks(tmp_path / root / "seq_a", [g, g])
            write_masks(tmp_path / root / "seq_b", [g, g, g])
        rows = evaluate_dataset(tmp_path / "pred", tmp_path / "gt", tolerance=1)
        assert [r.sequence for r in rows] == ["seq_a", "seq_b", "ALL"]
        assert all(r.j_mean == 1.0 and r.f_mean == 1.0 for r in rows)
        assert rows[-1].j_recall == 1.0

    def test_missing_sequence(self, tmp_path):
        g = np.zeros((3, 3), dtype=np.uint8)
        write_masks(tmp_path / "gt" / "seq_a", [g])
        (tmp_path / "pred").mkdir()
        with pytest.raises(ValueError, match="missing prediction"):
            evaluate_dataset(tmp_path / "pred", tmp_path / "gt")

    def test_empty_ground_truth(self, tmp_path):
        (tmp_path / "gt").mkdir()
        (tmp_path / "pred").mkdir()
        with pytest.raises(ValueError, match="no ground-truth"):
            evaluate_dataset(tmp_path / "pred", tmp_path / "gt")

    def test_two_sequence_aggregate_hand_checked(self, tmp_path):
        g = _square(4, 4, slice(0, 2), slice(0, 2))
        half = _square(4, 4, slice(0, 1), slice(0, 2))  # J = 0.5 against g
        write_masks(tmp_path / "gt" / "one", [g])
        write_masks(tmp_path / "gt" / "two", [g])
        write_masks(tmp_path / "pred" / "one", [g])
        write_masks(tmp_path / "pred" / "two", [half])
        rows = evaluate_dataset(tmp_path / "pred", tmp_path / "gt", tolerance=0)
        by_name = {r.sequence: r for r in rows}
        assert by_name["one"].j_mean == 1.0
        assert by_name["two"].j_mean == 0.5
        assert by_name["ALL"].j_mean == 0.75
        # recall: one sequence above 0.5, one not strictly above
        assert by_name["ALL"].j_recall == 0.5

    def test_recall_fraction(self, tmp_path):
        # two sequences with mean J 0.6 and ~0.43 give dataset recall 0.5
        g = _square(5, 5, slice(0, 1), slice(0, 5))  # 5 pixels
        close = _square(5, 5, slice(0, 1), slice(0, 4))
        close[1, 0] = 1  # overlap 4, union ~ 6.. adjust below
        far = _square(5, 5, slice(0, 1), slice(0, 3))
        far[1, 0:4] = 1  # overlap 3, union 9 -> 1/3
        write_masks(tmp_path / "gt" / "hi", [g])
        write_masks(tmp_path / "gt" / "lo", [g])
        write_masks(tmp_path / "pred" / "hi", [close])
        write_masks(tmp_path / "pred" / "lo", [far])
        rows = evaluate_dataset(tmp_path / "pred", tmp_path / "gt")
        by_name = {r.sequence: r for r in rows}
        assert by_name["hi"].j_mean > 0.5
        assert by_name["lo"].j_mean < 0.5
        assert by_name["ALL"].j_recall == 0.5

    def test_csv_shape(self, tmp_path, capsys):
        g = _square(3, 3, slice(0, 2), slice(0, 2))
        write_masks(tmp_path / "gt" / "s", [g])
        write_masks(tmp_path / "pred" / "s", [g])
        assert main(["eval", "--input", str(tmp_path / "pred"),
                     "--ground-truth", str(tmp_path / "gt")]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines == ["sequence,J_mean,J_recall,J_decay,F_mean,F_recall,F_decay",
                         "s,1.000000,1.000000,0.000000,1.000000,1.000000,0.000000",
                         "ALL,1.000000,1.000000,0.000000,1.000000,1.000000,0.000000"]

    @pytest.mark.parametrize("tolerance", [math.nan, -0.5, math.inf])
    def test_invalid_tolerance_refused_before_reading(self, tmp_path, monkeypatch, tolerance):
        g = _square(4, 4, slice(1, 3), slice(1, 3))
        for root in ("pred", "gt"):
            write_masks(tmp_path / root / "s", [g, g])
        reads, real_read = [], metrics.read_mask_dir

        def counting_read(directory):
            reads.append(directory)
            return real_read(directory)

        monkeypatch.setattr(metrics, "read_mask_dir", counting_read)
        with pytest.raises(ValueError, match=re.escape(f"tolerance {tolerance}")):
            evaluate_dataset(tmp_path / "pred", tmp_path / "gt", tolerance=tolerance)
        assert reads == []

    def _peak(self, root, frames):
        shape = (240, 320)  # 76.8 KB per decoded mask
        for side, shift in (("pred", 0), ("gt", 2)):
            masks = [_square(*shape, slice(20 + i + shift, 120 + i), slice(30, 150 + shift))
                     for i in range(frames)]
            write_masks(root / side / "s", masks)
        tracemalloc.start()
        try:
            evaluate_dataset(root / "pred", root / "gt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_does_not_grow_with_frames(self, tmp_path):
        # one (prediction, reference) pair is decoded at a time; holding every
        # pair of the 16-frame sequence would add 12 pairs, 1.8 MB
        pair = 2 * 240 * 320
        growth = self._peak(tmp_path / "long", 16) - self._peak(tmp_path / "short", 4)
        assert growth < pair // 4

    def test_jobs_do_not_change_rows(self, tmp_path):
        g = _square(4, 4, slice(1, 3), slice(1, 3))
        for name in ("a", "b", "c"):
            write_masks(tmp_path / "gt" / name, [g, g])
            write_masks(tmp_path / "pred" / name, [g, g])
        serial = evaluate_dataset(tmp_path / "pred", tmp_path / "gt", jobs=1)
        threaded = evaluate_dataset(tmp_path / "pred", tmp_path / "gt", jobs=8)
        assert serial == threaded
