"""Tests for reliability-weighted mask fusion."""

import numpy as np
import pytest

import oracles
from tukeyseg import fusion, stats
from tukeyseg.fusion import (
    STRATEGIES,
    FusionRecord,
    foreground_counts,
    fuse_frame,
    fuse_sequence,
)
from tukeyseg.stats import mask_outlier_scales


def _mask(rows):
    return np.array(rows, dtype=np.uint8)


def nine_mask_fixture():
    """Eight near-agreeing masks plus one all-foreground outlier.

    Each sane mask carries the same 10x10 block plus its own private
    pixels (disjoint across masks), so counts are 100, 102, ..., 114 and
    every pixel is either unanimous or supported by a single method.
    """
    h = w = 20
    block = (slice(5, 15), slice(5, 15))
    sane = []
    cursor = 0
    for i in range(8):
        m = np.zeros((h, w), dtype=np.uint8)
        m[block] = 1
        for _ in range(2 * i):
            m[cursor // w, cursor % w] = 1
            cursor += 1
        sane.append(m)
    outlier = np.ones((h, w), dtype=np.uint8)
    truth = np.zeros((h, w), dtype=np.uint8)
    truth[block] = 1
    return sane, outlier, truth


class TestFuseFrame:
    def test_identical_masks_identity(self):
        m = _mask([[1, 1], [0, 0]])
        fused, alphas, _ = fuse_frame([m, m, m])
        assert np.array_equal(fused, m)
        assert alphas.tolist() == [1.0, 1.0, 1.0]

    def test_equal_counts_majority(self):
        a = _mask([[1, 1], [0, 0]])
        b = _mask([[1, 0], [1, 0]])
        c = _mask([[1, 1], [0, 0]])
        fused, alphas, _ = fuse_frame([a, b, c])
        assert alphas.tolist() == [1.0, 1.0, 1.0]
        # vote shares [1, 2/3; 1/3, 0] thresholded strictly at 0.5
        assert fused.tolist() == [[1, 1], [0, 0]]

    def test_five_count_fixture_matches_oracle(self, rng):
        h = w = 30
        counts = [10, 100, 110, 120, 500]
        masks = []
        for count in counts:
            flat = np.zeros(h * w, dtype=np.uint8)
            flat[rng.choice(h * w, size=count, replace=False)] = 1
            masks.append(flat.reshape(h, w))
        fused, alphas, _ = fuse_frame(masks)
        assert alphas.tolist() == [0.0, 0.75, 1.0, 0.75, 0.0]
        expected, expected_alphas = oracles.fuse_masks([m.tolist() for m in masks])
        assert fused.tolist() == expected
        assert alphas.tolist() == pytest.approx(expected_alphas, abs=1e-12)

    def test_convex_combination_support(self, rng):
        for _ in range(50):
            masks = [(rng.random((5, 5)) > 0.5).astype(np.uint8) for _ in range(5)]
            fused, _, _ = fuse_frame(masks)
            support = np.zeros((5, 5), dtype=bool)
            for m in masks:
                support |= m != 0
            assert not np.any(fused & ~support)

    def test_equal_counts_reduce_to_mean(self, rng):
        for _ in range(200):
            count = int(rng.integers(1, 20))
            masks = []
            for _ in range(int(rng.integers(1, 8))):
                flat = np.zeros(36, dtype=np.uint8)
                flat[rng.choice(36, size=count, replace=False)] = 1
                masks.append(flat.reshape(6, 6))
            fused, alphas, _ = fuse_frame(masks)
            assert np.all(alphas == 1.0)
            assert fused.tolist() == oracles.mean_vote([m.tolist() for m in masks])

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_returns_counts_and_weights_for_every_strategy(self, strategy):
        masks = [np.array([[True, False, False]]), np.array([[1, 1, 0]]), _mask([[1, 1, 1]])]
        _, alphas, counts = fuse_frame(masks, strategy=strategy)
        assert counts == [1, 2, 3]
        assert all(type(count) is int for count in counts)
        assert alphas.tolist() == mask_outlier_scales([1, 2, 3]).tolist()

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            fuse_frame([_mask([[1]])], strategy="vote")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fuse_frame([np.zeros((2, 2), np.uint8), np.zeros((3, 3), np.uint8)])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            fuse_frame([np.full((2, 2), 3)])

    def test_outlier_rejection(self):
        sane, outlier, truth = nine_mask_fixture()
        fused_with, alphas, _ = fuse_frame(sane + [outlier])
        fused_without, _, _ = fuse_frame(sane)
        assert alphas[-1] == 0.0
        assert np.all(alphas[:-1] > 0)
        assert fused_with.tobytes() == fused_without.tobytes()
        assert np.array_equal(fused_with, truth)


class TestZeroWeightFallback:
    """Counts [10, 0] with k_fences=0: both counts sit on a fence, both weights are 0."""

    FULL = np.ones((2, 5), np.uint8)
    EMPTY = np.zeros((2, 5), np.uint8)

    def test_counts_weigh_zero(self):
        assert mask_outlier_scales([10, 0], 0.0).tolist() == [0.0, 0.0]

    def test_fuse_frame_returns_lower_median_mask(self):
        fused, alphas, _ = fuse_frame([self.FULL, self.EMPTY], k_fences=0.0)
        assert alphas.tolist() == [0.0, 0.0]
        assert fused.dtype == np.uint8
        assert np.array_equal(fused, self.EMPTY)
        assert np.array_equal(fused, fuse_frame([self.FULL, self.EMPTY], strategy="median")[0])

    def test_fuse_sequence_returns_lower_median_mask(self):
        fused, records = fuse_sequence(
            [[self.FULL, self.EMPTY]] * 2, method_names=["a", "b"], k_fences=0.0
        )
        assert all(np.array_equal(mask, self.EMPTY) for mask in fused)
        assert [(r.frame, r.method, r.count, r.alpha) for r in records] == [
            (0, "a", 10, 0.0), (0, "b", 0, 0.0), (1, "a", 10, 0.0), (1, "b", 0, 0.0)
        ]


class TestFuseMean:
    def test_identity(self):
        m = _mask([[0, 1], [1, 0]])
        assert np.array_equal(fuse_frame([m, m], strategy="mean")[0], m)

    def test_exact_tie_is_background(self):
        a = _mask([[1]])
        b = _mask([[0]])
        assert fuse_frame([a, b], strategy="mean")[0].tolist() == [[0]]

    def test_two_of_three(self):
        a = _mask([[1]])
        b = _mask([[1]])
        c = _mask([[0]])
        assert fuse_frame([a, b, c], strategy="mean")[0].tolist() == [[1]]


class TestFuseMedian:
    def test_picks_median_count(self):
        masks = [
            np.pad(np.ones((1, n), np.uint8), ((0, 4), (0, 10 - n)))
            for n in (5, 7, 9)
        ]
        chosen = fuse_frame(masks, strategy="median")[0]
        assert chosen.sum() == 7

    def test_single_mask(self):
        m = _mask([[1, 0]])
        assert np.array_equal(fuse_frame([m], strategy="median")[0], m)

    def test_tie_prefers_first(self):
        a = np.zeros((3, 4), np.uint8)
        a[0, :4] = 1
        b = np.zeros((3, 4), np.uint8)
        b[1, :4] = 1
        c = np.ones((3, 4), np.uint8)
        c[2, 2:] = 1
        chosen = fuse_frame([a, b, c], strategy="median")[0]  # counts [4, 4, 10]
        assert np.array_equal(chosen, a)

    def test_lower_median_for_even_sets(self):
        masks = []
        for n in (2, 4, 6, 8):
            m = np.zeros((1, 10), np.uint8)
            m[0, :n] = 1
            masks.append(m)
        assert fuse_frame(masks, strategy="median")[0].sum() == 4

    def test_output_is_an_input(self, rng):
        for _ in range(50):
            masks = [(rng.random((4, 4)) > 0.5).astype(np.uint8) for _ in range(5)]
            chosen = fuse_frame(masks, strategy="median")[0]
            assert any(np.array_equal(chosen, m) for m in masks)


class TestFuseSequence:
    def test_identical_frames_identical_outputs(self):
        a = _mask([[1, 1], [0, 0]])
        b = _mask([[1, 0], [1, 0]])
        frames = [[a, b]] * 4
        fused, records = fuse_sequence(frames)
        for mask in fused[1:]:
            assert np.array_equal(mask, fused[0])
        assert len(records) == 8

    def test_records_carry_counts_and_alphas(self):
        sane, outlier, _ = nine_mask_fixture()
        frames = [sane + [outlier]]
        names = [f"m{j}" for j in range(9)]
        fused, records = fuse_sequence(frames, method_names=names)
        assert [r.method for r in records] == names
        assert records[-1].alpha == 0.0
        assert records[-1].count == 400
        assert records[0].count == 100

    def test_outlier_method_does_not_change_sequence_output(self):
        sane, outlier, truth = nine_mask_fixture()
        with_outlier, _ = fuse_sequence([sane + [outlier]] * 3)
        without, _ = fuse_sequence([list(sane)] * 3)
        for a, b in zip(with_outlier, without):
            assert a.tobytes() == b.tobytes()

    def test_empty_input(self):
        with pytest.raises(ValueError, match="no frames"):
            fuse_sequence([])

    def test_ragged_frames_rejected(self):
        m = _mask([[1]])
        with pytest.raises(ValueError, match="same number"):
            fuse_sequence([[m, m], [m]])

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            fuse_sequence([[_mask([[1]])]], strategy="vote")

    def test_permuting_frames_permutes_outputs(self, rng):
        frames = []
        for _ in range(5):
            frames.append([(rng.random((4, 4)) > 0.5).astype(np.uint8) for _ in range(4)])
        fused, _ = fuse_sequence(frames)
        order = [3, 1, 4, 0, 2]
        permuted, _ = fuse_sequence([frames[i] for i in order])
        for out_index, in_index in enumerate(order):
            assert np.array_equal(permuted[out_index], fused[in_index])

    def test_single_method_passthrough(self):
        m = _mask([[1, 0], [0, 1]])
        for strategy in ("tism", "mean", "median"):
            fused, _ = fuse_sequence([[m], [m]], strategy=strategy)
            assert all(np.array_equal(out, m) for out in fused)

    def test_strategies_differ_when_expected(self):
        sane, outlier, truth = nine_mask_fixture()
        frames = [sane + [outlier]]
        tism, _ = fuse_sequence(frames, strategy="tism")
        mean, _ = fuse_sequence(frames, strategy="mean")
        median, _ = fuse_sequence(frames, strategy="median")
        assert np.array_equal(tism[0], truth)
        # the all-foreground outlier drags the mean vote but not the others
        assert mean[0].sum() >= tism[0].sum()
        assert median[0].sum() in [int(m.sum()) for m in sane]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("k_fences", [0.0, 1.0, 1.5])
    def test_matches_combiner_per_frame(self, rng, strategy, k_fences):
        oracle = {
            "tism": lambda masks: oracles.fuse_masks(masks, k_fences)[0],
            "mean": oracles.mean_vote,
            "median": oracles.lower_median_mask,
        }[strategy]
        names = ["a", "b", "c", "d", "e"]
        frames = [
            [(rng.random((6, 7)) > p).astype(np.uint8) for p in (0.2, 0.5, 0.55, 0.6, 0.95)]
            for _ in range(6)
        ]
        fused, records = fuse_sequence(frames, names, strategy, k_fences, jobs=2)
        for index, masks in enumerate(frames):
            assert fused[index].tolist() == oracle([m.tolist() for m in masks])
            counts = foreground_counts(masks)
            alphas = mask_outlier_scales(counts, k_fences)
            assert records[5 * index : 5 * index + 5] == [
                FusionRecord(index, name, count, float(alpha))
                for name, count, alpha in zip(names, counts, alphas)
            ]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_each_frame_counted_and_weighed_once(self, rng, monkeypatch, strategy):
        calls = {"foreground_counts": 0, "mask_outlier_scales": 0}
        for module, name in ((fusion, "foreground_counts"), (stats, "mask_outlier_scales")):
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        frames = [[(rng.random((4, 4)) > 0.5).astype(np.uint8) for _ in range(3)]
                  for _ in range(5)]
        fuse_sequence(frames, strategy=strategy)
        assert calls == {"foreground_counts": 5, "mask_outlier_scales": 5}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_non_binary_rejected(self, strategy):
        ok = _mask([[1, 0]])
        with pytest.raises(ValueError, match="0 or 1"):
            fuse_sequence([[ok, ok], [ok, _mask([[2, 0]])]], strategy=strategy)

    def test_jobs_deterministic(self, rng):
        frames = []
        for _ in range(6):
            frames.append([(rng.random((6, 6)) > 0.5).astype(np.uint8) for _ in range(5)])
        serial, records_serial = fuse_sequence(frames, jobs=1)
        threaded, records_threaded = fuse_sequence(frames, jobs=8)
        assert records_serial == records_threaded
        for a, b in zip(serial, threaded):
            assert a.tobytes() == b.tobytes()
