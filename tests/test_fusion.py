"""Tests for reliability-weighted mask fusion."""

import functools

import numpy as np
import pytest

import oracles
import scenes
from conftest import mask_dtype_matrix, traced_peak
from tukeyseg import fusion, stats
from tukeyseg.cli import main
from tukeyseg.fusion import (
    STRATEGIES,
    FusionRecord,
    foreground_counts,
    fuse_frame,
    fuse_sequence,
)
from tukeyseg.io import read_mask_dir
from tukeyseg.metrics import jaccard
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

    def test_no_mask_refused(self):
        with pytest.raises(ValueError, match="^at least one mask is required$"):
            fuse_frame([])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fuse_frame([np.zeros((2, 2), np.uint8), np.zeros((3, 3), np.uint8)])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            fuse_frame([np.full((2, 2), 3)])

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
    def test_mask_that_is_not_2d_rejected(self, shape):
        with pytest.raises(ValueError, match="must be 2-D"):
            fuse_frame([np.ones(shape, np.uint8)] * 2)

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
        assert fused.dtype == bool
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
        with pytest.raises(ValueError, match="same number"):
            fuse_sequence([[m, m]], method_names=["a"])

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


class TestFuseSequenceStreams:
    SHAPE = (240, 320)  # 76.8 KB per uint8 mask
    METHODS = 6

    def _frames(self, count, made):
        """A generator of boxes that drift; ``made`` counts the frames it has made."""
        for i in range(count):
            made.append(i)
            masks = []
            for j in range(self.METHODS):
                m = np.zeros(self.SHAPE, dtype=np.uint8)
                m[10 + i : 90 + i, 20 + 3 * j : 120 + 3 * j] = 1
                masks.append(m)
            yield masks

    def _peak(self, count, jobs):
        made = []
        (fused, records), peak = traced_peak(fuse_sequence, self._frames(count, made), jobs=jobs)
        assert made == list(range(count)) and len(fused) == count
        assert len(records) == count * self.METHODS
        return peak

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_holds_jobs_plus_one_frames_of_inputs(self, jobs):
        # 16 frames may hold 12 more fused outputs than 4 frames, but no more
        # inputs; the slack covers a 4-frame run that ends before its pool's
        # window of jobs + 1 frames fills (holding every frame would add 12)
        frame_inputs = self.METHODS * self.SHAPE[0] * self.SHAPE[1]
        fused_output = self.SHAPE[0] * self.SHAPE[1]
        growth = self._peak(16, jobs) - self._peak(4, jobs)
        assert growth <= 12 * fused_output + (jobs + 1) * frame_inputs


def _scene_masks(rng, shape, n_masks, empty=(), full=()):
    """Masks holding one random rectangle each, some of them empty or all foreground."""
    masks = []
    for j in range(n_masks):
        m = np.zeros(shape, dtype=np.uint8)
        if j in full:
            m[...] = 1
        elif j not in empty:
            r0, c0 = rng.integers(0, shape[0]), rng.integers(0, shape[1])
            r1, c1 = rng.integers(r0, shape[0]) + 1, rng.integers(c0, shape[1]) + 1
            m[r0:r1, c0:c1] = rng.random((r1 - r0, c1 - c0)) < 0.8
        masks.append(m)
    return masks


class TestAgainstFullFrameOracle:
    """The dtype-aware check and the in-place box vote against the np.isin check and full-frame vote."""

    @pytest.mark.parametrize("name, mask", mask_dtype_matrix())
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_accepts_what_isin_accepts(self, name, mask, strategy):
        masks = [mask, np.zeros_like(mask, dtype=np.uint8), mask]
        if not np.isin(mask, (0, 1)).all():
            with pytest.raises(ValueError, match="0 or 1"):
                fuse_frame(masks, strategy=strategy)
            return
        fused, alphas, counts = fuse_frame(masks, strategy=strategy)
        expected, expected_alphas, expected_counts = oracles.fuse_frame_full_frame(
            masks, mask_outlier_scales, strategy)
        assert fused.dtype == bool and fused.shape == mask.shape
        assert np.array_equal(fused, expected)
        assert counts == expected_counts
        assert np.array_equal(alphas, expected_alphas)

    def test_vote_matches_with_random_weights(self, rng):
        for trial in range(300):
            shape = tuple(rng.integers(1, 30, size=2))
            n = int(rng.integers(1, 8))
            masks = _scene_masks(rng, shape, n, empty={0} if trial % 5 == 0 else ())
            weights = rng.random(n)
            weights[rng.random(n) < 0.3] = 0.0
            if trial % 7 == 0:
                weights = rng.integers(0, 3, size=n) / 4.0  # exact 0.5 shares occur
            total = float(weights.sum())
            if total == 0.0:
                continue
            # _vote takes the bool masks that fuse_frame's check hands it
            assert np.array_equal(fusion._vote([m.view(bool) for m in masks], weights, total),
                                  oracles.vote_full_frame(masks, weights))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("k_fences", [0.0, 1.5])
    def test_fuse_frame_matches(self, rng, strategy, k_fences):
        shape = (23, 31)
        scenes = [_scene_masks(rng, shape, 6) for _ in range(40)]
        scenes += [_scene_masks(rng, shape, 6, full={5}), _scene_masks(rng, shape, 6, full={0, 1})]
        scenes += [_scene_masks(rng, shape, 4, empty=range(4)),   # all empty
                   _scene_masks(rng, shape, 2, empty={0}, full={1}),  # zero weights at k=0
                   _scene_masks(rng, shape, 1)]
        for masks in scenes:
            fused, alphas, counts = fuse_frame(masks, k_fences, strategy)
            expected, expected_alphas, expected_counts = oracles.fuse_frame_full_frame(
                masks, lambda c: mask_outlier_scales(c, k_fences), strategy)
            assert fused.tobytes() == expected.tobytes()
            assert counts == expected_counts
            assert alphas.tobytes() == expected_alphas.tobytes()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_fused_mask_never_aliases_an_input(self, rng, strategy):
        for masks in (_scene_masks(rng, (9, 8), 3), [np.ones((4, 4), np.uint8)] * 2,
                      _scene_masks(rng, (5, 5), 2, empty={0}, full={1})):
            snapshot = [m.copy() for m in masks]
            fused, _, _ = fuse_frame(masks, 0.0, strategy)
            assert not any(np.shares_memory(fused, m) for m in masks)
            fused[...] = 7
            assert all(np.array_equal(m, s) for m, s in zip(masks, snapshot))


def _oracle_combine(frames, names, strategy, k_fences):
    """Fused masks and the mask_alphas.csv bytes that combine wrote before the box vote."""
    fused, lines = [], ["frame,method,count,alpha"]
    for index, masks in enumerate(frames):
        mask, alphas, counts = oracles.fuse_frame_full_frame(
            masks, lambda c: mask_outlier_scales(c, k_fences), strategy)
        fused.append(mask)
        lines += [f"{index},{name},{count},{float(alpha):.12g}"
                  for name, count, alpha in zip(names, counts, alphas)]
    return fused, ("\n".join(lines) + "\n").encode()


class TestCombineAgainstOracle:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("k_fences", ["0", "1.5"])
    @pytest.mark.parametrize("jobs", ["1", "3"])
    def test_outputs_equal_oracle(self, tmp_path, rng, strategy, k_fences, jobs):
        names = [f"m{j}" for j in range(5)]
        frames = [_scene_masks(rng, (24, 32), 5) for _ in range(6)]
        frames += [_scene_masks(rng, (24, 32), 5, full={4}),
                   _scene_masks(rng, (24, 32), 5, empty=range(5)),
                   _scene_masks(rng, (24, 32), 5, empty={0, 1}, full={2, 3, 4})]
        for j, name in enumerate(names):
            scenes.write_masks(tmp_path / "in" / name, [masks[j] for masks in frames])
        out = tmp_path / "out"
        assert main(["combine", "--input", str(tmp_path / "in"), "--output", str(out),
                     "--strategy", strategy, "--k-fences", k_fences, "--jobs", jobs]) == 0
        expected, csv = _oracle_combine(frames, names, strategy, float(k_fences))
        fused = read_mask_dir(out)
        assert len(fused) == len(expected)
        assert all(np.array_equal(f, e) for f, e in zip(fused, expected))
        assert (out / "mask_alphas.csv").read_bytes() == csv


# Fixed before the first run, and not to be re-picked to make a check pass.
_CLAIM_SEEDS = (1, 2, 3, 4, 5, 6, 7)
# Seeds on which TISM's J fell below the mean strategy's: TISM vs mean.
_BELOW_MEAN = {1: "0.8936 vs 0.8956", 3: "0.9060 vs 0.9111"}
# Seeds on which TISM lost J to the mean strategy on the clean frames: the sum
# over those frames of J(tism) - J(mean).
_BELOW_MEAN_CLEAN = {1: "-0.097", 3: "-0.189", 4: "-0.012", 5: "-0.001", 6: "-0.036"}


def _claim_seeds(below, reason):
    """The claim seeds, those in ``below`` as strict expected failures giving ``reason``."""
    return [pytest.param(seed, marks=pytest.mark.xfail(strict=True,
                                                       reason=f"{reason} ({below[seed]})"))
            if seed in below else seed for seed in _CLAIM_SEEDS]


@functools.cache
def _claim_scores(seed):
    """Per-frame J of each method and of each fusion strategy over ``scenes.fusion(seed)``,
    and which frames are outlier frames.

    An outlier frame is one where some method's mask is empty or holds more
    than twice the median of the frame's foreground counts.
    """
    scene = scenes.fusion(seed)
    frames = list(zip(*scene.masks.values()))

    def j_frames(sequence):
        return np.array([jaccard(m, g) for m, g in zip(sequence, scene.truth)])

    counts = np.array([[np.count_nonzero(m) for m in masks] for masks in frames])
    outliers = ((counts == 0) | (counts > 2 * np.median(counts, axis=1, keepdims=True))).any(axis=1)
    methods = [j_frames(masks) for masks in scene.masks.values()]
    fused = {s: j_frames(fuse_sequence(frames, strategy=s)[0]) for s in STRATEGIES}
    return methods, fused, outliers


class TestFusionClaim:
    """The paper's claim for TISM fusion, on the fusion benchmark's shape at 96 x 128.

    Six methods, one or two of them outliers ("large" or "empty") on about
    30% of the frames. The paper reports TISM up to 28% above the median
    method's J; here it is 16-23% above.
    """

    @pytest.mark.parametrize("seed", _CLAIM_SEEDS)
    def test_tism_beats_the_median_method(self, seed):
        methods, fused, _ = _claim_scores(seed)
        assert fused["tism"].mean() > np.median([j.mean() for j in methods])

    @pytest.mark.parametrize("seed", _CLAIM_SEEDS)
    def test_tism_at_least_the_median_strategy(self, seed):
        _, fused, _ = _claim_scores(seed)
        assert fused["tism"].mean() >= fused["median"].mean()

    @pytest.mark.parametrize("seed", _claim_seeds(
        _BELOW_MEAN, "TISM's J is below the unweighted vote's on this seed"))
    def test_tism_at_least_the_mean_strategy(self, seed):
        _, fused, _ = _claim_scores(seed)
        assert fused["tism"].mean() >= fused["mean"].mean()

    @pytest.mark.parametrize("seed", _CLAIM_SEEDS)
    def test_tism_at_least_the_mean_strategy_on_outlier_frames(self, seed):
        # where a method fails, the weights pay: +0.06 to +0.37 J summed over these frames
        _, fused, outliers = _claim_scores(seed)
        assert outliers.any()
        assert (fused["tism"] - fused["mean"])[outliers].sum() >= 0

    @pytest.mark.parametrize("seed", _claim_seeds(
        _BELOW_MEAN_CLEAN, "on clean frames the weights follow each method's scale, not its "
                           "accuracy, and cost J against the unweighted vote"))
    def test_tism_at_least_the_mean_strategy_on_clean_frames(self, seed):
        _, fused, outliers = _claim_scores(seed)
        assert not outliers.all()
        assert (fused["tism"] - fused["mean"])[~outliers].sum() >= 0
