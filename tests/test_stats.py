"""Tests for the robust-statistics kernel."""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import traced_peak
from tukeyseg.io import FlowField
from tukeyseg.segment import flow_measures
from tukeyseg.stats import (
    OutlierFences,
    Quartiles,
    fences,
    mask_outlier_scales,
    outlier_scale,
    outlier_set,
    quartiles,
)


class TestQuartiles:
    def test_constant_sample(self):
        q = quartiles([5, 5, 5, 5])
        assert (q.q1, q.q2, q.q3) == (5, 5, 5)

    def test_five_values(self):
        q = quartiles([1, 2, 3, 4, 5])
        assert (q.q1, q.q2, q.q3) == (2, 3, 4)

    def test_interpolated_positions(self):
        # zero-based positions 1.25, 2.5, 3.75 on the sorted sample
        q = quartiles([1, 2, 3, 4, 5, 100])
        assert (q.q1, q.q2, q.q3) == (2.25, 3.5, 4.75)

    def test_empty_sample(self):
        with pytest.raises(ValueError, match="empty sample"):
            quartiles([])

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            quartiles([1.0, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            quartiles([1.0, np.inf])

    def test_accepts_2d_fields(self):
        q = quartiles(np.array([[1, 2], [3, 4]]))
        assert q.q2 == 2.5

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30), st.randoms())
    def test_permutation_invariant(self, sample, pyrandom):
        expected = quartiles(sample)
        shuffled = list(sample)
        pyrandom.shuffle(shuffled)
        assert quartiles(shuffled) == expected

    def test_permutation_invariant_many_shuffles(self, rng):
        sample = rng.integers(0, 100, size=23).astype(float)
        expected = quartiles(sample)
        for _ in range(1000):
            assert quartiles(rng.permutation(sample)) == expected

    def test_matches_oracle_small_multisets(self):
        for n in range(1, 7):
            for combo in itertools.combinations_with_replacement(range(10), n):
                q = quartiles(combo)
                assert (q.q1, q.q2, q.q3) == oracles.quartiles(combo)

    def test_ordering_invariant(self, rng):
        for _ in range(200):
            sample = rng.normal(size=rng.integers(1, 40))
            q = quartiles(sample)
            assert q.q1 <= q.q2 <= q.q3


def as_tuple(q):
    return (q.q1, q.q2, q.q3)


class TestQuartilesBitExact:
    """``quartiles`` equals ``np.quantile(..., method="linear")`` with ``==``."""

    def test_tie_heavy_multisets(self, rng):
        for n in range(1, 13):
            for combo in itertools.combinations_with_replacement(range(4), n):
                ordered = np.array(combo, dtype=np.float64)
                for sample in (ordered, ordered[::-1], rng.permutation(ordered)):
                    assert as_tuple(quartiles(sample)) == oracles.quartiles_np(sample)

    def test_random_samples(self, rng):
        sizes = list(range(13, 40)) + [64, 100, 101, 257, 1000, 1023, 1024, 4096, 4999, 5000]
        for n in sizes:
            normal = rng.normal(size=n)
            samples = (
                normal,
                rng.standard_cauchy(size=n),
                np.sort(normal),
                np.sort(normal)[::-1],
                np.full(n, -2.75),
                rng.choice([-0.0, 0.0], size=n),
                rng.choice([-1.5, -0.0, 0.0, 2.0], size=n),
            )
            for sample in samples:
                assert as_tuple(quartiles(sample)) == oracles.quartiles_np(sample)

    def test_many_random_sizes(self, rng):
        # numpy's introselect leaves the slot next to its kth in order in
        # about 99% of calls, so a partition one off shows only over many
        for n in rng.integers(13, 2000, size=600):
            for sample in (
                rng.normal(size=n),
                rng.standard_cauchy(size=n),
                rng.integers(0, 100, size=n).astype(np.float64),
            ):
                assert as_tuple(quartiles(sample)) == oracles.quartiles_np(sample)

    def test_large_spread_that_fits_in_float64(self):
        for sample in ([-8e307, -8e307, 8e307, 8e307, 8e307], [-8e307, 8e307], [-8e307] * 4 + [8e307] * 5):
            assert as_tuple(quartiles(sample)) == oracles.quartiles_np(sample)

    def test_davis_size_flow_measures(self, rng):
        shape = (480, 854)
        flow = FlowField(
            u=rng.standard_cauchy(shape).astype(np.float32),
            v=rng.standard_cauchy(shape).astype(np.float32),
        )
        for component in flow_measures(flow):
            assert as_tuple(quartiles(component)) == oracles.quartiles_np(component)

    def test_int_bool_and_2d_inputs(self, rng):
        samples = (
            rng.integers(-50, 50, size=37),
            rng.integers(0, 2, size=41).astype(bool),
            rng.integers(0, 2**40, size=(7, 9)),
            rng.normal(size=(13, 11)),
            rng.integers(0, 256, size=(5, 6)).astype(np.uint8),
        )
        for sample in samples:
            assert as_tuple(quartiles(sample)) == oracles.quartiles_np(sample)

    def test_read_only_transposed_and_strided_inputs(self, rng):
        base = rng.normal(size=(60, 90))
        read_only = base.copy()
        read_only.flags.writeable = False
        for sample in (read_only, base.T, base[::3, 1::2], np.asfortranarray(base)):
            assert as_tuple(quartiles(sample)) == oracles.quartiles_np(sample)


class TestQuartilesOnIntegerKeys:
    """Every sample selects on integer keys of its bits, int32 for float32 and int64 else."""

    F32 = np.finfo(np.float32)

    def _assert_matches_widened(self, sample):
        assert as_tuple(quartiles(sample)) == oracles.quartiles_np(sample.astype(np.float64))

    def test_float32_edge_values(self, rng):
        tiny = self.F32.smallest_subnormal
        edges = np.array([-0.0, 0.0, tiny, -tiny, 3 * tiny, self.F32.smallest_normal,
                          self.F32.max, -self.F32.max, 1.0, -1.0, 1.0, np.nextafter(1, 2)],
                         dtype=np.float32)
        for n in range(1, 41):
            for _ in range(20):
                self._assert_matches_widened(rng.choice(edges, size=n))
            self._assert_matches_widened(np.sort(rng.choice(edges, size=n))[::-1])

    def test_float32_random_samples(self, rng):
        for n in range(1, 41):
            for _ in range(10):
                self._assert_matches_widened(rng.standard_cauchy(size=n).astype(np.float32))
                self._assert_matches_widened(rng.integers(-3, 4, size=n).astype(np.float32))

    def test_non_negative_float64_with_both_zeros(self, rng):
        values = np.array([-0.0, 0.0, 5e-324, 1e-300, 0.5, 2.0, 1e300])
        for n in range(1, 41):
            for _ in range(20):
                self._assert_matches_widened(rng.choice(values, size=n))
                self._assert_matches_widened(rng.choice([-0.0, 0.0], size=n))

    def test_signed_float64_with_both_zeros(self, rng):
        tiny = 5e-324
        values = np.array([-0.0, 0.0, tiny, -tiny, 1e-300, -1e-300, 0.5, -0.5, 2.0, -2.0,
                           1e300, -1e300, np.nextafter(-1.0, 0.0), -1.0])
        for n in range(1, 60):
            for _ in range(20):
                self._assert_matches_widened(rng.choice(values, size=n))
                self._assert_matches_widened(rng.choice([-0.0, 0.0, -tiny], size=n))
            self._assert_matches_widened(rng.standard_cauchy(size=n))
            self._assert_matches_widened(np.sort(rng.choice(values, size=n))[::-1])

    def test_float32_sample_is_not_widened(self, rng):
        # the int32 keys are 4 B per value, flipped a block at a time; a
        # float64 copy would be 8, and keys flipped whole-array another 4
        sample = rng.normal(size=400_000).astype(np.float32)
        self._assert_matches_widened(sample)  # keys flipped over several blocks
        assert traced_peak(quartiles, sample)[1] / sample.size <= 6


class TestFloat32FencesAreNotRounded:
    """A float32 sample is compared with its fences in float64 (the NEP 50 trap).

    Each fence lies strictly between two adjacent float32 values, nearer the
    one that rounding would move it onto; a Python-float fence is rounded to
    float32 under NEP 50 and would decide that value the other way.
    """

    @staticmethod
    def _trap():
        a, b = np.float32(1.0), np.nextafter(np.float32(1.0), np.float32(2.0))
        c, d = np.float32(-2.0), np.nextafter(np.float32(-2.0), np.float32(0.0))
        o3 = float(a) + 0.75 * (float(b) - float(a))  # rounds up to b in float32
        o1 = float(c) + 0.25 * (float(d) - float(c))  # rounds down to c in float32
        sample = np.array([c, d, -1.0, 0.0, 0.5, a, b, c, b], dtype=np.float32)
        return sample, OutlierFences(o1, o3)

    def test_the_trap_is_real(self):
        sample, f = self._trap()
        assert np.float32(f.o3) == sample[6] and np.float32(f.o1) == sample[0]
        wide = sample.astype(np.float64)
        rounded = ((sample < f.o1) | (sample > f.o3)).view(np.uint8)
        assert not np.array_equal(rounded, ((wide < f.o1) | (wide > f.o3)).view(np.uint8))

    def test_flags_and_alpha_equal_the_widened_sample(self):
        sample, f = self._trap()
        wide = sample.astype(np.float64)
        flags = outlier_set(sample, f)
        assert flags.tobytes() == outlier_set(wide, f).tobytes()
        assert flags.tolist() == [1, 0, 0, 0, 0, 0, 1, 1, 1]
        assert outlier_scale(sample, flags) == outlier_scale(wide, flags)

    def test_fences_from_quartiles_equal_the_widened_sample(self, rng):
        for _ in range(200):
            sample = rng.standard_cauchy(size=rng.integers(5, 300)).astype(np.float32)
            wide = sample.astype(np.float64)
            for k in (0.0, 0.3, 1.5):
                f = fences(quartiles(sample), k)
                assert f == fences(quartiles(wide), k)
                flags = outlier_set(sample, f)
                assert flags.tobytes() == outlier_set(wide, f).tobytes()
                assert outlier_scale(sample, flags) == outlier_scale(wide, flags)


class TestQuartilesInput:
    def test_caller_array_keeps_values_and_order(self, rng):
        # frame_foregroundness reads the same array after its quartiles, so
        # a reordered field would score every pixel against another's value
        for n in (3, 5, 1000):
            sample = rng.standard_cauchy(size=n)
            before = sample.copy()
            quartiles(sample)
            assert sample.tobytes() == before.tobytes()

    def test_threads_sharing_one_array_agree(self, rng):
        shared = rng.standard_cauchy(size=(240, 427))
        before = shared.copy()
        expected = oracles.quartiles_np(shared)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(quartiles, shared) for _ in range(64)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(as_tuple(q) == expected for q in results)
        assert shared.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "sample",
        [
            [-1e308, -1e308, 1e308, 1e308, 1e308],
            [-1e308, -1e308, 1e308, 1e308, 1e308, 1e308],
            [-1e308, 1e308],
            [-1e308] * 4 + [1e308] * 5,
        ],
        ids=["q1-nan", "q1-inf", "sorted-path", "iqr-only"],
    )
    def test_spread_overflowing_float64_raises(self, sample):
        with pytest.raises(ValueError, match="spread overflows float64"):
            quartiles(sample)

    def test_never_falls_back_to_numpy_quantile(self, rng, monkeypatch):
        samples = [rng.normal(size=n) for n in (4, 5, 6, 7, 8, 13, 1000)]
        expected = [oracles.quartiles_np(sample) for sample in samples]

        def refuse(*args, **kwargs):
            raise AssertionError("quartiles called np.quantile or np.percentile")

        monkeypatch.setattr(np, "quantile", refuse)
        monkeypatch.setattr(np, "percentile", refuse)
        assert [as_tuple(quartiles(sample)) for sample in samples] == expected


class TestFences:
    def test_basic(self):
        f = fences(Quartiles(2, 3, 4), 1.5)
        assert (f.o1, f.o3) == (-1, 7)

    def test_zero_iqr_collapses(self):
        f = fences(Quartiles(5, 5, 5), 1.5)
        assert (f.o1, f.o3) == (5, 5)

    def test_fractional_quartiles(self):
        f = fences(Quartiles(2.25, 3.5, 4.75), 1.5)
        assert (f.o1, f.o3) == (-1.5, 8.5)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            fences(Quartiles(1, 2, 3), float("nan"))
        with pytest.raises(ValueError):
            fences(Quartiles(1, 2, 3), -1.0)

    @given(
        st.lists(st.integers(0, 1000), min_size=2, max_size=50),
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
    )
    def test_width_identity(self, sample, k):
        # o3 - o1 == (1 + 2k) * IQR, exact on dyadic-friendly inputs
        q = quartiles(sample)
        f = fences(q, k)
        assert f.o3 - f.o1 == (1 + 2 * k) * (q.q3 - q.q1)


class TestOutlierSet:
    def test_selects_extreme_value(self):
        data = np.array([1, 2, 3, 4, 5, 100], dtype=float)
        flags = outlier_set(data, OutlierFences(-1.5, 8.5))
        assert flags.tolist() == [0, 0, 0, 0, 0, 1]

    def test_strict_comparison_excludes_fence_values(self):
        data = np.full((3, 3), 7.0)
        flags = outlier_set(data, OutlierFences(7.0, 7.0))
        assert not flags.any()

    def test_both_sides(self):
        flags = outlier_set(np.array([-10.0, 0.0, 10.0]), OutlierFences(-5, 5))
        assert flags.tolist() == [1, 0, 1]

    def test_uint8_flags_of_the_input_shape(self, rng):
        data = rng.normal(size=(4, 5))
        flags = outlier_set(data, OutlierFences(-1.0, 1.0))
        assert flags.dtype == bool and flags.shape == (4, 5)
        assert flags.tolist() == (np.abs(data) > 1.0).astype(np.uint8).tolist()


class TestOutlierScale:
    def test_single_outlier(self):
        data = np.array([1, 2, 3, 4, 5, 100], dtype=float)
        flags = np.array([0, 0, 0, 0, 0, 1], dtype=np.uint8)
        assert outlier_scale(data, flags) == pytest.approx(100 / 115)

    def test_empty_outlier_set(self):
        data = np.array([1.0, -2.0, 3.0])
        assert outlier_scale(data, np.zeros(3)) == 0.0

    def test_all_zero_data(self):
        assert outlier_scale(np.zeros(5), np.ones(5)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            outlier_scale(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_bounded_on_random_fields(self, rng):
        for _ in range(500):
            data = rng.normal(scale=rng.uniform(0.1, 100), size=(8, 8))
            q = quartiles(data)
            flags = outlier_set(data, fences(q))
            alpha = outlier_scale(data, flags)
            assert 0.0 <= alpha <= 1.0

    def test_matches_oracle(self, rng):
        for _ in range(100):
            data = rng.standard_cauchy(size=30)
            q = quartiles(data)
            f = fences(q)
            flags = outlier_set(data, f)
            expected = oracles.outlier_scale(data.tolist(), flags.tolist())
            assert outlier_scale(data, flags) == pytest.approx(expected, abs=1e-12)


class TestMaskOutlierScales:
    def test_reference_counts(self):
        alphas = mask_outlier_scales([10, 100, 110, 120, 500])
        assert alphas.tolist() == [0.0, 0.75, 1.0, 0.75, 0.0]

    def test_all_equal_counts(self):
        for k in (0, 3, 250):
            assert mask_outlier_scales([k, k, k]).tolist() == [1.0, 1.0, 1.0]

    def test_three_spread_counts(self):
        # quartiles (25, 50, 75), fences (-50, 150)
        alphas = mask_outlier_scales([0, 50, 100])
        assert alphas.tolist() == [0.5, 1.0, 0.5]

    def test_zero_iqr_mixed_counts(self):
        # collapsed fences: only counts at the median survive
        alphas = mask_outlier_scales([1, 5, 5, 5, 9])
        assert alphas.tolist() == [0.0, 1.0, 1.0, 1.0, 0.0]

    def test_empty_list(self):
        with pytest.raises(ValueError):
            mask_outlier_scales([])

    def test_median_count_scores_one(self, rng):
        for _ in range(200):
            counts = rng.integers(0, 1000, size=rng.integers(1, 15))
            q = quartiles(counts)
            alphas = mask_outlier_scales(counts)
            for count, alpha in zip(counts, alphas):
                if count == q.q2:
                    assert alpha == 1.0

    def test_counts_outside_fences_score_zero(self, rng):
        # the median of a collapsed (zero-IQR) distribution sits on both
        # fences and still scores 1, so it is excluded here
        for _ in range(200):
            counts = rng.integers(0, 1000, size=rng.integers(1, 15))
            q = quartiles(counts)
            f = fences(q)
            alphas = mask_outlier_scales(counts)
            for count, alpha in zip(counts, alphas):
                if (count <= f.o1 or count >= f.o3) and count != q.q2:
                    assert alpha == 0.0

    def test_monotone_toward_median(self, rng):
        for _ in range(200):
            counts = rng.integers(0, 1000, size=rng.integers(2, 15))
            q2 = quartiles(counts).q2
            alphas = mask_outlier_scales(counts)
            pairs = sorted(zip(counts.tolist(), alphas.tolist()))
            below = [(c, a) for c, a in pairs if c <= q2]
            above = [(c, a) for c, a in pairs if c >= q2]
            assert all(a1 <= a2 + 1e-12 for (_, a1), (_, a2) in zip(below, below[1:]))
            assert all(a1 >= a2 - 1e-12 for (_, a1), (_, a2) in zip(above, above[1:]))

    @given(
        st.lists(st.integers(0, 10_000), min_size=1, max_size=20),
        st.sampled_from([2, 3, 4, 7, 10, 16]),
    )
    @settings(max_examples=200)
    def test_scale_invariance(self, counts, factor):
        base = mask_outlier_scales(counts)
        scaled = mask_outlier_scales([c * factor for c in counts])
        assert scaled.tolist() == base.tolist()

    def test_matches_oracle(self, rng):
        for _ in range(300):
            counts = rng.integers(0, 500, size=rng.integers(1, 12)).tolist()
            expected = oracles.mask_alphas(counts)
            got = mask_outlier_scales(counts)
            assert got.tolist() == pytest.approx(expected, abs=1e-12)
