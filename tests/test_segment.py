"""Tests for the flow/saliency outlier segmenter."""

import hashlib
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy._core import _multiarray_umath

import oracles
import tukeyseg
from conftest import adversarial_masks
from scenes import Scene, flow_field, moving_block, write
from tukeyseg.io import open_sequence
from tukeyseg.metrics import jaccard
from tukeyseg.io import write_saliency_pgm
from tukeyseg.stats import _CACHE_ELEMENTS
from tukeyseg.segment import (
    COMPONENT_NAMES,
    SegmenterConfig,
    flow_measures,
    frame_foregroundness,
    segment_sequence,
    select_top_segments,
    threshold_mask,
)
from tukeyseg.stats import fences, outlier_set, outlier_scale, quartiles


def _fore(u, v, vs, **cfg):
    """frame_foregroundness of one in-memory frame under SegmenterConfig(**cfg)."""
    fore, _ = frame_foregroundness(Scene(flows=[(u, v)], saliencies=[vs]), 0,
                                   SegmenterConfig(**cfg))
    return fore


def _measure_stats(component, k=1.5):
    """(median, outlier flags, outlier scale) of one flow measure."""
    q = quartiles(component)
    flags = outlier_set(component, fences(q, k))
    return q.q2, flags, outlier_scale(component, flags)


def _deviation_sum(u, v, min_scale=0.5):
    """Sum over flow measures of max(alpha, min_scale) * |d - median|."""
    total = 0.0
    for component in flow_measures(flow_field(u, v)):
        median, _, alpha = _measure_stats(component)
        total = total + max(alpha, min_scale) * np.abs(component.astype(np.float64) - median)
    return total


class TestFlowMeasures:
    def test_three_four_five(self):
        m = flow_measures(flow_field([[3.0]], [[4.0]]))
        assert m.magnitude[0, 0] == pytest.approx(5.0)
        assert m.angle[0, 0] == pytest.approx(math.atan2(4, 3))

    def test_zero_vector_convention(self):
        m = flow_measures(flow_field([[0.0]], [[0.0]]))
        assert m.magnitude[0, 0] == 0.0
        assert m.angle[0, 0] == 0.0

    def test_negative_x_axis(self):
        m = flow_measures(flow_field([[-1.0]], [[0.0]]))
        assert m.magnitude[0, 0] == pytest.approx(1.0)
        assert m.angle[0, 0] == pytest.approx(math.pi)

    def test_angle_range_half_open(self, rng):
        u = rng.normal(size=(10, 10))
        v = rng.normal(size=(10, 10))
        m = flow_measures(flow_field(u, v))
        assert np.all(m.angle > -math.pi)
        assert np.all(m.angle <= math.pi)

    def test_components_are_the_flows_own_arrays(self, rng):
        flow = flow_field(rng.normal(size=(6, 7)), rng.normal(size=(6, 7)))
        m = flow_measures(flow)
        assert m.x is flow.u and m.y is flow.v
        assert m.x.dtype == np.float32
        assert m.magnitude.dtype == m.angle.dtype == np.float64

    def test_magnitude_and_angle_of_the_widened_flow(self, rng):
        u, v = rng.standard_cauchy(size=(2, 40, 50)).astype(np.float32)
        m = flow_measures(flow_field(u, v))
        wide_u, wide_v = u.astype(np.float64), v.astype(np.float64)
        angle = np.arctan2(wide_v, wide_u)
        angle[angle == -np.pi] = np.pi
        assert m.magnitude.tobytes() == np.sqrt(wide_u * wide_u + wide_v * wide_v).tobytes()
        assert m.angle.tobytes() == angle.tobytes()

    def test_magnitude_is_the_rounded_root_of_the_rounded_sum(self, rng):
        # Float32 squares are exact in float64, so the magnitude rounds twice:
        # the sum of the squares, then its square root. float() of a Fraction
        # and math.sqrt are both correctly rounded.
        info = np.finfo(np.float32)
        extremes = np.array([info.max, -info.max, info.smallest_subnormal, -info.smallest_subnormal,
                             info.smallest_normal, 0.0, -0.0, 1.0, -3.0, 4.0, 1e-30, 7e29],
                            np.float32)
        pairs = np.stack(np.meshgrid(extremes, extremes)).reshape(2, -1)
        mixed = (rng.standard_cauchy(size=(2, 4000))
                 * 2.0 ** rng.integers(-160, 100, size=(2, 4000))).astype(np.float32)
        u, v = np.concatenate([pairs, mixed], axis=1).reshape(2, 8, -1)
        magnitude = flow_measures(flow_field(u, v)).magnitude
        expected = [math.sqrt(float(Fraction(float(a)) ** 2 + Fraction(float(b)) ** 2))
                    for a, b in zip(u.ravel(), v.ravel())]
        assert magnitude.ravel().tolist() == expected

    def test_magnitude_within_one_ulp_of_hypot(self):
        # On this Cauchy flow 14,334 of 409,920 magnitudes (3.5%) differ from
        # math.hypot, each by one ulp.
        rng = np.random.default_rng(480)
        u, v = rng.standard_cauchy(size=(2, 480, 854)).astype(np.float32)
        magnitude = flow_measures(flow_field(u, v)).magnitude
        hypot = np.array([math.hypot(a, b) for a, b in zip(u.ravel().tolist(), v.ravel().tolist())])
        ulps = np.abs(magnitude.ravel().view(np.int64) - hypot.view(np.int64))
        assert ulps.max() <= 1
        assert np.count_nonzero(ulps) / ulps.size < 0.05

    def test_magnitude_bits_do_not_follow_the_simd_dispatch(self):
        features = _multiarray_umath.__cpu_features__
        disabled = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
        if not any(features.get(t) for t in disabled):
            pytest.skip("the CPU has no AVX-512, so there is no dispatch to disable")
        child = (
            "import hashlib, numpy as np\n"
            "from numpy._core import _multiarray_umath as m\n"
            f"assert not any(m.__cpu_features__.get(t) for t in {disabled!r})\n"
            "from tukeyseg.io import FlowField\n"
            "from tukeyseg.segment import flow_measures\n"
            "u, v = np.random.default_rng(480).standard_cauchy(size=(2, 480, 854)).astype(np.float32)\n"
            "print(hashlib.sha256(flow_measures(FlowField(u, v)).magnitude.tobytes()).hexdigest())\n"
        )
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled),
               "PYTHONPATH": str(Path(tukeyseg.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", child], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        u, v = np.random.default_rng(480).standard_cauchy(size=(2, 480, 854)).astype(np.float32)
        here = hashlib.sha256(flow_measures(flow_field(u, v)).magnitude.tobytes()).hexdigest()
        assert run.stdout.strip() == here

    def test_no_float64_copy_of_the_components(self, rng):
        # Magnitude and angle are 16 B per pixel; float64 copies of x and y
        # would add 16 more. The slack covers the angle's 1 B/pixel bool
        # temporary and the ufunc buffers.
        shape = (480, 854)
        flow = flow_field(*rng.normal(size=(2, *shape)))
        flow_measures(flow)
        tracemalloc.start()
        try:
            flow_measures(flow)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (shape[0] * shape[1]) <= 18.0


class TestMotionSaliency:
    """The gated motion terms, isolated by a zero saliency map."""

    def test_low_scale_zeroes_field(self):
        # 100 of 1200 pixels move at 8 against background 1: alpha ~ 0.42 < 0.5
        # for x and magnitude; y and angle are constant
        flow = moving_block().flows[0]
        assert not _fore(flow.u, flow.v, np.zeros_like(flow.u)).any()

    def test_gated_deviation_values(self):
        # higher-contrast block: alpha >= 0.5, outliers get alpha * |d - median|;
        # with v = 0 and u > 0 the magnitude equals x and y, angle are constant,
        # so x and magnitude each add that term
        flow = moving_block(block_flow=(30.0, 0.0)).flows[0]
        out = _fore(flow.u, flow.v, np.zeros_like(flow.u))
        component = np.asarray(flow.u, float)
        assert np.array_equal(flow_measures(flow).magnitude, component)
        median, flags, alpha = _measure_stats(component)
        assert alpha >= 0.5
        assert np.all(out[flags == 0] == 0)
        nonzero = flags != 0
        assert np.allclose(
            out[nonzero], 2 * alpha * np.abs(component[nonzero] - median), atol=1e-9
        )

    def test_non_outlier_pixels_zero_on_random_fields(self, rng):
        for _ in range(50):
            u = rng.standard_cauchy(size=(12, 12))
            v = rng.standard_cauchy(size=(12, 12))
            out = _fore(u, v, np.zeros((12, 12)))
            expected = np.zeros((12, 12))
            quiet = np.ones((12, 12), dtype=bool)
            for component in flow_measures(flow_field(u, v)):
                median, flags, alpha = _measure_stats(component)
                if alpha >= 0.5:
                    absdev = np.abs(component.astype(np.float64) - median)
                    expected += np.where(flags != 0, alpha * absdev, 0.0)
                    quiet &= flags == 0
            assert np.all(out[quiet] == 0)
            assert np.allclose(out, expected, rtol=1e-12, atol=1e-9)


class TestVisualSaliency:
    """The saliency-weighted deviation sum, isolated by one exponent and gated-off motion."""

    def test_zero_saliency_zero_output(self):
        flow = moving_block().flows[0]  # motion gated off, as in TestMotionSaliency
        for k in (1.0, 0.5, 1.0 / 3.0):
            assert not _fore(flow.u, flow.v, np.zeros(flow.shape), vs_exponents=(k,)).any()

    def test_floor_applies_when_all_scales_zero(self):
        # constant-ish components without outliers: every alpha is 0, the
        # 0.5 floor keeps the deviation sum alive
        u = np.tile(np.array([0.0, 1.0, 2.0, 3.0, 4.0]), (1, 1))
        v = np.zeros_like(u)
        for comp in flow_measures(flow_field(u, v)):
            assert _measure_stats(comp)[2] == 0.0
        out = _fore(u, v, np.ones_like(u), vs_exponents=(1.0,))
        # at u=3: x and magnitude contribute 0.5 * |3 - 2| each; y and angle
        # are identically zero fields with zero deviations
        assert out[0, 3] == pytest.approx(2 * 0.5 * 1.0, abs=1e-12)

    def test_exponent_sharpens_base(self):
        flow = moving_block().flows[0]  # motion gated off
        full = _fore(flow.u, flow.v, np.ones(flow.shape), vs_exponents=(1.0,))
        half = _fore(flow.u, flow.v, np.full(flow.shape, 0.25), vs_exponents=(0.5,))
        assert full.any()
        assert np.allclose(half, 0.5 * full, atol=1e-12)

    def test_monotone_in_saliency(self, rng):
        flow = moving_block().flows[0]
        u, v = flow.u, flow.v
        low = rng.random(u.shape) * 0.5
        high = low + 0.25
        assert np.all(
            _fore(u, v, low, vs_exponents=(1.0,)) <= _fore(u, v, high, vs_exponents=(1.0,))
        )

    def test_dimension_mismatch(self, tmp_path):
        # the sequence's accessors reject a saliency map of another size
        root = write(tmp_path / "vid", moving_block())
        seq = open_sequence(root)
        (root / "saliency" / "00000.pgm").write_bytes(write_saliency_pgm(np.zeros((3, 3))))
        with pytest.raises(ValueError, match="00000.pgm: dimensions 3x3"):
            frame_foregroundness(seq, 0)

    def test_matches_ungated_weighted_sum(self, rng):
        # with k=1 and saliency of all ones the visual term is exactly the
        # floored deviation sum; a zero saliency map leaves the motion terms
        u = rng.normal(size=(6, 6))
        v = rng.normal(size=(6, 6))
        motion = _fore(u, v, np.zeros((6, 6)), vs_exponents=(1.0,))
        out = _fore(u, v, np.ones((6, 6)), vs_exponents=(1.0,))
        assert np.allclose(out - motion, _deviation_sum(u, v), atol=1e-12)


class TestForegroundness:
    def test_all_zero(self):
        zeros = np.zeros((2, 2))
        assert not _fore(zeros, zeros, zeros).any()

    def test_pointwise_addition(self):
        # one moving pixel: x and magnitude each have alpha 1 and add motion
        # 1 * |10 - 0|, and the deviation sum 20 there is weighted by 0.5
        u = np.array([[0.0, 0.0, 0.0, 0.0, 10.0]])
        v = np.zeros_like(u)
        out = _fore(u, v, np.full_like(u, 0.5), vs_exponents=(1.0,))
        assert out.tolist() == [[0.0, 0.0, 0.0, 0.0, 20.0 + 0.5 * 20.0]]

    def test_permutation_invariant(self, rng):
        u, v = rng.normal(size=(2, 3, 3))
        vs = rng.random((3, 3))
        a = _fore(u, v, vs, vs_exponents=(1.0, 0.5, 1.0 / 3.0))
        b = _fore(u, v, vs, vs_exponents=(1.0 / 3.0, 0.5, 1.0))
        assert np.allclose(a, b, atol=1e-12)

    def test_non_negative(self):
        scene = moving_block(block_flow=(30.0, 0.0))
        flow = scene.flows[0]
        out = _fore(flow.u, flow.v, scene.saliencies[0], vs_exponents=(1.0, 0.5))
        assert out.any()
        assert np.all(out >= 0)

    def test_matches_oracle_on_cauchy_flows(self, rng):
        configs = [
            SegmenterConfig(),
            SegmenterConfig(k_fences=0.5, min_flow_scale=0.2, vs_exponents=(2.0,)),
            SegmenterConfig(k_fences=3.0, min_flow_scale=0.8, vs_exponents=(1.0, 0.25)),
            SegmenterConfig(k_fences=0.0, min_flow_scale=0.0, vs_exponents=(0.5, 3.0, 1.0)),
            SegmenterConfig(k_fences=1.0, min_flow_scale=1.0),
        ]
        gated = ungated = 0
        for cfg in configs:
            for _ in range(4):
                frame = Scene(
                    flows=[(rng.standard_cauchy(size=(9, 11)) * rng.uniform(0.1, 10.0),
                            rng.standard_cauchy(size=(9, 11)))],
                    saliencies=[rng.random((9, 11))],
                )
                fore, scales = frame_foregroundness(frame, 0, cfg)
                flow = frame.flow(0)
                expected = oracles.foregroundness_field(
                    flow.u.tolist(), flow.v.tolist(), frame.saliency(0).tolist(),
                    cfg.k_fences, cfg.vs_exponents, cfg.min_flow_scale,
                )
                np.testing.assert_allclose(fore, expected, rtol=1e-12, atol=1e-12)
                gated += sum(alpha >= cfg.min_flow_scale for alpha in scales.values())
                ungated += sum(alpha < cfg.min_flow_scale for alpha in scales.values())
        assert gated > 0 and ungated > 0


@pytest.fixture(scope="module")
def davis_frame():
    """A frame with Cauchy flows, a faster block, and saliency drawn uniformly from [0, 1)."""
    rng = np.random.default_rng(480)
    u, v = rng.standard_cauchy(size=(2, 480, 854))
    u[:241, :428] += 20.0
    return Scene(flows=[(u, v)], saliencies=[rng.random((480, 854))])


class TestForegroundnessBands:
    """The banded field has the bits of the whole-frame one, at every band edge."""

    CONFIGS = [
        SegmenterConfig(min_flow_scale=0.0, vs_exponents=(2.0,)),
        SegmenterConfig(min_flow_scale=0.0, vs_exponents=(1, 0.25)),
        SegmenterConfig(min_flow_scale=1.0, vs_exponents=(2.0,)),
        SegmenterConfig(min_flow_scale=1.0, vs_exponents=(1, 0.25)),
    ]

    @staticmethod
    def _assert_equals_full_frame(frame, cfg):
        fore, scales = frame_foregroundness(frame, 0, cfg)
        expected, expected_scales = oracles.frame_foregroundness_full_frame(frame, 0, cfg)
        assert fore.tobytes() == expected.tobytes()
        assert scales == expected_scales
        return scales

    @pytest.mark.parametrize("width", [1, 2048])
    @pytest.mark.parametrize("bands, rows", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
                             ids=["1", "band-1", "band", "band+1", "2band+3"])
    def test_equals_full_frame_at_band_edges(self, rng, width, bands, rows):
        height = bands * (_CACHE_ELEMENTS // width) + rows
        u, v = rng.standard_cauchy(size=(2, height, width))
        u[: height // 2 + 1, : width // 2 + 1] += 20.0  # a faster block
        frame = Scene(flows=[(u, v)], saliencies=[rng.random((height, width))])
        gated = []
        for cfg in self.CONFIGS:
            scales = self._assert_equals_full_frame(frame, cfg)
            gated.append(any(alpha >= cfg.min_flow_scale for alpha in scales.values()))
        assert gated == [True, True, False, False]

    def test_equals_full_frame_at_davis_size(self, davis_frame):
        self._assert_equals_full_frame(davis_frame, SegmenterConfig())

    def test_peak_memory_per_pixel(self, davis_frame):
        # Whole-frame temporaries peaked at 74 B per pixel. Banded, the four
        # float64 measures, their outlier flags, the field and the statistics'
        # copies peak at 47.8 B; the bound leaves 17% for allocator drift.
        frame_foregroundness(davis_frame, 0)
        tracemalloc.start()
        try:
            frame_foregroundness(davis_frame, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / davis_frame.saliency(0).size <= 56.0


class TestThresholdMask:
    def test_single_spike(self):
        f = np.array([[0.0, 0.0, 0.0, 1.0]])
        mask = threshold_mask(f)
        # beta = 0.25 + 0.4330... ~ 0.6830
        assert mask.tolist() == [[0, 0, 0, 1]]

    def test_constant_field_empty_mask(self):
        assert not threshold_mask(np.full((3, 3), 2.5)).any()

    def test_previous_mask_discount(self):
        f = np.array([[0.0, 0.0, 0.4, 1.0]])
        previous = np.array([[0, 0, 1, 1]])
        # mean 0.35, population std sqrt(0.1675) ~ 0.40927, beta ~ 0.75927;
        # halved threshold under the previous mask admits the 0.4 pixel
        beta = 0.35 + math.sqrt(0.1675)
        assert threshold_mask(f).tolist() == [[0, 0, 0, 1]]
        mask = threshold_mask(f, previous)
        assert mask.tolist() == [[0, 0, 1, 1]]
        assert f[0, 2] > beta / 2
        assert f[0, 2] < beta

    def test_discount_only_adds_pixels(self, rng):
        for _ in range(100):
            f = rng.random((6, 6)) * 3
            prev = (rng.random((6, 6)) > 0.5).astype(np.uint8)
            base = threshold_mask(f)
            discounted = threshold_mask(f, prev)
            assert np.all(discounted >= base)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            threshold_mask(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_pixels_on_either_threshold_stay_background(self):
        # a two-valued field {2, 4} has mean 3 and std 1 exactly, so beta = 4
        # and beta / 2 = 2 fall on its values
        f = np.array([[2.0, 4.0], [4.0, 2.0]])
        prev = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        assert threshold_mask(f).tolist() == [[0, 0], [0, 0]]
        assert threshold_mask(f, prev).tolist() == [[0, 1], [0, 0]]

    def test_equals_threshold_field(self, rng):
        for _ in range(100):
            f = rng.integers(0, 6, size=(7, 9)) * rng.choice([0.25, 0.1, 1.0])
            prev = rng.integers(0, 2, size=(7, 9)).astype(rng.choice([np.uint8, np.float64]))
            for previous in (None, prev):
                mask = threshold_mask(f, previous)
                assert mask.dtype == bool
                assert mask.tobytes() == oracles.threshold_mask_field(f, previous).tobytes()


class TestSelectTopSegments:
    def test_single_component_unchanged(self):
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[1:3, 1:3] = 1
        out = select_top_segments(mask, np.ones((4, 4)))
        assert np.array_equal(out, mask)

    def test_keeps_heavier_component(self):
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[0, 0] = 1        # singleton, weight 5
        mask[2:4, 2:4] = 1    # block of 4, weight 3 total
        weight = np.zeros((4, 4))
        weight[0, 0] = 5.0
        weight[2:4, 2:4] = 0.75
        out = select_top_segments(mask, weight, 1)
        assert out[0, 0] == 1
        assert out[2:4, 2:4].sum() == 0

    def test_empty_mask(self):
        out = select_top_segments(np.zeros((3, 3)), np.ones((3, 3)))
        assert not out.any()

    def test_tie_breaks_by_size_then_position(self):
        mask = np.zeros((1, 7), dtype=np.uint8)
        mask[0, 0:2] = 1  # two pixels, weight 1 total
        mask[0, 4] = 1    # one pixel, weight 1
        weight = np.array([[0.5, 0.5, 0, 0, 1.0, 0, 0]])
        out = select_top_segments(mask, weight, 1)
        assert out.tolist() == [[1, 1, 0, 0, 0, 0, 0]]

    def test_exactly_zero_or_one_component(self, rng):
        structure = np.ones((3, 3), bool)
        from scipy import ndimage

        for _ in range(100):
            mask = (rng.random((8, 8)) > 0.6).astype(np.uint8)
            weight = rng.random((8, 8))
            out = select_top_segments(mask, weight, 1)
            _, count = ndimage.label(out, structure=structure)
            assert count <= 1

    def test_matches_oracle(self, rng):
        for n in (1, 2):
            for _ in range(50):
                mask = (rng.random((7, 7)) > 0.55).astype(np.uint8)
                weight = np.round(rng.random((7, 7)) * 4)  # ties likely
                got = select_top_segments(mask, weight, n)
                expected = oracles.top_segments(mask.tolist(), weight.tolist(), n)
                assert got.tolist() == expected

    def test_four_connectivity(self):
        mask = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        weight = np.array([[2.0, 0.0], [0.0, 1.0]])
        out8 = select_top_segments(mask, weight, 1, connectivity=8)
        out4 = select_top_segments(mask, weight, 1, connectivity=4)
        assert out8.sum() == 2  # diagonal joins into one component
        assert out4.tolist() == [[1, 0], [0, 0]]

    @pytest.mark.parametrize("shape", [(1, 2), (3, 1), (3,)])
    def test_rejects_weight_of_another_shape(self, shape):
        mask = np.array([[1, 0, 1]], dtype=np.uint8)
        with pytest.raises(ValueError, match=re.escape(
                f"dimension mismatch: mask (1, 3) vs weight {shape}")):
            select_top_segments(mask, np.ones(shape))

    def test_rejects_connectivity_6(self):
        mask = np.array([[1, 0, 1]], dtype=np.uint8)
        with pytest.raises(ValueError, match="^connectivity must be 4 or 8$"):
            select_top_segments(mask, np.ones((1, 3)), connectivity=6)

    @pytest.mark.parametrize("n_segments", [0, -1])
    def test_rejects_fewer_than_one_segment(self, n_segments):
        mask = np.array([[1, 0, 1]], dtype=np.uint8)
        with pytest.raises(ValueError, match="n_segments"):
            select_top_segments(mask, np.ones((1, 3)), n_segments)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4), ()])
    def test_rejects_mask_that_is_not_2d(self, shape):
        mask = np.ones(shape, dtype=np.uint8)
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            select_top_segments(mask, np.ones(shape))

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        n_segments=st.sampled_from([1, 2]),
        connectivity=st.sampled_from([4, 8]),
    )
    def test_matches_oracles_with_ties(self, data, shape, n_segments, connectivity):
        mask = data.draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, 1)))
        # quarter weights add exactly in any order, so equal sums tie in every oracle
        weight = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 3))) / 4.0
        got = select_top_segments(mask, weight, n_segments, connectivity)
        expected = oracles.top_segments(mask.tolist(), weight.tolist(), n_segments, connectivity)
        assert got.tolist() == expected
        assert np.array_equal(
            got, oracles.top_segments_ndimage(mask, weight, n_segments, connectivity))

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("n_segments", [1, 2, 3])
    def test_speckled_masks_with_tied_weights_match_label_reference(
            self, rng, n_segments, connectivity):
        # Hundreds of small components; quarter weights add exactly in any
        # order, so many sums and sizes tie and the first-pixel rule decides.
        for density in (0.2, 0.4, 0.6):
            for _ in range(10):
                mask = (rng.random((60, 90)) < density).astype(np.uint8)
                weight = rng.integers(0, 4, size=mask.shape) / 4.0
                got = select_top_segments(mask, weight, n_segments, connectivity)
                expected = oracles.top_segments_ndimage(mask, weight, n_segments, connectivity)
                assert np.array_equal(got, expected)

    def test_nan_sums_rank_last(self):
        # components from left: size 1 weight NaN, size 2 weight NaN, size 1 weight 1
        mask = np.array([[1, 0, 1, 1, 0, 1]], dtype=np.uint8)
        weight = np.array([[np.nan, 0.0, np.nan, 0.0, 0.0, 1.0]])
        assert select_top_segments(mask, weight, 1).tolist() == [[0, 0, 0, 0, 0, 1]]
        # the full sort puts the larger of the two NaN components next
        assert select_top_segments(mask, weight, 2).tolist() == [[0, 0, 1, 1, 0, 1]]

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("name", ["noise", "comb", "spiral"])
    def test_adversarial_masks_match_label_reference(self, name, connectivity):
        mask = adversarial_masks()[name]
        weight = np.random.default_rng(7).random(mask.shape)
        for n_segments in (1, 2):
            got = select_top_segments(mask, weight, n_segments, connectivity)
            expected = oracles.top_segments_ndimage(mask, weight, n_segments, connectivity)
            assert got.dtype == bool
            assert np.array_equal(got, expected)


class TestSegmenterConfig:
    def test_defaults(self):
        cfg = SegmenterConfig()
        assert cfg.k_fences == 1.5
        assert cfg.vs_exponents == (1.0, 0.5, 1.0 / 3.0)
        assert cfg.min_flow_scale == 0.5
        assert cfg.connectivity == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            SegmenterConfig(vs_exponents=(0.0,))
        with pytest.raises(ValueError):
            SegmenterConfig(min_flow_scale=1.5)
        with pytest.raises(ValueError):
            SegmenterConfig(connectivity=6)

    @pytest.mark.parametrize("exponents", [
        (float("nan"),), (float("inf"),), (1.0, float("nan")), (1.0, -float("inf")), (-1.0,),
    ])
    def test_exponents_must_be_finite_and_positive(self, exponents):
        with pytest.raises(ValueError, match="exponents"):
            SegmenterConfig(vs_exponents=exponents)

    @pytest.mark.parametrize("k", [float("nan"), float("inf"), -float("inf"), -0.5])
    def test_k_fences_must_be_finite_and_non_negative(self, k):
        with pytest.raises(ValueError, match="k_fences"):
            SegmenterConfig(k_fences=k)


class TestSegmentSequence:
    def test_moving_block_matches_oracle(self, tmp_path):
        scene = moving_block()
        result = segment_sequence(open_sequence(write(tmp_path / "vid", scene)))
        assert len(result.masks) == 1
        mask = result.masks[0]
        assert jaccard(mask, scene.truth[0]) >= 0.95
        flow = scene.flows[0]
        expected = oracles.pipeline_masks(
            [(flow.u.tolist(), flow.v.tolist())], [scene.saliencies[0].tolist()]
        )
        assert mask.tolist() == expected[0]

    def test_motion_route_block(self, tmp_path):
        # strong contrast pushes the flow outlier scale above 0.5 so the
        # gated motion route fires as well
        scene = moving_block(height=40, width=60, block_flow=(30.0, 0.0))
        result = segment_sequence(open_sequence(write(tmp_path / "vid", scene)))
        assert jaccard(result.masks[0], scene.truth[0]) >= 0.95
        flow = scene.flows[0]
        expected = oracles.pipeline_masks(
            [(flow.u.tolist(), flow.v.tolist())], [scene.saliencies[0].tolist()]
        )
        assert result.masks[0].tolist() == expected[0]

    def test_zero_flow_zero_saliency_empty_masks(self, tmp_path):
        h, w = 6, 8
        zero = np.zeros((h, w), np.float32)
        frame = np.zeros((h, w, 3), np.uint8)
        root = write(tmp_path / "vid", Scene(frames=[frame] * 3, flows=[(zero, zero)] * 2,
                                             saliencies=[np.zeros((h, w))] * 3))
        result = segment_sequence(open_sequence(root))
        assert all(not m.any() for m in result.masks)

    def test_stationary_scene_stable_masks(self, tmp_path):
        root = write(tmp_path / "vid", moving_block(num_frames=3))
        result = segment_sequence(open_sequence(root))
        assert len(result.masks) == 3
        for mask in result.masks[1:]:
            assert np.array_equal(mask, result.masks[0])

    def test_missing_flow_raises(self, tmp_path):
        root = write(tmp_path / "vid", replace(moving_block(), flows=()))
        with pytest.raises(ValueError, match="flow"):
            segment_sequence(open_sequence(root))

    def test_missing_saliency_raises(self, tmp_path):
        root = write(tmp_path / "vid", replace(moving_block(), saliencies=()))
        with pytest.raises(ValueError, match="saliency"):
            segment_sequence(open_sequence(root))

    def test_deterministic_across_jobs(self, tmp_path):
        seq = open_sequence(write(tmp_path / "vid", moving_block(num_frames=4)))
        serial = segment_sequence(seq, jobs=1)
        threaded = segment_sequence(seq, jobs=8)
        for a, b in zip(serial.masks, threaded.masks):
            assert a.tobytes() == b.tobytes()

    def test_fields_byte_equal_across_jobs_over_partial_bands(self, tmp_path, rng):
        # 4096 columns give bands of 16 rows; 37 rows end in a partial band
        height, width = 37, 4096
        assert height % (_CACHE_ELEMENTS // width) != 0
        flows = [(rng.standard_cauchy((height, width)), rng.standard_cauchy((height, width)))
                 for _ in range(4)]
        seq = open_sequence(write(tmp_path / "vid", Scene(
            frames=[np.zeros((height, width, 3), np.uint8)] * 5,
            flows=flows,
            saliencies=[rng.random((height, width)) for _ in range(5)],
        )))
        serial, threaded = (segment_sequence(seq, jobs=jobs) for jobs in (1, 3))
        for field in ("masks", "foregroundness"):
            for a, b in zip(getattr(serial, field), getattr(threaded, field), strict=True):
                assert a.tobytes() == b.tobytes()
        assert serial.flow_scales == threaded.flow_scales

    def test_debug_log_counts_foreground_only_when_enabled(self, tmp_path, caplog):
        seq = open_sequence(write(tmp_path / "vid", moving_block(block_flow=(30.0, 0.0),
                                                                 num_frames=2)))
        with caplog.at_level(logging.INFO, logger="tukeyseg.segment"):
            quiet = segment_sequence(seq)
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="tukeyseg.segment"):
            loud = segment_sequence(seq)
        counts = [int(mask.sum()) for mask in loud.masks]
        assert counts[0] > 0
        assert [record.args[:2] for record in caplog.records] == list(enumerate(counts))
        for a, b in zip(quiet.masks, loud.masks, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_flow_scales_reported_per_component(self, tmp_path):
        scene = moving_block()
        result = segment_sequence(open_sequence(write(tmp_path / "vid", scene)))
        scales = result.flow_scales[0]
        assert set(scales) == {"x", "y", "magnitude", "angle"}
        measures = flow_measures(scene.flows[0])
        assert scales == {
            name: _measure_stats(component)[2]
            for name, component in zip(COMPONENT_NAMES, measures)
        }

    def test_saliency_resized_after_open_raises(self, tmp_path):
        # a (30, 1) map would broadcast against the (30, 40) flow measures
        root = write(tmp_path / "vid", moving_block(num_frames=3))
        seq = open_sequence(root)
        path = root / "saliency" / "00001.pgm"
        path.write_bytes(write_saliency_pgm(np.full((30, 1), 0.5)))
        with pytest.raises(ValueError, match=re.escape(f"{path}: dimensions 1x30")):
            segment_sequence(seq)
