"""Tests for the flow/saliency outlier segmenter."""

import math
import re

import numpy as np
import pytest

import oracles
from conftest import moving_block_arrays, write_video_dir
from tukeyseg.io import FlowField, open_sequence
from tukeyseg.metrics import jaccard
from tukeyseg.io import write_saliency_pgm
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


def _flow(u, v):
    return FlowField(np.asarray(u, np.float32), np.asarray(v, np.float32))


class _OneFrame:
    """In-memory stand-in for a FrameSequence: one frame's flow and saliency."""

    def __init__(self, u, v, vs):
        self._flow = _flow(u, v)
        self._vs = np.asarray(vs, np.float64)

    def flow(self, index):
        return self._flow

    def saliency(self, index):
        return self._vs


def _fore(u, v, vs, **cfg):
    """frame_foregroundness of one in-memory frame under SegmenterConfig(**cfg)."""
    fore, _ = frame_foregroundness(_OneFrame(u, v, vs), 0, SegmenterConfig(**cfg))
    return fore


def _measure_stats(component, k=1.5):
    """(median, outlier flags, outlier scale) of one flow measure."""
    q = quartiles(component)
    flags = outlier_set(component, fences(q, k))
    return q.q2, flags, outlier_scale(component, flags)


def _deviation_sum(u, v, min_scale=0.5):
    """Sum over flow measures of max(alpha, min_scale) * |d - median|."""
    total = 0.0
    for component in flow_measures(_flow(u, v)).as_tuple():
        median, _, alpha = _measure_stats(component)
        total = total + max(alpha, min_scale) * np.abs(component - median)
    return total


class TestFlowMeasures:
    def test_three_four_five(self):
        m = flow_measures(_flow([[3.0]], [[4.0]]))
        assert m.magnitude[0, 0] == pytest.approx(5.0)
        assert m.angle[0, 0] == pytest.approx(math.atan2(4, 3))

    def test_zero_vector_convention(self):
        m = flow_measures(_flow([[0.0]], [[0.0]]))
        assert m.magnitude[0, 0] == 0.0
        assert m.angle[0, 0] == 0.0

    def test_negative_x_axis(self):
        m = flow_measures(_flow([[-1.0]], [[0.0]]))
        assert m.magnitude[0, 0] == pytest.approx(1.0)
        assert m.angle[0, 0] == pytest.approx(math.pi)

    def test_angle_range_half_open(self, rng):
        u = rng.normal(size=(10, 10))
        v = rng.normal(size=(10, 10))
        m = flow_measures(_flow(u, v))
        assert np.all(m.angle > -math.pi)
        assert np.all(m.angle <= math.pi)


class TestMotionSaliency:
    """The gated motion terms, isolated by a zero saliency map."""

    def test_low_scale_zeroes_field(self):
        # 100 of 1200 pixels move at 8 against background 1: alpha ~ 0.42 < 0.5
        # for x and magnitude; y and angle are constant
        scene = moving_block_arrays()
        u, v = scene["flows"][0]
        assert not _fore(u, v, np.zeros_like(u)).any()

    def test_gated_deviation_values(self):
        # higher-contrast block: alpha >= 0.5, outliers get alpha * |d - median|;
        # with v = 0 and u > 0 the magnitude equals x and y, angle are constant,
        # so x and magnitude each add that term
        scene = moving_block_arrays(block_flow=(30.0, 0.0))
        u, v = scene["flows"][0]
        out = _fore(u, v, np.zeros_like(u))
        component = np.asarray(u, float)
        assert np.array_equal(flow_measures(_flow(u, v)).magnitude, component)
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
            for component in flow_measures(_flow(u, v)).as_tuple():
                median, flags, alpha = _measure_stats(component)
                if alpha >= 0.5:
                    expected += np.where(flags != 0, alpha * np.abs(component - median), 0.0)
                    quiet &= flags == 0
            assert np.all(out[quiet] == 0)
            assert np.allclose(out, expected, rtol=1e-12, atol=1e-9)


class TestVisualSaliency:
    """The saliency-weighted deviation sum, isolated by one exponent and gated-off motion."""

    def test_zero_saliency_zero_output(self):
        scene = moving_block_arrays()  # motion gated off, as in TestMotionSaliency
        u, v = scene["flows"][0]
        vs = np.zeros_like(scene["saliencies"][0])
        for k in (1.0, 0.5, 1.0 / 3.0):
            assert not _fore(u, v, vs, vs_exponents=(k,)).any()

    def test_floor_applies_when_all_scales_zero(self):
        # constant-ish components without outliers: every alpha is 0, the
        # 0.5 floor keeps the deviation sum alive
        u = np.tile(np.array([0.0, 1.0, 2.0, 3.0, 4.0]), (1, 1))
        v = np.zeros_like(u)
        for comp in flow_measures(_flow(u, v)).as_tuple():
            assert _measure_stats(comp)[2] == 0.0
        out = _fore(u, v, np.ones_like(u), vs_exponents=(1.0,))
        # at u=3: x and magnitude contribute 0.5 * |3 - 2| each; y and angle
        # are identically zero fields with zero deviations
        assert out[0, 3] == pytest.approx(2 * 0.5 * 1.0, abs=1e-12)

    def test_exponent_sharpens_base(self):
        scene = moving_block_arrays()  # motion gated off
        u, v = scene["flows"][0]
        vs = np.full_like(scene["saliencies"][0], 0.25)
        full = _fore(u, v, np.ones_like(vs), vs_exponents=(1.0,))
        half = _fore(u, v, vs, vs_exponents=(0.5,))
        assert full.any()
        assert np.allclose(half, 0.5 * full, atol=1e-12)

    def test_monotone_in_saliency(self, rng):
        scene = moving_block_arrays()
        u, v = scene["flows"][0]
        low = rng.random(u.shape) * 0.5
        high = low + 0.25
        assert np.all(
            _fore(u, v, low, vs_exponents=(1.0,)) <= _fore(u, v, high, vs_exponents=(1.0,))
        )

    def test_dimension_mismatch(self, tmp_path):
        # the sequence's accessors reject a saliency map of another size
        scene = moving_block_arrays()
        root = write_video_dir(
            tmp_path / "vid",
            frames=scene["frames"],
            flows=scene["flows"],
            saliencies=scene["saliencies"],
        )
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
        scene = moving_block_arrays(block_flow=(30.0, 0.0))
        u, v = scene["flows"][0]
        out = _fore(u, v, scene["saliencies"][0], vs_exponents=(1.0, 0.5))
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
                frame = _OneFrame(
                    rng.standard_cauchy(size=(9, 11)) * rng.uniform(0.1, 10.0),
                    rng.standard_cauchy(size=(9, 11)),
                    rng.random((9, 11)),
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


class TestSegmentSequence:
    def test_moving_block_matches_oracle(self, tmp_path):
        scene = moving_block_arrays()
        root = write_video_dir(
            tmp_path / "vid",
            frames=scene["frames"],
            flows=scene["flows"],
            saliencies=scene["saliencies"],
        )
        result = segment_sequence(open_sequence(root))
        assert len(result.masks) == 1
        mask = result.masks[0]
        assert jaccard(mask, scene["truth"]) >= 0.95
        u, v = scene["flows"][0]
        expected = oracles.pipeline_masks(
            [(u.tolist(), v.tolist())], [scene["saliencies"][0].tolist()]
        )
        assert mask.tolist() == expected[0]

    def test_motion_route_block(self, tmp_path):
        # strong contrast pushes the flow outlier scale above 0.5 so the
        # gated motion route fires as well
        scene = moving_block_arrays(height=40, width=60, block_flow=(30.0, 0.0))
        root = write_video_dir(
            tmp_path / "vid",
            frames=scene["frames"],
            flows=scene["flows"],
            saliencies=scene["saliencies"],
        )
        result = segment_sequence(open_sequence(root))
        assert jaccard(result.masks[0], scene["truth"]) >= 0.95
        u, v = scene["flows"][0]
        expected = oracles.pipeline_masks(
            [(u.tolist(), v.tolist())], [scene["saliencies"][0].tolist()]
        )
        assert result.masks[0].tolist() == expected[0]

    def test_zero_flow_zero_saliency_empty_masks(self, tmp_path):
        h, w = 6, 8
        zero = np.zeros((h, w), np.float32)
        frame = np.zeros((h, w, 3), np.uint8)
        root = write_video_dir(
            tmp_path / "vid",
            frames=[frame] * 3,
            flows=[(zero, zero)] * 2,
            saliencies=[np.zeros((h, w))] * 3,
        )
        result = segment_sequence(open_sequence(root))
        assert all(not m.any() for m in result.masks)

    def test_stationary_scene_stable_masks(self, tmp_path):
        scene = moving_block_arrays(num_frames=3)
        root = write_video_dir(
            tmp_path / "vid",
            frames=scene["frames"],
            flows=scene["flows"],
            saliencies=scene["saliencies"],
        )
        result = segment_sequence(open_sequence(root))
        assert len(result.masks) == 3
        for mask in result.masks[1:]:
            assert np.array_equal(mask, result.masks[0])

    def test_missing_flow_raises(self, tmp_path):
        scene = moving_block_arrays()
        root = write_video_dir(
            tmp_path / "vid", frames=scene["frames"], saliencies=scene["saliencies"]
        )
        with pytest.raises(ValueError, match="flow"):
            segment_sequence(open_sequence(root))

    def test_missing_saliency_raises(self, tmp_path):
        scene = moving_block_arrays()
        root = write_video_dir(tmp_path / "vid", frames=scene["frames"], flows=scene["flows"])
        with pytest.raises(ValueError, match="saliency"):
            segment_sequence(open_sequence(root))

    def test_deterministic_across_jobs(self, tmp_path):
        scene = moving_block_arrays(num_frames=4)
        root = write_video_dir(
            tmp_path / "vid",
            frames=scene["frames"],
            flows=scene["flows"],
            saliencies=scene["saliencies"],
        )
        seq = open_sequence(root)
        serial = segment_sequence(seq, jobs=1)
        threaded = segment_sequence(seq, jobs=8)
        for a, b in zip(serial.masks, threaded.masks):
            assert a.tobytes() == b.tobytes()

    def test_flow_scales_reported_per_component(self, tmp_path):
        scene = moving_block_arrays()
        root = write_video_dir(
            tmp_path / "vid",
            frames=scene["frames"],
            flows=scene["flows"],
            saliencies=scene["saliencies"],
        )
        result = segment_sequence(open_sequence(root))
        scales = result.flow_scales[0]
        assert set(scales) == {"x", "y", "magnitude", "angle"}
        measures = flow_measures(_flow(*scene["flows"][0]))
        assert scales == {
            name: _measure_stats(component)[2]
            for name, component in zip(COMPONENT_NAMES, measures.as_tuple())
        }

    def test_saliency_resized_after_open_raises(self, tmp_path):
        # a (30, 1) map would broadcast against the (30, 40) flow measures
        scene = moving_block_arrays(num_frames=3)
        root = write_video_dir(
            tmp_path / "vid",
            frames=scene["frames"],
            flows=scene["flows"],
            saliencies=scene["saliencies"],
        )
        seq = open_sequence(root)
        path = root / "saliency" / "00001.pgm"
        path.write_bytes(write_saliency_pgm(np.full((30, 1), 0.5)))
        with pytest.raises(ValueError, match=re.escape(f"{path}: dimensions 1x30")):
            segment_sequence(seq)
