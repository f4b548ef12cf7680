"""Tests for supervoxel consensus refinement."""

import collections
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import ArrayVideo, moving_block_arrays, write_video_dir
from tukeyseg import refine
from tukeyseg.cli import main
from tukeyseg.io import open_sequence
from tukeyseg.refine import (
    _CACHE_ELEMENTS,
    _CONSENSUS_BLOCK,
    ConsensusTable,
    RefineConfig,
    SupervoxelStats,
    adjusted_foregroundness,
    build_consensus,
    normalize_lab,
    refine_mask,
    refine_sequence,
    rgb_to_lab,
    supervoxel_stats,
)


class TestRgbToLab:
    def test_black(self):
        lab = rgb_to_lab(np.zeros((1, 1, 3), np.uint8))
        assert np.allclose(lab, 0.0, atol=1e-12)

    def test_white_point(self):
        lab = rgb_to_lab(np.full((1, 1, 3), 255, np.uint8))[0, 0]
        assert lab[0] == pytest.approx(100.0, abs=1e-3)
        assert abs(lab[1]) < 5e-3
        assert abs(lab[2]) < 5e-3

    def test_pure_red_reference(self):
        lab = rgb_to_lab(np.array([[[255, 0, 0]]], np.uint8))[0, 0]
        assert lab[0] == pytest.approx(53.24, abs=0.01)
        assert lab[1] == pytest.approx(80.09, abs=0.01)
        assert lab[2] == pytest.approx(67.20, abs=0.01)

    def test_matches_scalar_oracle(self, rng):
        pixels = rng.integers(0, 256, size=(20, 3), dtype=np.uint8)
        lab = rgb_to_lab(pixels.reshape(4, 5, 3))
        for (r, g, b), got in zip(pixels, lab.reshape(-1, 3)):
            expected = oracles.srgb_to_lab(int(r), int(g), int(b))
            assert got == pytest.approx(expected, abs=1e-9)

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="trailing dimension"):
            rgb_to_lab(np.zeros((2, 2)))

    def test_requires_uint8(self):
        with pytest.raises(ValueError, match="uint8"):
            rgb_to_lab(np.zeros((2, 2, 3)))

    def test_equals_pow_formula_on_every_grey_level(self):
        grey = np.repeat(np.arange(256, dtype=np.uint8)[:, None], 3, axis=1)
        assert np.array_equal(rgb_to_lab(grey), oracles.rgb_to_lab_pow(grey))

    def test_equals_pow_formula_on_random_image(self, rng):
        image = rng.integers(0, 256, size=(37, 53, 3), dtype=np.uint8)
        assert np.array_equal(rgb_to_lab(image), oracles.rgb_to_lab_pow(image))

    @pytest.mark.parametrize("shape", [(3,), (5, 3), (4, 6, 3), (2, 3, 4, 3)])
    def test_channels_are_contiguous_planes(self, rng, shape):
        # so that the per-supervoxel tally reads each channel without a copy
        lab = rgb_to_lab(rng.integers(0, 256, size=shape, dtype=np.uint8))
        assert lab.shape == shape
        for c in range(3):
            assert lab[..., c].flags.c_contiguous
            assert np.shares_memory(lab[..., c].ravel(), lab)


class TestRgbToLabBands:
    """The banded conversion has the bits of the whole-array one, at every band edge."""

    @staticmethod
    def _assert_equals_full_frame(rgb):
        lab = rgb_to_lab(rgb)
        assert lab.shape == rgb.shape and lab.dtype == np.float64
        assert lab.tobytes() == oracles.rgb_to_lab_full_frame(rgb).tobytes()

    @pytest.mark.parametrize("shape", [
        (3,), (1, 3), (256, 3), (4, 5, 6, 3), (2, 3, 7, 5, 3),
        (2, 30, 854, 3),  # bands of 25 rows cross from the first image into the second
    ])
    def test_vectors_lists_and_stacks(self, rng, shape):
        self._assert_equals_full_frame(rng.integers(0, 256, size=shape, dtype=np.uint8))

    @pytest.mark.parametrize("width", [1, 854])
    @pytest.mark.parametrize("bands, rows", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
                             ids=["1", "band-1", "band", "band+1", "2band+3"])
    def test_images_at_band_edges(self, rng, width, bands, rows):
        height = bands * (_CACHE_ELEMENTS // (3 * width)) + rows
        image = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
        self._assert_equals_full_frame(image)

    @pytest.mark.parametrize("shape", [(0, 3), (0, 4, 3), (4, 0, 3), (2, 0, 5, 3)])
    def test_empty(self, shape):
        self._assert_equals_full_frame(np.zeros(shape, np.uint8))

    def test_davis_size(self, rng):
        self._assert_equals_full_frame(rng.integers(0, 256, size=(480, 854, 3), dtype=np.uint8))

    @pytest.mark.parametrize("low, high, height", [(0, 17, 480), (40, 256, 480), (0, 256, 77)],
                             ids=["all-toe", "no-toe", "partial-band"])
    def test_toe_and_partial_band_at_davis_width(self, rng, low, high, height):
        # Each XYZ channel over its white is a convex mix of the linear RGB
        # levels, so levels under 17 put every value on the linear toe of the
        # L*a*b* curve and levels from 40 put none there. 77 rows are three
        # bands of 25 and a partial band of 2.
        def linear(level):
            c = level / 255.0
            return c / 12.92 if c <= 0.04045 else ((c + 0.055) / 1.055) ** 2.4

        toe = (6.0 / 29.0) ** 3
        assert linear(16) <= toe < linear(40)
        assert height % (_CACHE_ELEMENTS // (3 * 854)) != 0
        image = rng.integers(low, high, size=(height, 854, 3), dtype=np.uint8)
        self._assert_equals_full_frame(image)

    def test_peak_memory_per_pixel(self, rng):
        # Whole-array temporaries peaked at 99 B per pixel. Banded, the 24 B
        # result and about 4 B of band scratch peak at 28.1 B; the bound
        # leaves 14% for allocator drift.
        image = rng.integers(0, 256, size=(480, 854, 3), dtype=np.uint8)
        rgb_to_lab(image)
        tracemalloc.start()
        try:
            rgb_to_lab(image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (480 * 854) <= 32.0


class TestNormalizeLab:
    def test_constant_channel_maps_to_zero(self):
        means = np.zeros((4, 3))
        means[:, 0] = 7.0
        out = normalize_lab(means, low=[7.0, 0.0, 0.0], high=[7.0, 0.0, 0.0])
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("low, high", [
        (None, None),
        ([0.0, 0.0, 0.0], None),
        ([0.0, np.nan, 0.0], [1.0, 1.0, 1.0]),
        ([0.0, 0.0, 0.0], [1.0, 1.0, np.nan]),
        ([0.0, 0.0, -np.inf], [1.0, 1.0, 1.0]),
    ])
    def test_missing_or_non_finite_bounds_refused(self, low, high):
        with pytest.raises(ValueError, match="bounds"):
            normalize_lab(np.ones((4, 3)), low, high)

    def test_linear_map(self):
        means = np.array([[10.0, 0, 0], [20.0, 0.5, 0], [30.0, 1.0, 0]])
        out = normalize_lab(means, low=[10.0, 0.0, 0.0], high=[30.0, 1.0, 0.0])
        assert isinstance(out, np.ndarray)
        assert out[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert out[:, 1].tolist() == [0.0, 0.5, 1.0]

    def test_idempotent_on_unit_range(self, rng):
        means = rng.random((12, 3))
        once = normalize_lab(means, low=np.zeros(3), high=np.ones(3))
        twice = normalize_lab(once, low=np.zeros(3), high=np.ones(3))
        assert np.allclose(once, means, atol=1e-12)
        assert np.allclose(twice, once, atol=1e-12)

    def test_video_wide_extent(self):
        # each frame holds one supervoxel; the bounds span both frames, and
        # black's L*a*b* is 0 in every channel while red's is positive in each
        video = ArrayVideo([np.zeros((1, 1, 3), np.uint8), np.array([[[255, 0, 0]]], np.uint8)],
                           [np.array([[0]]), np.array([[1]])])
        stats = supervoxel_stats(video, [np.zeros((1, 1), bool)] * 2)
        out = normalize_lab(stats.mean_lab, stats.lab_min, stats.lab_max)
        assert np.all(out[0] == 0.0)
        assert np.all(out[1] == 1.0)

    def test_normalized_means_match_means_of_normalized_pixels(self, rng):
        labels = [rng.integers(0, 9, size=(6, 7)) for _ in range(3)]
        frames = [rng.integers(0, 256, size=(6, 7, 3), dtype=np.uint8) for _ in range(3)]
        masks = [np.zeros((6, 7), bool)] * 3
        stats = supervoxel_stats(ArrayVideo(frames, labels), masks)
        means = normalize_lab(stats.mean_lab, stats.lab_min, stats.lab_max)
        lab = [rgb_to_lab(f) for f in frames]
        low = np.min([f.min(axis=(0, 1)) for f in lab], axis=0)
        high = np.max([f.max(axis=(0, 1)) for f in lab], axis=0)
        pixelwise = oracles.supervoxel_stats_lab(labels, [(f - low) / (high - low) for f in lab],
                                                 masks)
        assert np.allclose(means, pixelwise.mean_lab, rtol=0, atol=1e-12)


def _lab_of(*rgb):
    """The L*a*b* triple of each 8-bit RGB color, as an (n, 3) array."""
    return rgb_to_lab(np.array(rgb, np.uint8))


class TestSupervoxelStats:
    def _frames(self, mask_rows):
        video = ArrayVideo([np.zeros((1, 4, 3), np.uint8)], [np.array([[0, 0, 1, 1]])])
        return video, [np.array([mask_rows], bool)]

    def test_fully_foreground_supervoxel(self):
        stats = supervoxel_stats(*self._frames([1, 1, 0, 0]))
        consensus = stats.local_consensus
        assert consensus[stats.ids.tolist().index(0)] == 1.0

    def test_half_and_half(self):
        stats = supervoxel_stats(*self._frames([1, 0, 0, 0]))
        assert stats.local_consensus[0] == 0.0

    def test_three_quarters(self):
        video = ArrayVideo([np.zeros((2, 2, 3), np.uint8)], [np.array([[2, 2], [2, 2]])])
        stats = supervoxel_stats(video, [np.array([[1, 1], [1, 0]], bool)])
        assert stats.local_consensus[0] == 0.5

    def test_spans_frames(self):
        colors = [(40, 90, 200), (220, 10, 60)]
        video = ArrayVideo([np.array([[c]], np.uint8) for c in colors], [np.array([[5]])] * 2)
        stats = supervoxel_stats(video, [np.array([[True]]), np.array([[False]])])
        assert stats.pixel_counts.tolist() == [2]
        assert stats.label_sums.tolist() == [1]
        assert np.allclose(stats.mean_lab, _lab_of(*colors).mean(axis=0))

    def test_dimension_mismatch(self):
        video = ArrayVideo([np.zeros((2, 2, 3), np.uint8)], [np.zeros((2, 2), int)])
        with pytest.raises(ValueError, match="dimension mismatch"):
            supervoxel_stats(video, [np.zeros((3, 3), bool)])

    def test_bounds_of_local_consensus(self, rng):
        video = ArrayVideo([rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)],
                           [rng.integers(0, 6, size=(6, 6))])
        stats = supervoxel_stats(video, [rng.random((6, 6)) > 0.5])
        consensus = stats.local_consensus
        assert np.all(consensus >= -1.0) and np.all(consensus <= 1.0)
        pure = np.abs(consensus) == 1.0
        mixed = (stats.label_sums > 0) & (stats.label_sums < stats.pixel_counts)
        assert not np.any(pure & mixed)

    def test_later_frames_add_larger_ids(self):
        white = (255, 255, 255)
        video = ArrayVideo([np.zeros((1, 2, 3), np.uint8), np.full((1, 2, 3), 255, np.uint8)],
                           [np.array([[0, 0]]), np.array([[3, 0]])])
        stats = supervoxel_stats(video, [np.ones((1, 2), bool)] * 2)
        assert stats.ids.tolist() == [0, 3]
        assert stats.pixel_counts.tolist() == [3, 1]
        assert stats.label_sums.tolist() == [3, 1]
        assert np.allclose(stats.mean_lab, [_lab_of(white)[0] / 3, _lab_of(white)[0]])

    def test_channel_bounds_over_every_pixel(self, rng):
        frames = [rng.integers(0, 256, size=(5, 5, 3), dtype=np.uint8) for _ in range(2)]
        video = ArrayVideo(frames, [rng.integers(0, 3, size=(5, 5)) for _ in range(2)])
        stats = supervoxel_stats(video, [np.zeros((5, 5), bool)] * 2)
        pixels = np.concatenate([rgb_to_lab(f).reshape(-1, 3) for f in frames])
        assert np.array_equal(stats.lab_min, pixels.min(axis=0))
        assert np.array_equal(stats.lab_max, pixels.max(axis=0))

    def test_unequal_lengths(self):
        video = ArrayVideo([np.zeros((1, 1, 3), np.uint8)] * 2, [np.zeros((1, 1), int)] * 2)
        with pytest.raises(ValueError, match="equal length"):
            supervoxel_stats(video, [np.zeros((1, 1), bool)])

    @pytest.mark.parametrize("lengths", [(2, 3), (1, 2), (2, 1), (0, 1)])
    def test_any_list_longer_or_shorter(self, lengths):
        # more or fewer masks than frames is refused before any frame is read
        n_frames, n_masks = lengths
        video = ArrayVideo([None] * n_frames, [None] * n_frames)
        with pytest.raises(ValueError, match="equal length"):
            supervoxel_stats(video, [np.zeros((1, 1), bool)] * n_masks)

    def test_no_frames(self):
        with pytest.raises(ValueError, match="no frames"):
            supervoxel_stats(ArrayVideo([], []), [])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_float_ids_are_refused(self, dtype):
        # a float id such as 0.7 must not be truncated into supervoxel 0
        video = ArrayVideo([np.zeros((1, 2, 3), np.uint8)], [np.array([[0.7, 1.0]]).astype(dtype)])
        with pytest.raises(TypeError, match="Cannot cast"):
            supervoxel_stats(video, [np.zeros((1, 2), bool)])

    def test_bool_ids_are_refused(self):
        # a bool map would be tallied as ids 0 and 1 here, then fail in pass two
        video = ArrayVideo([np.zeros((1, 2, 3), np.uint8)], [np.array([[False, True]])])
        with pytest.raises(TypeError, match="Cannot cast supervoxel ids of dtype bool"):
            supervoxel_stats(video, [np.zeros((1, 2), bool)])

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64, np.uint64])
    def test_integer_ids_of_any_width(self, dtype):
        video = ArrayVideo([np.full((1, 3, 3), 255, np.uint8)], [np.array([[0, 1, 1]], dtype)])
        stats = supervoxel_stats(video, [np.array([[0, 1, 1]], bool)])
        assert stats.ids.tolist() == [0, 1]
        assert stats.pixel_counts.tolist() == [1, 2]


_BAND_854 = _CACHE_ELEMENTS // (3 * 854)  # 25 rows of a DAVIS-width frame per band


@st.composite
def _tally_videos(draw):
    """Small videos whose frames span one or several row bands, with masks of every kind.

    Widths give bands of 25, 9 and 2 rows; heights sit at and around a band
    edge. Later frames may bring ids not seen before.
    """
    width = draw(st.sampled_from([854, 2427, 10922]))
    band = _CACHE_ELEMENTS // (3 * width)
    height = draw(st.sampled_from([1, band - 1, band, band + 1, 2 * band + 3]))
    num_frames = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    kinds = draw(st.lists(st.sampled_from(["empty", "full", "random"]),
                          min_size=num_frames, max_size=num_frames))
    rng = np.random.default_rng(seed)
    frames, labels, masks = [], [], []
    for i, kind in enumerate(kinds):
        frames.append(rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))
        labels.append(rng.integers(0, 40 * (i + 1), size=(height, width)).astype(np.int32))
        masks.append(np.zeros((height, width), bool) if kind == "empty"
                     else np.ones((height, width), bool) if kind == "full"
                     else rng.random((height, width)) < 0.4)
    return frames, labels, masks


class TestBandedTallyExactness:
    """The banded tally equals one whole-frame ``bincount`` per channel per frame, to the bit.

    ``oracles.supervoxel_stats_lab`` is that tally, over the LAB frames of
    ``rgb_to_lab``. The golden videos run it too: ``wide`` (70x1024) is four
    bands of 21 rows per frame and ``small`` one band.
    """

    @staticmethod
    def _assert_equals_oracle(frames, labels, masks, jobs=1):
        got = supervoxel_stats(ArrayVideo(frames, labels), masks, jobs)
        expected = oracles.supervoxel_stats_lab(labels, [rgb_to_lab(f) for f in frames], masks)
        for field in ("ids", "pixel_counts", "label_sums", "mean_lab", "lab_min", "lab_max"):
            a, b = getattr(got, field), getattr(expected, field)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field
            assert a.tobytes() == b.tobytes(), field

    @settings(max_examples=40, deadline=None)
    @given(video=_tally_videos(), jobs=st.sampled_from([1, 2]))
    def test_equals_whole_frame_bincount(self, video, jobs):
        self._assert_equals_oracle(*video, jobs=jobs)

    def test_davis_frames_with_ids_first_seen_later(self, rng):
        # 480 rows of 854 are 19 full bands and one of 5
        frames = [rng.integers(0, 256, size=(480, 854, 3), dtype=np.uint8) for _ in range(2)]
        labels = [rng.integers(0, 600, size=(480, 854)), rng.integers(300, 1100, size=(480, 854))]
        masks = [rng.random((480, 854)) < 0.05, np.ones((480, 854), bool)]
        self._assert_equals_oracle(frames, labels, masks)


class TestTallyMemory:
    """No L*a*b* frame is built: the tally holds one band of it at a time."""

    def test_one_frame_peaks_below_one_lab_frame(self, rng):
        # A LAB frame is 24 B per pixel; the banded tally holds one band's
        # LAB and scratch, the frame's ids a band at a time and its partials.
        height, width = 480, 854
        video = ArrayVideo([rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)],
                           [rng.integers(0, 1100, size=(height, width)).astype(np.int32)])
        masks = [rng.random((height, width)) < 0.05]
        supervoxel_stats(video, masks)
        tracemalloc.start()
        try:
            supervoxel_stats(video, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * height * width, f"{peak / (height * width):.1f} B per pixel"

    def test_lab_is_converted_a_band_at_a_time(self, tmp_path, monkeypatch):
        height, width = 60, 854
        root = _tile_video(tmp_path / "video", height, width, num_frames=3)
        shapes, convert = [], refine.rgb_to_lab

        def recording(rgb):
            lab = convert(rgb)
            shapes.append(lab.shape)
            return lab

        monkeypatch.setattr(refine, "rgb_to_lab", recording)
        refine_sequence(open_sequence(root), jobs=2)
        # three frames of 60 rows: bands of 25, 25 and 10 rows each
        assert collections.Counter(shapes) == {(_BAND_854, width, 3): 6, (10, width, 3): 3}

    def test_tally_grows_by_the_kept_fields_and_masks_only(self, tmp_path, monkeypatch):
        # During the tally, a 6-frame refine at two jobs may peak above a
        # 2-frame one by the fields and masks kept from pass one (9 B per
        # pixel per frame, held when the tally starts) and no more. A LAB
        # frame held per job ahead of the tally is 24 B per pixel: the former
        # design exceeded the kept fields by 30-43 B per pixel here, the
        # banded one by 0-5.
        height, width = 240, 854
        seqs = {n: open_sequence(_tile_video(tmp_path / f"tiles{n}", height, width, n))
                for n in (2, 6)}
        windows, tally = [], refine.supervoxel_stats

        def windowed(*args, **kwargs):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            stats = tally(*args, **kwargs)
            windows.append((start, tracemalloc.get_traced_memory()[1]))
            return stats

        monkeypatch.setattr(refine, "supervoxel_stats", windowed)
        refine_sequence(seqs[2], jobs=2)  # lazy imports happen outside the traced runs
        windows.clear()
        for seq in seqs.values():
            tracemalloc.start()
            try:
                refine_sequence(seq, jobs=2)
            finally:
                tracemalloc.stop()
        (start2, peak2), (start6, peak6) = windows
        beyond_kept = (peak6 - peak2 - (start6 - start2)) / (height * width)
        assert start6 - start2 >= 4 * 9 * height * width
        assert beyond_kept <= 12.0, f"{beyond_kept:.1f} B per pixel beyond the kept fields"


def _tile_video(root, height, width, num_frames):
    """A moving-block video with random colors and supervoxels of 10 x 10 tiles."""
    rng = np.random.default_rng(num_frames)
    scene = moving_block_arrays(height=height, width=width,
                                block=(slice(height // 3, 2 * height // 3),
                                       slice(width // 3, width // 2)),
                                num_frames=num_frames)
    rows, cols = np.indices((height, width))
    labels = (rows // 10) * (width // 10 + 1) + cols // 10
    frames = [rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
              for _ in range(num_frames)]
    return write_video_dir(root, frames=frames, flows=scene["flows"],
                           saliencies=scene["saliencies"], labels=[labels] * num_frames)


def _stats(ids, counts, fg, mean_lab):
    return SupervoxelStats(
        ids=np.asarray(ids),
        pixel_counts=np.asarray(counts, np.int64),
        label_sums=np.asarray(fg, np.int64),
        mean_lab=np.asarray(mean_lab, float),
        lab_min=np.zeros(3),  # build_consensus reads only the means
        lab_max=np.ones(3),
    )


class TestBuildConsensus:
    def test_local_mode_zeroes_nonlocal(self):
        stats = _stats([0, 1], [2, 2], [2, 0], [[0, 0, 0], [1, 1, 1]])
        table = build_consensus(stats, RefineConfig(mode="local"))
        assert table.f_local.tolist() == [1.0, -1.0]
        assert table.f_nonlocal.tolist() == [0.0, 0.0]

    def test_unanimous_neighbors_give_two_thirds(self):
        stats = _stats(
            [0, 1, 2],
            [4, 4, 4],
            [0, 4, 4],  # neighbors of id 0 are both fully foreground
            [[0, 0, 0], [0.3, 0, 0], [0, 0.4, 0]],
        )
        table = build_consensus(stats, RefineConfig(mode="nonlocal"))
        assert table.f_nonlocal[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_background_neighbors_give_zero(self):
        stats = _stats(
            [0, 1, 2],
            [4, 4, 4],
            [4, 2, 2],  # neighbors have f_local = 0
            [[0, 0, 0], [0.3, 0, 0], [0, 0.4, 0]],
        )
        table = build_consensus(stats, RefineConfig(mode="nonlocal"))
        assert table.f_nonlocal[0] == 0.0

    def test_two_neighbor_hand_value(self):
        # 102 supervoxels so that ceil(n/100) = 2 neighbors; the two closest
        # to id 0 sit at city-block distances 0.1 and 0.2 with opposite
        # consensus: raw weights (100, 25), rescaled to sum 2/3, vote 0.4
        n = 102
        ids = list(range(n))
        counts = [1] * n
        fg = [0] * n
        fg[1] = 1  # f_local +1
        fg[2] = 0  # f_local -1
        mean_lab = [[0.9 + 0.0005 * i, 0.9, 0.9] for i in range(n)]
        mean_lab[0] = [0.0, 0.0, 0.0]
        mean_lab[1] = [0.1, 0.0, 0.0]
        mean_lab[2] = [0.0, 0.2, 0.0]
        table = build_consensus(_stats(ids, counts, fg, mean_lab))
        assert table.f_nonlocal[0] == pytest.approx(0.4, abs=1e-9)

    def test_neighbor_ties_broken_by_smaller_id(self):
        # ids 1 and 2 are equidistant from 0; only one neighbor is taken
        stats = _stats(
            [0, 1, 2],
            [1, 1, 1],
            [0, 1, 0],  # id1 votes +1, id2 votes -1
            [[0, 0, 0], [0.5, 0, 0], [0, 0.5, 0]],
        )
        table = build_consensus(stats, RefineConfig(mode="nonlocal"))
        assert table.f_nonlocal[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_identical_colors_floored(self):
        stats = _stats([0, 1], [1, 1], [0, 1], [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])
        table = build_consensus(stats, RefineConfig(mode="nonlocal"))
        assert table.f_nonlocal[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_nonlocal_bound(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            counts = rng.integers(1, 10, size=n)
            fg = (rng.random(n) * counts).astype(np.int64)
            stats = _stats(np.arange(n), counts, fg, rng.random((n, 3)))
            table = build_consensus(stats)
            assert np.all(np.abs(table.f_nonlocal) <= 2.0 / 3.0 + 1e-12)

    def test_single_supervoxel_nonlocal_error(self):
        stats = _stats([0], [1], [1], [[0, 0, 0]])
        with pytest.raises(ValueError, match="at least 2"):
            build_consensus(stats, RefineConfig(mode="nonlocal"))
        build_consensus(stats, RefineConfig(mode="local"))  # fine

    def test_matches_oracle(self, rng):
        n = int(rng.integers(3, 30))
        counts = rng.integers(1, 20, size=n)
        fg = (rng.random(n) * (counts + 1)).astype(np.int64).clip(0, counts)
        mean_lab = rng.random((n, 3))
        stats = _stats(np.arange(n), counts, fg, mean_lab)
        table = build_consensus(stats)
        mean_lab_by_id = {i: mean_lab[i].tolist() for i in range(n)}
        # the oracle recomputes everything from per-pixel frames; emulate by
        # one frame of singleton rows is awkward, so compare the nonlocal
        # votes through its neighbor logic directly
        for i in range(n):
            others = sorted(
                (sum(abs(a - b) for a, b in zip(mean_lab[i], mean_lab[j])), j)
                for j in range(n)
                if j != i
            )
            chosen = others[: math.ceil(n / 100)]
            raw = [1.0 / max(d, 1e-3) ** 2 for d, _ in chosen]
            scale = (2.0 / 3.0) / sum(raw)
            f_local = (2.0 * fg - counts) / counts
            expected = sum(w * scale * f_local[j] for w, (_, j) in zip(raw, chosen))
            assert table.f_nonlocal[i] == pytest.approx(expected, abs=1e-12)


def _random_table(rng, n, levels=None, ids=None):
    counts = rng.integers(1, 30, size=n)
    fg = (rng.random(n) * (counts + 1)).astype(np.int64).clip(0, counts)
    if levels is None:
        mean_lab = rng.random((n, 3)) * (100.0, 200.0, 200.0) - (0.0, 100.0, 100.0)
    else:  # few levels per channel: many exact distance ties
        mean_lab = rng.integers(0, levels, size=(n, 3)) / levels
    return _stats(np.arange(n) if ids is None else ids, counts, fg, mean_lab)


def _equals_reference(stats, **kwargs):
    table = build_consensus(stats, RefineConfig(**kwargs))
    expected = oracles.consensus_rows(stats.ids, stats.local_consensus, stats.mean_lab, **kwargs)
    return np.array_equal(table.f_nonlocal, expected)


def _search_radii(monkeypatch):
    """The radius of every block the neighbor search looks at, in call order."""
    radii, search = [], refine._search_block

    def spy(channels, ids, rows, k, radius, *out):
        radii.append(radius)
        return search(channels, ids, rows, k, radius, *out)

    monkeypatch.setattr(refine, "_search_block", spy)
    return radii


class TestConsensusExactness:
    """The pruned consensus equals the per-row reference bit for bit."""

    # blocks of 32 rows: n = 32 is exactly one block, 20 less than one
    @pytest.mark.parametrize("n", [2, 3, 20, 31, 32, 33, 101, 255, 256, 257, 1000])
    @pytest.mark.parametrize("levels", [None, 3, 2])
    def test_equals_per_row_reference(self, rng, n, levels):
        assert _equals_reference(_random_table(rng, n, levels))

    def test_far_points_need_a_larger_radius(self, rng, monkeypatch):
        # a tight cluster sets the first radius; the far points find their
        # neighbors only in later rounds, at twice the radius or more
        n = 600
        mean_lab = 0.5 + 1e-3 * rng.standard_normal((n, 3))
        mean_lab[::15] = rng.random((n // 15, 3))
        stats = _stats(np.arange(n), np.full(n, 3), rng.integers(0, 4, n), mean_lab)
        radii = _search_radii(monkeypatch)
        assert _equals_reference(stats)
        assert len(set(radii)) >= 3 and radii[-1] >= 4 * radii[0]

    @pytest.mark.parametrize("n", [2, 20, 150])
    def test_every_mean_equal(self, rng, n, monkeypatch):
        # the first radius is 0, which is the extent of the means: one round
        # over every column ends the search
        stats = _stats(np.arange(n), np.full(n, 2), rng.integers(0, 3, n), np.full((n, 3), 0.3))
        radii = _search_radii(monkeypatch)
        assert _equals_reference(stats)
        assert radii == [math.inf] * -(-n // _CONSENSUS_BLOCK)

    @staticmethod
    def _line(gaps, ids):
        """Supervoxels on the L axis at the given gaps; f_local is -1 in the first block, +1 after."""
        n = len(gaps) + 1
        mean_lab = np.zeros((n, 3))
        mean_lab[1:, 0] = np.cumsum(gaps)
        return _stats(ids, np.ones(n), np.arange(n) >= _CONSENSUS_BLOCK, mean_lab)

    def test_edge_row_beyond_the_radius_searched_again(self):
        # 64 rows 1 apart, one neighbor each, so the first radius is 1; the
        # last row of the first block is 1.8 from the row before it and 1.5
        # from the row after, which lies outside the radius around the
        # block. Taking the 1.8 (within 2r) would be wrong.
        edge = _CONSENSUS_BLOCK - 1
        gaps = np.ones(2 * _CONSENSUS_BLOCK - 1)
        gaps[edge - 1], gaps[edge] = 1.8, 1.5
        assert _equals_reference(self._line(gaps, np.arange(len(gaps) + 1)))

    def test_tie_exactly_at_the_radius(self):
        # 64 rows 1 apart with descending ids: the last row of the first
        # block has neighbors at distance 1 = radius on both sides, and the
        # one in the next block, at a box gap of exactly the radius, has the
        # smaller id
        n = 2 * _CONSENSUS_BLOCK
        assert _equals_reference(self._line(np.ones(n - 1), np.arange(n)[::-1]))

    def test_raw_lab_with_descending_ids(self, rng):
        # unnormalized L*a*b* ranges; ids non-contiguous and in descending order
        n = 500
        ids = np.sort(rng.choice(4 * n, size=n, replace=False))[::-1]
        assert _equals_reference(_random_table(rng, n, ids=ids))

    def test_quantised_many_ties(self, rng):
        assert _equals_reference(_random_table(rng, 3000, levels=4))

    def test_refuses_non_finite_means(self):
        for bad in (np.nan, np.inf):
            mean_lab = np.zeros((3, 3))
            mean_lab[1, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                build_consensus(_stats([0, 1, 2], [1, 1, 1], [0, 1, 0], mean_lab))

    def test_prunes_most_distances(self, rng, monkeypatch):
        # Work-count guard: a search that fell back to all n^2 distances would
        # pass every exactness test. Count the elements the distance kernel
        # computes on a clustered table.
        n = 6000
        centres = rng.random((30, 3))
        mean_lab = centres[rng.integers(0, 30, n)] + 0.02 * rng.standard_normal((n, 3))
        stats = _stats(np.arange(n), np.full(n, 4), rng.integers(0, 5, n), mean_lab)
        computed, kernel = [], refine._city_block

        def counting(channels, rows, cols):
            dist = kernel(channels, rows, cols)
            computed.append(dist.size)
            return dist

        monkeypatch.setattr(refine, "_city_block", counting)
        build_consensus(stats)
        assert sum(computed) < 0.4 * n * n

    @pytest.mark.parametrize("n", [2, 257, 700])
    def test_non_contiguous_ids(self, rng, n):
        ids = np.sort(rng.choice(5 * n, size=n, replace=False))
        assert _equals_reference(_random_table(rng, n, levels=3, ids=ids))

    def test_ties_go_to_smaller_id_not_smaller_index(self, rng):
        # ids in descending order: the tie rule must read ids, not positions
        n = 300
        assert _equals_reference(_random_table(rng, n, levels=2, ids=np.arange(n)[::-1] * 3))


class TestRefineMasks:
    def test_local_consensus_forces_full_mask(self):
        fore = np.zeros((3, 3))
        labels = np.zeros((3, 3), int)
        table = ConsensusTable(np.array([0]), np.array([1.0]), np.array([0.0]))
        mask = refine_mask(fore, labels, table, fore.max(), RefineConfig(mode="local"))
        assert mask.all()

    def test_local_consensus_forces_empty_mask(self):
        fore = np.zeros((3, 3))
        labels = np.zeros((3, 3), int)
        table = ConsensusTable(np.array([0]), np.array([-1.0]), np.array([0.0]))
        mask = refine_mask(fore, labels, table, fore.max(), RefineConfig(mode="local"))
        assert not mask.any()

    def test_mixed_fixture_hand_values(self):
        # 3x3 frame, two supervoxels: id0 covers (0,0) and (0,1) half
        # foreground (f_local 0); id1 covers the rest, all background
        # (f_local -1). Foregroundness 1 at (0,0), 0 at (0,1), 0.5 under id1.
        # In local+nonlocal mode each supervoxel's single neighbor is the
        # other: f_nl(id0) = (2/3)(-1), f_nl(id1) = 0. With w0 = 1/3 the
        # adjusted values are 1/3, -2/3, and 0.5 - 1/3 = 1/6.
        labels = np.full((3, 3), 1, dtype=int)
        labels[0, 0] = labels[0, 1] = 0
        mask = np.zeros((3, 3), dtype=np.uint8)
        mask[0, 0] = 1
        fore = np.full((3, 3), 0.5)
        fore[0, 0] = 1.0
        fore[0, 1] = 0.0
        rgb = np.zeros((3, 3, 3), np.uint8)
        rgb[0, 0] = (255, 0, 0)  # distinct colors, irrelevant for n=2
        stats = supervoxel_stats(ArrayVideo([rgb], [labels]), [mask])
        cfg = RefineConfig(mode="nonlocal")
        table = build_consensus(stats, cfg)
        assert table.f_local.tolist() == [0.0, -1.0]
        assert table.f_nonlocal[0] == pytest.approx(-2.0 / 3.0, abs=1e-9)
        assert table.f_nonlocal[1] == pytest.approx(0.0, abs=1e-9)
        adjusted = adjusted_foregroundness(fore, labels, table, fore.max(), cfg)
        assert adjusted[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert adjusted[0, 1] == pytest.approx(-2.0 / 3.0, abs=1e-9)
        assert adjusted[1, 1] == pytest.approx(1.0 / 6.0, abs=1e-9)
        expected = oracles.refine_fields(
            [fore.tolist()],
            [labels.tolist()],
            [mask.tolist()],
            {i: stats.mean_lab[list(stats.ids).index(i)].tolist() for i in stats.ids},
            mode="nonlocal",
        )
        assert np.allclose(adjusted, expected[0], atol=1e-9)
        mask = refine_mask(fore, labels, table, fore.max(), cfg)
        expected_mask = np.ones((3, 3), dtype=np.uint8)
        expected_mask[0, 1] = 0
        assert np.array_equal(mask, expected_mask)

    def test_positive_foregroundness_minus_third(self):
        # adjusted = 0.5 + (1/3)(-1) = 1/6 > 0 keeps the pixel foreground
        labels = np.zeros((1, 2), int)
        labels[0, 1] = 1
        fore = np.array([[0.5, 1.0]])  # max 1 keeps scaling identity
        table = ConsensusTable(np.array([0, 1]), np.array([-1.0, 1.0]), np.zeros(2))
        cfg = RefineConfig(mode="nonlocal", w0=1.0 / 3.0)
        adjusted = adjusted_foregroundness(fore, labels, table, fore.max(), cfg)
        assert adjusted[0, 0] == pytest.approx(0.5 - 1.0 / 3.0, abs=1e-9)

    def test_missing_id_raises(self):
        table = ConsensusTable(np.array([0]), np.array([1.0]), np.array([0.0]))
        labels = np.array([[0, 7]])
        with pytest.raises(ValueError, match="missing"):
            refine_mask(np.zeros((1, 2)), labels, table, 0.0)

    def test_negative_id_raises(self):
        # a negative id must not wrap around to the last entry of the lookup
        table = ConsensusTable(np.array([0, 1]), np.array([0.0, 1.0]), np.zeros(2))
        labels = np.array([[0, -1]])
        with pytest.raises(ValueError, match="non-negative"):
            adjusted_foregroundness(np.zeros((1, 2)), labels, table, 0.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_])
    def test_non_integer_ids_are_refused(self, dtype):
        # the TypeError supervoxel_stats raises, not an IndexError from the lookup
        table = ConsensusTable(np.array([0, 1]), np.array([0.0, 1.0]), np.zeros(2))
        labels = np.array([[0, 1]], dtype=dtype)
        for refine_frame in (adjusted_foregroundness, refine_mask):
            with pytest.raises(TypeError, match="Cannot cast supervoxel ids of dtype"):
                refine_frame(np.zeros((1, 2)), labels, table, 0.0)

    def test_shape_mismatch_raises(self):
        table = ConsensusTable(np.array([0]), np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            refine_mask(np.zeros((2, 2)), np.zeros((2, 3), int), table, 0.0)

    def test_zero_max_scaling(self):
        labels = np.zeros((2, 2), int)
        table = ConsensusTable(np.array([0]), np.array([0.5]), np.array([0.0]))
        cfg = RefineConfig(mode="local")
        adjusted = adjusted_foregroundness(np.zeros((2, 2)), labels, table, 0.0, cfg)
        assert np.all(adjusted == 0.5)

    def test_keeps_at_most_two_segments(self):
        fore = np.zeros((1, 7))
        labels = np.array([[0, 1, 0, 2, 0, 3, 0]])
        table = ConsensusTable(
            np.arange(4),
            np.array([-1.0, 1.0, 0.8, 0.6]),
            np.zeros(4),
        )
        mask = refine_mask(fore, labels, table, fore.max(), RefineConfig(mode="local"))
        assert mask.tolist() == [[0, 1, 0, 1, 0, 0, 0]]

    def test_singleton_supervoxels_local_mode_equals_brute_force(self, rng):
        # every pixel is its own supervoxel: local-only refinement keeps
        # exactly the masked pixels (foregroundness cannot overcome a -1
        # consensus, and +1 consensus always wins)
        for _ in range(20):
            mask = (rng.random((3, 3)) > 0.5).astype(np.uint8)
            fore = rng.random((3, 3))
            labels = np.arange(9).reshape(3, 3)
            rgb = rng.integers(0, 256, size=(3, 3, 3), dtype=np.uint8)
            lab = rgb_to_lab(rgb)
            stats = supervoxel_stats(ArrayVideo([rgb], [labels]), [mask])
            cfg = RefineConfig(mode="local")
            table = build_consensus(stats, cfg)
            adjusted = adjusted_foregroundness(fore, labels, table, fore.max(), cfg)
            expected = oracles.refine_fields(
                [fore.tolist()],
                [labels.tolist()],
                [mask.tolist()],
                {int(i): lab[i // 3, i % 3].tolist() for i in range(9)},
                mode="local",
            )
            assert np.allclose(adjusted, expected[0], atol=1e-9)
            assert np.array_equal((adjusted > 0).astype(np.uint8), mask)

    def test_raising_consensus_never_removes_pixels(self, rng):
        for _ in range(20):
            n = 5
            labels = rng.integers(0, n, size=(4, 4))
            labels.flat[: n] = np.arange(n)  # every id present
            fore = rng.random((4, 4))
            f_local = rng.uniform(-1, 1, size=n)
            f_nonlocal = rng.uniform(-2 / 3, 2 / 3, size=n)
            table = ConsensusTable(np.arange(n), f_local, f_nonlocal)
            cfg = RefineConfig(mode="nonlocal")
            before = adjusted_foregroundness(fore, labels, table, fore.max(), cfg) > 0
            bumped = ConsensusTable(
                np.arange(n), np.minimum(f_local + 0.5, 1.0), f_nonlocal
            )
            after = adjusted_foregroundness(fore, labels, bumped, fore.max(), cfg) > 0
            assert np.all(after >= before)


class TestRefineSequence:
    def _video(self, tmp_path, mode="nonlocal"):
        scene = moving_block_arrays(height=20, width=24, block=(slice(5, 15), slice(7, 17)))
        height, width = 20, 24
        labels = np.zeros((height, width), dtype=np.int64)
        labels[5:15, 7:17] = 1  # block supervoxel
        labels[:, :4] = 2       # a left band
        frame = scene["frames"][0]
        root = write_video_dir(
            tmp_path / f"vid_{mode}",
            frames=[frame] * 2,
            flows=scene["flows"],
            saliencies=scene["saliencies"] * 2,
            labels=[labels] * 2,
        )
        return root, scene["truth"], labels

    @pytest.mark.parametrize("mode", ["local", "nonlocal"])
    def test_end_to_end(self, tmp_path, mode):
        root, truth, _ = self._video(tmp_path, mode)
        seq = open_sequence(root)
        result = refine_sequence(seq, ref_cfg=RefineConfig(mode=mode))
        assert len(result.masks) == 2
        # initial mask is the block; the block supervoxel is unanimously
        # foreground and background supervoxels unanimously background, so
        # refinement reproduces the block
        for mask in result.masks:
            assert np.array_equal(mask, truth)

    def test_requires_labels(self, tmp_path):
        scene = moving_block_arrays()
        root = write_video_dir(
            tmp_path / "nolabels",
            frames=scene["frames"],
            flows=scene["flows"],
            saliencies=scene["saliencies"],
        )
        with pytest.raises(ValueError, match="label"):
            refine_sequence(open_sequence(root))

    def test_jobs_deterministic(self, tmp_path):
        root, _, _ = self._video(tmp_path)
        seq = open_sequence(root)
        serial = refine_sequence(seq, jobs=1)
        threaded = refine_sequence(seq, jobs=8)
        for a, b in zip(serial.masks, threaded.masks):
            assert a.tobytes() == b.tobytes()

    def test_jobs_deterministic_over_several_blocks(self, tmp_path):
        # 16 x 21 tiles of 3 x 3 pixels: 336 supervoxels, eleven blocks of the neighbor search
        rng = np.random.default_rng(7)
        scene = moving_block_arrays(
            height=48, width=63, block=(slice(12, 33), slice(18, 42)), num_frames=5
        )
        rows, cols = np.indices((48, 63))
        labels = (rows // 3) * 21 + cols // 3
        frames = [rng.integers(0, 256, size=(48, 63, 3), dtype=np.uint8) for _ in range(5)]
        root = write_video_dir(
            tmp_path / "tiles",
            frames=frames,
            flows=scene["flows"],
            saliencies=scene["saliencies"],
            labels=[labels] * 5,
        )
        seq = open_sequence(root)
        results = [refine_sequence(seq, jobs=jobs) for jobs in (1, 2, 8)]
        n = len(results[0].consensus.ids)
        assert n == 336 and n > 10 * _CONSENSUS_BLOCK
        for other in results[1:]:
            assert np.array_equal(other.consensus.f_nonlocal, results[0].consensus.f_nonlocal)
            for a, b in zip(results[0].masks, other.masks):
                assert a.tobytes() == b.tobytes()

    def test_matches_pixelwise_normalization(self, tmp_path):
        # the former pipeline: normalize every LAB pixel, average, vote per row
        rng = np.random.default_rng(11)
        scene = moving_block_arrays(height=24, width=30, num_frames=3)
        labels = [rng.integers(0, 40, size=(24, 30)) for _ in range(3)]
        frames = [rng.integers(0, 256, size=(24, 30, 3), dtype=np.uint8) for _ in range(3)]
        root = write_video_dir(
            tmp_path / "noisy",
            frames=frames,
            flows=scene["flows"],
            saliencies=scene["saliencies"],
            labels=labels,
        )
        result = refine_sequence(open_sequence(root))
        lab = [oracles.rgb_to_lab_pow(f) for f in frames]
        low = np.min([f.min(axis=(0, 1)) for f in lab], axis=0)
        high = np.max([f.max(axis=(0, 1)) for f in lab], axis=0)
        stats = oracles.supervoxel_stats_lab(
            labels, [(f - low) / (high - low) for f in lab], result.initial.masks
        )
        expected = oracles.consensus_rows(stats.ids, stats.local_consensus, stats.mean_lab)
        assert np.allclose(result.consensus.f_nonlocal, expected, rtol=0, atol=1e-12)
        table = ConsensusTable(stats.ids, stats.local_consensus, expected)
        fores = result.initial.foregroundness
        video_max = max(fore.max() for fore in fores)
        masks = [refine_mask(f, frame, table, video_max) for f, frame in zip(fores, labels)]
        for a, b in zip(result.masks, masks):
            assert a.tobytes() == b.tobytes()


    @pytest.mark.parametrize("name, kind", [("frames/00002.ppm", "PPM"),
                                            ("svx/00002.pgm16", "PGM16")])
    def test_corrupt_file_fails_alike_at_any_jobs(self, tmp_path, capsys, name, kind):
        # Frames are first decoded in the LAB pass, in the workers at two
        # jobs; label maps in the tally, on the main thread, while the
        # workers convert the next frames. Either way the error is the one
        # the file raises, no worker is left running, and no output
        # directory is made.
        scene = moving_block_arrays(height=20, width=24, num_frames=5)
        labels = np.arange(20 * 24).reshape(20, 24) // 40
        root = write_video_dir(tmp_path / "video", frames=scene["frames"], flows=scene["flows"],
                               saliencies=scene["saliencies"], labels=[labels] * 5)
        corrupt = root / name
        corrupt.write_bytes(corrupt.read_bytes()[:-7])
        seq = open_sequence(root)
        errors, stderr = [], []
        for jobs in ("1", "2"):
            with pytest.raises(ValueError) as excinfo:
                refine_sequence(seq, jobs=int(jobs))
            errors.append(str(excinfo.value))
            out = tmp_path / f"refined{jobs}"
            argv = ["refine", "--input", str(root), "--output", str(out), "--jobs", jobs]
            assert main(argv) == 1
            assert not out.exists()
            stderr.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"{corrupt}: truncated {kind} payload"
        assert stderr[0] == stderr[1] == f"error: {errors[0]}\n"

    def test_labels_changed_between_passes_raise(self, tmp_path):
        # pass two reads every label map again; a map rewritten since pass
        # one is an error naming the ids the consensus table does not hold
        root, _, _ = self._video(tmp_path)
        seq = _RelabelledOnSecondRead(open_sequence(root), new_id=9)
        with pytest.raises(ValueError, match=r"missing from consensus table: \[9\]"):
            refine_sequence(seq)

    def test_memory_growth_per_frame(self, tmp_path):
        # Pass two holds one frame's labels and adjusted field at a time, so
        # what refine keeps per frame is its float64 foregroundness (8 B per
        # pixel), its initial mask and its refined mask (1 B each).
        height, width = 120, 160
        rows, cols = np.indices((height, width))
        labels = (rows // 10) * (width // 10) + cols // 10
        seqs = {}
        for num_frames in (4, 12):
            scene = moving_block_arrays(
                height=height, width=width, block=(slice(40, 80), slice(60, 100)),
                num_frames=num_frames,
            )
            root = write_video_dir(
                tmp_path / f"tiles{num_frames}",
                frames=scene["frames"],
                flows=scene["flows"],
                saliencies=scene["saliencies"],
                labels=[labels] * num_frames,
            )
            seqs[num_frames] = open_sequence(root)
        refine_sequence(seqs[4])  # lazy imports happen outside the traced runs
        peaks = {}
        for num_frames, seq in seqs.items():
            tracemalloc.start()
            try:
                refine_sequence(seq)
                peaks[num_frames] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        per_frame_pixel = (peaks[12] - peaks[4]) / (8 * height * width)
        assert per_frame_pixel <= 10.0, f"{per_frame_pixel:.1f} B per frame per pixel"


class _RelabelledOnSecondRead:
    """A sequence whose label maps carry a new id from their second read on."""

    def __init__(self, seq, new_id):
        self._seq, self._new_id = seq, new_id
        self._reads = collections.Counter()

    def __getattr__(self, name):
        return getattr(self._seq, name)

    def labels(self, index):
        labels = self._seq.labels(index)
        self._reads[index] += 1
        if self._reads[index] > 1:
            labels[0, 0] = self._new_id
        return labels


class TestRefineConfig:
    @pytest.mark.parametrize("field, value", [
        ("w0", float("nan")), ("w0", float("inf")), ("w0", -float("inf")),
    ])
    def test_rejects_non_finite_values_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            RefineConfig(**{field: value})

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            RefineConfig(mode="global")

    def test_derived_local_weight(self):
        assert RefineConfig(mode="local").local_weight == 1.0
        assert RefineConfig(mode="nonlocal").local_weight == pytest.approx(1 / 3)
        assert RefineConfig(mode="nonlocal", w0=0.2).local_weight == 0.2
