"""Tests for the raster codecs and the frame-sequence layout."""

import re
import struct

import numpy as np
import pytest

from tukeyseg.io import (
    FLO_SENTINEL,
    FlowField,
    open_sequence,
    read_flo,
    read_mask_pgm,
    read_pgm,
    read_pgm16,
    read_ppm,
    read_mask_dir,
    read_saliency_pgm,
    write_flo,
    write_mask_pgm,
    write_pgm,
    write_pgm16,
    write_ppm,
    write_saliency_pgm,
)
from conftest import moving_block_arrays, write_video_dir


class TestFlo:
    def test_hand_assembled_single_pixel(self):
        data = struct.pack("<fii", FLO_SENTINEL, 1, 1) + struct.pack("<ff", 1.0, -2.0)
        assert len(data) == 20
        flow = read_flo(data)
        assert flow.u.tolist() == [[1.0]]
        assert flow.v.tolist() == [[-2.0]]
        assert write_flo(flow) == data

    def test_bad_sentinel(self):
        data = struct.pack("<fii", 12345.0, 1, 1) + b"\x00" * 8
        with pytest.raises(ValueError, match="not a flo file"):
            read_flo(data)

    def test_truncated(self):
        data = struct.pack("<fii", FLO_SENTINEL, 2, 2) + b"\x00" * 16
        with pytest.raises(ValueError, match="truncated flow"):
            read_flo(data)

    def test_trailing_bytes_rejected(self):
        good = write_flo(FlowField(np.zeros((2, 2), np.float32), np.zeros((2, 2), np.float32)))
        with pytest.raises(ValueError, match="longer"):
            read_flo(good + b"\x00")

    def test_non_positive_dimensions(self):
        data = struct.pack("<fii", FLO_SENTINEL, 0, 3)
        with pytest.raises(ValueError, match="dimensions"):
            read_flo(data)

    def test_zero_field_round_trip(self):
        flow = FlowField(np.zeros((2, 2), np.float32), np.zeros((2, 2), np.float32))
        encoded = write_flo(flow)
        again = write_flo(read_flo(encoded))
        assert again == encoded

    def test_random_round_trips(self, rng):
        for _ in range(50):
            h, w = rng.integers(1, 12, size=2)
            u = rng.normal(scale=10, size=(h, w)).astype(np.float32)
            v = rng.normal(scale=10, size=(h, w)).astype(np.float32)
            flow = FlowField(u, v)
            decoded = read_flo(write_flo(flow))
            assert decoded.u.tobytes() == u.tobytes()
            assert decoded.v.tobytes() == v.tobytes()


class TestPgm:
    def test_hand_assembled_mask(self):
        data = b"P5\n2 1\n255\n\x00\xff"
        assert read_mask_pgm(data).tolist() == [[0, 1]]

    def test_round_trip_mask(self, rng):
        mask = (rng.random((5, 7)) > 0.5).astype(np.uint8)
        encoded = write_mask_pgm(mask)
        assert read_mask_pgm(encoded).tolist() == mask.tolist()
        assert write_mask_pgm(read_mask_pgm(encoded)) == encoded

    def test_sixteen_bit_maxval_rejected(self):
        with pytest.raises(ValueError, match="maxval"):
            read_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_wrong_magic(self):
        with pytest.raises(ValueError, match="magic"):
            read_pgm(b"P6\n1 1\n255\n\x00")

    def test_truncated_payload(self):
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(b"P5\n2 2\n255\n\x00\x00\x00")

    def test_excess_payload(self):
        with pytest.raises(ValueError, match="longer"):
            read_pgm(b"P5\n1 1\n255\n\x00\x00")

    def test_binarization_threshold(self):
        data = b"P5\n3 1\n255\n" + bytes([127, 128, 0])
        assert read_mask_pgm(data).tolist() == [[0, 1, 0]]

    def test_mask_writer_rejects_other_values(self):
        with pytest.raises(ValueError, match="0 or 1"):
            write_mask_pgm(np.array([[2]]))

    def test_saliency_quantization_round_trip(self, rng):
        field = rng.integers(0, 256, size=(4, 6)) / 255.0
        encoded = write_saliency_pgm(field)
        assert np.array_equal(read_saliency_pgm(encoded), field)

    def test_gray_round_trip(self, rng):
        gray = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
        assert np.array_equal(read_pgm(write_pgm(gray)), gray)


class TestPgm16:
    def test_hand_assembled_big_endian(self):
        data = b"P5\n1 2\n65535\n" + bytes([0x00, 0x01, 0x01, 0x00])
        assert read_pgm16(data).tolist() == [[1], [256]]

    def test_round_trip(self, rng):
        ids = rng.integers(0, 65536, size=(4, 3))
        encoded = write_pgm16(ids)
        assert np.array_equal(read_pgm16(encoded), ids)
        assert write_pgm16(read_pgm16(encoded)) == encoded

    def test_odd_payload_truncated(self):
        data = b"P5\n1 2\n65535\n" + bytes([0x00, 0x01, 0x01])
        with pytest.raises(ValueError, match="truncated"):
            read_pgm16(data)

    def test_eight_bit_maxval_rejected(self):
        with pytest.raises(ValueError, match="maxval"):
            read_pgm16(b"P5\n1 1\n255\n\x00\x00")


class TestPpm:
    def test_hand_assembled_red_pixel(self):
        data = b"P6\n1 1\n255\n\xff\x00\x00"
        assert read_ppm(data).tolist() == [[[255, 0, 0]]]

    def test_round_trip(self, rng):
        rgb = rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
        encoded = write_ppm(rgb)
        assert np.array_equal(read_ppm(encoded), rgb)
        assert write_ppm(read_ppm(encoded)) == encoded

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            read_ppm(b"P5\n1 1\n255\n\x00\x00\x00")


class TestOpenSequence:
    def _basic_video(self, tmp_path, num_frames=10, flow_count=9):
        scene = moving_block_arrays(height=8, width=9, block=(slice(2, 5), slice(3, 6)))
        return write_video_dir(
            tmp_path / "vid",
            frames=scene["frames"] * num_frames,
            flows=scene["flows"] * flow_count,
            saliencies=scene["saliencies"] * num_frames,
        )

    def test_last_frame_reuses_final_flow(self, tmp_path):
        root = self._basic_video(tmp_path, num_frames=10, flow_count=9)
        seq = open_sequence(root)
        assert seq.num_frames == 10
        assert seq.flow_count == 9
        last = seq.flow(9)
        penultimate = seq.flow(8)
        assert np.array_equal(last.u, penultimate.u)

    def test_empty_directory(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError, match="no frames"):
            open_sequence(tmp_path / "empty")

    def test_gap_in_frames(self, tmp_path):
        root = self._basic_video(tmp_path, num_frames=4, flow_count=3)
        (root / "frames" / "00002.ppm").rename(root / "frames" / "00009.ppm")
        with pytest.raises(ValueError, match="gap at index 2"):
            open_sequence(root)

    def test_dimension_mismatch_names_file(self, tmp_path):
        root = self._basic_video(tmp_path, num_frames=3, flow_count=2)
        odd = np.zeros((4, 4, 3), dtype=np.uint8)
        (root / "frames" / "00001.ppm").write_bytes(write_ppm(odd))
        with pytest.raises(ValueError, match="00001.ppm"):
            open_sequence(root)

    def test_bad_flow_count(self, tmp_path):
        root = self._basic_video(tmp_path, num_frames=5, flow_count=2)
        with pytest.raises(ValueError, match="flow"):
            open_sequence(root)

    def test_mask_methods_discovered(self, tmp_path):
        scene = moving_block_arrays(height=6, width=6, block=(slice(1, 3), slice(1, 3)))
        masks = [scene["truth"]] * 3
        root = write_video_dir(
            tmp_path / "vid",
            frames=scene["frames"] * 3,
            masks={"beta": masks, "alpha": masks},
        )
        seq = open_sequence(root)
        assert seq.mask_methods == ("alpha", "beta")
        assert seq.mask("alpha", 1).tolist() == scene["truth"].tolist()

    def test_accessors_validate_index_and_presence(self, tmp_path):
        root = self._basic_video(tmp_path, num_frames=3, flow_count=2)
        seq = open_sequence(root)
        with pytest.raises(IndexError):
            seq.frame(3)
        with pytest.raises(ValueError, match="label"):
            seq.labels(0)

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(ValueError, match="not a directory"):
            open_sequence(tmp_path / "missing")


def _resized(kind, shape):
    """Encoded raster of one accessor's kind at another (height, width)."""
    zeros = np.zeros(shape)
    return {
        "frame": lambda: write_ppm(np.zeros((*shape, 3), np.uint8)),
        "flow": lambda: write_flo(FlowField(zeros.astype(np.float32), zeros.astype(np.float32))),
        "saliency": lambda: write_saliency_pgm(zeros),
        "labels": lambda: write_pgm16(zeros.astype(np.int64)),
        "mask": lambda: write_mask_pgm(zeros.astype(np.uint8)),
    }[kind]()


class TestAccessorsRecheckFiles:
    """A raster rewritten after open_sequence fails its accessor, naming the file."""

    FILES = {
        "frame": ("frames/00001.ppm", lambda seq: seq.frame(1)),
        "flow": ("flow/00001.flo", lambda seq: seq.flow(1)),
        "saliency": ("saliency/00001.pgm", lambda seq: seq.saliency(1)),
        "labels": ("svx/00001.pgm16", lambda seq: seq.labels(1)),
        "mask": ("masks/alpha/00001.pgm", lambda seq: seq.mask("alpha", 1)),
    }

    def _open(self, tmp_path):
        scene = moving_block_arrays(num_frames=3)  # 30 x 40
        root = write_video_dir(
            tmp_path / "vid",
            frames=scene["frames"],
            flows=scene["flows"],
            saliencies=scene["saliencies"],
            labels=[scene["truth"]] * 3,
            masks={"alpha": [scene["truth"]] * 3},
        )
        return root, open_sequence(root)

    @pytest.mark.parametrize("kind", sorted(FILES))
    @pytest.mark.parametrize("shape", [(30, 1), (1, 40)])
    def test_resized_file_named(self, tmp_path, kind, shape):
        root, seq = self._open(tmp_path)
        relative, read = self.FILES[kind]
        path = root / relative
        read(seq)  # the untouched file reads fine
        path.write_bytes(_resized(kind, shape))
        expected = f"{path}: dimensions {shape[1]}x{shape[0]} do not match sequence 40x30"
        with pytest.raises(ValueError, match=re.escape(expected)):
            read(seq)

    @pytest.mark.parametrize("kind", sorted(FILES))
    def test_undecodable_file_named(self, tmp_path, kind):
        root, seq = self._open(tmp_path)
        relative, read = self.FILES[kind]
        path = root / relative
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated")):
            read(seq)


class TestReadMaskDir:
    def test_reads_in_index_order(self, tmp_path):
        d = tmp_path / "m"
        d.mkdir()
        for i in range(3):
            mask = np.zeros((2, 2), dtype=np.uint8)
            mask[0, 0] = i % 2
            (d / f"{i:05d}.pgm").write_bytes(write_mask_pgm(mask))
        masks = read_mask_dir(d)
        assert [m[0, 0] for m in masks] == [0, 1, 0]

    def test_empty(self, tmp_path):
        d = tmp_path / "m"
        d.mkdir()
        with pytest.raises(ValueError, match="no masks"):
            read_mask_dir(d)
