"""Tests for the raster codecs and the frame-sequence layout."""

import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from tukeyseg import io, metrics, refine, segment
from tukeyseg.io import (
    FLO_SENTINEL,
    FlowField,
    open_sequence,
    read_flo,
    read_mask_pgm,
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
from conftest import mask_dtype_matrix
from scenes import Scene, blank, encode, moving_block, write, write_masks


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

    @pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int32])
    def test_flow_that_is_not_float32_refused(self, dtype):
        # Magnitudes square float32 components exactly in float64; a wider
        # component's square could overflow or lose bits.
        wide = np.ones((2, 2), dtype)
        narrow = np.ones((2, 2), np.float32)
        for u, v in ((wide, narrow), (narrow, wide)):
            with pytest.raises(ValueError, match=f"float32.*{np.dtype(dtype)}"):
                FlowField(u, v)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_refused(self, value):
        for pair in ((value, 0.0), (0.0, value)):
            data = struct.pack("<fii", FLO_SENTINEL, 1, 1) + struct.pack("<ff", *pair)
            with pytest.raises(ValueError, match="^non-finite flow values$"):
                read_flo(data)

    @pytest.mark.parametrize("length", [0, 4, 11])
    def test_header_shorter_than_twelve_bytes(self, length):
        data = struct.pack("<fii", FLO_SENTINEL, 1, 1)[:length]
        with pytest.raises(ValueError, match="^not a flo file: header too short$"):
            read_flo(data)

    @pytest.mark.parametrize("u_shape, v_shape", [
        ((3,), (3,)), ((2, 2, 1), (2, 2, 1)), ((2, 3), (3, 2)), ((2, 3), (2, 3, 1)),
    ])
    def test_components_not_2d_or_of_unequal_shape_refused(self, u_shape, v_shape):
        u, v = np.zeros(u_shape, np.float32), np.zeros(v_shape, np.float32)
        with pytest.raises(ValueError, match="^u and v must be 2-D arrays of equal shape$"):
            FlowField(u, v)

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

    def test_shape_is_height_then_width(self):
        flow = FlowField(np.zeros((2, 3), np.float32), np.ones((2, 3), np.float32))
        assert flow.shape == (2, 3)
        assert struct.unpack("<fii", write_flo(flow)[:12]) == (FLO_SENTINEL, 3, 2)
        assert read_flo(write_flo(flow)).shape == (2, 3)
        assert not hasattr(flow, "height") and not hasattr(flow, "width")

    def test_random_round_trips(self, rng):
        for _ in range(50):
            h, w = rng.integers(1, 12, size=2)
            u = rng.normal(scale=10, size=(h, w)).astype(np.float32)
            v = rng.normal(scale=10, size=(h, w)).astype(np.float32)
            flow = FlowField(u, v)
            decoded = read_flo(write_flo(flow))
            assert decoded.u.tobytes() == u.tobytes()
            assert decoded.v.tobytes() == v.tobytes()


# the readers of 8-bit PGM files, which share one header and payload check
_PGM_READERS = (read_mask_pgm, read_saliency_pgm)


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
        for read in _PGM_READERS:
            with pytest.raises(ValueError, match="maxval"):
                read(b"P5\n1 1\n65535\n\x00\x00")

    @pytest.mark.parametrize("maxval", [1, 100, 254])
    def test_maxval_other_than_255_rejected(self, maxval):
        for read in _PGM_READERS:
            with pytest.raises(ValueError, match="maxval"):
                read(f"P5\n1 1\n{maxval}\n".encode() + b"\x00")

    def test_mask_with_maxval_one_rejected(self):
        # read at maxval 255, these 1s would all binarize to background
        with pytest.raises(ValueError, match="maxval"):
            read_mask_pgm(b"P5\n3 1\n1\n\x00\x01\x01")

    def test_saliency_with_maxval_100_rejected(self):
        # read at maxval 255, 100 would mean 100/255 instead of 1
        with pytest.raises(ValueError, match="maxval"):
            read_saliency_pgm(b"P5\n1 1\n100\n\x64")

    def test_wrong_magic(self):
        for read in _PGM_READERS:
            with pytest.raises(ValueError, match="magic"):
                read(b"P6\n1 1\n255\n\x00")

    def test_truncated_payload(self):
        for read in _PGM_READERS:
            with pytest.raises(ValueError, match="truncated"):
                read(b"P5\n2 2\n255\n\x00\x00\x00")

    def test_excess_payload(self):
        for read in _PGM_READERS:
            with pytest.raises(ValueError, match="longer"):
                read(b"P5\n1 1\n255\n\x00\x00")

    def test_binarization_threshold(self):
        data = b"P5\n3 1\n255\n" + bytes([127, 128, 0])
        assert read_mask_pgm(data).tolist() == [[0, 1, 0]]

    def test_mask_of_every_level_is_a_writable_uint8_array(self):
        levels = np.arange(256, dtype=np.uint8).reshape(16, 16)
        mask = read_mask_pgm(write_pgm(levels))
        assert mask.dtype == bool and mask.shape == (16, 16)
        assert mask.tobytes() == (levels > 127).astype(np.uint8).tobytes()
        mask[0, 0] = 1  # a fresh array, not a view of the file's bytes

    def test_mask_writer_rejects_other_values(self):
        with pytest.raises(ValueError, match="0 or 1"):
            write_mask_pgm(np.array([[2]]))

    @pytest.mark.parametrize("name, mask", mask_dtype_matrix())
    def test_mask_writer_accepts_what_isin_accepts(self, name, mask):
        for m in (mask, mask.T, np.tile(mask, (3, 5))[1::2, ::3]):  # and strided views
            if m.size == 0:
                with pytest.raises(ValueError, match="non-empty"):
                    write_mask_pgm(m)
            elif np.isin(m, (0, 1)).all():
                header = f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode()
                payload = bytes(255 * int(v != 0) for v in m.ravel())
                encoded = write_mask_pgm(m)
                assert type(encoded) is bytes and encoded == header + payload
            else:
                with pytest.raises(ValueError, match="0 or 1"):
                    write_mask_pgm(m)

    def test_mask_of_another_dtype_checked_value_by_value(self):
        # object and complex arrays take check_levels' element-wise branch
        encoded = write_mask_pgm(np.array([[0, 1]], dtype=object))
        assert encoded == b"P5\n2 1\n255\n\x00\xff"
        for mask in (np.array([[0, 2]], dtype=object), np.array([[0, 1j]])):
            with pytest.raises(ValueError, match="^mask values must be 0 or 1$"):
                write_mask_pgm(mask)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.1, 1.5])
    def test_saliency_writer_refuses_values_outside_the_unit_interval(self, value):
        with pytest.raises(ValueError, match=re.escape("saliency values must lie in [0, 1]")):
            write_saliency_pgm(np.array([[0.0, value]]))

    def test_saliency_quantization_round_trip(self, rng):
        field = rng.integers(0, 256, size=(4, 6)) / 255.0
        encoded = write_saliency_pgm(field)
        assert np.array_equal(read_saliency_pgm(encoded), field)

    def test_gray_round_trip(self, rng):
        gray = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
        encoded = write_pgm(gray)
        assert np.array_equal(read_saliency_pgm(encoded), gray / 255.0)
        assert write_saliency_pgm(read_saliency_pgm(encoded)) == encoded


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

    @pytest.mark.parametrize("maxval", [1, 100, 254])
    def test_maxval_other_than_255_rejected(self, maxval):
        with pytest.raises(ValueError, match="maxval"):
            read_ppm(f"P6\n1 1\n{maxval}\n".encode() + b"\x00\x00\x00")


# (reader, the writer's encoding of a 2x3 raster) for each netpbm reader
_NETPBM = {
    "mask": (read_mask_pgm, write_mask_pgm(np.array([[0, 1, 1], [1, 0, 1]]))),
    "saliency": (read_saliency_pgm, write_pgm(np.arange(6, dtype=np.uint8).reshape(2, 3) * 40)),
    "pgm16": (read_pgm16, write_pgm16(np.arange(6).reshape(2, 3) * 9000)),
    "ppm": (read_ppm, write_ppm(np.arange(18, dtype=np.uint8).reshape(2, 3, 3) * 13)),
}


def _with_header(encoded: bytes, header: str) -> bytes:
    """The raster of a writer's ``encoded`` file after ``header``, given its magic and maxval."""
    magic, _, maxval, raster = encoded.split(b"\n", 3)  # the writer's header is "M\nW H\nV\n"
    return header.format(magic=magic.decode(), maxval=maxval.decode()).encode("latin-1") + raster


class TestPnmHeaderGrammar:
    """One header grammar: magic, then width, height and maxval after separators, then one byte.

    A separator is a space, tab, CR or LF byte, or a comment from "#" through
    the end of its line.
    """

    ACCEPTED = {
        "gimp": "{magic}\n# CREATOR: GIMP PNM Filter Version 1.1\n3 2\n{maxval}\n",
        "before-width": "{magic}\n# before the width\n3 2 {maxval}\n",
        "before-height": "{magic} 3\n# before the height\n2 {maxval}\n",
        "before-maxval": "{magic} 3 2\n# before the maxval\n{maxval}\n",
        "glued-comments": "{magic}#a\n#b\n3#c\n2#d\n{maxval}\t",
        "crlf": "{magic}\r\n# written with CRLF line ends\r\n3 2\r\n{maxval}\r",
        "number-in-comment": "{magic} 3 2 # 255 is no maxval inside a comment\n{maxval}\n",
        "odd-bytes": "{magic}\n#\n# ## \x80\xff #\n3 2\n{maxval}\n",
        "long-comment": "{magic}\n# " + "x" * 300 + "\n3 2\n{maxval}\n",
        "long-whitespace": "{magic}" + " " * 200 + "003 2\t\r\n{maxval}\n",
    }

    @pytest.mark.parametrize("header", ACCEPTED.values(), ids=ACCEPTED)
    @pytest.mark.parametrize("kind", sorted(_NETPBM))
    def test_header_read_as_the_writers_one(self, kind, header):
        read, encoded = _NETPBM[kind]
        got = read(_with_header(encoded, header))
        expected = read(encoded)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    @pytest.mark.parametrize("kind", sorted(_NETPBM))
    def test_number_glued_to_the_magic_refused(self, kind):
        read, encoded = _NETPBM[kind]
        with pytest.raises(ValueError, match="^malformed netpbm header$"):
            read(_with_header(encoded, "{magic}3 2 {maxval}\n"))

    def test_exactly_one_whitespace_byte_before_the_raster(self):
        # the second LF is the first sample, 10
        assert read_pgm16(b"P5 1 1 65535\n\n\x00").tolist() == [[10 << 8]]
        assert read_saliency_pgm(b"P5 1 1 255\r\n").tolist() == [[10 / 255]]

    @pytest.mark.parametrize("header, message", [
        ("{magic}", "malformed netpbm header"),
        ("{magic}\n", "malformed netpbm header"),
        ("{magic}\n3 2\n", "malformed netpbm header"),
        ("{magic}\n3 2\n{maxval}", "malformed netpbm header"),
        ("{magic}\n3 x {maxval}\n", "malformed netpbm header"),
        ("{magic}\n-3 2 {maxval}\n", "malformed netpbm header"),
        ("{magic}\n+3 2 {maxval}\n", "malformed netpbm header"),
        ("{magic} 3 2 {maxval}x", "malformed netpbm header"),
        ("{magic} 3 2 {maxval}#c\n", "malformed netpbm header"),
        ("{magic}\f3 2 {maxval}\n", "malformed netpbm header"),
        ("{magic}\n# a comment that never ends 3 2 {maxval}\n", "malformed netpbm header"),
        ("{magic}\n0 2\n{maxval}\n", "non-positive dimensions 0x2"),
        ("{magic} 3 0 {maxval}\n", "non-positive dimensions 3x0"),
    ], ids=["empty", "no-width", "no-maxval", "no-raster-byte", "letter", "minus", "plus",
            "letter-after-maxval", "comment-after-maxval", "form-feed", "unended-comment",
            "zero-width", "zero-height"])
    @pytest.mark.parametrize("kind", sorted(_NETPBM))
    def test_malformed_header_messages(self, kind, header, message):
        read, encoded = _NETPBM[kind]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read(_with_header(encoded, header))

    @pytest.mark.parametrize("kind", sorted(_NETPBM))
    def test_bad_magic_message(self, kind):
        read, encoded = _NETPBM[kind]
        for other in ("P2", "P3", "p5", "P", ""):
            expected = f"^bad magic: expected {encoded[:2].decode()} header$"
            with pytest.raises(ValueError, match=expected):
                read(_with_header(encoded, other + "\n3 2\n{maxval}\n"))

    @pytest.mark.parametrize("header", ACCEPTED.values(), ids=ACCEPTED)
    def test_mask_directory_opened_with_the_same_grammar(self, tmp_path, header):
        d = tmp_path / "m"
        d.mkdir()
        encoded = _NETPBM["mask"][1]
        (d / "00000.pgm").write_bytes(_with_header(encoded, header))
        (d / "00001.pgm").write_bytes(encoded)
        masks = read_mask_dir(d)
        assert masks.shape == (2, 3)
        assert np.array_equal(masks[0], masks[1])

    @pytest.mark.parametrize("header", ACCEPTED.values(), ids=ACCEPTED)
    def test_video_opened_with_the_same_grammar(self, tmp_path, header):
        scene = moving_block(height=2, width=3, block=(slice(0, 1), slice(1, 2)), num_frames=2)
        root = write(tmp_path / "vid", replace(scene, flows=()))
        for name in ("frames/00000.ppm", "saliency/00000.pgm"):
            path = root / name
            path.write_bytes(_with_header(path.read_bytes(), header))
        seq = open_sequence(root)
        assert seq.frames.shape == seq.saliencies.shape == (2, 3)
        assert np.array_equal(seq.frame(0), scene.frames[0])
        assert np.array_equal(seq.saliency(0), seq.saliency(1))

    @pytest.mark.parametrize("header, message", [
        ("{magic}3 2 {maxval}\n", "malformed netpbm header"),
        ("{magic}\n# " + "x" * 300 + "\n0 2\n{maxval}\n", "non-positive dimensions 0x2"),
        ("P3 3 2 {maxval}\n", "bad magic: expected P5 header"),
    ], ids=["glued-to-magic", "zero-width-after-long-comment", "bad-magic"])
    def test_first_header_refused_at_open_with_the_decoders_message(self, tmp_path, header,
                                                                    message):
        d = tmp_path / "m"
        d.mkdir()
        (d / "00000.pgm").write_bytes(_with_header(_NETPBM["mask"][1], header))
        with pytest.raises(ValueError, match=f"^{re.escape(str(d / '00000.pgm'))}: {message}$"):
            read_mask_dir(d)


_WRITERS = {
    "pgm": (write_pgm, (2, 3), 255, np.uint8),
    "ppm": (write_ppm, (2, 3, 3), 255, np.uint8),
    "pgm16": (write_pgm16, (2, 3), 65535, ">u2"),
}


class TestWriterValues:
    """The netpbm writers store exactly the integers 0..maxval and refuse anything else."""

    @pytest.mark.parametrize("kind", _WRITERS)
    @pytest.mark.parametrize(
        "value",
        [0.5, 1.5, 3.9, 127.7, "top-0.5", "top+1", -1.0, -0.5, np.nan, np.inf, -np.inf],
    )
    def test_non_integer_or_out_of_range_float_rejected(self, kind, value):
        writer, shape, top, _ = _WRITERS[kind]
        if isinstance(value, str):
            value = top + float(value.removeprefix("top"))
        data = np.zeros(shape)
        data.flat[1] = value
        with pytest.raises(ValueError, match=f" 0\\.\\.{top}"):
            writer(data)

    @pytest.mark.parametrize("kind", _WRITERS)
    @pytest.mark.parametrize("dtype, above", [(np.int64, False), (np.int8, False),
                                              (np.int64, True), (np.uint32, True)])
    def test_out_of_range_integers_rejected(self, kind, dtype, above):
        writer, shape, top, _ = _WRITERS[kind]
        data = np.zeros(shape, dtype)
        data.flat[1] = top + 1 if above else -1
        with pytest.raises(ValueError, match=f" 0\\.\\.{top}"):
            writer(data)

    @pytest.mark.parametrize("kind", _WRITERS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.int16, np.uint8,
                                       np.uint16, np.uint64, bool])
    def test_integer_values_of_any_dtype_accepted(self, kind, rng, dtype):
        writer, shape, top, stored = _WRITERS[kind]
        if np.dtype(dtype).kind in "iu":
            top = min(top, np.iinfo(dtype).max)
        values = rng.integers(0, top + 1, size=shape)
        values.flat[1] = top
        data = values.astype(dtype)
        expected = data.astype(np.int64)
        if np.dtype(dtype).kind == "f":
            data.flat[0] = -0.0
            expected.flat[0] = 0
        encoded = writer(data)
        assert encoded.endswith(expected.astype(stored).tobytes())
        assert encoded == writer(expected)


    @pytest.mark.parametrize("kind", _WRITERS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.int16, np.int8,
                                       np.uint8, np.uint16, np.uint64, bool])
    def test_bytes_are_the_header_then_the_stored_values(self, kind, rng, dtype):
        writer, shape, top, stored = _WRITERS[kind]
        if np.dtype(dtype).kind in "iu":
            top = min(top, np.iinfo(dtype).max)
        data = rng.integers(0, top + 1, size=shape).astype(dtype)
        magic = "P6" if len(shape) == 3 else "P5"
        header = f"{magic}\n{shape[1]} {shape[0]}\n{np.iinfo(stored).max}\n".encode()
        assert writer(data) == header + data.astype(stored).tobytes()


def _mask_readers():
    """Every stage's call that reads a mask, as a function of a (2, 3) mask."""
    empty, weight = np.zeros((2, 3), bool), np.ones((2, 3))
    video = Scene(frames=[np.zeros((2, 3, 3), np.uint8)], label_maps=[np.zeros((2, 3), np.int64)])
    return {
        "jaccard": lambda m: metrics.jaccard(m, empty),
        "jaccard reference": lambda m: metrics.jaccard(empty, m),
        "contour_f": lambda m: metrics.contour_f(m, empty),
        "mask_boundary": metrics.mask_boundary,
        "sequence_scores": lambda m: metrics.sequence_scores([empty], [m]),
        "select_top_segments": lambda m: segment.select_top_segments(m, weight),
        "threshold_mask": lambda m: segment.threshold_mask(weight, previous_mask=m),
        "supervoxel_stats": lambda m: refine.supervoxel_stats(video, [m]),
    }


class TestMaskRule:
    """Every stage reads a mask by one rule: a 2-D array of 0s and 1s."""

    @pytest.mark.parametrize("reader", sorted(_mask_readers()))
    @pytest.mark.parametrize("value, dtype", [(0.5, np.float64), (2, np.int64),
                                              (255, np.uint8), (np.nan, np.float64)])
    def test_every_stage_refuses_other_values(self, reader, value, dtype):
        mask = np.zeros((2, 3), dtype)
        mask[1, 1] = value
        with pytest.raises(ValueError, match="^mask values must be 0 or 1$"):
            _mask_readers()[reader](mask)

    @pytest.mark.parametrize("reader", sorted(_mask_readers()))
    def test_every_stage_takes_any_dtype_of_0_and_1(self, reader):
        base = np.array([[0, 1, 1], [0, 1, 0]])
        read = _mask_readers()[reader]
        expected = read(base.astype(bool))
        for dtype in (np.uint8, np.int8, np.int64, np.float32, np.float64):
            got = read(base.astype(dtype))
            assert repr(got) == repr(expected)


class TestOpenSequence:
    BLOCK = {"height": 8, "width": 9, "block": (slice(2, 5), slice(3, 6))}

    @pytest.fixture
    def root(self, tmp_path):
        """The video of a 3-frame moving block, with 2 flows."""
        return write(tmp_path / "vid", moving_block(**self.BLOCK, num_frames=3))

    def test_last_frame_reuses_final_flow(self, tmp_path):
        seq = open_sequence(write(tmp_path / "vid", moving_block(**self.BLOCK, num_frames=10)))
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
        root = write(tmp_path / "vid", moving_block(**self.BLOCK, num_frames=4))
        (root / "frames" / "00002.ppm").rename(root / "frames" / "00009.ppm")
        with pytest.raises(ValueError, match="gap at index 2"):
            open_sequence(root)

    def test_dimension_mismatch_names_file(self, root):
        odd = np.zeros((4, 4, 3), dtype=np.uint8)
        path = root / "frames" / "00001.ppm"
        path.write_bytes(write_ppm(odd))
        seq = open_sequence(root)  # only the first header of each directory is read
        with pytest.raises(ValueError, match=re.escape(f"{path}: dimensions 4x4")):
            seq.frame(1)

    def test_corrupt_header_named_when_decoded(self, root):
        path = root / "frames" / "00002.ppm"
        path.write_bytes(b"P3" + path.read_bytes()[2:])
        seq = open_sequence(root)
        seq.frame(1)
        with pytest.raises(ValueError, match=re.escape(f"{path}: bad magic")):
            seq.frame(2)

    @pytest.mark.parametrize("subdir, name, count", [("saliency", "00000.pgm", 3),
                                                     ("flow", "00000.flo", 2)])
    def test_first_file_of_another_size_refused(self, root, subdir, name, count):
        (root / subdir / name).write_bytes(encode(blank(8, 4), subdir))
        with pytest.raises(ValueError) as info:
            open_sequence(root)
        assert str(info.value) == (f"{root / subdir}: {count} files of 4x8, "
                                   f"but {root / 'frames'} holds 3 of 9x8")

    def test_masks_contribute_their_names_only(self, root):
        for name, count, shape in (("alpha", 3, (8, 9)), ("beta", 2, (4, 4))):
            write_masks(root / "masks" / name, [np.zeros(shape, dtype=bool)] * count)
        (root / "masks" / "empty").mkdir()
        (root / "masks" / "notes.txt").write_text("not a method")
        assert open_sequence(root).mask_methods == ("alpha", "beta", "empty")

    def test_bad_flow_count(self, tmp_path):
        scene = moving_block(**self.BLOCK, num_frames=5)
        root = write(tmp_path / "vid", replace(scene, flows=scene.flows[:2]))
        with pytest.raises(ValueError, match="flow"):
            open_sequence(root)

    def test_count_in_the_error_is_the_files_on_disk(self, root):
        (root / "saliency" / "00002.pgm").unlink()
        with pytest.raises(ValueError, match=re.escape(
                f"{root / 'saliency'}: 2 files of 9x8, but {root / 'frames'} holds 3 of 9x8")):
            open_sequence(root)

    def test_mask_methods_discovered(self, tmp_path):
        scene = moving_block(height=6, width=6, block=(slice(1, 3), slice(1, 3)), num_frames=3)
        root = write(tmp_path / "vid", Scene(frames=scene.frames,
                                             masks={"beta": scene.truth, "alpha": scene.truth}))
        seq = open_sequence(root)
        assert seq.mask_methods == ("alpha", "beta")
        assert read_mask_dir(root / "masks" / "alpha")[1].tolist() == scene.truth[1].tolist()

    def test_accessors_validate_index_and_presence(self, root):
        seq = open_sequence(root)
        with pytest.raises(IndexError):
            seq.frame(3)
        with pytest.raises(ValueError, match="label"):
            seq.labels(0)

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(ValueError, match="not a directory"):
            open_sequence(tmp_path / "missing")


class TestAccessorsRecheckFiles:
    """A raster rewritten after open_sequence fails its accessor, naming the file."""

    FILES = {
        "frame": ("frames/00001.ppm", lambda seq: seq.frame(1)),
        "flow": ("flow/00001.flo", lambda seq: seq.flow(1)),
        "saliency": ("saliency/00001.pgm", lambda seq: seq.saliency(1)),
        "labels": ("svx/00001.pgm16", lambda seq: seq.labels(1)),
    }

    def _open(self, tmp_path):
        scene = moving_block(num_frames=3)  # 30 x 40
        root = write(tmp_path / "vid", replace(scene, label_maps=scene.truth,
                                               masks={"alpha": scene.truth}))
        return root, open_sequence(root)

    @pytest.mark.parametrize("kind", sorted(FILES))
    @pytest.mark.parametrize("shape", [(30, 1), (1, 40)])
    def test_resized_file_named(self, tmp_path, kind, shape):
        root, seq = self._open(tmp_path)
        relative, read = self.FILES[kind]
        path = root / relative
        read(seq)  # the untouched file reads fine
        path.write_bytes(encode(blank(*shape), path.parent.name))
        expected = f"{path}: dimensions {shape[1]}x{shape[0]} do not match sequence 40x30"
        with pytest.raises(ValueError, match=re.escape(expected)):
            read(seq)

    @pytest.mark.parametrize("kind", sorted(FILES))
    @pytest.mark.parametrize("index", [-1, 3])
    def test_index_out_of_range(self, tmp_path, kind, index):
        _, seq = self._open(tmp_path)
        read = getattr(seq, kind)
        with pytest.raises(IndexError, match=f"frame index {index} out of range 0..2"):
            read(index)

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

    @staticmethod
    def _write(d, count, shape=(2, 3)):
        d.mkdir(exist_ok=True)
        for i in range(count):
            mask = np.zeros(shape, dtype=np.uint8)
            mask.flat[i % mask.size] = 1
            (d / f"{i:05d}.pgm").write_bytes(write_mask_pgm(mask))

    def test_len_indexing_and_size_from_the_header(self, tmp_path):
        self._write(tmp_path / "m", 4)
        masks = read_mask_dir(tmp_path / "m")
        assert len(masks) == 4 and masks.shape == (2, 3)
        assert [int(np.flatnonzero(masks[i])[0]) for i in range(4)] == [0, 1, 2, 3]
        assert np.array_equal(masks[-1], masks[3])
        assert [m.tolist() for m in masks] == [masks[i].tolist() for i in range(4)]
        with pytest.raises(IndexError):
            masks[4]

    def test_nothing_decoded_until_accessed(self, tmp_path, monkeypatch):
        self._write(tmp_path / "m", 3)
        decoded, real = [], io.read_mask_pgm
        monkeypatch.setattr(io, "read_mask_pgm", lambda data: decoded.append(1) or real(data))
        masks = read_mask_dir(tmp_path / "m")
        assert decoded == []
        masks[2]
        assert decoded == [1]
        for _ in masks:
            pass
        assert decoded == [1] * 4

    def test_index_names_are_ascii_digits(self, tmp_path):
        self._write(tmp_path / "m", 2)
        (tmp_path / "m" / "00001.pgm").rename(tmp_path / "m" / "\u0660\u0660\u0660\u0660\u0661.pgm")
        assert len(read_mask_dir(tmp_path / "m")) == 1

    def test_six_digit_index_is_read(self, tmp_path):
        # 100000.pgm is the name the CLI writes for frame 100000, so it is no stray file
        self._write(tmp_path / "m", 1)
        (tmp_path / "m" / "00000.pgm").rename(tmp_path / "m" / "100000.pgm")
        self._write(tmp_path / "m", 1)
        with pytest.raises(ValueError, match="gap at index 1"):
            read_mask_dir(tmp_path / "m")

    def test_file_rewritten_with_another_size_named_on_access(self, tmp_path):
        self._write(tmp_path / "m", 3)
        masks = read_mask_dir(tmp_path / "m")
        path = tmp_path / "m" / "00001.pgm"
        path.write_bytes(write_mask_pgm(np.zeros((3, 2), dtype=np.uint8)))
        assert masks[0].shape == masks[2].shape == (2, 3)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: dimensions 2x3 do not match sequence 3x2")):
            masks[1]


class TestMaskDirs:
    """``_mask_dirs`` is the one listing of a tree of mask directories."""

    def test_subdirectories_sorted_by_name(self, tmp_path):
        names = [f"{letter}{i}" for i in range(10) for letter in "ba"]
        for name in names:
            (tmp_path / name).mkdir()
        (tmp_path / "00000.pgm").write_bytes(b"")
        assert io._mask_dirs(tmp_path, "methods") == [tmp_path / n for n in sorted(names)]

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_root_that_is_no_directory_refused(self, tmp_path, kind):
        root = tmp_path / "root"
        if kind == "file":
            root.write_bytes(b"")
        with pytest.raises(ValueError, match=f"^{re.escape(f'not a directory: {root}')}$"):
            io._mask_dirs(root, "methods")

    def test_root_without_subdirectories_refused(self, tmp_path):
        (tmp_path / "00000.pgm").write_bytes(b"")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{tmp_path}: no methods')}$"):
            io._mask_dirs(tmp_path, "methods")


class TestIndexNames:
    @pytest.mark.parametrize("index", [0, 7, 99999, 100000, 1234567])
    def test_every_name_written_reads_back(self, index):
        name = io._indexed_name(index, "pgm")
        assert name == f"{index:05d}.pgm"
        assert io._name_index(name, "pgm") == index
        assert io._name_index(name, "ppm") is None

    @pytest.mark.parametrize("name", [
        "0001.pgm", "012345.pgm", "0100000.pgm", "00001.pgm16", "00001.pgm.bak", "00001.pgm\n",
        "x00001.pgm", "\u0660" * 5 + ".pgm",
    ])
    def test_other_names_are_no_index(self, name):
        assert io._name_index(name, "pgm") is None
