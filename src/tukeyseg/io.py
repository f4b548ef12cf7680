"""Bit-exact raster codecs and the on-disk frame-sequence layout.

Formats
-------
``.flo``
    Little-endian optical flow: float32 sentinel 202021.25, int32 width,
    int32 height, then height*width interleaved (u, v) float32 pairs in
    row-major order.
``.pgm``
    Binary (P5) 8-bit grayscale, maxval 255 only. Masks are stored as
    {0, 255} and binarized at byte value 127 on read; saliency maps use
    the full 0..255 range mapped to [0, 1] by /255.
``.pgm16``
    Binary (P5) 16-bit grayscale, maxval 65535, most significant byte
    first. Used for supervoxel label maps.
``.ppm``
    Binary (P6) 24-bit RGB, maxval 255 only.

Directory layout
----------------
A video directory binds per-frame rasters by a zero-based index::

    <video>/frames/%05d.ppm          RGB frames (required)
    <video>/flow/%05d.flo            forward flow, frame i -> i+1
    <video>/saliency/%05d.pgm        visual saliency maps
    <video>/svx/%05d.pgm16           supervoxel label maps
    <video>/masks/<method>/%05d.pgm  binary masks, one dir per method

The flow directory may hold T-1 files; the last frame then reuses the
final flow file. All rasters of a video must share one (width, height).

Every directory of indexed rasters is one :class:`RasterSequence`, built
from the file names and the first file's header only; each file is
decoded, and its size checked, when it is accessed. A :class:`FrameSequence`
holds one per raster directory of a video, and :func:`read_mask_dir`
returns one for a directory of masks, a method's or a sequence's ground
truth. One check here decides from these indexes whether a set of
directories agrees on file count and size. ``<video>/masks`` contributes
the names of its method directories only: nothing under them is read
until a mask directory is itself read.

Values
------
Every netpbm writer stores exactly the integers 0..maxval and raises
``ValueError`` for any other value; masks must hold 0 or 1.
:func:`check_levels` is the one such check, also for the masks that
:mod:`tukeyseg.fusion` is given, and it follows the dtype so that integer
and bool arrays need at most a ``min`` and a ``max``.

A mask is a 2-D bool array from :func:`read_mask_pgm` to
:func:`write_mask_pgm`: every stage returns its masks as bool and reads a
bool mask as it is, without a copy. Fusion and the metrics cut their work
to the masks' bounding box from one helper here.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FLO_SENTINEL = 202021.25  # float32 spelling of the ASCII tag "PIEH"


def _indexed_name(index: int, extension: str) -> str:
    """The file name of raster ``index``: ``%05d.<extension>``."""
    return f"{index:05d}.{extension}"


def _name_index(name: str, extension: str) -> int | None:
    """The index that :func:`_indexed_name` encodes in ``name``; ``None`` for any other name.

    Five ASCII digits, or more without a leading zero, as ``%05d`` writes them.
    """
    match = re.fullmatch(r"([0-9]{5}|[1-9][0-9]{5,})\." + re.escape(extension), name)
    return int(match[1]) if match else None


# --- optical flow (.flo) ---


@dataclass(frozen=True)
class FlowField:
    """Per-pixel (u, v) displacement raster for one frame pair."""

    u: np.ndarray  # (height, width) float32, x displacement in pixels
    v: np.ndarray  # (height, width) float32, y displacement in pixels

    def __post_init__(self):
        if self.u.ndim != 2 or self.u.shape != self.v.shape:
            raise ValueError("u and v must be 2-D arrays of equal shape")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise ValueError("non-finite flow values")

    @property
    def height(self) -> int:
        return self.u.shape[0]

    @property
    def width(self) -> int:
        return self.u.shape[1]


def _parse_flo_header(data: bytes) -> tuple[int, int]:
    """Check a .flo header (length, sentinel, positive size); returns (width, height)."""
    if len(data) < 12:
        raise ValueError("not a flo file: header too short")
    (sentinel,) = struct.unpack("<f", data[:4])
    if sentinel != FLO_SENTINEL:  # 202021.25 is exact in float32
        raise ValueError("not a flo file: bad sentinel")
    width, height = struct.unpack("<ii", data[4:12])
    if width <= 0 or height <= 0:
        raise ValueError(f"bad flow dimensions {width}x{height}")
    return width, height


def read_flo(data: bytes) -> FlowField:
    """Decode a Middlebury .flo byte string."""
    width, height = _parse_flo_header(data)
    expected = 12 + 8 * width * height
    if len(data) < expected:
        raise ValueError("truncated flow")
    if len(data) > expected:
        raise ValueError("flow payload longer than header implies")
    pairs = np.frombuffer(data, dtype="<f4", offset=12).reshape(height, width, 2)
    return FlowField(u=pairs[:, :, 0].copy(), v=pairs[:, :, 1].copy())


def write_flo(flow: FlowField) -> bytes:
    """Encode a flow field; write_flo(read_flo(x)) == x bit-exactly."""
    header = struct.pack("<fii", FLO_SENTINEL, flow.width, flow.height)
    pairs = np.stack([flow.u, flow.v], axis=-1).astype("<f4")
    return header + pairs.tobytes()


# --- netpbm (PGM / PGM16 / PPM) ---


def check_levels(values: np.ndarray, top: int, message: str) -> None:
    """Raise ``ValueError(message)`` unless every value is one of the integers 0..top.

    This is the one value check for masks (``top=1``) and for every netpbm
    writer. It follows the dtype: bool always passes, and so does an integer
    dtype whose whole range lies in 0..top; other unsigned integers need
    ``max <= top`` and signed ones also ``min >= 0``. A float array takes an
    exact range-and-integrality test, so 0.5, NaN and inf fail and -0.0
    counts as 0; any other dtype is compared with the levels one by one.
    """
    kind = values.dtype.kind
    if values.size == 0 or kind == "b":
        return
    if kind in "ui":
        ok = ((kind == "u" or values.min() >= 0)
              and (np.iinfo(values.dtype).max <= top or values.max() <= top))
    elif kind == "f":
        ok = ((values >= 0) & (values <= top) & (np.floor(values) == values)).all()
    else:
        ok = np.isin(values, np.arange(top + 1)).all()
    if not ok:
        raise ValueError(message)


def _foreground_box(masks) -> tuple[slice, ...] | None:
    """The smallest box holding every bool mask's foreground; ``None`` if there is none.

    Each axis is scanned only within the box found on the axes before it.
    """
    box = ()
    ndim = masks[0].ndim
    for axis in range(ndim):
        others = tuple(i for i in range(ndim) if i != axis)
        hits = np.flatnonzero(np.logical_or.reduce([m[box].any(axis=others) for m in masks]))
        if hits.size == 0:
            return None
        box += (slice(hits[0], hits[-1] + 1),)
    return box


def _parse_pnm_header(data: bytes, magic: bytes) -> tuple[int, int, int, int]:
    """Parse a binary netpbm header; returns (width, height, maxval, offset)."""
    if data[:2] != magic:
        raise ValueError(f"bad magic: expected {magic.decode()} header")
    pos = 2
    values = []
    for _ in range(3):
        while pos < len(data) and data[pos] in b" \t\r\n":
            pos += 1
        start = pos
        while pos < len(data) and data[pos : pos + 1].isdigit():
            pos += 1
        if pos == start:
            raise ValueError("malformed netpbm header")
        values.append(int(data[start:pos]))
    if pos >= len(data) or data[pos] not in b" \t\r\n":
        raise ValueError("malformed netpbm header")
    pos += 1
    width, height, maxval = values
    if width <= 0 or height <= 0:
        raise ValueError(f"non-positive dimensions {width}x{height}")
    return width, height, maxval, pos


def _pnm_payload(data: bytes, magic: bytes, dtype=np.uint8) -> np.ndarray:
    """A read-only (height, width) view of a ``P5`` payload, (height, width, 3) of a ``P6`` one.

    Every netpbm reader starts here. One-byte samples need maxval 255, two-byte
    ones (``dtype=">u2"``) 256..65535, and the payload the header's length.
    """
    width, height, maxval, offset = _parse_pnm_header(data, magic)
    dtype = np.dtype(dtype)
    what = "PPM" if magic == b"P6" else "PGM16" if dtype.itemsize == 2 else "PGM"
    if not (maxval == 255 if dtype.itemsize == 1 else 255 < maxval <= 65535):
        raise ValueError(f"maxval {maxval} unsupported for {what}")
    shape = (height, width, 3) if magic == b"P6" else (height, width)
    expected = math.prod(shape) * dtype.itemsize
    if len(data) - offset < expected:
        raise ValueError(f"truncated {what} payload")
    if len(data) - offset > expected:
        raise ValueError(f"{what} payload longer than header implies")
    return np.frombuffer(data, dtype=dtype, offset=offset).reshape(shape)


def _encode_pnm(values, magic: bytes, top: int, message: str, scale: int = 1) -> bytes:
    """Encode the integers 0..top, each times ``scale``, as binary netpbm: every writer's encoder.

    ``P5`` takes a 2-D array, ``P6`` a (height, width, 3) one. The maxval is
    ``top * scale``, in one byte per sample up to 255 and two big-endian
    bytes above. The values are checked by :func:`check_levels` with
    ``message``, and encoded straight into one header-plus-payload buffer.
    """
    a = np.asarray(values)
    pixel = (3,) if magic == b"P6" else ()
    if a.ndim < 2 or a.shape[2:] != pixel or a.size == 0:
        raise ValueError(f"{'PPM' if pixel else 'PGM'} data must be a non-empty "
                         f"(height, width{', 3' if pixel else ''}) array")
    check_levels(a, top, message)
    maxval = top * scale
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    header = magic + f"\n{a.shape[1]} {a.shape[0]}\n{maxval}\n".encode()
    out = bytearray(len(header) + a.size * dtype.itemsize)
    out[: len(header)] = header
    payload = np.frombuffer(out, dtype=dtype, offset=len(header)).reshape(a.shape)
    # a typed scalar: under NEP 50 a Python int 255 overflows an int8 operand
    np.multiply(a, dtype.type(scale), out=payload, casting="unsafe")
    return bytes(out)


def write_pgm(gray) -> bytes:
    """Encode a (height, width) array of 0..255 values as binary PGM."""
    return _encode_pnm(gray, b"P5", 255, "PGM values must be integers in 0..255")


def read_mask_pgm(data: bytes) -> np.ndarray:
    """Decode a PGM mask into a (height, width) bool array: bytes above 127 are set."""
    return _pnm_payload(data, b"P5") > 127


def write_mask_pgm(mask) -> bytes:
    """Encode a {0,1} mask, such as a bool array, as a {0,255} PGM."""
    return _encode_pnm(mask, b"P5", 1, "mask values must be 0 or 1", scale=255)


def read_saliency_pgm(data: bytes) -> np.ndarray:
    """Decode a PGM saliency map to float64 values in [0, 1]."""
    return _pnm_payload(data, b"P5") / 255.0


def write_saliency_pgm(field) -> bytes:
    """Quantize a [0, 1] field to 1/255 steps and encode as PGM."""
    f = np.asarray(field, dtype=np.float64)
    if np.any((f < 0) | (f > 1)) or not np.all(np.isfinite(f)):
        raise ValueError("saliency values must lie in [0, 1]")
    return write_pgm(np.rint(f * 255.0).astype(np.uint8))


def read_pgm16(data: bytes) -> np.ndarray:
    """Decode a 16-bit big-endian PGM label map into an int32 array."""
    return _pnm_payload(data, b"P5", ">u2").astype(np.int32)


def write_pgm16(ids) -> bytes:
    """Encode a label map of 0..65535 ids as 16-bit big-endian PGM."""
    return _encode_pnm(ids, b"P5", 65535, "label ids must be integers in 0..65535")


def read_ppm(data: bytes) -> np.ndarray:
    """Decode a 24-bit binary PPM into a (height, width, 3) uint8 array."""
    return _pnm_payload(data, b"P6").copy()


def write_ppm(rgb) -> bytes:
    """Encode a (height, width, 3) array of 0..255 values as binary PPM."""
    return _encode_pnm(rgb, b"P6", 255, "PPM values must be integers in 0..255")


# --- frame sequences ---


@dataclass(frozen=True)
class RasterSequence(Sequence):
    """The %05d rasters of one directory: a read-only sequence decoded on access.

    ``len``, indexing and iteration follow the file indices. Nothing is kept:
    each access reads its file and decodes it with ``decode``, so iterating
    once holds one raster at a time. Every raster returned has ``shape``, the
    (height, width) in the first file's header; a file that fails to decode
    or has another size raises ``ValueError`` on access, naming the file.
    """

    paths: tuple[Path, ...]
    shape: tuple[int, int]
    decode: Callable[[bytes], object]

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, index):
        path = self.paths[operator.index(index)]
        try:
            raster = self.decode(path.read_bytes())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        found = raster.u.shape if isinstance(raster, FlowField) else raster.shape[:2]
        if found != self.shape:
            raise ValueError(f"{path}: dimensions {found[1]}x{found[0]} do not match "
                             f"sequence {self.shape[1]}x{self.shape[0]}")
        return raster


def _index(directory: Path, extension: str, decode) -> RasterSequence:
    """Index the %05d.<extension> files of ``directory`` from their names and the first header.

    The indices must run from 0 without a gap. An absent directory, or one
    holding no such file, is an empty sequence of shape (0, 0).
    """
    found: dict[int, Path] = {}
    if directory.is_dir():
        for path in directory.iterdir():
            index = _name_index(path.name, extension)
            if index is not None:
                found[index] = path
    for i in range(len(found)):
        if i not in found:
            raise ValueError(f"{directory}: gap at index {i}")
    paths = tuple(found[i] for i in range(len(found)))
    if not paths:
        return RasterSequence(paths, (0, 0), decode)
    with paths[0].open("rb") as fh:
        head = fh.read(128)
    try:
        if extension == "flo":
            width, height = _parse_flo_header(head)
        else:
            width, height, _, _ = _parse_pnm_header(head, b"P6" if extension == "ppm" else b"P5")
    except ValueError as exc:
        raise ValueError(f"{paths[0]}: {exc}") from exc
    return RasterSequence(paths, (height, width), decode)


def read_mask_dir(directory) -> RasterSequence:
    """Index a directory of %05d.pgm masks, decoding none of them.

    The contiguous file names and their count come from a scan of the
    directory, the size from the first file's header; each mask is decoded
    by :func:`read_mask_pgm`, and its size checked, when it is accessed.
    """
    masks = _index(Path(directory), "pgm", read_mask_pgm)
    if not masks:
        raise ValueError(f"{directory}: no masks found")
    return masks


def _check_same_extent(sequences, spare: int = 0) -> None:
    """Refuse the first non-empty sequence that differs from the first one in size or length.

    A sequence may hold up to ``spare`` files fewer than the first one. The
    error names both directories and counts their files; nothing is decoded.
    """
    first = sequences[0]
    for rasters in sequences[1:]:
        if rasters and (rasters.shape != first.shape
                        or not len(first) - spare <= len(rasters) <= len(first)):
            (h, w), (fh, fw) = rasters.shape, first.shape
            raise ValueError(f"{rasters.paths[0].parent}: {len(rasters)} files of {w}x{h}, "
                             f"but {first.paths[0].parent} holds {len(first)} of {fw}x{fh}")


@dataclass(frozen=True)
class FrameSequence:
    """One video's rasters: a :class:`RasterSequence` per kind, empty where it is absent.

    Accessors take a frame index, check it and the kind's presence, and
    decode that frame's file, which checks the file's size against the
    sequence's (height, width). Callers can therefore rely on every raster
    an accessor returns having that shape, also when a file was rewritten
    after :func:`open_sequence`.
    """

    root: Path
    frames: RasterSequence
    flows: RasterSequence
    saliencies: RasterSequence
    label_maps: RasterSequence
    mask_methods: tuple[str, ...]

    @property
    def name(self) -> str:
        return self.root.name

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def flow_count(self) -> int:
        return len(self.flows)

    @property
    def has_flow(self) -> bool:
        return bool(self.flows)

    @property
    def has_saliency(self) -> bool:
        return bool(self.saliencies)

    @property
    def has_labels(self) -> bool:
        return bool(self.label_maps)

    def _read(self, rasters: RasterSequence, index: int, what: str):
        if not 0 <= index < self.num_frames:
            raise IndexError(f"frame index {index} out of range 0..{self.num_frames - 1}")
        if not rasters:
            raise ValueError(f"sequence '{self.name}' has no {what} rasters")
        return rasters[min(index, len(rasters) - 1)]  # the last frame may reuse the final flow

    def frame(self, index: int) -> np.ndarray:
        return self._read(self.frames, index, "frame")

    def flow(self, index: int) -> FlowField:
        return self._read(self.flows, index, "flow")

    def saliency(self, index: int) -> np.ndarray:
        return self._read(self.saliencies, index, "saliency")

    def labels(self, index: int) -> np.ndarray:
        return self._read(self.label_maps, index, "supervoxel label")


def open_sequence(root) -> FrameSequence:
    """Index a video directory from its file names and one header per raster directory.

    Each raster directory must hold contiguous indices, and agree with
    ``frames/`` on size and file count; ``flow/`` may hold one file fewer.
    ``masks/`` contributes the names of its subdirectories only.
    """
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"not a directory: {root}")
    frames = _index(root / "frames", "ppm", read_ppm)
    if not frames:
        raise ValueError(f"{root}: no frames found under frames/")
    flows = _index(root / "flow", "flo", read_flo)
    saliencies = _index(root / "saliency", "pgm", read_saliency_pgm)
    label_maps = _index(root / "svx", "pgm16", read_pgm16)
    _check_same_extent([frames, flows], spare=1)
    _check_same_extent([frames, saliencies, label_maps])
    masks = root / "masks"
    methods = sorted(d.name for d in masks.iterdir() if d.is_dir()) if masks.is_dir() else []
    return FrameSequence(root, frames, flows, saliencies, label_maps, tuple(methods))
