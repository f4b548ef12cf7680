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

Every directory of %05d.pgm masks, a method's under ``<video>/masks`` or
a sequence's ground truth, is read by :func:`read_mask_dir`. It reads the
names and the first file's header only; each mask is decoded, and its size
checked, when it is accessed. One check here decides from these indexes
whether a set of mask directories agrees on mask count and size.

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
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FLO_SENTINEL = 202021.25  # float32 spelling of the ASCII tag "PIEH"

_INDEXED_NAME = re.compile(r"^(\d{5})\.([a-z0-9]+)$")


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


def read_pgm(data: bytes) -> np.ndarray:
    """Decode an 8-bit binary PGM into a (height, width) uint8 array."""
    return _pnm_payload(data, b"P5").copy()


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


def _scan_indexed(directory: Path, extension: str) -> list[Path]:
    """Collect %05d.<extension> files, enforcing a contiguous 0-based range."""
    if not directory.is_dir():
        return []
    found: dict[int, Path] = {}
    for path in directory.iterdir():
        match = _INDEXED_NAME.match(path.name)
        if match and match.group(2) == extension:
            found[int(match.group(1))] = path
    if not found:
        return []
    top = max(found)
    for i in range(top + 1):
        if i not in found:
            raise ValueError(f"{directory}: gap at index {i}")
    return [found[i] for i in range(top + 1)]


def _peek_dims(path: Path) -> tuple[int, int]:
    """Read just enough of a raster file to learn its (width, height)."""
    with path.open("rb") as fh:
        head = fh.read(128)
    try:
        if path.suffix == ".flo":
            return _parse_flo_header(head)
        magic = b"P6" if path.suffix == ".ppm" else b"P5"
        width, height, _, _ = _parse_pnm_header(head, magic)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return width, height


def _read_raster(path: Path, decode, shape: tuple[int, int], owner: str):
    """Decode one raster file and check that it is ``shape`` (height, width).

    A file that fails to decode or has another size raises ``ValueError``
    naming it; ``owner`` names what the size belongs to.
    """
    try:
        raster = decode(path.read_bytes())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    found = raster.u.shape if isinstance(raster, FlowField) else raster.shape[:2]
    if found != shape:
        raise ValueError(
            f"{path}: dimensions {found[1]}x{found[0]} do not match "
            f"{owner} {shape[1]}x{shape[0]}"
        )
    return raster


@dataclass(frozen=True)
class FrameSequence:
    """Immutable index of one video's on-disk rasters.

    Raster accessors read and decode files on demand. :func:`open_sequence`
    checks contiguous indices and uniform dimensions once; a file that was
    rewritten after that still fails its accessor with a ``ValueError``
    naming the file, when it no longer decodes or no longer has the
    sequence's (height, width). Callers can therefore rely on every raster
    an accessor returns having that shape.
    """

    root: Path
    name: str
    num_frames: int
    width: int
    height: int
    flow_count: int
    has_saliency: bool
    has_labels: bool
    mask_methods: tuple[str, ...]

    @property
    def has_flow(self) -> bool:
        return self.flow_count > 0

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.num_frames:
            raise IndexError(f"frame index {index} out of range 0..{self.num_frames - 1}")

    def _read(self, decode, relative: str):
        return _read_raster(self.root / relative, decode, (self.height, self.width), "sequence")

    def frame(self, index: int) -> np.ndarray:
        self._check_index(index)
        return self._read(read_ppm, f"frames/{index:05d}.ppm")

    def flow(self, index: int) -> FlowField:
        self._check_index(index)
        if not self.has_flow:
            raise ValueError(f"sequence '{self.name}' has no flow rasters")
        use = min(index, self.flow_count - 1)  # last frame reuses the final forward flow
        return self._read(read_flo, f"flow/{use:05d}.flo")

    def saliency(self, index: int) -> np.ndarray:
        self._check_index(index)
        if not self.has_saliency:
            raise ValueError(f"sequence '{self.name}' has no saliency rasters")
        return self._read(read_saliency_pgm, f"saliency/{index:05d}.pgm")

    def labels(self, index: int) -> np.ndarray:
        self._check_index(index)
        if not self.has_labels:
            raise ValueError(f"sequence '{self.name}' has no supervoxel label rasters")
        return self._read(read_pgm16, f"svx/{index:05d}.pgm16")


def open_sequence(root) -> FrameSequence:
    """Validate a video directory and return its sequence index.

    Checks contiguous frame indices in every raster directory, consistent
    per-directory frame counts, and uniform raster dimensions; the mask
    methods must agree with each other, then with the video.
    """
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"not a directory: {root}")
    frames = _scan_indexed(root / "frames", "ppm")
    if not frames:
        raise ValueError(f"{root}: no frames found under frames/")
    num_frames = len(frames)
    width, height = _peek_dims(frames[0])

    def check_dims(paths) -> None:
        for path in paths:
            w, h = _peek_dims(path)
            if (w, h) != (width, height):
                raise ValueError(
                    f"{path}: dimensions {w}x{h} do not match sequence {width}x{height}"
                )

    check_dims(frames[1:])

    flow_files = _scan_indexed(root / "flow", "flo")
    if flow_files and len(flow_files) not in (num_frames, num_frames - 1):
        raise ValueError(
            f"{root}: flow holds {len(flow_files)} files for {num_frames} frames "
            f"(expected {num_frames} or {num_frames - 1})"
        )
    check_dims(flow_files)

    def check_count(paths, subdir: str) -> None:
        if paths and len(paths) != num_frames:
            raise ValueError(
                f"{root}: {subdir} holds {len(paths)} files for {num_frames} frames"
            )

    saliency_files = _scan_indexed(root / "saliency", "pgm")
    check_count(saliency_files, "saliency")
    check_dims(saliency_files)

    label_files = _scan_indexed(root / "svx", "pgm16")
    check_count(label_files, "svx")
    check_dims(label_files)

    method_dirs = []
    if (root / "masks").is_dir():
        method_dirs = sorted(d for d in (root / "masks").iterdir() if d.is_dir())
    if method_dirs:
        per_method = [read_mask_dir(d) for d in method_dirs]
        _check_same_extent(per_method)
        check_count(per_method[0].paths, f"masks/{method_dirs[0].name}")
        check_dims(per_method[0].paths[:1])

    return FrameSequence(
        root=root,
        name=root.name,
        num_frames=num_frames,
        width=width,
        height=height,
        flow_count=len(flow_files),
        has_saliency=bool(saliency_files),
        has_labels=bool(label_files),
        mask_methods=tuple(d.name for d in method_dirs),
    )


@dataclass(frozen=True)
class MaskSequence(Sequence):
    """The %05d.pgm masks of one directory: a read-only sequence decoded on access.

    ``len``, indexing and iteration follow the file indices. Nothing is kept:
    each access reads and decodes its file, so iterating once holds one mask
    at a time. Every mask returned has ``shape``, the (height, width) in the
    first file's header; a file that fails to decode or has another size
    raises ``ValueError`` on access, naming the file.
    """

    paths: tuple[Path, ...]
    shape: tuple[int, int]

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, index) -> np.ndarray:
        path = self.paths[operator.index(index)]
        return _read_raster(path, read_mask_pgm, self.shape, "directory")


def read_mask_dir(directory) -> MaskSequence:
    """Index a directory of %05d.pgm masks, decoding none of them.

    The contiguous file names and their count come from a scan of the
    directory, the size from the first file's header; each mask is decoded
    when it is accessed (see :class:`MaskSequence`).
    """
    directory = Path(directory)
    paths = _scan_indexed(directory, "pgm")
    if not paths:
        raise ValueError(f"{directory}: no masks found")
    width, height = _peek_dims(paths[0])
    return MaskSequence(tuple(paths), (height, width))


def _check_same_extent(sequences) -> None:
    """Refuse the first mask sequence whose length or size differs from the first's, naming both."""
    first = sequences[0]
    for masks in sequences[1:]:
        if (len(masks), masks.shape) != (len(first), first.shape):
            (h, w), (fh, fw) = masks.shape, first.shape
            raise ValueError(f"{masks.paths[0].parent}: {len(masks)} masks of {w}x{h}, "
                             f"but {first.paths[0].parent} holds {len(first)} of {fw}x{fh}")
