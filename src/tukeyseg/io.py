"""Bit-exact raster codecs and the on-disk frame-sequence layout.

Formats
-------
``.flo``
    Little-endian optical flow: float32 sentinel 202021.25, int32 width,
    int32 height, then height*width interleaved (u, v) float32 pairs in
    row-major order.
``.pgm``
    Binary (P5) 8-bit grayscale, maxval <= 255. Masks are stored as
    {0, 255} and binarized at byte value 127 on read; saliency maps use
    the full 0..255 range mapped to [0, 1] by /255.
``.pgm16``
    Binary (P5) 16-bit grayscale, maxval 65535, most significant byte
    first. Used for supervoxel label maps.
``.ppm``
    Binary (P6) 24-bit RGB, maxval <= 255.

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
"""

from __future__ import annotations

import re
import struct
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


def _check_payload(actual: int, expected: int, what: str) -> None:
    if actual < expected:
        raise ValueError(f"truncated {what} payload")
    if actual > expected:
        raise ValueError(f"{what} payload longer than header implies")


def read_pgm(data: bytes) -> np.ndarray:
    """Decode an 8-bit binary PGM into a (height, width) uint8 array."""
    width, height, maxval, offset = _parse_pnm_header(data, b"P5")
    if not 0 < maxval <= 255:
        raise ValueError(f"maxval {maxval} out of range for 8-bit PGM")
    _check_payload(len(data) - offset, width * height, "PGM")
    return np.frombuffer(data, dtype=np.uint8, offset=offset).reshape(height, width).copy()


def write_pgm(gray) -> bytes:
    """Encode a (height, width) array of 0..255 values as binary PGM."""
    g = np.asarray(gray)
    if g.ndim != 2:
        raise ValueError("PGM data must be 2-D")
    if g.size == 0:
        raise ValueError("PGM data must be non-empty")
    if np.any((g < 0) | (g > 255)):
        raise ValueError("PGM values must lie in 0..255")
    g = g.astype(np.uint8)
    header = f"P5\n{g.shape[1]} {g.shape[0]}\n255\n".encode()
    return header + g.tobytes()


def read_mask_pgm(data: bytes) -> np.ndarray:
    """Decode a PGM mask; bytes above 127 become 1, the rest 0."""
    return (read_pgm(data) > 127).astype(np.uint8)


def write_mask_pgm(mask) -> bytes:
    """Encode a {0,1} mask as a {0,255} PGM."""
    m = np.asarray(mask)
    if not np.isin(m, (0, 1)).all():
        raise ValueError("mask values must be 0 or 1")
    return write_pgm(m.astype(np.uint8) * 255)


def read_saliency_pgm(data: bytes) -> np.ndarray:
    """Decode a PGM saliency map to float64 values in [0, 1]."""
    return read_pgm(data).astype(np.float64) / 255.0


def write_saliency_pgm(field) -> bytes:
    """Quantize a [0, 1] field to 1/255 steps and encode as PGM."""
    f = np.asarray(field, dtype=np.float64)
    if np.any((f < 0) | (f > 1)) or not np.all(np.isfinite(f)):
        raise ValueError("saliency values must lie in [0, 1]")
    return write_pgm(np.rint(f * 255.0).astype(np.uint8))


def read_pgm16(data: bytes) -> np.ndarray:
    """Decode a 16-bit big-endian PGM label map into an int32 array."""
    width, height, maxval, offset = _parse_pnm_header(data, b"P5")
    if not 255 < maxval <= 65535:
        raise ValueError(f"maxval {maxval} out of range for 16-bit PGM")
    _check_payload(len(data) - offset, 2 * width * height, "PGM16")
    ids = np.frombuffer(data, dtype=">u2", offset=offset).reshape(height, width)
    return ids.astype(np.int32)


def write_pgm16(ids) -> bytes:
    """Encode a label map of 0..65535 ids as 16-bit big-endian PGM."""
    a = np.asarray(ids)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("label map must be a non-empty 2-D array")
    if np.any((a < 0) | (a > 65535)):
        raise ValueError("label ids must lie in 0..65535")
    header = f"P5\n{a.shape[1]} {a.shape[0]}\n65535\n".encode()
    return header + a.astype(">u2").tobytes()


def read_ppm(data: bytes) -> np.ndarray:
    """Decode a 24-bit binary PPM into a (height, width, 3) uint8 array."""
    width, height, maxval, offset = _parse_pnm_header(data, b"P6")
    if not 0 < maxval <= 255:
        raise ValueError(f"maxval {maxval} out of range for 24-bit PPM")
    _check_payload(len(data) - offset, 3 * width * height, "PPM")
    rgb = np.frombuffer(data, dtype=np.uint8, offset=offset)
    return rgb.reshape(height, width, 3).copy()


def write_ppm(rgb) -> bytes:
    """Encode a (height, width, 3) array of 0..255 values as binary PPM."""
    a = np.asarray(rgb)
    if a.ndim != 3 or a.shape[2] != 3 or a.size == 0:
        raise ValueError("PPM data must be a non-empty (height, width, 3) array")
    if np.any((a < 0) | (a > 255)):
        raise ValueError("PPM values must lie in 0..255")
    a = a.astype(np.uint8)
    header = f"P6\n{a.shape[1]} {a.shape[0]}\n255\n".encode()
    return header + a.tobytes()


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
        """Decode one raster file and check it has the sequence's (height, width)."""
        path = self.root / relative
        try:
            raster = decode(path.read_bytes())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        shape = raster.u.shape if isinstance(raster, FlowField) else raster.shape[:2]
        if shape != (self.height, self.width):
            raise ValueError(
                f"{path}: dimensions {shape[1]}x{shape[0]} do not match "
                f"sequence {self.width}x{self.height}"
            )
        return raster

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

    def mask(self, method: str, index: int) -> np.ndarray:
        self._check_index(index)
        if method not in self.mask_methods:
            raise ValueError(f"sequence '{self.name}' has no mask method '{method}'")
        return self._read(read_mask_pgm, f"masks/{method}/{index:05d}.pgm")


def open_sequence(root) -> FrameSequence:
    """Validate a video directory and return its sequence index.

    Checks contiguous frame indices in every raster directory, consistent
    per-directory frame counts, and uniform raster dimensions.
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

    methods = []
    masks_root = root / "masks"
    if masks_root.is_dir():
        for method_dir in sorted(masks_root.iterdir()):
            if not method_dir.is_dir():
                continue
            mask_files = _scan_indexed(method_dir, "pgm")
            if len(mask_files) != num_frames:
                raise ValueError(
                    f"{method_dir}: holds {len(mask_files)} masks for {num_frames} frames"
                )
            check_dims(mask_files)
            methods.append(method_dir.name)

    return FrameSequence(
        root=root,
        name=root.name,
        num_frames=num_frames,
        width=width,
        height=height,
        flow_count=len(flow_files),
        has_saliency=bool(saliency_files),
        has_labels=bool(label_files),
        mask_methods=tuple(methods),
    )


def read_mask_dir(directory) -> list[np.ndarray]:
    """Read a directory of %05d.pgm masks with uniform dimensions."""
    directory = Path(directory)
    paths = _scan_indexed(directory, "pgm")
    if not paths:
        raise ValueError(f"{directory}: no masks found")
    masks = [read_mask_pgm(p.read_bytes()) for p in paths]
    for path, mask in zip(paths, masks):
        if mask.shape != masks[0].shape:
            raise ValueError(f"{path}: dimensions differ from {paths[0]}")
    return masks

