"""Dense array types (frames, video cubes, coding cubes, flow fields) plus
bit-exact binary file I/O and PGM/PPM image exchange.

Centralizes all file format handling so the other modules never touch raw
bytes directly.  All tensor objects are immutable: constructors copy their
input and mark the underlying numpy buffer read-only, so instances can be
shared freely across threads.

How arrays are stored is decided in one place.  Every constructor passes
its input through `_stored`, which casts to the storage dtype, copies,
freezes, and checks rank, non-emptiness and, for real-valued samples,
finiteness; callers need not cast first.  Every type holds its samples in
the plane order of the container payload.  `_LAYOUT` maps each type to its
(dtype byte, kind byte), and both save_tensor and load_tensor read it.

Binary container layout (little-endian throughout):

    magic   4 bytes  b"KHCV"
    version 1 byte   currently 1
    dtype   1 byte   0 = real32, 1 = binary uint8
    kind    1 byte   2 = single frame, 3 = cube, 4 = flow field
    dims    kind-dependent uint32 list: (height, width) for frames,
            (height, width, frames) for cubes, (height, width, 2) for
            flow fields (u plane then v plane)
    payload row-major samples, frames contiguous

Frames and flow fields are real32 only; cubes are real32 (VideoCube) or
binary (CodingCube).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

__all__ = [
    "Frame",
    "VideoCube",
    "CodingCube",
    "FlowField",
    "FormatError",
    "MagicError",
    "VersionError",
    "DtypeError",
    "TruncatedError",
    "save_tensor",
    "load_tensor",
    "import_pgm",
    "export_pgm",
    "export_ppm",
]

_MAGIC = b"KHCV"
_VERSION = 1
_DTYPE_REAL32 = 0
_DTYPE_BINARY8 = 1
_KIND_FRAME = 2
_KIND_CUBE = 3
_KIND_FLOW = 4
_SAMPLE_DTYPES = {_DTYPE_REAL32: np.dtype("<f4"), _DTYPE_BINARY8: np.dtype(np.uint8)}


class FormatError(ValueError):
    """A file does not conform to the expected binary layout."""


class MagicError(FormatError):
    """Leading magic bytes are wrong."""


class VersionError(FormatError):
    """Container version is not supported."""


class DtypeError(FormatError):
    """Sample dtype byte is unknown or inconsistent with the record kind."""


class TruncatedError(FormatError):
    """File ends before the declared payload is complete."""


def _stored(data, dtype, ndim: int, what: str) -> np.ndarray:
    """A frozen C-ordered copy of data in dtype, checked for rank, size and,
    for real dtypes, finiteness; raises ValueError naming `what`."""
    arr = np.array(data, dtype=dtype, order="C", copy=True)
    arr.setflags(write=False)
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"{what} needs a non-empty {ndim}-D array, got shape {arr.shape}")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValueError(f"{what} samples must all be finite")
    return arr


# ===== Tensor types =====


@dataclass(frozen=True, eq=False)
class _Samples:
    """Base of the types holding one `samples` array: _ndim-D, stored as _dtype."""

    samples: np.ndarray

    _dtype: ClassVar[type] = np.float32
    _ndim: ClassVar[int]
    _what: ClassVar[str]

    def __post_init__(self):
        object.__setattr__(self, "samples", _stored(self.samples, self._dtype, self._ndim, self._what))

    @property
    def height(self) -> int:
        return self.samples.shape[-2]

    @property
    def width(self) -> int:
        return self.samples.shape[-1]

    def __eq__(self, other):
        return type(other) is type(self) and np.array_equal(self.samples, other.samples)


@dataclass(frozen=True, eq=False)
class Frame(_Samples):
    """Single grayscale image, shape (height, width), float32, nominal [0, 1]."""

    _ndim = 2
    _what = "frame"


@dataclass(frozen=True, eq=False)
class _Cube(_Samples):
    _ndim = 3

    @property
    def frames(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True, eq=False)
class VideoCube(_Cube):
    """Stack of frames, shape (frames, height, width), float32.

    Frames are stored contiguously (frame-major), each frame row-major.
    """

    _what = "video cube"


@dataclass(frozen=True, eq=False)
class CodingCube(_Cube):
    """Binary mask stack, shape (frames, height, width), uint8 values in {0, 1}."""

    _dtype = np.uint8
    _what = "coding cube"

    def __post_init__(self):
        super().__post_init__()
        if self.samples.max() > 1:
            raise ValueError("coding cube samples must be 0 or 1")


@dataclass(frozen=True, eq=False)
class FlowField(_Samples):
    """Dense 2-D motion field, shape (2, height, width), float32: the u plane
    (horizontal displacement in pixels) then the v plane (vertical).

    Positive u points right, positive v points down.  A field f warps a source
    image onto a target grid through out(p) = source(p + f(p)).
    """

    _ndim = 3
    _what = "flow field"

    def __post_init__(self):
        super().__post_init__()
        if self.samples.shape[0] != 2:
            raise ValueError(f"flow field needs 2 planes (u, v), got shape {self.samples.shape}")

    @property
    def u(self) -> np.ndarray:
        return self.samples[0]

    @property
    def v(self) -> np.ndarray:
        return self.samples[1]


Tensor = Frame | VideoCube | CodingCube | FlowField

# (dtype byte, kind byte) of each storable type; load_tensor reads it backwards
_LAYOUT = {
    Frame: (_DTYPE_REAL32, _KIND_FRAME),
    VideoCube: (_DTYPE_REAL32, _KIND_CUBE),
    CodingCube: (_DTYPE_BINARY8, _KIND_CUBE),
    FlowField: (_DTYPE_REAL32, _KIND_FLOW),
}
_TYPES = {layout: cls for cls, layout in _LAYOUT.items()}


# ===== Binary container I/O =====


def save_tensor(data: Tensor, path) -> None:
    """Serialize a tensor to the binary container format.

    The parent directory must already exist.  Writing the same object twice
    produces byte-identical files.
    """
    if type(data) not in _LAYOUT:
        raise TypeError(f"cannot serialize {type(data).__name__}")
    dtype, kind = _LAYOUT[type(data)]
    # samples are planes first: (h, w), (frames, h, w) or (2, h, w); the header lists h, w first
    planes = data.samples
    dims = planes.shape[-2:] + planes.shape[:-2]
    header = _MAGIC + struct.pack(f"<BBB{len(dims)}I", _VERSION, dtype, kind, *dims)
    with open(path, "wb") as f:  # the header, then the samples' own buffer, uncopied
        f.writelines((header, planes.astype(_SAMPLE_DTYPES[dtype], copy=False).data))


def load_tensor(path) -> Tensor:
    """Parse a binary container file back into the tensor it stores.

    Raises MagicError, VersionError, DtypeError or TruncatedError for
    malformed headers, FormatError for any other structural problem.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise TruncatedError(f"{path}: too short for a magic header")
    if raw[:4] != _MAGIC:
        raise MagicError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 7:
        raise TruncatedError(f"{path}: header ends inside the fixed fields")
    version, dtype, kind = raw[4:7]
    if version != _VERSION:
        raise VersionError(f"{path}: unsupported version {version}")
    if dtype not in _SAMPLE_DTYPES:
        raise DtypeError(f"{path}: unknown dtype byte {dtype}")
    if kind not in (_KIND_FRAME, _KIND_CUBE, _KIND_FLOW):
        raise FormatError(f"{path}: unknown kind byte {kind}")
    cls = _TYPES.get((dtype, kind))
    if cls is None:
        raise DtypeError(f"{path}: kind {kind} does not store dtype {dtype} samples")

    ndims = 2 if kind == _KIND_FRAME else 3
    dim_end = 7 + 4 * ndims
    if len(raw) < dim_end:
        raise TruncatedError(f"{path}: header ends inside the dims")
    dims = struct.unpack(f"<{ndims}I", raw[7:dim_end])
    if 0 in dims:
        raise FormatError(f"{path}: zero-sized dimension in {dims}")

    sample = _SAMPLE_DTYPES[dtype]
    expected = math.prod(dims) * sample.itemsize
    payload = raw[dim_end:]
    if len(payload) < expected:
        raise TruncatedError(f"{path}: payload has {len(payload)} bytes, expected {expected}")
    if len(payload) > expected:
        raise FormatError(f"{path}: {len(payload) - expected} trailing bytes after payload")

    planes = np.frombuffer(payload, dtype=sample).reshape(dims[2:] + dims[:2])
    try:
        return cls(planes)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ===== PGM / PPM exchange =====


def _read_pnm_header(raw: bytes, path) -> tuple[bytes, list[int], int]:
    """Parse a PNM header: returns (magic, [dims...], payload offset)."""
    if len(raw) < 2:
        raise FormatError(f"{path}: not a PNM file")
    magic = raw[:2]
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token.isdigit() or len(token) > 9:  # int() refuses over 4300 digits
            raise FormatError(f"{path}: bad header token {token[:12]!r}")
        fields.append(int(token))
    if pos >= len(raw):
        raise TruncatedError(f"{path}: header ends before payload")
    pos += 1  # single whitespace byte separating header and payload
    return magic, fields, pos


def import_pgm(path) -> Frame:
    """Load a binary PGM (P5, maxval 255) as a Frame with values in [0, 1]."""
    raw = Path(path).read_bytes()
    magic, (width, height, maxval), pos = _read_pnm_header(raw, path)
    if magic != b"P5":
        raise FormatError(f"{path}: expected P5, got {magic!r}")
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    if width == 0 or height == 0:
        raise FormatError(f"{path}: zero-sized image {width}x{height}")
    payload = raw[pos : pos + width * height]
    if len(payload) < width * height:
        raise TruncatedError(f"{path}: pixel data incomplete")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return Frame(pixels.astype(np.float32) / 255.0)


def _quantize(values: np.ndarray) -> np.ndarray:
    # round half up: 0.5 maps to byte 128
    clamped = np.clip(values, 0.0, 1.0).astype(np.float64)
    return np.floor(clamped * 255.0 + 0.5).astype(np.uint8)


def export_pgm(frame: Frame, path) -> None:
    """Write a Frame as binary PGM; values are clamped to [0, 1] first."""
    body = _quantize(frame.samples).tobytes()
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + body)


def export_ppm(rgb: np.ndarray, path) -> None:
    """Write an (H, W, 3) array of [0, 1] floats as binary PPM; values are
    clamped to [0, 1] first, and a non-finite one is a ValueError."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected an (H, W, 3) array, got shape {rgb.shape}")
    if not np.isfinite(rgb).all():
        raise ValueError("PPM samples must all be finite")
    body = _quantize(rgb).tobytes()
    header = f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + body)
