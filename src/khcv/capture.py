"""Capture simulation for hybrid compressive video sensing.

Models a sensor that integrates B mask-coded scene frames into a single
compressive measurement while a second, short-exposure channel records an
uncoded key frame immediately before and after the coded block:

    y(i, j) = sum_k c(i, j, k) * x(i, j, k) + g(i, j)

Key frames share the per-frame exposure t_x, the coded exposure is
t_y = B * t_x, and an optional gap skips whole frames between the coded
block and each key frame.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensors import CodingCube, FormatError, Frame, VideoCube, load_tensor, save_tensor

__all__ = [
    "TimingSchedule",
    "NoiseModel",
    "HybridMeasurement",
    "build_schedule",
    "compressive_ratio",
    "generate_masks",
    "encode",
    "sample_keyframes",
    "simulate_capture",
    "write_measurement",
    "read_measurement",
]

# Noise stream roles keep the compressive frame and the two key frames
# statistically independent while staying reproducible from one seed.
_ROLE_COMPRESSIVE = 0
_ROLE_KEY_LEFT = 1
_ROLE_KEY_RIGHT = 2


def _is_int(value) -> bool:
    """Any integer type, numpy's too, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(value, name: str, low: int) -> int:
    """The count rule: raise ValueError unless value is an integer, numpy's
    too, but not a bool, and at least low; return it as a Python int, which
    the settings classes store, so that no narrow numpy integer wraps in
    later arithmetic."""
    if not _is_int(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


# The ranges of the number rule and the words that name them, each test
# written so that NaN fails it; all but a probability's refuse infinity.
# "0 or >= 1e-12" is the TV weight's: the TV dual forms -tau img / weight
# in float32, tau = 1/4, and its first iteration squares the differences of
# that plane, tau (a - b) / weight for neighbouring samples a and b.  The
# square is finite in float32 only while |a - b| < 4 weight sqrt(3.4e38),
# about 7.4e19 weight: at 1e-12 that is 7.4e7, far beyond the [0, 1]
# intensity scale, while at 1e-20 a 0-to-1 edge overflows.  A weight below
# the floor moves no sample by more than 4e-12 per TV step
_NUMBER_RANGES = {
    "> 0": ("a finite number > 0", lambda x: 0 < x < math.inf),
    ">= 0": ("a finite number >= 0", lambda x: 0 <= x < math.inf),
    "0 or >= 1e-12": ("0 or a finite number >= 1e-12", lambda x: x == 0 or 1e-12 <= x < math.inf),
    "in (0, 1]": ("a number in (0, 1]", lambda x: 0 < x <= 1),
}


def _check_number(value, name: str, where: str) -> None:
    """The number rule: raise ValueError unless value is a real number,
    numpy's too, but not a bool, in the range where, a key of _NUMBER_RANGES."""
    words, within = _NUMBER_RANGES[where]
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not within(value):
        raise ValueError(f"{name} must be {words}, got {value!r}")


def _check_density(density, name: str = "density") -> None:
    """The mask density rule: a Bernoulli probability in (0, 1]."""
    _check_number(density, name, "in (0, 1]")


def _raise_fp_errors(fn):
    """The numerical-failure rule: numpy overflow, invalid and divide-by-zero
    in fn, float32 casts too, raise FloatingPointError where they happen,
    its message ending in the stage's name, as in "overflow encountered in
    multiply (in gap_tv_reconstruct)".  A fresh errstate per call restores
    the caller's under nesting and threads."""

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return fn(*args, **kwargs)
        except FloatingPointError as exc:
            raise FloatingPointError(f"{exc} (in {fn.__name__})") from exc

    return guarded


def _check_seed(seed, name: str) -> None:
    """Raise ValueError unless seed is an integer (not a bool) in [0, 2**64).

    A float seed is refused rather than truncated, so 3.7 never silently
    draws the stream of seed 3.  Numpy integers, unsigned ones too, pass.
    """
    if not _is_int(seed) or not 0 <= int(seed) < 2**64:
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {seed!r}")


def _json_scalar(value):
    """json.dumps default of the manifest and report writers: a numpy scalar
    is written as the Python number it holds."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@dataclass(frozen=True)
class TimingSchedule:
    """Exposure plan in integer microseconds.

    t_x is the per-frame exposure, t_g the dead time between the coded block
    and each key frame and B the number of coded frames.  The rest follows:
    the coded exposure is t_y = B * t_x and the key-frame exposure t_z = t_x.
    The three values are stored as plain ints.
    """

    t_x: int
    t_g: int
    B: int

    def __post_init__(self):
        for name, low in (("t_x", 1), ("t_g", 0), ("B", 1)):
            object.__setattr__(self, name, _check_count(getattr(self, name), name, low))

    @property
    def t_y(self) -> int:
        return self.B * self.t_x

    @property
    def t_z(self) -> int:
        return self.t_x


def build_schedule(t_x: int, B: int, t_g: int = 0) -> TimingSchedule:
    """Derive the full exposure plan from the per-frame exposure.

    Args:
        t_x: per-frame exposure in integer microseconds.
        B: number of coded frames per compressive measurement.
        t_g: dead time between the coded block and each key frame.

    Returns:
        TimingSchedule with t_y = B * t_x and t_z = t_x.
    """
    return TimingSchedule(t_x=t_x, t_g=t_g, B=B)


def compressive_ratio(B: int) -> float:
    """Fraction of frames read out per coded block: 2 key frames over B + 1 slots."""
    _check_count(B, "B", 1)
    return 2.0 / (B + 1)


@dataclass(frozen=True)
class NoiseModel:
    """Additive Gaussian noise on the normalized intensity scale; sigma is a
    finite number >= 0, and 0 adds none.  The seed must fit in 64 bits
    whatever sigma is."""

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_number(self.sigma, "sigma", ">= 0")
        _check_seed(self.seed, "seed")

    @classmethod
    def off(cls) -> "NoiseModel":
        return cls()

    @classmethod
    def gaussian(cls, sigma: float, seed: int) -> "NoiseModel":
        return cls(sigma, seed)

    def field(self, shape: tuple[int, ...], role: int) -> np.ndarray:
        """Draw the noise plane for one measurement role (deterministic per seed)."""
        if self.sigma == 0.0:
            return np.zeros(shape, dtype=np.float64)
        key = np.array([self.seed, role], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        return rng.normal(0.0, self.sigma, size=shape)


@dataclass(frozen=True)
class HybridMeasurement:
    """One coded exposure plus its two flanking key frames; gap_frames is
    stored as a plain int."""

    y: Frame
    z_left: Frame
    z_right: Frame
    masks: CodingCube
    schedule: TimingSchedule
    gap_frames: int

    def __post_init__(self):
        shape = self.y.samples.shape
        if self.z_left.samples.shape != shape or self.z_right.samples.shape != shape:
            raise ValueError("key frames must match the compressive frame size")
        if self.masks.samples.shape[1:] != shape:
            raise ValueError("mask planes must match the compressive frame size")
        if self.masks.frames != self.schedule.B:
            raise ValueError(
                f"mask count {self.masks.frames} disagrees with schedule B {self.schedule.B}"
            )
        object.__setattr__(self, "gap_frames", _check_count(self.gap_frames, "gap_frames", 0))


def generate_masks(seed: int, height: int, width: int, frames: int, density: float = 0.5) -> CodingCube:
    """Draw a Bernoulli(density) coding cube from a counter-based generator.

    The Philox stream is keyed by the seed alone and consumed in frame-major
    row-major order, so the cube for a given (seed, shape, density) is
    identical on every platform and independent of evaluation order.
    """
    _check_seed(seed, "seed")
    for name, n in (("height", height), ("width", width), ("frames", frames)):
        _check_count(n, name, 1)
    _check_density(density)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    uniform = rng.random((frames, height, width))
    return CodingCube(uniform < density)


def _forward(masks: np.ndarray, frames: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sensing operator Phi: sum_k masks_k * frames_k in float64, with no
    (B, H, W) temporary; the exact 0/1-mask products are added to +0.0 in frame
    order.  einsum flags no floating-point error, and none can arise here: a
    float64 sum of B float32-range values does not overflow.  einsum sums a
    single pixel's products as a dot product, in its own order, so Python's
    sum adds those."""
    if masks.shape[1:] != (1, 1):
        return np.einsum("kij,kij->ij", masks, frames, out=out, dtype=np.float64)
    acc = np.zeros((1, 1)) if out is None else out
    acc[...] = sum(np.multiply(masks, frames, dtype=np.float64), 0.0)
    return acc


@_raise_fp_errors
def encode(x: VideoCube, c: CodingCube, noise: NoiseModel | None = None) -> Frame:
    """Integrate a coded block into one compressive frame.

    Computes y = Phi(x) + g = sum_k c_k * x_k + g through _forward, where g
    is drawn from the noise model (deterministic for a given seed).

    Args:
        x: scene block, one frame per mask plane.
        c: binary coding cube, same shape as x.
        noise: optional additive noise; None means noiseless.

    Returns:
        Compressive frame; values can exceed 1 because B frames accumulate.
    """
    if x.samples.shape != c.samples.shape:
        raise ValueError(f"scene {x.samples.shape} and masks {c.samples.shape} disagree")
    noise = noise or NoiseModel.off()
    acc = _forward(c.samples, x.samples)
    acc += noise.field(acc.shape, _ROLE_COMPRESSIVE)
    return Frame(acc)


def _block_start(scene_frames: int, B: int, gap_frames: int) -> int:
    """Index of the first coded frame; the coded block sits centered in the scene."""
    _check_count(gap_frames, "gap_frames", 0)
    start = (scene_frames - B) // 2
    if start - 1 - gap_frames < 0 or start + B + gap_frames > scene_frames - 1:
        raise ValueError(
            f"scene with {scene_frames} frames is too short for B={B} and "
            f"gap_frames={gap_frames}; need at least {B + 2 + 2 * gap_frames}"
        )
    return start


@_raise_fp_errors
def sample_keyframes(
    scene: VideoCube, B: int, gap_frames: int, noise: NoiseModel | None = None
) -> tuple[Frame, Frame]:
    """Read the two uncoded key frames flanking the centered coded block.

    With gap_frames = g the key frames sit g + 1 positions outside the block
    on each side, modeling skipped sensor frames.  Both receive the same
    noise sigma as the compressive channel but independent draws.
    """
    noise = noise or NoiseModel.off()
    start = _block_start(scene.frames, B, gap_frames)
    left = scene.samples[start - 1 - gap_frames].astype(np.float64)
    right = scene.samples[start + B + gap_frames].astype(np.float64)
    left = left + noise.field(left.shape, _ROLE_KEY_LEFT)
    right = right + noise.field(right.shape, _ROLE_KEY_RIGHT)
    return Frame(left), Frame(right)


def simulate_capture(
    scene: VideoCube,
    masks: CodingCube,
    schedule: TimingSchedule,
    gap_frames: int = 0,
    noise: NoiseModel | None = None,
) -> HybridMeasurement:
    """Run one full hybrid exposure over a scene with timing margin.

    Encodes the central B scene frames with the coding cube and samples the
    two key frames gap_frames + 1 positions outside the coded block; encode
    refuses masks that do not match that block.
    """
    start = _block_start(scene.frames, schedule.B, gap_frames)
    block = VideoCube(scene.samples[start : start + schedule.B])
    y = encode(block, masks, noise)
    z_left, z_right = sample_keyframes(scene, schedule.B, gap_frames, noise)
    return HybridMeasurement(
        y=y,
        z_left=z_left,
        z_right=z_right,
        masks=masks,
        schedule=schedule,
        gap_frames=gap_frames,
    )


# ===== Measurement manifest I/O =====

_MANIFEST_FILES = {
    "y": "y.khcv",
    "z_left": "z_left.khcv",
    "z_right": "z_right.khcv",
    "masks": "masks.khcv",
}


def write_measurement(
    m: HybridMeasurement, out_dir, seed: int | None = None, extra: dict | None = None
) -> Path:
    """Store a measurement as binary tensors plus a JSON manifest.

    Returns the manifest path.  `seed` records the mask seed used to build
    the coding cube; `extra` fields are added to the manifest verbatim, and
    a key that names one of the manifest's own fields raises ValueError.
    The manifest is encoded before any file is written, so a bad key or a
    value JSON cannot hold leaves nothing behind.
    """
    manifest = {
        "files": dict(_MANIFEST_FILES),
        "t_x": m.schedule.t_x,
        "t_y": m.schedule.t_y,
        "t_z": m.schedule.t_z,
        "t_g": m.schedule.t_g,
        "B": m.schedule.B,
        "gap_frames": m.gap_frames,
        "seed": seed,
    }
    if extra:
        taken = sorted(manifest.keys() & extra.keys())
        if taken:
            raise ValueError(f"extra fields {taken} would overwrite the manifest's own")
        manifest.update(extra)
    text = json.dumps(manifest, indent=2, sort_keys=True, default=_json_scalar) + "\n"
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for role, name in _MANIFEST_FILES.items():
        save_tensor(getattr(m, role), out / name)
    path = out / "manifest.json"
    path.write_text(text)
    return path


def read_measurement(manifest_path) -> HybridMeasurement:
    """Load a measurement previously stored by write_measurement.

    The manifest is outside input, so every field is checked: a manifest
    that is not JSON, a malformed field, or a stored t_y or t_z that
    disagrees with t_x and B raises FormatError (a ValueError), as does a
    stored tensor that does not parse.
    """
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{manifest_path}: not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: manifest must be a JSON object")
    try:
        files = manifest["files"]
        schedule = TimingSchedule(t_x=manifest["t_x"], t_g=manifest["t_g"], B=manifest["B"])
        stored = (manifest["t_y"], manifest["t_z"])
        gap_frames = manifest["gap_frames"]
    except KeyError as exc:
        raise FormatError(f"{manifest_path}: missing manifest field {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"{manifest_path}: {exc}") from exc
    if stored != (schedule.t_y, schedule.t_z):
        raise FormatError(f"{manifest_path}: t_y and t_z {stored} must be B*t_x and t_x {(schedule.t_y, schedule.t_z)}")
    if not isinstance(files, dict) or not all(isinstance(files.get(role), str) for role in _MANIFEST_FILES):
        raise FormatError(f"{manifest_path}: files must map {sorted(_MANIFEST_FILES)} to file names, got {files!r}")
    y, z_left, z_right, masks = (load_tensor(manifest_path.parent / files[role]) for role in _MANIFEST_FILES)
    if [type(t) for t in (y, z_left, z_right, masks)] != [Frame, Frame, Frame, CodingCube]:
        raise FormatError(f"{manifest_path}: files must hold three frames and a coding cube, in that order")
    try:
        return HybridMeasurement(y, z_left, z_right, masks, schedule, gap_frames)
    except ValueError as exc:
        raise FormatError(f"{manifest_path}: {exc}") from exc
