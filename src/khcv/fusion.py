"""Key-frame fusion: upgrade coarse coded-block reconstructions with the two
sharp uncoded key frames.

For each intermediate frame k the module estimates flow from that frame to
both key frames, warps the keys onto the frame grid with those fields, and
blends the warps under a visibility map and a temporal weight
tau = k / (B + 2).  Pixels neither key explains well fall back to the
intermediate reconstruction.

tau is a fixed ramp, not the frame's linear position between the keys.
With a gap of g skipped frames on each side, frame k sits k + g frames
after the left key and the keys are B + 1 + 2g frames apart, so that
position is (k + g) / (B + 1 + 2g).  tau differs from it even at g = 0,
where the position is k / (B + 1), and tau does not change with the gap.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .capture import HybridMeasurement
from .flow import FlowField, FlowParams, _warp_by_flow, estimate_flow
from .tensors import Frame, VideoCube, _stored

__all__ = [
    "FusionParams",
    "VisibleMap",
    "FusedFrame",
    "warp",
    "visibility_map",
    "blend",
    "normalize_brightness",
    "fuse_frame",
    "iter_fused_frames",
    "fuse_video",
]

_MEAN_GUARD = 1e-6
_BRIGHTNESS_CLAMP = 4.0
# blend's denominator is at least min(tau, 1 - tau) > 0 without it; it stays
# so that outputs keep every bit
_BLEND_EPS = 1e-6


@dataclass(frozen=True)
class FusionParams:
    """Settings for key-frame fusion.

    beta steepens the visibility sigmoid, error_smooth_radius sets the box
    filter radius used on photometric errors, and fallback_threshold (None
    disables it) reverts pixels no key explains to the intermediate frame.
    Each key is always rescaled to the intermediate frame's mean before flow
    estimation, and flow always runs directly from each intermediate frame
    to each key frame, with flow_params (FlowParams' defaults unless given).
    """

    beta: float = 20.0
    error_smooth_radius: int = 1
    fallback_threshold: float | None = 0.15
    flow_params: FlowParams = field(default_factory=FlowParams)

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.error_smooth_radius >= 0:
            raise ValueError(f"error_smooth_radius must be >= 0, got {self.error_smooth_radius}")
        if self.fallback_threshold is not None and not self.fallback_threshold > 0:
            raise ValueError(
                f"fallback_threshold must be positive or None, got {self.fallback_threshold}"
            )


@dataclass(frozen=True, eq=False)
class VisibleMap:
    """Per-pixel weight in [0, 1]; 1 trusts the left key, 0 the right."""

    values: np.ndarray

    def __post_init__(self):
        arr = _stored(self.values, np.float32, 2, "visibility map")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("visibility values must lie in [0, 1]")
        object.__setattr__(self, "values", arr)

    def __eq__(self, other):
        return isinstance(other, VisibleMap) and np.array_equal(self.values, other.values)


def warp(image: Frame, f: FlowField) -> Frame:
    """Backward-warp an image: out(p) = image(p + f(p)), bilinear, replicate.

    A zero field reproduces the image bit for bit.
    """
    if image.samples.shape != f.u.shape:
        raise ValueError(f"image {image.samples.shape} and flow {f.u.shape} disagree")
    return Frame(_warp_by_flow(image.samples, f.u, f.v))


def visibility_map(w_left: Frame, w_right: Frame, target: Frame, params: FusionParams | None = None) -> VisibleMap:
    """Per-pixel preference for the left warp over the right one.

    Box-filters the absolute photometric error of each warp against the
    target and squashes their difference through a logistic of slope beta.
    Swapping the two warps complements the map exactly: v -> 1 - v.
    """
    params = params or FusionParams()
    if w_left.samples.shape != target.samples.shape or w_right.samples.shape != target.samples.shape:
        raise ValueError("warped keys and target must share one shape")
    return _visibility(*_smoothed_errors(w_left, w_right, target, params.error_smooth_radius), params.beta)


def _smoothed_errors(w_left: Frame, w_right: Frame, target: Frame, radius: int) -> list[np.ndarray]:
    """Box-filtered absolute photometric error of each warp against the target."""
    errors = []
    for w in (w_left, w_right):
        err = np.abs(w.samples.astype(np.float64) - target.samples.astype(np.float64))
        errors.append(ndimage.uniform_filter(err, size=2 * radius + 1, mode="nearest") if radius else err)
    return errors


def _visibility(e_left: np.ndarray, e_right: np.ndarray, beta: float) -> VisibleMap:
    """Logistic of slope beta over the error difference: the visibility_map rule."""
    diff = e_right - e_left
    # evaluate the logistic through exp(-|x|) so that negating the argument
    # complements the result bit for bit
    winner = 1.0 / (1.0 + np.exp(-beta * np.abs(diff)))
    return VisibleMap(np.where(diff >= 0.0, winner, 1.0 - winner))


def blend(w_left: Frame, w_right: Frame, v: VisibleMap, tau: float) -> Frame:
    """Visibility- and time-weighted average of the two warped keys.

    out = ((1-tau) * v * w_left + tau * (1-v) * w_right)
          / ((1-tau) * v + tau * (1-v) + eps)

    with eps = 1e-6.  tau near 0 favors the left key, tau near 1 the right
    key.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie strictly between 0 and 1, got {tau}")
    if w_left.samples.shape != w_right.samples.shape or w_left.samples.shape != v.values.shape:
        raise ValueError("warped keys and visibility map must share one shape")
    vv = v.values.astype(np.float64)
    wl = w_left.samples.astype(np.float64)
    wr = w_right.samples.astype(np.float64)
    left_w = (1.0 - tau) * vv
    right_w = tau * (1.0 - vv)
    out = (left_w * wl + right_w * wr) / (left_w + right_w + _BLEND_EPS)
    return Frame(out)


def normalize_brightness(image: Frame, reference: Frame) -> Frame:
    """Rescale an image to the reference mean intensity.

    The gain mean(reference)/mean(image) is clamped to [0, 4]; images with a
    near-zero mean pass through unchanged.
    """
    mean_img = float(image.samples.mean())
    if mean_img <= _MEAN_GUARD:
        return image
    gain = float(reference.samples.mean()) / mean_img
    gain = min(max(gain, 0.0), _BRIGHTNESS_CLAMP)
    return Frame(image.samples * np.float32(gain))


@dataclass(frozen=True)
class FusedFrame:
    """fuse_frame output plus the intermediates useful for inspection."""

    output: Frame
    flow_left: FlowField
    flow_right: FlowField
    warped_left: Frame
    warped_right: Frame
    visibility: VisibleMap


def fuse_frame(
    z_left: Frame,
    z_right: Frame,
    x_mid_k: Frame,
    k: int,
    B: int,
    params: FusionParams | None = None,
) -> FusedFrame:
    """Fuse one intermediate frame with the two key frames.

    Args:
        z_left, z_right: uncoded key frames.
        x_mid_k: intermediate reconstruction of frame k.
        k: 1-based position of the frame inside the coded block.
        B: coded block length.
        params: fusion settings; defaults to FusionParams().

    Returns:
        FusedFrame holding the [0, 1]-clamped output and the flow, warp and
        visibility intermediates.
    """
    params = params or FusionParams()
    if not 1 <= k <= B:
        raise ValueError(f"k must lie in [1, {B}], got {k}")
    if z_left.samples.shape != x_mid_k.samples.shape or z_right.samples.shape != x_mid_k.samples.shape:
        raise ValueError("key frames and intermediate frame must share one shape")

    z_left = normalize_brightness(z_left, x_mid_k)
    z_right = normalize_brightness(z_right, x_mid_k)

    f_left = estimate_flow(x_mid_k, z_left, params.flow_params)
    f_right = estimate_flow(x_mid_k, z_right, params.flow_params)
    w_left = warp(z_left, f_left)
    w_right = warp(z_right, f_right)

    e_left, e_right = _smoothed_errors(w_left, w_right, x_mid_k, params.error_smooth_radius)
    v = _visibility(e_left, e_right, params.beta)
    tau = k / (B + 2.0)
    fused = blend(w_left, w_right, v, tau).samples.astype(np.float64)

    if params.fallback_threshold is not None:
        bad = np.minimum(e_left, e_right) > params.fallback_threshold
        fused[bad] = x_mid_k.samples.astype(np.float64)[bad]

    output = Frame(np.clip(fused, 0.0, 1.0))
    return FusedFrame(
        output=output,
        flow_left=f_left,
        flow_right=f_right,
        warped_left=w_left,
        warped_right=w_right,
        visibility=v,
    )


def iter_fused_frames(
    m: HybridMeasurement, x_mid: VideoCube, params: FusionParams | None = None
) -> Iterator[FusedFrame]:
    """Fuse the frames of a coded block one at a time, in order k = 1..B.

    Shapes are checked when this is called; each next() then runs fuse_frame
    on one more frame and returns its FusedFrame, so callers can consume the
    records without holding all B.
    """
    params = params or FusionParams()
    B = m.schedule.B
    if x_mid.frames != B:
        raise ValueError(f"intermediate cube has {x_mid.frames} frames, schedule says {B}")
    if x_mid.samples.shape[1:] != m.y.samples.shape:
        raise ValueError("intermediate frames must match the measurement size")
    # fuse_frame is looked up in the module on every frame, so a wrapper
    # installed on fusion.fuse_frame sees each call
    return (
        fuse_frame(m.z_left, m.z_right, Frame(x_mid.samples[k - 1]), k, B, params)
        for k in range(1, B + 1)
    )


def fuse_video(m: HybridMeasurement, x_mid: VideoCube, params: FusionParams | None = None) -> VideoCube:
    """Fuse every intermediate frame of a coded block with the key frames.

    Each frame costs two flow estimations, one per key frame.
    """
    fused = np.empty_like(x_mid.samples)
    for k, record in enumerate(iter_fused_frames(m, x_mid, params)):
        fused[k] = record.output.samples
    return VideoCube(fused)
