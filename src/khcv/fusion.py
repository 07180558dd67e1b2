"""Key-frame fusion: upgrade coarse coded-block reconstructions with the two
sharp uncoded key frames.

fuse_video is the one fusion driver.  For each intermediate frame k = 1..B
of a block it finds the flow from that frame to both key frames, warps the
keys, as captured, onto the frame grid with those fields, and blends the
warps under a visibility map and a temporal weight tau = k / (B + 2).
Pixels neither key explains well fall back to the intermediate
reconstruction.  warp, visibility_map and blend are its steps, public so
that each can be used and checked alone.

Flow is solved in full, through the whole pyramid, only at anchor frames:
every third frame from k = 1, and k = B.  A frame between anchors a and b
starts each key's field from the linear interpolation in time of the two
anchors' fields, ((b - k) F_a + (k - a) F_b) / (b - a), and refines it with
a few warps at the finest level alone.  The solves of one anchor interval
share one stacked call of estimate_flows, which gives each pair the field
it would get alone.

tau is a fixed ramp, not the frame's linear position between the keys.
With a gap of g skipped frames on each side, frame k sits k + g frames
after the left key and the keys are B + 1 + 2g frames apart, so that
position is (k + g) / (B + 1 + 2g).  tau differs from it even at g = 0,
where the position is k / (B + 1), and tau does not change with the gap.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .capture import HybridMeasurement, _check_count, _check_number
from .flow import FlowField, FlowParams, _pad_edge, _warp_by_flow, estimate_flows
from .tensors import Frame, VideoCube

__all__ = [
    "FusionParams",
    "VisibleMap",
    "warp",
    "visibility_map",
    "blend",
    "fuse_video",
]

# Full flow solves run at frames 1, 1 + _ANCHOR_STRIDE, ... and B; the other
# frames refine interpolated fields with _REFINE_WARPS finest-level warps, at
# the caller's iteration count.  On the 128x128, B=16 block of acceptance
# criterion 6 that is 12 full solves and 20 refinements instead of 32 full
# solves, and fused PSNR rises from 27.79 to 27.99 dB, as the refinement
# starts closer to the answer than a coarse-to-fine solve from zero ends.
# Fused dB / SSIM on the four 128x128 quality cases GapTvParams names
# (criterion 6, the square at noise 0, the texture and the square at noise
# 0.02) at FlowParams' default 2 iterations and 4 warps:
#   stride 3, 2 refine warps  27.988/0.8540 25.692/0.9631 25.017/0.8024 25.583/0.8700
#   stride 3, 1 refine warp   27.931/0.8524 25.698/0.9633 24.889/0.7969 25.570/0.8701
#   stride 3, 3 refine warps  27.946/0.8541 25.700/0.9632 25.019/0.8051 25.568/0.8701
#   stride 4, 2 refine warps  28.018/0.8546 25.672/0.9631 25.101/0.8060 25.580/0.8705
#   stride 4, 3 refine warps  27.972/0.8546 25.686/0.9633 25.085/0.8079 25.562/0.8702
#   stride 5, 2 refine warps  27.982/0.8527 25.676/0.9627 25.065/0.8042 25.571/0.8711
#   stride 1, all full solves 27.794/0.8480 25.695/0.9630 24.917/0.8014 25.558/0.8700
# No other row is at least the first on all four: 3 refine warps lose
# 0.04 dB on criterion 6, stride 4 loses 0.02 dB on the square at noise 0.
_ANCHOR_STRIDE = 3
_REFINE_WARPS = 2


@dataclass(frozen=True)
class FusionParams:
    """Settings for key-frame fusion.

    beta steepens the visibility sigmoid, error_smooth_radius sets the box
    filter radius used on photometric errors, and fallback_threshold (None
    disables it) reverts pixels no key explains to the intermediate frame.
    Keys are used as captured, and flow always runs directly from each
    intermediate frame to each key frame.  The flow settings are passed next
    to these.
    """

    beta: float = 20.0
    error_smooth_radius: int = 1
    fallback_threshold: float | None = 0.15

    def __post_init__(self):
        _check_number(self.beta, "beta", "> 0")
        radius = _check_count(self.error_smooth_radius, "error_smooth_radius", 0)
        object.__setattr__(self, "error_smooth_radius", radius)
        if self.fallback_threshold is not None:
            _check_number(self.fallback_threshold, "fallback_threshold", "> 0")


@dataclass(frozen=True, eq=False)
class VisibleMap(Frame):
    """Per-pixel weight in [0, 1]; 1 trusts the left key, 0 the right."""

    _what = "visibility map"

    def __post_init__(self):
        super().__post_init__()
        if self.samples.min() < 0.0 or self.samples.max() > 1.0:
            raise ValueError("visibility values must lie in [0, 1]")


def warp(image: Frame, f: FlowField) -> Frame:
    """Backward-warp an image: out(p) = image(p + f(p)), bilinear, replicate.

    A zero field reproduces the image bit for bit.
    """
    if image.samples.shape != f.u.shape:
        raise ValueError(f"image {image.samples.shape} and flow {f.u.shape} disagree")
    return Frame(_warp_by_flow(_pad_edge(image.samples), f.u, f.v))


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
          / ((1-tau) * v + tau * (1-v))

    The denominator lies between tau and 1 - tau for v in [0, 1], so it is
    never 0.  tau near 0 favors the left key, tau near 1 the right key.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie strictly between 0 and 1, got {tau}")
    if w_left.samples.shape != w_right.samples.shape or w_left.samples.shape != v.samples.shape:
        raise ValueError("warped keys and visibility map must share one shape")
    vv = v.samples.astype(np.float64)
    wl = w_left.samples.astype(np.float64)
    wr = w_right.samples.astype(np.float64)
    left_w = (1.0 - tau) * vv
    right_w = tau * (1.0 - vv)
    out = (left_w * wl + right_w * wr) / (left_w + right_w)
    return Frame(out)


def _check_intermediate(m: HybridMeasurement, x_mid: VideoCube) -> None:
    """Raise ValueError unless x_mid holds B frames of the measurement's size."""
    expected = (m.schedule.B, *m.y.samples.shape)
    if x_mid.samples.shape != expected:
        raise ValueError(f"intermediate cube has shape {x_mid.samples.shape}, the measurement needs {expected}")


def fuse_video(
    m: HybridMeasurement,
    x_mid: VideoCube,
    params: FusionParams | None = None,
    flow: FlowParams | None = None,
    callback: Callable[[int, FlowField, FlowField, VisibleMap], None] | None = None,
) -> VideoCube:
    """Fuse every intermediate frame of a coded block with the two key frames.

    Frames are fused one at a time, in order k = 1..B.  Each anchor frame
    (k = 1, 4, 7, ... and B) costs two full flow solves, one per key frame.
    Each other frame costs two finest-level refinements, started from the
    fields interpolated between the anchors on either side.  Flow runs one
    anchor interval at a time, each step one estimate_flows stack: the first
    interval's two anchors with both keys, then each later anchor with both
    keys, then the interval's in-between frames with both keys.  Only the
    current interval's fields are held.

    Args:
        m: the measurement, whose schedule gives B and whose key frames are
            warped onto each intermediate frame.
        x_mid: intermediate reconstruction of the block, (B, h, w).
        params: fusion settings; defaults to FusionParams().
        flow: flow solver settings; defaults to FlowParams().
        callback: optional hook called as
            callback(k, flow_left, flow_right, visibility) once frame k is
            fused, with the fields and visibility map that frame used (the
            refined fields, for a frame between anchors).

    Returns:
        VideoCube of the fused frames, clamped to [0, 1].
    """
    params = params or FusionParams()
    _check_intermediate(m, x_mid)
    B = m.schedule.B
    flow = flow or FlowParams()
    refine = replace(flow, pyramid_levels=1, warps_per_level=_REFINE_WARPS)
    keys = (m.z_left, m.z_right)

    def frame(k: int) -> Frame:
        return Frame(x_mid.samples[k - 1])

    def solve(
        ks: list[int], solver: FlowParams, starts: list[FlowField] | None = None
    ) -> dict[int, tuple[FlowField, FlowField]]:
        # one stack of frames ks x keys; k -> (left field, right field)
        fields = estimate_flows([frame(k) for k in ks for _ in keys], [*keys] * len(ks), solver, starts=starts)
        return {k: (fields[2 * i], fields[2 * i + 1]) for i, k in enumerate(ks)}

    fused = np.empty_like(x_mid.samples)

    def fuse(k: int, f_left: FlowField, f_right: FlowField) -> None:
        x_k = frame(k)
        w_left = warp(m.z_left, f_left)
        w_right = warp(m.z_right, f_right)
        e_left, e_right = _smoothed_errors(w_left, w_right, x_k, params.error_smooth_radius)
        v = _visibility(e_left, e_right, params.beta)
        out = blend(w_left, w_right, v, k / (B + 2.0)).samples.astype(np.float64)
        if params.fallback_threshold is not None:
            bad = np.minimum(e_left, e_right) > params.fallback_threshold
            out[bad] = x_k.samples.astype(np.float64)[bad]
        fused[k - 1] = np.clip(out, 0.0, 1.0)
        if callback is not None:
            callback(k, f_left, f_right, v)

    anchors = sorted({*range(1, B + 1, _ANCHOR_STRIDE), B})
    # only the fields of the current interval between anchors a < b are held.
    # The first two anchors share one stack: solving them apart, anchor 1 and
    # then anchor b, cut small48 frames per second by 7-15% (3 of 3 rounds),
    # as small frames gain most from stacking
    held = solve(anchors[:2], flow)
    fuse(1, *held[1])
    for a, b in zip(anchors, anchors[1:]):
        if b not in held:
            held = {a: held[a], **solve([b], flow)}
        between = list(range(a + 1, b))
        if between:
            starts = [
                FlowField(((b - k) * at_a.samples + (k - a) * at_b.samples) / (b - a))
                for k in between
                for at_a, at_b in zip(held[a], held[b])
            ]
            held.update(solve(between, refine, starts))
        for k in [*between, b]:
            fuse(k, *held[k])
        held = {b: held[b]}
    return VideoCube(fused)
