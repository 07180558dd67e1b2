"""Key-frame fusion: upgrade coarse coded-block reconstructions with the two
sharp uncoded key frames.

fuse_video is the one fusion driver.  For each intermediate frame k = 1..B
of a block it finds the flow from that frame to both key frames, warps the
keys, as captured, onto the frame grid with those fields, and blends the
warps under a visibility map and a temporal weight tau = k / (B + 2).
Pixels neither key explains well fall back to the intermediate
reconstruction.  warp, visibility_map and blend are its steps, public so
that each can be used and checked alone.  Fusion has no settings of its
own: its tuning values are measured module constants.

fuse_video runs those steps on arrays through the same helpers as the
public functions, so each formula is written once.  It pads each key for
the warp once per block, not once per frame, and builds one Frame per
intermediate frame, for its flow solve.  Each warp, visibility map and
blend is rounded to float32 and checked where the public step's Frame or
VisibleMap would be, so the fused frames are bit for bit those of the
public steps; a VisibleMap is built only for the callback.

The warps' absolute errors are averaged over 3x3 boxes with replicate
borders by running sums in numpy, along rows and then columns, added in
the order scipy.ndimage.uniform_filter adds them, so the visibility maps
are bit for bit those of that filter.  Both errors of a frame are filtered
as one stack.

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

from .capture import HybridMeasurement
from .flow import FlowField, FlowParams, _pad_edge, _separable, _warp_by_flow, estimate_flows
from .tensors import Frame, VideoCube, _stored

__all__ = [
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

# Visibility is a logistic of slope _VISIBILITY_SLOPE over the difference of
# the warps' absolute errors, box-filtered over (2 _ERROR_RADIUS + 1)^2 px; a
# pixel whose smaller filtered error exceeds _FALLBACK_THRESHOLD keeps the
# intermediate sample.  Each varied alone on the same four cases:
#   slope 20, radius 1, 0.15 27.988/0.8540 25.692/0.9631 25.017/0.8024 25.583/0.8700
#   slope 10                 28.018/0.8551 25.649/0.9602 25.013/0.8034 25.545/0.8671
#   slope 40                 27.855/0.8511 25.696/0.9638 24.929/0.7995 25.595/0.8723
#   radius 0                 27.196/0.8329 25.677/0.9614 24.101/0.7631 25.615/0.8769
#   radius 2                 28.271/0.8590 25.688/0.9628 25.553/0.8176 25.580/0.8693
#   no fallback              28.192/0.8577 23.358/0.9664 25.505/0.8162 23.368/0.8703
#   threshold 0.1            26.134/0.7932 25.453/0.9518 23.104/0.7079 25.336/0.8596
#   threshold 0.2            28.185/0.8576 25.856/0.9720 25.485/0.8157 25.696/0.8762
#   threshold 0.25           28.192/0.8577 25.781/0.9737 25.505/0.8162 25.610/0.8775
# Without the fallback both squares lose 2.2-2.3 dB, and without the box
# filter both textures lose 0.8-0.9 dB.  Only thresholds 0.2 and 0.25 are at
# least the first row on all four cases; they are yet to be measured on the
# benchmark workloads.
_VISIBILITY_SLOPE = 20.0
_ERROR_RADIUS = 1
_FALLBACK_THRESHOLD = 0.15


@dataclass(frozen=True, eq=False)
class VisibleMap(Frame):
    """Per-pixel weight in [0, 1]; 1 trusts the left key, 0 the right."""

    _what = "visibility map"

    def __post_init__(self):
        super().__post_init__()
        _check_unit(self.samples)


def _check_unit(samples: np.ndarray) -> np.ndarray:
    """samples, unless a value lies outside [0, 1]: the VisibleMap rule."""
    if samples.min() < 0.0 or samples.max() > 1.0:
        raise ValueError("visibility values must lie in [0, 1]")
    return samples


def _as_frame(x: np.ndarray, cls: type[Frame] = Frame) -> np.ndarray:
    """The samples cls(x) would hold, rounded to float32 and checked as
    Frame's constructor checks them, without building the object."""
    return _stored(x, cls._dtype, cls._ndim, cls._what)


def warp(image: Frame, f: FlowField) -> Frame:
    """Backward-warp an image: out(p) = image(p + f(p)), bilinear, replicate.

    A zero field reproduces the image bit for bit.
    """
    if image.samples.shape != f.u.shape:
        raise ValueError(f"image {image.samples.shape} and flow {f.u.shape} disagree")
    return Frame(_warp_by_flow(_pad_edge(image.samples), f.u, f.v))


def visibility_map(w_left: Frame, w_right: Frame, target: Frame) -> VisibleMap:
    """Per-pixel preference for the left warp over the right one.

    Box-filters the absolute photometric error of each warp against the
    target and squashes their difference through a logistic of slope
    _VISIBILITY_SLOPE.  Swapping the two warps complements the map exactly:
    v -> 1 - v.
    """
    if w_left.samples.shape != target.samples.shape or w_right.samples.shape != target.samples.shape:
        raise ValueError("warped keys and target must share one shape")
    return VisibleMap(_visibility(_smoothed_errors(w_left.samples, w_right.samples, target.samples)))


def _smoothed_errors(w_left: np.ndarray, w_right: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Box-filtered absolute photometric error of each warp against the
    target, all three float32 samples, formed in float64: a (2, h, w)
    stack, left warp first."""
    errors = np.empty((2, *target.shape))
    np.subtract(w_left, target, out=errors[0], dtype=np.float64)
    np.subtract(w_right, target, out=errors[1], dtype=np.float64)
    return _box_mean(np.abs(errors, out=errors), _ERROR_RADIUS)


def _box_mean(x: np.ndarray, radius: int) -> np.ndarray:
    """The mean of each (2 radius + 1)^2 box of x, one (h, w) image or a
    (K, h, w) stack, with replicate borders, for radius >= 1: bit for bit
    scipy.ndimage.uniform_filter of size 2 radius + 1 and mode "nearest"
    over each plane, as it is formed the same way.

    Along axis -2 and then axis -1, each line p, padded by radius
    replicated samples at both ends, gets the running sum
    s_0 = ((0 + p_0) + p_1) + ... + p_2radius and
    s_i = s_(i-1) + (p_(i+2radius) - p_(i-1)), accumulated by np.cumsum,
    and is divided by 2 radius + 1.
    """
    size = 2 * radius + 1

    def line(padded: np.ndarray, out: np.ndarray) -> None:
        n = out.shape[-1]
        # 0 + p_0 turns a -0.0 positive, as a sum started from 0 does
        np.add(padded[..., 0], 0.0, out=out[..., 0])
        for j in range(1, size):
            out[..., 0] += padded[..., j]
        np.subtract(padded[..., size:], padded[..., : n - 1], out=out[..., 1:])
        np.cumsum(out, axis=-1, out=out)
        out /= size

    return _separable(x, radius, 1, line)


def _visibility(errors: np.ndarray) -> np.ndarray:
    """The float32 samples of the visibility map of the (2, h, w) smoothed
    errors, checked as VisibleMap checks them: a logistic of slope
    _VISIBILITY_SLOPE over the error difference, the visibility_map rule."""
    e_left, e_right = errors
    diff = e_right - e_left
    # evaluate the logistic through exp(-|x|) so that negating the argument
    # complements the result bit for bit: 1 / (1 + exp(-slope |diff|)) where
    # diff >= 0, and 1 less that elsewhere
    v = np.abs(diff)
    v *= -_VISIBILITY_SLOPE
    np.exp(v, out=v)
    v += 1.0
    np.divide(1.0, v, out=v)
    np.subtract(1.0, v, out=v, where=diff < 0.0)
    return _check_unit(_as_frame(v, VisibleMap))


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
    return Frame(_blend(w_left.samples, w_right.samples, v.samples, tau))


def _blend(w_left: np.ndarray, w_right: np.ndarray, v: np.ndarray, tau: float) -> np.ndarray:
    """The blend formula on float32 samples, in float64."""
    left_w = v.astype(np.float64)
    right_w = np.subtract(1.0, left_w)
    right_w *= tau
    left_w *= 1.0 - tau
    den = left_w + right_w
    left_w *= w_left
    right_w *= w_right
    left_w += right_w
    left_w /= den
    return left_w


def _check_intermediate(m: HybridMeasurement, x_mid: VideoCube) -> None:
    """Raise ValueError unless x_mid holds B frames of the measurement's size."""
    expected = (m.schedule.B, *m.y.samples.shape)
    if x_mid.samples.shape != expected:
        raise ValueError(f"intermediate cube has shape {x_mid.samples.shape}, the measurement needs {expected}")


def fuse_video(
    m: HybridMeasurement,
    x_mid: VideoCube,
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
    current interval's fields are held.  A pixel that neither warped key
    explains within _FALLBACK_THRESHOLD keeps the intermediate sample.

    Args:
        m: the measurement, whose schedule gives B and whose key frames are
            warped onto each intermediate frame.
        x_mid: intermediate reconstruction of the block, (B, h, w).
        flow: flow solver settings; defaults to FlowParams().
        callback: optional hook called as
            callback(k, flow_left, flow_right, visibility) once frame k is
            fused, with the fields and visibility map that frame used (the
            refined fields, for a frame between anchors).

    Returns:
        VideoCube of the fused frames, clamped to [0, 1].
    """
    _check_intermediate(m, x_mid)
    B = m.schedule.B
    flow = flow or FlowParams()
    refine = replace(flow, pyramid_levels=1, warps_per_level=_REFINE_WARPS)
    keys = (m.z_left, m.z_right)
    padded_left, padded_right = (_pad_edge(key.samples) for key in keys)

    def solve(
        ks: list[int], solver: FlowParams, starts: list[FlowField] | None = None
    ) -> dict[int, tuple[FlowField, FlowField]]:
        # one stack of frames ks x keys; k -> (left field, right field).  Each
        # frame k is solved in exactly one stack, so this is the one Frame
        # built for it
        targets = [Frame(x_mid.samples[k - 1]) for k in ks]
        fields = estimate_flows([t for t in targets for _ in keys], [*keys] * len(ks), solver, starts=starts)
        return {k: (fields[2 * i], fields[2 * i + 1]) for i, k in enumerate(ks)}

    fused = np.empty_like(x_mid.samples)

    def fuse(k: int, f_left: FlowField, f_right: FlowField) -> None:
        # warp, visibility_map and blend on arrays: each result is rounded to
        # float32 and checked where the Frame or VisibleMap it stands for is
        x_k = x_mid.samples[k - 1]
        w_left = _as_frame(_warp_by_flow(padded_left, f_left.u, f_left.v))
        w_right = _as_frame(_warp_by_flow(padded_right, f_right.u, f_right.v))
        errors = _smoothed_errors(w_left, w_right, x_k)
        v = _visibility(errors)
        blended = _as_frame(_blend(w_left, w_right, v, k / (B + 2.0)))
        bad = np.minimum(*errors) > _FALLBACK_THRESHOLD
        np.clip(np.where(bad, x_k, blended), 0.0, 1.0, out=fused[k - 1])
        if callback is not None:
            callback(k, f_left, f_right, VisibleMap(v))

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
