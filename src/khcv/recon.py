"""GAP-TV reconstruction of coded video blocks.

Recovers the B frames behind one compressive measurement by alternating a
per-pixel projection onto the measurement constraint with a per-frame total
variation denoising step:

    r   = y - Phi(x) = y - sum_k c_k * x_k
    x_k = x_k + c_k * r / max(R, 1)          with R = sum_k c_k^2
    x_k = tv_denoise(x_k, weight)

The projection drives the data residual to zero wherever at least one mask
is open; the TV step pulls each frame toward a piecewise-smooth image.

The data step runs in float64, so the residual right after a projection,
which the callback reports and the tests require to be non-increasing to
1e-9, stays at rounding level.  Its residual subtracts capture's forward
operator, summed into one (H, W) plane, and the projection adds that plane
back a frame at a time, so beyond its estimate and its copy of the masks a
reconstruction holds no (B, H, W) cube.  The TV step's dual iterations run
in float32, in place on six work planes allocated once per reconstruction;
the result stays within about 2e-7 of a float64 dual at a fraction of its
cost, and bit for bit matches a plain float32 dual loop.  Small frames are
denoised as stacks that share each numpy pass, as many as fit a fixed pixel
budget; each frame comes out as it would alone.  An overflow, such as the
dual's square of a huge measurement, raises FloatingPointError in place.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .capture import _check_count, _check_number, _forward, _raise_fp_errors
from .tensors import CodingCube, Frame, VideoCube

__all__ = [
    "GapTvParams",
    "gap_tv_reconstruct",
    "tv_denoise",
    "total_variation",
    "coverage_map",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GapTvParams:
    """Solver knobs for gap_tv_reconstruct: outer_iters projection and TV
    rounds, each TV step of weight tv_weight (0 skips it, and a positive
    weight is at least 1e-12, below which the float32 dual can overflow on
    the [0, 1] scale) solved by tv_inner_iters dual iterations.  The
    projection has no knob: its normaliser R counts open binary masks, so
    it is 0 or at least 1.

    Every TV step restarts the dual from zero, so tv_inner_iters sets how
    hard a step smooths as much as tv_weight does.  The defaults are the
    one point of a sweep over weights 0.02-0.14 and 1-5 iterations, run
    with 5 flow iterations and 3 warps, that raises both fused PSNR and
    SSIM over the former (0.07, 5) on all four 128x128 quality cases
    (translating texture and moving square, noise 0 and 0.02); at
    FlowParams' defaults it still does.  The scene of acceptance criterion
    6 fuses to 27.988 dB, SSIM 0.8540, and criterion 2 reads 46.40 dB
    against its closed form.  One or two iterations gain more on the
    texture but cut the square's SSIM; at weight 0.02 criterion 2 falls to
    42.59 dB.
    """

    outer_iters: int = 60
    tv_weight: float = 0.035
    tv_inner_iters: int = 3

    def __post_init__(self):
        for name in ("outer_iters", "tv_inner_iters"):
            object.__setattr__(self, name, _check_count(getattr(self, name), name, 1))
        _check_number(self.tv_weight, "tv_weight", "0 or >= 1e-12")


# ===== Total variation denoising =====


def total_variation(img) -> float:
    """Discrete isotropic total variation of one 2-D frame (forward
    differences, replicate border); any other shape raises ValueError."""
    arr = np.asarray(getattr(img, "samples", img), dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"total_variation expects one 2-D frame, got shape {arr.shape}")
    flat = arr.ravel()
    gx, gy = np.empty_like(flat), np.empty_like(flat)
    _flat_grad(flat, arr.shape[1], flat.size, gx, gy)
    return float(np.hypot(gx, gy).sum())


# Frames of one reconstruction are denoised as stacks that share every numpy
# pass, with at most this many pixels per stack (at least one frame): two
# 128x128 frames, one 256x256 frame, up to fourteen 48x48 frames.  The six
# float32 work planes of a two-frame 128x128 stack take 0.8 MB of the 2 MB
# L2 cache.  Micro-runs against one-frame calls, on one pinned CPU of a
# 2-vCPU Xeon, read four 48x48 frames as one stack at 0.32-0.45x the time
# but no steady gain at 128x128 (0.75-1.10x), so the budget is set from
# pipeline runs of the perfbench gate128 workload (128x128, B=16), two
# budgets alternating block by block in one process, on the same CPU.  Two
# frames per stack against one ran faster in 26, 32 and 18 of 40, 40 and 20
# blocks, by +5.0%, +3.3% and +7.9% in the median; four frames per stack
# against two lost 4% (faster in 7 of 20) and 0.8% (9 of 20).
_TV_STACK_PIXELS = 32_768


def _tv_buffers(shape: tuple[int, int], frames: int = 1) -> np.ndarray:
    """The six float32 work planes _tv_denoise needs for stacks of up to
    this many frames of this shape: px, py, gx, gy, the divergence and the
    shift plane -tau * img / weight."""
    return np.empty((6, frames * shape[0] * shape[1]), np.float32)


def _flat_div(px: np.ndarray, py: np.ndarray, w: int, out: np.ndarray, tmp: np.ndarray) -> None:
    # negative adjoint of _flat_grad on flat planes of row length w, frames laid
    # end to end.  Exact while px[:, -1] and py[-1, :] of every frame are zero:
    # the difference that wraps across a row or frame start then reduces to
    # the border term px[:, 0], and py[0, :] of a later frame is reached the
    # same way; py[0, :] of the first frame is added directly
    n = out.size
    out[0] = px[0]
    np.subtract(px[1:], px[:-1], out=out[1:])
    out[:w] += py[:w]
    np.subtract(py[w:], py[:-w], out=tmp[: n - w])
    out[w:] += tmp[: n - w]


def _flat_grad(src: np.ndarray, w: int, n: int, gx: np.ndarray, gy: np.ndarray) -> None:
    # forward differences on flat planes of row length w, frames of n pixels
    # laid end to end and read flat; the pair straddling each row end is
    # zeroed, as is each frame's last row, the replicate border; gy is read as
    # (frames, pixels), so no difference crosses a frame
    np.subtract(src[1:], src[:-1], out=gx[:-1])
    gx[w - 1 :: w] = 0.0
    src_frames = src.reshape(-1, n)
    gy_frames = gy.reshape(-1, n)
    np.subtract(src_frames[:, w:], src_frames[:, :-w], out=gy_frames[:, : n - w])
    gy_frames[:, n - w :] = 0.0


def _tv_denoise(img: np.ndarray, weight: float, inner_iters: int, work: np.ndarray) -> None:
    """Proximal isotropic TV step solved in the dual with fixed step 0.25, in place.

    Replaces each float64 frame of img, one (h, w) frame or an (F, h, w)
    stack, by argmin_u 0.5*||u - img||^2 + weight * TV(u),
    approximated by inner_iters projected gradient iterations on the dual
    field (Chambolle 2004).  The dual iterations run in float32 on the planes
    of work (from _tv_buffers, for at least F frames), so a call allocates
    nothing.  Every frame of a stack comes out bit for bit as it would alone.

    Each iteration is p = (p + tau g) / (1 + |tau g|) with
    g = grad(div(p) - img / weight).  tau is a power of two, so it is folded
    into the divergence plane, div(p) * tau + shift with shift = -tau * img /
    weight, instead of scaling g, and no bit changes.  The denominator is
    built in the gradient planes once p + tau g is formed.  The first
    iteration starts from p = 0, so its tau g is the gradient of the shift
    plane itself.
    """
    h, w = img.shape[-2:]
    n = h * w
    size = img.size
    # p = (px, py) and g = (gx, gy) are also read as (2, size) pairs, so that
    # a step both components take is one numpy call
    p, g = work[0:2, :size], work[2:4, :size]
    px, py, gx, gy, div, shift = work[:, :size]
    tau = 0.25
    np.divide(img.reshape(size), -weight / tau, out=shift, casting="same_kind")
    # a dual started from p = 0 never holds a negative zero; adding 0 turns
    # those of shift positive, as the first iteration reads its gradient
    # straight from shift
    shift += 0.0
    for it in range(inner_iters):
        if it == 0:
            _flat_grad(shift, w, n, px, py)
            np.multiply(p, p, out=g)
        else:
            _flat_div(px, py, w, div, gx)
            div *= tau
            div += shift
            _flat_grad(div, w, n, gx, gy)
            p += g
            g *= g
        # 1 + |tau g|: the square root of a sum of squares is far cheaper than
        # np.hypot in float32
        gx += gy
        np.sqrt(gx, out=gx)
        gx += 1.0
        p /= gx
    _flat_div(px, py, w, div, gx)
    div *= np.float32(weight)
    np.subtract(img, div.reshape(img.shape), out=img)


@_raise_fp_errors
def tv_denoise(frame: Frame, weight: float, inner_iters: int = GapTvParams.tv_inner_iters) -> Frame:
    """Isotropic TV denoising of a single frame.

    The dual iterations run in float32; the input is read and the correction
    applied in float64.  gap_tv_reconstruct runs the same kernel on stacks
    of its frames, with the same result for each frame, and keeps its data
    step in float64, where the post-projection residual the tests check must
    stay at rounding level.

    Args:
        frame: input image.
        weight: TV weight; 0 returns the input unchanged, and a positive
            weight is at least 1e-12, as GapTvParams.tv_weight.
        inner_iters: dual projected-gradient iterations, an integer >= 1
            (a bool is not one); defaults to GapTvParams().tv_inner_iters,
            the count gap_tv_reconstruct runs.

    Returns:
        Denoised frame.  The discrete TV of the result never exceeds that of
        the input.  A dual past float32's range raises FloatingPointError.
    """
    _check_number(weight, "weight", "0 or >= 1e-12")
    inner_iters = _check_count(inner_iters, "inner_iters", 1)
    img = frame.samples.astype(np.float64)
    if weight > 0:
        _tv_denoise(img, float(weight), inner_iters, _tv_buffers(img.shape))
    return Frame(img)


# ===== GAP-TV solver =====


def _coverage(c: CodingCube) -> np.ndarray:
    # the count of open masks at each pixel, summed straight from the uint8 cube
    return c.samples.sum(axis=0, dtype=np.float64)


def coverage_map(c: CodingCube) -> Frame:
    """Per-pixel count of open masks; 0 marks pixels no mask observes."""
    return Frame(_coverage(c))


@_raise_fp_errors
def gap_tv_reconstruct(
    y: Frame,
    c: CodingCube,
    params: GapTvParams | None = None,
    callback: Callable[[int, float], None] | None = None,
) -> VideoCube:
    """Recover the coded block behind one compressive frame.

    Args:
        y: compressive measurement.
        c: coding cube used during capture.
        params: solver settings; defaults to GapTvParams().
        callback: optional hook called as callback(iteration, residual_norm)
            with the L2 data residual measured right after each projection.

    Returns:
        VideoCube with one frame per mask plane, clamped to [0, 1].
    """
    params = params or GapTvParams()
    if y.samples.shape != c.samples.shape[1:]:
        raise ValueError(f"measurement {y.samples.shape} does not match mask planes {c.samples.shape[1:]}")

    masks = c.samples.astype(np.float64)
    meas = y.samples.astype(np.float64)
    coverage = _coverage(c)
    zero_cov = int((coverage == 0).sum())
    if zero_cov:
        logger.warning(
            "%d of %d pixels have zero mask coverage; the data step leaves them "
            "at their initialization",
            zero_cov,
            coverage.size,
        )
    # coverage counts the masks open at each pixel, so it is 0 or at least 1;
    # where it is 0 every mask is closed and the update is 0 whatever the divisor
    safe_cov = np.maximum(coverage, 1.0)

    x = masks * (meas / safe_cov)
    plane = np.empty_like(meas)
    product = np.empty_like(meas)
    stack = min(x.shape[0], max(1, _TV_STACK_PIXELS // meas.size))
    work = _tv_buffers(meas.shape, stack)

    def residual() -> np.ndarray:  # meas - Phi(x), with the operator encode applies
        return np.subtract(meas, _forward(masks, x, out=plane), out=plane)

    for it in range(params.outer_iters):
        residual()
        plane /= safe_cov
        for mask, frame in zip(masks, x):
            np.multiply(mask, plane, out=product)
            frame += product
        if callback is not None:
            callback(it, float(np.linalg.norm(residual())))
        if params.tv_weight > 0.0:
            for k in range(0, x.shape[0], stack):
                _tv_denoise(x[k : k + stack], params.tv_weight, params.tv_inner_iters, work)

    # the float32 result is made next; the mask copy and the work planes go
    # first, which keeps them out of the peak
    del masks, work
    np.clip(x, 0.0, 1.0, out=x)
    return VideoCube(x)
