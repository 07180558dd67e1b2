"""Image and flow quality metrics."""

from __future__ import annotations

import math

import numpy as np

from .capture import _check_number
from .tensors import FlowField, Frame, VideoCube

__all__ = [
    "psnr",
    "ssim",
    "l1_distance",
    "score_frame",
    "mean_epe",
]

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03


def _check_ssim_window(height: int, width: int) -> None:
    """Raise ValueError unless frames of this size hold the SSIM window."""
    if min(height, width) < _SSIM_WINDOW:
        raise ValueError(f"frames are {height}x{width} px but SSIM needs both sides at least {_SSIM_WINDOW} px")


def _data(x) -> np.ndarray:
    if isinstance(x, (Frame, VideoCube)):
        return x.samples
    return np.asarray(x)


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a, b = _data(a), _data(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a.astype(np.float64), b.astype(np.float64)


def _psnr_of(mse: float, peak: float) -> float:
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def psnr(a, b, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; identical inputs give math.inf."""
    _check_number(peak, "peak", "> 0")
    a, b = _pair(a, b)
    return _psnr_of(float(np.mean((a - b) ** 2)), peak)


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    offsets = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    taps = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return taps / taps.sum()


def _window_tile(taps: np.ndarray, outputs: int) -> tuple[np.ndarray, np.ndarray]:
    """The (outputs + taps - 1, outputs) band whose column c holds the taps
    in rows c to c + taps - 1, and a C-contiguous copy of its transpose,
    both read-only.  x @ band takes `outputs` valid correlations along a
    row of x from outputs + taps - 1 samples."""
    band = np.zeros((outputs + taps.size - 1, outputs))
    for c in range(outputs):
        band[c : c + taps.size, c] = taps
    band_t = np.ascontiguousarray(band.T)
    band.flags.writeable = band_t.flags.writeable = False
    return band, band_t


# valid outputs per block of the window mean: a 32-wide band (42x32 float64,
# about 10 KB) ran SSIM 14-24% faster than a 64-wide one from 128x128 to
# 512x512, and 17% slower only at 48x48, which one 64-wide block covers
_TILE = 32
_BAND, _BAND_T = _window_tile(_gaussian_taps(_SSIM_WINDOW, _SSIM_SIGMA), _TILE)


def _window_mean(img: np.ndarray) -> np.ndarray:
    """The Gaussian window mean of a 2-D float64 frame over the valid
    region, which no border value reaches: (h - 10, w - 10) values.

    The 2-D window is the outer product of the 1-D taps, so one pass per
    axis gives the dense correlation.  Each pass is a matrix product with
    the cached band, one block of _TILE outputs at a time, a short last
    block taking the band's leading corner, so the work per pixel does not
    grow with the frame's side.
    """
    span = _SSIM_WINDOW - 1
    h, w = img.shape[0] - span, img.shape[1] - span
    rows = np.empty((h, img.shape[1]))
    for i in range(0, h, _TILE):
        m = min(_TILE, h - i)
        np.matmul(_BAND_T[:m, : m + span], img[i : i + m + span], out=rows[i : i + m])
    out = np.empty((h, w))
    for j in range(0, w, _TILE):
        m = min(_TILE, w - j)
        np.matmul(rows[:, j : j + m + span], _BAND[: m + span, :m], out=out[:, j : j + m])
    return out


def _moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A float64 frame with its window means of x and of x * x."""
    return x, _window_mean(x), _window_mean(x * x)


def _ssim_of(a: tuple, b: tuple, peak: float) -> float:
    """Mean SSIM of two frames given as their _moments.  The score is
    symmetric in a and b bit for bit."""
    x, mu_x, mu_xx = a
    y, mu_y, mu_yy = b
    xy, xx, yy = mu_x * mu_y, mu_x * mu_x, mu_y * mu_y
    cov = _window_mean(x * y) - xy
    c1 = (_SSIM_K1 * peak) ** 2
    c2 = (_SSIM_K2 * peak) ** 2
    scores = ((2 * xy + c1) * (2 * cov + c2)) / ((xx + yy + c1) * ((mu_xx - xx) + (mu_yy - yy) + c2))
    return float(scores.mean())


def ssim(a, b, peak: float = 1.0) -> float:
    """Mean structural similarity with an 11x11 Gaussian window (sigma 1.5).

    The window is separable; each axis's pass is a product with a cached
    band of the 1-D taps, a tile of 32 outputs at a time.  Local statistics
    are taken over the valid correlation region only, so no padding bias
    enters near the borders.  Inputs must be at least 11 pixels in each
    dimension.
    """
    _check_number(peak, "peak", "> 0")
    a, b = _pair(a, b)
    if a.ndim != 2:
        raise ValueError(f"ssim expects single frames, got shape {a.shape}")
    _check_ssim_window(*a.shape)
    return _ssim_of(_moments(a), _moments(b), peak)


def l1_distance(a, b) -> float:
    """Mean absolute difference over all samples."""
    a, b = _pair(a, b)
    return float(np.mean(np.abs(a - b)))


def score_frame(truth, *candidates) -> list[tuple[float, float, float]]:
    """psnr, ssim and l1_distance of each candidate frame against one truth
    frame, on the [0, 1] scale (peak 1), as one (psnr, ssim, l1) tuple per
    candidate in order.

    Each tuple is what psnr(c, truth), ssim(c, truth) and
    l1_distance(c, truth) return, bit for bit.  The truth's float64 copy and
    its two window means are built once for all candidates, and PSNR and L1
    come from one difference per candidate.
    """
    t = _data(truth).astype(np.float64)
    if t.ndim != 2:
        raise ValueError(f"score_frame expects single frames, got shape {t.shape}")
    _check_ssim_window(*t.shape)
    ref = _moments(t)
    scores = []
    for c in candidates:
        c = _data(c)
        if c.shape != t.shape:
            raise ValueError(f"shape mismatch: {c.shape} vs {t.shape}")
        c = c.astype(np.float64)
        diff = c - t
        mse = float(np.mean(diff * diff))
        l1 = float(np.mean(np.abs(diff, out=diff)))
        scores.append((_psnr_of(mse, 1.0), _ssim_of(_moments(c), ref, 1.0), l1))
    return scores


def mean_epe(f: FlowField, g: FlowField, mask: np.ndarray | None = None) -> float:
    """Mean endpoint error between two flow fields, optionally masked."""
    if f.u.shape != g.u.shape:
        raise ValueError(f"flow shape mismatch: {f.u.shape} vs {g.u.shape}")
    du = f.u.astype(np.float64) - g.u.astype(np.float64)
    dv = f.v.astype(np.float64) - g.v.astype(np.float64)
    epe = np.hypot(du, dv)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != epe.shape:
            raise ValueError(f"mask shape {mask.shape} does not match flow {epe.shape}")
        if not mask.any():
            raise ValueError("mask selects no pixels")
        epe = epe[mask]
    return float(epe.mean())
