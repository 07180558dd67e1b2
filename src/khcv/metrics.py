"""Image and flow quality metrics."""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from .capture import _check_number
from .tensors import FlowField, Frame, VideoCube

__all__ = [
    "psnr",
    "ssim",
    "l1_distance",
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


def psnr(a, b, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; identical inputs give math.inf."""
    _check_number(peak, "peak", "> 0")
    a, b = _pair(a, b)
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    offsets = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    taps = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return taps / taps.sum()


def _window_mean(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    # the 2-D Gaussian window is the outer product of the 1-D taps, so one
    # pass per axis gives the dense correlation; the crop keeps the "valid"
    # region, which no border value reaches
    half = taps.size // 2
    out = ndimage.correlate1d(img, taps, axis=0)
    out = ndimage.correlate1d(out, taps, axis=1)
    return out[half:-half, half:-half]


def ssim(a, b, peak: float = 1.0) -> float:
    """Mean structural similarity with an 11x11 Gaussian window (sigma 1.5).

    The window is separable and applied as one 1-D pass per axis.  Local
    statistics are taken over the valid correlation region only, so no
    padding bias enters near the borders.  Inputs must be at least 11 pixels
    in each dimension.
    """
    _check_number(peak, "peak", "> 0")
    a, b = _pair(a, b)
    if a.ndim != 2:
        raise ValueError(f"ssim expects single frames, got shape {a.shape}")
    _check_ssim_window(*a.shape)

    taps = _gaussian_taps(_SSIM_WINDOW, _SSIM_SIGMA)
    mu_a = _window_mean(a, taps)
    mu_b = _window_mean(b, taps)
    mu_aa = _window_mean(a * a, taps)
    mu_bb = _window_mean(b * b, taps)
    mu_ab = _window_mean(a * b, taps)

    var_a = mu_aa - mu_a * mu_a
    var_b = mu_bb - mu_b * mu_b
    cov = mu_ab - mu_a * mu_b

    c1 = (_SSIM_K1 * peak) ** 2
    c2 = (_SSIM_K2 * peak) ** 2
    scores = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(scores.mean())


def l1_distance(a, b) -> float:
    """Mean absolute difference over all samples."""
    a, b = _pair(a, b)
    return float(np.mean(np.abs(a - b)))


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
