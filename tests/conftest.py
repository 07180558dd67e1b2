"""Shared synthetic data builders for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from khcv import CodingCube, Frame, VideoCube, generate_masks


def smooth_texture(h: int, w: int, seed: int, blur: float = 1.5) -> np.ndarray:
    """Band-limited random texture in [0.1, 0.9], float32."""
    rng = np.random.default_rng(seed)
    t = ndimage.gaussian_filter(rng.random((h, w)), blur)
    t = (t - t.min()) / (t.max() - t.min())
    return (0.1 + 0.8 * t).astype(np.float32)


def shifted_pair(h: int, w: int, dx: int, dy: int, seed: int, blur: float = 1.5):
    """Target/source frames whose true flow is exactly (dx, dy).

    Both frames are windows into one larger texture, so the translation is
    exact everywhere: source(p + (dx, dy)) == target(p).
    """
    pad = max(abs(dx), abs(dy)) + 8
    big = smooth_texture(h + 2 * pad, w + 2 * pad, seed, blur)
    target = big[pad : pad + h, pad : pad + w]
    source = big[pad - dy : pad - dy + h, pad - dx : pad - dx + w]
    return Frame(target), Frame(source)


def translating_scene(
    h: int, w: int, n: int, step: tuple[int, int] = (1, 0), seed: int = 9, blur: float = 1.5
) -> VideoCube:
    """Scene whose content slides `step` pixels per frame (window into one texture)."""
    pad = n * max(abs(step[0]), abs(step[1])) + 8
    big = smooth_texture(h + 2 * pad, w + 2 * pad, seed, blur)
    frames = []
    for t in range(n):
        oy, ox = pad + t * step[1], pad + t * step[0]
        frames.append(big[oy : oy + h, ox : ox + w])
    return VideoCube(np.stack(frames))


def moving_square_scene(h: int, w: int, n: int) -> VideoCube:
    """Bright square sliding over a dark background."""
    frames = []
    for t in range(n):
        img = np.full((h, w), 0.1, np.float32)
        x0, y0 = 12 + 3 * t, 20 + 2 * t
        img[y0 : y0 + 16, x0 : x0 + 16] = 0.9
        frames.append(img)
    return VideoCube(np.stack(frames))


def full_coverage_masks(seed: int, h: int, w: int, frames: int) -> CodingCube:
    """Bernoulli masks with uncovered pixels patched open in the first plane."""
    base = generate_masks(seed, h, w, frames)
    planes = np.array(base.samples)
    planes[0][planes.sum(axis=0) == 0] = 1
    return CodingCube(planes)


def central_fraction_mask(h: int, w: int, keep: float = 0.8) -> np.ndarray:
    """Boolean mask selecting the central keep-fraction of each dimension."""
    mh = int(round(h * (1.0 - keep) / 2.0))
    mw = int(round(w * (1.0 - keep) / 2.0))
    out = np.zeros((h, w), dtype=bool)
    out[mh : h - mh, mw : w - mw] = True
    return out


def transposed(a: np.ndarray) -> np.ndarray:
    """A contiguous copy of a with its last two axes swapped: each plane transposed."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2))


def float_planes(max_stack: int) -> st.SearchStrategy:
    """float64 (h, w) images and (K, h, w) stacks of up to max_stack planes,
    sides 1-40, odd and even, samples in [-1e3, 1e3], -0.0 included."""
    shapes = st.tuples(st.integers(1, 40), st.integers(1, 40)) | st.tuples(
        st.integers(1, max_stack), st.integers(1, 40), st.integers(1, 40)
    )
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=st.floats(-1e3, 1e3, width=32)))
