"""Dense optical flow estimation with a coarse-to-fine Horn-Schunck solver.

A flow field f maps a source image onto a target grid through backward
warping: out(p) = source(p + f(p)).  estimate_flows returns, for each pair
of frames, the field that makes that warp match the target.  The solver
builds binomially filtered image pyramids and, at each level, linearizes
the data term around the current warp a few times.  Each linearization is
the sparse symmetric Horn-Schunck system, solved by a fixed number of
preconditioned conjugate gradient (PCG) iterations started from the current
field.  The orthonormal 2-D DCT-II diagonalizes the system's smoothness
term, the Horn-Schunck average with replicate borders (Simchony, Chellappa
& Shao, IEEE TPAMI 1990), so PCG keeps its residual and search direction in
that basis: the smoothness term is a product with its eigenvalues there,
and the preconditioner, which inverts it plus the mean of the data term, is
a division.  Only the data term and the field update go back to the pixel
grid.  The field is upsampled between levels.  The coarsest level starts
from zero, or from a field the caller gives, such as a guess interpolated
from nearby frames.

Each pyramid level is the one below filtered with Burt & Adelson's 5-tap
binomial [1, 4, 6, 4, 1] / 16 (IEEE Trans. Commun. 1983) along both axes,
with replicate borders, and kept at the even rows and columns.  The numpy
decimation forms only the kept rows, then only the kept columns, and sums
each sample in the order of scipy.ndimage.correlate1d's loop over a
symmetric kernel, so the levels are bit for bit those of that filter; the
package imports no scipy.  On one core of a 2-vCPU Xeon it takes about half
the time of the two correlate1d calls on stacks of 128x128 planes, and
about as long on stacks of 48x48.

Every warp, the solver's, fusion's and the upsampling's, goes through one
bilinear sampler with replicate borders.  It reads a copy of the source
padded by one replicated row and column, so that every sample's four
corners are gathered with one flat index, from views of the padded array
offset by 0, 1, w + 1 and w + 2.  A level solve pads its sources once and
warps them once per linearization; sample_bilinear pads per call.

The data term (warp, image gradients and their product with the warp
error) is formed in float64; the PCG iterations run in float32 with float64
inner products.  Each 2-D DCT is a pair of float32 matrix products with the
orthonormal DCT-II matrix of each side: dct(x) = C_h x C_w^T and
idct(X) = C_h^T X C_w.  A level's matrices and eigenvalues are built once
per frame size and alpha and cached.  On the stacks of the pyramid levels
below 128x128 they take a quarter to a half of the time of scipy.fft's DCTs
(pocketfft), and a tenth to a third more at 128x128, on one core of a
2-vCPU AVX-512 Xeon; unlike pocketfft they run under numpy's floating-point
checks.

estimate_flows solves many pairs of one frame size together: at each
pyramid level their systems run as stacks that share every numpy pass, as
many per stack as keep the work arrays within a fixed budget, while inner
products and step lengths stay per system.  Every system runs every
iteration, and none's arithmetic depends on another's, so each pair's field
is bit for bit the field of a one-pair call: a matrix product over a stack
runs one product per plane.  An overflow raises FloatingPointError in
place, the transforms' included.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .capture import _check_count, _check_number, _raise_fp_errors
from .tensors import FlowField, Frame

__all__ = [
    "FlowParams",
    "estimate_flows",
    "flow_to_color",
    "sample_bilinear",
]

_MIN_COARSE_SIDE = 8

# The systems of one pyramid level are solved in stacks of at most
# max(1, _PCG_STACK_ELEMENTS // (2 h w)), the systems whose float32 fields
# fit this many elements, so that the PCG work arrays of a stack stay within
# the 2 MB L2 cache: one system per stack at 128x128 and above, four at
# 64x64, seven at 48x48.  Measured with the DCTs as matrix products, on one
# pinned CPU of a 2-vCPU Xeon with OPENBLAS_NUM_THREADS=1, over 30
# interleaved runs of estimate_flows on shifted pairs: with no budget, one
# stack per level took 1.20x this budget's time for four 128x128 one-level
# solves, as fusion's refinements run (quartiles 1.15-1.28, faster in 0 of
# 30), 1.14x for two (4 of 30) and 1.07x for four through three levels
# (3 of 30); four 48x48 pairs, one stack either way, read the same (14 of
# 30).  One system per stack took 2.1x the time at 48x48 and 2.4x at 32x32.
_PCG_STACK_ELEMENTS = 36_000

# Burt & Adelson's 5-tap binomial [1, 4, 6, 4, 1] / 16, applied before every
# 2x downsample: the weights of the centre sample, of its two neighbours and
# of the two samples beyond them
_BINOMIAL_CENTRE, _BINOMIAL_INNER, _BINOMIAL_OUTER = 6 / 16, 4 / 16, 1 / 16


@dataclass(frozen=True)
class FlowParams:
    """Settings for the pyramidal Horn-Schunck solver.

    alpha weighs the smoothness term against the data term on the [0, 1]
    intensity scale; larger values give smoother fields.  Each level runs
    warps_per_level linearizations of the data term (float64).  Each
    linearization is solved by exactly iters_per_level preconditioned
    conjugate-gradient iterations (float32), with no tolerance stop, so the
    work per call depends only on the image size and these settings.  The
    counts are integers >= 1 and alpha a finite number > 0 (neither a bool).

    The defaults are what fusion runs: alpha this strong keeps the
    reconstruction artifacts of GAP-TV targets from dominating the data
    term.  The DCT preconditioner solves each linearization almost exactly
    in 2 iterations, and the data term holds only near the field it is
    linearized around, so the budget goes to warps.  With 2 iterations and
    4 warps the 128x128 scene of acceptance criterion 6, anchor frames and
    refinements included, fuses to 27.988 dB, SSIM 0.8540, at GapTvParams'
    defaults, against 27.924 dB, SSIM 0.8507 with 5 iterations and 3 warps,
    which take 30 DCTs per system and level where these take 16, besides
    one of the level's start field.  Each of
    the four 128x128 quality cases GapTvParams names gains fused PSNR over
    (5, 3), and only the square at noise 0.02 loses SSIM, 0.0008.  Against
    (2, 4) on those cases, 1 iteration loses up to 0.36 dB, 3 or 4 move
    each by 0.07 dB or less, 3 warps lose up to 0.15 dB, and 5 warps gain
    up to 0.06 dB on the texture but lose 0.016 dB on the square.
    """

    pyramid_levels: int = 3
    alpha: float = 0.2
    iters_per_level: int = 2
    warps_per_level: int = 4

    def __post_init__(self):
        _check_number(self.alpha, "alpha", "> 0")
        for name in ("pyramid_levels", "iters_per_level", "warps_per_level"):
            object.__setattr__(self, name, _check_count(getattr(self, name), name, 1))


def _check_flow_fits(height: int, width: int, params: FlowParams) -> None:
    """Raise ValueError unless frames of this size fit the pyramid of
    params, whose coarsest level keeps both sides at least 8 px, and unless
    params.alpha leaves the smoothness term invertible and finite in float32
    there.

    The finest level holds both extreme eigenvalues.  The smallest off the
    constant mode, alpha^2 (2/3) (1 - cos(pi / n)) with n the longer side,
    bounds alpha below: a flat pair adds no data term to it, so the
    preconditioner divides by it alone, and its float32 reciprocal must be
    finite.  The largest, just under alpha^2 4/3, bounds alpha above: it
    must itself be finite in float32, as the solver stores it there.
    """
    min_side = _MIN_COARSE_SIDE * 2 ** (params.pyramid_levels - 1)
    if min(height, width) < min_side:
        raise ValueError(
            f"frames are {height}x{width} px but {params.pyramid_levels} flow pyramid levels "
            f"need both sides at least {min_side} px"
        )
    # the eigenvalues as the solver stores them; a huge alpha overflows here
    with np.errstate(all="ignore"):
        eig = _smoothness_eigenvalues(height, width, params.alpha * params.alpha)
        stored = eig.astype(np.float32)
        smallest = min(stored[0, 1], stored[1, 0])
        if not np.isfinite(np.reciprocal(smallest)):
            raise ValueError(
                f"alpha {params.alpha} is too small for {height}x{width} px frames: the float32 "
                f"reciprocal of its smallest smoothness eigenvalue, {float(smallest):.3g}, is not finite"
            )
    if not np.isfinite(stored[-1, -1]):
        raise ValueError(
            f"alpha {params.alpha} is too large: its largest smoothness eigenvalue, "
            f"{float(eig[-1, -1]):.3g}, is not finite in float32"
        )


def _pad_edge(img: np.ndarray) -> np.ndarray:
    """img, one (h, w) image or a (K, h, w) stack, with its last row and
    column replicated once more: an (h + 1, w + 1) copy of each plane, in
    which every pixel has a +1 neighbour along both axes."""
    h, w = img.shape[-2:]
    padded = np.empty((*img.shape[:-2], h + 1, w + 1), img.dtype)
    padded[..., :h, :w] = img
    padded[..., :h, w] = img[..., w - 1]
    padded[..., h, :] = padded[..., h - 1, :]
    return padded


def _sample_padded(padded: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sample_bilinear of the image that _pad_edge padded into padded.

    Each sample's top-left corner has one flat index i into the padded
    plane(s), row length wp = w + 1, formed in float64 and converted once;
    its other three corners sit at i + 1, i + wp and i + wp + 1, and are
    gathered with that same index from the flat array's views offset by
    those amounts.  A corner on the last row or column reads the padding,
    a copy of its neighbour, as replicate borders ask.
    """
    hp, wp = padded.shape[-2:]
    x = np.clip(x, 0.0, wp - 2.0)
    y = np.clip(y, 0.0, hp - 2.0)
    x0 = np.floor(x, dtype=np.float64)
    y0 = np.floor(y, dtype=np.float64)
    # the corner of a coordinate of -0.0 is 0, not -0.0, so that its weight
    # is -0.0 - 0 = -0.0, as an integer corner makes it
    x0 += 0.0
    y0 += 0.0
    index = y0 * wp + x0
    if padded.ndim == 3:  # plane k starts k*hp*wp on in the flat stack
        index = index + np.arange(0, padded.size, hp * wp, dtype=np.float64).reshape(-1, 1, 1)
    i = index.astype(np.intp)
    # the clipped coordinates turn into the weights in place, keeping their
    # dtype, and each temporary goes as soon as it is used, which keeps a
    # stack's temporaries few
    wx = np.subtract(x, x0, out=x)
    wy = np.subtract(y, y0, out=y)
    del x0, y0, index
    flat = padded.ravel()
    # top = v00 + wx * (v01 - v00), the difference in the image's dtype and
    # the rest in that of wx * difference, as are bottom and the result;
    # each in-place step keeps its operands' dtype, and a + b is b + a
    v00 = np.take(flat, i)
    v01 = np.take(flat[1:], i)
    v01 -= v00
    top = wx * v01
    top += v00
    del v00, v01
    v10 = np.take(flat[wp:], i)
    v11 = np.take(flat[wp + 1 :], i)
    del i
    v11 -= v10
    bottom = wx * v11
    bottom += v10
    del v10, v11
    # top + wy * (bottom - top); wy may be wider than top
    bottom -= top
    out = wy * bottom
    out += top
    return out


def sample_bilinear(img: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sample img at continuous (x, y) positions with replicate borders.

    img is one (h, w) image or a (K, h, w) stack of them; for a stack, x and
    y broadcast against (K, ...) and plane k is sampled at x[k], y[k].  Uses
    the lerp form a + t*(b - a), with b - a in img's dtype and the rest in
    the dtype numpy promotes img and the weights t to (float64 for float64
    coordinates), so sampling at integer coordinates reproduces the stored
    values exactly.  The four corners of every sample are gathered
    with one index from a copy of img padded by one replicated row and
    column; the flow solver pads each source once and warps it many times.
    """
    return _sample_padded(_pad_edge(img), x, y)


def _warp_by_flow(padded: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Backward-warp the image, or stack, that _pad_edge padded into padded:
    out(p) = img(p + (u, v)(p)), sampled bilinearly."""
    hp, wp = padded.shape[-2:]
    return _sample_padded(padded, np.arange(wp - 1) + u, np.arange(hp - 1)[:, None] + v)


def _separable(
    img: np.ndarray, radius: int, step: int, line: Callable[[np.ndarray, np.ndarray], None]
) -> np.ndarray:
    """Filter each plane of img, one (h, w) image or a (K, h, w) stack, along
    axis -2 and then along axis -1, with replicate borders, keeping every
    step-th sample from the first along both: a float64 result of
    ceil(h / step) x ceil(w / step) per plane.

    line(padded, out) filters along the last axis: out[..., i] from
    padded[..., step i : step i + 2 radius + 1], where padded holds each
    line with radius replicated samples before and after it.  The first
    pass forms only the kept rows, straight into the buffer that the second
    pass reads padded, and the second forms only the kept columns.  Each
    buffer is allocated once per call and the axis -2 pass runs on
    transposed views of them, so nothing is copied but the input.
    """
    h, w = img.shape[-2:]
    lead = img.shape[:-2]
    rows = np.empty((*lead, h + 2 * radius, w))
    rows[..., radius : h + radius, :] = img
    rows[..., :radius, :] = img[..., :1, :]
    rows[..., h + radius :, :] = img[..., -1:, :]
    cols = np.empty((*lead, -(-h // step), w + 2 * radius))
    line(rows.swapaxes(-1, -2), cols[..., radius : w + radius].swapaxes(-1, -2))
    cols[..., :radius] = cols[..., radius : radius + 1]
    cols[..., w + radius :] = cols[..., w + radius - 1 : w + radius]
    out = np.empty((*lead, -(-h // step), -(-w // step)))
    line(cols, out)
    return out


def _binomial_line(padded: np.ndarray, out: np.ndarray) -> None:
    # every other sample of the 5-tap binomial, the first centred on
    # padded[..., 2], summed as (c w_c + (l2 + r2) w_o) + (l1 + r1) w_i from
    # the centre c, its neighbours l1, r1 and the samples l2, r2 beyond
    # them: the order of scipy.ndimage.correlate1d's loop over a symmetric
    # kernel, which the tests hold it to bit for bit
    n = padded.shape[-1] - 4
    np.multiply(padded[..., 2 : n + 2 : 2], _BINOMIAL_CENTRE, out=out)
    pair = np.add(padded[..., 0:n:2], padded[..., 4 : n + 4 : 2])
    pair *= _BINOMIAL_OUTER
    out += pair
    np.add(padded[..., 1 : n + 1 : 2], padded[..., 3 : n + 3 : 2], out=pair)
    pair *= _BINOMIAL_INNER
    out += pair


def _downsample(img: np.ndarray) -> np.ndarray:
    """The next pyramid level of img, one (h, w) image or a (K, h, w) stack:
    the 5-tap binomial along both axes, replicate borders, at the even rows
    and columns, ceil(h / 2) x ceil(w / 2) samples in float64."""
    return _separable(img, 2, 2, _binomial_line)


def _resize_bilinear(img: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    h, w = img.shape[-2:]
    ht, wt = shape
    ys = (np.arange(ht, dtype=np.float64) + 0.5) * (h / ht) - 0.5
    xs = (np.arange(wt, dtype=np.float64) + 0.5) * (w / wt) - 0.5
    return sample_bilinear(img, xs[None, :], ys[:, None])


def _central_diff(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # central differences with replicate borders (half one-sided at the edges)
    dx = np.empty_like(img)
    np.subtract(img[..., 2:], img[..., :-2], out=dx[..., 1:-1])
    np.subtract(img[..., 1], img[..., 0], out=dx[..., 0])
    np.subtract(img[..., -1], img[..., -2], out=dx[..., -1])
    dx *= 0.5
    dy = np.empty_like(img)
    np.subtract(img[..., 2:, :], img[..., :-2, :], out=dy[..., 1:-1, :])
    np.subtract(img[..., 1, :], img[..., 0, :], out=dy[..., 0, :])
    np.subtract(img[..., -1, :], img[..., -2, :], out=dy[..., -1, :])
    dy *= 0.5
    return dx, dy


def _smoothness_eigenvalues(h: int, w: int, alpha_sq: float) -> np.ndarray:
    """The (h, w) eigenvalues of alpha^2 (I - M) in the orthonormal 2-D DCT-II
    basis, M being the Horn-Schunck average with replicate borders.

    With replicate borders the average of the two neighbors along an axis
    has the DCT-II eigenvalue cos(pi j / n), and M is 2/6 of each axis's
    average plus 4/12 of their product.  The constant mode's eigenvalue is
    exactly 0; the formula leaves about 2e-18 there.
    """
    cx = np.cos(np.pi * np.arange(w) / w)
    cy = np.cos(np.pi * np.arange(h) / h)[:, None]
    eig = alpha_sq * (1.0 - (2.0 * cx + 2.0 * cy) / 6.0 - cx * cy / 3.0)
    eig[0, 0] = 0.0
    return eig


def _dct_matrix(n: int) -> np.ndarray:
    """The (n, n) orthonormal DCT-II matrix C in float32: C @ x transforms
    the columns of x, and C.T @ X inverts it.

    Row k samples cos(pi k (2j + 1) / 2n) over the columns j, scaled by
    sqrt(2 / n), and by sqrt(1 / n) for k = 0.  It is formed in float64
    and rounded once.
    """
    k = np.arange(n)[:, None]
    c = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n))
    c[0] *= np.sqrt(0.5)
    return c.astype(np.float32)


@functools.lru_cache(maxsize=16)
def _level_basis(h: int, w: int, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The float32 arrays _relax_level reads at an (h, w) level, built once
    per size and alpha and read-only: C_h, C_w, a C-contiguous copy of C_w^T
    and the smoothness eigenvalues.  numpy multiplies a stack by the
    transposed view C_w.T up to twice as slowly as by a contiguous copy
    (64x64 and 32x32 stacks).

    The four share one allocation, made before the temporaries that fill
    it.  Kept as four arrays, each allocated among those temporaries, they
    left holes in the heap that raised the peak RSS of the perfbench gate128
    workload by about 2 MB in 6 of 10 runs; in one they add about 0.2 MB.
    """
    shapes = ((h, h), (w, w), (w, w), (h, w))
    sizes = [m * n for m, n in shapes]
    buf = np.empty(sum(sizes), np.float32)
    c_h, c_w, c_w_t, eig = (
        part.reshape(shape) for part, shape in zip(np.split(buf, np.cumsum(sizes[:-1])), shapes)
    )
    c_h[:] = _dct_matrix(h)
    c_w[:] = _dct_matrix(w)
    c_w_t[:] = c_w.T
    eig[:] = _smoothness_eigenvalues(h, w, alpha * alpha)
    for a in (c_h, c_w, c_w_t, eig):
        a.flags.writeable = False
    return c_h, c_w, c_w_t, eig


def _relax_level(target: np.ndarray, source: np.ndarray, start: np.ndarray, params: FlowParams) -> np.ndarray:
    """Run warps_per_level linearizations of the data term at one level for
    a stack of K systems: targets and sources (K, h, w), fields started from
    the (K, 2, h, w) start; returns the (K, 2, h, w) float32 result.

    Each linearization around the current field x0 = (u0, v0) fixes, with
    g = (fx, fy) and ft = warped - target, the source warped by x0 less the
    target, the system A w = b for the field w = (u, v):
        A = alpha^2 (I - M) + g g^T,   b = -g (ft - g . x0)
    where M is the original Horn-Schunck neighborhood average (cardinal
    1/6, diagonal 1/12) with replicate borders.  M is symmetric, so A is
    symmetric positive (semi)definite, and iters_per_level iterations of
    preconditioned conjugate gradients, started from x0, solve it.  That
    start's residual needs no b: the g (g . x0) in b cancels the one in
    A x0, which leaves
        b - A x0 = -g ft - alpha^2 (I - M) x0,
    the incremental form of warping solvers (Brox et al., ECCV 2004).  The
    orthonormal 2-D DCT-II diagonalizes alpha^2 (I - M) exactly, with the
    eigenvalues eig, so the residual R, the preconditioned residual Z and
    the search direction P are kept in that basis, where the smoothness
    term is a product with eig:
        A p  ->  eig P + dct(g (g . p)),   with p = idct(P)
    Each iteration takes two transforms, the idct of P and the dct of
    g (g . p), and the field is updated in space from p.  The field's
    transform X = dct(x) is formed once per level and takes each step's
    share of P, so a warp's first residual, dct(-g ft) - eig X, costs one
    transform.  The last iteration of a warp stops at the field update, as
    the next warp rebuilds R, Z and P: a warp takes 2 iters_per_level
    transforms.  |g|^2 is far below alpha^2 on the fused scenes, so A is
    close to alpha^2 (I - M), and the preconditioner divides each component
    by eig + c, with c the frame mean of fx^2 for u and of fy^2 for v; the
    constant mode with c = 0, a null direction of A, gets 0, so Z never
    feeds it.  The iterations and the transforms run in float32; the inner
    products, which the orthonormal basis leaves unchanged, accumulate in
    float64, one per system: r . z = sum R Z and
    p . A p = sum eig P^2 + sum (g . p)^2.  Every system runs all
    iters_per_level iterations; its step r . z / p . A p and its direction
    weight r' . z' / r . z are formed in float64 and read 0 where the
    denominator is 0, so a system with nothing left to solve, such as an
    identical or a flat pair, takes steps of 0, and identical frames leave a
    zero field exactly zero.  The systems share every numpy pass and every transform,
    but no operation mixes two of them: each field comes out bit for bit as
    it would from a stack of one.
    """
    K, h, w = target.shape
    c_h, c_w, c_w_t, eig = _level_basis(h, w, params.alpha)

    def dct(x: np.ndarray) -> np.ndarray:
        return c_h @ x @ c_w_t

    def idct(x: np.ndarray) -> np.ndarray:
        return c_h.T @ x @ c_w

    padded = _pad_edge(source)  # every warp samples the same sources
    field = np.array(start, np.float32)
    field_hat = dct(field)
    grad = np.empty_like(field)
    inv = np.empty_like(field)
    g_dot = np.empty((K, 1, h, w), np.float32)
    data = np.empty_like(field)

    def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # the float64 inner product of each system's planes
        return np.einsum("kij,kij->k", a.reshape(K, -1, h * w), b.reshape(K, -1, h * w), dtype=np.float64)

    def ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        # num / den per system, formed in float64 and 0 where den is 0, as
        # the float32 factor that scales that system's planes
        return np.divide(num, den, out=np.zeros(K), where=den != 0.0).astype(np.float32).reshape(K, 1, 1, 1)

    def linearize() -> None:
        # grad, inv and, in data, -g (warped - target) around the current
        # field, which is read as float32 and widens exactly.  The float64
        # data term lives only as long as this call, in four (K, h, w)
        # arrays: target - warped, exactly -(warped - target), is built in
        # place in the warp, and each float32 plane takes its float64 result
        # straight from the ufunc
        warped = _warp_by_flow(padded, field[:, 0], field[:, 1])
        mean = np.add(target, warped)
        mean *= 0.5
        fx, fy = _central_diff(mean)
        error = np.subtract(target, warped, out=warped)
        grad[:, 0] = fx
        grad[:, 1] = fy
        np.multiply(fx, error, out=data[:, 0], casting="same_kind")
        np.multiply(fy, error, out=data[:, 1], casting="same_kind")
        # 1 / (eigenvalue + c), and 0 where that sum is 0.  Off the constant
        # mode eig is at least alpha^2 (2/3) (1 - cos(pi / n)), n the longer
        # side, whose float32 reciprocal _check_flow_fits has found finite,
        # so only a constant mode whose c is 0 in float32 holds a 0: it is
        # inverted as 1 and set back
        c = np.stack([np.einsum("kij,kij->k", d, d) for d in (fx, fy)], axis=1) / (h * w)
        np.add(eig, c[:, :, None, None], out=inv, casting="same_kind")
        constant = inv[:, :, 0, 0]
        null = constant == 0.0
        constant[null] = 1.0
        np.reciprocal(inv, out=inv)
        constant[null] = 0.0

    last = params.iters_per_level - 1
    for _ in range(params.warps_per_level):
        linearize()
        # R = dct(-g (warped - target)) - eig X, which is dct(b - A x)
        r_hat = dct(data)
        r_hat -= eig * field_hat
        z_hat = inv * r_hat
        p_hat = z_hat.copy()
        rz = dot(r_hat, z_hat)
        for i in range(params.iters_per_level):
            p = idct(p_hat)
            # g_dot = g . p, the data term's share of p . A p, in space
            np.multiply(grad, p, out=data)
            np.add(data[:, 0], data[:, 1], out=g_dot[:, 0])
            ap_hat = eig * p_hat
            step = ratio(rz, dot(p_hat, ap_hat) + dot(g_dot, g_dot))
            p *= step
            field += p
            field_hat += step * p_hat
            if i == last:  # the next warp rebuilds R, Z and P
                break
            # A P = eig P + dct(g (g . p))
            np.multiply(grad, g_dot, out=data)
            ap_hat += dct(data)
            ap_hat *= step
            r_hat -= ap_hat
            np.multiply(inv, r_hat, out=z_hat)
            rz_next = dot(r_hat, z_hat)
            p_hat *= ratio(rz_next, rz)
            p_hat += z_hat
            rz = rz_next
    return field


@_raise_fp_errors
def estimate_flows(
    targets: Sequence[Frame],
    sources: Sequence[Frame],
    params: FlowParams | None = None,
    *,
    starts: Sequence[FlowField] | None = None,
) -> list[FlowField]:
    """Estimate, for each pair k, the field f with sources[k](p + f(p))
    matching targets[k](p).

    The K systems run through the pyramid together: at each level they are
    solved in stacks that share every numpy pass, as many per stack as keep
    the solver's work arrays within a fixed budget.  Every system runs the
    same iterations, with its own inner products and step lengths, so each
    field is bit for bit the field of a one-pair call.  Identical frames
    give an exactly zero field from a zero start, and an all-zero start
    gives the same field as none.

    Args:
        targets: frames the flows are anchored to, all of one shape.
        sources: frames being sampled, one per target, of the same shape.
        params: solver settings, shared by every pair; defaults to
            FlowParams().
        starts: one field per pair that its solve starts from at the
            coarsest pyramid level, in place of zero; each must have that
            level's shape, which with pyramid_levels=1 is the frame's.

    Returns:
        One FlowField per pair, on its target's grid, in order.

    Raises:
        ValueError: if the sequences differ in length, the frames differ in
            shape, the frames are too small for the requested pyramid depth
            (the coarsest level must keep both sides at least 8 px) or
            alpha too small for their size (see _check_flow_fits; the CLI
            reports the same messages), or a start does not have the
            coarsest level's shape.
        FloatingPointError: at the first operation that overflows, such as
            products of the frames past float32.
    """
    params = params or FlowParams()
    K = len(targets)
    if len(sources) != K or (starts is not None and len(starts) != K):
        raise ValueError(f"need one source, and one start if any, per target; got {K} targets, {len(sources)} sources")
    if K == 0:
        return []
    shape = targets[0].samples.shape
    for target, source in zip(targets, sources):
        if target.samples.shape != source.samples.shape:
            raise ValueError(f"target {target.samples.shape} and source {source.samples.shape} disagree")
        if target.samples.shape != shape:
            raise ValueError(f"frames of one call must share one shape, got {shape} and {target.samples.shape}")
    _check_flow_fits(*shape, params)

    target_levels = [np.array([t.samples for t in targets], np.float64)]
    source_levels = [np.array([s.samples for s in sources], np.float64)]
    for _ in range(params.pyramid_levels - 1):
        target_levels.append(_downsample(target_levels[-1]))
        source_levels.append(_downsample(source_levels[-1]))

    coarsest = target_levels[-1].shape[1:]
    if starts is None:
        field = np.zeros((K, 2, *coarsest))
    else:
        for start in starts:
            if start.samples.shape[1:] != coarsest:
                raise ValueError(
                    f"start field {start.samples.shape[1:]} does not match the coarsest level {coarsest}"
                )
        field = np.array([start.samples for start in starts])
    for level in range(params.pyramid_levels - 1, -1, -1):
        h, w = target_levels[level].shape[1:]
        stack = max(1, _PCG_STACK_ELEMENTS // (2 * h * w))
        relaxed = np.empty((K, 2, h, w), np.float32)
        for i in range(0, K, stack):
            part = slice(i, i + stack)
            start = field[part]
            if start.shape[2:] != (h, w):  # upsampled a stack at a time, which bounds its temporaries
                start = (_resize_bilinear(start.reshape(-1, *start.shape[2:]), (h, w)) * 2.0).reshape(-1, 2, h, w)
            relaxed[part] = _relax_level(target_levels[level][part], source_levels[level][part], start, params)
        field = relaxed
    return [FlowField(f) for f in field]


def _percentile_99(x: np.ndarray) -> float:
    """np.percentile(x, 99.0) of a non-empty array of finite samples, bit
    for bit: numpy's linear method takes the two order statistics around
    the virtual index (n - 1) * 0.99 from a partition and interpolates them
    as its _lerp does, from the upper one when the weight is at least 0.5."""
    flat = x.ravel()
    virtual = (flat.size - 1) * 0.99
    low = int(virtual)
    high = min(low + 1, flat.size - 1)
    part = np.partition(flat, (low, high))
    a, b = part[low], part[high]
    gamma = virtual - low
    if gamma >= 0.5:
        return float(b - (b - a) * (1.0 - gamma))
    return float(a + (b - a) * gamma)


def flow_to_color(f: FlowField, max_magnitude: float | None = None) -> np.ndarray:
    """Map a flow field to an (H, W, 3) float32 RGB array in [0, 1].

    Direction selects the hue (angle of (u, v) on the color wheel), magnitude
    the saturation: zero flow is white, a vector at max_magnitude is fully
    saturated.  When max_magnitude is None the 99th percentile of the
    magnitudes is used (1 px if that is 0); a given max_magnitude must be a
    finite positive number of pixels, else ValueError.

    With value fixed at 1, channel n of (r, g, b) = (5, 3, 1) is
    1 - sat * clip(min(k, 4 - k), 0, 1), k = (n + 6 hue) mod 6, all in
    float64 and rounded to float32 once.  Both remainders are formed
    without np.remainder, on the ranges they can see, and equal it bit for
    bit: hue = arctan2(v, u) / (2 pi) lies in [-0.5, 0.5], so hue mod 1 is
    hue + 1 where hue < 0 (which also turns -0.0 into +0.0, as the
    remainder does); k = n + 6 hue lies in [1, 12), so k mod 6 is k - 6
    where k >= 6, a difference Sterbenz's lemma makes exact.
    """
    u = f.u.astype(np.float64)
    v = f.v.astype(np.float64)
    sat = np.hypot(u, v)
    if max_magnitude is None:
        max_magnitude = _percentile_99(sat) or 1.0
    else:
        _check_number(max_magnitude, "max_magnitude", "> 0")
    # mag / max_magnitude is never negative, so clipping it to [0, 1] is a
    # minimum with 1
    sat /= max_magnitude
    np.minimum(sat, 1.0, out=sat)
    hue = np.arctan2(v, u, out=u)
    hue /= 2.0 * np.pi
    hue += hue < 0.0
    hue *= 6.0  # 6 hue from here on

    rgb = np.empty((*sat.shape, 3), np.float32)
    k, ramp = v, np.empty_like(v)
    for channel, n in enumerate((5.0, 3.0, 1.0)):
        np.add(hue, n, out=k)
        k -= 6.0 * (k >= 6.0)
        np.subtract(4.0, k, out=ramp)
        np.minimum(k, ramp, out=ramp)
        np.clip(ramp, 0.0, 1.0, out=ramp)
        ramp *= sat
        np.subtract(1.0, ramp, out=rgb[..., channel], casting="same_kind")
    return rgb
