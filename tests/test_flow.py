import hashlib
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft, sparse
from scipy.sparse.linalg import spsolve

from khcv import (
    FlowField,
    FlowParams,
    Frame,
    estimate_flows,
    flow,
    flow_to_color,
    mean_epe,
    sample_bilinear,
)

from conftest import central_fraction_mask, shifted_pair, smooth_texture


def constant_flow(h, w, dx, dy):
    return FlowField(np.stack((np.full((h, w), dx, np.float32), np.full((h, w), dy, np.float32))))


def one_pair(target, source, params=None, start=None):
    """The field of a one-pair estimate_flows call."""
    (field,) = estimate_flows([target], [source], params, starts=None if start is None else [start])
    return field


def test_params_validation():
    with pytest.raises(ValueError):
        FlowParams(pyramid_levels=0)
    for alpha in (0.0, float("nan"), math.inf):
        with pytest.raises(ValueError):
            FlowParams(alpha=alpha)
    with pytest.raises(ValueError):
        FlowParams(iters_per_level=0)
    # the counts follow the integer rule: no fraction, and a bool is not a count
    for name in ("pyramid_levels", "iters_per_level", "warps_per_level"):
        for bad in (2.5, True):
            with pytest.raises(ValueError):
                FlowParams(**{name: bad})
    FlowParams(iters_per_level=np.int64(3))


def test_sample_bilinear_identity_at_integer_coords():
    rng = np.random.default_rng(0)
    img = rng.random((9, 7))
    yy, xx = np.mgrid[0:9, 0:7].astype(np.float64)
    out = sample_bilinear(img, xx, yy)
    assert np.array_equal(out, img)


def test_sample_bilinear_interpolates_midpoints():
    img = np.array([[0.0, 1.0]])
    out = sample_bilinear(img, np.array([[0.5]]), np.array([[0.0]]))
    assert abs(out[0, 0] - 0.5) < 1e-12


def test_sample_bilinear_replicates_border():
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = sample_bilinear(img, np.array([[-5.0, 10.0]]), np.array([[-5.0, 10.0]]))
    assert out[0, 0] == 1.0
    assert out[0, 1] == 4.0


def reference_bilinear(img, x, y):
    """sample_bilinear through plain 2-D indexing of all four corners; a
    (K, h, w) stack is sampled one plane at a time, plane k at x[k], y[k]."""
    if img.ndim == 3:
        shape = np.broadcast_shapes(x.shape, y.shape, (len(img), 1, 1))
        x, y = np.broadcast_to(x, shape), np.broadcast_to(y, shape)
        return np.stack([reference_bilinear(plane, xk, yk) for plane, xk, yk in zip(img, x, y)])
    h, w = img.shape
    x = np.clip(x, 0.0, w - 1.0)
    y = np.clip(y, 0.0, h - 1.0)
    x0 = np.floor(x).astype(np.intp)
    y0 = np.floor(y).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    wx = x - x0
    wy = y - y0
    top = img[y0, x0] + wx * (img[y0, x1] - img[y0, x0])
    bottom = img[y1, x0] + wx * (img[y1, x1] - img[y1, x0])
    return top + wy * (bottom - top)


# in range, on and just past the borders, and far outside; -0.0 keeps its
# sign through the clip and into the weight
_COORDINATE = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from([-1e6, -2.5, -1e-9, -0.0, 0.0, 1.0 - 1e-12, 1.0, 1.0 + 1e-9, 3.5, 1e6]),
)


@settings(max_examples=80, deadline=None)
@given(
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    planes=st.integers(0, 3),
    dtype=st.sampled_from([np.float32, np.float64]),
    xs=st.lists(_COORDINATE, min_size=1, max_size=12),
    ys=st.lists(_COORDINATE, min_size=1, max_size=12),
    broadcast=st.booleans(),
    zeros=st.sampled_from([None, 0.0, -0.0]),
    seed=st.integers(0, 2**16),
)
def test_sample_bilinear_matches_two_dimensional_indexing(h, w, planes, dtype, xs, ys, broadcast, zeros, seed):
    # coordinates are drawn as fractions of the image extent; broadcast gives
    # (1, n) columns against (m, 1) rows as _resize_bilinear and the warp do.
    # planes > 0 samples a (planes, h, w) stack, plane k at the coordinates
    # rolled by k, and zeros puts signed zeros at a quarter of the pixels
    rng = np.random.default_rng(seed)
    shape = (h, w) if planes == 0 else (planes, h, w)
    img = rng.random(shape).astype(dtype)
    if zeros is not None:
        img[rng.random(shape) < 0.25] = zeros
    x = np.array(xs) * (w - 1)
    y = np.array(ys) * (h - 1)
    if broadcast:
        x, y = x[None, :], y[:, None]
    else:
        n = min(len(xs), len(ys))
        x, y = x[:n].reshape(1, n), y[:n].reshape(1, n)
    if planes:
        x = np.stack([np.roll(x, k) for k in range(planes)])
        y = np.stack([np.roll(y, -k) for k in range(planes)])
    got = sample_bilinear(img, x, y)
    want = reference_bilinear(img, x, y)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_sample_bilinear_lerps_a_float32_stack_in_float64():
    # the corners' differences stay float32 and the weighted sums go to
    # float64, as fusion warps the float32 key frames; -0.0 pixels sampled at
    # a coordinate of -0.0 keep their sign
    rng = np.random.default_rng(3)
    img = rng.random((2, 5, 6)).astype(np.float32)
    img[:, 0, 0] = -0.0
    x = np.stack([rng.uniform(-1.0, 6.0, (5, 6)), np.full((5, 6), -0.0)])
    y = np.stack([rng.uniform(-1.0, 5.0, (5, 6)), np.full((5, 6), -0.0)])
    got = sample_bilinear(img, x, y)
    assert got.dtype == np.float64
    assert got.tobytes() == reference_bilinear(img, x, y).tobytes()
    assert np.signbit(got[1]).all()
    # lerping into float32 corners would round every fraction to float32
    assert not np.array_equal(got[0], got[0].astype(np.float32))


def test_identical_frames_give_zero_flow():
    img = smooth_texture(64, 64, seed=4)
    from khcv import Frame

    f = one_pair(Frame(img), Frame(img))
    assert not f.u.any() and not f.v.any()


def test_recovers_integer_translation():
    target, source = shifted_pair(96, 96, dx=3, dy=0, seed=9)
    f = one_pair(target, source)
    truth = constant_flow(96, 96, 3.0, 0.0)
    assert mean_epe(f, truth, central_fraction_mask(96, 96)) < 0.4


def test_recovers_mixed_translation():
    target, source = shifted_pair(96, 96, dx=-2, dy=1, seed=33)
    f = one_pair(target, source)
    truth = constant_flow(96, 96, -2.0, 1.0)
    assert mean_epe(f, truth, central_fraction_mask(96, 96)) < 0.4


def test_recovers_moving_blob():
    # smooth bump translating by (2, -1); check error where the bump has support
    h = w = 64
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)

    def bump(cx, cy):
        return (0.1 + 0.8 * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * 12.0**2))).astype(
            np.float32
        )

    from khcv import Frame

    target = Frame(bump(30.0, 34.0))
    source = Frame(bump(32.0, 33.0))
    f = one_pair(target, source)
    truth = constant_flow(h, w, 2.0, -1.0)
    support = target.samples > 0.15
    assert mean_epe(f, truth, support) < 0.3


def hs_average_matrix(h, w):
    """The Horn-Schunck neighborhood average (cardinal 1/6, diagonal 1/12) as
    an explicit sparse matrix, with each neighbor index clamped to the image."""
    index = np.arange(h * w).reshape(h, w)
    rows, cols, vals = [], [], []
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == dy == 0:
                continue
            ys = np.clip(np.arange(h) + dy, 0, h - 1)
            xs = np.clip(np.arange(w) + dx, 0, w - 1)
            rows.append(index.ravel())
            cols.append(index[ys][:, xs].ravel())
            vals.append(np.full(h * w, 1.0 / 12.0 if dx and dy else 1.0 / 6.0))
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(h * w, h * w)
    )


def linearization(target, source, start):
    """The data term linearized at the (2, h, w) field start, in float64: the
    image gradients g = (fx, fy) and the temporal difference ft between the
    source warped by start and the target."""
    tgt = target.samples.astype(np.float64)
    warped = flow._warp_by_flow(flow._pad_edge(source.samples.astype(np.float64)), *start)
    fx, fy = flow._central_diff(0.5 * (tgt + warped))
    return fx, fy, warped - tgt


def single_warp_system(target, source, alpha, start=None):
    """The linearization at the field start (zero if None) in float64,
    unknowns ordered (u, v): the sparse A = alpha^2 (I - M) + g g^T and the
    right side b = -g (ft - g . start), from the definition."""
    h, w = target.samples.shape
    start = np.zeros((2, h, w)) if start is None else start
    fx, fy, ft = linearization(target, source, start)
    gx, gy = fx.ravel(), fy.ravel()
    ft = ft.ravel() - gx * start[0].ravel() - gy * start[1].ravel()
    smooth = alpha * alpha * (sparse.identity(h * w) - hs_average_matrix(h, w))
    a = sparse.bmat(
        [
            [smooth + sparse.diags(gx * gx), sparse.diags(gx * gy)],
            [sparse.diags(gx * gy), smooth + sparse.diags(gy * gy)],
        ],
        format="csc",
    )
    return a, np.concatenate([-gx * ft, -gy * ft])


def dct_preconditioner(target, source, alpha, start):
    """The solver's preconditioner in float64 at the field start: r = (r_u,
    r_v) maps to (alpha^2 (I - M) + c I)^-1 r per component, solved in the
    orthonormal DCT-II basis, with c the mean of fx^2 for u and of fy^2 for
    v, and 0 for a zero eigenvalue."""
    fx, fy, _ = linearization(target, source, start)
    h, w = fx.shape
    eig = flow._smoothness_eigenvalues(h, w, alpha * alpha)
    invs = []
    for d in (fx, fy):
        total = eig + np.mean(d * d)
        invs.append(np.divide(1.0, total, out=np.zeros_like(total), where=total != 0.0))

    def apply(r):
        return np.concatenate(
            [
                fft.idctn(inv * fft.dctn(part.reshape(h, w), norm="ortho"), norm="ortho").ravel()
                for part, inv in zip(np.split(r, 2), invs)
            ]
        )

    return apply


def textbook_pcg(a, b, iters, precondition, x0):
    """Float64 preconditioned conjugate gradients from x0."""
    x = x0.copy()
    r = b - a @ x
    z = precondition(r)
    p = z.copy()
    rz = r @ z
    for _ in range(iters):
        if rz == 0.0:
            break
        ap = a @ p
        step = rz / (p @ ap)
        x += step * p
        r -= step * ap
        z = precondition(r)
        rz, rz_prev = r @ z, rz
        p = z + (rz / rz_prev) * p
    return x


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(8, 20),
    w=st.integers(8, 20),
    alpha=st.floats(0.05, 0.5),  # from the flow default up past the fusion default 0.2
    dx=st.integers(-2, 2),
    dy=st.integers(-2, 2),
    seed=st.integers(0, 1000),
    moved=st.booleans(),  # start from zero, or from a random field within 1.5 px
)
def test_pcg_solves_the_horn_schunck_system(h, w, alpha, dx, dy, seed, moved):
    target, source = shifted_pair(h, w, dx=dx, dy=dy, seed=seed)
    start = np.zeros((2, h, w), np.float32)
    if moved:
        start[:] = np.random.default_rng(seed).uniform(-1.5, 1.5, start.shape)
    x0 = start.astype(np.float64)
    a, b = single_warp_system(target, source, alpha, x0)

    def solve(iters, src=source, start=FlowField(start)):
        params = FlowParams(pyramid_levels=1, alpha=alpha, iters_per_level=iters, warps_per_level=1)
        return one_pair(target, src, params, start=start)

    def stacked(f):
        return np.concatenate([f.u.ravel(), f.v.ravel()])

    # converged, the field is the system's solution whatever the solver
    got = solve(400)
    assert np.abs(stacked(got) - spsolve(a, b)).max() <= 1e-4
    # a few iterations in, it is the iterate of textbook conjugate gradients
    # with the same DCT preconditioner, started from the same field; at 1
    # iteration the first is also the last, whose residual update is skipped
    precondition = dct_preconditioner(target, source, alpha, x0)
    for iters in (1, 2, 5):
        pcg = textbook_pcg(a, b, iters, precondition, x0.ravel())
        assert np.abs(stacked(solve(iters)) - pcg).max() <= 1e-4, iters

    again = solve(400)
    assert got.u.tobytes() == again.u.tobytes() and got.v.tobytes() == again.v.tobytes()
    still = solve(400, Frame(target.samples.copy()), None)
    assert not still.u.any() and not still.v.any()


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(8, 20),
    w=st.integers(8, 20),
    alpha=st.floats(0.05, 0.5),
    dx=st.integers(-2, 2),
    dy=st.integers(-2, 2),
    seed=st.integers(0, 1000),
)
def test_solver_error_in_the_a_norm_never_rises(h, w, alpha, dx, dy, seed):
    # conjugate gradients, preconditioned or not, shrink the A-norm error
    # ||x_k - x*||_A at every iteration, as each step is an exact line
    # search; a step that misses the line minimum breaks that
    target, source = shifted_pair(h, w, dx=dx, dy=dy, seed=seed)
    a, b = single_warp_system(target, source, alpha)
    exact = spsolve(a, b)

    def iterate(k):
        if k == 0:  # the solve starts from zero
            return np.zeros_like(b)
        params = FlowParams(pyramid_levels=1, alpha=alpha, iters_per_level=k, warps_per_level=1)
        f = one_pair(target, source, params)
        return np.concatenate([f.u.ravel(), f.v.ravel()]).astype(np.float64)

    def a_norm_error(x):
        e = x - exact
        return float(np.sqrt(e @ (a @ e)))

    errors = [a_norm_error(iterate(k)) for k in range(11)]
    slack = 1e-6 * errors[0]
    assert all(later <= earlier + slack for earlier, later in zip(errors, errors[1:])), errors


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(8, 20),
    w=st.integers(8, 20),
    alpha=st.floats(0.05, 0.5),
    seed=st.integers(0, 1000),
)
def test_dct_eigenvalues_diagonalize_the_smoothness_term(h, w, alpha, seed):
    # the preconditioner's eigenvalues, applied in the orthonormal DCT-II
    # basis, are alpha^2 (I - M) with the replicate-border average M
    x = np.random.default_rng(seed).standard_normal((h, w))
    eig = flow._smoothness_eigenvalues(h, w, alpha * alpha)
    spectral = fft.idctn(eig * fft.dctn(x, norm="ortho"), norm="ortho")
    direct = alpha * alpha * (x.ravel() - hs_average_matrix(h, w) @ x.ravel())
    assert np.abs(spectral.ravel() - direct).max() <= 1e-12
    assert eig[0, 0] == 0.0 and (eig.ravel()[1:] > 0.0).all()


@settings(max_examples=40, deadline=None)
@given(h=st.integers(8, 40), w=st.integers(8, 40), seed=st.integers(0, 2**16))
def test_dct_matrix_is_the_orthonormal_dct(h, w, seed):
    # the cached float32 matrices are orthogonal, and their products are
    # scipy's orthonormal 2-D DCT-II and its inverse, odd sides included
    c_h, c_w, _, _ = flow._level_basis(h, w, 0.2)
    assert c_h.dtype == np.float32 and c_h.shape == (h, h)
    assert np.abs(c_h.astype(np.float64) @ c_h.T - np.eye(h)).max() <= 1e-6
    x = np.random.default_rng(seed).standard_normal((h, w)).astype(np.float32)
    assert np.abs(c_h @ x @ c_w.T - fft.dctn(x.astype(np.float64), norm="ortho")).max() <= 1e-5
    assert np.abs(c_h.T @ x @ c_w - fft.idctn(x.astype(np.float64), norm="ortho")).max() <= 1e-5


def test_level_basis_is_read_only_and_matches_its_sources():
    c_h, c_w, c_w_t, eig = flow._level_basis(24, 20, 0.3)
    assert c_w_t.flags.c_contiguous and np.array_equal(c_w_t, c_w.T)
    assert c_h.shape == (24, 24) and c_w.shape == (20, 20)
    assert eig.dtype == np.float32
    assert np.array_equal(eig, flow._smoothness_eigenvalues(24, 20, 0.3 * 0.3).astype(np.float32))
    for a in (c_h, c_w, c_w_t, eig):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0


def test_each_pyramid_level_builds_its_basis_once():
    # three levels of two pairs, split into one stack per pair by a small
    # budget: six level solves, but three bases, each built at its level's
    # first solve; a second call only reads the cache
    pairs = [shifted_pair(40, 36, dx=1, dy=0, seed=s) for s in (1, 2)]
    targets, sources = [t for t, _ in pairs], [s for _, s in pairs]
    params = FlowParams(pyramid_levels=3, alpha=0.37)
    real_budget = flow._PCG_STACK_ELEMENTS
    flow._PCG_STACK_ELEMENTS = 1
    flow._level_basis.cache_clear()
    try:
        estimate_flows(targets, sources, params)
        first = flow._level_basis.cache_info()
        estimate_flows(targets, sources, params)
        second = flow._level_basis.cache_info()
    finally:
        flow._PCG_STACK_ELEMENTS = real_budget
    assert (first.misses, first.hits, first.currsize) == (3, 3, 3)
    assert (second.misses, second.hits, second.currsize) == (3, 9, 3)


def test_an_overflowing_transform_raises_in_place():
    # the first residual's DCT sums data terms that each fit float32 into
    # coefficients that do not: the product raises there, before a field
    # past float32 is warped
    target, source = shifted_pair(32, 32, dx=1, dy=0, seed=3)
    scaled = [Frame(f.samples * 1e20) for f in (target, source)]
    with pytest.raises(FloatingPointError, match=r"^overflow encountered in matmul \(in estimate_flows\)$"):
        estimate_flows(scaled[:1], scaled[1:], FlowParams(pyramid_levels=1))


def test_flat_frames_hold_a_nonzero_start_at_its_mean():
    # flat frames leave only the smoothness term, whose null space is the
    # constant field; from a random start the solve flattens the field to
    # the start's mean at once and stays there, however long it runs,
    # instead of stepping along that null space on rounding errors
    flat = Frame(np.full((16, 16), 0.5, np.float32))
    start = np.random.default_rng(3).uniform(-1.5, 1.5, (2, 16, 16)).astype(np.float32)
    spread = np.ptp(start, axis=(1, 2))
    for iters in (1, 5, 22, 400):
        params = FlowParams(pyramid_levels=1, warps_per_level=1, iters_per_level=iters)
        f = one_pair(flat, Frame(flat.samples.copy()), params, start=FlowField(start))
        assert np.isfinite(f.samples).all()
        assert (np.ptp(f.samples, axis=(1, 2)) <= 1e-5 * spread).all(), iters
        assert np.abs(f.samples.mean(axis=(1, 2)) - start.mean(axis=(1, 2))).max() <= 1e-6, iters


def test_identical_frames_from_a_zero_start_give_zero_flow():
    frame = Frame(smooth_texture(40, 36, seed=5))
    for levels, coarsest in ((1, (40, 36)), (3, (10, 9))):
        start = FlowField(np.zeros((2, *coarsest), np.float32))
        f = one_pair(frame, Frame(frame.samples.copy()), FlowParams(pyramid_levels=levels), start=start)
        assert not f.samples.any()


def test_start_must_have_the_coarsest_level_shape():
    frame = Frame(smooth_texture(32, 32, seed=6))
    for levels, shape in ((1, (32, 31)), (1, (16, 16)), (3, (32, 32)), (3, (9, 8))):
        with pytest.raises(ValueError, match="coarsest level"):
            one_pair(frame, frame, FlowParams(pyramid_levels=levels), start=FlowField(np.zeros((2, *shape))))


def test_a_zero_start_matches_no_start_at_one_level():
    target, source = shifted_pair(24, 28, dx=1, dy=-1, seed=7)
    params = FlowParams(pyramid_levels=1, warps_per_level=2)
    free = one_pair(target, source, params)
    zero = one_pair(target, source, params, start=FlowField(np.zeros((2, 24, 28), np.float32)))
    assert free.samples.tobytes() == zero.samples.tobytes()


def _coarsest_side(side, levels):
    for _ in range(levels - 1):
        side = (side + 1) // 2
    return side


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_estimate_flows_matches_one_pair_calls(data):
    # K pairs solved as stacks, with a budget small enough that some levels
    # split into several stacks, give every pair the field it gets alone.
    # One pair is an identical pair: its steps are 0 while the others' are
    # not, and its field stays exactly zero
    levels = data.draw(st.integers(1, 3), label="levels")
    low = flow._MIN_COARSE_SIDE * 2 ** (levels - 1)  # the smallest side the pyramid takes
    h = data.draw(st.integers(low, 40), label="h")
    w = data.draw(st.integers(low, 40), label="w")
    K = data.draw(st.integers(1, 5), label="K")
    same = data.draw(st.integers(0, K - 1), label="identical pair")
    budget = data.draw(st.sampled_from([flow._PCG_STACK_ELEMENTS, 2000, 500, 1]), label="budget")
    with_starts = data.draw(st.booleans(), label="starts")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    params = FlowParams(
        pyramid_levels=levels,
        iters_per_level=data.draw(st.integers(1, 8), label="iters"),
        warps_per_level=data.draw(st.integers(1, 2), label="warps"),
    )
    rng = np.random.default_rng(seed)
    targets, sources = [], []
    for k in range(K):
        target, source = shifted_pair(h, w, dx=int(rng.integers(-2, 3)), dy=int(rng.integers(-2, 3)), seed=seed + k)
        targets.append(target)
        sources.append(Frame(target.samples.copy()) if k == same else source)
    starts = None
    if with_starts:
        coarsest = (_coarsest_side(h, levels), _coarsest_side(w, levels))
        starts = [FlowField(rng.uniform(-1.5, 1.5, (2, *coarsest))) for _ in range(K)]
        # a negative zero start stays zero, stacked and alone alike
        starts[same] = FlowField(np.full((2, *coarsest), -0.0, np.float32))

    real_budget = flow._PCG_STACK_ELEMENTS
    flow._PCG_STACK_ELEMENTS = budget
    try:
        stacked = estimate_flows(targets, sources, params, starts=starts)
    finally:
        flow._PCG_STACK_ELEMENTS = real_budget
    assert len(stacked) == K
    for k in range(K):
        alone = one_pair(targets[k], sources[k], params, start=None if starts is None else starts[k])
        assert stacked[k].samples.tobytes() == alone.samples.tobytes()
    assert not stacked[same].samples.any()


def test_an_identical_pair_takes_zero_steps_beside_a_moving_one():
    # the identical pair's steps are 0 from its first iteration, while the
    # shifted pair's solve goes on in the same stack
    target, source = shifted_pair(24, 24, dx=1, dy=0, seed=9)
    params = FlowParams(pyramid_levels=1)
    starts = [FlowField(np.zeros((2, 24, 24), np.float32)), FlowField(np.full((2, 24, 24), -0.0, np.float32))]
    moving, still = estimate_flows([target, target], [source, Frame(target.samples.copy())], params, starts=starts)
    assert not still.samples.any()
    alone = one_pair(target, source, params, start=starts[0])
    assert moving.samples.tobytes() == alone.samples.tobytes()


@pytest.mark.parametrize("iters", [5, 50, 200])
def test_degenerate_systems_run_every_iteration_and_stay_finite(iters):
    # systems with nothing left to solve, or with a null direction, run all
    # their iterations: identical frames from a zero start keep the field
    # exactly zero, and flat frames and stripes that vary along x alone keep
    # it finite from random starts
    frame = Frame(smooth_texture(32, 32, seed=4))
    flat = Frame(np.full((32, 32), 0.5, np.float32))
    x = np.arange(32)
    stripes = [Frame(np.tile(0.5 + 0.3 * np.sin(0.6 * (x + dx)), (32, 1))) for dx in (0, 1)]
    params = FlowParams(iters_per_level=iters)
    rng = np.random.default_rng(iters)
    starts = [FlowField(np.zeros((2, 8, 8), np.float32))]
    starts += [FlowField(rng.uniform(-1.5, 1.5, (2, 8, 8))) for _ in range(2)]
    targets = [frame, flat, stripes[0]]
    sources = [Frame(frame.samples.copy()), Frame(flat.samples.copy()), stripes[1]]
    still, *others = estimate_flows(targets, sources, params, starts=starts)
    assert not still.samples.any()
    for f in others:
        assert np.isfinite(f.samples).all()


def test_estimate_flows_checks_its_inputs():
    a, b = shifted_pair(32, 32, dx=1, dy=0, seed=3)
    small = Frame(np.zeros((24, 24), np.float32))
    assert estimate_flows([], []) == []
    for targets, sources, starts in (
        ([a, a], [b], None),
        ([a], [b], []),
        ([a, small], [b, small], None),
    ):
        with pytest.raises(ValueError):
            estimate_flows(targets, sources, FlowParams(pyramid_levels=1), starts=starts)


def test_rejects_too_small_images():
    from khcv import Frame

    tiny = Frame(np.zeros((16, 16), np.float32))
    with pytest.raises(ValueError):
        one_pair(tiny, tiny, FlowParams(pyramid_levels=3))


def test_flow_color_conventions():
    h = w = 16
    zero = constant_flow(h, w, 0.0, 0.0)
    rgb = flow_to_color(zero, max_magnitude=1.0)
    assert rgb.shape == (h, w, 3)
    assert np.allclose(rgb, 1.0)

    right = flow_to_color(constant_flow(h, w, 2.0, 0.0), max_magnitude=2.0)
    # pure +x at full saturation maps to pure red
    assert np.allclose(right[..., 0], 1.0, atol=1e-6)
    assert np.allclose(right[..., 1], 0.0, atol=1e-6)
    assert np.allclose(right[..., 2], 0.0, atol=1e-6)

    fwd = flow_to_color(constant_flow(h, w, 1.0, 1.0), max_magnitude=2.0)
    bwd = flow_to_color(constant_flow(h, w, -1.0, -1.0), max_magnitude=2.0)
    assert not np.allclose(fwd, bwd)
    assert rgb.min() >= 0.0 and rgb.max() <= 1.0
    assert fwd.min() >= 0.0 and fwd.max() <= 1.0


def test_flow_color_default_scale_guard():
    rgb = flow_to_color(constant_flow(8, 8, 0.0, 0.0))
    assert np.isfinite(rgb).all()


def test_khcv_never_loads_scipy_fft():
    # the PCG's DCTs are products with cached matrices, so the package, the
    # CLI, a GAP-TV reconstruction and a flow solve all leave scipy.fft unloaded
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        import khcv, khcv.cli
        from khcv import CodingCube, FlowParams, Frame, estimate_flows, gap_tv_reconstruct

        rng = np.random.default_rng(0)
        masks = CodingCube((rng.random((4, 16, 16)) < 0.5).astype(np.uint8))
        gap_tv_reconstruct(Frame(rng.random((16, 16)).astype(np.float32)), masks)
        print("scipy.fft" in sys.modules)
        frame = Frame(rng.random((16, 16)).astype(np.float32))
        estimate_flows([frame], [frame], FlowParams(pyramid_levels=1))
        print("scipy.fft" in sys.modules)
        """
    )
    src = str(Path(flow.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def _two_pair_fields_digest():
    """The sha256 of the fields estimate_flows gives two 128x128 pairs, which
    share a stack at the two coarser levels."""
    pairs = [shifted_pair(128, 128, dx=2, dy=-1, seed=11), shifted_pair(128, 128, dx=-1, dy=3, seed=12)]
    fields = estimate_flows([t for t, _ in pairs], [s for _, s in pairs])
    return hashlib.sha256(b"".join(f.samples.tobytes() for f in fields)).hexdigest()


def test_flow_fields_do_not_depend_on_the_blas_thread_count():
    # the PCG's transforms are BLAS products; on one BLAS thread they give
    # the same bytes as in this process, whatever its thread count
    script = "import test_flow; print(test_flow._two_pair_fields_digest())"
    tests = Path(__file__).resolve().parent
    src = str(Path(flow.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, str(tests)]), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [_two_pair_fields_digest()]
