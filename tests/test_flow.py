import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import spsolve

from khcv import (
    FlowField,
    FlowParams,
    Frame,
    estimate_flow,
    flow,
    flow_to_color,
    mean_epe,
    sample_bilinear,
)

from conftest import central_fraction_mask, shifted_pair, smooth_texture


def constant_flow(h, w, dx, dy):
    return FlowField(np.stack((np.full((h, w), dx, np.float32), np.full((h, w), dy, np.float32))))


def test_params_validation():
    with pytest.raises(ValueError):
        FlowParams(pyramid_levels=0)
    for alpha in (0.0, float("nan")):
        with pytest.raises(ValueError):
            FlowParams(alpha=alpha)
    with pytest.raises(ValueError):
        FlowParams(iters_per_level=0)


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
    """sample_bilinear through plain 2-D indexing of all four corners."""
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


# in range, on and just past the borders, and far outside
_COORDINATE = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from([-1e6, -2.5, -1e-9, 0.0, 1.0 - 1e-12, 1.0, 1.0 + 1e-9, 3.5, 1e6]),
)


@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    dtype=st.sampled_from([np.float32, np.float64]),
    xs=st.lists(_COORDINATE, min_size=1, max_size=12),
    ys=st.lists(_COORDINATE, min_size=1, max_size=12),
    broadcast=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_sample_bilinear_matches_two_dimensional_indexing(h, w, dtype, xs, ys, broadcast, seed):
    # coordinates are drawn as fractions of the image extent; broadcast gives
    # (1, n) columns against (m, 1) rows as _resize_bilinear and the warp do
    img = np.random.default_rng(seed).random((h, w)).astype(dtype)
    x = np.array(xs) * (w - 1)
    y = np.array(ys) * (h - 1)
    if broadcast:
        x, y = x[None, :], y[:, None]
    else:
        n = min(len(xs), len(ys))
        x, y = x[:n].reshape(1, n), y[:n].reshape(1, n)
    got = sample_bilinear(img, x, y)
    want = reference_bilinear(img, x, y)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_identical_frames_give_zero_flow():
    img = smooth_texture(64, 64, seed=4)
    from khcv import Frame

    f = estimate_flow(Frame(img), Frame(img))
    assert not f.u.any() and not f.v.any()


def test_recovers_integer_translation():
    target, source = shifted_pair(96, 96, dx=3, dy=0, seed=9)
    f = estimate_flow(target, source)
    truth = constant_flow(96, 96, 3.0, 0.0)
    assert mean_epe(f, truth, central_fraction_mask(96, 96)) < 0.4


def test_recovers_mixed_translation():
    target, source = shifted_pair(96, 96, dx=-2, dy=1, seed=33)
    f = estimate_flow(target, source)
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
    f = estimate_flow(target, source)
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


def single_warp_system(target, source, alpha):
    """The linearization at zero flow in float64, unknowns ordered (u, v):
    the sparse A = alpha^2 (I - M) + g g^T, the right side
    b = -g (source - target), and the per-pixel 2x2 blocks alpha^2 I + g g^T."""
    tgt = target.samples.astype(np.float64)
    src = source.samples.astype(np.float64)
    h, w = tgt.shape
    fx, fy = flow._central_diff(0.5 * (tgt + src))
    gx, gy, ft = fx.ravel(), fy.ravel(), (src - tgt).ravel()
    smooth = alpha * alpha * (sparse.identity(h * w) - hs_average_matrix(h, w))
    a = sparse.bmat(
        [
            [smooth + sparse.diags(gx * gx), sparse.diags(gx * gy)],
            [sparse.diags(gx * gy), smooth + sparse.diags(gy * gy)],
        ],
        format="csc",
    )
    blocks = np.empty((h * w, 2, 2))
    blocks[:, 0, 0] = alpha * alpha + gx * gx
    blocks[:, 1, 1] = alpha * alpha + gy * gy
    blocks[:, 0, 1] = blocks[:, 1, 0] = gx * gy
    return a, np.concatenate([-gx * ft, -gy * ft]), blocks


def textbook_pcg(a, b, blocks, iters):
    """Float64 PCG from zero whose preconditioner inverts each 2x2 block."""

    def precondition(r):
        return np.linalg.solve(blocks, r.reshape(2, -1).T[..., None])[..., 0].T.ravel()

    x = np.zeros_like(b)
    r = b.copy()
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
)
def test_pcg_solves_the_horn_schunck_system(h, w, alpha, dx, dy, seed):
    target, source = shifted_pair(h, w, dx=dx, dy=dy, seed=seed)
    a, b, blocks = single_warp_system(target, source, alpha)

    def solve(iters, src=source):
        params = FlowParams(pyramid_levels=1, alpha=alpha, iters_per_level=iters, warps_per_level=1)
        return estimate_flow(target, src, params)

    def stacked(f):
        return np.concatenate([f.u.ravel(), f.v.ravel()])

    # converged, the field is the system's solution whatever the preconditioner
    got = solve(400)
    assert np.abs(stacked(got) - spsolve(a, b)).max() <= 1e-4
    # a few iterations in, it is the iterate of PCG with the block preconditioner
    assert np.abs(stacked(solve(5)) - textbook_pcg(a, b, blocks, 5)).max() <= 1e-4

    again = solve(400)
    assert got.u.tobytes() == again.u.tobytes() and got.v.tobytes() == again.v.tobytes()
    still = solve(400, Frame(target.samples.copy()))
    assert not still.u.any() and not still.v.any()


def test_identical_frames_from_a_zero_start_give_zero_flow():
    frame = Frame(smooth_texture(40, 36, seed=5))
    for levels, coarsest in ((1, (40, 36)), (3, (10, 9))):
        start = FlowField(np.zeros((2, *coarsest), np.float32))
        f = estimate_flow(frame, Frame(frame.samples.copy()), FlowParams(pyramid_levels=levels), start=start)
        assert not f.samples.any()


def test_start_must_have_the_coarsest_level_shape():
    frame = Frame(smooth_texture(32, 32, seed=6))
    for levels, shape in ((1, (32, 31)), (1, (16, 16)), (3, (32, 32)), (3, (9, 8))):
        with pytest.raises(ValueError, match="coarsest level"):
            estimate_flow(frame, frame, FlowParams(pyramid_levels=levels), start=FlowField(np.zeros((2, *shape))))


def test_a_zero_start_matches_no_start_at_one_level():
    target, source = shifted_pair(24, 28, dx=1, dy=-1, seed=7)
    params = FlowParams(pyramid_levels=1, warps_per_level=2)
    free = estimate_flow(target, source, params)
    zero = estimate_flow(target, source, params, start=FlowField(np.zeros((2, 24, 28), np.float32)))
    assert free.samples.tobytes() == zero.samples.tobytes()


def test_rejects_too_small_images():
    from khcv import Frame

    tiny = Frame(np.zeros((16, 16), np.float32))
    with pytest.raises(ValueError):
        estimate_flow(tiny, tiny, FlowParams(pyramid_levels=3))


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
