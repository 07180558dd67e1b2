import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

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
    return FlowField(np.full((h, w), dx, np.float32), np.full((h, w), dy, np.float32))


def test_params_validation():
    with pytest.raises(ValueError):
        FlowParams(pyramid_levels=0)
    with pytest.raises(ValueError):
        FlowParams(alpha=0.0)
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


def test_identical_frames_give_zero_flow():
    img = smooth_texture(64, 64, seed=4)
    from khcv import Frame

    f = estimate_flow(Frame(img), Frame(img))
    assert np.max(np.abs(f.u)) < 1e-2
    assert np.max(np.abs(f.v)) < 1e-2


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


# Horn-Schunck neighborhood average: cardinal 1/6, diagonal 1/12
_HS_AVG = np.array([[1.0, 2.0, 1.0], [2.0, 0.0, 2.0], [1.0, 2.0, 1.0]]) / 12.0


def reference_flow(target, source, params):
    """The pyramidal solver with its Jacobi sweeps as float64 ndimage.correlate calls."""
    targets = [target.samples.astype(np.float64)]
    sources = [source.samples.astype(np.float64)]
    for _ in range(params.pyramid_levels - 1):
        targets.append(flow._downsample(targets[-1]))
        sources.append(flow._downsample(sources[-1]))
    u = np.zeros_like(targets[-1])
    v = np.zeros_like(targets[-1])
    alpha_sq = params.alpha * params.alpha
    for tgt, src in zip(targets[::-1], sources[::-1]):
        if u.shape != tgt.shape:
            u = flow._resize_bilinear(u, tgt.shape) * 2.0
            v = flow._resize_bilinear(v, tgt.shape) * 2.0
        for _ in range(params.warps_per_level):
            warped = flow._warp_by_flow(src, u, v)
            fx, fy = flow._central_diff(0.5 * (tgt + warped))
            ft = warped - tgt
            denom = alpha_sq + fx * fx + fy * fy
            u0 = u.copy()
            v0 = v.copy()
            for _ in range(params.iters_per_level):
                u_bar = ndimage.correlate(u, _HS_AVG, mode="nearest")
                v_bar = ndimage.correlate(v, _HS_AVG, mode="nearest")
                t = (fx * (u_bar - u0) + fy * (v_bar - v0) + ft) / denom
                u = u_bar - fx * t
                v = v_bar - fy * t
    return u, v


@settings(max_examples=25, deadline=None)
@given(
    levels=st.integers(1, 3),
    extra_h=st.integers(0, 40),
    extra_w=st.integers(0, 40),
    alpha=st.floats(0.05, 0.5),  # from the flow default up past the fusion default 0.2
    iters=st.integers(1, 60),
    warps=st.integers(1, 3),
    dx=st.integers(-2, 2),
    dy=st.integers(-2, 2),
    seed=st.integers(0, 1000),
)
def test_float32_sweeps_match_float64_reference(levels, extra_h, extra_w, alpha, iters, warps, dx, dy, seed):
    # the smallest sides leave exactly 8 px at the coarsest level
    min_side = 8 * 2 ** (levels - 1)
    h, w = min_side + extra_h, min_side + extra_w
    params = FlowParams(pyramid_levels=levels, alpha=alpha, iters_per_level=iters, warps_per_level=warps)
    target, source = shifted_pair(h, w, dx=dx, dy=dy, seed=seed)
    got = estimate_flow(target, source, params)
    ref_u, ref_v = reference_flow(target, source, params)
    assert np.abs(got.u - ref_u).max() <= 1e-4
    assert np.abs(got.v - ref_v).max() <= 1e-4

    again = estimate_flow(target, source, params)
    assert got.u.tobytes() == again.u.tobytes() and got.v.tobytes() == again.v.tobytes()
    still = estimate_flow(target, Frame(target.samples.copy()), params)
    assert not still.u.any() and not still.v.any()


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
