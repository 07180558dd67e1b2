import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from khcv import (
    CodingCube,
    FlowField,
    Frame,
    FusionParams,
    HybridMeasurement,
    VideoCube,
    VisibleMap,
    blend,
    build_schedule,
    fuse_frame,
    fuse_video,
    normalize_brightness,
    psnr,
    visibility_map,
    warp,
)
from conftest import shifted_pair, smooth_texture


def constant_flow(h, w, dx, dy):
    return FlowField(np.full((h, w), dx, np.float32), np.full((h, w), dy, np.float32))


def test_params_validation():
    nan = float("nan")
    for bad in ({"beta": 0.0}, {"beta": nan}, {"error_smooth_radius": -1}, {"fallback_threshold": -0.1},
                {"fallback_threshold": nan}):
        with pytest.raises(ValueError):
            FusionParams(**bad)
    FusionParams(fallback_threshold=None)  # disabling the fallback is allowed


def test_visible_map_validation():
    with pytest.raises(ValueError):
        VisibleMap(np.full((4, 4), 1.5, np.float32))
    with pytest.raises(ValueError):
        VisibleMap(np.full((4, 4), np.nan, np.float32))
    with pytest.raises(ValueError):
        VisibleMap(np.zeros(4, np.float32))


def test_warp_zero_flow_is_bit_exact():
    img = Frame(smooth_texture(20, 24, seed=1))
    out = warp(img, constant_flow(20, 24, 0.0, 0.0))
    assert np.array_equal(out.samples, img.samples)


def test_warp_unit_shift_on_ramp_is_exact():
    w = 16
    ramp = Frame(np.tile(np.arange(w, dtype=np.float32) / w, (8, 1)))
    out = warp(ramp, constant_flow(8, w, 1.0, 0.0))
    assert np.array_equal(out.samples[:, :-1], ramp.samples[:, 1:])
    # right edge replicates the border column
    assert np.array_equal(out.samples[:, -1], ramp.samples[:, -1])


def test_warp_far_outside_replicates_corner():
    img = Frame(smooth_texture(12, 12, seed=2))
    out = warp(img, constant_flow(12, 12, 100.0, 100.0))
    assert np.isfinite(out.samples).all()
    assert np.all(out.samples == img.samples[-1, -1])


_FINITE32 = st.floats(allow_nan=False, allow_infinity=False, width=32)


@settings(max_examples=60, deadline=None)
@given(
    value=_FINITE32,
    flow=st.integers(1, 9).flatmap(lambda h: st.integers(1, 9).flatmap(
        lambda w: arrays(np.float32, (2, h, w), elements=_FINITE32)
    )),
)
def test_warp_of_a_constant_frame_is_that_constant(value, flow):
    # any finite flow, however far outside the frame, samples the constant
    img = Frame(np.full(flow.shape[1:], value, np.float32))
    out = warp(img, FlowField(flow[0], flow[1]))
    assert np.array_equal(out.samples, img.samples)


def test_visibility_prefers_better_warp():
    t = Frame(smooth_texture(24, 24, seed=4) * 0.7)  # keep +0.2 below clipping
    off = Frame(t.samples + np.float32(0.2))
    v = visibility_map(t, off, t)
    assert v.values.min() > 0.9
    v_swapped = visibility_map(off, t, t)
    assert v_swapped.values.max() < 0.1


def test_visibility_equal_warps_is_half():
    t = Frame(smooth_texture(16, 16, seed=5))
    w1 = Frame(np.clip(t.samples + 0.05, 0, 1))
    v = visibility_map(w1, w1, t)
    assert np.all(v.values == np.float32(0.5))


def test_visibility_swap_complements_exactly():
    rng = np.random.default_rng(9)
    t = Frame(rng.random((32, 32)).astype(np.float32))
    wl = Frame(np.clip(t.samples + rng.normal(0, 0.1, (32, 32)), 0, 1).astype(np.float32))
    wr = Frame(np.clip(t.samples + rng.normal(0, 0.1, (32, 32)), 0, 1).astype(np.float32))
    v1 = visibility_map(wl, wr, t)
    v2 = visibility_map(wr, wl, t)
    assert np.array_equal(v1.values + v2.values, np.ones_like(v1.values))


def test_visibility_flat_for_tiny_beta():
    rng = np.random.default_rng(10)
    t = Frame(rng.random((16, 16)).astype(np.float32))
    wl = Frame(rng.random((16, 16)).astype(np.float32))
    wr = Frame(rng.random((16, 16)).astype(np.float32))
    v = visibility_map(wl, wr, t, FusionParams(beta=1e-6))
    assert np.max(np.abs(v.values - 0.5)) < 1e-6


def test_blend_full_left_visibility_returns_left():
    wl = Frame(smooth_texture(16, 16, seed=11))
    wr = Frame(smooth_texture(16, 16, seed=12))
    v = VisibleMap(np.ones((16, 16), np.float32))
    out = blend(wl, wr, v, tau=0.01)
    assert np.max(np.abs(out.samples - wl.samples)) < 1e-5


def test_blend_symmetric_point_is_average():
    wl = Frame(smooth_texture(16, 16, seed=13))
    wr = Frame(smooth_texture(16, 16, seed=14))
    v = VisibleMap(np.full((16, 16), 0.5, np.float32))
    out = blend(wl, wr, v, tau=0.5)
    avg = 0.5 * (wl.samples + wr.samples)
    assert np.max(np.abs(out.samples - avg)) < 1e-5


def test_blend_late_frame_leans_right():
    wl = Frame(np.zeros((8, 8), np.float32))
    wr = Frame(np.ones((8, 8), np.float32))
    v = VisibleMap(np.full((8, 8), 0.5, np.float32))
    # frame 12 of 16: tau = 12/18
    out = blend(wl, wr, v, tau=12.0 / 18.0)
    assert np.allclose(out.samples, 12.0 / 18.0, atol=1e-5)


def test_blend_rejects_degenerate_tau():
    wl = Frame(np.zeros((8, 8), np.float32))
    v = VisibleMap(np.full((8, 8), 0.5, np.float32))
    with pytest.raises(ValueError):
        blend(wl, wl, v, tau=0.0)
    with pytest.raises(ValueError):
        blend(wl, wl, v, tau=1.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    tau=st.floats(min_value=0.01, max_value=0.99),
)
def test_blend_stays_in_unit_range(seed, tau):
    rng = np.random.default_rng(seed)
    wl = Frame(rng.random((6, 6)).astype(np.float32))
    wr = Frame(rng.random((6, 6)).astype(np.float32))
    v = VisibleMap(rng.random((6, 6)).astype(np.float32))
    out = blend(wl, wr, v, tau)
    assert out.samples.min() >= -1e-4
    assert out.samples.max() <= 1.0 + 1e-4


def test_normalize_brightness_matches_reference_mean():
    img = Frame(np.full((8, 8), 0.2, np.float32))
    ref = Frame(np.full((8, 8), 0.4, np.float32))
    out = normalize_brightness(img, ref)
    assert abs(float(out.samples.mean()) - 0.4) < 1e-6


def test_normalize_brightness_identity_and_guards():
    img = Frame(smooth_texture(8, 8, seed=15))
    same = normalize_brightness(img, img)
    assert np.array_equal(same.samples, img.samples)
    zero = Frame(np.zeros((8, 8), np.float32))
    out = normalize_brightness(zero, img)
    assert np.array_equal(out.samples, zero.samples)
    # extreme gain is clamped, not applied verbatim
    dim = Frame(np.full((8, 8), 0.05, np.float32))
    bright = Frame(np.full((8, 8), 0.9, np.float32))
    out = normalize_brightness(dim, bright)
    assert abs(float(out.samples.mean()) - 0.2) < 1e-6


def test_fuse_frame_static_inputs_reproduce_truth():
    truth = Frame(smooth_texture(48, 48, seed=16, blur=2.0))
    out = fuse_frame(truth, truth, truth, k=2, B=4).output
    assert np.max(np.abs(out.samples - truth.samples)) < 0.02


def test_fuse_frame_validates_position_and_shape():
    f = Frame(np.zeros((48, 48), np.float32))
    with pytest.raises(ValueError):
        fuse_frame(f, f, f, k=0, B=4)
    with pytest.raises(ValueError):
        fuse_frame(f, f, f, k=5, B=4)
    g = Frame(np.zeros((48, 32), np.float32))
    with pytest.raises(ValueError):
        fuse_frame(g, f, f, k=1, B=4)


def test_fuse_frame_exposes_consistent_intermediates():
    truth = Frame(smooth_texture(48, 48, seed=17, blur=2.0))
    detail = fuse_frame(truth, truth, truth, k=1, B=2)
    assert detail.output.samples.shape == (48, 48)
    assert detail.flow_left.u.shape == (48, 48)
    assert detail.warped_left.samples.shape == (48, 48)
    assert detail.visibility.values.shape == (48, 48)
    redone = warp(truth, detail.flow_left)
    assert np.array_equal(redone.samples, detail.warped_left.samples)


def test_fuse_frame_is_deterministic():
    target, source = shifted_pair(48, 48, dx=1, dy=0, seed=18)
    a = fuse_frame(source, target, target, k=1, B=2).output
    b = fuse_frame(source, target, target, k=1, B=2).output
    assert np.array_equal(a.samples, b.samples)


def _tiny_measurement(scene_frame: Frame, B: int = 1):
    h, w = scene_frame.samples.shape
    masks = CodingCube(np.ones((B, h, w), np.uint8))
    y = Frame(np.sum(np.stack([scene_frame.samples] * B), axis=0))
    return HybridMeasurement(
        y=y,
        z_left=scene_frame,
        z_right=scene_frame,
        masks=masks,
        schedule=build_schedule(100, B),
        gap_frames=0,
    )


def test_fuse_video_single_frame_matches_fuse_frame():
    frame = Frame(smooth_texture(48, 48, seed=19, blur=2.0))
    m = _tiny_measurement(frame)
    x_mid = VideoCube(frame.samples[None])
    cube = fuse_video(m, x_mid)
    single = fuse_frame(m.z_left, m.z_right, frame, k=1, B=1).output
    assert np.array_equal(cube.samples[0], single.samples)


def test_fuse_video_validates_block_length():
    frame = Frame(smooth_texture(48, 48, seed=20))
    m = _tiny_measurement(frame)
    with pytest.raises(ValueError):
        fuse_video(m, VideoCube(np.stack([frame.samples] * 2)))


def test_fusion_recovers_fine_detail_lost_in_intermediate():
    # key frames carry texture; intermediate lost it to smoothing. Fusion
    # with honest keys must beat the intermediate frame.
    truth = Frame(smooth_texture(64, 64, seed=22, blur=1.0))
    from scipy import ndimage

    degraded = Frame(ndimage.gaussian_filter(truth.samples, 1.2).astype(np.float32))
    fused = fuse_frame(truth, truth, degraded, k=1, B=2).output
    assert psnr(truth, fused) > psnr(truth, degraded)
