import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from khcv import (
    CodingCube,
    FlowField,
    FlowParams,
    Frame,
    FusionParams,
    HybridMeasurement,
    VideoCube,
    VisibleMap,
    blend,
    build_schedule,
    fuse_video,
    fusion,
    psnr,
    visibility_map,
    warp,
)
from conftest import shifted_pair, smooth_texture


def constant_flow(h, w, dx, dy):
    return FlowField(np.stack((np.full((h, w), dx, np.float32), np.full((h, w), dy, np.float32))))


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
    out = warp(img, FlowField(flow))
    assert np.array_equal(out.samples, img.samples)


def test_visibility_prefers_better_warp():
    t = Frame(smooth_texture(24, 24, seed=4) * 0.7)  # keep +0.2 below clipping
    off = Frame(t.samples + np.float32(0.2))
    v = visibility_map(t, off, t)
    assert v.samples.min() > 0.9
    v_swapped = visibility_map(off, t, t)
    assert v_swapped.samples.max() < 0.1


def test_visibility_equal_warps_is_half():
    t = Frame(smooth_texture(16, 16, seed=5))
    w1 = Frame(np.clip(t.samples + 0.05, 0, 1))
    v = visibility_map(w1, w1, t)
    assert np.all(v.samples == np.float32(0.5))


def test_visibility_swap_complements_exactly():
    rng = np.random.default_rng(9)
    t = Frame(rng.random((32, 32)).astype(np.float32))
    wl = Frame(np.clip(t.samples + rng.normal(0, 0.1, (32, 32)), 0, 1).astype(np.float32))
    wr = Frame(np.clip(t.samples + rng.normal(0, 0.1, (32, 32)), 0, 1).astype(np.float32))
    v1 = visibility_map(wl, wr, t)
    v2 = visibility_map(wr, wl, t)
    assert np.array_equal(v1.samples + v2.samples, np.ones_like(v1.samples))


def test_visibility_flat_for_tiny_beta():
    rng = np.random.default_rng(10)
    t = Frame(rng.random((16, 16)).astype(np.float32))
    wl = Frame(rng.random((16, 16)).astype(np.float32))
    wr = Frame(rng.random((16, 16)).astype(np.float32))
    v = visibility_map(wl, wr, t, FusionParams(beta=1e-6))
    assert np.max(np.abs(v.samples - 0.5)) < 1e-6


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


def _tiny_measurement(z_left: Frame, B: int = 1, z_right: Frame | None = None):
    """A measurement of B frames with these keys (z_right defaults to z_left);
    fusion reads only its keys, its B and its frame size."""
    h, w = z_left.samples.shape
    masks = CodingCube(np.ones((B, h, w), np.uint8))
    y = Frame(np.sum(np.stack([z_left.samples] * B), axis=0))
    return HybridMeasurement(
        y=y,
        z_left=z_left,
        z_right=z_left if z_right is None else z_right,
        masks=masks,
        schedule=build_schedule(100, B),
        gap_frames=0,
    )


def _repeat(frame: Frame, B: int) -> VideoCube:
    return VideoCube(np.stack([frame.samples] * B))


def test_fuse_video_static_inputs_reproduce_truth():
    truth = Frame(smooth_texture(48, 48, seed=16, blur=2.0))
    out = fuse_video(_tiny_measurement(truth, B=4), _repeat(truth, 4))
    assert np.max(np.abs(out.samples - truth.samples)) < 0.02


def test_fuse_video_is_deterministic():
    target, source = shifted_pair(48, 48, dx=1, dy=0, seed=18)
    m = _tiny_measurement(source, B=2, z_right=target)
    a = fuse_video(m, _repeat(target, 2))
    b = fuse_video(m, _repeat(target, 2))
    assert np.array_equal(a.samples, b.samples)


def test_fuse_video_validates_block_length():
    frame = Frame(smooth_texture(48, 48, seed=20))
    m = _tiny_measurement(frame)
    for wrong in (_repeat(frame, 2), VideoCube(frame.samples[None, :, :32])):
        with pytest.raises(ValueError):
            fuse_video(m, wrong)


@settings(max_examples=20, deadline=None)
@given(
    B=st.integers(1, 4),
    height=st.integers(32, 40),
    width=st.integers(32, 40),
    seed=st.integers(0, 2**16),
)
def test_fuse_video_of_a_static_block_returns_the_block(B, height, width, seed):
    # keys and every intermediate frame are one texture: both fields are zero,
    # the two warps tie, and the blend returns the frame up to its epsilon
    frame = Frame(smooth_texture(height, width, seed=seed))
    seen = []

    def record(k, flow_left, flow_right, visibility):
        seen.append(k)
        assert not flow_left.samples.any() and not flow_right.samples.any()
        assert np.all(visibility.samples == np.float32(0.5))

    out = fuse_video(_tiny_measurement(frame, B), _repeat(frame, B), callback=record)
    assert seen == list(range(1, B + 1))
    assert np.max(np.abs(out.samples - frame.samples)) < 3e-6


def test_fusion_recovers_fine_detail_lost_in_intermediate():
    # key frames carry texture; intermediate lost it to smoothing. Fusion
    # with honest keys must beat the intermediate frame.
    truth = Frame(smooth_texture(64, 64, seed=22, blur=1.0))
    from scipy import ndimage

    degraded = Frame(ndimage.gaussian_filter(truth.samples, 1.2).astype(np.float32))
    fused = fuse_video(_tiny_measurement(truth, B=2), _repeat(degraded, 2))
    assert psnr(truth, Frame(fused.samples[0])) > psnr(truth, degraded)


@pytest.mark.parametrize("B", [1, 2, 3, 4, 5, 6, 7, 16])
def test_fuse_video_solves_flow_in_full_only_at_anchor_frames(B, monkeypatch):
    # anchors are every third frame from 1, and B; every other frame refines,
    # at the finest level only, the fields interpolated between its anchors
    side = 32
    frames = VideoCube(np.stack([smooth_texture(side, side, seed=40 + k) for k in range(B)]))
    m = _tiny_measurement(Frame(smooth_texture(side, side, seed=30)), B, Frame(smooth_texture(side, side, seed=31)))
    flow = FlowParams()
    solved = {}  # (k, key side) -> field of the full solve
    starts = {}  # (k, key side) -> start of the refinement

    def counting(target, source, params=None, *, start=None):
        (k,) = [k for k in range(1, B + 1) if np.array_equal(target.samples, frames.samples[k - 1])]
        call = (k, "left" if source is m.z_left else "right")
        assert call not in solved and call not in starts
        result = real(target, source, params, start=start)
        if start is None:
            assert params == flow
            solved[call] = result
        else:
            assert params == FlowParams(pyramid_levels=1, warps_per_level=2)
            starts[call] = start
        return result

    real = fusion.estimate_flow
    monkeypatch.setattr(fusion, "estimate_flow", counting)
    seen = []
    fuse_video(m, frames, flow=flow, callback=lambda k, *rest: seen.append(k))

    anchors = sorted(set(range(1, B + 1, 3)) | {B})
    assert sorted(solved) == sorted((k, s) for k in anchors for s in ("left", "right"))
    others = [k for k in range(1, B + 1) if k not in anchors]
    assert sorted(starts) == sorted((k, s) for k in others for s in ("left", "right"))
    assert seen == list(range(1, B + 1))
    for (k, s), start in starts.items():
        a = max(j for j in anchors if j < k)
        b = min(j for j in anchors if j > k)
        want = ((b - k) * solved[(a, s)].samples + (k - a) * solved[(b, s)].samples) / (b - a)
        assert start.samples.tobytes() == want.astype(np.float32).tobytes()
