import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from khcv import (
    CodingCube,
    FlowField,
    FlowParams,
    Frame,
    HybridMeasurement,
    NoiseModel,
    VideoCube,
    VisibleMap,
    blend,
    build_schedule,
    fuse_video,
    fusion,
    gap_tv_reconstruct,
    generate_masks,
    psnr,
    save_tensor,
    simulate_capture,
    visibility_map,
    warp,
)
from khcv.cli import PipelineConfig, run_pipeline

from conftest import (
    float_planes,
    moving_square_scene,
    shifted_pair,
    smooth_texture,
    translating_scene,
    transposed,
)


def constant_flow(h, w, dx, dy):
    return FlowField(np.stack((np.full((h, w), dx, np.float32), np.full((h, w), dy, np.float32))))


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


def test_visibility_flat_for_a_tiny_slope(monkeypatch):
    monkeypatch.setattr(fusion, "_VISIBILITY_SLOPE", 1e-6)
    rng = np.random.default_rng(10)
    t = Frame(rng.random((16, 16)).astype(np.float32))
    wl = Frame(rng.random((16, 16)).astype(np.float32))
    wr = Frame(rng.random((16, 16)).astype(np.float32))
    v = visibility_map(wl, wr, t)
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
    # the two warps tie, and the blend returns the frame up to rounding
    frame = Frame(smooth_texture(height, width, seed=seed))
    seen = []

    def record(k, flow_left, flow_right, visibility):
        seen.append(k)
        assert not flow_left.samples.any() and not flow_right.samples.any()
        assert np.all(visibility.samples == np.float32(0.5))

    out = fuse_video(_tiny_measurement(frame, B), _repeat(frame, B), callback=record)
    assert seen == list(range(1, B + 1))
    assert np.max(np.abs(out.samples - frame.samples)) < 3e-6


def box_filter_reference(x, size=3):
    """scipy's mean over each size x size box of each plane, replicate borders."""
    return ndimage.uniform_filter(x, size=(1,) * (x.ndim - 2) + (size, size), mode="nearest")


@settings(max_examples=150, deadline=None)
@given(x=float_planes(4), radius=st.sampled_from([fusion._ERROR_RADIUS, 2]))
def test_error_box_filter_is_scipys_uniform_filter_bit_for_bit(x, radius):
    # the running sums along axis -2 and then -1 add in the order of
    # ndimage.uniform_filter1d's loop
    expected = box_filter_reference(x, 2 * radius + 1)
    assert fusion._box_mean(x, radius).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "B, height, width", [(1, 17, 23), (2, 21, 19), (4, 19, 17), (7, 23, 21)], ids=["B1", "B2", "B4", "B7"]
)
def test_fuse_video_equals_the_public_steps_bit_for_bit(B, height, width):
    # rebuilt from the public steps on the fields the callback reports, with
    # the fallback to the intermediate (errors filtered by scipy's
    # uniform_filter) and the clip, every fused frame must come out bit for
    # bit, and the callback's map must be visibility_map of the two warps
    scene = translating_scene(height, width, B + 2, seed=B).samples
    rng = np.random.default_rng(B)
    x_mid = scene[1:-1] + rng.normal(0.0, 0.03, (B, height, width)).astype(np.float32)
    x_mid[:, 3:9, 4:10] = 1.0  # a patch neither key shows, which falls back
    m = _tiny_measurement(Frame(scene[0]), B, Frame(scene[-1]))
    records = []
    fused = fuse_video(m, VideoCube(x_mid), FlowParams(pyramid_levels=2), callback=lambda *r: records.append(r))
    assert [r[0] for r in records] == list(range(1, B + 1))
    kept = []
    for k, f_left, f_right, v in records:
        target = Frame(x_mid[k - 1])
        w_left, w_right = warp(m.z_left, f_left), warp(m.z_right, f_right)
        assert v == visibility_map(w_left, w_right, target)
        blended = blend(w_left, w_right, v, k / (B + 2.0))
        errors = [
            ndimage.uniform_filter(
                np.abs(w.samples.astype(np.float64) - target.samples.astype(np.float64)),
                size=2 * fusion._ERROR_RADIUS + 1,
                mode="nearest",
            )
            for w in (w_left, w_right)
        ]
        smoothed = fusion._smoothed_errors(w_left.samples, w_right.samples, target.samples)
        assert smoothed.tobytes() == np.stack(errors).tobytes()
        bad = np.minimum(*errors) > fusion._FALLBACK_THRESHOLD
        want = np.clip(np.where(bad, target.samples, blended.samples), 0.0, 1.0)
        assert fused.samples[k - 1].tobytes() == want.tobytes(), k
        kept.append(bad)
    # both branches ran: some pixels fell back and some were blended
    assert np.any(kept) and not np.all(kept)


@pytest.mark.parametrize("B", [1, 4, 8])
def test_callback_gets_the_visibility_map_the_blend_used(B, monkeypatch):
    # a dumped visibility map must be the object the fusion blended with, not
    # one rebuilt from its samples
    used = []
    public_blend = fusion.blend

    def recording_blend(w_left, w_right, v, tau):
        used.append(v)
        return public_blend(w_left, w_right, v, tau)

    monkeypatch.setattr(fusion, "blend", recording_blend)
    scene = translating_scene(32, 32, B + 2, seed=B).samples
    m = _tiny_measurement(Frame(scene[0]), B, Frame(scene[-1]))
    seen = []
    fuse_video(m, VideoCube(scene[1:-1]), callback=lambda k, f_left, f_right, v: seen.append(v))
    assert len(seen) == len(used) == B
    assert all(s is u for s, u in zip(seen, used))


def test_pixels_no_key_explains_keep_the_intermediate_samples():
    # the keys hold a dark texture; the intermediate frames hold it too, but
    # for a white patch, which no warp of the keys comes near.  Where neither
    # warped key comes within 0.15 of the frame, in the error box-filtered
    # over 3x3 pixels, the fused frame is the intermediate frame bit for bit;
    # elsewhere it is the blend
    B = 2
    key = Frame(smooth_texture(48, 48, seed=24) / 2)
    frames = np.stack([key.samples] * B)
    frames[:, 16:32, 20:36] = 1.0
    blends = {}

    def record(k, flow_left, flow_right, visibility):
        w_left, w_right = warp(key, flow_left), warp(key, flow_right)
        errors = [
            box_filter_reference(np.abs(w.samples.astype(np.float64) - frames[k - 1])) for w in (w_left, w_right)
        ]
        blended = np.clip(blend(w_left, w_right, visibility, k / (B + 2.0)).samples, 0.0, 1.0)
        blends[k] = (np.minimum(*errors) > 0.15, blended)

    fused = fuse_video(_tiny_measurement(key, B), VideoCube(frames), callback=record)
    for k, (bad, blended) in blends.items():
        assert bad[17:31, 21:35].all() and not bad[:8].any()
        assert fused.samples[k - 1][bad].tobytes() == frames[k - 1][bad].tobytes()
        assert fused.samples[k - 1][~bad].tobytes() == blended[~bad].tobytes()


@pytest.mark.parametrize(
    "scene, mask_seed, sigma, B",
    [
        (lambda: translating_scene(128, 128, 18, seed=9), 21, 0.0, 16),
        (lambda: moving_square_scene(128, 128, 18), 8, 0.02, 16),
        (lambda: translating_scene(48, 64, 10, step=(1, 1), seed=4), 7, 0.02, 8),
    ],
    ids=["criterion6-texture", "square-noisy", "48x64-texture-noisy"],
)
def test_fuse_video_commutes_with_transposition(scene, mask_seed, sigma, B):
    # transposing y, the masks, the keys and the intermediate transposes the
    # fused cube up to rounding: the flow solver's transforms multiply the
    # two axes in a fixed order.  A pixel near the fallback threshold may
    # flip, so the share of pixels moved by more than 1e-4 is bounded as well
    # as the largest move; a swapped u and v, or a stencil biased to one
    # axis, moves most pixels far more
    cube = scene()
    h, w = cube.samples.shape[1:]
    noise = NoiseModel(sigma=sigma, seed=1) if sigma else None
    m = simulate_capture(cube, generate_masks(mask_seed, h, w, B), build_schedule(1000, B), noise=noise)
    x_mid = gap_tv_reconstruct(m.y, m.masks)
    turned = replace(
        m,
        y=Frame(transposed(m.y.samples)),
        z_left=Frame(transposed(m.z_left.samples)),
        z_right=Frame(transposed(m.z_right.samples)),
        masks=CodingCube(transposed(m.masks.samples)),
    )
    fused = fuse_video(m, x_mid).samples
    moved = np.abs(transposed(fuse_video(turned, VideoCube(transposed(x_mid.samples))).samples) - fused)
    assert (moved > 1e-4).mean() <= 1e-3
    assert moved.max() <= 1e-2


def test_fusion_recovers_fine_detail_lost_in_intermediate():
    # key frames carry texture; intermediate lost it to smoothing. Fusion
    # with honest keys must beat the intermediate frame.
    truth = Frame(smooth_texture(64, 64, seed=22, blur=1.0))
    degraded = Frame(ndimage.gaussian_filter(truth.samples, 1.2).astype(np.float32))
    fused = fuse_video(_tiny_measurement(truth, B=2), _repeat(degraded, 2))
    assert psnr(truth, Frame(fused.samples[0])) > psnr(truth, degraded)


def test_fusion_tracks_an_occluder_over_a_flat_background(tmp_path):
    # the second kind of motion next to criterion 6's sliding texture: a
    # bright square over a flat background, whose edges alone carry the flow
    # and hide or reveal background, through the whole pipeline
    save_tensor(moving_square_scene(128, 128, 26), tmp_path / "scene.khcv")
    cfg = PipelineConfig(
        scene=str(tmp_path / "scene.khcv"), B=16, t_g=300, mask_seed=21, out_dir=str(tmp_path / "out")
    )
    result = run_pipeline(cfg)
    assert result.mean_psnr >= result.intermediate_mean_psnr + 0.3
    assert result.mean_ssim >= 0.96


@pytest.mark.parametrize(
    "B, flow",
    [pytest.param(B, FlowParams(), id=str(B)) for B in (1, 2, 3, 4, 5, 6, 7, 16)]
    + [pytest.param(7, FlowParams(iters_per_level=3), id="7-iters3")],
)
def test_fuse_video_solves_flow_in_full_only_at_anchor_frames(B, flow, monkeypatch):
    # anchors are every third frame from 1, and B; every other frame refines,
    # at the finest level only, the fields interpolated between its anchors,
    # with the caller's flow settings but for the pyramid and the warps.
    # Flow runs one anchor interval at a time: the first interval's anchors,
    # then each later anchor, then the frames between, each with both keys
    side = 32
    frames = VideoCube(np.stack([smooth_texture(side, side, seed=40 + k) for k in range(B)]))
    m = _tiny_measurement(Frame(smooth_texture(side, side, seed=30)), B, Frame(smooth_texture(side, side, seed=31)))
    solved = {}  # (k, key side) -> field of the full solve
    seeds = {}  # (k, key side) -> start of the refinement
    stacks = []  # (full solve?, frames, frames fused before) per estimate_flows call
    seen = []

    def counting(targets, sources, params=None, *, starts=None):
        calls = []
        for target, source in zip(targets, sources, strict=True):
            (k,) = [k for k in range(1, B + 1) if np.array_equal(target.samples, frames.samples[k - 1])]
            calls.append((k, "left" if source is m.z_left else "right"))
        assert not set(calls) & (set(solved) | set(seeds))
        result = real(targets, sources, params, starts=starts)
        if starts is None:
            assert params == flow
            solved.update(zip(calls, result))
        else:
            assert params == replace(flow, pyramid_levels=1, warps_per_level=fusion._REFINE_WARPS)
            seeds.update(zip(calls, starts, strict=True))
        # each stack pairs every frame with both keys, left first
        ks = sorted({k for k, _ in calls})
        assert calls == [(k, s) for k in ks for s in ("left", "right")]
        stacks.append((starts is None, ks, len(seen)))
        return result

    real = fusion.estimate_flows
    monkeypatch.setattr(fusion, "estimate_flows", counting)
    fuse_video(m, frames, flow=flow, callback=lambda k, *rest: seen.append(k))

    anchors = sorted(set(range(1, B + 1, 3)) | {B})
    assert sorted(solved) == sorted((k, s) for k in anchors for s in ("left", "right"))
    others = [k for k in range(1, B + 1) if k not in anchors]
    assert sorted(seeds) == sorted((k, s) for k in others for s in ("left", "right"))
    assert len(solved) + len(seeds) == 2 * B
    assert seen == list(range(1, B + 1))
    for (k, s), start in seeds.items():
        a = max(j for j in anchors if j < k)
        b = min(j for j in anchors if j > k)
        want = ((b - k) * solved[(a, s)].samples + (k - a) * solved[(b, s)].samples) / (b - a)
        assert start.samples.tobytes() == want.astype(np.float32).tobytes()
    # the stacks, in order, with the number of frames fused before each
    want_stacks = [(True, anchors[:2], 0)]
    for i, (a, b) in enumerate(zip(anchors, anchors[1:])):
        if i:
            want_stacks.append((True, [b], a))
        if b > a + 1:
            want_stacks.append((False, list(range(a + 1, b)), a))
    assert stacks == want_stacks


@pytest.mark.parametrize("B", [8, 16])
def test_fuse_video_holds_the_fields_of_one_anchor_interval(B, monkeypatch):
    # each field estimate_flows returns is tracked by a weak reference.  When
    # a frame is fused, the fields alive must be at most one interval's: its
    # two anchors' and those of the frames between them, two per frame.  At
    # B = 8 the last interval, anchors 7 and 8, has no frame between
    side = 32
    frames = VideoCube(np.stack([smooth_texture(side, side, seed=50 + k) for k in range(B)]))
    m = _tiny_measurement(Frame(smooth_texture(side, side, seed=30)), B, Frame(smooth_texture(side, side, seed=31)))
    refs = []
    live = []

    def tracking(*args, **kwargs):
        fields = real(*args, **kwargs)
        refs.extend(weakref.ref(f) for f in fields)
        return fields

    def count(k, f_left, f_right, v):
        gc.collect()
        live.append(sum(r() is not None for r in refs))

    real = fusion.estimate_flows
    monkeypatch.setattr(fusion, "estimate_flows", tracking)
    fuse_video(m, frames, callback=count)
    assert len(live) == B and len(refs) == 2 * B
    # the frame's own two fields are alive while it is reported
    assert min(live) >= 2
    assert max(live) <= 2 * (fusion._ANCHOR_STRIDE + 1), live
