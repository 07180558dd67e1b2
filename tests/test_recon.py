import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from khcv import recon
from khcv import (
    CodingCube,
    Frame,
    GapTvParams,
    VideoCube,
    coverage_map,
    encode,
    gap_tv_reconstruct,
    generate_masks,
    psnr,
    total_variation,
    tv_denoise,
)

from conftest import full_coverage_masks, moving_square_scene, smooth_texture, transposed


def test_params_validation():
    with pytest.raises(ValueError):
        GapTvParams(outer_iters=0)
    # a positive weight below 1e-12 would overflow the float32 dual
    for weight in (-0.1, float("nan"), math.inf, 1e-20, 1.175494351e-38, 9.9e-13):
        with pytest.raises(ValueError):
            GapTvParams(tv_weight=weight)
        with pytest.raises(ValueError):
            tv_denoise(Frame(np.zeros((4, 4), np.float32)), weight)
    with pytest.raises(ValueError):
        GapTvParams(tv_inner_iters=0)
    # the counts follow the integer rule: no fraction, and a bool is not a count
    frame = Frame(smooth_texture(8, 8, seed=2))
    for bad in (2.5, True):
        for name in ("outer_iters", "tv_inner_iters"):
            with pytest.raises(ValueError):
                GapTvParams(**{name: bad})
        with pytest.raises(ValueError):
            tv_denoise(frame, 0.1, inner_iters=bad)
    with pytest.raises(ValueError):
        tv_denoise(frame, 0.1, inner_iters=0)
    GapTvParams(outer_iters=np.int64(3))
    numpy_count = tv_denoise(frame, 0.1, inner_iters=np.int64(2))
    assert numpy_count.samples.tobytes() == tv_denoise(frame, 0.1, 2).samples.tobytes()


def test_tv_denoise_default_count_is_the_reconstructions():
    # one default per setting: a lone TV call runs the dual count that
    # gap_tv_reconstruct runs by default
    frame = Frame(smooth_texture(12, 10, seed=4))
    for weight in (0.035, 0.1):
        alone = tv_denoise(frame, weight)
        explicit = tv_denoise(frame, weight, GapTvParams().tv_inner_iters)
        assert alone.samples.tobytes() == explicit.samples.tobytes()


def test_tv_denoise_weight_zero_is_identity():
    img = Frame(smooth_texture(16, 16, seed=1))
    out = tv_denoise(img, 0.0)
    assert np.array_equal(out.samples, img.samples)


def test_tv_denoise_never_increases_tv():
    rng = np.random.default_rng(7)
    for _ in range(150):
        h, w = rng.integers(4, 24, size=2)
        img = Frame(rng.random((h, w)).astype(np.float32))
        weight = float(rng.uniform(0.01, 0.5))
        out = tv_denoise(img, weight)
        assert total_variation(out) <= total_variation(img) + 1e-6


def ref_grad(a):
    gx = np.zeros_like(a)
    gy = np.zeros_like(a)
    gx[:, :-1] = a[:, 1:] - a[:, :-1]
    gy[:-1, :] = a[1:, :] - a[:-1, :]
    return gx, gy


def ref_div(px, py):
    d = np.zeros_like(px)
    d[:, 0] += px[:, 0]
    d[:, 1:] += px[:, 1:] - px[:, :-1]
    d[0, :] += py[0, :]
    d[1:, :] += py[1:, :] - py[:-1, :]
    return d


def reference_tv_denoise(img, weight, inner_iters):
    """The Chambolle dual loop in float64 with freshly allocated arrays."""
    tau = 0.25
    px = np.zeros_like(img)
    py = np.zeros_like(img)
    scaled = img / weight
    for _ in range(inner_iters):
        gx, gy = ref_grad(ref_div(px, py) - scaled)
        denom = 1.0 + tau * np.hypot(gx, gy)
        px = (px + tau * gx) / denom
        py = (py + tau * gy) / denom
    return img - weight * ref_div(px, py)


def plain_float32_tv_denoise(img, weight, inner_iters):
    """The same loop in float32, written plainly: the dual starts from zero,
    tau * g is added to it, and the correction is applied in float64."""
    f32 = np.float32
    tau = f32(0.25)
    px = np.zeros(img.shape, f32)
    py = np.zeros(img.shape, f32)
    scaled = (img / weight).astype(f32)
    for _ in range(inner_iters):
        gx, gy = ref_grad(ref_div(px, py) - scaled)
        gx *= tau
        gy *= tau
        denom = f32(1.0) + np.sqrt(gx * gx + gy * gy)
        px = (px + gx) / denom
        py = (py + gy) / denom
    return img - (f32(weight) * ref_div(px, py)).astype(np.float64)


def image_with_zeros(rng, shape, zeros):
    """Uniform [0, 1) samples; zeros is "none", "all" (an all-zero image),
    "half" (about half the pixels +0) or "signed" (zeros of both signs)."""
    img = rng.random(shape)
    if zeros == "all":
        img[...] = 0.0
    elif zeros in ("half", "signed"):
        img[rng.random(shape) < 0.5] = 0.0
        if zeros == "signed":
            img[rng.random(shape) < 0.25] = -0.0
    return img


ZEROS = st.sampled_from(["none", "all", "half", "signed"])


def reference_gap_tv(y, c, params, tv=reference_tv_denoise, floor=1e-8, callback=None):
    """The GAP-TV loop with a cube-wide float64 data step, TV step by tv.

    By default it divides by max(R, 1e-8), not the solver's max(R, 1), and
    denoises in float64.  R counts open binary masks, so the two divisors
    agree wherever a mask is open, and elsewhere the update is 0 under
    either; comparing with the solver checks that.  With floor=1 and
    tv=plain_float32_tv_denoise it is the solver's arithmetic, written
    plainly.  callback is called as the solver calls it."""
    masks = c.samples.astype(np.float64)
    meas = y.samples.astype(np.float64)
    safe_cov = np.maximum((masks * masks).sum(axis=0), floor)
    x = masks * (meas / safe_cov)
    for it in range(params.outer_iters):
        x = x + masks * ((meas - (masks * x).sum(axis=0)) / safe_cov)
        if callback is not None:
            callback(it, float(np.linalg.norm(meas - (masks * x).sum(axis=0))))
        for k in range(x.shape[0]):
            x[k] = tv(x[k], params.tv_weight, params.tv_inner_iters)
    return np.clip(x, 0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    weight=st.floats(0.01, 0.5),
    inner_iters=st.integers(1, 8),
    zeros=ZEROS,
    seed=st.integers(0, 2**32 - 1),
)
@example(h=1, w=40, weight=0.1, inner_iters=5, zeros="none", seed=0)
@example(h=40, w=1, weight=0.1, inner_iters=5, zeros="none", seed=0)
@example(h=1, w=1, weight=0.5, inner_iters=8, zeros="none", seed=0)
# only the first iteration, from p = 0, runs
@example(h=9, w=7, weight=0.1, inner_iters=1, zeros="none", seed=0)
@example(h=9, w=7, weight=0.1, inner_iters=3, zeros="all", seed=0)
@example(h=12, w=10, weight=0.1, inner_iters=1, zeros="signed", seed=1)
@example(h=12, w=10, weight=0.1, inner_iters=4, zeros="signed", seed=2)
def test_float32_tv_kernel_matches_float64_reference(h, w, weight, inner_iters, zeros, seed):
    img = image_with_zeros(np.random.default_rng(seed), (h, w), zeros)
    ref = reference_tv_denoise(img, weight, inner_iters)
    work = recon._tv_buffers((h, w))
    got = img.copy()
    recon._tv_denoise(got, weight, inner_iters, work)
    assert np.abs(got - ref).max() <= 1e-6
    # and bit for bit the plain float32 loop, signed zeros included: tau is
    # folded into the divergence and the first iteration is specialised
    # without changing a bit
    assert got.tobytes() == plain_float32_tv_denoise(img, weight, inner_iters).tobytes()

    # a second call through the same, now dirty, work planes repeats exactly
    work.fill(np.nan)
    again = img.copy()
    recon._tv_denoise(again, weight, inner_iters, work)
    assert again.tobytes() == got.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    frames=st.integers(1, 5),
    spare=st.integers(0, 2),
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    weight=st.floats(0.01, 0.5),
    inner_iters=st.integers(1, 6),
    zeros=ZEROS,
    seed=st.integers(0, 2**32 - 1),
)
@example(frames=3, spare=0, h=1, w=7, weight=0.1, inner_iters=5, zeros="none", seed=0)
@example(frames=3, spare=1, h=7, w=1, weight=0.1, inner_iters=5, zeros="none", seed=0)
@example(frames=5, spare=0, h=1, w=1, weight=0.5, inner_iters=3, zeros="none", seed=0)
@example(frames=3, spare=1, h=6, w=5, weight=0.1, inner_iters=1, zeros="none", seed=0)
@example(frames=3, spare=0, h=6, w=5, weight=0.1, inner_iters=3, zeros="all", seed=0)
@example(frames=4, spare=0, h=8, w=6, weight=0.1, inner_iters=1, zeros="signed", seed=1)
@example(frames=4, spare=2, h=8, w=6, weight=0.1, inner_iters=4, zeros="signed", seed=2)
def test_stacked_tv_kernel_matches_one_frame_calls(frames, spare, h, w, weight, inner_iters, zeros, seed):
    # frames laid end to end share every pass, through work planes that may
    # hold more frames than the stack; no difference may cross a row or a
    # frame end, so each frame matches its own one-frame call bit for bit
    imgs = image_with_zeros(np.random.default_rng(seed), (frames, h, w), zeros)
    stack = imgs.copy()
    work = recon._tv_buffers((h, w), frames + spare)
    work.fill(np.nan)
    recon._tv_denoise(stack, weight, inner_iters, work)
    for k in range(frames):
        alone = imgs[k].copy()
        recon._tv_denoise(alone, weight, inner_iters, recon._tv_buffers((h, w)))
        assert stack[k].tobytes() == alone.tobytes()


@pytest.mark.parametrize("side, B, sizes", [(128, 3, [2, 1]), (48, 15, [14, 1])])
def test_partial_last_tv_stack_matches_lone_frames(side, B, sizes):
    # gap_tv_reconstruct's stacks under the real pixel budget: when B is not
    # a multiple of the stack, the last stack reads work[:, :size] of planes
    # sized for a full one, rows that are not contiguous, and its (2, n)
    # views of the dual pairs are strided.  Every frame must come out bit for
    # bit as a lone call
    rng = np.random.default_rng(side + B)
    imgs = image_with_zeros(rng, (B, side, side), "signed")
    stack = min(B, max(1, recon._TV_STACK_PIXELS // (side * side)))
    assert [len(range(B)[k : k + stack]) for k in range(0, B, stack)] == sizes
    params = GapTvParams()
    work = recon._tv_buffers((side, side), stack)
    stacked = imgs.copy()
    for k in range(0, B, stack):
        recon._tv_denoise(stacked[k : k + stack], params.tv_weight, params.tv_inner_iters, work)
    for k in range(B):
        alone = imgs[k].copy()
        recon._tv_denoise(alone, params.tv_weight, params.tv_inner_iters, recon._tv_buffers((side, side)))
        assert stacked[k].tobytes() == alone.tobytes(), k


def test_gap_tv_allocates_no_scratch_cube():
    # a reconstruction holds its float64 estimate, a float64 copy of the
    # masks, the TV work planes and the float32 result; the data step works
    # through (H, W) planes, so beyond those it allocates less than one
    # float64 cube, where a (B, H, W) scratch cube alone would be one
    B, side = 8, 64
    rng = np.random.default_rng(5)
    masks = CodingCube((rng.random((B, side, side)) < 0.5).astype(np.uint8))
    y = encode(VideoCube(rng.random((B, side, side)).astype(np.float32)), masks)
    params = GapTvParams(outer_iters=2)
    gap_tv_reconstruct(y, masks, params)  # one-time allocations happen outside the trace
    tracemalloc.start()
    try:
        gap_tv_reconstruct(y, masks, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cube = B * side * side * 8
    stack = min(B, recon._TV_STACK_PIXELS // (side * side))
    held = 2 * cube + recon._tv_buffers((side, side), stack).nbytes + cube // 2
    assert peak - held < cube


@pytest.mark.parametrize("side", [5, 24, 48])
def test_gap_tv_output_does_not_depend_on_the_stack_budget(side, monkeypatch):
    rng = np.random.default_rng(side)
    masks = CodingCube((rng.random((6, side, side)) < 0.5).astype(np.uint8))
    y = encode(VideoCube(rng.random((6, side, side)).astype(np.float32)), masks)
    params = GapTvParams(outer_iters=4)
    outputs = set()
    # one frame per stack, stacks of 4 then 2, and all six frames in one
    for pixels in (1, 4 * side * side, 6 * side * side):
        monkeypatch.setattr(recon, "_TV_STACK_PIXELS", pixels)
        outputs.add(gap_tv_reconstruct(y, masks, params).samples.tobytes())
    assert len(outputs) == 1


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    frames=st.integers(1, 4),
    h=st.integers(1, 20),
    w=st.integers(1, 20),
    outer_iters=st.integers(1, 12),
    weight=st.floats(0.01, 0.3),
    inner_iters=st.integers(1, 6),
    hole=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(frames=1, h=12, w=9, outer_iters=8, weight=0.07, inner_iters=5, hole=False, seed=0)
@example(frames=4, h=16, w=16, outer_iters=10, weight=0.07, inner_iters=5, hole=True, seed=1)
def test_gap_tv_matches_float64_reference(frames, h, w, outer_iters, weight, inner_iters, hole, seed, caplog):
    rng = np.random.default_rng(seed)
    planes = (rng.random((frames, h, w)) < 0.5).astype(np.uint8)
    if hole:
        planes[:, rng.integers(h), rng.integers(w)] = 0
    masks = CodingCube(planes)
    y = encode(VideoCube(rng.random((frames, h, w)).astype(np.float32)), masks)
    params = GapTvParams(outer_iters=outer_iters, tv_weight=weight, tv_inner_iters=inner_iters)
    caplog.clear()
    residuals = ([], [])
    with caplog.at_level(logging.WARNING, logger="khcv.recon"):
        got = gap_tv_reconstruct(y, masks, params, callback=lambda k, r: residuals[0].append(r))
    assert np.abs(got.samples - reference_gap_tv(y, masks, params)).max() <= 1e-6
    # the solver's forward operator adds in the order of the cube-wide sum,
    # so the float64 residuals repeat bit for bit
    plain = reference_gap_tv(
        y, masks, params, plain_float32_tv_denoise, floor=1.0, callback=lambda k, r: residuals[1].append(r)
    )
    assert got.samples.tobytes() == plain.astype(np.float32).tobytes()
    assert residuals[0] == residuals[1]
    warned = any("zero mask coverage" in rec.message for rec in caplog.records)
    assert warned == bool((planes.sum(axis=0) == 0).any())


@settings(max_examples=40, deadline=None)
@given(
    frames=st.integers(1, 4),
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    density=st.sampled_from([0.2, 0.5, 1.0]),
    outer_iters=st.integers(1, 20),
    noise=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_gap_tv_commutes_with_transposition(frames, h, w, density, outer_iters, noise, seed):
    # transposing the measurement and the masks transposes the reconstruction
    # bit for bit: the data step is per pixel, and the isotropic TV step adds
    # each pair of horizontal and vertical terms, which commute.  A stencil
    # biased to one axis breaks this
    rng = np.random.default_rng(seed)
    masks = CodingCube((rng.random((frames, h, w)) < density).astype(np.uint8))
    y = encode(VideoCube(rng.random((frames, h, w)).astype(np.float32)), masks)
    if noise:
        y = Frame(y.samples + rng.normal(0.0, 0.02, y.samples.shape).astype(np.float32))
    params = GapTvParams(outer_iters=outer_iters)
    got = gap_tv_reconstruct(y, masks, params)
    turned = gap_tv_reconstruct(Frame(transposed(y.samples)), CodingCube(transposed(masks.samples)), params)
    assert transposed(turned.samples).tobytes() == got.samples.tobytes()


def test_tv_denoise_smooths_noise():
    clean = smooth_texture(32, 32, seed=3, blur=3.0)
    rng = np.random.default_rng(2)
    noisy = Frame((clean + rng.normal(0, 0.05, clean.shape)).astype(np.float32))
    out = tv_denoise(noisy, 0.05)
    assert psnr(clean, out.samples) > psnr(clean, noisy.samples)


def test_total_variation_of_constant_is_zero():
    assert total_variation(np.full((9, 9), 0.4)) == 0.0


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_total_variation_sums_forward_differences_of_one_frame(h, w, seed):
    a = np.random.default_rng(seed).random((h, w))
    assert total_variation(a) == pytest.approx(float(np.hypot(*ref_grad(a)).sum()), rel=1e-12, abs=1e-12)
    assert total_variation(Frame(a.astype(np.float32))) == total_variation(a.astype(np.float32))


def test_total_variation_refuses_anything_but_one_frame():
    ramp = np.tile(np.arange(4.0), (4, 1))  # a step of 1 across 3 of 4 columns
    assert total_variation(ramp) == 12.0
    two = np.stack([ramp, ramp])  # per frame the sum would be 24, not a TV of the stack
    for bad in (two, VideoCube(two.astype(np.float32)), np.arange(4.0), np.float64(1.0)):
        with pytest.raises(ValueError, match="one 2-D frame"):
            total_variation(bad)


def test_coverage_map_counts_open_masks():
    c = CodingCube(np.stack([np.eye(4, dtype=np.uint8)] * 3))
    cov = coverage_map(c)
    assert cov.samples[0, 0] == 3.0
    assert cov.samples[0, 1] == 0.0


def test_single_frame_full_mask_recovers_input():
    # B=1 with an all-open mask and no TV: the projection solves exactly
    rng = np.random.default_rng(4)
    truth = rng.random((12, 12)).astype(np.float32)
    c = CodingCube(np.ones((1, 12, 12), np.uint8))
    y = encode(VideoCube(truth[None]), c)
    out = gap_tv_reconstruct(y, c, GapTvParams(outer_iters=1, tv_weight=0.0))
    assert np.max(np.abs(out.samples[0] - truth)) < 1e-6


def test_static_scene_high_fidelity():
    img = smooth_texture(64, 64, seed=11, blur=10.0)
    scene = VideoCube(np.stack([img] * 8))
    masks = full_coverage_masks(3, 64, 64, 8)
    y = encode(scene, masks)
    out = gap_tv_reconstruct(y, masks)
    assert psnr(scene, out) >= 40.0


def test_moving_square_reasonable_fidelity():
    scene = moving_square_scene(64, 64, 8)
    masks = generate_masks(4, 64, 64, 8)
    y = encode(scene, masks)
    out = gap_tv_reconstruct(y, masks)
    assert psnr(scene, out) >= 20.0


def test_residual_is_monotone_nonincreasing():
    scene = moving_square_scene(32, 32, 8)
    masks = generate_masks(5, 32, 32, 8)
    y = encode(scene, masks)
    residuals = []
    gap_tv_reconstruct(y, masks, GapTvParams(outer_iters=20), callback=lambda k, r: residuals.append(r))
    assert len(residuals) == 20
    for prev, cur in zip(residuals, residuals[1:]):
        assert cur <= prev + 1e-9


def test_tv_weight_zero_keeps_projection_only():
    scene = moving_square_scene(16, 16, 4)
    masks = full_coverage_masks(6, 16, 16, 4)
    y = encode(scene, masks)
    out = gap_tv_reconstruct(y, masks, GapTvParams(outer_iters=5, tv_weight=0.0))
    # re-encoding the estimate must reproduce the measurement
    y2 = encode(out, masks)
    assert np.max(np.abs(y2.samples - y.samples)) < 1e-4


def test_zero_coverage_pixels_warn_and_stay_finite(caplog):
    scene = moving_square_scene(16, 16, 4)
    planes = np.array(generate_masks(8, 16, 16, 4).samples)
    planes[:, 5, 5] = 0
    masks = CodingCube(planes)
    y = encode(scene, masks)
    with caplog.at_level(logging.WARNING):
        out = gap_tv_reconstruct(y, masks, GapTvParams(outer_iters=10))
    assert any("coverage" in rec.message for rec in caplog.records)
    assert np.isfinite(out.samples).all()


def test_output_is_clamped_to_unit_range():
    scene = moving_square_scene(32, 32, 8)
    masks = generate_masks(9, 32, 32, 8)
    y = encode(scene, masks)
    out = gap_tv_reconstruct(y, masks, GapTvParams(outer_iters=10))
    assert out.samples.min() >= 0.0
    assert out.samples.max() <= 1.0


def test_shape_mismatch_rejected():
    y = Frame(np.zeros((8, 8), np.float32))
    c = CodingCube(np.ones((4, 8, 9), np.uint8))
    with pytest.raises(ValueError):
        gap_tv_reconstruct(y, c)
