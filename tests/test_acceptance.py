"""Acceptance gate: one test per release criterion, pinned tolerances.

Each test prints a single summary line with the measured numbers; run with
`pytest -v -s tests/test_acceptance.py` to see them alongside the verdicts.
"""

import json
import time

import numpy as np

from khcv import (
    CodingCube,
    FlowField,
    Frame,
    VideoCube,
    VisibleMap,
    blend,
    build_schedule,
    compressive_ratio,
    encode,
    estimate_flow,
    gap_tv_reconstruct,
    mean_epe,
    psnr,
    save_tensor,
    ssim,
    warp,
)
from khcv.cli import PipelineConfig, run_pipeline, sweep_frame_gap

from conftest import central_fraction_mask, full_coverage_masks, shifted_pair, smooth_texture, translating_scene


def _constant_flow(h, w, dx, dy):
    return FlowField(np.stack((np.full((h, w), dx, np.float32), np.full((h, w), dy, np.float32))))


def test_criterion_01_forward_model_matches_scalar_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        x = rng.random((4, 8, 8)).astype(np.float32)
        c = (rng.random((4, 8, 8)) < 0.5).astype(np.uint8)
        y = encode(VideoCube(x), CodingCube(c)).samples
        expected = np.zeros((8, 8), np.float64)
        for k in range(4):
            for i in range(8):
                for j in range(8):
                    expected[i, j] += float(c[k, i, j]) * float(x[k, i, j])
        worst = max(worst, float(np.max(np.abs(y - expected))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-5
    assert elapsed < 1.0
    print(f"criterion 1 PASS: 100 instances, max abs err {worst:.2e} (< 1e-5), {elapsed:.2f} s")


def test_criterion_02_static_scene_reconstruction_matches_closed_form():
    img = smooth_texture(64, 64, seed=11, blur=10.0)
    scene = VideoCube(np.stack([img] * 8))
    masks = full_coverage_masks(3, 64, 64, 8)
    y = encode(scene, masks)

    counts = masks.samples.astype(np.float64).sum(axis=0)
    assert counts.min() > 0  # full coverage by construction
    oracle = VideoCube(np.stack([(y.samples / counts).astype(np.float32)] * 8))

    residuals = []
    t0 = time.perf_counter()
    recon = gap_tv_reconstruct(y, masks, callback=lambda k, r: residuals.append(r))
    elapsed = time.perf_counter() - t0

    quality = psnr(oracle, recon)
    assert quality >= 40.0
    assert len(residuals) == 60
    for prev, cur in zip(residuals, residuals[1:]):
        assert cur <= prev + 1e-6
    assert elapsed < 10.0
    print(
        f"criterion 2 PASS: PSNR vs closed form {quality:.2f} dB (>= 40), "
        f"residual monotone over 60 iters, {elapsed:.2f} s"
    )


def test_criterion_03_flow_recovers_translations():
    mask = central_fraction_mask(128, 128)
    results = []
    for (dx, dy), seed in (((3, 0), 9), ((-2, 1), 33)):
        target, source = shifted_pair(128, 128, dx=dx, dy=dy, seed=seed)
        t0 = time.perf_counter()
        f = estimate_flow(target, source)
        elapsed = time.perf_counter() - t0
        err = mean_epe(f, _constant_flow(128, 128, float(dx), float(dy)), mask)
        assert err < 0.4
        assert elapsed < 5.0
        results.append(f"({dx:+d},{dy:+d}) EPE {err:.3f} px in {elapsed:.2f} s")

    img = Frame(smooth_texture(128, 128, seed=40))
    f0 = estimate_flow(img, img)
    magnitude = float(np.hypot(f0.u, f0.v).mean())
    assert magnitude < 1e-2
    results.append(f"identity {magnitude:.1e} px")
    print(f"criterion 3 PASS: {'; '.join(results)} (EPE < 0.4, identity < 1e-2)")


def test_criterion_04_warp_identity_and_analytic_shift():
    img = Frame(smooth_texture(32, 32, seed=12))
    out = warp(img, _constant_flow(32, 32, 0.0, 0.0))
    assert np.array_equal(out.samples, img.samples)

    w = 24
    ramp = Frame(np.tile(np.arange(w, dtype=np.float32), (16, 1)))
    shifted = warp(ramp, _constant_flow(16, w, 1.0, 0.0))
    assert np.array_equal(shifted.samples[:, : w - 1], ramp.samples[:, 1:])
    print("criterion 4 PASS: zero-flow warp bit-exact, unit ramp shift exact on interior")


def test_criterion_05_blend_algebra():
    rng = np.random.default_rng(55)
    wl = Frame(rng.random((24, 24)).astype(np.float32))
    wr = Frame(rng.random((24, 24)).astype(np.float32))

    half = VisibleMap(np.full((24, 24), 0.5, np.float32))
    sym = blend(wl, wr, half, tau=0.5)
    avg = 0.5 * (wl.samples + wr.samples)
    sym_err = float(np.max(np.abs(sym.samples - avg)))
    assert sym_err < 1e-5

    v = VisibleMap(rng.random((24, 24)).astype(np.float32))
    tau = 0.3
    fwd = blend(wl, wr, v, tau)
    swapped = blend(wr, wl, VisibleMap(1.0 - v.samples), 1.0 - tau)
    swap_err = float(np.max(np.abs(fwd.samples - swapped.samples)))
    assert swap_err < 1e-5
    print(
        f"criterion 5 PASS: symmetric case err {sym_err:.1e}, "
        f"swap invariance err {swap_err:.1e} (< 1e-5)"
    )


def _benchmark_config(tmp_path, frames: int) -> dict:
    scene = translating_scene(128, 128, frames, step=(1, 0), seed=9)
    scene_path = tmp_path / "scene.khcv"
    save_tensor(scene, scene_path)
    return {
        "scene": str(scene_path),
        "B": 16,
        "t_x": 2083,
        "t_g": 300,
        "mask_seed": 21,
        "out_dir": str(tmp_path / "out"),
    }


def test_criterion_06_fusion_improves_on_intermediate(tmp_path):
    cfg = PipelineConfig.from_dict(_benchmark_config(tmp_path, frames=26))
    t0 = time.perf_counter()
    result = run_pipeline(cfg)
    elapsed = time.perf_counter() - t0
    fused = result.mean_psnr
    intermediate = result.intermediate_mean_psnr
    gain = fused - intermediate
    assert gain >= 1.0
    assert elapsed < 120.0
    print(
        f"criterion 6 PASS: fused {fused:.2f} dB vs intermediate {intermediate:.2f} dB, "
        f"gain {gain:+.2f} dB (>= 1), {elapsed:.1f} s (< 120)"
    )


def test_criterion_07_frame_gap_trend(tmp_path):
    cfg = PipelineConfig.from_dict(_benchmark_config(tmp_path, frames=26))
    sweep = sweep_frame_gap(cfg, [0, 1, 2, 3, 4])
    fused = [row["mean_psnr_db"] for row in sweep.rows]
    assert all(isinstance(v, float) for v in fused)  # no inf expected here
    for prev, cur in zip(fused, fused[1:]):
        assert cur <= prev + 0.1
    gap0_intermediate = sweep.rows[0]["intermediate_mean_psnr_db"]
    assert fused[-1] > gap0_intermediate
    values = ", ".join(f"{v:.2f}" for v in fused)
    print(
        f"criterion 7 PASS: fused PSNR by gap [{values}] dB non-increasing (+0.1 slack), "
        f"gap-4 {fused[-1]:.2f} > gap-0 intermediate {gap0_intermediate:.2f}"
    )


def test_criterion_08_timing_arithmetic_exact():
    s = build_schedule(2083, 16, 300)
    assert s.t_y == 33328
    assert compressive_ratio(16) == 2.0 / 17.0
    print("criterion 8 PASS: t_y = 33328 us exact, compressive ratio = 2/17 exact")


def test_criterion_09_metric_oracles():
    img = smooth_texture(32, 32, seed=14)
    self_score = ssim(img, img)
    assert abs(self_score - 1.0) < 1e-9

    offset = psnr(np.zeros((16, 16)), np.full((16, 16), 10.0 / 255.0))
    assert abs(offset - 28.13) < 0.01

    f = FlowField(np.stack((np.full((5, 5), 3.0, np.float32), np.full((5, 5), 4.0, np.float32))))
    g = FlowField(np.stack((np.zeros((5, 5), np.float32), np.zeros((5, 5), np.float32))))
    epe = mean_epe(f, g)
    assert epe == 5.0
    print(
        f"criterion 9 PASS: SSIM self {self_score:.12f}, offset PSNR {offset:.4f} dB, "
        f"3-4-5 EPE {epe} exact"
    )


def test_criterion_10_pipeline_determinism(tmp_path):
    scene = translating_scene(48, 48, 10, step=(1, 0), seed=9)
    scene_path = tmp_path / "scene.khcv"
    save_tensor(scene, scene_path)
    raw = {
        "scene": str(scene_path),
        "B": 4,
        "t_x": 1000,
        "mask_seed": 3,
        "noise_sigma": 0.01,
        "noise_seed": 8,
    }
    a = run_pipeline(PipelineConfig.from_dict({**raw, "out_dir": str(tmp_path / "a")}))
    b = run_pipeline(PipelineConfig.from_dict({**raw, "out_dir": str(tmp_path / "b")}))
    names = sorted(p.name for p in a.out_dir.glob("*.khcv"))
    assert names  # at least the measurement and both reconstructions
    for name in names:
        assert (a.out_dir / name).read_bytes() == (b.out_dir / name).read_bytes(), name
    reports_match = json.loads((a.out_dir / "report.json").read_text())["per_frame"] == json.loads(
        (b.out_dir / "report.json").read_text()
    )["per_frame"]
    assert reports_match
    print(f"criterion 10 PASS: {len(names)} tensor files byte-identical across runs: {names}")


def test_criterion_list_is_complete():
    # guard against silently dropping a criterion from this module
    numbers = sorted(
        int(n.split("_")[2]) for n in globals() if n.startswith("test_criterion_0") or n.startswith("test_criterion_1")
    )
    assert numbers == list(range(1, 11))
