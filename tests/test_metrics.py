import math

import numpy as np
import pytest
from scipy.signal import correlate2d

from khcv import FlowField, Frame, MetricReport, VideoCube, l1_distance, mean_epe, psnr, ssim, video_report

from conftest import smooth_texture


def test_psnr_identical_is_inf():
    a = Frame(np.full((16, 16), 0.3, np.float32))
    assert psnr(a, a) == math.inf


def test_psnr_known_offset():
    # uniform offset of 10/255 against peak 1: 20*log10(25.5) = 28.1308...
    a = np.zeros((32, 32), np.float64)
    b = a + 10.0 / 255.0
    assert abs(psnr(a, b) - 28.1308) < 1e-2


def test_psnr_peak_scaling():
    a = np.zeros((8, 8))
    b = a + 10.0
    assert abs(psnr(a, b, peak=255.0) - 28.1308) < 1e-2


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4)), np.zeros((4, 5)))
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4)), np.zeros((4, 4)), peak=0.0)


def test_ssim_self_is_one():
    img = smooth_texture(24, 24, seed=3)
    assert abs(ssim(img, img) - 1.0) < 1e-9


def test_ssim_matches_windowed_oracle():
    # brute-force local-statistics reference, then the same statistics as
    # dense 11x11 valid-region correlations on non-square frames
    win = 11
    off = np.arange(win) - (win - 1) / 2
    taps = np.exp(-(off**2) / (2 * 1.5**2))
    w = np.outer(taps, taps)
    w /= w.sum()
    c1, c2 = 0.01**2, 0.03**2
    for shape in [(14, 14), (11, 64), (64, 11), (23, 40), (57, 31)]:
        rng = np.random.default_rng(0)
        a = rng.random(shape)
        b = np.clip(a + rng.normal(0, 0.05, a.shape), 0, 1)
        scores = []
        for i in range(a.shape[0] - win + 1):
            for j in range(a.shape[1] - win + 1):
                pa = a[i : i + win, j : j + win]
                pb = b[i : i + win, j : j + win]
                mu_a = (w * pa).sum()
                mu_b = (w * pb).sum()
                va = (w * pa * pa).sum() - mu_a**2
                vb = (w * pb * pb).sum() - mu_b**2
                cov = (w * pa * pb).sum() - mu_a * mu_b
                scores.append(
                    (2 * mu_a * mu_b + c1) * (2 * cov + c2) / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2))
                )
        assert abs(ssim(a, b) - np.mean(scores)) < 1e-6, shape

        mu_a, mu_b, mu_aa, mu_bb, mu_ab = (correlate2d(x, w, mode="valid") for x in (a, b, a * a, b * b, a * b))
        var_a, var_b, cov = mu_aa - mu_a * mu_a, mu_bb - mu_b * mu_b, mu_ab - mu_a * mu_b
        dense = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
            (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
        )
        assert abs(ssim(a, b) - dense.mean()) < 1e-12, shape


def test_ssim_penalizes_noise():
    img = smooth_texture(32, 32, seed=5)
    rng = np.random.default_rng(1)
    noisy = np.clip(img + rng.normal(0, 0.2, img.shape), 0, 1).astype(np.float32)
    assert ssim(img, noisy) < 0.9


def test_ssim_rejects_small_frames():
    with pytest.raises(ValueError):
        ssim(np.zeros((10, 12)), np.zeros((10, 12)))


def test_l1_distance():
    a = np.zeros((4, 4))
    b = np.full((4, 4), 0.25)
    assert abs(l1_distance(a, b) - 0.25) < 1e-12
    assert l1_distance(a, a) == 0.0


def test_mean_epe_known_triangle():
    # error vector (3, 4) everywhere has length exactly 5
    f = FlowField(np.stack((np.full((6, 6), 3.0, np.float32), np.full((6, 6), 4.0, np.float32))))
    g = FlowField(np.stack((np.zeros((6, 6), np.float32), np.zeros((6, 6), np.float32))))
    assert mean_epe(f, g) == 5.0


def test_mean_epe_masked():
    u = np.zeros((4, 4), np.float32)
    u[0, 0] = 10.0
    f = FlowField(np.stack((u, np.zeros((4, 4), np.float32))))
    g = FlowField(np.stack((np.zeros((4, 4), np.float32), np.zeros((4, 4), np.float32))))
    mask = np.ones((4, 4), bool)
    mask[0, 0] = False
    assert mean_epe(f, g, mask) == 0.0
    with pytest.raises(ValueError):
        mean_epe(f, g, np.zeros((4, 4), bool))


def test_metric_report_empty_mean_raises():
    with pytest.raises(ValueError):
        MetricReport(name="psnr").mean


def test_video_report_per_frame():
    rng = np.random.default_rng(2)
    a = VideoCube(rng.random((3, 16, 16)).astype(np.float32))
    b = VideoCube(np.clip(a.samples + 0.01, 0, 2))
    r = video_report("psnr", a, b)
    assert len(r.values) == 3
    for k in range(3):
        assert abs(r.values[k] - psnr(a.samples[k], b.samples[k])) < 1e-12
    with pytest.raises(ValueError):
        video_report("vmaf", a, b)
