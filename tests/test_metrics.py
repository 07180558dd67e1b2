import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import correlate2d

from khcv import FlowField, Frame, l1_distance, mean_epe, psnr, score_frame, ssim

from conftest import smooth_texture


def test_psnr_identical_is_inf():
    a = Frame(np.full((16, 16), 0.3, np.float32))
    assert psnr(a, a) == math.inf


def test_psnr_known_offset():
    # uniform offset of 10/255 against peak 1: 20*log10(25.5) = 28.1308...
    a = np.zeros((32, 32), np.float64)
    b = a + 10.0 / 255.0
    assert abs(psnr(a, b) - 28.1308) < 1e-2


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4)), np.zeros((4, 5)))


def test_ssim_self_is_one():
    img = smooth_texture(24, 24, seed=3)
    assert abs(ssim(img, img) - 1.0) < 1e-9


def _window() -> np.ndarray:
    """The normalized 11x11 Gaussian window, sigma 1.5."""
    off = np.arange(11) - 5
    taps = np.exp(-(off**2) / (2 * 1.5**2))
    w = np.outer(taps, taps)
    return w / w.sum()


def _dense_ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM from dense 11x11 valid-region correlations."""
    w = _window()
    c1, c2 = 0.01**2, 0.03**2
    mu_a, mu_b, mu_aa, mu_bb, mu_ab = (correlate2d(x, w, mode="valid") for x in (a, b, a * a, b * b, a * b))
    var_a, var_b, cov = mu_aa - mu_a * mu_a, mu_bb - mu_b * mu_b, mu_ab - mu_a * mu_b
    scores = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
    return float(scores.mean())


def _noisy_pair(shape, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.random(shape)
    return a, np.clip(a + rng.normal(0, 0.05, a.shape), 0, 1)


def test_ssim_matches_windowed_oracle():
    # brute-force local-statistics reference on non-square frames
    w = _window()
    c1, c2 = 0.01**2, 0.03**2
    for shape in [(14, 14), (11, 64), (64, 11), (23, 40), (57, 31)]:
        a, b = _noisy_pair(shape, 0)
        scores = []
        for i in range(a.shape[0] - 10):
            for j in range(a.shape[1] - 10):
                pa = a[i : i + 11, j : j + 11]
                pb = b[i : i + 11, j : j + 11]
                mu_a = (w * pa).sum()
                mu_b = (w * pb).sum()
                va = (w * pa * pa).sum() - mu_a**2
                vb = (w * pb * pb).sum() - mu_b**2
                cov = (w * pa * pb).sum() - mu_a * mu_b
                scores.append(
                    (2 * mu_a * mu_b + c1) * (2 * cov + c2) / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2))
                )
        assert abs(ssim(a, b) - np.mean(scores)) < 1e-6, shape
        assert abs(ssim(a, b) - _dense_ssim(a, b)) < 1e-12, shape


# sides whose valid region (side - 10) is 1, one short of a 32-output tile,
# one tile, one past it and one past two tiles
_TILE_EDGES = [11, 41, 42, 43, 75]


@given(
    h=st.one_of(st.sampled_from(_TILE_EDGES), st.integers(11, 300)),
    w=st.one_of(st.sampled_from(_TILE_EDGES), st.integers(11, 300)),
    seed=st.integers(0, 2**16),
)
@example(h=11, w=41, seed=0)
@example(h=42, w=43, seed=1)
@example(h=75, w=11, seed=2)
@example(h=43, w=300, seed=3)
@settings(max_examples=25, deadline=None)
def test_ssim_matches_the_dense_window_on_any_frame(h, w, seed):
    a, b = _noisy_pair((h, w), seed)
    score = ssim(a, b)
    assert abs(score - _dense_ssim(a, b)) < 1e-12
    assert ssim(b, a) == score
    assert -1.0 <= score <= 1.0
    assert abs(ssim(a, a) - 1.0) < 1e-12


def test_score_frame_gives_the_lone_metrics_bit_for_bit():
    truth = Frame(smooth_texture(40, 52, seed=6))
    rng = np.random.default_rng(2)
    candidates = [np.clip(truth.samples + rng.normal(0, s, truth.samples.shape), 0, 1).astype(np.float32) for s in (0.02, 0.1)]
    assert score_frame(truth, *candidates) == [
        (psnr(c, truth), ssim(c, truth), l1_distance(c, truth)) for c in candidates
    ]
    assert score_frame(truth, truth)[0][0] == math.inf
    with pytest.raises(ValueError):
        score_frame(truth, np.zeros((40, 51), np.float32))
    with pytest.raises(ValueError):
        score_frame(np.zeros((10, 52)), np.zeros((10, 52)))


@pytest.mark.parametrize("metric", ["psnr", "ssim", "l1_distance", "score_frame-truth", "score_frame-candidate"])
@pytest.mark.parametrize(
    "bad, message",
    [(np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"), (None, "non-empty")],
    ids=["nan", "inf", "-inf", "empty"],
)
def test_metrics_refuse_empty_or_non_finite_arrays(metric, bad, message):
    # refused before any arithmetic: no math domain error, nan score or
    # empty-mean RuntimeWarning, which the warning filter makes an error
    good = np.full((16, 16), 0.5)
    if bad is None:
        bad_array = good[:0]
        good = good[:0]
    else:
        bad_array = good.copy()
        bad_array[3, 5] = bad
    calls = {
        "psnr": lambda: psnr(bad_array, good),
        "ssim": lambda: ssim(good, bad_array),
        "l1_distance": lambda: l1_distance(bad_array, good),
        "score_frame-truth": lambda: score_frame(bad_array, good),
        "score_frame-candidate": lambda: score_frame(good, good, bad_array),
    }
    with pytest.raises(ValueError, match=message):
        calls[metric]()


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

