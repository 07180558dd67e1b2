import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khcv import (
    CodingCube,
    Frame,
    HybridMeasurement,
    NoiseModel,
    TimingSchedule,
    VideoCube,
    build_schedule,
    compressive_ratio,
    encode,
    generate_masks,
    read_measurement,
    sample_keyframes,
    simulate_capture,
    write_measurement,
)

from conftest import translating_scene


def test_schedule_arithmetic():
    s = build_schedule(t_x=2083, B=16, t_g=300)
    assert s.t_y == 33328
    assert s.t_y == s.B * s.t_x
    assert s.t_z == s.t_x == 2083
    assert s.t_g == 300


def test_schedule_rejects_inconsistent_fields(tmp_path):
    # t_y and t_z follow from t_x and B; a manifest that stores other values is refused
    scene = translating_scene(16, 16, 12, seed=8)
    m = simulate_capture(scene, generate_masks(3, 16, 16, 8), build_schedule(100, 8), gap_frames=0)
    manifest = write_measurement(m, tmp_path / "cap", seed=3)
    stored = json.loads(manifest.read_text())
    assert (stored["t_y"], stored["t_z"]) == (800, 100)
    for t_y, t_z in ((900, 100), (800, 50)):
        manifest.write_text(json.dumps({**stored, "t_y": t_y, "t_z": t_z}))
        with pytest.raises(ValueError, match="t_y and t_z"):
            read_measurement(manifest)
    for t_x, B, t_g in ((100, 0, 0), (0, 8, 0), (100, 8, -1), (100, True, 0), (100.0, 8, 0), (100, 8, 0.5)):
        with pytest.raises(ValueError):
            build_schedule(t_x, B, t_g)
    s = TimingSchedule(t_x=np.int64(100), t_g=np.uint8(0), B=np.int32(8))
    assert s == build_schedule(100, 8) and type(s.t_x) is type(s.B) is int


def test_compressive_ratio():
    assert compressive_ratio(16) == 2.0 / 17.0
    assert compressive_ratio(8) == 2.0 / 9.0
    assert compressive_ratio(1) == 1.0


def test_masks_deterministic_and_binary():
    a = generate_masks(7, 16, 16, 8)
    b = generate_masks(7, 16, 16, 8)
    assert a == b
    assert set(np.unique(a.samples)) <= {0, 1}
    c = generate_masks(8, 16, 16, 8)
    assert a != c
    # a seed is an integer, never truncated from a float or read from a bool
    for seed in (3.7, 3.0, np.float64(7.0), True, np.bool_(True), -1, 2**64):
        with pytest.raises(ValueError):
            generate_masks(seed, 4, 4, 2)
    assert generate_masks(np.uint64(7), 16, 16, 8) == generate_masks(np.int32(7), 16, 16, 8) == a


def test_masks_match_philox_replay():
    # independent replay of the documented construction
    seed, h, w, n = 11, 9, 13, 5
    rng = np.random.Generator(np.random.Philox(key=seed))
    expected = (rng.random((n, h, w)) < 0.5).astype(np.uint8)
    got = generate_masks(seed, h, w, n)
    assert np.array_equal(got.samples, expected)


def test_masks_density_bounds():
    ones = generate_masks(3, 8, 8, 4, density=1.0)
    assert ones.samples.all()
    with pytest.raises(ValueError):
        generate_masks(3, 8, 8, 4, density=0.0)
    with pytest.raises(ValueError):
        generate_masks(3, 8, 8, 4, density=1.5)


def test_masks_density_about_half():
    m = generate_masks(100, 64, 64, 16)
    mean = m.samples.mean()
    assert 0.47 < mean < 0.53


def test_encode_matches_elementwise_oracle():
    rng = np.random.default_rng(42)
    x = VideoCube(rng.random((4, 8, 8)).astype(np.float32))
    c = generate_masks(5, 8, 8, 4)
    y = encode(x, c)
    expected = np.zeros((8, 8), np.float64)
    for k in range(4):
        for i in range(8):
            for j in range(8):
                expected[i, j] += float(c.samples[k, i, j]) * float(x.samples[k, i, j])
    assert np.max(np.abs(y.samples - expected)) < 1e-5


def test_encode_single_frame_identity():
    rng = np.random.default_rng(13)
    x = VideoCube(rng.random((1, 6, 6)).astype(np.float32))
    c = generate_masks(2, 6, 6, 1, density=1.0)
    y = encode(x, c)
    assert np.array_equal(y.samples, x.samples[0])


def test_encode_zero_mask_pixel_gives_zero():
    x = VideoCube(np.ones((3, 4, 4), np.float32))
    c = CodingCube(np.zeros((3, 4, 4), np.uint8))
    y = encode(x, c)
    assert not y.samples.any()


def test_encode_is_linear():
    rng = np.random.default_rng(77)
    a = rng.random((5, 10, 10)).astype(np.float32)
    b = rng.random((5, 10, 10)).astype(np.float32)
    c = generate_masks(9, 10, 10, 5)
    lhs = encode(VideoCube(a + b), c).samples
    rhs = encode(VideoCube(a), c).samples + encode(VideoCube(b), c).samples
    assert np.max(np.abs(lhs - rhs)) < 1e-5


@settings(max_examples=60, deadline=None)
@given(
    B=st.integers(min_value=1, max_value=6),
    h=st.integers(min_value=1, max_value=16),
    w=st.integers(min_value=1, max_value=16),
    density=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_encode_adjoint_identity(B, h, w, density, seed):
    # <encode(x, c), y> = <x, c * y>: c * y is the transpose of the sensing
    # operator applied to y.  encode stores float32, so the two sides agree to
    # a relative 1e-6 of the summed magnitudes, not exactly.
    rng = np.random.default_rng(seed)
    x = rng.random((B, h, w)).astype(np.float32)
    y = rng.standard_normal((h, w))
    c = generate_masks(seed, h, w, B, density)
    lhs = np.sum(encode(VideoCube(x), c).samples * y)
    rhs = np.sum(x * (c.samples * y))
    scale = np.sum(np.abs(x * c.samples * y))
    assert abs(lhs - rhs) <= 1e-6 * scale


def test_keyframes_flank_coded_block():
    scene = translating_scene(16, 16, 15, step=(1, 0), seed=2)
    # B=8 in a 15-frame scene: coded block starts at (15-8)//2 = 3,
    # so with gap_frames=2 the keys sit at 3-1-2 = 0 and 3+8+2 = 13
    z_l, z_r = sample_keyframes(scene, 8, gap_frames=2)
    assert np.array_equal(z_l.samples, scene.samples[0])
    assert np.array_equal(z_r.samples, scene.samples[13])


def test_simulate_capture_noiseless_keys_exact():
    scene = translating_scene(20, 20, 12, seed=3)
    masks = generate_masks(4, 20, 20, 8)
    m = simulate_capture(scene, masks, build_schedule(1000, 8), gap_frames=1)
    start = (12 - 8) // 2
    assert np.array_equal(m.z_left.samples, scene.samples[start - 2])
    assert np.array_equal(m.z_right.samples, scene.samples[start + 8 + 1])
    coded = VideoCube(scene.samples[start : start + 8])
    assert np.array_equal(m.y.samples, encode(coded, masks).samples)


def test_simulate_capture_rejects_short_scene():
    scene = translating_scene(16, 16, 9, seed=1)
    masks = generate_masks(4, 16, 16, 8)
    with pytest.raises(ValueError):
        simulate_capture(scene, masks, build_schedule(1000, 8), gap_frames=1)


def test_noise_model_validation():
    for sigma in (-0.5, float("nan")):
        with pytest.raises(ValueError):
            NoiseModel.gaussian(sigma=sigma, seed=1)
    for sigma in (0.0, 0.1):
        for seed in (-1, 2**64, 3.7, 3.0, True):
            with pytest.raises(ValueError):
                NoiseModel(sigma=sigma, seed=seed)
    field = NoiseModel(0.1, 3).field((4, 4), role=0)
    assert np.array_equal(NoiseModel(0.1, np.uint64(3)).field((4, 4), role=0), field)
    assert NoiseModel.off() == NoiseModel.gaussian(0.0, 0)
    assert not NoiseModel.gaussian(0.0, 9).field((4, 4), role=0).any()


def test_noise_streams_are_deterministic_and_role_separated():
    nm = NoiseModel.gaussian(sigma=0.1, seed=5)
    a = nm.field((8, 8), role=0)
    b = nm.field((8, 8), role=0)
    assert np.array_equal(a, b)
    left = nm.field((8, 8), role=1)
    right = nm.field((8, 8), role=2)
    assert not np.array_equal(left, right)
    assert not np.array_equal(a, left)


def test_noisy_capture_repeatable():
    scene = translating_scene(16, 16, 12, seed=4)
    masks = generate_masks(6, 16, 16, 8)
    sched = build_schedule(1000, 8)
    nm = NoiseModel.gaussian(sigma=0.02, seed=7)
    m1 = simulate_capture(scene, masks, sched, gap_frames=0, noise=nm)
    m2 = simulate_capture(scene, masks, sched, gap_frames=0, noise=nm)
    assert np.array_equal(m1.y.samples, m2.y.samples)
    assert np.array_equal(m1.z_left.samples, m2.z_left.samples)
    assert np.array_equal(m1.z_right.samples, m2.z_right.samples)
    # noise actually applied, and key noise differs between the two keys
    clean = simulate_capture(scene, masks, sched, gap_frames=0)
    assert not np.array_equal(m1.y.samples, clean.y.samples)
    left_noise = m1.z_left.samples - clean.z_left.samples
    right_noise = m1.z_right.samples - clean.z_right.samples
    assert not np.array_equal(left_noise, right_noise)


def test_measurement_shape_validation():
    y = Frame(np.zeros((8, 8), np.float32))
    z = Frame(np.zeros((8, 9), np.float32))
    c = CodingCube(np.ones((4, 8, 8), np.uint8))
    with pytest.raises(ValueError):
        HybridMeasurement(
            y=y, z_left=z, z_right=z, masks=c, schedule=build_schedule(100, 4), gap_frames=0
        )


def test_measurement_round_trip(tmp_path):
    scene = translating_scene(16, 16, 12, seed=8)
    masks = generate_masks(3, 16, 16, 8)
    m = simulate_capture(scene, masks, build_schedule(2083, 8, 300), gap_frames=1)
    manifest = write_measurement(m, tmp_path / "cap", seed=3)
    m2 = read_measurement(manifest)
    assert np.array_equal(m.y.samples, m2.y.samples)
    assert np.array_equal(m.z_left.samples, m2.z_left.samples)
    assert np.array_equal(m.z_right.samples, m2.z_right.samples)
    assert np.array_equal(m.masks.samples, m2.masks.samples)
    assert m2.schedule == m.schedule
    assert m2.gap_frames == 1


def test_write_measurement_is_byte_identical(tmp_path):
    scene = translating_scene(16, 16, 12, seed=8)
    masks = generate_masks(3, 16, 16, 8)
    m = simulate_capture(scene, masks, build_schedule(2083, 8), gap_frames=0)
    p1 = write_measurement(m, tmp_path / "a", seed=3)
    p2 = write_measurement(m, tmp_path / "b", seed=3)
    for name in ("y.khcv", "z_left.khcv", "z_right.khcv", "masks.khcv"):
        assert (p1.parent / name).read_bytes() == (p2.parent / name).read_bytes()


def test_simulate_capture_applies_the_integer_rule_to_gap_frames():
    # a float or bool gap is refused before any frame is indexed
    scene = translating_scene(16, 16, 12, seed=1)
    masks = generate_masks(4, 16, 16, 4)
    for gap in (0.5, 1.0, True, -1):
        with pytest.raises(ValueError, match="gap_frames"):
            simulate_capture(scene, masks, build_schedule(1000, 4), gap_frames=gap)


def test_numpy_gap_is_stored_as_an_int_and_written(tmp_path):
    scene = translating_scene(16, 16, 12, seed=8)
    m = simulate_capture(scene, generate_masks(3, 16, 16, 8), build_schedule(2083, 8), gap_frames=np.int64(1))
    assert type(m.gap_frames) is int
    manifest = write_measurement(m, tmp_path / "cap", seed=3)
    assert json.loads(manifest.read_text())["gap_frames"] == 1


def test_numpy_seed_is_written_to_the_manifest(tmp_path):
    scene = translating_scene(16, 16, 12, seed=8)
    m = simulate_capture(scene, generate_masks(3, 16, 16, 8), build_schedule(2083, 8))
    manifest = write_measurement(m, tmp_path / "cap", seed=np.int64(3), extra={"noise_seed": np.uint64(4)})
    stored = json.loads(manifest.read_text())
    assert (stored["seed"], stored["noise_seed"]) == (3, 4)


def test_manifest_is_encoded_before_any_file_is_written(tmp_path):
    scene = translating_scene(16, 16, 12, seed=8)
    m = simulate_capture(scene, generate_masks(3, 16, 16, 8), build_schedule(2083, 8))
    with pytest.raises(TypeError):
        write_measurement(m, tmp_path / "cap", extra={"note": object()})
    assert not (tmp_path / "cap").exists()
