import dataclasses
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from khcv import (
    FlowParams,
    FormatError,
    Frame,
    VideoCube,
    cli,
    export_pgm,
    fusion,
    load_tensor,
    psnr,
    read_measurement,
    save_tensor,
    ssim,
    video_report,
)
from khcv.cli import (
    ConfigError,
    DataError,
    NumericalError,
    PipelineConfig,
    load_scene,
    main,
    run_pipeline,
    sweep_frame_gap,
)

from conftest import translating_scene

SCENE_SHAPE = (48, 48)
SCENE_FRAMES = 10


def write_scene(tmp_path, name="scene.khcv"):
    scene = translating_scene(*SCENE_SHAPE, SCENE_FRAMES, step=(1, 0), seed=9)
    path = tmp_path / name
    save_tensor(scene, path)
    return path, scene


def base_config(tmp_path, **overrides):
    scene_path, scene = write_scene(tmp_path)
    raw = {
        "scene": str(scene_path),
        "B": 4,
        "t_x": 1000,
        "mask_seed": 3,
        "out_dir": str(tmp_path / "out"),
        "gap_tv": {"outer_iters": 40},
    }
    raw.update(overrides)
    return raw, scene


def write_config(tmp_path, **overrides):
    raw, scene = base_config(tmp_path, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path, raw, scene


# ===== config parsing =====


def test_config_rejects_unknown_keys(tmp_path):
    raw, _ = base_config(tmp_path, bogus=1)
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(raw)


def test_config_rejects_unknown_nested_keys(tmp_path):
    # a removed setting such as chain_flows is rejected like any unknown key
    # and the message names it by its dotted path
    for section, key, value in (
        ("fusion", "bogus", 1),
        ("fusion", "chain_flows", True),
        ("fusion", "epsilon_blend", 1e-6),
        ("fusion", "normalize_keys", True),
        ("gap_tv", "epsilon_r", 1e-8),
        # flow settings live only in the top-level "flow" section
        ("fusion", "flow_params", {"alpha": 0.1}),
    ):
        path, _, _ = write_config(tmp_path, **{section: {key: value}})
        with pytest.raises(ConfigError, match=rf"{section}\.{key}\b"):
            PipelineConfig.from_json(path)
        result = CliRunner().invoke(main, ["pipeline", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert f"{section}.{key}" in result.stderr
        assert not (tmp_path / "out").exists()


def test_config_requires_scene():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"B": 4})


def test_config_validates_eagerly(tmp_path):
    runner = CliRunner()
    for bad in (
        {"B": 0},
        {"mask_density": 0.0},
        {"mask_seed": 2**64},
        {"mask_seed": -1},
        {"gap_frames": -1},
        {"noise_sigma": -0.5},
        {"noise_sigma": 0.01, "noise_seed": -5},
        # the noise seed is checked even when noise is off
        {"noise_seed": 2**64},
        {"gap_tv": {"outer_iters": 0}},
        {"flow": {"alpha": -1.0}},
        # flow settings live only under the top-level "flow" key
        {"fusion": {"flow_params": {"alpha": 0.1}}},
        {"scene": 5},
        {"out_dir": 7},
        {"dump_intermediates": "no"},
        {"save_pgm": 1},
        # integer fields take integers only
        {"gap_tv": {"outer_iters": 2.5}},
        {"flow": {"iters_per_level": 2.5}},
        {"gap_frames": 0.5},
        {"fusion": {"error_smooth_radius": 1.5}},
        {"mask_seed": 3.7},
        {"B": True},
        # float fields take numbers, not booleans
        {"noise_sigma": True},
        {"mask_density": True},
        {"flow": {"alpha": True}},
        {"gap_tv": {"tv_weight": True}},
        {"fusion": {"fallback_threshold": True}},
        # numbers are finite; each NaN fails its range check too
        {"flow": {"alpha": math.nan}},
        {"flow": {"alpha": math.inf}},
        {"gap_tv": {"tv_weight": math.nan}},
        {"noise_sigma": math.nan},
        {"noise_sigma": math.inf},
        {"mask_density": math.nan},
        {"fusion": {"beta": math.inf}},
        {"fusion": {"fallback_threshold": math.nan}},
        # every section is a JSON object
        {"gap_tv": [["outer_iters", 5]]},
        {"fusion": []},
    ):
        raw, _ = base_config(tmp_path, **bad)
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        result = runner.invoke(main, ["pipeline", "--config", str(path)])
        assert result.exit_code == 2, (bad, result.output)
        assert not (tmp_path / "out").exists(), bad


def test_flow_section_overrides_only_the_fields_it_names(tmp_path):
    raw, _ = base_config(tmp_path)
    plain = PipelineConfig.from_dict(raw)
    assert plain.flow == FlowParams()
    assert PipelineConfig.from_dict({**raw, "flow": {"alpha": 0.2}}) == plain
    partial = PipelineConfig.from_dict({**raw, "flow": {"warps_per_level": 2}})
    assert partial.flow == dataclasses.replace(FlowParams(), warps_per_level=2)


def test_config_accepts_numpy_integers(tmp_path):
    raw, _ = base_config(
        tmp_path,
        mask_seed=np.int64(5),
        gap_tv={"outer_iters": np.int32(3)},
        fusion={"fallback_threshold": None},
        flow={"alpha": np.float32(0.25)},
    )
    cfg = PipelineConfig.from_dict(raw)
    assert cfg.mask_seed == 5 and cfg.gap_tv.outer_iters == 3
    assert cfg.fusion.fallback_threshold is None
    assert cfg.flow.alpha == 0.25
    # they are stored as Python numbers, so the manifest and report can hold them
    assert type(cfg.mask_seed) is int and type(cfg.flow.alpha) is float
    result = run_pipeline(cfg)
    assert json.loads((result.out_dir / "manifest.json").read_text())["seed"] == 5
    assert result.report["config"]["gap_tv"]["outer_iters"] == 3
    assert math.isfinite(result.mean_psnr)


def test_config_built_directly_applies_the_integer_rule_to_gap_frames():
    for gap in (0.5, True):
        with pytest.raises(ConfigError, match="gap_frames"):
            PipelineConfig(scene="scene.khcv", gap_frames=gap)


def test_run_pipeline_writes_numpy_seeds_of_a_config_built_directly(tmp_path):
    raw, _ = base_config(tmp_path)
    cfg = dataclasses.replace(PipelineConfig.from_dict(raw), mask_seed=np.int64(3))
    result = run_pipeline(cfg)
    assert json.loads((result.out_dir / "manifest.json").read_text())["seed"] == 3
    assert json.loads((result.out_dir / "report.json").read_text())["config"]["mask_seed"] == 3


def test_config_json_errors(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        PipelineConfig.from_json(p)
    p.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        PipelineConfig.from_json(p)
    with pytest.raises(ConfigError):
        PipelineConfig.from_json(tmp_path / "missing.json")


def test_config_dict_round_trip(tmp_path):
    raw, _ = base_config(
        tmp_path,
        t_g=7,
        gap_frames=1,
        mask_density=0.4,
        noise_sigma=0.01,
        noise_seed=8,
        dump_intermediates=True,
        save_pgm=True,
        gap_tv={"outer_iters": 12, "tv_weight": 0.05, "tv_inner_iters": 3},
        fusion={"beta": 15.0, "error_smooth_radius": 2, "fallback_threshold": 0.2},
        flow={"pyramid_levels": 2, "alpha": 0.3, "iters_per_level": 50, "warps_per_level": 2},
    )
    cfg = PipelineConfig.from_dict(raw)
    default = PipelineConfig(scene=cfg.scene)
    for params, base in (
        (cfg, default),
        (cfg.gap_tv, default.gap_tv),
        (cfg.fusion, default.fusion),
        (cfg.flow, default.flow),
    ):
        for f in dataclasses.fields(params):
            value = getattr(params, f.name)
            if f.name != "scene" and not dataclasses.is_dataclass(value):
                assert value != getattr(base, f.name), f.name
    again = PipelineConfig.from_dict(dataclasses.asdict(cfg))
    assert again == cfg
    assert again.fusion.beta == 15.0
    assert again.flow.alpha == 0.3


# ===== scene loading =====


def test_load_scene_cube(tmp_path):
    path, scene = write_scene(tmp_path)
    loaded = load_scene(path)
    assert np.array_equal(loaded.samples, scene.samples)


def test_load_scene_pgm_directory_sorted(tmp_path):
    d = tmp_path / "frames"
    d.mkdir()
    scene = translating_scene(24, 24, 3, seed=5)
    # write out of order; loading must follow lexicographic names
    for k in (2, 0, 1):
        export_pgm(Frame(scene.samples[k]), d / f"frame_{k:03d}.pgm")
    loaded = load_scene(d)
    assert loaded.frames == 3
    for k in range(3):
        assert np.max(np.abs(loaded.samples[k] - scene.samples[k])) <= 0.5 / 255 + 1e-7


def test_load_scene_errors(tmp_path):
    with pytest.raises(DataError):
        load_scene(tmp_path / "missing.khcv")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(DataError):
        load_scene(empty)
    frame_path = tmp_path / "frame.khcv"
    save_tensor(Frame(np.zeros((8, 8), np.float32)), frame_path)
    with pytest.raises(DataError):
        load_scene(frame_path)


# ===== pipeline =====


def test_run_pipeline_outputs_and_report(tmp_path):
    raw, scene = base_config(tmp_path)
    cfg = PipelineConfig.from_dict(raw)
    result = run_pipeline(cfg)
    out = result.out_dir
    for name in (
        "manifest.json",
        "y.khcv",
        "z_left.khcv",
        "z_right.khcv",
        "masks.khcv",
        "intermediate.khcv",
        "fused.khcv",
        "report.json",
        "per_frame.csv",
    ):
        assert (out / name).exists(), name

    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"config", "per_frame", "mean", "intermediate_mean"}
    assert len(report["per_frame"]) == cfg.B
    for row in report["per_frame"]:
        assert set(row) == {"k", "psnr_db", "ssim", "l1"}
    for block in (report["mean"], report["intermediate_mean"]):
        assert set(block) == {"psnr_db", "ssim", "l1", "lpips"}
        assert block["lpips"] == "unavailable"

    # scores must cover exactly the central coded frames
    fused = load_tensor(out / "fused.khcv")
    start = (scene.frames - cfg.B) // 2
    for k, row in enumerate(report["per_frame"]):
        expected = psnr(fused.samples[k], scene.samples[start + k])
        assert abs(row["psnr_db"] - expected) < 1e-9

    csv_lines = (out / "per_frame.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "k,psnr_db,ssim,l1"
    assert len(csv_lines) == cfg.B + 2
    assert csv_lines[-1].startswith("mean,")


def test_run_pipeline_report_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    raw, _ = base_config(tmp_path)
    result = run_pipeline(PipelineConfig.from_dict(raw))
    number = {"type": "number"}
    psnr_value = {"oneOf": [number, {"const": "inf"}]}
    mean_schema = {
        "type": "object",
        "properties": {
            "psnr_db": psnr_value,
            "ssim": number,
            "l1": number,
            "lpips": {"const": "unavailable"},
        },
        "required": ["psnr_db", "ssim", "l1", "lpips"],
        "additionalProperties": False,
    }
    schema = {
        "type": "object",
        "properties": {
            "config": {"type": "object"},
            "per_frame": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "k": {"type": "integer"},
                        "psnr_db": psnr_value,
                        "ssim": number,
                        "l1": number,
                    },
                    "required": ["k", "psnr_db", "ssim", "l1"],
                    "additionalProperties": False,
                },
            },
            "mean": mean_schema,
            "intermediate_mean": mean_schema,
        },
        "required": ["config", "per_frame", "mean", "intermediate_mean"],
        "additionalProperties": False,
    }
    jsonschema.validate(result.report, schema)


def test_run_pipeline_is_deterministic(tmp_path):
    raw, _ = base_config(tmp_path)
    a = run_pipeline(PipelineConfig.from_dict({**raw, "out_dir": str(tmp_path / "a")}))
    b = run_pipeline(PipelineConfig.from_dict({**raw, "out_dir": str(tmp_path / "b")}))
    for name in ("y.khcv", "intermediate.khcv", "fused.khcv"):
        assert (a.out_dir / name).read_bytes() == (b.out_dir / name).read_bytes()


def test_run_pipeline_optional_outputs(tmp_path):
    raw, _ = base_config(tmp_path, save_pgm=True, dump_intermediates=True)
    cfg = PipelineConfig.from_dict(raw)
    result = run_pipeline(cfg)
    pgm = sorted((result.out_dir / "fused_pgm").glob("*.pgm"))
    assert len(pgm) == cfg.B
    dump = result.out_dir / "intermediates"
    assert (dump / "flow_left_001.khcv").exists()
    assert (dump / "flow_right_001.ppm").exists()
    assert (dump / "visibility_001.pgm").exists()


def test_dumping_intermediates_fuses_the_block_once(tmp_path, monkeypatch):
    calls = []
    real = fusion.estimate_flow

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fusion, "estimate_flow", counted)
    raw, _ = base_config(tmp_path)
    counts, fused = {}, {}
    for dump in (False, True):
        calls.clear()
        cfg = PipelineConfig.from_dict({**raw, "dump_intermediates": dump, "out_dir": str(tmp_path / str(dump))})
        result = run_pipeline(cfg)
        counts[dump] = len(calls)
        fused[dump] = (result.out_dir / "fused.khcv").read_bytes()
    # per frame: one estimate against each key
    assert counts[True] == counts[False] == 2 * raw["B"]
    assert fused[True] == fused[False]


def test_dumped_flows_are_the_ones_fusion_used(tmp_path):
    raw, _ = base_config(tmp_path, dump_intermediates=True)
    cfg = PipelineConfig.from_dict(raw)
    result = run_pipeline(cfg)
    m = read_measurement(result.out_dir / "manifest.json")
    x_mid = load_tensor(result.out_dir / "intermediate.khcv")
    records = []
    refused = fusion.fuse_video(
        m, x_mid, cfg.fusion, cfg.flow, callback=lambda k, left, right, v: records.append((left, right))
    )
    dump = result.out_dir / "intermediates"
    stored = [
        (load_tensor(dump / f"flow_left_{k:03d}.khcv"), load_tensor(dump / f"flow_right_{k:03d}.khcv"))
        for k in range(1, cfg.B + 1)
    ]
    assert stored == records
    assert load_tensor(result.out_dir / "fused.khcv") == refused


def test_run_pipeline_rejects_short_scene(tmp_path):
    raw, _ = base_config(tmp_path, B=16)
    cfg = PipelineConfig.from_dict(raw)
    with pytest.raises(DataError):
        run_pipeline(cfg)


# ===== sweep =====


def test_sweep_rows_and_files(tmp_path):
    raw, _ = base_config(tmp_path)
    cfg = PipelineConfig.from_dict(raw)
    sweep = sweep_frame_gap(cfg, [1, 0])
    assert [row["gap_frames"] for row in sweep.rows] == [0, 1]
    assert sweep.rows[1]["gap_ratio"] == 1 / cfg.B
    for row in sweep.rows:
        assert "mean_psnr_db" in row
        assert "intermediate_mean_psnr_db" in row
    out = tmp_path / "out"
    assert (out / "sweep.json").exists()
    assert (out / "sweep.csv").exists()
    assert (out / "gap_0" / "fused.khcv").exists()
    assert (out / "gap_1" / "fused.khcv").exists()
    columns = ["gap_frames", "gap_ratio", "mean_psnr_db", "mean_ssim"]
    text = (out / "sweep.csv").read_bytes().decode()
    assert text == "".join(
        ",".join(str(v) for v in line) + "\r\n"
        for line in [columns, *([row[c] for c in columns] for row in sweep.rows)]
    )
    assert json.loads((out / "sweep.json").read_text()) == {"sweep": sweep.rows}


def test_sweep_gap_zero_matches_standalone_run(tmp_path):
    raw, _ = base_config(tmp_path)
    cfg = PipelineConfig.from_dict(raw)
    sweep_frame_gap(cfg, [0])
    solo = run_pipeline(
        PipelineConfig.from_dict({**raw, "out_dir": str(tmp_path / "solo"), "gap_frames": 0})
    )
    sweep_bytes = (tmp_path / "out" / "gap_0" / "fused.khcv").read_bytes()
    assert sweep_bytes == (solo.out_dir / "fused.khcv").read_bytes()


def test_sweep_checks_every_gap_against_the_scene_before_writing(tmp_path):
    # the 10-frame scene holds B=4 with gap 1 but not with gap 5
    config_path, _, _ = write_config(tmp_path)
    result = CliRunner().invoke(main, ["sweep", "--config", str(config_path), "--gaps", "0,1,5"])
    assert result.exit_code == 3, result.output
    assert "gap_frames=5" in result.output
    assert not (tmp_path / "out").exists()


def test_sweep_validates_gaps(tmp_path):
    raw, _ = base_config(tmp_path)
    cfg = PipelineConfig.from_dict(raw)
    with pytest.raises(ConfigError):
        sweep_frame_gap(cfg, [])
    with pytest.raises(ConfigError):
        sweep_frame_gap(cfg, [2, -1])
    with pytest.raises(ConfigError):
        sweep_frame_gap(cfg, [0, 0])
    assert not (tmp_path / "out").exists()


# ===== exit code mapping =====


def test_guarded_exit_codes(tmp_path, monkeypatch):
    # every command shares the command group's mapping; pipeline stands in for all
    config_path, _, _ = write_config(tmp_path)
    runner = CliRunner()
    for exc, code in (
        (ConfigError("bad"), 2),
        (DataError("bad"), 3),
        (FormatError("bad"), 3),
        (FileNotFoundError("bad"), 3),
        (ValueError("bad"), 3),
        (NumericalError("bad"), 4),
        (FloatingPointError("bad"), 4),
    ):

        def fail(cfg, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "run_pipeline", fail)
        result = runner.invoke(main, ["pipeline", "--config", str(config_path)])
        assert result.exit_code == code, (exc, result.output)
        assert result.stderr == "error: bad\n", exc
    # click's own usage errors and help keep click's handling
    result = runner.invoke(main, ["pipeline"])
    assert result.exit_code == 2
    assert "Missing option '--config'" in result.stderr
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    assert "pipeline" in result.output


# ===== command line =====


def test_cli_pipeline_command(tmp_path):
    config_path, raw, _ = write_config(tmp_path)
    runner = CliRunner()
    result = runner.invoke(main, ["pipeline", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    assert "fused mean PSNR" in result.output
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_stage_commands_match_pipeline(tmp_path):
    config_path, raw, _ = write_config(tmp_path)
    runner = CliRunner()

    staged = tmp_path / "staged"
    r = runner.invoke(main, ["simulate", "--config", str(config_path), "--out", str(staged)])
    assert r.exit_code == 0, r.output
    manifest = staged / "manifest.json"
    r = runner.invoke(
        main,
        ["reconstruct", "--manifest", str(manifest), "--config", str(config_path), "--out", str(staged)],
    )
    assert r.exit_code == 0, r.output
    r = runner.invoke(
        main,
        [
            "fuse",
            "--manifest", str(manifest),
            "--intermediate", str(staged / "intermediate.khcv"),
            "--config", str(config_path),
            "--out", str(staged),
        ],
    )
    assert r.exit_code == 0, r.output

    r = runner.invoke(main, ["pipeline", "--config", str(config_path)])
    assert r.exit_code == 0, r.output
    whole = (tmp_path / "out" / "fused.khcv").read_bytes()
    assert (staged / "fused.khcv").read_bytes() == whole


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: {**m, "gap_frames": "1"},
        lambda m: {**m, "gap_frames": 0.5},
        lambda m: {**m, "files": list(m["files"].values())},
        lambda m: [m],
        lambda m: {**m, "B": True},
        lambda m: {**m, "t_y": m["t_y"] + 1},
    ],
    ids=["gap_frames-string", "gap_frames-float", "files-list", "top-level-list", "B-bool", "t_y-inconsistent"],
)
def test_reconstruct_rejects_malformed_manifest(tmp_path, edit):
    # B=1, so a B stored as true is refused as a bool, not for disagreeing with the masks
    config_path, _, _ = write_config(tmp_path, B=1)
    runner = CliRunner()
    staged = tmp_path / "staged"
    r = runner.invoke(main, ["simulate", "--config", str(config_path), "--out", str(staged)])
    assert r.exit_code == 0, r.output
    manifest = staged / "manifest.json"
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    r = runner.invoke(main, ["reconstruct", "--manifest", str(manifest), "--config", str(config_path), "--out", str(staged)])
    assert r.exit_code == 3, r.output
    assert r.stderr.startswith("error: ")
    assert not (staged / "intermediate.khcv").exists()


def test_solver_divergence_exits_4_from_pipeline_and_reconstruct(tmp_path, monkeypatch):
    config_path, _, _ = write_config(tmp_path)
    runner = CliRunner()
    staged = tmp_path / "staged"
    r = runner.invoke(main, ["simulate", "--config", str(config_path), "--out", str(staged)])
    assert r.exit_code == 0, r.output

    def diverge(*args, **kwargs):
        raise FloatingPointError("GAP-TV diverged")

    monkeypatch.setattr(cli, "gap_tv_reconstruct", diverge)
    for args in (
        ["pipeline", "--config", str(config_path)],
        ["reconstruct", "--manifest", str(staged / "manifest.json"), "--config", str(config_path), "--out", str(staged)],
    ):
        r = runner.invoke(main, args)
        assert r.exit_code == 4, r.output
        assert "GAP-TV diverged" in r.output
    assert not (tmp_path / "out" / "intermediate.khcv").exists()
    assert not (staged / "intermediate.khcv").exists()


def test_cli_pipeline_single_frame_block(tmp_path):
    config_path, _, _ = write_config(tmp_path, B=1)
    result = CliRunner().invoke(main, ["pipeline", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [row["k"] for row in report["per_frame"]] == [1]
    assert math.isfinite(report["mean"]["psnr_db"])


def test_cli_seed_overrides_exit_2_before_writing(tmp_path):
    # a bad seed given on the command line fails like the same seed in JSON
    runner = CliRunner()
    for sigma, option, value in (
        (0.0, "--mask-seed", "-1"),
        (0.0, "--mask-seed", str(2**64)),
        (0.01, "--noise-seed", "-5"),
        (0.0, "--noise-seed", "-5"),
    ):
        config_path, _, _ = write_config(tmp_path, noise_sigma=sigma)
        for command in ("simulate", "pipeline"):
            result = runner.invoke(main, [command, "--config", str(config_path), option, value])
            assert result.exit_code == 2, (command, option, value, result.output)
            assert not (tmp_path / "out").exists(), (command, option, value)


def test_cli_config_error_exits_2(tmp_path):
    raw, _ = base_config(tmp_path, bogus=1)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    result = CliRunner().invoke(main, ["pipeline", "--config", str(p)])
    assert result.exit_code == 2


def test_cli_frames_too_small_for_flow_pyramid_exit_2_before_writing(tmp_path):
    # 3 pyramid levels need sides of at least 32 px
    scene = translating_scene(24, 24, SCENE_FRAMES, step=(1, 0), seed=9)
    save_tensor(scene, tmp_path / "small.khcv")
    raw, _ = base_config(tmp_path, scene=str(tmp_path / "small.khcv"), flow={"pyramid_levels": 3})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    result = CliRunner().invoke(main, ["pipeline", "--config", str(p)])
    assert result.exit_code == 2, result.output
    assert "pyramid" in result.output
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


def _fuse_24px_block(tmp_path, frames: int, pyramid_levels: int):
    """Simulate a 24x24, B=4 measurement, then run `khcv fuse` on it with an
    intermediate cube of this many frames and this flow pyramid depth."""
    scene = translating_scene(24, 24, SCENE_FRAMES, step=(1, 0), seed=9)
    save_tensor(scene, tmp_path / "small.khcv")
    staged = tmp_path / "staged"
    config_path, raw, _ = write_config(
        tmp_path, scene=str(tmp_path / "small.khcv"), out_dir=str(staged), flow={"pyramid_levels": 2}
    )
    runner = CliRunner()
    r = runner.invoke(main, ["simulate", "--config", str(config_path)])
    assert r.exit_code == 0, r.output
    save_tensor(VideoCube(scene.samples[:frames]), tmp_path / "intermediate.khcv")
    fuse_config = tmp_path / "fuse.json"
    fuse_config.write_text(json.dumps({**raw, "flow": {"pyramid_levels": pyramid_levels}}))
    return runner.invoke(
        main,
        [
            "fuse",
            "--manifest", str(staged / "manifest.json"),
            "--intermediate", str(tmp_path / "intermediate.khcv"),
            "--config", str(fuse_config),
            "--out", str(tmp_path / "fused"),
        ],
    )


def test_cli_fuse_with_frames_too_small_for_flow_pyramid_exits_2_before_writing(tmp_path):
    result = _fuse_24px_block(tmp_path, frames=4, pyramid_levels=3)
    assert result.exit_code == 2, result.output
    assert "pyramid" in result.output
    assert not (tmp_path / "fused").exists()


def test_cli_fuse_with_intermediate_of_wrong_length_exits_3_before_writing(tmp_path):
    result = _fuse_24px_block(tmp_path, frames=3, pyramid_levels=2)
    assert result.exit_code == 3, result.output
    assert "intermediate" in result.output
    assert not (tmp_path / "fused").exists()


def test_cli_missing_scene_exits_3(tmp_path):
    raw, _ = base_config(tmp_path)
    raw["scene"] = str(tmp_path / "nope.khcv")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    result = CliRunner().invoke(main, ["pipeline", "--config", str(p)])
    assert result.exit_code == 3


def test_cli_metrics_command(tmp_path):
    a = Frame(np.full((16, 16), 0.5, np.float32))
    b = Frame(np.full((16, 16), 0.5, np.float32))
    pa, pb = tmp_path / "a.khcv", tmp_path / "b.khcv"
    save_tensor(a, pa)
    save_tensor(b, pb)
    out = tmp_path / "metrics.json"
    result = CliRunner().invoke(main, ["metrics", str(pa), str(pb), "--out", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["per_frame"][0]["psnr_db"] == "inf"

    c = Frame(np.zeros((8, 8), np.float32))
    pc = tmp_path / "c.khcv"
    save_tensor(c, pc)
    result = CliRunner().invoke(main, ["metrics", str(pa), str(pc)])
    assert result.exit_code == 3


def test_report_means_match_per_metric_video_reports(tmp_path):
    truth = translating_scene(24, 24, 3, seed=2)
    rng = np.random.default_rng(7)
    noisy = np.clip(truth.samples + rng.normal(0.0, 0.05, truth.samples.shape), 0.0, 1.0).astype(np.float32)
    one_exact = noisy.copy()
    one_exact[0] = truth.samples[0]  # an infinite PSNR frame makes the mean PSNR infinite
    pt = tmp_path / "truth.khcv"
    save_tensor(truth, pt)
    for name, samples in (("noisy", noisy), ("one_exact", one_exact)):
        probe = VideoCube(samples)
        pp, out = tmp_path / f"{name}.khcv", tmp_path / f"{name}.json"
        save_tensor(probe, pp)
        result = CliRunner().invoke(main, ["metrics", str(pt), str(pp), "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        psnrs = [psnr(probe.samples[k], truth.samples[k]) for k in range(truth.frames)]
        assert [row["psnr_db"] for row in report["per_frame"]] == ["inf" if math.isinf(p) else p for p in psnrs]
        assert [row["ssim"] for row in report["per_frame"]] == [
            ssim(probe.samples[k], truth.samples[k]) for k in range(truth.frames)
        ]
        mean = report["mean"]
        expected_psnr = video_report("psnr", probe, truth).mean
        assert mean == {
            "psnr_db": "inf" if math.isinf(expected_psnr) else expected_psnr,
            "ssim": video_report("ssim", probe, truth).mean,
            "l1": video_report("l1", probe, truth).mean,
            "lpips": "unavailable",
        }
        assert (mean["psnr_db"] == "inf") == (name == "one_exact")


def test_cli_sweep_command(tmp_path):
    config_path, raw, _ = write_config(tmp_path)
    result = CliRunner().invoke(
        main, ["sweep", "--config", str(config_path), "--gaps", "0,1"]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert [row["gap_frames"] for row in payload["sweep"]] == [0, 1]
    result = CliRunner().invoke(
        main, ["sweep", "--config", str(config_path), "--gaps", "0,x"]
    )
    assert result.exit_code == 2


def test_cli_flowviz_command(tmp_path):
    from khcv import FlowField

    f = FlowField(np.stack((np.full((8, 8), 2.0, np.float32), np.zeros((8, 8), np.float32))))
    p = tmp_path / "f.khcv"
    save_tensor(f, p)
    out = tmp_path / "f.ppm"
    result = CliRunner().invoke(
        main, ["flowviz", str(p), str(out), "--max-magnitude", "2.0"]
    )
    assert result.exit_code == 0, result.output
    raw = out.read_bytes()
    assert raw.startswith(b"P6")
    # constant +x flow at full saturation is pure red
    assert raw[-3:] == bytes([255, 0, 0])

    wrong = tmp_path / "frame.khcv"
    save_tensor(Frame(np.zeros((8, 8), np.float32)), wrong)
    result = CliRunner().invoke(main, ["flowviz", str(wrong), str(out)])
    assert result.exit_code == 3


def test_cli_flowviz_takes_only_a_finite_positive_max_magnitude(tmp_path):
    from khcv import FlowField

    p = tmp_path / "f.khcv"
    save_tensor(FlowField(np.ones((2, 8, 8), np.float32)), p)
    out = tmp_path / "f.ppm"
    for value in ("nan", "inf", "0", "-1"):
        result = CliRunner().invoke(main, ["flowviz", str(p), str(out), "--max-magnitude", value])
        assert result.exit_code == 2, (value, result.output)
        assert "max_magnitude" in result.stderr, value
        assert not out.exists(), value
