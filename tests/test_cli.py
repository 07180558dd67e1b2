import dataclasses
import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner

from khcv import (
    CodingCube,
    FlowField,
    FormatError,
    Frame,
    TruncatedError,
    VideoCube,
    build_schedule,
    cli,
    estimate_flows,
    export_pgm,
    fusion,
    generate_masks,
    l1_distance,
    load_tensor,
    psnr,
    read_measurement,
    save_tensor,
    simulate_capture,
    ssim,
    write_measurement,
)
from khcv.cli import (
    ConfigError,
    DataError,
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


def test_config_rejects_retired_sections(tmp_path):
    # the gap_tv, flow and fusion sections are retired, with every setting
    # they held: each is an unknown key, whatever it holds
    for overrides, name in (
        ({"gap_tv": {}}, "gap_tv"),
        ({"gap_tv": {"outer_iters": 60}}, "gap_tv"),
        ({"gap_tv": {"epsilon_r": 1e-8}}, "gap_tv"),
        ({"gap_tv": [["outer_iters", 5]]}, "gap_tv"),
        ({"flow": {"alpha": 0.2}}, "flow"),
        ({"flow": []}, "flow"),
        ({"fusion": {}}, "fusion"),
        ({"fusion": {"chain_flows": True}}, "fusion"),
        ({"fusion": {"epsilon_blend": 1e-6}}, "fusion"),
        ({"fusion": {"normalize_keys": True}}, "fusion"),
        ({"fusion": {"flow_params": {"alpha": 0.1}}}, "fusion"),
    ):
        path, _, _ = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=rf"^unknown config keys: \['{re.escape(name)}'\]$"):
            PipelineConfig.from_json(path)
        result = CliRunner().invoke(main, ["pipeline", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert f"'{name}'" in result.stderr
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section", [{"gap_tv": {"outer_iters": 60}}, {"flow": {"alpha": 0.2}}], ids=["gap_tv", "flow"])
def test_every_command_exits_2_on_a_solver_section_before_writing(tmp_path, section):
    # the solvers run their measured defaults, and a config that names a solver's
    # section, even at those defaults, is refused by each command that reads it
    clean, raw, _ = write_config(tmp_path, out_dir=str(tmp_path / "staged"))
    staged, out = tmp_path / "staged", tmp_path / "out"
    runner = CliRunner()
    assert runner.invoke(main, ["simulate", "--config", str(clean)]).exit_code == 0
    stored = ["--manifest", str(staged / "manifest.json")]
    assert runner.invoke(main, ["reconstruct", *stored, "--config", str(clean)]).exit_code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**raw, **section, "out_dir": str(out)}))
    for args in (
        ["simulate"],
        ["reconstruct", *stored],
        ["fuse", *stored, "--intermediate", str(staged / "intermediate.khcv")],
        ["pipeline"],
        ["sweep", "--gaps", "0,1"],
    ):
        result = runner.invoke(main, [*args, "--config", str(bad)])
        assert result.exit_code == 2, (args[0], result.output)
        assert result.stderr == f"error: unknown config keys: {sorted(section)}\n"
        assert not out.exists(), args[0]


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
        {"scene": 5},
        {"out_dir": 7},
        {"dump_intermediates": "no"},
        {"save_pgm": 1},
        # integer fields take integers only
        {"gap_frames": 0.5},
        {"mask_seed": 3.7},
        {"B": True},
        # float fields take numbers, not booleans
        {"noise_sigma": True},
        {"mask_density": True},
        # numbers are finite; each NaN fails its range check too
        {"noise_sigma": math.nan},
        {"noise_sigma": math.inf},
        {"mask_density": math.nan},
    ):
        raw, _ = base_config(tmp_path, **bad)
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        result = runner.invoke(main, ["pipeline", "--config", str(path)])
        assert result.exit_code == 2, (bad, result.output)
        assert not (tmp_path / "out").exists(), bad


def test_config_accepts_numpy_integers(tmp_path):
    raw, _ = base_config(tmp_path, mask_seed=np.int64(5), B=np.int32(3), mask_density=np.float32(0.25))
    cfg = PipelineConfig.from_dict(raw)
    assert cfg.mask_seed == 5 and cfg.B == 3
    assert cfg.mask_density == 0.25
    # they are stored as Python numbers, so the manifest and report can hold them
    assert type(cfg.mask_seed) is int and type(cfg.B) is int and type(cfg.mask_density) is float
    result = run_pipeline(cfg)
    assert json.loads((result.out_dir / "manifest.json").read_text())["seed"] == 5
    assert result.report["config"]["mask_density"] == 0.25
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
    )
    cfg = PipelineConfig.from_dict(raw)
    default = PipelineConfig(scene=cfg.scene)
    for f in dataclasses.fields(cfg):
        if f.name != "scene":
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
    assert PipelineConfig.from_dict(dataclasses.asdict(cfg)) == cfg


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


@pytest.mark.parametrize("broken", ["malformed-pgm", "two-sizes"])
def test_simulate_exits_3_on_a_broken_pgm_scene_before_writing(tmp_path, broken):
    frames = tmp_path / "frames"
    frames.mkdir()
    scene = translating_scene(32, 32, 6, seed=5)
    for k in range(scene.frames):
        export_pgm(Frame(scene.samples[k]), frames / f"frame_{k:03d}.pgm")
    if broken == "malformed-pgm":
        (frames / "frame_003.pgm").write_bytes(b"P6\n32 32\n255\n")
        message = f"{frames / 'frame_003.pgm'}: expected P5, got b'P6'"
    else:
        export_pgm(Frame(np.zeros((32, 33), np.float32)), frames / "frame_003.pgm")
        message = "scene frames disagree in size: [(32, 32), (32, 33)]"
    config_path, _, _ = write_config(tmp_path, scene=str(frames), B=2)
    r = CliRunner().invoke(main, ["simulate", "--config", str(config_path)])
    assert r.exit_code == 3, r.output
    assert r.stderr == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("dump", [False, True], ids=["plain", "dump"])
def test_run_pipeline_is_deterministic(tmp_path, dump):
    # every file two runs write is byte for byte the same, the dumped flows,
    # PPMs and PGMs included; report.json alone records out_dir
    raw, _ = base_config(tmp_path, dump_intermediates=dump)
    a = run_pipeline(PipelineConfig.from_dict({**raw, "out_dir": str(tmp_path / "a")}))
    b = run_pipeline(PipelineConfig.from_dict({**raw, "out_dir": str(tmp_path / "b")}))

    def files(out):
        return {path.relative_to(out).as_posix(): path.read_bytes() for path in out.rglob("*") if path.is_file()}

    written, again = files(a.out_dir), files(b.out_dir)
    del written["report.json"], again["report.json"]
    assert written == again
    # the measurement's five files, intermediate.khcv, fused.khcv and
    # per_frame.csv, and with the dump two flows, two PPMs and a PGM a frame
    assert len(written) == 8 + (5 * raw["B"] if dump else 0)
    assert ("intermediates/visibility_001.pgm" in written) == dump


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
    calls = []  # systems per estimate_flows stack
    real = fusion.estimate_flows

    def counted(targets, *args, **kwargs):
        calls.append(len(targets))
        return real(targets, *args, **kwargs)

    monkeypatch.setattr(fusion, "estimate_flows", counted)
    raw, _ = base_config(tmp_path)
    counts, fused = {}, {}
    for dump in (False, True):
        calls.clear()
        cfg = PipelineConfig.from_dict({**raw, "dump_intermediates": dump, "out_dir": str(tmp_path / str(dump))})
        result = run_pipeline(cfg)
        counts[dump] = sum(calls)
        fused[dump] = (result.out_dir / "fused.khcv").read_bytes()
    # per frame: one system against each key
    assert counts[True] == counts[False] == 2 * raw["B"]
    assert fused[True] == fused[False]


def test_dumped_flows_are_the_ones_fusion_used(tmp_path):
    raw, _ = base_config(tmp_path, dump_intermediates=True)
    cfg = PipelineConfig.from_dict(raw)
    result = run_pipeline(cfg)
    m = read_measurement(result.out_dir / "manifest.json")
    x_mid = load_tensor(result.out_dir / "intermediate.khcv")
    records = []
    refused = fusion.fuse_video(m, x_mid, callback=lambda k, left, right, v: records.append((left, right)))
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


def test_internal_value_error_is_not_reported_as_bad_data(tmp_path, monkeypatch):
    # exit 3 means bad input data; a ValueError raised inside the program is
    # a fault of the program and surfaces as an uncaught exception
    config_path, _, _ = write_config(tmp_path)

    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "fuse_video", broken)
    result = CliRunner().invoke(main, ["pipeline", "--config", str(config_path)])
    assert result.exit_code not in (0, 2, 3, 4)
    assert isinstance(result.exception, ValueError) and str(result.exception) == "internal"
    assert "error: internal" not in result.stderr


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
        lambda m: {k: v for k, v in m.items() if k != "t_g"},
    ],
    ids=["gap_frames-string", "gap_frames-float", "files-list", "top-level-list", "B-bool", "t_y-inconsistent",
         "t_g-missing"],
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


@pytest.mark.parametrize("text", [b"{not json", b"\xff\xfe"], ids=["not-json", "not-utf8"])
def test_reconstruct_rejects_a_manifest_that_is_not_json(tmp_path, text):
    config_path, _, _ = write_config(tmp_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(text)
    r = CliRunner().invoke(main, ["reconstruct", "--manifest", str(manifest), "--config", str(config_path)])
    assert r.exit_code == 3, r.output
    assert r.stderr.startswith(f"error: {manifest}: not valid JSON ("), r.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "role, tensor, message",
    [
        ("y", CodingCube(np.ones((4, 48, 48), np.uint8)), "files must hold three frames and a coding cube, in that order"),
        ("z_left", Frame(np.zeros((48, 47), np.float32)), "key frames must match the compressive frame size"),
        ("masks", CodingCube(np.ones((4, 47, 48), np.uint8)), "mask planes must match the compressive frame size"),
        ("masks", CodingCube(np.ones((5, 48, 48), np.uint8)), "mask count 5 disagrees with schedule B 4"),
    ],
    ids=["y-holds-masks", "key-frame-size", "mask-plane-size", "mask-count"],
)
def test_reconstruct_rejects_stored_tensors_that_do_not_fit_together(tmp_path, role, tensor, message):
    # each file parses, but the measurement they make up is malformed
    config_path, _, _ = write_config(tmp_path)
    staged = tmp_path / "staged"
    runner = CliRunner()
    assert runner.invoke(main, ["simulate", "--config", str(config_path), "--out", str(staged)]).exit_code == 0
    save_tensor(tensor, staged / f"{role}.khcv")
    manifest = staged / "manifest.json"
    r = runner.invoke(main, ["reconstruct", "--manifest", str(manifest), "--config", str(config_path)])
    assert r.exit_code == 3, r.output
    assert r.stderr == f"error: {manifest}: {message}\n"
    assert not (tmp_path / "out").exists()


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


def test_measurements_and_flows_past_float32_exit_4(tmp_path):
    # finite configs whose noise overflows float32: 1e20 overflows GAP-TV's TV
    # dual, 1e39 the compressive frame itself.  numpy raises at the operation
    # that overflows, so the command stops there: no RuntimeWarning, which the
    # test settings would turn into an uncaught error, and no partial output
    scene_path = tmp_path / "scene.khcv"
    save_tensor(translating_scene(32, 32, 10, seed=9), scene_path)
    runner = CliRunner()

    def config(name, sigma):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(
            {"scene": str(scene_path), "B": 4, "t_x": 1000, "noise_sigma": sigma, "out_dir": str(tmp_path / name)}
        ))
        return str(path)

    staged = tmp_path / "staged"
    r = runner.invoke(main, ["simulate", "--config", config("staged", 1e20)])
    assert r.exit_code == 0, r.output
    for args, out, left_out, stage in (
        (["reconstruct", "--manifest", str(staged / "manifest.json"), "--config", config("rec", 1e20)],
         tmp_path / "rec", ["intermediate.khcv"], "gap_tv_reconstruct"),
        (["pipeline", "--config", config("pipe", 1e20)], tmp_path / "pipe", ["intermediate.khcv", "fused.khcv"],
         "gap_tv_reconstruct"),
        (["simulate", "--config", config("sim", 1e39)], tmp_path / "sim", ["manifest.json"], "encode"),
    ):
        r = runner.invoke(main, args)
        assert r.exit_code == 4, (args[0], r.output, r.exception)
        assert "RuntimeWarning" not in r.stderr
        lines = r.stderr.splitlines()
        assert lines[-1].startswith("error: overflow encountered in ")
        assert lines[-1].endswith(f" (in {stage})"), args[0]
        assert sum(line.startswith("error:") for line in lines) == 1
        assert not any((out / name).exists() for name in left_out), args[0]


@pytest.mark.parametrize("command", ["simulate", "pipeline", "sweep"])
def test_scene_outside_the_unit_range_exits_3_before_any_write(tmp_path, command):
    # at 1e20 GAP-TV's float32 dual would overflow once the measurement was
    # written; at -0.5 or 1.5 the run would end with PSNR against a peak of 1
    # that means nothing.  Each is refused before the output directory gets
    # a file
    runner = CliRunner()
    for value in (1e20, -0.5, 1.5):
        samples = translating_scene(32, 32, 6, seed=9).samples.copy()
        samples[2, 5, 7] = value  # a frame of the coded block
        scene_path = tmp_path / f"scene_{value}.khcv"
        save_tensor(VideoCube(samples), scene_path)
        out = tmp_path / f"out_{value}"
        out.mkdir()
        config_path = tmp_path / f"config_{value}.json"
        config_path.write_text(json.dumps({"scene": str(scene_path), "B": 2, "t_x": 1000, "out_dir": str(out)}))
        args = [command, "--config", str(config_path)] + (["--gaps", "0,1"] if command == "sweep" else [])
        r = runner.invoke(main, args)
        assert r.exit_code == 3, (value, r.output)
        found = f"[{float(samples.min()):g}, {float(samples.max()):g}]"
        assert r.stderr == f"error: scene samples must lie in [0, 1], found {found}\n"
        assert not any(out.iterdir()), value


def test_scene_at_the_ends_of_the_unit_range_runs(tmp_path):
    # 0 and 1 themselves, and -0.0, are in range
    samples = translating_scene(32, 32, 6, seed=9).samples.copy()
    samples[2, 5, 7] = 0.0
    samples[2, 6, 7] = 1.0
    samples[3, 5, 7] = -0.0
    scene_path = tmp_path / "scene.khcv"
    save_tensor(VideoCube(samples), scene_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"scene": str(scene_path), "B": 2, "t_x": 1000, "out_dir": str(tmp_path / "out")}))
    r = CliRunner().invoke(main, ["simulate", "--config", str(config_path)])
    assert r.exit_code == 0, r.output
    assert (tmp_path / "out" / "manifest.json").exists()


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


def _flow_fit_error(height: int, width: int) -> str:
    """The message estimate_flows raises for frames of this size at FlowParams()."""
    frame = Frame(np.zeros((height, width), np.float32))
    with pytest.raises(ValueError) as info:
        estimate_flows([frame], [frame])
    return str(info.value)


@pytest.mark.parametrize("command", [["simulate"], ["pipeline"], ["sweep", "--gaps", "0"]])
@pytest.mark.parametrize(
    "height, width",
    # 10 px is below the 11 px SSIM window too: the flow pyramid's rule is
    # the one the scene check applies, and it refuses these frames first
    [(10, 10), (24, 24), (31, 48)],
    ids=["below-ssim-window", "24px", "31x48"],
)
def test_cli_frames_too_small_for_flow_pyramid_exit_3_before_writing(tmp_path, command, height, width):
    # frame size is a property of the data: the 3 pyramid levels of
    # FlowParams() need both sides at least 32 px
    save_tensor(translating_scene(height, width, SCENE_FRAMES, step=(1, 0), seed=9), tmp_path / "small.khcv")
    config_path, _, _ = write_config(tmp_path, scene=str(tmp_path / "small.khcv"))
    result = CliRunner().invoke(main, [*command, "--config", str(config_path)])
    assert result.exit_code == 3, result.output
    # the CLI states the rule in flow's own words
    assert result.stderr == f"error: {_flow_fit_error(height, width)}\n"
    assert not (tmp_path / "out").exists()


def _fuse_block(tmp_path, side: int, frames: int):
    """Write a side x side, B=4 measurement with write_measurement, then run
    `khcv fuse` on it with an intermediate cube of this many frames."""
    scene = translating_scene(side, side, SCENE_FRAMES, step=(1, 0), seed=9)
    m = simulate_capture(scene, generate_masks(3, side, side, 4), build_schedule(1000, 4))
    manifest = write_measurement(m, tmp_path / "staged")
    save_tensor(VideoCube(scene.samples[:frames]), tmp_path / "intermediate.khcv")
    config_path, _, _ = write_config(tmp_path)
    return CliRunner().invoke(
        main,
        [
            "fuse",
            "--manifest", str(manifest),
            "--intermediate", str(tmp_path / "intermediate.khcv"),
            "--config", str(config_path),
            "--out", str(tmp_path / "fused"),
        ],
    )


def test_cli_fuse_with_frames_too_small_for_flow_pyramid_exits_3_before_writing(tmp_path):
    result = _fuse_block(tmp_path, side=24, frames=4)
    assert result.exit_code == 3, result.output
    assert result.stderr == f"error: {_flow_fit_error(24, 24)}\n"
    assert not (tmp_path / "fused").exists()


def test_cli_fuse_with_intermediate_of_wrong_length_exits_3_before_writing(tmp_path):
    result = _fuse_block(tmp_path, side=32, frames=3)
    assert result.exit_code == 3, result.output
    assert "intermediate" in result.output
    # the CLI states the rule in fuse_video's own words
    m = read_measurement(tmp_path / "staged" / "manifest.json")
    with pytest.raises(ValueError) as info:
        fusion.fuse_video(m, VideoCube(np.zeros((3, 32, 32), np.float32)))
    assert result.stderr == f"error: {info.value}\n"
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


def test_cli_metrics_on_a_frame_against_a_cube_exits_3_before_writing(tmp_path):
    frame, cube, out = tmp_path / "frame.khcv", tmp_path / "cube.khcv", tmp_path / "metrics.json"
    save_tensor(Frame(np.zeros((16, 16), np.float32)), frame)
    save_tensor(VideoCube(np.zeros((1, 16, 16), np.float32)), cube)
    for a, b, names in ((frame, cube, "Frame with VideoCube"), (cube, frame, "VideoCube with Frame")):
        result = CliRunner().invoke(main, ["metrics", str(a), str(b), "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert result.stderr == f"error: cannot compare {names}\n"
        assert not out.exists()


def test_cli_metrics_on_frames_below_the_ssim_window_exits_3_before_writing(tmp_path):
    pa, pb, out = tmp_path / "a.khcv", tmp_path / "b.khcv", tmp_path / "metrics.json"
    save_tensor(Frame(np.full((9, 9), 0.5, np.float32)), pa)
    save_tensor(Frame(np.full((9, 9), 0.25, np.float32)), pb)
    result = CliRunner().invoke(main, ["metrics", str(pa), str(pb), "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert "SSIM" in result.output
    # the CLI states the rule in ssim's own words
    with pytest.raises(ValueError) as info:
        ssim(load_tensor(pa), load_tensor(pb))
    assert result.stderr == f"error: {info.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["reconstruct", "fuse", "metrics", "flowviz"])
def test_commands_exit_3_on_a_truncated_tensor_before_writing(tmp_path, command):
    # FormatError is a ValueError, so a load moved inside an `except
    # ValueError` that maps to ConfigError would turn this exit 3 into exit 2
    config_path, _, scene = write_config(tmp_path)
    staged = tmp_path / "staged"
    runner = CliRunner()
    assert runner.invoke(main, ["simulate", "--config", str(config_path), "--out", str(staged)]).exit_code == 0
    manifest = staged / "manifest.json"
    ref, cube, flow, out = (tmp_path / name for name in ("ref.khcv", "cube.khcv", "flow.khcv", "result"))
    save_tensor(VideoCube(scene.samples[:4]), ref)
    save_tensor(VideoCube(scene.samples[:4]), cube)
    save_tensor(FlowField(np.zeros((2, 16, 16), np.float32)), flow)
    stage = ["--config", str(config_path), "--out", str(out)]
    victims, args = {
        "reconstruct": (
            [staged / f"{role}.khcv" for role in ("y", "z_left", "z_right", "masks")],
            ["reconstruct", "--manifest", str(manifest), *stage],
        ),
        "fuse": ([cube], ["fuse", "--manifest", str(manifest), "--intermediate", str(cube), *stage]),
        "metrics": ([ref, cube], ["metrics", str(ref), str(cube), "--out", str(out)]),
        "flowviz": ([flow], ["flowviz", str(flow), str(out)]),
    }[command]
    for victim in victims:
        intact = victim.read_bytes()
        victim.write_bytes(intact[:-5])
        with pytest.raises(TruncatedError) as info:
            load_tensor(victim)
        result = runner.invoke(main, args)
        assert result.exit_code == 3, (victim.name, result.output)
        assert result.stderr == f"error: {info.value}\n"
        assert not out.exists(), victim.name
        victim.write_bytes(intact)


@pytest.mark.parametrize("command", ["pipeline", "fuse", "flowviz"])
def test_commands_exit_3_on_a_tensor_of_the_wrong_type_before_writing(tmp_path, command):
    config_path, _, _ = write_config(tmp_path)
    staged = tmp_path / "staged"
    runner = CliRunner()
    assert runner.invoke(main, ["simulate", "--config", str(config_path), "--out", str(staged)]).exit_code == 0
    frame, flow, out = tmp_path / "frame.khcv", tmp_path / "flow.khcv", tmp_path / "result"
    save_tensor(Frame(np.zeros((16, 16), np.float32)), frame)
    save_tensor(FlowField(np.zeros((2, 16, 16), np.float32)), flow)
    wrong_scene, _, _ = write_config(tmp_path, scene=str(frame))
    args, message = {
        "pipeline": (["pipeline", "--config", str(wrong_scene)], f"scene {frame} holds a Frame, expected a video cube"),
        "fuse": (
            ["fuse", "--manifest", str(staged / "manifest.json"), "--intermediate", str(flow),
             "--config", str(config_path)],
            f"{flow} holds a FlowField, expected a video cube",
        ),
        "flowviz": (["flowviz", str(frame), str(out)], f"{frame} holds a Frame, expected a flow field"),
    }[command]
    result = runner.invoke(main, [*args, *(["--out", str(out)] if command != "flowviz" else [])])
    assert result.exit_code == 3, result.output
    assert result.stderr == f"error: {message}\n"
    assert not out.exists()


def test_report_means_match_per_frame_metrics(tmp_path):
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
        expected_psnr = float(np.mean(psnrs))
        assert mean == {
            "psnr_db": "inf" if math.isinf(expected_psnr) else expected_psnr,
            "ssim": float(np.mean([ssim(probe.samples[k], truth.samples[k]) for k in range(truth.frames)])),
            "l1": float(np.mean([l1_distance(probe.samples[k], truth.samples[k]) for k in range(truth.frames)])),
            "lpips": "unavailable",
        }
        assert (mean["psnr_db"] == "inf") == (name == "one_exact")


def test_pipeline_report_matches_lone_metric_calls(tmp_path):
    # run_pipeline scores the fused and the intermediate cube in one pass
    # over the truth; each number must still be what a lone psnr, ssim or
    # l1_distance call on the written cubes gives, bit for bit
    raw, scene = base_config(tmp_path)
    result = run_pipeline(PipelineConfig.from_dict(raw))
    report = json.loads((result.out_dir / "report.json").read_text())
    start = (scene.frames - raw["B"]) // 2
    truth = scene.samples[start : start + raw["B"]]

    def lone(cube):
        return [(psnr(c, t), ssim(c, t), l1_distance(c, t)) for c, t in zip(cube.samples, truth)]

    fused = lone(load_tensor(result.out_dir / "fused.khcv"))
    assert [(row["psnr_db"], row["ssim"], row["l1"]) for row in report["per_frame"]] == fused
    intermediate = lone(load_tensor(result.out_dir / "intermediate.khcv"))
    p, s, l1 = (float(np.mean(column)) for column in zip(*intermediate))
    assert report["intermediate_mean"] == {"psnr_db": p, "ssim": s, "l1": l1, "lpips": "unavailable"}


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
