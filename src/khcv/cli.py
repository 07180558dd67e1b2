"""End-to-end pipeline harness and command line interface.

Wires capture simulation, reconstruction, fusion and metrics into single
runs and frame-gap sweeps driven by a JSON config.  Exit codes: 0 success,
2 bad configuration, 3 bad or missing data, 4 numerical failure.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from .capture import (
    HybridMeasurement,
    NoiseModel,
    _block_start,
    _check_count,
    _check_density,
    _check_number,
    _check_seed,
    _json_scalar,
    build_schedule,
    generate_masks,
    read_measurement,
    simulate_capture,
    write_measurement,
)
from .flow import FlowParams, _check_flow_fits, flow_to_color
from .fusion import _check_intermediate, fuse_video
from .metrics import _check_ssim_window, score_frame
from .recon import gap_tv_reconstruct
from .tensors import (
    FlowField,
    FormatError,
    Frame,
    VideoCube,
    export_pgm,
    export_ppm,
    import_pgm,
    load_tensor,
    save_tensor,
)

__all__ = [
    "ConfigError",
    "DataError",
    "PipelineConfig",
    "PipelineResult",
    "SweepResult",
    "load_scene",
    "run_pipeline",
    "sweep_frame_gap",
    "main",
]

class ConfigError(Exception):
    """The run configuration is malformed or inconsistent."""


class DataError(Exception):
    """Input data is missing, malformed or mismatched."""


# JSON name of each config field type that no constructor checks; the count,
# number and seed rules of capture check every int and float field
_JSON_TYPES = {str: "string", bool: "boolean"}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one pipeline run needs, loadable from JSON.

    Construction range-checks the fields, so from_dict and
    dataclasses.replace alike raise ConfigError on a bad value.  GAP-TV,
    flow and fusion run their measured defaults; Python callers set the
    solvers through GapTvParams and FlowParams."""

    scene: str
    B: int = 16
    t_x: int = 2083
    t_g: int = 0
    gap_frames: int = 0
    mask_seed: int = 1
    mask_density: float = 0.5
    noise_sigma: float = 0.0
    noise_seed: int = 1
    out_dir: str = "out"
    dump_intermediates: bool = False
    save_pgm: bool = False

    def __post_init__(self):
        try:
            schedule = build_schedule(self.t_x, self.B, self.t_g)
            _check_number(self.noise_sigma, "noise_sigma", ">= 0")
            _check_seed(self.noise_seed, "noise_seed")
            _check_seed(self.mask_seed, "mask_seed")
            _check_density(self.mask_density, "mask_density")
            gap_frames = _check_count(self.gap_frames, "gap_frames", 0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # the counts are kept as the Python ints the rules return
        for name in ("t_x", "t_g", "B"):
            object.__setattr__(self, name, getattr(schedule, name))
        object.__setattr__(self, "gap_frames", gap_frames)

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        """Build the config from a JSON object, checking string and boolean values against their
        field's type hint and leaving the rest to construction.  A numpy number is stored as the
        Python number it holds, so the manifest and report can hold it."""
        if "scene" not in raw:
            raise ConfigError("config must name a scene")
        unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for name, value in raw.items():
            want = hints[name]
            if want in _JSON_TYPES and not isinstance(value, want):
                raise ConfigError(f"{name} must be a JSON {_JSON_TYPES[want]}, got {value!r}")
            kwargs[name] = value.item() if isinstance(value, np.generic) else value
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls.from_dict(raw)


def load_scene(path) -> VideoCube:
    """Load a scene: either a stored video cube or a directory of PGM frames.

    Directory frames are stacked in lexicographic filename order.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"scene {path} does not exist")
    if path.is_dir():
        frames = sorted(p for p in path.iterdir() if p.suffix.lower() == ".pgm")
        if not frames:
            raise DataError(f"scene directory {path} holds no .pgm files")
        try:
            stack = [import_pgm(p).samples for p in frames]
        except FormatError as exc:
            raise DataError(str(exc)) from exc
        shapes = {a.shape for a in stack}
        if len(shapes) > 1:
            raise DataError(f"scene frames disagree in size: {sorted(shapes)}")
        return VideoCube(np.stack(stack))
    return _load_as(path, VideoCube, f"scene {path}")


def _load_as(path, cls: type, name=None):
    """The tensor stored at path, which must be a cls; DataError names the
    file as name (default: its path) and the expected type by its _what."""
    try:
        data = load_tensor(path)
    except FormatError as exc:
        raise DataError(str(exc)) from exc
    if not isinstance(data, cls):
        raise DataError(f"{name or path} holds a {type(data).__name__}, expected a {cls._what}")
    return data


def _encode_value(x: float):
    return "inf" if math.isinf(x) else x


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    """Write a header of column names, then those columns of each row."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)


def _score(truth: VideoCube, *cubes: VideoCube) -> list[tuple[list[dict], dict]]:
    """Per-frame rows and their mean block for each cube, in one pass over
    the truth: each truth frame is prepared once for all cubes."""
    per_frame = [score_frame(t, *frames) for t, *frames in zip(truth.samples, *(c.samples for c in cubes))]
    results = []
    for scores in zip(*per_frame):  # one cube's (psnr, ssim, l1) per frame
        rows = [{"k": k, "psnr_db": _encode_value(p), "ssim": s, "l1": l1} for k, (p, s, l1) in enumerate(scores, start=1)]
        p, s, l1 = (float(np.mean(column)) for column in zip(*scores))
        results.append((rows, {"psnr_db": _encode_value(p), "ssim": s, "l1": l1, "lpips": "unavailable"}))
    return results


@dataclass(frozen=True)
class PipelineResult:
    """Output paths and quality numbers of one pipeline run."""

    out_dir: Path
    report: dict

    @property
    def mean_psnr(self) -> float:
        return float(self.report["mean"]["psnr_db"])  # float("inf") reads the "inf" marker

    @property
    def mean_ssim(self) -> float:
        return float(self.report["mean"]["ssim"])

    @property
    def intermediate_mean_psnr(self) -> float:
        return float(self.report["intermediate_mean"]["psnr_db"])


def _call_as(error: type[Exception], fn, *args):
    """Return fn(*args), raising a ValueError of fn's as error with its
    message: how a library rule becomes the CLI's exit code.  fn must read
    no file, as a FormatError (exit 3) is a ValueError too."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise error(str(exc)) from exc


def _check_scene(cfg: PipelineConfig, scene: VideoCube) -> None:
    """Check that the scene's samples lie in [0, 1], the scale every stage
    and PSNR's peak of 1 assume, that it holds enough frames for the block,
    and that its frames fit the flow pyramid of FlowParams(), which needs
    sides of 32 px and so also holds the SSIM window."""
    low, high = float(scene.samples.min()), float(scene.samples.max())
    if low < 0.0 or high > 1.0:
        raise DataError(f"scene samples must lie in [0, 1], found [{low:g}, {high:g}]")
    _call_as(DataError, _block_start, scene.frames, cfg.B, cfg.gap_frames)
    _call_as(DataError, _check_flow_fits, scene.height, scene.width, FlowParams())


def _capture(cfg: PipelineConfig, scene: VideoCube) -> tuple[HybridMeasurement, Path]:
    """Check the scene, then simulate its hybrid capture and write it under
    cfg.out_dir.  Returns the measurement and the path of its manifest."""
    _check_scene(cfg, scene)
    schedule = build_schedule(cfg.t_x, cfg.B, cfg.t_g)
    masks = generate_masks(cfg.mask_seed, scene.height, scene.width, cfg.B, cfg.mask_density)
    m = simulate_capture(scene, masks, schedule, cfg.gap_frames, NoiseModel(cfg.noise_sigma, cfg.noise_seed))
    manifest = write_measurement(
        m, cfg.out_dir, seed=cfg.mask_seed,
        extra={"noise_sigma": cfg.noise_sigma, "noise_seed": cfg.noise_seed},
    )
    return m, manifest


def _reconstruct(cfg: PipelineConfig, m: HybridMeasurement) -> VideoCube:
    """Reconstruct the coded block with GAP-TV and write intermediate.khcv."""
    x_mid = gap_tv_reconstruct(m.y, m.masks)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_tensor(x_mid, out / "intermediate.khcv")
    return x_mid


def _fuse(cfg: PipelineConfig, m: HybridMeasurement, x_mid: VideoCube) -> VideoCube:
    """Check that the intermediate cube fits the measurement and its frames
    the flow pyramid, fuse the block and write fused.khcv; with
    dump_intermediates, write each frame's flows and visibility map under
    out/intermediates as that frame is fused."""
    _call_as(DataError, _check_intermediate, m, x_mid)
    _call_as(DataError, _check_flow_fits, *m.y.samples.shape, FlowParams())
    out = Path(cfg.out_dir)
    dump = out / "intermediates"

    def write_dump(k, flow_left, flow_right, visibility):
        save_tensor(flow_left, dump / f"flow_left_{k:03d}.khcv")
        save_tensor(flow_right, dump / f"flow_right_{k:03d}.khcv")
        export_ppm(flow_to_color(flow_left), dump / f"flow_left_{k:03d}.ppm")
        export_ppm(flow_to_color(flow_right), dump / f"flow_right_{k:03d}.ppm")
        export_pgm(visibility, dump / f"visibility_{k:03d}.pgm")

    out.mkdir(parents=True, exist_ok=True)
    if cfg.dump_intermediates:
        dump.mkdir(exist_ok=True)
    fused = fuse_video(m, x_mid, callback=write_dump if cfg.dump_intermediates else None)
    save_tensor(fused, out / "fused.khcv")
    return fused


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Simulate, reconstruct, fuse and score one scene end to end.

    Writes the measurement, both reconstructions and a JSON/CSV report under
    cfg.out_dir and returns the parsed report.  Metrics cover the B coded
    frames only; key frames are never scored.
    """
    return _run(cfg, load_scene(cfg.scene))


def _run(cfg: PipelineConfig, scene: VideoCube) -> PipelineResult:
    """run_pipeline on a scene already loaded, as each gap of a sweep shares one."""
    out = Path(cfg.out_dir)
    m, _ = _capture(cfg, scene)
    x_mid = _reconstruct(cfg, m)
    fused = _fuse(cfg, m, x_mid)

    if cfg.save_pgm:
        seq = out / "fused_pgm"
        seq.mkdir(exist_ok=True)
        for k in range(cfg.B):
            export_pgm(Frame(fused.samples[k]), seq / f"fused_{k + 1:03d}.pgm")

    start = _block_start(scene.frames, cfg.B, cfg.gap_frames)
    truth = VideoCube(scene.samples[start : start + cfg.B])
    (per_frame, mean), (_, intermediate_mean) = _score(truth, fused, x_mid)
    report = {
        "config": dataclasses.asdict(cfg),
        "per_frame": per_frame,
        "mean": mean,
        "intermediate_mean": intermediate_mean,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, default=_json_scalar) + "\n")
    _write_csv(out / "per_frame.csv", ["k", "psnr_db", "ssim", "l1"], [*per_frame, {"k": "mean", **mean}])
    return PipelineResult(out_dir=out, report=report)


@dataclass(frozen=True)
class SweepResult:
    """Fused quality as a function of the key-frame gap."""

    rows: list[dict]


def sweep_frame_gap(cfg: PipelineConfig, gaps: list[int]) -> SweepResult:
    """Run the pipeline once per gap value with identical seeds.

    Results land in out_dir/gap_<g>/ plus sweep.json and sweep.csv at the
    top level; rows come back sorted by gap.
    """
    if not gaps:
        raise ConfigError("sweep needs at least one gap value")
    if len(set(gaps)) != len(gaps):
        raise ConfigError(f"duplicate gap values: {sorted(gaps)}")

    out = Path(cfg.out_dir)
    # every per-gap config, and the scene against it, is checked before the first write
    subs = [dataclasses.replace(cfg, gap_frames=g, out_dir=str(out / f"gap_{g}")) for g in sorted(gaps)]
    scene = load_scene(cfg.scene)
    for sub in subs:
        _check_scene(sub, scene)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for sub in subs:
        result = _run(sub, scene)
        rows.append(
            {
                "gap_frames": sub.gap_frames,
                "gap_ratio": sub.gap_frames / cfg.B,
                "mean_psnr_db": result.report["mean"]["psnr_db"],
                "mean_ssim": result.report["mean"]["ssim"],
                "intermediate_mean_psnr_db": result.report["intermediate_mean"]["psnr_db"],
            }
        )
    (out / "sweep.json").write_text(json.dumps({"sweep": rows}, indent=2, default=_json_scalar) + "\n")
    _write_csv(out / "sweep.csv", ["gap_frames", "gap_ratio", "mean_psnr_db", "mean_ssim"], rows)
    return SweepResult(rows=rows)


# ===== command line front end =====


def _load_config(config_path, **overrides) -> PipelineConfig:
    """Load the JSON config and apply the command line overrides that were given (not None)."""
    given = {name: value for name, value in overrides.items() if value is not None}
    return dataclasses.replace(PipelineConfig.from_json(config_path), **given)


class _Khcv(click.Group):
    """The command group, and the one place errors become exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            code, message = 2, str(exc)
        except (DataError, FormatError, OSError) as exc:
            code, message = 3, str(exc)
        except FloatingPointError as exc:
            code, message = 4, str(exc)
        click.echo(f"error: {message}", err=True)
        sys.exit(code)


# option names match the PipelineConfig fields they override
_config_option = click.option("--config", "config_path", required=True, type=click.Path(), help="JSON run configuration.")
_out_option = click.option("--out", "out_dir", default=None, type=click.Path(), help="Override the output directory.")
_mask_seed_option = click.option("--mask-seed", type=int, default=None, help="Override the mask seed.")
_noise_seed_option = click.option("--noise-seed", type=int, default=None, help="Override the noise seed.")
_dump_option = click.option("--dump-intermediates", is_flag=True, default=None, help="Write flows, colorized flows and visibility maps.")


@click.group(cls=_Khcv)
def main():
    """Hybrid compressive video sensing toolchain."""


@main.command()
@_config_option
@_out_option
@_mask_seed_option
@_noise_seed_option
def simulate(config_path, **overrides):
    """Simulate one hybrid measurement and write it with its manifest."""
    cfg = _load_config(config_path, **overrides)
    _, manifest = _capture(cfg, load_scene(cfg.scene))
    click.echo(f"wrote {manifest}")


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(), help="Measurement manifest JSON.")
@_config_option
@_out_option
def reconstruct(manifest_path, config_path, **overrides):
    """Reconstruct the coded block behind a stored measurement."""
    cfg = _load_config(config_path, **overrides)
    _reconstruct(cfg, read_measurement(manifest_path))
    click.echo(f"wrote {Path(cfg.out_dir) / 'intermediate.khcv'}")


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(), help="Measurement manifest JSON.")
@click.option("--intermediate", "intermediate_path", required=True, type=click.Path(), help="Intermediate reconstruction cube.")
@_config_option
@_out_option
@_dump_option
def fuse(manifest_path, intermediate_path, config_path, **overrides):
    """Fuse a stored intermediate reconstruction with its key frames."""
    cfg = _load_config(config_path, **overrides)
    _fuse(cfg, read_measurement(manifest_path), _load_as(intermediate_path, VideoCube))
    click.echo(f"wrote {Path(cfg.out_dir) / 'fused.khcv'}")


@main.command()
@_config_option
@_out_option
@_mask_seed_option
@_noise_seed_option
@_dump_option
def pipeline(config_path, **overrides):
    """Run simulate, reconstruct, fuse and metrics in one go."""
    cfg = _load_config(config_path, **overrides)
    result = run_pipeline(cfg)
    mean = result.report["mean"]
    inter = result.report["intermediate_mean"]
    click.echo(f"fused mean PSNR {mean['psnr_db']} dB, SSIM {mean['ssim']:.4f}")
    click.echo(f"intermediate mean PSNR {inter['psnr_db']} dB, SSIM {inter['ssim']:.4f}")
    click.echo(f"report: {result.out_dir / 'report.json'}")


@main.command()
@_config_option
@_out_option
@_mask_seed_option
@_noise_seed_option
@click.option("--gaps", default="0,1,2,3,4", show_default=True, help="Comma-separated gap values.")
def sweep(config_path, gaps, **overrides):
    """Sweep the key-frame gap and tabulate fused quality."""
    cfg = _load_config(config_path, **overrides)
    try:
        gap_values = [int(tok) for tok in gaps.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --gaps value {gaps!r}") from exc
    result = sweep_frame_gap(cfg, gap_values)
    for row in result.rows:
        click.echo(f"gap {row['gap_frames']}: fused PSNR {row['mean_psnr_db']} dB, SSIM {row['mean_ssim']:.4f}")


@main.command()
@click.argument("reference", type=click.Path())
@click.argument("candidate", type=click.Path())
@click.option("--out", "out_path", default=None, type=click.Path(), help="Write the JSON report here.")
def metrics(reference, candidate, out_path):
    """Score a stored frame or cube against a reference of the same shape."""
    ref = load_tensor(reference)
    cand = load_tensor(candidate)
    if isinstance(ref, Frame) and isinstance(cand, Frame):
        truth = VideoCube(ref.samples[np.newaxis])
        probe = VideoCube(cand.samples[np.newaxis])
    elif isinstance(ref, VideoCube) and isinstance(cand, VideoCube):
        truth, probe = ref, cand
    else:
        raise DataError(f"cannot compare {type(ref).__name__} with {type(cand).__name__}")
    if truth.samples.shape != probe.samples.shape:
        raise DataError(f"shape mismatch: {truth.samples.shape} vs {probe.samples.shape}")
    _call_as(DataError, _check_ssim_window, truth.height, truth.width)
    [(per_frame, mean)] = _score(truth, probe)
    report = {"per_frame": per_frame, "mean": mean}
    text = json.dumps(report, indent=2)
    click.echo(text)
    if out_path is not None:
        Path(out_path).write_text(text + "\n")


@main.command()
@click.argument("flow_path", type=click.Path())
@click.argument("out_path", type=click.Path())
@click.option("--max-magnitude", type=float, default=None, help="Saturation scale in pixels, finite and > 0; default is the 99th percentile.")
def flowviz(flow_path, out_path, max_magnitude):
    """Colorize a stored flow field into a PPM image."""
    data = _load_as(flow_path, FlowField)
    # the only thing flow_to_color checks is max_magnitude
    export_ppm(_call_as(ConfigError, flow_to_color, data, max_magnitude), out_path)
    click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
