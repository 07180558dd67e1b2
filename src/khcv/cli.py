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
import numbers
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from .capture import (
    HybridMeasurement,
    NoiseModel,
    _block_start,
    build_schedule,
    generate_masks,
    read_measurement,
    simulate_capture,
    write_measurement,
)
from .flow import FlowParams, _min_side, flow_to_color
from .fusion import FusionParams, iter_fused_frames
from .metrics import video_report
from .recon import GapTvParams, gap_tv_reconstruct
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
    "NumericalError",
    "PipelineConfig",
    "PipelineResult",
    "SweepResult",
    "load_scene",
    "run_pipeline",
    "sweep_frame_gap",
    "main",
]

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    """The run configuration is malformed or inconsistent."""


class DataError(Exception):
    """Input data is missing, malformed or mismatched."""


class NumericalError(Exception):
    """A solver produced non-finite values."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one pipeline run needs, loadable from JSON.

    Construction range-checks the fields, so from_dict and
    dataclasses.replace alike raise ConfigError on a bad value."""

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
    gap_tv: GapTvParams = field(default_factory=GapTvParams)
    fusion: FusionParams = field(default_factory=FusionParams)

    def __post_init__(self):
        try:
            build_schedule(self.t_x, self.B, self.t_g)
            NoiseModel(self.noise_sigma, self.noise_seed)
            if not 0 <= int(self.mask_seed) < 2**64:
                raise ValueError(f"mask_seed must fit in 64 bits, got {self.mask_seed}")
            if not 0.0 < self.mask_density <= 1.0:
                raise ValueError(f"mask_density must lie in (0, 1], got {self.mask_density}")
            if self.gap_frames < 0:
                raise ValueError(f"gap_frames must be >= 0, got {self.gap_frames}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known - {"flow"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "scene" not in raw:
            raise ConfigError("config must name a scene")
        try:
            fusion_kwargs = dict(raw.get("fusion", {}))
            if "flow_params" in fusion_kwargs:
                raise ValueError('flow settings go under the top-level "flow" key, not fusion.flow_params')
            gap_tv_kwargs = dict(raw.get("gap_tv", {}))
            flow_kwargs = dict(raw.get("flow", {}))
            _check_json_types(cls, raw, "")
            _check_json_types(GapTvParams, gap_tv_kwargs, "gap_tv.")
            _check_json_types(FusionParams, fusion_kwargs, "fusion.")
            _check_json_types(FlowParams, flow_kwargs, "flow.")
            fusion_kwargs["flow_params"] = FlowParams(**flow_kwargs)
            scalars = {k: v for k, v in raw.items() if k not in ("gap_tv", "fusion", "flow")}
            return cls(**scalars, gap_tv=GapTvParams(**gap_tv_kwargs), fusion=FusionParams(**fusion_kwargs))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

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

    def to_dict(self) -> dict:
        """The from_dict form: fusion's flow_params move to a top-level "flow"."""
        raw = dataclasses.asdict(self)
        raw["flow"] = raw["fusion"].pop("flow_params")
        return raw


def _check_json_types(cls, raw: dict, prefix: str) -> None:
    """Reject a str, bool or int field of cls given as another JSON type in raw.

    The dataclasses range-check their numeric fields but not their types; a
    value of the wrong type would otherwise pass until it is used.  An int
    field takes any integral number (numpy integers too) but not a bool or a
    float, even an integral one such as 3.0.
    """
    hints = typing.get_type_hints(cls)
    for name, value in raw.items():
        want = hints.get(name)
        if want in (str, bool) and not isinstance(value, want):
            raise TypeError(f"{prefix}{name} must be a JSON {want.__name__}, got {value!r}")
        if want is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise TypeError(f"{prefix}{name} must be a JSON integer, got {value!r}")


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
    try:
        data = load_tensor(path)
    except FormatError as exc:
        raise DataError(str(exc)) from exc
    if not isinstance(data, VideoCube):
        raise DataError(f"scene {path} holds a {type(data).__name__}, expected a video cube")
    return data


def _encode_value(x: float):
    return "inf" if math.isinf(x) else x


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    """Write a header of column names, then those columns of each row."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)


def _score(truth: VideoCube, cube: VideoCube) -> tuple[list[dict], dict]:
    """Per-frame rows and their mean block, computing each metric once per frame."""
    psnrs, ssims, l1s = (video_report(name, cube, truth) for name in ("psnr", "ssim", "l1"))
    rows = [
        {"k": k, "psnr_db": _encode_value(p), "ssim": s, "l1": l1}
        for k, (p, s, l1) in enumerate(zip(psnrs.values, ssims.values, l1s.values), start=1)
    ]
    mean = {"psnr_db": _encode_value(psnrs.mean), "ssim": ssims.mean, "l1": l1s.mean, "lpips": "unavailable"}
    return rows, mean


@dataclass(frozen=True)
class PipelineResult:
    """Output paths and quality numbers of one pipeline run."""

    out_dir: Path
    report: dict

    @property
    def mean_psnr(self) -> float:
        value = self.report["mean"]["psnr_db"]
        return math.inf if value == "inf" else float(value)

    @property
    def mean_ssim(self) -> float:
        return float(self.report["mean"]["ssim"])

    @property
    def intermediate_mean_psnr(self) -> float:
        value = self.report["intermediate_mean"]["psnr_db"]
        return math.inf if value == "inf" else float(value)


def _capture(cfg: PipelineConfig, scene: VideoCube) -> tuple[HybridMeasurement, Path]:
    """Simulate the hybrid capture of a scene and write it under cfg.out_dir.

    Before anything is written, checks that the scene holds enough frames
    for the block and that its frames are large enough for the configured
    flow pyramid.  Returns the measurement and the path of its manifest.
    """
    try:
        _block_start(scene.frames, cfg.B, cfg.gap_frames)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    levels = cfg.fusion.flow_params.pyramid_levels
    if min(scene.height, scene.width) < _min_side(levels):
        raise ConfigError(
            f"scene frames are {scene.height}x{scene.width} px but {levels} flow pyramid levels "
            f"need both sides at least {_min_side(levels)} px"
        )
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
    try:
        x_mid = gap_tv_reconstruct(m.y, m.masks, cfg.gap_tv)
    except FloatingPointError as exc:
        raise NumericalError(str(exc)) from exc
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_tensor(x_mid, out / "intermediate.khcv")
    return x_mid


def _fuse(cfg: PipelineConfig, m: HybridMeasurement, x_mid: VideoCube) -> VideoCube:
    """Fuse the block and write fused.khcv; with dump_intermediates, write each
    frame's flows and visibility map under out/intermediates as that frame is
    fused."""
    out = Path(cfg.out_dir)
    dump = out / "intermediates"
    out.mkdir(parents=True, exist_ok=True)
    if cfg.dump_intermediates:
        dump.mkdir(exist_ok=True)
    fused = np.empty_like(x_mid.samples)
    for k, detail in enumerate(iter_fused_frames(m, x_mid, cfg.fusion), start=1):
        fused[k - 1] = detail.output.samples
        if cfg.dump_intermediates:
            save_tensor(detail.flow_left, dump / f"flow_left_{k:03d}.khcv")
            save_tensor(detail.flow_right, dump / f"flow_right_{k:03d}.khcv")
            export_ppm(flow_to_color(detail.flow_left), dump / f"flow_left_{k:03d}.ppm")
            export_ppm(flow_to_color(detail.flow_right), dump / f"flow_right_{k:03d}.ppm")
            export_pgm(Frame(detail.visibility.values), dump / f"visibility_{k:03d}.pgm")
    fused = VideoCube(fused)
    save_tensor(fused, out / "fused.khcv")
    return fused


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Simulate, reconstruct, fuse and score one scene end to end.

    Writes the measurement, both reconstructions and a JSON/CSV report under
    cfg.out_dir and returns the parsed report.  Metrics cover the B coded
    frames only; key frames are never scored.
    """
    scene = load_scene(cfg.scene)
    B = cfg.B
    out = Path(cfg.out_dir)
    m, _ = _capture(cfg, scene)
    x_mid = _reconstruct(cfg, m)
    fused = _fuse(cfg, m, x_mid)

    if cfg.save_pgm:
        seq = out / "fused_pgm"
        seq.mkdir(exist_ok=True)
        for k in range(B):
            export_pgm(Frame(fused.samples[k]), seq / f"fused_{k + 1:03d}.pgm")

    start = _block_start(scene.frames, B, cfg.gap_frames)
    truth = VideoCube(scene.samples[start : start + B])
    per_frame, mean = _score(truth, fused)
    report = {
        "config": cfg.to_dict(),
        "per_frame": per_frame,
        "mean": mean,
        "intermediate_mean": _score(truth, x_mid)[1],
    }
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
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
    # every per-gap config is checked before the first write
    subs = [dataclasses.replace(cfg, gap_frames=g, out_dir=str(out / f"gap_{g}")) for g in sorted(gaps)]
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for sub in subs:
        result = run_pipeline(sub)
        rows.append(
            {
                "gap_frames": sub.gap_frames,
                "gap_ratio": sub.gap_frames / cfg.B,
                "mean_psnr_db": result.report["mean"]["psnr_db"],
                "mean_ssim": result.report["mean"]["ssim"],
                "intermediate_mean_psnr_db": result.report["intermediate_mean"]["psnr_db"],
            }
        )
    (out / "sweep.json").write_text(json.dumps({"sweep": rows}, indent=2) + "\n")
    _write_csv(out / "sweep.csv", ["gap_frames", "gap_ratio", "mean_psnr_db", "mean_ssim"], rows)
    return SweepResult(rows=rows)


# ===== command line front end =====


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))
    except (DataError, OSError, ValueError) as exc:
        _fail(EXIT_DATA, str(exc))
    except (NumericalError, FloatingPointError) as exc:
        _fail(EXIT_NUMERIC, str(exc))


def _load_config(config_path, out_dir, mask_seed, noise_seed, dump) -> PipelineConfig:
    cfg = PipelineConfig.from_json(config_path)
    updates = {}
    if out_dir is not None:
        updates["out_dir"] = out_dir
    if mask_seed is not None:
        updates["mask_seed"] = mask_seed
    if noise_seed is not None:
        updates["noise_seed"] = noise_seed
    if dump:
        updates["dump_intermediates"] = True
    return dataclasses.replace(cfg, **updates) if updates else cfg


_config_option = click.option("--config", "config_path", required=True, type=click.Path(), help="JSON run configuration.")
_out_option = click.option("--out", "out_dir", default=None, type=click.Path(), help="Override the output directory.")
_mask_seed_option = click.option("--mask-seed", type=int, default=None, help="Override the mask seed.")
_noise_seed_option = click.option("--noise-seed", type=int, default=None, help="Override the noise seed.")
_dump_option = click.option("--dump-intermediates", "dump", is_flag=True, help="Write flows, colorized flows and visibility maps.")


@click.group()
def main():
    """Hybrid compressive video sensing toolchain."""


@main.command()
@_config_option
@_out_option
@_mask_seed_option
@_noise_seed_option
def simulate(config_path, out_dir, mask_seed, noise_seed):
    """Simulate one hybrid measurement and write it with its manifest."""

    def body():
        cfg = _load_config(config_path, out_dir, mask_seed, noise_seed, False)
        _, manifest = _capture(cfg, load_scene(cfg.scene))
        click.echo(f"wrote {manifest}")

    _guarded(body)


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(), help="Measurement manifest JSON.")
@_config_option
@_out_option
def reconstruct(manifest_path, config_path, out_dir):
    """Reconstruct the coded block behind a stored measurement."""

    def body():
        cfg = _load_config(config_path, out_dir, None, None, False)
        _reconstruct(cfg, read_measurement(manifest_path))
        click.echo(f"wrote {Path(cfg.out_dir) / 'intermediate.khcv'}")

    _guarded(body)


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=click.Path(), help="Measurement manifest JSON.")
@click.option("--intermediate", "intermediate_path", required=True, type=click.Path(), help="Intermediate reconstruction cube.")
@_config_option
@_out_option
@_dump_option
def fuse(manifest_path, intermediate_path, config_path, out_dir, dump):
    """Fuse a stored intermediate reconstruction with its key frames."""

    def body():
        cfg = _load_config(config_path, out_dir, None, None, dump)
        m = read_measurement(manifest_path)
        data = load_tensor(intermediate_path)
        if not isinstance(data, VideoCube):
            raise DataError(f"{intermediate_path} holds a {type(data).__name__}, expected a video cube")
        _fuse(cfg, m, data)
        click.echo(f"wrote {Path(cfg.out_dir) / 'fused.khcv'}")

    _guarded(body)


@main.command()
@_config_option
@_out_option
@_mask_seed_option
@_noise_seed_option
@_dump_option
def pipeline(config_path, out_dir, mask_seed, noise_seed, dump):
    """Run simulate, reconstruct, fuse and metrics in one go."""

    def body():
        cfg = _load_config(config_path, out_dir, mask_seed, noise_seed, dump)
        result = run_pipeline(cfg)
        mean = result.report["mean"]
        inter = result.report["intermediate_mean"]
        click.echo(f"fused mean PSNR {mean['psnr_db']} dB, SSIM {mean['ssim']:.4f}")
        click.echo(f"intermediate mean PSNR {inter['psnr_db']} dB, SSIM {inter['ssim']:.4f}")
        click.echo(f"report: {result.out_dir / 'report.json'}")

    _guarded(body)


@main.command()
@_config_option
@_out_option
@_mask_seed_option
@_noise_seed_option
@click.option("--gaps", default="0,1,2,3,4", show_default=True, help="Comma-separated gap values.")
def sweep(config_path, out_dir, mask_seed, noise_seed, gaps):
    """Sweep the key-frame gap and tabulate fused quality."""

    def body():
        cfg = _load_config(config_path, out_dir, mask_seed, noise_seed, False)
        try:
            gap_values = [int(tok) for tok in gaps.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"bad --gaps value {gaps!r}") from exc
        result = sweep_frame_gap(cfg, gap_values)
        for row in result.rows:
            click.echo(
                f"gap {row['gap_frames']}: fused PSNR {row['mean_psnr_db']} dB, "
                f"SSIM {row['mean_ssim']:.4f}"
            )

    _guarded(body)


@main.command()
@click.argument("reference", type=click.Path())
@click.argument("candidate", type=click.Path())
@click.option("--out", "out_path", default=None, type=click.Path(), help="Write the JSON report here.")
def metrics(reference, candidate, out_path):
    """Score a stored frame or cube against a reference of the same shape."""

    def body():
        ref = load_tensor(reference)
        cand = load_tensor(candidate)
        if isinstance(ref, Frame) and isinstance(cand, Frame):
            truth = VideoCube(ref.samples[np.newaxis])
            probe = VideoCube(cand.samples[np.newaxis])
        elif isinstance(ref, VideoCube) and isinstance(cand, VideoCube):
            truth, probe = ref, cand
        else:
            raise DataError(
                f"cannot compare {type(ref).__name__} with {type(cand).__name__}"
            )
        if truth.samples.shape != probe.samples.shape:
            raise DataError(
                f"shape mismatch: {truth.samples.shape} vs {probe.samples.shape}"
            )
        per_frame, mean = _score(truth, probe)
        report = {"per_frame": per_frame, "mean": mean}
        text = json.dumps(report, indent=2)
        click.echo(text)
        if out_path is not None:
            Path(out_path).write_text(text + "\n")

    _guarded(body)


@main.command()
@click.argument("flow_path", type=click.Path())
@click.argument("out_path", type=click.Path())
@click.option("--max-magnitude", type=float, default=None, help="Saturation scale in pixels; default is the 99th percentile.")
def flowviz(flow_path, out_path, max_magnitude):
    """Colorize a stored flow field into a PPM image."""

    def body():
        data = load_tensor(flow_path)
        if not isinstance(data, FlowField):
            raise DataError(f"{flow_path} holds a {type(data).__name__}, expected a flow field")
        export_ppm(flow_to_color(data, max_magnitude), out_path)
        click.echo(f"wrote {out_path}")

    _guarded(body)


if __name__ == "__main__":
    main()
