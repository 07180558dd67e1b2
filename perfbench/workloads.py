"""The three benchmark workloads: seeded scenes, block paths and output checks.

Every input is built here from the workload seed; no data files are read.
A block is one coded exposure taken through one of two paths:

- "pipeline": `khcv.cli.run_pipeline` end to end (simulate, GAP-TV, fusion,
  metrics and report);
- "stages": the per-stage path behind `khcv simulate` and `khcv reconstruct`
  (masks, capture, measurement write/read, GAP-TV, cube save/load), then
  per-frame PSNR and SSIM of the GAP-TV output.

Import this module only after `checkout.require_khcv()` has put the
checkout's sources on the path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from khcv import capture, cli, metrics, recon, tensors

# blocks per run never reach this, so (seed, block) pairs map to distinct seeds
MAX_BLOCKS = 1000


@dataclass(frozen=True)
class Spec:
    """One workload: scene size, capture settings and the path a block takes."""

    name: str
    path: str  # "pipeline" or "stages"
    side: int
    B: int
    frames: int
    noise_sigma: float
    t_x: int = 2083
    t_g: int = 0
    dump: bool = False
    texture_base: int = 9
    mask_base: int = 21
    noise_base: int = 8
    min_gain_db: float | None = None  # fused PSNR must beat the intermediate by this much


WORKLOADS = {
    # the scene of acceptance criteria 6 and 7; seed 0 block 0 is criterion 6 itself
    "gate128": Spec("gate128", "pipeline", 128, 16, 26, 0.0, t_g=300, min_gain_db=1.0),
    "recon256": Spec("recon256", "stages", 256, 8, 10, 0.01, mask_base=5),
    # the config of acceptance criterion 10, with intermediates dumped
    "small48": Spec("small48", "pipeline", 48, 4, 10, 0.01, t_x=1000, dump=True, mask_base=3),
}


def warmup_spec(spec: Spec) -> Spec:
    """A small block through the same path, run once before timing starts."""
    return dataclasses.replace(spec, side=32, B=1, frames=3, min_gain_db=None)


def block_seeds(spec: Spec, seed: int, block: int) -> tuple[int, int, int]:
    """(texture, mask, noise) seeds of one block; every block gets fresh ones."""
    if seed < 0 or not 0 <= block < MAX_BLOCKS:
        raise ValueError(f"need seed >= 0 and 0 <= block < {MAX_BLOCKS}, got {seed}, {block}")
    index = seed * MAX_BLOCKS + block
    return spec.texture_base + index, spec.mask_base + index, spec.noise_base + index


def smooth_texture(h: int, w: int, seed: int, blur: float = 1.5) -> np.ndarray:
    """Band-limited random texture in [0.1, 0.9], float32."""
    rng = np.random.default_rng(seed)
    t = ndimage.gaussian_filter(rng.random((h, w)), blur)
    t = (t - t.min()) / (t.max() - t.min())
    return (0.1 + 0.8 * t).astype(np.float32)


def translating_scene(side: int, frames: int, seed: int) -> np.ndarray:
    """Square scene sliding one pixel per frame to the right: a window into one texture."""
    pad = frames + 8
    big = smooth_texture(side + 2 * pad, side + 2 * pad, seed)
    return np.stack([big[pad : pad + side, pad + t : pad + t + side] for t in range(frames)])


@dataclass(frozen=True)
class Block:
    """Inputs of one block, built before its timer starts."""

    spec: Spec
    index: int
    mask_seed: int
    noise_seed: int
    scene: np.ndarray
    out_dir: Path
    config: cli.PipelineConfig | None = None

    @property
    def truth(self) -> np.ndarray:
        """The B scene frames the coded exposure covers."""
        start = (self.spec.frames - self.spec.B) // 2
        return self.scene[start : start + self.spec.B]


@dataclass(frozen=True)
class Outcome:
    """What a block delivered: its output files and quality as the program reports it."""

    output: Path
    intermediate: Path
    psnr_db: float
    ssim: float
    intermediate_psnr_db: float


def prepare(spec: Spec, seed: int, index: int, work: Path) -> Block:
    texture_seed, mask_seed, noise_seed = block_seeds(spec, seed, index)
    scene = translating_scene(spec.side, spec.frames, texture_seed)
    out_dir = work / f"{spec.name}-{seed}-{index}"
    out_dir.mkdir(parents=True)
    config = None
    if spec.path == "pipeline":
        scene_path = out_dir / "scene.khcv"
        tensors.save_tensor(tensors.VideoCube(scene), scene_path)
        config = cli.PipelineConfig.from_dict(
            {
                "scene": str(scene_path),
                "B": spec.B,
                "t_x": spec.t_x,
                "t_g": spec.t_g,
                "mask_seed": mask_seed,
                "noise_sigma": spec.noise_sigma,
                "noise_seed": noise_seed,
                "out_dir": str(out_dir / "out"),
                "dump_intermediates": spec.dump,
            }
        )
    return Block(spec, index, mask_seed, noise_seed, scene, out_dir, config)


def run_block(block: Block) -> Outcome:
    """The timed work of one block, called through the khcv module attributes."""
    if block.spec.path == "pipeline":
        return _run_pipeline(block)
    return _run_stages(block)


def _run_pipeline(block: Block) -> Outcome:
    result = cli.run_pipeline(block.config)
    return Outcome(
        output=result.out_dir / "fused.khcv",
        intermediate=result.out_dir / "intermediate.khcv",
        psnr_db=result.mean_psnr,
        ssim=result.mean_ssim,
        intermediate_psnr_db=result.intermediate_mean_psnr,
    )


def _run_stages(block: Block) -> Outcome:
    spec = block.spec
    masks = capture.generate_masks(block.mask_seed, spec.side, spec.side, spec.B, 0.5)
    schedule = capture.build_schedule(spec.t_x, spec.B, spec.t_g)
    noise = capture.NoiseModel.gaussian(spec.noise_sigma, block.noise_seed)
    m = capture.simulate_capture(tensors.VideoCube(block.scene), masks, schedule, 0, noise)
    manifest = capture.write_measurement(
        m, block.out_dir, seed=block.mask_seed,
        extra={"noise_sigma": spec.noise_sigma, "noise_seed": block.noise_seed},
    )
    stored = capture.read_measurement(manifest)
    x_mid = recon.gap_tv_reconstruct(stored.y, stored.masks, recon.GapTvParams())
    path = block.out_dir / "intermediate.khcv"
    tensors.save_tensor(x_mid, path)
    loaded = tensors.load_tensor(path)
    truth = block.truth
    psnrs = [metrics.psnr(loaded.samples[k], truth[k]) for k in range(spec.B)]
    ssims = [metrics.ssim(loaded.samples[k], truth[k]) for k in range(spec.B)]
    mean_psnr = float(np.mean(psnrs))
    return Outcome(path, path, mean_psnr, float(np.mean(ssims)), mean_psnr)


def _mean_psnr(cube: np.ndarray, truth: np.ndarray) -> float:
    mse = np.mean((cube.astype(np.float64) - truth.astype(np.float64)) ** 2, axis=(1, 2))
    return float(np.mean(10.0 * np.log10(1.0 / mse)))


def check(block: Block, outcome: Outcome) -> tuple[list[str], str]:
    """Problems found in a block's outputs, and the digest of its output file.

    The output and the intermediate must be finite, within [0, 1] and of
    shape (B, side, side); the quality the program reports must match an
    independent PSNR; a workload with min_gain_db needs fusion to beat the
    intermediate by that much.
    """
    spec = block.spec
    problems = []
    shape = (spec.B, spec.side, spec.side)
    cubes = {}
    for role, path in (("output", outcome.output), ("intermediate", outcome.intermediate)):
        data = tensors.load_tensor(path)
        samples = getattr(data, "samples", None)
        if not isinstance(data, tensors.VideoCube) or samples.shape != shape:
            problems.append(f"{role} is {type(data).__name__} {getattr(samples, 'shape', None)}, not a {shape} cube")
            continue
        if not np.isfinite(samples).all():
            problems.append(f"{role} holds non-finite values")
        elif samples.min() < 0.0 or samples.max() > 1.0:
            problems.append(f"{role} leaves [0, 1]: [{samples.min()}, {samples.max()}]")
        cubes[role] = samples
    for name in ("psnr_db", "ssim", "intermediate_psnr_db"):
        if not math.isfinite(getattr(outcome, name)):
            problems.append(f"{name} is {getattr(outcome, name)}")
    for role, reported in (("output", outcome.psnr_db), ("intermediate", outcome.intermediate_psnr_db)):
        if role in cubes and not math.isclose(_mean_psnr(cubes[role], block.truth), reported, abs_tol=1e-6):
            problems.append(f"reported {role} PSNR {reported} disagrees with the output file")
    if spec.min_gain_db is not None and not outcome.psnr_db >= outcome.intermediate_psnr_db + spec.min_gain_db:
        problems.append(
            f"fused {outcome.psnr_db:.2f} dB is not {spec.min_gain_db} dB above "
            f"intermediate {outcome.intermediate_psnr_db:.2f} dB"
        )
    return problems, hashlib.sha256(outcome.output.read_bytes()).hexdigest()
