"""Tests of the benchmark itself: pinned quality, repeatable counts, checks that
can fail and the output contract.

    python3 -m pytest perfbench/tests -q

The pinned gate128 block and the two contract runs make this take about a
minute on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checkout  # noqa: E402
import hostspeed  # noqa: E402

checkout.require_khcv()

import run  # noqa: E402
import workloads  # noqa: E402
from khcv import FlowParams, VideoCube, save_tensor  # noqa: E402
from tracer import LAYERS, LogCounter, Tracer, flow_pixel_sweeps  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMED = ("self_s", "share", "trace.")


def _traced(name: str, blocks: int, work: Path):
    logs = LogCounter()
    tracer = Tracer(logs)
    with logs.attached():
        (loop,) = run.measure(workloads, workloads.WORKLOADS[name], 0, work, blocks=blocks, tracers=(tracer,))
    return loop, tracer.summary()


def _exact_counts(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if not any(t in k for t in TIMED)}


def _self_times(summary: dict) -> dict:
    return {layer: summary[f"{layer}.self_s"] for layer in LAYERS}


def test_default_seed_gate128_block_reproduces_criterion_6(tmp_path):
    assert workloads.block_seeds(workloads.WORKLOADS["gate128"], 0, 0) == (9, 21, 8)
    loop, summary = _traced("gate128", 1, tmp_path)
    row = loop.rows[0]
    assert row["problems"] == []
    assert round(row["psnr_db"], 2) == 25.27
    assert round(row["intermediate_psnr_db"], 2) == 22.28
    selfs = _self_times(summary)
    assert max(selfs, key=selfs.get) == "flow"
    # the layers account for the traced block up to the benchmark's own remainder
    assert sum(selfs.values()) == pytest.approx(summary["trace.block_s"] * (1 - summary["trace.remainder_frac"]))
    assert summary["trace.remainder_frac"] < 0.01


@pytest.mark.parametrize("name,blocks", [("small48", 2), ("recon256", 1)])
def test_exact_counts_and_outputs_repeat(name, blocks, tmp_path):
    first_loop, first = _traced(name, blocks, tmp_path / "a")
    second_loop, second = _traced(name, blocks, tmp_path / "b")
    assert _exact_counts(first) == _exact_counts(second)
    assert [r["digest"] for r in first_loop.rows] == [r["digest"] for r in second_loop.rows]
    assert all(not r["problems"] for r in first_loop.rows + second_loop.rows)
    if name == "recon256":
        assert first["flow.calls"] == 0
        selfs = _self_times(first)
        assert max(selfs, key=selfs.get) == "recon"
    else:
        assert first["fusion.refine_calls"] == 4 * 2 * 2  # fuse_video, then the dump's second pass
        assert first["recon.log_warnings"] == 1  # the zero-coverage warning, once per block


def test_flow_pixel_sweeps_follow_the_pyramid():
    assert flow_pixel_sweeps(128, 128, FlowParams(alpha=0.2)) == (128 * 128 + 64 * 64 + 32 * 32) * 3 * 100
    assert np.zeros((33, 20))[::2, ::2][::2, ::2].shape == (9, 5)
    assert flow_pixel_sweeps(33, 20, FlowParams(iters_per_level=1, warps_per_level=1)) == 33 * 20 + 17 * 10 + 9 * 5


def test_host_speed_kernel_is_independent_of_khcv():
    code = "import sys, hostspeed; hostspeed.kernel(); print('khcv' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_host_speed_scales_by_the_samples_taken_during_the_work():
    assert hostspeed.scaled(3.0, hostspeed.NOMINAL_S) == pytest.approx(3.0)
    assert hostspeed.scaled(3.0, 2 * hostspeed.NOMINAL_S) == pytest.approx(1.5)
    with hostspeed.HostSpeed() as speed:
        start = time.perf_counter()
        time.sleep(5.5 * hostspeed.PERIOD_S)
        end = time.perf_counter()
    inside = [d for t, d in zip(speed.starts, speed.seconds) if start <= t <= end]
    assert len(inside) >= 3
    assert speed.kernel_s(start, end) == pytest.approx(np.mean(inside))
    assert speed.kernel_s(end + 60, end + 61) == speed.seconds[-1]  # no sample inside: the nearest one


def _fake_outcome(block, cube: np.ndarray, psnr_db: float | None = None, intermediate_psnr_db: float | None = None):
    path = block.out_dir / "cube.khcv"
    save_tensor(VideoCube(cube), path)
    psnr_db = workloads._mean_psnr(cube, block.truth) if psnr_db is None else psnr_db
    inter = psnr_db if intermediate_psnr_db is None else intermediate_psnr_db
    return workloads.Outcome(path, path, psnr_db, 0.5, inter)


def test_block_check_catches_bad_outputs(tmp_path):
    block = workloads.prepare(workloads.WORKLOADS["small48"], 0, 0, tmp_path)
    good = np.clip(block.truth + 0.01, 0.0, 1.0)
    assert workloads.check(block, _fake_outcome(block, good))[0] == []
    assert workloads.check(block, _fake_outcome(block, good * 1.5))[0]
    assert workloads.check(block, _fake_outcome(block, good[:-1], psnr_db=30.0))[0]
    assert workloads.check(block, _fake_outcome(block, good, psnr_db=99.0))[0]
    gate = workloads.prepare(workloads.WORKLOADS["gate128"], 0, 0, tmp_path)
    gate_good = np.clip(gate.truth + 0.01, 0.0, 1.0)
    outcome = _fake_outcome(gate, gate_good)
    problems = workloads.check(gate, workloads.Outcome(outcome.output, outcome.output, outcome.psnr_db, 0.5,
                                                       outcome.psnr_db - 0.5))
    assert any("dB above" in p for p in problems[0])


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *CONFIG["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in CONFIG["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "small48", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_follows_benchmark_json(trace, section):
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.WORKLOADS)
    proc = _run(ROOT, "--workload", "small48", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONFIG[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
