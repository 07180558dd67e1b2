"""The package API the benchmark calls.

Each perfbench workload's warm-up block runs once through its own path under
the benchmark's tracer, which wraps every name in each module's __all__ and
binds some of their parameters by name, and must pass the workload's output
checks.  workloads.py and tracer.py are imported as they are; nothing is
written under perfbench/, bytecode included, and each block runs in tmp_path.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The workloads and tracer modules, loaded from their files."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    modules = []
    for name in ("workloads", "tracer"):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
        spec.loader.exec_module(module)
        modules.append(module)
    return modules


@pytest.mark.parametrize("name", ["gate128", "recon256", "small48"])
def test_each_workloads_warmup_block_passes_its_checks_under_the_tracer(perfbench, name, tmp_path):
    workloads, tracer = perfbench
    block = workloads.prepare(workloads.warmup_spec(workloads.WORKLOADS[name]), 0, 0, tmp_path)
    traced = tracer.Tracer()
    with traced.block(block.index):
        outcome = workloads.run_block(block)
    problems, _ = workloads.check(block, outcome)
    assert problems == []
    summary = traced.summary()
    # the counters that bind arguments by name saw their calls
    assert summary["tensors.bytes_written"] > 0
    assert summary["recon.pixel_iters"] > 0
    assert summary["capture.calls"] > 0 and summary["metrics.calls"] > 0
    if workloads.WORKLOADS[name].path == "pipeline":
        assert summary["fusion.calls"] > 0 and summary["flow.calls"] > 0
