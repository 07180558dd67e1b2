"""Every name the package and its modules export must resolve.

A name left in an `__all__` or in the package imports after its definition
is gone breaks `from khcv.<module> import *` and any tool that walks the
exported names with getattr.  The entry points the benchmark under
`perfbench/` calls must also keep the parameter names it relies on.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import khcv

MODULES = sorted(info.name for info in pkgutil.iter_modules(khcv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"khcv.{name}")
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(khcv.__file__).read_text())
    imports = [
        (node.module, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(f"khcv.{module_name}")
        assert getattr(khcv, name) is getattr(module, name), name


def _parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_benchmark_entry_points_keep_their_parameters():
    # perfbench/tracer.py binds the parameters of gap_tv_reconstruct and the
    # tensor file functions by name to count work, and perfbench/workloads.py
    # calls these functions and properties; a rename here breaks the
    # benchmark, whose own tests are not part of this suite
    from khcv import capture, cli, recon, tensors

    assert _parameters(recon.gap_tv_reconstruct)[:3] == ["y", "c", "params"]
    for fn in (tensors.save_tensor, tensors.load_tensor, tensors.import_pgm, tensors.export_pgm, tensors.export_ppm):
        assert "path" in _parameters(fn), fn.__name__
    assert _parameters(capture.build_schedule) == ["t_x", "B", "t_g"]
    assert _parameters(capture.NoiseModel.gaussian) == ["sigma", "seed"]
    assert _parameters(capture.write_measurement)[-2:] == ["seed", "extra"]
    for name in ("mean_psnr", "mean_ssim", "intermediate_mean_psnr"):
        assert isinstance(getattr(cli.PipelineResult, name), property), name
    # tracer.py binds coverage_map when a Tracer is built, and workloads.py
    # passes these arguments by position
    assert _parameters(recon.coverage_map)[:1] == ["c"]
    assert _parameters(capture.generate_masks)[:5] == ["seed", "height", "width", "frames", "density"]
    assert _parameters(capture.simulate_capture)[:5] == ["scene", "masks", "schedule", "gap_frames", "noise"]
