"""Every name the package and its modules export must resolve.

A name left in an `__all__` or in the package imports after its definition
is gone breaks `from khcv.<module> import *` and any tool that walks the
exported names with getattr.  The entry points the benchmark under
`perfbench/` calls must also keep the parameter names it relies on, and the
package reaches numpy through its public names alone.
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


def _private_numpy_uses(source: str) -> list[str]:
    """Imports of numpy's private modules, `numpy._core` and the like, and
    attributes with a leading underscore read from a name numpy is bound to;
    dunders such as `np.__version__` are public."""
    tree = ast.parse(source)
    aliases = {"numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
                elif alias.name.startswith("numpy._"):
                    found.append(f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "numpy":
            if node.module.startswith("numpy._"):
                found.append(f"from {node.module} import ...")
            found += [f"from {node.module} import {a.name}" for a in node.names if a.name.startswith("_")]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
            and not node.attr.endswith("__")
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize(
    "source, found",
    [
        ("from numpy._core import multiarray", ["from numpy._core import ..."]),
        ("from numpy._core.multiarray import c_einsum", ["from numpy._core.multiarray import ..."]),
        ("import numpy._core.einsumfunc as ef", ["import numpy._core.einsumfunc"]),
        ("from numpy import _core", ["from numpy import _core"]),
        ("import numpy as np\nnp._core.multiarray.c_einsum", ["np._core"]),
        ("import numpy as np\nnp.einsum; np.__version__; np.linalg.norm", []),
    ],
)
def test_private_numpy_scan_finds_each_form(source, found):
    assert _private_numpy_uses(source) == found


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_khcv_uses_no_private_numpy_name(name):
    # a private numpy name, such as the C entry point behind np.einsum, can
    # move or vanish in any numpy release
    source = (Path(khcv.__file__).parent / f"{name}.py").read_text()
    assert _private_numpy_uses(source) == []
