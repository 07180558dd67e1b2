"""Read-only description of the machine and software a run measured."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import scipy

from checkout import ROOT, git_commit

_THREAD_VARS = ("THREAD", "OMP_", "MKL_", "BLAS", "NUMEXPR")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    """Cache sizes of cpu0 by level and type, e.g. {'L2': '2048K'}."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def machine_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cpu0_caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if any(t in k for t in _THREAD_VARS)},
        "commit": git_commit(ROOT),
    }
