"""Locate the khcv sources of the checkout the benchmark belongs to.

The benchmark measures the program next to it, never an installed copy, so
the package is imported from `<root>/src` and its location is verified.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class MissingProgram(RuntimeError):
    """The checkout holds no khcv sources to measure."""


def require_khcv(root: Path = ROOT):
    """Import khcv from root/src and return the package."""
    src = root / "src"
    if not (src / "khcv" / "__init__.py").is_file():
        raise MissingProgram(f"no khcv sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    khcv = importlib.import_module("khcv")
    location = Path(khcv.__file__).resolve()
    if src.resolve() not in location.parents:
        raise MissingProgram(f"khcv was imported from {location}, not from {src}")
    return khcv


def git_commit(root: Path = ROOT) -> str:
    """Commit of the checkout read from .git without running git; 'unknown' if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
