"""Spans around every call into a khcv module, recorded from outside the package.

While a block runs inside `Tracer.block`, each public function of the
seven layer modules, wherever a khcv module (or the package itself) binds
it, is replaced by a wrapper that records a span when the call crosses into
that layer from another one or from the benchmark. Calls inside one layer
stay part of the caller's span. Nothing under src/ is edited, and the
original functions are back in place as soon as the block ends.

Spans are kept in memory as (layer, function, start, end, parent, block)
and summarised per layer: self time is a span's duration minus the time
of its child spans. Exact work counts are taken at the same boundaries.
"""

from __future__ import annotations

import inspect
import logging
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import khcv
from khcv import capture, cli, flow, fusion, metrics, recon, tensors

LAYERS = {
    "tensors": tensors,
    "capture": capture,
    "recon": recon,
    "flow": flow,
    "fusion": fusion,
    "metrics": metrics,
    "cli": cli,
}
BLOCK = "block"  # the benchmark's own root span around one block


@dataclass(frozen=True)
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int | None
    block: int


class LogCounter(logging.Handler):
    """Takes every record of the `khcv` loggers and counts it by logger and level."""

    def __init__(self):
        super().__init__()
        self.counts = Counter()

    def emit(self, record):
        self.counts[(record.name, record.levelname)] += 1

    @contextmanager
    def attached(self):
        logger = logging.getLogger("khcv")
        propagate = logger.propagate
        logger.addHandler(self)
        logger.propagate = False
        try:
            yield self
        finally:
            logger.removeHandler(self)
            logger.propagate = propagate


def _level_sides(side: int, levels: int) -> list[int]:
    sides = [side]
    for _ in range(levels - 1):
        sides.append((sides[-1] + 1) // 2)  # the pyramid keeps every other row
    return sides


def flow_pixel_sweeps(height: int, width: int, params: flow.FlowParams) -> int:
    """Sum over pyramid levels of H*W*warps*iters for one estimate_flow call."""
    hs = _level_sides(height, params.pyramid_levels)
    ws = _level_sides(width, params.pyramid_levels)
    return sum(h * w for h, w in zip(hs, ws)) * params.warps_per_level * params.iters_per_level


def _bytes_written(args, result):
    return {"tensors.bytes_written": os.path.getsize(args["path"])}


def _bytes_read(args, result):
    return {"tensors.bytes_read": os.path.getsize(args["path"])}


def _pixel_sweeps(args, result):
    h, w = args["target"].samples.shape
    return {"flow.pixel_sweeps": flow_pixel_sweeps(h, w, args["params"] or flow.FlowParams())}


def _pixel_iters(args, result):
    params = args["params"] or recon.GapTvParams()
    return {"recon.pixel_iters": args["c"].samples.size * params.outer_iters * params.tv_inner_iters}


def _make_coverage_counter(coverage_map):
    def count(args, result):
        cov = coverage_map(result).samples
        return {"capture.zero_coverage_pixels": int((cov == 0).sum()), "capture.mask_pixels": cov.size}

    return count


def _refine_kept(args, result):
    return {"fusion.refine_calls": 1, "fusion.refine_kept": int(result is not args["f0"])}


class Tracer:
    """Records spans and counts for the blocks run inside `block()`."""

    def __init__(self, logs: LogCounter | None = None):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.logs = logs
        self._open: list[tuple[int, str]] = []  # (span index, layer) of open spans
        self._block: int | None = None
        self._patched: list[tuple[object, str, object]] = []
        self._counters = {
            ("tensors", "save_tensor"): _bytes_written,
            ("tensors", "export_pgm"): _bytes_written,
            ("tensors", "export_ppm"): _bytes_written,
            ("tensors", "load_tensor"): _bytes_read,
            ("tensors", "import_pgm"): _bytes_read,
            ("flow", "estimate_flow"): _pixel_sweeps,
            ("recon", "gap_tv_reconstruct"): _pixel_iters,
            ("capture", "generate_masks"): _make_coverage_counter(recon.coverage_map),
            ("fusion", "refine_flow"): _refine_kept,
        }

    def _install(self) -> None:
        namespaces = [khcv, *LAYERS.values()]
        for layer, module in LAYERS.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for ns in namespaces:
                    if getattr(ns, name, None) is fn:
                        self._patched.append((ns, name, fn))
                        setattr(ns, name, wrapper)

    def _uninstall(self) -> None:
        for ns, name, fn in reversed(self._patched):
            setattr(ns, name, fn)
        self._patched.clear()

    @contextmanager
    def block(self, index: int):
        """Record the calls made inside as the spans of block `index`."""
        self._install()
        self._block = index
        root = len(self.spans)
        self.spans.append(None)
        self._open.append((root, BLOCK))
        logged = Counter(self.logs.counts) if self.logs else Counter()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[root] = Span(BLOCK, BLOCK, start, end, None, index)
            self._block = None
            self._uninstall()
            if self.logs:
                new = self.logs.counts - logged
                self.counts["recon.log_warnings"] += new[("khcv.recon", "WARNING")]

    def _wrap(self, layer: str, name: str, fn):
        counter = self._counters.get((layer, name))
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if self._block is None:  # a reference kept past the block
                return fn(*args, **kwargs)
            if self._open[-1][1] == layer:  # a call inside the layer: no span of its own
                result = fn(*args, **kwargs)
                self._count(counter, signature, args, kwargs, result)
                return result
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1][0]
            self._open.append((index, layer))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[index] = Span(layer, name, start, end, parent, self._block)
            self._count(counter, signature, args, kwargs, result)
            return result

        return wrapper

    def _count(self, counter, signature, args, kwargs, result) -> None:
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts.update(counter(bound.arguments, result))

    def summary(self) -> dict[str, float]:
        """Per-block layer figures: calls, self time, shares and the exact counts."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        self_s = Counter()
        calls = Counter()
        for s, inner in zip(self.spans, child):
            self_s[s.layer] += (s.end - s.start) - inner
            calls[s.layer] += 1
        blocks = calls[BLOCK]
        wall = sum(s.end - s.start for s in self.spans if s.layer == BLOCK)
        c = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] / blocks
            out[f"{layer}.self_s"] = self_s[layer] / blocks
        out.update(
            {
                "tensors.bytes_written": c["tensors.bytes_written"] / blocks,
                "tensors.bytes_read": c["tensors.bytes_read"] / blocks,
                "capture.zero_coverage_frac": c["capture.zero_coverage_pixels"] / max(c["capture.mask_pixels"], 1),
                "recon.share": self_s["recon"] / wall,
                "recon.pixel_iters": c["recon.pixel_iters"] / blocks,
                "recon.log_warnings": c["recon.log_warnings"] / blocks,
                "flow.share": self_s["flow"] / wall,
                "flow.pixel_sweeps": c["flow.pixel_sweeps"] / blocks,
                "fusion.refine_calls": c["fusion.refine_calls"] / blocks,
                "fusion.refine_kept_ratio": c["fusion.refine_kept"] / max(c["fusion.refine_calls"], 1),
                "trace.block_s": wall / blocks,
                "trace.remainder_frac": self_s[BLOCK] / wall,
            }
        )
        return out

    def dump(self) -> list[list]:
        return [[s.layer, s.name, s.start, s.end, s.parent, s.block] for s in self.spans]
