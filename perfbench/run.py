"""khcv benchmark: run one workload for a fixed time and check every block.

    python3 perfbench/run.py --workload gate128 --seed 0 --seconds 30 --trace 0

Each workload runs closed-loop in this process: a block starts only after
the previous one has finished and been checked, and each block draws fresh
texture, mask and noise seeds from --seed. A new block starts while the
previous block's time still fits into --seconds; at least one always runs.

While blocks or set-ups are timed, hostspeed.py samples a fixed reference
kernel in a background thread on the same CPU, and each one's wall time is
reported scaled to a fixed host speed (wall_s * NOMINAL_S / mean kernel
time): on a shared host, slow spells lasting up to minutes move wall time
by up to 1.6x, and the kernel cancels them. Wall-clock figures of the
blocks are printed as well.

--trace 0 prints the end-to-end metrics. Set-up (interpreter start, import,
scene building and one small warm-up block) runs in SETUP_REPEATS fresh
child processes and is reported as their median scaled time.

--trace 1 runs each block twice in a row, untraced and with a span around
every call into each khcv module (alternating which goes first), and prints the per-layer metrics
(per block unless named a share, a fraction or a ratio). The spans are
written to perfbench/out/ at the end.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Without khcv sources under src/
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checkout import ROOT, MissingProgram, require_khcv
from hostspeed import NOMINAL_S, HostSpeed

OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3


@dataclass
class Loop:
    """Per-block results of one closed-loop pass."""

    rows: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> list[dict]:
        return [r for r in self.rows if not r["problems"]]

    @property
    def failed(self) -> int:
        return len(self.rows) - len(self.ok)

    def seconds(self, key: str = "scaled_s") -> float:
        return sum(r[key] for r in self.rows)

    def frames_per_s(self, B: int, key: str = "scaled_s") -> float:
        return B * len(self.ok) / self.seconds(key)

    def block_s_p50(self, key: str = "scaled_s") -> float:
        return statistics.median(r[key] for r in self.rows)

    def mean(self, key: str) -> float:
        values = [r[key] for r in self.ok]
        return statistics.fmean(values) if values else 0.0


def _run_checked(workloads, block, tracer=None) -> dict:
    """Time one block, then check its outputs; a block that raises counts as failed."""
    outcome = None
    start = perf_counter()
    try:
        with tracer.block(block.index) if tracer else nullcontext():
            outcome = workloads.run_block(block)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        problems, digest = [f"raised {type(exc).__name__}: {exc}"], None
    seconds = perf_counter() - start
    if outcome is not None:
        try:
            problems, digest = workloads.check(block, outcome)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            problems, digest = [f"check raised {type(exc).__name__}: {exc}"], None
    row = {"block": block.index, "start": start, "seconds": seconds, "problems": problems, "digest": digest}
    if outcome is not None:
        row.update(psnr_db=outcome.psnr_db, ssim=outcome.ssim, intermediate_psnr_db=outcome.intermediate_psnr_db)
    return row


def measure(workloads, spec, seed: int, work: Path, seconds: float | None = None,
            blocks: int | None = None, tracers=(None,)) -> list[Loop]:
    """Run blocks 0, 1, ... until `blocks` are done or the next would overrun `seconds`.

    Each block runs once per entry of `tracers` (None runs it untraced), one
    after the other in an order that alternates from block to block, and
    gives one Loop per entry. Each row's scaled_s is its wall time scaled
    by the host speed sampled while it ran.
    """
    loops = [Loop() for _ in tracers]
    with HostSpeed() as speed:
        start = perf_counter()
        for index in range(workloads.MAX_BLOCKS):
            if blocks is not None:
                if index >= blocks:
                    break
            elif index and perf_counter() - start + sum(loop.rows[-1]["seconds"] for loop in loops) > seconds:
                break
            passes = list(zip(loops, tracers))
            for loop, tracer in passes if index % 2 == 0 else passes[::-1]:
                block = workloads.prepare(spec, seed, index, work)
                row = _run_checked(workloads, block, tracer)
                end = row["start"] + row["seconds"]
                row["kernel_s"] = speed.kernel_s(row["start"], end)
                row["scaled_s"] = speed.scaled(row["start"], end)
                shutil.rmtree(block.out_dir)
                loop.rows.append(row)
                status = "ok" if not row["problems"] else "FAILED " + "; ".join(row["problems"])
                quality = (f" output {row['psnr_db']:.4f} dB, intermediate {row['intermediate_psnr_db']:.4f} dB"
                           if "psnr_db" in row else "")
                print(f"{'traced ' if tracer else ''}block {index}: {row['scaled_s']:.4f} s scaled, "
                      f"{row['seconds']:.4f} s wall, kernel {1e3 * row['kernel_s']:.4f} ms;{quality}, {status}", flush=True)
    return loops


def warm_up(workloads, spec, seed: int, work: Path) -> dict:
    """One small block through the workload's path, so lazy set-up is paid before timing."""
    block = workloads.prepare(workloads.warmup_spec(spec), seed, 0, work / "warmup")
    row = _run_checked(workloads, block)
    shutil.rmtree(block.out_dir)
    return row


def setup_probes(args) -> list[tuple[float, str | None]]:
    """Scaled time and warm-up digest of SETUP_REPEATS cold set-ups in child processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    probes = []
    with HostSpeed() as speed:  # the child inherits the CPU the kernel is sampled on
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
            seconds = speed.scaled(start, perf_counter())
            lines = proc.stdout.split()
            probes.append((seconds, lines[-1] if proc.returncode == 0 and lines else None))
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
    return probes


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds positive")
    return args


def _print_metrics(values: dict, declared: list[dict]) -> dict:
    """Print the metrics BENCHMARK.json declares, by name and unit, and return them for the JSON line."""
    out = {}
    for m in declared:
        print(f"{m['name']} {values[m['name']]!r} {m['unit']}")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    started = perf_counter()
    try:
        require_khcv()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads
    from machine import machine_info
    from tracer import LogCounter, Tracer

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    logs = LogCounter()
    with logs.attached(), tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = Path(tmp)
        warm = warm_up(workloads, spec, args.seed, work)
        if args.setup_probe:
            print(warm["digest"])
            return 0 if not warm["problems"] else 1
        print(f"khcv benchmark: workload {spec.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        info = machine_info()
        print("machine: " + json.dumps(info, sort_keys=True))
        print(f"set-up in this process: {perf_counter() - started:.4f} s, warm-up "
              f"{'ok' if not warm['problems'] else 'FAILED ' + '; '.join(warm['problems'])}")
        correct = not warm["problems"]

        if args.trace == 0:
            probes = setup_probes(args)
            same = all(d == warm["digest"] for _, d in probes)
            print(f"set-up probes: {', '.join(f'{s:.4f}' for s, _ in probes)} s scaled; warm-up output "
                  f"{'byte-identical' if same else 'DIFFERS'} across {len(probes) + 1} processes")
            correct = correct and same
            (loop,) = measure(workloads, spec, args.seed, work, seconds=args.seconds)
            attempted, failed = len(loop.rows), loop.failed
            values = {
                "frames_per_s": loop.frames_per_s(spec.B),
                "block_s_p50": loop.block_s_p50(),
                "output_psnr_db": loop.mean("psnr_db"),
                "output_ssim": loop.mean("ssim"),
                "intermediate_psnr_db": loop.mean("intermediate_psnr_db"),
                "setup_s": statistics.median(s for s, _ in probes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            metrics = _print_metrics(values, config["end_to_end"])
            kernel_s = statistics.median(r["kernel_s"] for r in loop.rows)
            print(f"wall clock: frames_per_s {loop.frames_per_s(spec.B, 'seconds')!r} 1/s, block_s_p50 "
                  f"{loop.block_s_p50('seconds')!r} s; host kernel median {kernel_s!r} s, nominal {NOMINAL_S} s")
        else:
            tracer = Tracer(logs)
            plain, traced = measure(workloads, spec, args.seed, work, seconds=args.seconds, tracers=(None, tracer))
            same = [a["digest"] for a in plain.rows] == [b["digest"] for b in traced.rows]
            print(f"traced outputs {'byte-identical to' if same else 'DIFFER from'} untraced outputs")
            correct = correct and same
            attempted = len(plain.rows) + len(traced.rows)
            failed = plain.failed + traced.failed
            values = tracer.summary()
            # 1 - traced frames_per_s / untraced frames_per_s, over the same blocks
            values["trace.overhead_frac"] = 1.0 - plain.seconds() / traced.seconds()
            metrics = _print_metrics(values, config["per_layer"])
            spans_path = OUT / f"trace-{spec.name}-seed{args.seed}.json"
            spans_path.write_text(json.dumps({"machine": info, "summary": values, "spans": tracer.dump()}))
            print(f"spans: {spans_path.relative_to(ROOT)}")

    print(f"failed_frac {failed / attempted!r} 1 ({failed} of {attempted} blocks)")
    for (name, level), n in sorted(logs.counts.items()):
        print(f"log {name} {level}: {n} records")
    correct = correct and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
