"""Run the benchmark once per seed and report each metric's median and quartile spread.

    python3 perfbench/spread.py --workloads gate128 small48 --seeds 1 10 [--trace 0] [--json FILE]

Runs `BENCHMARK.json`'s command with its run_seconds, one process at a time,
for seeds first..last. The spread of a metric is the distance between the
first and third quartiles of its values (statistics.quantiles, n=4) as a
share of their median; with --trace 0 it is shown against the metric's
bound. A run that exits non-zero or reports correct=false is listed and
stops the script with status 1 after the table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(config: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable if c == "python3" else c for c in config["command"]]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}", "wall_s": wall_s}
    return {**json.loads(lines[-1]), "wall_s": wall_s}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs=2, type=int, metavar=("FIRST", "LAST"), default=(1, 10))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", type=Path, help="also write the runs and the summary here")
    args = p.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"] + config["per_layer"]}

    report = {}
    bad = []
    for workload in args.workloads:
        runs = []
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            result = run_once(config, workload, seed, args.trace)
            runs.append({"seed": seed, **result})
            if "error" in result or not result["correct"]:
                bad.append((workload, seed, result.get("error", "correct=false")))
            print(f"{workload} seed {seed}: " + json.dumps(result.get("metrics", result)), file=sys.stderr, flush=True)
        good = [r for r in runs if "metrics" in r]
        summary = {}
        print(f"\n{workload}: {len(good)} runs")
        for name in good[0]["metrics"] if good else []:
            s = summarise([r["metrics"][name]["value"] for r in good])
            summary[name] = s
            bound = bounds.get(name)
            verdict = "" if bound is None else f"  bound {bound}  {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {name:28s} median {s['median']:<14.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f}{verdict}")
        walls = [r["wall_s"] for r in runs]
        print(f"  run wall time: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        report[workload] = {"runs": runs, "summary": summary}
    if args.json:
        from machine import machine_info

        report = {"machine": machine_info(), "run_seconds": config["run_seconds"], "trace": args.trace, **report}
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    for workload, seed, why in bad:
        print(f"FAILED {workload} seed {seed}: {why}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
