"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 1-10] [--sets 2] [--trace 0|1] [--out FILE]

Each set runs every workload of BENCHMARK.json once per seed; the sets
run one after another. For every set, workload and metric it prints the
median of the per-run values and the spread ``(q3 - q1) / median``, with
the quartiles from ``statistics.quantiles(values, n=4)``, next to a third
of the metric's bound. For each later set it also prints how much worse
its median is than the first set's, as a share of the first. With
``--out`` the summary, every run's values and the environment are saved
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else float("nan"))
    return out


def run_set(spec: dict, seeds: list[int], trace: int, bounds: dict) -> tuple[dict, dict]:
    summary, env = {}, None
    for workload in (w["name"] for w in spec["workloads"]):
        per_metric: dict[str, list[float]] = {}
        started = time.perf_counter()
        for seed in seeds:
            result, env = run_once(workload, seed, trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: oracle failed: {result}")
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        elapsed = time.perf_counter() - started
        summary[workload] = {"seconds_per_run": elapsed / len(seeds)}
        print(f"{workload}: {elapsed / len(seeds):.1f} s per run")
        for name, values in per_metric.items():
            s = summarize(values)
            summary[workload][name] = s
            bound = bounds.get(name)
            note = f"  (bound/3 {bound / 3:.3f})" if bound and "spread" in s else ""
            spread = f"spread {s['spread']:.3f}" if "spread" in s else ""
            print(f"  {name:<36} median {s['median']:<14.6g} {spread}{note}")
    return summary, env


def worse_by(first: dict, later: dict, better: dict) -> dict:
    """Per workload and metric: how much worse `later`'s median is than `first`'s."""
    out = {}
    for workload, metrics in later.items():
        for name, s in metrics.items():
            if name in better:
                a, b = first[workload][name]["median"], s["median"]
                out.setdefault(workload, {})[name] = (
                    (b - a) / a if better[name] == "lower" else (a - b) / a)
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sets, env = [], None
    for i in range(args.sets):
        print(f"set {i + 1}")
        summary, env = run_set(spec, _seeds(args.seeds), args.trace, bounds)
        sets.append(summary)
    drift = [worse_by(sets[0], later, better) for later in sets[1:]]
    for i, d in enumerate(drift, start=2):
        for workload, metrics in d.items():
            for name, w in metrics.items():
                print(f"set {i} vs set 1: {workload:<14} {name:<14} worse by {w:+.3f}"
                      f"  (bound {bounds[name]})")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": env, "seeds": args.seeds, "trace": args.trace, "sets": sets,
             "worse_than_set_1": drift}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
