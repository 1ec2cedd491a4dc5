"""cantok benchmark: capture file in, CLI command run, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of tokenize-1m, extract-mixed, tang-fanout, or ``all`` to run
the three in turn. Each run builds the workload's capture from the seed
in a set-up process (three times, for the median ``setup_s``), then runs
the workload's ``cantok`` command in a fresh single-threaded process per
repetition until the repetitions have taken S seconds (at least two), and
checks the last repetition's output files against the oracle.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it runs untraced and traced repetitions in pairs and
reports the per-layer metrics. The last line of standard output is one
JSON object; the exit code is 1 when the oracle finds a wrong output and
2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import COMMANDS, WORKLOADS  # noqa: E402

SETUPS = 3
MIN_REPS = 2
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(workdir: Path, tag: str, args: list[str]) -> dict:
    result = workdir / f"{tag}.json"
    errors = workdir / f"{tag}.err"
    cmd = [sys.executable, str(HERE / "child.py"), args[0], str(result), *args[1:]]
    with open(errors, "w") as err:
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.DEVNULL, stderr=err, env=_child_env(),
                cwd=ROOT, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag}: no result within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result.exists():
        tail = errors.read_text()[-2000:]
        raise BenchError(f"{tag}: exit code {proc.returncode}\n{tail}")
    return json.loads(result.read_text())


def _setup(workdir: Path, tag: str, args: list[str]) -> dict:
    """Run one set-up and flush its capture (args[4]) to disk before timing more."""
    result = _child(workdir, tag, args)
    with open(args[4], "rb") as fh:
        os.fsync(fh.fileno())
    return result


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment() -> dict:
    """Where a result was measured."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, workdir: Path | None = None) -> dict:
    """Set up, run and check one workload; return its raw measurements.

    With `workdir` given, the capture, truth and outputs are left there
    (the self-test corrupts them); otherwise a private directory under
    the checkout is used and removed.
    """
    from oracle import Truth, check

    own_dir = workdir is None
    if own_dir:
        workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ext = "csv" if "csv" in COMMANDS[workload] else "log"
        capture = workdir / f"capture.{ext}"
        truth_path = workdir / "truth.npz"
        setup_args = ["setup", workload, str(seed), str(scale)]
        setups = [_setup(workdir, "setup0", setup_args + [str(capture), str(truth_path)])]
        spare = workdir / f"spare.{ext}"
        truth = Truth(truth_path)
        outdir = workdir / "out"
        argv = COMMANDS[workload] + ["-i", str(capture), "--out", str(outdir)]
        runs, traced = [], []
        # Repetitions alternate with the remaining set-ups, so both medians
        # draw on the whole run's time span. Those set-ups write a spare file,
        # so the capture the command reads is written once.
        measured = 0.0
        while (len(runs) < (1 if trace else MIN_REPS) or measured < seconds
               or (not trace and len(setups) < SETUPS)):
            for is_traced in ((False, True) if trace else (False,)):
                shutil.rmtree(outdir, ignore_errors=True)
                tag = f"run{len(runs) + len(traced)}"
                start = time.perf_counter()
                r = _child(workdir, tag, ["run", "1" if is_traced else "0", "--", *argv])
                measured += time.perf_counter() - start
                (traced if is_traced else runs).append(r)
            if not trace and len(setups) < SETUPS:
                setups.append(_setup(workdir, f"setup{len(setups)}", setup_args + [str(spare)]))
                spare.unlink()
        failed, problems = check(COMMANDS[workload][0], outdir, truth, (traced or runs)[-1])
        bad_rc = [r["rc"] for r in runs + traced if r["rc"] != 0]
        if bad_rc:
            problems.insert(0, f"non-zero exit codes {bad_rc}")
            failed = len(truth.groups)
        return {
            "workload": workload, "seed": seed, "frames": truth.frames,
            "junk_lines": truth.junk_lines,
            "groups": len(truth.groups), "setups": setups, "runs": runs,
            "traced": traced, "failed": failed, "problems": problems,
        }
    finally:
        if own_dir:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass


def end_to_end(raw: dict) -> dict:
    med = statistics.median
    runs = raw["runs"]
    return {
        "wall_s": med(r["wall_s"] for r in runs),
        "frames_per_s": med(raw["frames"] / r["wall_s"] for r in runs),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in runs),
        "setup_s": med(s["setup_s"] for s in raw["setups"]),
    }


def per_layer(raw: dict) -> dict:
    med = statistics.median
    layers = [r["layers"] for r in raw["traced"]]
    out = {k: med(layer[k] for layer in layers) for k in layers[0]}
    # Data lines written (frames plus junk) that did not become frames.
    out["frames.lines_skipped"] = raw["frames"] + raw["junk_lines"] - out["frames.frames_loaded"]
    for k, v in raw["setups"][0]["timings"].items():
        out[k] = v
    out["tracing_overhead_s"] = (
        med(r["wall_s"] for r in raw["traced"]) - med(r["wall_s"] for r in raw["runs"])
    )
    return out


def _select(values: dict, declared: list[dict]) -> dict:
    """Every declared metric with its unit; a layer that did not run reads 0."""
    return {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in declared
    }


def report(raw: dict, trace: bool, spec: dict) -> dict:
    if trace:
        metrics = _select(per_layer(raw), spec["per_layer"])
    else:
        metrics = _select(end_to_end(raw), spec["end_to_end"])
    attempted = raw["groups"]
    print(
        f"workload {raw['workload']} seed {raw['seed']}: {raw['frames']} frames, "
        f"{attempted} groups, {len(raw['setups'])} set-ups, "
        f"{len(raw['runs'])} runs" + (f" + {len(raw['traced'])} traced" if trace else "")
    )
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':<36} {raw['failed'] / attempted:>16.6g} "
          f"({raw['failed']}/{attempted} groups)")
    for p in raw["problems"]:
        print(f"  oracle: {p}")
    return {
        "correct": raw["failed"] == 0 and not raw["problems"],
        "attempted": attempted,
        "failed": raw["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "cantok" / "__init__.py").is_file():
            raise BenchError(f"no cantok sources under {ROOT / 'src'}")
        spec = _spec()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            raw = run_workload(name, args.seed, seconds, bool(args.trace))
            results[name] = report(raw, bool(args.trace), spec)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment()))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
