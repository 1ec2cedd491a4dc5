"""Self-test of the benchmark at toy size: ``python3 -m pytest perfbench``.

Every workload must pass the oracle, the traced run must report every
per-layer metric, and a corrupted output file must be caught.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from oracle import Truth, check  # noqa: E402
from workloads import COMMANDS, WORKLOADS  # noqa: E402

TOY = 0.01
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _toy(workload, tmp_path, trace=False):
    workdir = tmp_path / workload
    raw = run.run_workload(workload, seed=7, seconds=0, trace=trace, scale=TOY, workdir=workdir)
    return raw, workdir


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_workload_passes_oracle(workload, tmp_path):
    raw, _ = _toy(workload, tmp_path)
    assert raw["problems"] == [] and raw["failed"] == 0
    result = run.report(raw, False, SPEC)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload, per_group", [
    ("tokenize-1m", 1.0), ("extract-mixed", None), ("tang-fanout", 1.0)])
def test_traced_run_reports_every_layer(workload, per_group, tmp_path):
    raw, _ = _toy(workload, tmp_path, trace=True)
    assert raw["failed"] == 0
    layers = run.per_layer(raw)
    assert {m["name"] for m in SPEC["per_layer"]} - set(layers) <= {
        "frames.write_candump_s", "perfbench.write_csv_s"}
    assert layers["frames.frames_loaded"] == raw["frames"]
    assert layers["frames.groups"] == raw["groups"]
    calls = layers["bitlab.bit_matrix_calls_per_group"]
    if per_group is None:
        assert calls > 1.0
        assert layers["signals.series_rows"] > 0
        assert layers["frames.lines_skipped"] == raw["junk_lines"] > 0
    else:
        assert calls == per_group


def _bump_last_field(path: Path, row: int) -> None:
    lines = path.read_text().split("\n")
    head, _, last = lines[row].rpartition(",")
    lines[row] = f"{head},{int(last) + 1}"
    path.write_text("\n".join(lines))


def _corrupt(workload: str, out: Path) -> None:
    if workload == "tokenize-1m":
        path = sorted(out.glob("*_tokens.json"))[0]
        data = json.loads(path.read_text())
        signal = next(c for c in data["clusters"] if c["kind"] == "signal")
        signal["lsb_transitions"] += 1
        path.write_text(json.dumps(data))
    elif workload == "tang-fanout":
        path = sorted(out.glob("*_tang.csv"))[0]
        lines = path.read_text().split("\n")
        pos, n, norm = lines[1].split(",")
        lines[1] = f"{pos},{int(n) + 1},{norm}"
        path.write_text("\n".join(lines))
    else:
        _bump_last_field(sorted(out.glob("*_sig*.csv"))[0], 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_catches_a_corrupted_file(workload, tmp_path):
    raw, workdir = _toy(workload, tmp_path)
    truth = Truth(workdir / "truth.npz")
    command = COMMANDS[workload][0]
    assert check(command, workdir / "out", truth, raw["runs"][-1]) == (0, [])
    _corrupt(workload, workdir / "out")
    failed, problems = check(command, workdir / "out", truth, raw["runs"][-1])
    assert failed == 1 and len(problems) == 1
    raw.update(failed=failed, problems=problems)
    assert not run.report(raw, False, SPEC)["correct"]


def test_wrong_frame_count_fails_every_group(tmp_path):
    raw, workdir = _toy("extract-mixed", tmp_path)
    child = dict(raw["runs"][-1], frames_loaded=raw["frames"] + 1)
    failed, _ = check("extract", workdir / "out", Truth(workdir / "truth.npz"), child)
    assert failed == raw["groups"]


def test_same_seed_same_capture(tmp_path):
    from workloads import generate

    sys.path.insert(0, str(HERE.parent / "src"))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    generate("extract-mixed", 5, a, TOY)
    generate("extract-mixed", 5, b, TOY)
    generate("extract-mixed", 6, tmp_path / "c.csv", TOY)
    assert a.read_bytes() == b.read_bytes() != (tmp_path / "c.csv").read_bytes()


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tang-fanout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
