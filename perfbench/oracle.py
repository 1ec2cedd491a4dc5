"""Checks cantok's output files against the generated payloads.

The expected values come from the truth file set-up saved (each group's
payloads and timestamps as generated) and from numpy computations here,
never from cantok's own analysis code:

* transition counts are ``count_nonzero(diff(unpackbits(payloads)))``;
* in the default exclude mode, padding is exactly the bits that never
  flip, so the signal clusters must partition the other bits;
* a step-1 counter is recovered as exactly its bits that flip;
* a series is the cluster's bits read big-endian from the payloads.

A group fails if any of its files is missing or disagrees. A wrong frame
count (the length of the trace ``cantok.cli.load_trace`` returned), an
unexpected output file or a non-zero exit code fails every group. The
skipped-line count needs no check of its own: the capture holds exactly
the generated frames plus the junk lines, so with the frame count exact
and every group's output right, every junk line was skipped.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np


class Truth:
    def __init__(self, path):
        with np.load(path) as z:
            data = {k: z[k] for k in z.files}
        self.junk_lines = int(data.pop("junk_lines"))
        self.groups = {}
        for k in data:
            if k.startswith("p_"):
                key = k[2:]
                arb_hex, dlc = key.split("_")
                self.groups[(int(arb_hex, 16), int(dlc))] = (
                    data[f"p_{key}"],
                    data[f"t_{key}"],
                    [tuple(int(x) for x in row) for row in data[f"c_{key}"]],
                )
        self.frames = sum(len(p) for p, _, _ in self.groups.values())

    def stems(self) -> dict:
        per_id: dict[int, int] = {}
        for arb_id, _ in self.groups:
            per_id[arb_id] = per_id.get(arb_id, 0) + 1
        return {
            key: f"{key[0]:04X}" + (f"_dlc{key[1]}" if per_id[key[0]] > 1 else "")
            for key in self.groups
        }


def flip_counts(bits: np.ndarray) -> np.ndarray:
    return np.count_nonzero(np.diff(bits, axis=0), axis=0)


def bits_value(bits: np.ndarray, lo: int, hi: int) -> np.ndarray:
    values = np.zeros(bits.shape[0], dtype=np.uint64)
    for p in range(lo, hi + 1):
        values |= bits[:, p].astype(np.uint64) << np.uint64(hi - p)
    return values


def counter_cluster(counts, lo: int, hi: int) -> tuple[int, int]:
    """The part of a step-1 counter that flips: a run ending at its LSB."""
    flipping = [p for p in range(lo, hi + 1) if counts[p]]
    return (flipping[0], hi)


def _check_partition(ranges, counts) -> str | None:
    covered = np.zeros(len(counts), dtype=np.int64)
    for lo, hi in ranges:
        if not 0 <= lo <= hi < len(counts):
            return f"cluster [{lo}, {hi}] outside the payload"
        covered[lo : hi + 1] += 1
    if not np.array_equal(covered, (np.asarray(counts) > 0).astype(np.int64)):
        return "signal clusters do not partition the flipping bits"
    return None


def _read_rows(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text().split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError(f"{path.name}: bad header or missing final newline")
    return [line.split(",") for line in lines[1:-1]]


def _tokens(path: Path, arb_id, bits, counts, counters) -> str | None:
    data = json.loads(path.read_text())
    if data["id"] != f"0x{arb_id:04X}" or data["bit_width"] != bits.shape[1]:
        return "wrong id or bit width"
    pos = 0
    signals = []
    for c in data["clusters"]:
        if c["lo"] != pos:
            return "clusters not contiguous"
        pos = c["hi"] + 1
        if c["kind"] == "signal":
            signals.append((c["lo"], c["hi"]))
            if (c["lsb"], c["msb"]) != (c["hi"], c["lo"]):
                return f"signal [{c['lo']}, {c['hi']}] lsb/msb not big-endian"
            if c["lsb_transitions"] != int(counts[c["hi"]]):
                return f"signal [{c['lo']}, {c['hi']}] lsb_transitions wrong"
    if pos != bits.shape[1]:
        return "clusters do not cover the payload"
    problem = _check_partition(signals, counts)
    if problem:
        return problem
    for lo, hi in counters:
        if counter_cluster(counts, lo, hi) not in signals:
            return f"counter [{lo}, {hi}] not recovered"
    return None


def _tang(path: Path, bits, counts) -> str | None:
    rows = _read_rows(path, "bit_position,transitions,normalized")
    if len(rows) != bits.shape[1]:
        return "wrong row count"
    pairs = bits.shape[0] - 1
    for i, (pos, n, norm) in enumerate(rows):
        if int(pos) != i or int(n) != int(counts[i]):
            return f"bit {i}: transitions {n}, expected {int(counts[i])}"
        if abs(float(norm) - counts[i] / pairs) > 1e-6:
            return f"bit {i}: normalized {norm}"
    return None


def _series(path: Path, bits, stamps, lo, hi) -> tuple[str | None, dict]:
    rows = _read_rows(path, "index,timestamp,value")
    if len(rows) != len(stamps):
        return "wrong row count", {}
    index, ts, vals = zip(*rows) if rows else ((), (), ())
    if [int(i) for i in index] != list(range(len(rows))):
        return "wrong index column", {}
    if np.max(np.abs(np.array(ts, dtype=np.float64) - stamps), initial=0) > 1e-6:
        return "wrong timestamps", {}
    got = np.array([int(v) for v in vals], dtype=np.uint64)
    want = bits_value(bits, lo, hi)
    if not np.array_equal(got, want):
        return "wrong values", {}
    a, b = want[:-1], want[1:]
    diffs = np.where(b >= a, b - a, a - b)
    summary = {
        "lo": lo,
        "hi": hi,
        "width": hi - lo + 1,
        "min": int(want.min()),
        "max": int(want.max()),
        "unique_values": len(np.unique(want)),
        "value_transitions": int(np.count_nonzero(diffs)),
        "mean_abs_first_difference": (
            float(diffs.astype(np.float64).sum()) / len(diffs) if len(diffs) else 0.0
        ),
    }
    return None, summary


def _extract(outdir: Path, stem, arb_id, bits, stamps, counts, counters) -> str | None:
    pattern = re.compile(rf"{re.escape(stem)}_sig(\d+)-(\d+)\.csv")
    ranges = sorted(
        (int(m.group(1)), int(m.group(2)))
        for m in (pattern.fullmatch(p.name) for p in outdir.glob(f"{stem}_sig*.csv"))
        if m
    )
    problem = _check_partition(ranges, counts)
    if problem:
        return problem
    for lo, hi in counters:
        if counter_cluster(counts, lo, hi) not in ranges:
            return f"counter [{lo}, {hi}] not recovered"
    expected = []
    for lo, hi in ranges:
        problem, summary = _series(outdir / f"{stem}_sig{lo}-{hi}.csv", bits, stamps, lo, hi)
        if problem:
            return f"series [{lo}, {hi}]: {problem}"
        expected.append(summary)
    got = json.loads((outdir / f"{stem}_summary.json").read_text())
    if len(got) != len(expected):
        return "summary has the wrong number of entries"
    for g, e in zip(got, expected):
        if g["id"] != f"0x{arb_id:04X}":
            return "summary id wrong"
        for k, v in e.items():
            ok = (
                math.isclose(g[k], v, rel_tol=1e-9, abs_tol=1e-12)
                if k == "mean_abs_first_difference"
                else g[k] == v
            )
            if not ok:
                return f"summary [{e['lo']}, {e['hi']}] {k}: {g[k]} != {v}"
    return None


def check(command: str, outdir, truth: Truth, child: dict) -> tuple[int, list[str]]:
    """Return (failed groups, problems) for one command's output directory."""
    outdir = Path(outdir)
    stems = truth.stems()
    problems = []
    capture_problems = []
    if child.get("rc") != 0:
        capture_problems.append(f"exit code {child.get('rc')}")
    if child.get("frames_loaded") != truth.frames:
        capture_problems.append(f"loaded {child.get('frames_loaded')} frames, wrote {truth.frames}")
    known = {s.split("_")[0] for s in stems.values()}
    for p in outdir.iterdir():
        if p.name.split("_")[0] not in known:
            capture_problems.append(f"unexpected output file {p.name}")
            break
    failed = 0
    for key, (payloads, stamps, counters) in sorted(truth.groups.items()):
        stem = stems[key]
        bits = np.unpackbits(payloads, axis=1)
        counts = flip_counts(bits)
        try:
            if command == "tokenize":
                problem = _tokens(outdir / f"{stem}_tokens.json", key[0], bits, counts, counters)
            elif command == "tang":
                problem = _tang(outdir / f"{stem}_tang.csv", bits, counts)
            else:
                problem = _extract(outdir, stem, key[0], bits, stamps, counts, counters)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failed += 1
            if len(problems) < 10:
                problems.append(f"{stem}: {problem}")
    if capture_problems:
        failed = len(truth.groups)
    return failed, capture_problems + problems
