"""Byte-identity corpus: sha256 digests of everything cantok writes on small seeded inputs.

`build(root)` writes four captures into `root`, built with `synth` the way
the benchmark's workloads are (a 20-id bus of long groups, a mixed bus of
skewed group sizes as CSV with junk lines, and many short J1939 groups),
and the bus again with a few frames swapped, so its timestamps go
backwards, plus a copy of the bundled spec. It then runs `tang`, `tokenize`,
`extract`, `synth` and `score` on them in-process from `root`, with
relative paths only, so no digest depends on where `root` is. It returns
one sha256 per input and output file and per run's stdout and stderr, and
each run's exit code.

`tests/test_corpus.py` compares that with `MANIFEST`. A change that alters
an output on purpose rewrites the manifest and names each entry it adds,
removes or changes::

    PYTHONPATH=src python tests/corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from cantok.cli import main
from cantok.frames import CSV_HEADER, Trace, write_candump
from cantok.synth import GroundTruth, SignalSpec, bundled_spec_path, generate_trace, merge_traces

MANIFEST = Path(__file__).with_name("corpus_manifest.json")

KINDS = ("counter", "ramp", "random_walk", "noise", "constant")
CSV_JUNK = (
    "bad_ts,1A0,2,0000", "{ts},ZZZ,2,0000", "{ts},1A0,3,0000", "{ts},1A0,2,00G0", "{ts},1A0")


def _specs(rng, bit_width: int, kinds) -> tuple:
    """`kinds` left to right, each after a gap of one or more bits."""
    width = max(1, min(10, bit_width // len(kinds) - 1))
    specs, pos = [], 0
    for kind in kinds:
        lo = pos + 1 + int(rng.integers(0, 2))
        hi = min(lo + width - 1, bit_width - 1)
        if lo > hi:
            break
        start, value = int(rng.integers(0, 1 << (hi - lo + 1))), 0
        if kind == "constant":
            start, value = 0, start
        specs.append(SignalSpec(lo, hi, kind, max_step=2, start=start, value=value))
        pos = hi + 1
    return tuple(specs)


def _j1939_id(rng) -> int:
    """A 29-bit id: priority, PDU2 PGN and source address."""
    return int(rng.choice((3, 6, 7))) << 26 | (0xF000 + int(rng.integers(0x1000))) << 8 | int(
        rng.integers(0x100))


def layouts(name: str) -> list[GroundTruth]:
    """One GroundTruth per group of capture `name`."""
    rng = np.random.default_rng(list(name.encode()))
    if name == "bus":  # the criterion-7 layout, 150 frames an id
        return [GroundTruth(0x100 + i, 64, (
            SignalSpec(0, 11, "counter"), SignalSpec(16, 27, "counter", step=1 + i),
            SignalSpec(32, 39, "noise")), 150, seed=i, start_time=i * 0.0004) for i in range(20)]
    out = []
    if name == "mixed":  # standard and extended ids, 8 to 800 frames, one id with two dlcs
        ids = [int(i) for i in rng.choice(np.arange(0x80, 0x800), 20, replace=False)]
        ids += [_j1939_id(rng) for _ in range(10)] + [ids[0]]
        for r, arb_id in enumerate(ids):
            dlc, kinds = 2 + r % 7, [KINDS[(r + j) % 5] for j in range(1 + r % 4)]
            out.append(GroundTruth(
                arb_id, 8 * dlc, _specs(rng, 8 * dlc, kinds),
                int(800 / 1.2**r) + 8, seed=int(rng.integers(1 << 31)),
                padding_value=int(rng.integers(0, 2)), start_time=round(rng.uniform(0, 0.01), 6)))
        return out
    for r in range(60):  # fanout: short groups of 1 to 8 bytes, two with a single frame
        dlc = int(rng.integers(1, 9))
        out.append(GroundTruth(
            _j1939_id(rng), 8 * dlc, _specs(rng, 8 * dlc, [KINDS[int(rng.integers(5))]]),
            1 if r % 30 == 7 else int(rng.integers(15, 25)), seed=int(rng.integers(1 << 31)),
            padding_value=int(rng.integers(0, 2)), start_time=round(rng.uniform(0, 0.01), 6)))
    return out


# rows of the bus capture swapped in its backward-stamped copy: frame k and k + 20
# are of one id, most others of two; each swap puts a timestamp before a later one
BACKWARD_SWAPS = ((0, 1), (10, 11), (500, 520), (1500, 1503), (2000, 2107), (2998, 2999))


def _swapped(trace: Trace, pairs) -> Trace:
    """`trace` with the frames in each pair of rows swapped."""
    order = np.arange(len(trace))
    for a, b in pairs:
        order[[a, b]] = order[[b, a]]
    return Trace(*(getattr(trace, name)[order] for name in ("timestamps", "ids", "dlcs", "words")))


def _write_csv(trace, path) -> None:
    """The CSV schema, one f-string a row, with a junk line before every 97th frame."""
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for k, f in enumerate(trace.frames):
            ts = f"{f.timestamp:.6f}"
            if k % 97 == 3:
                fh.write(CSV_JUNK[k // 97 % len(CSV_JUNK)].format(ts=ts) + "\n")
            fh.write(f"{ts},{f.arbitration_id:X},{f.dlc},{f.payload.hex().upper()}\n")


# (output directory, argv); every path is relative to the corpus root
RUNS = [
    *((f"{command}_{name}", [command, "-i", capture, *flags])
      for name, capture, flags in (("bus", "bus.log", []), ("fanout", "fanout.log", []),
                                   ("mixed", "mixed.csv", ["--format", "csv", "--lenient"]),
                                   ("backward", "backward.log", []))
      for command in ("tang", "tokenize", "extract")),
    ("extract_options", ["extract", "-i", "bus.log", "--ids", "0x100,0x113", "--endianness",
                         "little", "--threshold", "2", "--padding-mode", "strict"]),
    ("strict_mixed", ["tokenize", "-i", "mixed.csv", "--format", "csv"]),
    ("synth", ["synth", "-i", "three_counters.json"]),
    ("synth_tokens", ["tokenize", "-i", "synth/0100_trace.log"]),
    ("score_tokens", ["score", "-t", "synth_tokens/0100_tokens.json",
                      "-g", "synth/0100_groundtruth.json"]),
    ("score_trace", ["score", "-i", "synth/0100_trace.log", "-g", "three_counters.json"]),
]


def _run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI run, with the
    capture warnings on stderr as logging's last-resort handler prints them."""
    out, err = io.StringIO(), io.StringIO()
    log = logging.getLogger("cantok")
    handler, level, propagate = logging.StreamHandler(err), log.level, log.propagate
    handler.setLevel(logging.WARNING)
    log.addHandler(handler)
    log.setLevel(logging.WARNING)
    log.propagate = False
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
        log.propagate = propagate
    return code, out.getvalue(), err.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build(root) -> dict[str, str]:
    """Write the corpus under directory `root`; its digests, by relative file name."""
    root = Path(root)
    bus = merge_traces([generate_trace(gt) for gt in layouts("bus")])
    write_candump(bus, root / "bus.log")
    write_candump(_swapped(bus, BACKWARD_SWAPS), root / "backward.log")
    write_candump(merge_traces([generate_trace(gt) for gt in layouts("fanout")]),
                  root / "fanout.log")
    _write_csv(merge_traces([generate_trace(gt) for gt in layouts("mixed")]), root / "mixed.csv")
    shutil.copyfile(bundled_spec_path(), root / "three_counters.json")
    digests = {}
    with contextlib.chdir(root):
        for name, argv in RUNS:
            code, out, err = _run([*argv, "--out", name])
            digests |= {f"{name}:exit": str(code), f"{name}:stdout": _sha256(out.encode()),
                        f"{name}:stderr": _sha256(err.encode())}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digests[path.relative_to(root).as_posix()] = _sha256(path.read_bytes())
    return digests


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = build(tmp)
    if MANIFEST.exists():
        old = json.loads(MANIFEST.read_text())
        for key in sorted(old.keys() | digests.keys()):
            if key not in old:
                print(f"added: {key}", file=sys.stderr)
            elif key not in digests:
                print(f"removed: {key}", file=sys.stderr)
            elif old[key] != digests[key]:
                print(f"changed: {key}", file=sys.stderr)
    MANIFEST.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{MANIFEST.name}: {len(digests)} entries")
