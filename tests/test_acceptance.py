"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cantok
from cantok import (
    GroundTruth,
    SignalSpec,
    Tang,
    TokenizerConfig,
    extract_series,
    generate_trace,
    partition_by_id,
    score_tokenization,
    tokenize,
)
from cantok.bitlab import build_bit_matrix, tang_from_idtrace, transition_matrix
from cantok.signals import padding_constants, repack_payloads

from .conftest import make_idtrace, naive_tang_counts

TABLE_TANG = [0, 0, 0, 0, 1, 2, 4, 9]


def _report(num, name):
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_table_golden():
    start = time.perf_counter()
    it = make_idtrace([[k] for k in range(10)])
    tm = transition_matrix(build_bit_matrix(it.words, it.dlc))
    expected_rows = [
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 1, 1, 1],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 1, 1, 1],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ]
    assert tm.tolist() == expected_rows
    assert tang_from_idtrace(it).counts.tolist() == TABLE_TANG
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "transition matrix and aggregation golden")


def test_criterion_2_worked_xor():
    it = make_idtrace([[k] for k in range(10)])
    tm = transition_matrix(build_bit_matrix(it.words, it.dlc))
    assert list(tm[0]) == [0, 0, 0, 0, 0, 0, 0, 1]
    assert list(tm[7]) == [0, 0, 0, 0, 1, 1, 1, 1]
    _report(2, "worked XOR rows")


def test_criterion_3_hand_traces():
    tang = Tang(
        counts=np.asarray(TABLE_TANG, dtype=np.int64),
        observations=10,
        arbitration_id=0xA15,
    )
    exclude = tokenize(tang, TokenizerConfig())
    assert [(c.kind, c.lo, c.hi) for c in exclude.clusters] == [
        ("padding", 0, 3),
        ("signal", 4, 7),
    ]
    strict = tokenize(tang, TokenizerConfig(padding_mode="strict"))
    assert [(c.kind, c.lo, c.hi) for c in strict.clusters] == [("signal", 0, 7)]
    assert strict.clusters[0].lsb_index == 7
    assert strict.clusters[0].msb_index == 0
    _report(3, "greedy clustering hand traces")


def _mirror_key(c, n):
    lsb = None if c.lsb_index is None else n - 1 - c.lsb_index
    msb = None if c.msb_index is None else n - 1 - c.msb_index
    return (c.kind, n - 1 - c.hi, n - 1 - c.lo, lsb, msb)


def test_criterion_4_randomized_properties():
    rng = np.random.default_rng(20240817)
    cases = 1000
    for _ in range(cases):
        n = int(rng.integers(1, 65))
        m = int(rng.integers(2, 65))
        counts = rng.integers(0, m, size=n).astype(np.int64)
        endianness = ("big", "little")[int(rng.integers(0, 2))]
        mode = ("exclude", "strict")[int(rng.integers(0, 2))]
        threshold = int(rng.integers(0, 4))
        tang = Tang(counts=counts, observations=m, arbitration_id=0x100)
        cfg = TokenizerConfig(
            endianness=endianness, threshold=threshold, padding_mode=mode
        )
        tok = tokenize(tang, cfg)

        # partition and disjointness
        seen = sorted(p for c in tok.clusters for p in c.positions)
        assert seen == list(range(n))
        # determinism
        assert tokenize(tang, cfg) == tok
        # endianness mirror
        other = "little" if endianness == "big" else "big"
        rev = tokenize(
            Tang(
                counts=counts[::-1].copy(),
                observations=m,
                arbitration_id=0x100,
            ),
            TokenizerConfig(
                endianness=other, threshold=threshold, padding_mode=mode
            ),
        )
        assert sorted(_mirror_key(c, n) for c in tok.clusters) == sorted(
            (c.kind, c.lo, c.hi, c.lsb_index, c.msb_index) for c in rev.clusters
        )
        # nonincreasing gradient and padding purity at default settings
        base = tokenize(tang, TokenizerConfig(endianness=endianness))
        for c in base.clusters:
            if c.kind == "padding":
                assert all(counts[p] == 0 for p in c.positions)
                continue
            assert all(counts[p] > 0 for p in c.positions)
            step = -1 if c.lsb_index == c.hi else 1
            walk = list(range(c.lsb_index, c.msb_index + step, step))
            for a, b in zip(walk, walk[1:]):
                assert counts[b] <= counts[a]
        # transition-count oracle equivalence vs naive double loop
        dlc = int(rng.integers(1, 9))
        rows = int(rng.integers(2, 65))
        payloads = [bytes(rng.integers(0, 256, dlc, dtype=np.uint8)) for _ in range(rows)]
        tang2 = tang_from_idtrace(make_idtrace([list(p) for p in payloads]))
        assert tang2.counts.tolist() == naive_tang_counts(payloads)
    _report(4, f"{cases} randomized property cases")


def _counter_ground_truth(seed):
    rng = np.random.default_rng(seed)
    specs = []
    pos = int(rng.integers(0, 3))
    target = int(rng.integers(2, 5))
    while len(specs) < target:
        w = int(rng.integers(4, 13))
        if pos + w > 64:
            break
        specs.append(SignalSpec(lo=pos, hi=pos + w - 1, kind="counter", step=1))
        pos += w + 1 + int(rng.integers(0, 3))
    max_w = max(s.width for s in specs)
    return GroundTruth(
        arbitration_id=0x100 + seed,
        bit_width=64,
        specs=tuple(specs),
        frame_count=2 * 2**max_w,
        seed=seed,
    )


def test_criterion_5_recovery_theorem():
    start = time.perf_counter()
    for seed in range(50):
        gt = _counter_ground_truth(seed)
        trace = generate_trace(gt)
        it = partition_by_id(trace)[(gt.arbitration_id, 8)]
        tok = tokenize(tang_from_idtrace(it))
        report = score_tokenization(tok, gt)
        assert report.exact_cluster_matches == len(gt.specs), f"seed {seed}"
        assert report.boundary_precision == 1.0, f"seed {seed}"
        assert report.boundary_recall == 1.0, f"seed {seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, f"50 counter layouts recovered in {elapsed:.1f}s")


def test_criterion_6_reconstruction():
    layouts = [
        GroundTruth(
            arbitration_id=0x200,
            bit_width=64,
            specs=(
                SignalSpec(lo=0, hi=11, kind="counter", step=1),
                SignalSpec(lo=16, hi=23, kind="random_walk", max_step=5),
                SignalSpec(lo=32, hi=47, kind="noise"),
                SignalSpec(lo=56, hi=63, kind="ramp", max_step=3),
            ),
            frame_count=2000,
            seed=6,
        ),
        GroundTruth(
            arbitration_id=0x201,
            bit_width=16,
            specs=(SignalSpec(lo=4, hi=11, kind="counter", step=1),),
            frame_count=600,
            seed=7,
            padding_value=1,
        ),
    ]
    traces = [generate_trace(gt) for gt in layouts]
    # a hand-recorded-style trace as well
    traces.append(
        generate_trace(
            GroundTruth(
                arbitration_id=0xA15,
                bit_width=8,
                specs=(SignalSpec(lo=4, hi=7, kind="counter", step=1),),
                frame_count=10,
            )
        )
    )
    for trace in traces:
        for it in partition_by_id(trace).values():
            tok = tokenize(tang_from_idtrace(it))
            series = {
                (s.cluster.lo, s.cluster.hi): s
                for s in extract_series(it, tok.signal_clusters)
            }
            rebuilt = repack_payloads(
                tok, series, padding_constants(it.words, tok), len(it)
            )
            assert rebuilt.dtype == np.uint64 and np.array_equal(rebuilt, it.words)
    _report(6, "bit-exact payload reconstruction")


PERF_DRIVER = """
import json, resource, sys, tempfile, time
from pathlib import Path
from cantok import GroundTruth, SignalSpec, load_trace, partition_by_id, tokenize, write_candump
from cantok.bitlab import tang_from_idtrace
from cantok.synth import generate_trace, merge_traces

ids = 20
frames_per_id = 50_000
layouts = []
for i in range(ids):
    layouts.append(GroundTruth(
        arbitration_id=0x100 + i,
        bit_width=64,
        specs=(
            SignalSpec(lo=0, hi=11, kind="counter", step=1),
            SignalSpec(lo=16, hi=27, kind="counter", step=1 + i),
            SignalSpec(lo=32, hi=39, kind="noise"),
        ),
        frame_count=frames_per_id,
        seed=i,
        start_time=i * 0.0004,
    ))
merged = merge_traces([generate_trace(gt) for gt in layouts])
path = Path(tempfile.mkdtemp()) / "big.log"
write_candump(merged, path)
del merged

start = time.perf_counter()
trace = load_trace(path)
groups = partition_by_id(trace)
toks = {k: tokenize(tang_from_idtrace(g)) for k, g in groups.items()}
elapsed = time.perf_counter() - start

assert len(trace) == ids * frames_per_id
assert len(toks) == ids
maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"elapsed": elapsed, "maxrss_mb": maxrss_mb}))
"""


def test_criterion_7_throughput():
    # the timed script imports the same cantok as this process, installed or not
    src = str(Path(cantok.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PERF_DRIVER],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stats["elapsed"] < 20.0, stats
    assert stats["maxrss_mb"] < 1024.0, stats
    _report(
        7,
        f"1M frames ingested+analyzed in {stats['elapsed']:.1f}s, "
        f"peak {stats['maxrss_mb']:.0f} MB",
    )
