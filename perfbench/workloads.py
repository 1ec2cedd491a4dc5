"""Seeded workload inputs for the cantok benchmark.

Each workload turns a seed into a list of synthetic ids, generates their
payloads with ``cantok.synth``, interleaves them by timestamp and writes
one capture file. The same seed always gives byte-identical files.

Runs on different seeds should measure the same amount of work. In
tokenize-1m and extract-mixed the group sizes, widths and signal kinds are
fixed per slot and the seed picks ids, bit offsets, start values and the
random payload values; tang-fanout draws sizes and widths per group, and
its 4000 groups average them out.

Every step-1 counter is placed so the paper's gradient argument recovers
it exactly: it wraps within its group (the MSB flips at least once) and
the bit on its MSB side never flips (payload edge, padding or a constant).
The oracle relies on this.
"""

from __future__ import annotations

import time

import numpy as np

WORKLOADS = ("tokenize-1m", "extract-mixed", "tang-fanout")

COMMANDS = {
    "tokenize-1m": ["tokenize"],
    "extract-mixed": ["extract", "--format", "csv", "--lenient"],
    "tang-fanout": ["tang"],
}

CSV_JUNK_EVERY = 500  # one malformed line per this many frames
CSV_JUNK = (
    "bad_ts,1A0,2,0000",  # malformed timestamp
    "{ts},ZZZ,2,0000",  # unparsable id
    "{ts},1A0,3,0000",  # dlc does not match payload
    "{ts},1A0,2,00G0",  # non-hex payload
    "{ts},1A0",  # missing columns
)


def _spec(kind, lo, hi, **kw):
    from cantok.synth import SignalSpec

    return SignalSpec(lo=lo, hi=hi, kind=kind, **kw)


def _wrap_width(frames: int) -> int:
    """Widest step-1 counter whose MSB flips within `frames` frames."""
    return max(1, (frames - 1).bit_length())


def _lay_out(rng, bit_width: int, kinds: list[str], frames: int) -> tuple:
    """Place `kinds` left to right, each after a gap of at least one bit."""
    k = len(kinds)
    budget = bit_width - k
    caps = {"counter": min(10, _wrap_width(frames)), "noise": 8, "constant": 6}
    widths = [max(1, min(caps.get(kind, 12), budget // k)) for kind in kinds]
    spare = bit_width - sum(widths) - k
    extra = np.bincount(rng.integers(0, k + 1, size=spare), minlength=k + 1)
    specs = []
    pos = 0
    for j, (kind, w) in enumerate(zip(kinds, widths)):
        lo = pos + 1 + int(extra[j])
        hi = lo + w - 1
        pos = hi + 1
        if kind == "counter":
            specs.append(_spec(kind, lo, hi, start=int(rng.integers(0, 1 << w))))
        elif kind == "constant":
            specs.append(_spec(kind, lo, hi, value=int(rng.integers(0, 1 << w))))
        else:
            specs.append(_spec(kind, lo, hi, max_step=2))
    return tuple(specs)


def _j1939_ids(rng, n: int) -> list[int]:
    """Distinct 29-bit ids: priority, PDU2 PGN and source address."""
    picks = rng.choice(0x1000 * 0x100, size=n, replace=False)
    prio = rng.choice((3, 6, 7), size=n)
    return [
        (int(p) << 26) | ((0xF000 + int(v) // 0x100) << 8) | (int(v) % 0x100)
        for p, v in zip(prio, picks)
    ]


def _us(t: float) -> float:
    """Round to the microsecond the capture formats keep."""
    return round(t, 6)


def layouts(workload: str, seed: int, scale: float = 1.0) -> list:
    """One GroundTruth per id of the workload."""
    from cantok.synth import GroundTruth

    if workload == "tokenize-1m":
        # the criterion-7 capture; seed 0 reproduces it exactly
        per_id = max(64, int(50_000 * scale))
        return [
            GroundTruth(
                arbitration_id=0x100 + i,
                bit_width=64,
                specs=(
                    _spec("counter", 0, 11, step=1),
                    _spec("counter", 16, 27, step=1 + i),
                    _spec("noise", 32, 39),
                ),
                frame_count=per_id,
                seed=20 * seed + i,
                start_time=i * 0.0004,
            )
            for i in range(20)
        ]

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out = []
    if workload == "extract-mixed":
        n_ids, n_ext = 100, 40
        # Group sizes follow transmit periods from 10 ms to 1 s over one bus
        # duration. cantok.synth stamps every id at 10 ms, so a slow id's
        # frames cover a shorter stretch of the capture; the analysis only
        # depends on per-id order and group size.
        total = max(2_000, int(500_000 * scale))
        periods = np.geomspace(0.01, 1.0, n_ids)  # rank 0 is the busiest id
        duration = total / float(np.sum(1.0 / periods))
        std = rng.choice(np.arange(0x080, 0x800), size=n_ids - n_ext, replace=False)
        ids = [int(i) for i in std] + _j1939_ids(rng, n_ext)
        ids = [ids[i] for i in rng.permutation(n_ids)]
        kinds = ("counter", "ramp", "random_walk", "noise", "constant")
        for r in range(n_ids):
            frames = max(8, int(duration / periods[r]))
            dlc = 2 + r % 7
            sig_kinds = [kinds[(r + j) % 5] for j in range(1 + r % 4)]
            out.append(GroundTruth(
                arbitration_id=ids[r],
                bit_width=8 * dlc,
                specs=_lay_out(rng, 8 * dlc, sig_kinds, frames),
                frame_count=frames,
                seed=int(rng.integers(1 << 31)),
                padding_value=int(rng.integers(0, 2)),
                start_time=_us(float(rng.uniform(0, 0.01))),
            ))
        return out

    if workload == "tang-fanout":
        n_ids = max(8, int(4000 * scale))
        kinds = ("counter", "ramp", "random_walk", "noise", "constant")
        for arb_id in _j1939_ids(rng, n_ids):
            frames = int(rng.integers(90, 111))
            dlc = int(rng.integers(1, 9))
            sig_kinds = [kinds[int(i)] for i in rng.integers(0, 5, size=1 + (dlc > 2))]
            out.append(GroundTruth(
                arbitration_id=arb_id,
                bit_width=8 * dlc,
                specs=_lay_out(rng, 8 * dlc, sig_kinds, frames),
                frame_count=frames,
                seed=int(rng.integers(1 << 31)),
                padding_value=int(rng.integers(0, 2)),
                start_time=_us(float(rng.uniform(0, 0.01))),
            ))
        return out

    raise ValueError(f"unknown workload {workload!r}")


def _write_csv(trace, path, seed: int) -> int:
    """Write the default CSV schema with seeded junk lines; return their count."""
    from cantok.frames import CSV_HEADER

    n = len(trace)
    junk = n // CSV_JUNK_EVERY
    rng = np.random.default_rng([seed, 99])
    before = np.bincount(rng.integers(0, n, size=junk), minlength=n)
    k = 0
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for f, bad in zip(trace.frames, before):
            ts = f"{f.timestamp:.6f}"
            for _ in range(bad):
                fh.write(CSV_JUNK[k % len(CSV_JUNK)].format(ts=ts) + "\n")
                k += 1
            fh.write(f"{ts},{f.arbitration_id:X},{f.dlc},{f.payload.hex().upper()}\n")
    return junk


def generate(workload: str, seed: int, path, scale: float = 1.0, truth=None) -> dict:
    """Write the workload's capture to `path`; return seconds per phase.

    Only generation, interleaving and writing are timed. Computing the
    layouts and saving the truth file (an ``.npz`` with per-group payloads
    and timestamps, read by the oracle) are not.
    """
    from cantok.frames import write_candump
    from cantok.synth import generate_trace, merge_traces

    plan = layouts(workload, seed, scale)
    timings = {}
    t0 = time.perf_counter()
    traces = [generate_trace(gt) for gt in plan]
    t1 = time.perf_counter()
    timings["synth.generate_s"] = t1 - t0
    merged = merge_traces(traces)
    t2 = time.perf_counter()
    timings["synth.merge_s"] = t2 - t1
    if workload == "extract-mixed":
        junk = _write_csv(merged, path, seed)
        timings["perfbench.write_csv_s"] = time.perf_counter() - t2
    else:
        junk = 0
        write_candump(merged, path)
        timings["frames.write_candump_s"] = time.perf_counter() - t2
    if truth is not None:
        _save_truth(truth, plan, traces, junk)
    return timings


def _save_truth(path, plan, traces, junk: int) -> None:
    arrays = {"junk_lines": np.array(junk)}
    for gt, trace in zip(plan, traces):
        key = f"{gt.arbitration_id:x}_{gt.bit_width // 8}"
        arrays[f"p_{key}"] = np.frombuffer(
            b"".join(f.payload for f in trace.frames), dtype=np.uint8
        ).reshape(len(trace), gt.bit_width // 8)
        arrays[f"t_{key}"] = np.array([f.timestamp for f in trace.frames])
        arrays[f"c_{key}"] = np.array(
            [(s.lo, s.hi) for s in gt.specs if s.kind == "counter" and s.step == 1],
            dtype=np.int64,
        ).reshape(-1, 2)
    np.savez(path, **arrays)
