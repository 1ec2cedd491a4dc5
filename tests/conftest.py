import json
import logging
from array import array
from collections import Counter

import numpy as np
import pytest

from cantok import (
    IdTrace, ParseError, TokenCluster, Tokenization, TokenizerConfig, Trace, parse_candump_line,
    parse_csv_line,
)
from cantok.errors import AnalysisError
from cantok.frames import CSV_HEADER, MAX_DLC, STANDARD_ID_MAX
from cantok.synth import FRAME_PERIOD_S
from cantok.tokenizer import tokenization_to_dict

log = logging.getLogger("cantok.frames")


def reference_load_trace(path, format: str = "candump", strict: bool = True) -> Trace:
    """Per-line loader: text mode, one parse_*_line call per line."""
    if format not in ("candump", "csv"):
        raise AnalysisError(f"unknown capture format {format!r}")
    parse = parse_candump_line if format == "candump" else parse_csv_line
    timestamps, ids, dlcs, payloads = array("d"), array("L"), bytearray(), bytearray()
    skipped = 0
    with open(path, encoding="utf-8-sig") as fh:  # skips a BOM opening the file, as load_trace
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip(" \t\n\r\f\v")  # ASCII whitespace only, not U+00A0
            if not line or line.startswith("#"):
                continue
            if format == "csv" and [
                    f.strip(" \t\n\r\f\v") for f in line.split(",")] == CSV_HEADER.split(","):
                continue
            try:
                frame = parse(line, lineno=lineno)
            except ParseError:
                if strict:
                    raise
                skipped += 1
                continue
            timestamps.append(frame.timestamp)
            ids.append(frame.arbitration_id)
            dlcs.append(frame.dlc)
            payloads += frame.payload.ljust(MAX_DLC, b"\0")
    trace = Trace(timestamps, ids, dlcs, np.frombuffer(payloads, np.uint64))
    if skipped:
        log.warning("%s: skipped %d malformed line(s)", path, skipped)
    log.info("%s: %d frames", path, len(trace))
    return trace


def reference_candump_line(frame) -> str:
    """One compact candump line: 3 hex id digits for a standard id, 8 for extended."""
    width = 3 if frame.arbitration_id <= STANDARD_ID_MAX else 8
    return (
        f"({frame.timestamp:.6f}) can0 {frame.arbitration_id:0{width}X}#"
        f"{frame.payload.hex().upper()}"
    )


def reference_write_candump(trace: Trace, path) -> None:
    """Per-row candump writer: one f-string per frame."""
    with open(path, "w") as fh:
        for frame in trace.frames:
            fh.write(reference_candump_line(frame) + "\n")


def reference_series_csv(series, path) -> None:
    """Per-row series writer: one f-string per ``index,timestamp,value`` row."""
    with open(path, "w") as fh:
        fh.write("index,timestamp,value\n")
        for i, (ts, v) in enumerate(zip(series.timestamps, series.values)):
            fh.write(f"{i},{ts:.6f},{int(v)}\n")


def _reference_values(spec, m, rng):
    """Length-m value sequence of one signal spec, stepped in Python ints."""
    top = 1 << spec.width
    if spec.kind == "counter":
        return [(spec.start + spec.step * k) % top for k in range(m)]
    if spec.kind == "constant":
        return [spec.value] * m
    if spec.kind == "noise":
        return rng.integers(0, top - 1, size=m, dtype=np.uint64, endpoint=True).tolist()
    v = int(rng.integers(0, min(top, 1 << 62)))
    if spec.kind == "ramp":  # segments of one slope, saturating at 0 and top - 1
        out = [v]
        while len(out) < m:
            slope = int(rng.integers(-spec.max_step, spec.max_step + 1))
            seg = min(int(rng.integers(1, max(2, m // 8 + 1))), m - len(out))
            out += [min(max(v + slope * k, 0), top - 1) for k in range(1, seg + 1)]
            v = out[-1]
        return out[:m]
    out = []  # random_walk
    steps = rng.integers(-spec.max_step, spec.max_step + 1, size=m)
    for k in range(m):
        v = min(max(v + int(steps[k]), 0), top - 1)
        out.append(v)
    return out


def reference_generate_trace(gt) -> Trace:
    """Bit-matrix generator: one uint8 per payload bit, each field written bit by
    bit under the position numbering, then packed, padded to MAX_DLC bytes and
    read as one word a frame."""
    rng = np.random.default_rng(gt.seed)
    m = gt.frame_count
    bits = np.full((m, gt.bit_width), gt.padding_value, dtype=np.uint8)
    for spec in gt.specs:
        lsb = spec.hi if spec.endianness == "big" else spec.lo
        values = np.array(_reference_values(spec, m, rng), dtype=np.uint64)
        for p in range(spec.lo, spec.hi + 1):
            bits[:, p] = (values >> np.uint64(abs(p - lsb))) & np.uint64(1)
    packed = np.packbits(bits, axis=1)
    return Trace(
        timestamps=gt.start_time + np.arange(m) * FRAME_PERIOD_S,
        ids=np.full(m, gt.arbitration_id, dtype=np.uint32),
        dlcs=np.full(m, gt.bit_width // 8, dtype=np.uint8),
        words=np.pad(packed, ((0, 0), (0, MAX_DLC - packed.shape[1]))).view(np.uint64)[:, 0],
    )


def make_trace(frames):
    """Trace whose columns hold the given CanFrames, in order."""
    return Trace(
        [f.timestamp for f in frames],
        [f.arbitration_id for f in frames],
        [f.dlc for f in frames],
        np.frombuffer(b"".join(f.payload.ljust(MAX_DLC, b"\0") for f in frames), np.uint64),
    )


def make_idtrace(payloads, arb_id=0xA15, period=0.01):
    """IdTrace from a list of equal-length payload byte strings: one word a
    payload, its bytes in memory order and zero past the dlc."""
    m, dlc = len(payloads), len(payloads[0])
    rows = np.zeros((m, MAX_DLC), np.uint8)
    rows[:, :dlc] = np.array([list(p) for p in payloads], dtype=np.uint8).reshape(m, dlc)
    return IdTrace(arb_id, dlc, np.arange(m) * period, rows.view(np.uint64)[:, 0])


@pytest.fixture
def table1_idtrace():
    """The paper-style 10-observation, 1-byte counter trace (values 0..9)."""
    return make_idtrace([[k] for k in range(10)])


def naive_tang_counts(payloads):
    """Independent per-bit transition count: scalar double loop over frames."""
    n = len(payloads[0]) * 8
    counts = [0] * n
    for a, b in zip(payloads, payloads[1:]):
        for i in range(n):
            bit_a = (a[i // 8] >> (7 - i % 8)) & 1
            bit_b = (b[i // 8] >> (7 - i % 8)) & 1
            if bit_a != bit_b:
                counts[i] += 1
    return counts


def reference_tokenize(counts, config, arbitration_id=0x100) -> Tokenization:
    """The greedy walk with plain loops. Each seed is the unassigned position with
    the most flips, the first of equal ones met from the side extension grows
    from (ascending for big-endian, descending for little). Extension toward the
    MSB (-1 big, +1 little) stops at the array bound, at an assigned position, at
    a zero count in exclude mode, or where the count tops the last one plus the
    threshold. Positions never assigned form padding runs."""
    n, step = len(counts), -1 if config.endianness == "big" else 1
    scan = range(n) if step == -1 else range(n - 1, -1, -1)
    assigned, clusters = [False] * n, []
    while True:
        seed = None
        for i in scan:
            if not assigned[i] and counts[i] > 0 and (seed is None or counts[i] > counts[seed]):
                seed = i
        if seed is None:
            break
        assigned[seed], msb = True, seed
        while 0 <= msb + step < n and not assigned[msb + step]:
            nxt = msb + step
            if config.padding_mode == "exclude" and counts[nxt] == 0:
                break
            if counts[nxt] > counts[msb] + config.threshold:
                break
            assigned[nxt], msb = True, nxt
        lo, hi = min(seed, msb), max(seed, msb)
        clusters.append(TokenCluster("signal", lo, hi, seed, msb, int(counts[seed])))
    start = None
    for i in range(n + 1):
        if i < n and not assigned[i]:
            start = i if start is None else start
        elif start is not None:
            clusters.append(TokenCluster("padding", start, i - 1))
            start = None
    return Tokenization(arbitration_id, n, tuple(sorted(clusters, key=lambda c: c.lo)), config)


def reference_tang_csv(counts, pairs, path) -> None:
    """Per-row TANG writer: one f-string per ``bit_position,transitions,normalized``
    row, each count normalized by the group's `pairs` sequential frame pairs."""
    with open(path, "w") as fh:
        fh.write("bit_position,transitions,normalized\n")
        for i, count in enumerate(counts):
            fh.write(f"{i},{count},{count / pairs:.6f}\n")


def reference_cli_outputs(capture, outdir, format: str = "candump", strict: bool = True) -> None:
    """The files `cantok tang`, `tokenize` and `extract` (default flags) write
    for a capture, by a naive pipeline: the per-line loader, groups built
    frame by frame, the scalar TANG count, the plain-loop greedy walk, each
    value summed bit by bit and one f-string per CSV row."""
    groups = {}
    for f in reference_load_trace(capture, format, strict).frames:
        groups.setdefault((f.arbitration_id, f.dlc), []).append(f)
    groups = {  # the CLI skips one-frame and zero-width groups
        key: frames for key, frames in sorted(groups.items()) if len(frames) > 1 and key[1]
    }
    widths = Counter(arb_id for arb_id, _ in groups)
    for (arb_id, dlc), frames in groups.items():
        stem = f"{arb_id:04X}" + (f"_dlc{dlc}" if widths[arb_id] > 1 else "")
        rows = [f.payload for f in frames]
        counts = naive_tang_counts(rows)
        reference_tang_csv(counts, len(rows) - 1, outdir / f"{stem}_tang.csv")
        tok = reference_tokenize(counts, TokenizerConfig(), arb_id)
        with open(outdir / f"{stem}_tokens.json", "w") as fh:
            json.dump(tokenization_to_dict(tok), fh, indent=2)
            fh.write("\n")
        bits = [bits_of(row) for row in rows]
        summaries = []
        for c in tok.signal_clusters:
            step = 1 if c.msb_index >= c.lsb_index else -1
            lsb_to_msb = range(c.lsb_index, c.msb_index + step, step)
            values = [sum(b[p] << k for k, p in enumerate(lsb_to_msb)) for b in bits]
            with open(outdir / f"{stem}_sig{c.lo}-{c.hi}.csv", "w") as fh:
                fh.write("index,timestamp,value\n")
                for i, (f, v) in enumerate(zip(frames, values)):
                    fh.write(f"{i},{f.timestamp:.6f},{v}\n")
            low, high, unique, transitions, mean_abs = naive_summary(values)
            summaries.append({
                "id": f"0x{arb_id:04X}", "lo": c.lo, "hi": c.hi, "width": c.hi - c.lo + 1,
                "min": low, "max": high, "unique_values": unique,
                "value_transitions": transitions, "mean_abs_first_difference": mean_abs,
            })
        with open(outdir / f"{stem}_summary.json", "w") as fh:
            json.dump(summaries, fh, indent=2)
            fh.write("\n")


def bits_of(payload):
    """Payload bytes as a list of bits under the position numbering."""
    out = []
    for byte in payload:
        for j in range(7, -1, -1):
            out.append((byte >> j) & 1)
    return out


def naive_summary(values):
    """Reference (min, max, unique, transitions, mean |diff|) over Python ints."""
    py = [int(v) for v in values]
    diffs = [abs(b - a) for a, b in zip(py, py[1:])]
    transitions = sum(1 for d in diffs if d)
    mean_abs = sum(diffs) / len(diffs) if diffs else 0.0
    return min(py), max(py), len(set(py)), transitions, mean_abs


COLUMNS = ("timestamps", "ids", "dlcs", "words")


def load_outcome(loader, path, columns=COLUMNS, warned="malformed", **kwargs):
    """What one load gives: the bytes of `columns` or the ParseError, and its
    warnings that hold `warned` (by default the skip warnings; "" for all)."""
    warnings = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: warnings.append(record.getMessage())
    log.addHandler(handler)
    try:
        trace = loader(path, **kwargs)
        result = [
            (c.dtype.str, c.shape, c.tobytes()) for c in (getattr(trace, n) for n in columns)
        ]
    except ParseError as exc:
        result = (str(exc), exc.lineno)
    finally:
        log.removeHandler(handler)
    return result, [w for w in warnings if warned in w]
