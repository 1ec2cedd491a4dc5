import logging
from array import array

import numpy as np
import pytest

from cantok import IdTrace, ParseError, Trace, parse_candump_line, parse_csv_line
from cantok.errors import AnalysisError
from cantok.frames import CSV_HEADER, MAX_DLC, STANDARD_ID_MAX

log = logging.getLogger("cantok.frames")


def reference_load_trace(path, format: str = "candump", strict: bool = True) -> Trace:
    """Per-line loader: text mode, one parse_*_line call per line."""
    if format not in ("candump", "csv"):
        raise AnalysisError(f"unknown capture format {format!r}")
    parse = parse_candump_line if format == "candump" else parse_csv_line
    timestamps, ids, dlcs, payloads = array("d"), array("L"), bytearray(), bytearray()
    skipped = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip(" \t\n\r\f\v")  # ASCII whitespace only, not U+00A0
            if not line or line.startswith("#"):
                continue
            if format == "csv" and line.replace(" ", "") == CSV_HEADER:
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
    trace = Trace(timestamps, ids, dlcs, np.reshape(payloads, (-1, MAX_DLC)))
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


def make_trace(frames):
    """Trace whose columns hold the given CanFrames, in order."""
    payloads = np.zeros((len(frames), 8), dtype=np.uint8)
    for k, f in enumerate(frames):
        payloads[k, : f.dlc] = list(f.payload)
    return Trace(
        [f.timestamp for f in frames],
        [f.arbitration_id for f in frames],
        [f.dlc for f in frames],
        payloads,
    )


def make_idtrace(payloads, arb_id=0xA15, period=0.01):
    """IdTrace from a list of equal-length payload byte strings."""
    m, dlc = len(payloads), len(payloads[0])
    rows = np.array([list(p) for p in payloads], dtype=np.uint8).reshape(m, dlc)
    return IdTrace(arb_id, dlc, np.arange(m) * period, rows)


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


COLUMNS = ("timestamps", "ids", "dlcs", "payloads")


def load_outcome(loader, path, **kwargs):
    """What one load gives: column bytes or the ParseError, and its skip warnings."""
    warnings = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: warnings.append(record.getMessage())
    log.addHandler(handler)
    try:
        trace = loader(path, **kwargs)
        result = [
            (c.dtype.str, c.shape, c.tobytes()) for c in (getattr(trace, n) for n in COLUMNS)
        ]
    except ParseError as exc:
        result = (str(exc), exc.lineno)
    finally:
        log.removeHandler(handler)
    return result, [w for w in warnings if "malformed" in w]
