"""CAN capture ingestion: frame parsing, trace loading, per-ID partitioning.

Supported on-disk formats:

* candump compact: ``(<seconds.fraction>) <iface> <HEXID>#<HEXBYTES>``
* CSV with header ``timestamp,id,dlc,payload_hex``

A `Trace` holds one read-only column per frame field, with payloads as an
(M, 8) matrix zero past each frame's dlc; an `IdTrace` holds one (id, dlc)
group's timestamps and (M, dlc) payloads. `CanFrame` is the result of
parsing one line and the row type `Trace.frames` yields.

`load_trace` reads a capture in chunks of about `CHUNK_BYTES` and decodes
most lines in columns with numpy, grouped by shape (line length plus
separator offsets). It decodes a line there only when it can show the
result equals the per-line parser's:

* candump ``(<digits>.<digits>) <iface> <id>#<hex>`` with single spaces,
  no other whitespace, 1-8 id digits, an even number of payload digits up
  to 16, an id of at most 29 bits and a timestamp of at most 18 digits
  whose digits read as an integer stay below 2**53;
* CSV ``<digits>.<digits>,<id>,<dlc>,<hex>`` with the same id, payload
  and timestamp rules, a one-digit dlc equal to the payload length and
  nothing else on the line.

Hex digits may be upper or lower case; lines may end in LF or CR LF.
Every other line, and every line of a chunk holding a non-ASCII byte or a
lone CR, goes through
`parse_candump_line`/`parse_csv_line` with its line number, so those two
functions define what is valid and every error message.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, ParseError

log = logging.getLogger(__name__)

STANDARD_ID_MAX = 0x7FF
EXTENDED_ID_MAX = 0x1FFFFFFF
MAX_DLC = 8


@dataclass(frozen=True, slots=True)
class CanFrame:
    """One timestamped CAN message."""

    timestamp: float
    arbitration_id: int
    dlc: int
    payload: bytes

    def __post_init__(self):
        if not 0 <= self.arbitration_id <= EXTENDED_ID_MAX:
            raise AnalysisError(
                f"arbitration id 0x{self.arbitration_id:X} outside extended range"
            )
        if not 0 <= self.dlc <= MAX_DLC:
            raise AnalysisError(f"dlc {self.dlc} outside 0..{MAX_DLC}")
        if len(self.payload) != self.dlc:
            raise AnalysisError(
                f"payload length {len(self.payload)} does not match dlc {self.dlc}"
            )

    @property
    def is_extended(self) -> bool:
        return self.arbitration_id > STANDARD_ID_MAX


def _set_columns(obj, **specs: tuple) -> None:
    """Store each ``name=(dtype, shape)`` attribute of `obj` as a read-only array."""
    for name, (dtype, shape) in specs.items():
        a = np.asarray(getattr(obj, name), dtype=dtype).view()
        if a.shape != shape:
            raise AnalysisError(f"{name} of shape {a.shape}, expected {shape}")
        a.flags.writeable = False
        object.__setattr__(obj, name, a)


@dataclass(frozen=True, slots=True, eq=False)
class Trace:
    """Chronologically ordered capture, one column per frame field."""

    timestamps: np.ndarray  # (M,) float64 seconds
    ids: np.ndarray  # (M,) uint32 arbitration ids
    dlcs: np.ndarray  # (M,) uint8
    payloads: np.ndarray  # (M, 8) uint8, zero past each frame's dlc
    source: str = ""

    def __post_init__(self):
        m = len(self.timestamps)
        _set_columns(
            self, timestamps=(np.float64, (m,)), ids=(np.uint32, (m,)),
            dlcs=(np.uint8, (m,)), payloads=(np.uint8, (m, MAX_DLC)),
        )

    @property
    def frames(self) -> Iterator[CanFrame]:
        """Row view: one CanFrame per frame, in capture order."""
        blob = self.payloads.tobytes()
        rows = zip(self.timestamps.tolist(), self.ids.tolist(), self.dlcs.tolist())
        for k, (ts, arb_id, dlc) in enumerate(rows):
            yield CanFrame(ts, arb_id, dlc, blob[MAX_DLC * k : MAX_DLC * k + dlc])

    def validate(self) -> None:
        """Check the nondecreasing-timestamp invariant; raise on violation."""
        back = np.flatnonzero(self.timestamps[1:] < self.timestamps[:-1])
        if back.size:
            a, b = self.timestamps[back[0] : back[0] + 2].tolist()
            raise AnalysisError(
                f"timestamps decrease {back.size} time(s), first at frame "
                f"{back[0] + 1}: {a} -> {b}"
            )

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True, slots=True, eq=False)
class IdTrace:
    """All frames of one (arbitration id, dlc) group, in capture order."""

    arbitration_id: int
    dlc: int
    timestamps: np.ndarray  # (M,) float64 seconds
    payloads: np.ndarray  # (M, dlc) uint8

    def __post_init__(self):
        m = len(self.timestamps)
        _set_columns(self, timestamps=(np.float64, (m,)), payloads=(np.uint8, (m, self.dlc)))

    @property
    def bit_width(self) -> int:
        return 8 * self.dlc

    def __len__(self) -> int:
        return len(self.timestamps)


def _parse_timestamp(text: str, line: str, lineno: int | None) -> float:
    """Finite seconds; `float` alone also reads nan, inf, 1e400, ``1_0`` and
    non-ASCII digits."""
    try:
        ts = float(text)
    except ValueError:
        ts = math.nan
    if not text.isascii() or "_" in text or not math.isfinite(ts):
        raise ParseError(line, "malformed timestamp", lineno)
    return ts


def _parse_id(text: str, line: str, lineno: int | None) -> int:
    """Hex id with an optional ``0x``; `int` alone also reads a sign, ``_`` and
    non-ASCII digits."""
    try:
        if not text.isascii() or text[:1] in "+-" or "_" in text:
            raise ValueError
        return int(text, 16)
    except ValueError:
        raise ParseError(line, f"unparsable id {text!r}", lineno) from None


def parse_candump_line(line: str, lineno: int | None = None) -> CanFrame:
    """Decode one compact candump record.

    Format: ``(<ts>) <iface> <ID>#<HEXDATA>``. The interface name is
    discarded; payload hex pairs map to bytes in transmission order.
    """
    parts = line.split()
    if len(parts) != 3 or not parts[0].startswith("(") or not parts[0].endswith(")"):
        raise ParseError(line, "not a candump record", lineno)
    ts = _parse_timestamp(parts[0][1:-1], line, lineno)
    idstr, sep, hexdata = parts[2].partition("#")
    if not sep:
        raise ParseError(line, "missing '#' separator", lineno)
    arb_id = _parse_id(idstr, line, lineno)
    if len(hexdata) % 2:
        raise ParseError(line, "odd-length hex payload", lineno)
    try:
        payload = bytes.fromhex(hexdata)
    except ValueError:
        raise ParseError(line, "non-hex payload", lineno) from None
    if len(payload) > MAX_DLC:
        raise ParseError(line, f"payload of {len(payload)} bytes exceeds 8", lineno)
    try:
        return CanFrame(ts, arb_id, len(payload), payload)
    except AnalysisError as exc:
        raise ParseError(line, str(exc), lineno) from None


CSV_HEADER = "timestamp,id,dlc,payload_hex"


def parse_csv_line(line: str, lineno: int | None = None) -> CanFrame:
    """Decode one ``timestamp,id,dlc,payload_hex`` record like parse_candump_line."""
    try:
        row = next(csv.reader(io.StringIO(line)))
    except StopIteration:
        raise ParseError(line, "empty record", lineno) from None
    if len(row) < 4:
        raise ParseError(line, "missing column (need 4 fields)", lineno)
    ts = _parse_timestamp(row[0], line, lineno)
    arb_id = _parse_id(row[1].strip(), line, lineno)
    try:
        dlc = int(row[2])
    except ValueError:
        raise ParseError(line, f"unparsable dlc {row[2]!r}", lineno) from None
    hexdata = row[3].strip()
    if len(hexdata) % 2:
        raise ParseError(line, "odd-length hex payload", lineno)
    try:
        payload = bytes.fromhex(hexdata)
    except ValueError:
        raise ParseError(line, "non-hex payload", lineno) from None
    if len(payload) != dlc:
        raise ParseError(
            line, f"dlc {dlc} does not match payload of {len(payload)} bytes", lineno
        )
    try:
        return CanFrame(ts, arb_id, dlc, payload)
    except AnalysisError as exc:
        raise ParseError(line, str(exc), lineno) from None


def _candump_line(timestamp: float, arb_id: int, payload_hex: str, iface: str) -> str:
    width = 3 if arb_id <= STANDARD_ID_MAX else 8
    return f"({timestamp:.6f}) {iface} {arb_id:0{width}X}#{payload_hex}"


def format_candump_line(frame: CanFrame, iface: str = "can0") -> str:
    """Render a frame back to compact candump text.

    Standard ids get 3 hex digits, extended ids 8; timestamps keep
    microsecond precision.
    """
    return _candump_line(
        frame.timestamp, frame.arbitration_id, frame.payload.hex().upper(), iface
    )


def write_candump(trace: Trace, path, iface: str = "can0") -> None:
    hexdata = trace.payloads.tobytes().hex().upper()
    rows = zip(trace.timestamps.tolist(), trace.ids.tolist(), trace.dlcs.tolist())
    with open(path, "w") as fh:
        for k, (ts, arb_id, dlc) in enumerate(rows):
            start = 2 * MAX_DLC * k
            fh.write(_candump_line(ts, arb_id, hexdata[start : start + 2 * dlc], iface))
            fh.write("\n")


CHUNK_BYTES = 1 << 16  # read size; each chunk is cut after its last newline

# Separator bytes of a line shape, in the order its key packs their offsets;
# a byte listed twice stands for its first and its second occurrence.
_SEPARATORS = {"candump": b"  #.", "csv": b",,,."}
_EXACT_INT = 1 << 53  # integers below this are exact float64 values
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_POW16 = 16 ** np.arange(8, dtype=np.int64)
_HEX = np.full(256, 0xFF, dtype=np.uint8)  # value of each hex digit byte, else 0xFF
for _value, _char in enumerate("0123456789ABCDEF"):
    _HEX[ord(_char)] = _HEX[ord(_char.lower())] = _value


def _columns(n: int) -> list[np.ndarray]:
    """Timestamp, id, dlc and (n, 8) payload columns for n frames."""
    return [
        np.empty(n), np.empty(n, np.uint32), np.empty(n, np.uint8),
        np.zeros((n, MAX_DLC), np.uint8),
    ]


def _chunks(fh) -> Iterator[bytearray]:
    """The rest of a binary file in pieces of about CHUNK_BYTES, each cut after a newline."""
    pending = bytearray()
    while block := fh.read(CHUNK_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut:
            yield pending + block[:cut]
            pending = bytearray(block[cut:])
        else:
            pending += block
    if pending:
        yield pending


def _shape_keys(buf, starts, ends, separators: bytes) -> np.ndarray:
    """Per line, its length and the offsets of `separators` packed 8 bits each.

    The key is -1 for a line longer than 255 bytes or missing a separator.
    """
    lines = np.arange(len(starts))
    keys = (ends - starts).astype(np.int64)
    keys[keys > 0xFF] = -1
    for sep in set(separators):
        pos = np.flatnonzero(buf == sep)
        line_of = np.searchsorted(ends, pos)
        first = np.searchsorted(line_of, lines)
        for nth, j in enumerate(j for j, s in enumerate(separators) if s == sep):
            idx = first + nth
            hit = idx < len(pos)
            hit[hit] = line_of[idx[hit]] == lines[hit]
            keys[~hit] = -1
            keys[hit] |= (pos[idx[hit]] - starts[hit]) << 8 * (j + 1)
    return keys


def _decode_shape(m: np.ndarray, format: str, length: int, a: int, b: int, c: int, dot: int):
    """Decode the (n, length) bytes of n lines that share one shape.

    `a`, `b`, `c` are the offsets of the first two spaces and the first
    ``#`` (candump) or of the first three commas (CSV); `dot` is that of
    the first ``.``. Returns None if no line of this shape can be read
    here, else a mask of the lines read exactly as the per-line parser
    reads them, with their timestamps, ids and (n, dlc) payloads.
    """
    if format == "candump":  # (<int>.<frac>) <iface> <id>#<hex>
        ts0, ts1, id0, id1 = 1, a - 1, b + 1, c
        fits = a + 1 < b < c
    else:  # <int>.<frac>,<id>,<dlc digit>,<hex>
        ts0, ts1, id0, id1 = 0, a, a + 1, b
        fits = c == b + 2
    n_hex = length - c - 1
    if not (
        fits and ts0 < dot < ts1 - 1 and ts1 - ts0 - 1 < len(_POW10)
        and 0 < id1 - id0 <= len(_POW16) and n_hex % 2 == 0 and n_hex <= 2 * MAX_DLC
    ):
        return None
    if format == "candump":
        ok = (m[:, 0] == ord("(")) & (m[:, ts1] == ord(")")) & (m[:, a + 1 : b] > ord(" ")).all(1)
    else:
        ok = m[:, b + 1] - ord("0") == n_hex // 2
    digits = np.concatenate((m[:, ts0:dot], m[:, dot + 1 : ts1]), axis=1) - ord("0")
    id_hex, data_hex = _HEX[m[:, id0:id1]], _HEX[m[:, c + 1 :]]
    ok &= (digits < 10).all(1) & (id_hex < 16).all(1) & (data_hex < 16).all(1)
    # int / 10**k is correctly rounded, so it equals float() for ints below 2**53
    numer = digits.astype(np.int64) @ _POW10[digits.shape[1] - 1 :: -1]
    ids = id_hex.astype(np.int64) @ _POW16[id1 - id0 - 1 :: -1]
    ok &= (numer < _EXACT_INT) & (ids <= EXTENDED_ID_MAX)
    timestamps = numer / float(10 ** (ts1 - dot - 1))
    return ok, timestamps, ids, data_hex[:, 0::2] << 4 | data_hex[:, 1::2]


def _decode_chunk(chunk: bytearray, format: str):
    """Decode the lines of a chunk in columns, grouped by shape.

    Returns a mask of the decoded lines, per-line columns holding their
    frames, and a function giving the text of line k. A chunk with a
    non-ASCII byte or a CR not followed by LF is split and decoded as text
    mode does, and none of its lines is decoded here.
    """
    if not chunk.isascii() or chunk.count(b"\r") != chunk.count(b"\r\n"):
        lines = list(io.TextIOWrapper(io.BytesIO(chunk)))
        return np.zeros(len(lines), bool), _columns(len(lines)), lines.__getitem__
    buf = np.frombuffer(chunk, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if not chunk.endswith(b"\n"):
        ends = np.append(ends, len(buf))
    starts = np.concatenate(([0], ends[:-1] + 1))
    ends -= (ends > starts) & (buf[ends - 1] == ord("\r"))  # a \r\n line ends at its \r
    decoded = np.zeros(len(starts), bool)
    cols = timestamps, ids, dlcs, payloads = _columns(len(starts))
    keys = _shape_keys(buf, starts, ends, _SEPARATORS[format])
    order = np.argsort(keys, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1):
        key = int(keys[rows[0]])
        if key < 0:
            continue
        length, *seps = ((key >> s) & 0xFF for s in range(0, 40, 8))
        lines = buf[starts[rows, None] + np.arange(length)]
        shape = _decode_shape(lines, format, length, *seps)
        if shape is None:
            continue
        ok, shape_timestamps, shape_ids, shape_payloads = shape
        rows, dlc = rows[ok], shape_payloads.shape[1]
        decoded[rows] = True
        timestamps[rows], ids[rows], dlcs[rows] = shape_timestamps[ok], shape_ids[ok], dlc
        payloads[rows, :dlc] = shape_payloads[ok]
    return decoded, cols, lambda k: chunk[starts[k] : ends[k]].decode("ascii")


def load_trace(path, format: str = "candump", strict: bool = True) -> Trace:
    """Load a capture file into a Trace, preserving file order.

    In strict mode any malformed line aborts with its line number; in
    lenient mode bad lines are skipped and counted in a single warning.
    Blank lines and ``#`` comments are always ignored (for CSV the header
    row is ignored too). Timestamps that go backwards are reported in a
    warning.

    The file is read in chunks. Lines of the common shapes are decoded in
    columns; every other line goes through `parse_candump_line` or
    `parse_csv_line` with its line number, so those define what is valid.
    """
    if format not in _SEPARATORS:
        raise AnalysisError(f"unknown capture format {format!r}")
    parse = parse_candump_line if format == "candump" else parse_csv_line
    skipped = 0

    def parse_line(raw: str, lineno: int) -> CanFrame | None:
        """One line by the per-line parser; None for a skipped line."""
        nonlocal skipped
        line = raw.strip()
        if not line or line.startswith("#"):
            return None
        if format == "csv" and line.replace(" ", "") == CSV_HEADER:
            return None
        try:
            return parse(line, lineno=lineno)
        except ParseError:
            if strict:
                raise
            skipped += 1
            return None

    with open(path, "rb") as fh:
        # a line ends at \n, \r or the end of the file and holds at most one frame
        capacity = 1 + sum(
            block.count(b"\n") + block.count(b"\r")
            for block in iter(lambda: fh.read(CHUNK_BYTES), b"")
        )
        fh.seek(0)
        out, size, lineno = _columns(capacity), 0, 1
        for chunk in _chunks(fh):
            decoded, cols, text = _decode_chunk(chunk, format)
            timestamps, ids, dlcs, payloads = cols
            for k in np.flatnonzero(~decoded).tolist():
                frame = parse_line(text(k), lineno + k)
                if frame is not None:
                    decoded[k] = True
                    timestamps[k], ids[k] = frame.timestamp, frame.arbitration_id
                    dlcs[k] = frame.dlc
                    payloads[k, : frame.dlc] = list(frame.payload)
            n = int(decoded.sum())
            for column, chunk_column in zip(out, cols):
                column[size : size + n] = chunk_column[decoded]
            size += n
            lineno += len(decoded)
    trace = Trace(*(column[:size] for column in out), source=str(path))
    if skipped:
        log.warning("%s: skipped %d malformed line(s)", path, skipped)
    try:
        trace.validate()
    except AnalysisError as exc:
        log.warning("%s: %s", path, exc)
    log.info("%s: %d frames", path, len(trace))
    return trace


def partition_by_id(trace: Trace) -> dict[tuple[int, int], IdTrace]:
    """Split a trace into per-(arbitration id, dlc) groups.

    Keying on (id, dlc) keeps each group at a fixed bit width even when an
    id violates the fixed-width assumption; such ids are reported in a
    warning. Groups come in ascending (id, dlc) order, and each keeps its
    frames in capture order.
    """
    keys = (trace.ids.astype(np.uint64) << np.uint64(4)) | trace.dlcs
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    cuts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    edges = [0, *cuts, len(keys)] if len(keys) else []
    group_keys = keys[edges[:-1]].tolist()
    del keys  # freed before the gathered columns, the largest arrays held here
    timestamps, payloads = trace.timestamps[order], trace.payloads[order]
    groups = {}
    for a, b, key in zip(edges, edges[1:], group_keys):
        arb_id, dlc = key >> 4, key & 0xF
        groups[(arb_id, dlc)] = IdTrace(arb_id, dlc, timestamps[a:b], payloads[a:b, :dlc])
    mixed = [i for i, n in Counter(i for i, _ in groups).items() if n > 1]
    if mixed:
        log.warning(
            "ids with multiple payload widths: %s",
            ", ".join(f"0x{i:X}" for i in mixed),
        )
    return groups
