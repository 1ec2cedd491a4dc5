"""CAN capture ingestion: frame parsing, trace loading, per-ID partitioning.

Supported on-disk formats:

* candump compact: ``(<seconds.fraction>) <iface> <HEXID>#<HEXBYTES>``
* CSV with header ``timestamp,id,dlc,payload_hex``

A `Trace` holds one read-only column per frame field, with payloads as an
(M, 8) matrix zero past each frame's dlc; an `IdTrace` holds one (id, dlc)
group's timestamps and (M, dlc) payloads. `CanFrame` is the result of
parsing one line and the row type `Trace.frames` yields.
"""

from __future__ import annotations

import csv
import io
import logging
from array import array
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
        back = np.flatnonzero(np.diff(self.timestamps) < 0)
        if back.size:
            a, b = self.timestamps[back[0] : back[0] + 2].tolist()
            raise AnalysisError(f"timestamps decrease: {a} -> {b}")

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


def parse_candump_line(line: str, lineno: int | None = None) -> CanFrame:
    """Decode one compact candump record.

    Format: ``(<ts>) <iface> <ID>#<HEXDATA>``. The interface name is
    discarded; payload hex pairs map to bytes in transmission order.
    """
    parts = line.split()
    if len(parts) != 3 or not parts[0].startswith("(") or not parts[0].endswith(")"):
        raise ParseError(line, "not a candump record", lineno)
    try:
        ts = float(parts[0][1:-1])
    except ValueError:
        raise ParseError(line, "malformed timestamp", lineno) from None
    idstr, sep, hexdata = parts[2].partition("#")
    if not sep:
        raise ParseError(line, "missing '#' separator", lineno)
    try:
        arb_id = int(idstr, 16)
    except ValueError:
        raise ParseError(line, f"unparsable id {idstr!r}", lineno) from None
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


@dataclass(frozen=True)
class CsvSchema:
    """Column layout for CSV captures; indices are zero-based."""

    timestamp: int = 0
    id: int = 1
    dlc: int = 2
    payload_hex: int = 3
    id_base: int = 16  # 16 for hex id columns, 10 for decimal


DEFAULT_CSV_SCHEMA = CsvSchema()
CSV_HEADER = "timestamp,id,dlc,payload_hex"


def parse_csv_line(
    line: str,
    schema: CsvSchema = DEFAULT_CSV_SCHEMA,
    lineno: int | None = None,
) -> CanFrame:
    """Decode one CSV record; same semantics as parse_candump_line."""
    try:
        row = next(csv.reader(io.StringIO(line)))
    except StopIteration:
        raise ParseError(line, "empty record", lineno) from None
    needed = max(schema.timestamp, schema.id, schema.dlc, schema.payload_hex)
    if len(row) <= needed:
        raise ParseError(line, f"missing column (need {needed + 1} fields)", lineno)
    try:
        ts = float(row[schema.timestamp])
    except ValueError:
        raise ParseError(line, "malformed timestamp", lineno) from None
    idstr = row[schema.id].strip()
    try:
        if idstr.lower().startswith("0x"):
            arb_id = int(idstr, 16)
        else:
            arb_id = int(idstr, schema.id_base)
    except ValueError:
        raise ParseError(line, f"unparsable id {idstr!r}", lineno) from None
    try:
        dlc = int(row[schema.dlc])
    except ValueError:
        raise ParseError(line, f"unparsable dlc {row[schema.dlc]!r}", lineno) from None
    hexdata = row[schema.payload_hex].strip()
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


def load_trace(path, format: str = "candump", strict: bool = True) -> Trace:
    """Load a capture file into a Trace, preserving file order.

    In strict mode any malformed line aborts with its line number; in
    lenient mode bad lines are skipped and counted in a single warning.
    Blank lines and ``#`` comments are always ignored (for CSV the header
    row is ignored too).
    """
    if format not in ("candump", "csv"):
        raise AnalysisError(f"unknown capture format {format!r}")
    parse = parse_candump_line if format == "candump" else parse_csv_line
    timestamps, ids, dlcs, payloads = array("d"), array("L"), bytearray(), bytearray()
    skipped = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
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
    trace = Trace(timestamps, ids, dlcs, np.reshape(payloads, (-1, MAX_DLC)), str(path))
    if skipped:
        log.warning("%s: skipped %d malformed line(s)", path, skipped)
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
    timestamps, payloads = trace.timestamps[order], trace.payloads[order]
    cuts = (np.flatnonzero(np.diff(keys)) + 1).tolist()
    edges = [0, *cuts, len(keys)] if len(keys) else []
    groups = {}
    for a, b in zip(edges, edges[1:]):
        arb_id, dlc = int(keys[a]) >> 4, int(keys[a]) & 0xF
        groups[(arb_id, dlc)] = IdTrace(arb_id, dlc, timestamps[a:b], payloads[a:b, :dlc])
    mixed = [i for i, n in Counter(i for i, _ in groups).items() if n > 1]
    if mixed:
        log.warning(
            "ids with multiple payload widths: %s",
            ", ".join(f"0x{i:X}" for i in mixed),
        )
    return groups
