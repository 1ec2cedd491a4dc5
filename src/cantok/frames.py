"""CAN capture ingestion: frame parsing, trace loading, per-ID partitioning.

Supported on-disk formats:

* candump compact: ``(<seconds.fraction>) <iface> <HEXID>#<HEXBYTES>``
* CSV with header ``timestamp,id,dlc,payload_hex``

A capture's whitespace is ASCII only; U+00A0 is part of a field. Both
per-line parsers split their record on it (CSV also strips it around a
field) and hand the field texts to one frame builder, which owns every rule
about a line: each field matches one ASCII pattern (a timestamp is
``<digits>[.<digits>]``, an id hex digits with an optional ``0x``, a CSV
dlc decimal digits, a payload hex pairs), the dlc fits the payload, and
the id and dlc are in range.

A `Trace` holds one read-only column per frame field, with payloads as an
(M, 8) matrix zero past each frame's dlc, and rejects an id above 29 bits
or a dlc above 8; an `IdTrace` holds one (id, dlc) group's timestamps and
(M, dlc) payloads. `CanFrame`, the row a parser returns and `Trace.frames`
yields, checks nothing.

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

Hex digits may be upper or lower case. Lines end at LF, CR LF or a lone
CR, as in text mode. Every other line, including each one holding a byte
of 0x80 or above, goes through `parse_candump_line`/`parse_csv_line`
with its line number, decoded as UTF-8, so those two functions define
what is valid and every error message. A line that is not valid UTF-8
is malformed unless it is blank or a ``#`` comment.

A shape's n lines are the rows of a strided (n, length) view of the
chunk. One byte-class table (digit, hex digit, ``(``, ``)``, interface
byte, any) maps all their bytes at once, and a line is decoded only if
each byte has the class the shape's template gives its column. Checked
digits are read by arithmetic: a hex digit byte c is worth
``(c & 0xF) + 9 * (c >> 6)``. `CHUNK_BYTES` is 128 KiB. Larger chunks
load CSV and many-id captures a little faster, but a chunk's temporaries
then exceed glibc's 128 KiB mmap threshold, and freeing them raises it,
so the heap holds more memory for the rest of the run (peak RSS +1-2%
at 256 KiB, +4% at 512 KiB).

The writers are the inverse, a columnar row encoder. For each block of
`ENCODE_ROWS` rows (`row_blocks`), every field becomes an (n, W) byte
matrix plus a mask of the bytes each row has (digits right-aligned,
separators broadcast); the masked bytes of the fields side by side
(`join_fields`), read row by row, are the lines. `write_candump` writes
a trace so; `signals.export_series_csv` joins each block's shared
columns once and writes them with each series' values.
`fixed6_field` matches ``f"{v:.6f}"`` byte for byte and hands that
f-string the rows it cannot show exact: a sixth decimal near a .5 tie, a
negative or non-finite value, or one of at least 2**53.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import AnalysisError, ParseError

log = logging.getLogger(__name__)

STANDARD_ID_MAX = 0x7FF
EXTENDED_ID_MAX = 0x1FFFFFFF
MAX_DLC = 8
OUTSIDE_ID_RANGE = "arbitration id 0x{:X} outside extended range"
OUTSIDE_DLC_RANGE = f"dlc {{}} outside 0..{MAX_DLC}"


class CanFrame(NamedTuple):
    """One timestamped CAN message, as a row; it checks nothing."""

    timestamp: float
    arbitration_id: int
    dlc: int
    payload: bytes


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

    def __post_init__(self):
        m = len(self.timestamps)
        _set_columns(
            self, timestamps=(np.float64, (m,)), ids=(np.uint32, (m,)),
            dlcs=(np.uint8, (m,)), payloads=(np.uint8, (m, MAX_DLC)),
        )
        for column, top, reason in ((self.ids, EXTENDED_ID_MAX, OUTSIDE_ID_RANGE),
                                    (self.dlcs, MAX_DLC, OUTSIDE_DLC_RANGE)):
            if column.max(initial=0) > top:  # a reduction: no temporary of length M
                raise AnalysisError(reason.format(column[np.argmax(column > top)]))

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


# The capture grammar, one pattern per field. A field is converted only
# after it matches, so `float`, `int` and `bytes.fromhex` never see what
# they read but a capture must not hold: a sign, an exponent, ``_``,
# non-ASCII digits or inner whitespace.
_TIMESTAMP = re.compile(r"[0-9]+(?:\.[0-9]+)?")
_HEX_ID = re.compile(r"(?:0[xX])?[0-9A-Fa-f]+")
_DLC = re.compile(r"\s*[0-9]+\s*", re.ASCII)
_PAYLOAD = re.compile(r"(?:[0-9A-Fa-f]{2})*")
_SPACE = " \t\n\r\f\v"  # a capture's whitespace; str.split() also takes U+00A0


def parse_hex_id(text) -> int:
    """An arbitration id as read from any input: a string of ASCII hex digits
    with an optional ``0x``, else ValueError. `int(text, 16)` alone also reads
    a sign, ``_``, surrounding whitespace and non-ASCII digits."""
    if not isinstance(text, str) or not _HEX_ID.fullmatch(text):
        raise ValueError(f"not a hex id: {text!r}")
    return int(text, 16)


def require_uints(obj) -> None:
    """Raise TypeError unless each ``int`` field of dataclass `obj` holds an int, not a
    bool (an ``int | None`` one may hold None), and ValueError if one is negative."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "int" or f.type == "int | None" and value is not None:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{f.name} must be an integer, not {value!r}")
            if value < 0:
                raise ValueError(f"{f.name} must be nonnegative, not {value}")


def _build_frame(
    line: str, lineno: int | None, ts: str, arb_id: str, hexdata: str, dlc: str | None = None
) -> CanFrame:
    """The frame a record's field texts give, else ParseError for `line`.

    A candump record has no dlc field (`dlc` None); its payload sets the dlc.
    """
    if not _TIMESTAMP.fullmatch(ts) or not math.isfinite(seconds := float(ts)):
        raise ParseError(line, "malformed timestamp", lineno)  # 400 digits read as inf
    if not _HEX_ID.fullmatch(arb_id):
        raise ParseError(line, f"unparsable id {arb_id!r}", lineno)
    if dlc is not None and not _DLC.fullmatch(dlc):
        raise ParseError(line, f"unparsable dlc {dlc!r}", lineno)
    if len(hexdata) % 2:
        raise ParseError(line, "odd-length hex payload", lineno)
    if not _PAYLOAD.fullmatch(hexdata):
        raise ParseError(line, "non-hex payload", lineno)
    payload = bytes.fromhex(hexdata)
    if dlc is None:
        if len(payload) > MAX_DLC:
            raise ParseError(line, f"payload of {len(payload)} bytes exceeds 8", lineno)
    elif (digits := dlc.strip(_SPACE).lstrip("0") or "0") != str(len(payload)):
        # compared as text: `int` refuses a number of more than 4300 digits
        reason = f"dlc {digits} does not match payload of {len(payload)} bytes"
        raise ParseError(line, reason, lineno)
    if (arb := int(arb_id, 16)) > EXTENDED_ID_MAX:
        raise ParseError(line, OUTSIDE_ID_RANGE.format(arb), lineno)
    if len(payload) > MAX_DLC:  # a CSV dlc; a longer candump payload failed above
        raise ParseError(line, OUTSIDE_DLC_RANGE.format(len(payload)), lineno)
    return CanFrame(seconds, arb, len(payload), payload)


def parse_candump_line(line: str, lineno: int | None = None) -> CanFrame:
    """Decode one compact candump record.

    Format: ``(<ts>) <iface> <ID>#<HEXDATA>``. The interface name is
    discarded; payload hex pairs map to bytes in transmission order.
    """
    parts = re.findall(r"\S+", line, re.ASCII)  # split on runs of _SPACE only
    if len(parts) != 3 or not parts[0].startswith("(") or not parts[0].endswith(")"):
        raise ParseError(line, "not a candump record", lineno)
    arb_id, sep, hexdata = parts[2].partition("#")
    if not sep:
        raise ParseError(line, "missing '#' separator", lineno)
    return _build_frame(line, lineno, parts[0][1:-1], arb_id, hexdata)


CSV_HEADER = "timestamp,id,dlc,payload_hex"


def parse_csv_line(line: str, lineno: int | None = None) -> CanFrame:
    """Decode one ``timestamp,id,dlc,payload_hex`` record like parse_candump_line.

    ASCII whitespace around a field is ignored.
    """
    try:
        row = next(csv.reader(io.StringIO(line)))
    except StopIteration:
        raise ParseError(line, "empty record", lineno) from None
    if len(row) < 4:
        raise ParseError(line, "missing column (need 4 fields)", lineno)
    ts, arb_id, dlc, hexdata = row[:4]
    return _build_frame(
        line, lineno, ts.strip(_SPACE), arb_id.strip(_SPACE), hexdata.strip(_SPACE), dlc
    )


ENCODE_ROWS = 1 << 16  # rows encoded per block; bounds the writers' memory
_EXACT_INT = 1 << 53  # integers below this are exact float64 values

_POW10_U64 = 10 ** np.arange(20, dtype=np.uint64)  # every power below 2**64
_HEX_UPPER = np.frombuffer(b"0123456789ABCDEF", np.uint8)


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """The last `width` decimal digits of each uint64, as ASCII bytes."""
    out = np.empty((len(values), width), np.uint8)
    for j in range(width - 1, -1, -1):
        # numpy divides by a scalar with a multiply, several times faster than by an array
        quotient = values // np.uint64(10)
        out[:, j] = values - quotient * np.uint64(10)
        values = quotient
    return out + np.uint8(ord("0"))


def decimal_field(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``str(v)`` of each uint64 as a field for `join_fields`."""
    ndigits = np.maximum(np.searchsorted(_POW10_U64, values, side="right"), 1)
    width = int(ndigits.max(initial=1))
    return _digits(values, width), np.arange(width) >= width - ndigits[:, None]


def fixed6_field(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``f"{v:.6f}"`` of each float64 as a field for `join_fields`.

    `floor(v)` and ``v - floor(v)`` are exact, and their product with 1e6
    (< 2**20) is within 2**-33 of the exact one, so `rint` rounds it as
    the f-string does unless it lies near a .5 tie. Rows near a tie, and
    negative, non-finite and >= 2**53 values, are formatted by the f-string.
    """
    with np.errstate(invalid="ignore"):
        whole = np.floor(x)
        micros = (x - whole) * 1e6
        exact = ~np.signbit(x) & (x < _EXACT_INT)
        exact &= np.abs(micros - np.floor(micros) - 0.5) >= 1e-6
    micros = np.where(exact, np.rint(micros), 0).astype(np.uint64)
    carry = micros == 10**6  # whose last six digits, all the row writes, are 000000
    digits, present = decimal_field(np.where(exact, whole, 0).astype(np.uint64) + carry)
    digits = np.concatenate(
        (digits, np.full((len(x), 1), ord("."), np.uint8), _digits(micros, 6)), axis=1
    )
    present = np.concatenate((present, np.ones((len(x), 7), bool)), axis=1)
    slow = np.flatnonzero(~exact)
    if slow.size:
        texts = [f"{v:.6f}".encode() for v in x[slow].tolist()]
        grow = max(map(len, texts)) - digits.shape[1]
        if grow > 0:
            digits = np.pad(digits, ((0, 0), (0, grow)))
            present = np.pad(present, ((0, 0), (0, grow)))
        present[slow] = False
        for row, text in zip(slow.tolist(), texts):
            digits[row, : len(text)] = np.frombuffer(text, np.uint8)
            present[row, : len(text)] = True
    return digits, present


def row_blocks(n: int) -> Iterator[slice]:
    """Slices of at most ENCODE_ROWS rows that cover range(n) in order."""
    for start in range(0, n, ENCODE_ROWS):
        yield slice(start, min(start + ENCODE_ROWS, n))


def join_fields(fields, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The fields of k rows side by side, in line order, as one field.

    A field is a literal ``bytes`` or a pair of (k, W) matrices, the
    field's bytes and which of them each row has. The present bytes of
    the joined field, read row by row, are the lines.
    """
    chars, present = [], []
    for field in fields:
        if isinstance(field, bytes):
            chars.append(np.broadcast_to(np.frombuffer(field, np.uint8), (k, len(field))))
            present.append(np.broadcast_to(True, (k, len(field))))
        else:
            chars.append(field[0])
            present.append(field[1])
    return np.concatenate(chars, axis=1), np.concatenate(present, axis=1)


def write_candump(trace: Trace, path) -> None:
    """Write a trace as compact candump lines on interface can0.

    Standard ids get 3 hex digits, extended ids 8; timestamps keep
    microsecond precision.
    """
    with open(path, "wb") as fh:
        for rows in row_blocks(len(trace)):
            ids, payloads = trace.ids[rows], trace.payloads[rows]
            id_hex = _HEX_UPPER[ids[:, None] >> np.arange(28, -1, -4, dtype=np.uint32) & 0xF]
            id_width = np.where(ids > STANDARD_ID_MAX, 8, 3)
            nibbles = np.stack((payloads >> 4, payloads & 0xF), axis=2).reshape(-1, 2 * MAX_DLC)
            chars, present = join_fields([
                b"(", fixed6_field(trace.timestamps[rows]), b") can0 ",
                (id_hex, np.arange(8) >= 8 - id_width[:, None]), b"#",
                (_HEX_UPPER[nibbles], np.arange(2 * MAX_DLC) < 2 * trace.dlcs[rows, None]),
                b"\n",
            ], len(ids))
            fh.write(chars[present].tobytes())


CHUNK_BYTES = 1 << 17  # read size; each chunk is cut after its last line end

# Separator bytes of a line shape, in the order its key packs their offsets;
# a byte listed twice stands for its first and its second occurrence.
_SEPARATORS = {"candump": b"  #.", "csv": b",,,."}

# Byte classes as bit flags, a `bytes.translate` table. A line is decoded only
# if each of its bytes has the class its shape's template gives its column.
_DIGIT, _HEX, _OPEN, _CLOSE, _IFACE, _ANY = 1, 2, 4, 8, 16, 32
_CLASS_TABLE = bytes(
    _ANY | _IFACE * (0x20 < c < 0x80) | _DIGIT * (c in b"0123456789") | _OPEN * (c == ord("("))
    | _HEX * (c in b"0123456789ABCDEFabcdef") | _CLOSE * (c == ord(")"))
    for c in range(256)
)  # _IFACE: printable ASCII, which the record split keeps in a field


def _columns(n: int) -> list[np.ndarray]:
    """Timestamp, id, dlc and (n, 8) payload columns for n frames."""
    return [
        np.empty(n), np.empty(n, np.uint32), np.empty(n, np.uint8),
        np.zeros((n, MAX_DLC), np.uint8),
    ]


def _chunks(fh) -> Iterator[bytes]:
    """The rest of a binary file in pieces that each end a line (or the file).

    A piece is cut after its last LF or CR, so it holds at most CHUNK_BYTES
    plus one line, but never between a CR and an LF after it.
    """
    rest = []
    while block := fh.read(CHUNK_BYTES):
        if block.endswith(b"\r"):
            block += fh.read(1)  # the LF of a CR LF, if any, so the CR is not last
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
        if cut:
            yield b"".join((*rest, memoryview(block)[:cut]))  # one copy of the block
            rest = []
        rest.append(block[cut:])
    if tail := b"".join(rest):
        yield tail


def _shape_keys(buf, starts, ends, separators: bytes) -> np.ndarray:
    """Per line, its length and the offsets of `separators` packed 8 bits each.

    The key is -1 for a line longer than 255 bytes or missing a separator.
    """
    keys = np.where(ends - starts > 0xFF, -1, ends - starts)
    for sep in set(separators):
        pos = np.append(np.flatnonzero(buf == sep), len(buf))  # len(buf) is past every line
        first = np.searchsorted(pos, starts)  # each line's first `sep` is pos[first], if any
        for nth, j in enumerate(j for j, s in enumerate(separators) if s == sep):
            at = pos[np.minimum(first + nth, len(pos) - 1)]
            keys = np.where(at < ends, keys | (at - starts) << 8 * (j + 1), -1)
    return keys


def _decode_shape(m: np.ndarray, format: str, length: int, a: int, b: int, c: int, dot: int):
    """Decode the (n, length) bytes of n lines that share one shape.

    `a`, `b`, `c` are the offsets of the first two spaces and the first
    ``#`` (candump) or of the first three commas (CSV); `dot` is that of
    the first ``.``. Returns None if no line of this shape can be read
    here, else a mask of the lines read exactly as the per-line parser
    reads them, with their timestamps, ids and (n, dlc) payloads.
    """
    template = np.full(length, _ANY, np.uint8)  # the class each column's bytes must have
    if format == "candump":  # (<int>.<frac>) <iface> <id>#<hex>
        ts0, ts1, id0, id1 = 1, a - 1, b + 1, c
        fits = a + 1 < b < c
        template[[0, ts1]] = _OPEN, _CLOSE
        template[a + 1 : b] = _IFACE
    else:  # <int>.<frac>,<id>,<dlc digit>,<hex>
        ts0, ts1, id0, id1 = 0, a, a + 1, b
        fits = c == b + 2
    n_hex = length - c - 1
    if not (
        fits and ts0 < dot < ts1 - 1 and ts1 - ts0 - 1 <= 18
        and 0 < id1 - id0 <= 8 and n_hex % 2 == 0 and n_hex <= 2 * MAX_DLC
    ):
        return None
    template[ts0:dot] = template[dot + 1 : ts1] = _DIGIT
    template[id0:id1] = template[c + 1 :] = _HEX
    classes = np.frombuffer(m.tobytes().translate(_CLASS_TABLE), np.uint8)
    ok = np.ones(len(m), bool)
    ok[np.flatnonzero(classes.reshape(m.shape) & template == 0) // length] = False
    if format == "csv":
        ok &= m[:, b + 1] - ord("0") == n_hex // 2
    values = (m & 0xF) + 9 * (m >> 6)  # of a hex digit: low nibble, +9 for A-F and a-f
    # <= 18 digits fit an int64; below 2**53, int / 10**k rounds as float() does
    numer = np.zeros(len(m), np.int64)
    for j in (*range(ts0, dot), *range(dot + 1, ts1)):
        numer = numer * 10 + values[:, j]
    ids = np.zeros(len(m), np.int64)
    for j in range(id0, id1):
        ids = ids * 16 + values[:, j]
    ok &= (numer < _EXACT_INT) & (ids <= EXTENDED_ID_MAX)
    timestamps = numer / float(10 ** (ts1 - dot - 1))
    return ok, timestamps, ids, values[:, c + 1 :: 2] << 4 | values[:, c + 2 :: 2]


def _decode_chunk(chunk: bytes, format: str):
    """Decode the lines of a chunk in columns, grouped by shape.

    Lines end at LF, CR LF or a lone CR, as in text mode. Returns a mask
    of the decoded lines, per-line columns holding their frames, and a
    function giving the bytes of line k. No line holding a byte >= 0x80
    is decoded here: no column template accepts such a byte.
    """
    buf = np.frombuffer(chunk, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if b"\r" in chunk:  # a memchr; most captures hold no CR
        cr = np.flatnonzero(buf == ord("\r"))
        lone = cr[buf[np.minimum(cr + 1, len(buf) - 1)] != ord("\n")]  # a final CR reads itself
        ends = np.sort(np.concatenate((ends, lone)))
    if not chunk.endswith((b"\n", b"\r")):
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
        lines = np.lib.stride_tricks.sliding_window_view(buf, length)[starts[rows]]
        shape = _decode_shape(lines, format, length, *seps)
        if shape is None:
            continue
        ok, shape_timestamps, shape_ids, shape_payloads = shape
        rows, dlc = rows[ok], shape_payloads.shape[1]
        decoded[rows] = True
        timestamps[rows], ids[rows], dlcs[rows] = shape_timestamps[ok], shape_ids[ok], dlc
        payloads[rows, :dlc] = shape_payloads[ok]
    return decoded, cols, lambda k: chunk[starts[k] : ends[k]]


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

    def parse_line(raw: bytes, lineno: int) -> CanFrame | None:
        """One line by the per-line parser; None for a skipped line."""
        nonlocal skipped
        text = raw.decode("utf-8", "replace")
        line = text.strip(_SPACE)
        if not line or line.startswith("#"):
            return None
        if format == "csv" and line.replace(" ", "") == CSV_HEADER:
            return None
        try:
            if text.encode() != raw:  # only invalid UTF-8 changes under "replace"
                raise ParseError(line, "invalid UTF-8", lineno)
            return parse(line, lineno=lineno)
        except ParseError:
            if strict:
                raise
            skipped += 1
            return None

    with open(path, "rb") as fh:
        # a line ends at \n, \r or the end of the file and holds at most one frame
        capacity = 1 + sum(
            block.count(b"\n") + (block.count(b"\r") if b"\r" in block else 0)
            for block in iter(lambda: fh.read(CHUNK_BYTES), b"")
        )
        fh.seek(0)
        out, size, lineno = _columns(capacity), 0, 1
        for chunk in _chunks(fh):
            decoded, cols, line = _decode_chunk(chunk, format)
            timestamps, ids, dlcs, payloads = cols
            for k in np.flatnonzero(~decoded).tolist():
                frame = parse_line(line(k), lineno + k)
                if frame is not None:
                    decoded[k] = True
                    timestamps[k], ids[k], dlcs[k], payload = frame
                    payloads[k, : len(payload)] = list(payload)
            n = int(decoded.sum())
            for column, chunk_column in zip(out, cols):
                column[size : size + n] = chunk_column[decoded]
            size += n
            lineno += len(decoded)
    trace = Trace(*(column[:size] for column in out))
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
