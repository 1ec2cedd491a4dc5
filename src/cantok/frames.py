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

A `Trace` holds one read-only column per frame field, a payload as one
uint64 of `words` (its bytes in memory order, zero past the dlc). An
`IdTrace` holds one (id, dlc) group's timestamps and `words`, slices of
those `partition_by_id` gathers, and `payloads` views them as (M, dlc)
bytes. Both reject an id above 29 bits or a dlc above 8. Either may have
`timestamps` None: ``load_trace(path, timestamps=False)`` keeps 13 bytes
a frame, not 21, for analyses that read payloads only, and what needs
the column (`timestamps_of`) raises AnalysisError without it.
`CanFrame`, the row a parser returns and `Trace.frames` yields, checks nothing.

`load_trace` reads a capture in chunks of about `CHUNK_BYTES` and decodes
most lines in columns with numpy, one line length at a time. It decodes a
line there only when it can show the result equals the per-line parser's:

* candump ``(<digits>.<digits>) <iface> <id>#<hex>`` with single spaces,
  no other whitespace, 1-8 id digits, an even number of payload digits up
  to 16, an id of at most 29 bits and a timestamp of at most 18 digits
  whose digits read as an integer stay below 2**53;
* CSV ``<digits>.<digits>,<id>,<dlc>,<hex>`` with the same id, payload
  and timestamp rules, a one-digit dlc equal to the payload length and
  nothing else on the line.

Hex digits may be upper or lower case. Lines end at LF, CR LF or a lone
CR, as in text mode, and a UTF-8 byte order mark opening the file is
skipped. Every other line, including each one holding a byte of 0x80 or
above, goes through `parse_candump_line`/`parse_csv_line` with its line
number, decoded as UTF-8, so those two functions define what is valid and
every error message. A line that is not valid UTF-8 is malformed unless it
is blank or a ``#`` comment.

A chunk's lines are grouped by length, and each group is peeled in
rounds. A round takes the template of the first line still undecided:
the columns of its fields, each with a byte class (digit, hex digit or
interface byte), and its other bytes and CSV dlc as literals. A template
is guessed once per load for each line shape (the line with every hex
digit as 0) and kept for later chunks. The undecided lines with its
literals are decoded if each byte has its column's class and the numbers
are in range. They leave the group either way, as does a first line that
gives no template or lacks a kept one's literals (a CSV dlc that does not
match its payload), and a line not decoded goes to the per-line parser.
A group's lines, each with its end byte, are the contiguous rows of a
matrix of the chunk translated by one byte-class table. If every line of
the chunk has the first one's length W with its LF (the chunk holds no CR,
its size is a multiple of W and its LFs are exactly every W-th byte), the
matrix is a reshape of the translated chunk, with no scan for line ends and
no sort. Else the lines are sorted by length and each group's rows are
gathered (a final line with no end byte gets a sentinel). A round reads its
rows in long passes: the class check against the template's class row
tiled for them, the digit values, and each field's number from 8-byte
words read a row apart, 8 digits a word (`_numbers`).
`CHUNK_BYTES` is 512 KiB. A load reads the file into one buffer, first to
count its lines and then chunk by chunk, translates each chunk into a
second, takes digit values in a third and reads their words into a fourth.
Each round writes all its lines straight into their rows of the trace's
columns, and a chunk's rows move up only if it skipped lines. A load without
timestamps still decodes each chunk's, into a fifth buffer of 8 bytes a line,
so the warning on timestamps that go backwards is worked out chunk by chunk
either way. So no chunk-sized array is freed per chunk: that raises glibc's
mmap threshold, and the heap then holds more memory for the rest of the run.

The writers are the inverse, a columnar row encoder. A call fills one
`line_matrix` of up to `BLOCK_ROWS` rows whose literal bytes are set once.
For each block of rows (`row_blocks`) it writes every field into its own
columns, right-aligned after NULs: decimal digits four at a time from a
table of ``b"%04d"`` or its twin with leading zeros NUL, hex digits four
at a time from one of ``b"%02X%02X"``. One `bytes.translate` deletes the NULs.
`fixed6_field` matches ``f"{v:.6f}"`` and hands that f-string the rows it
cannot show exact: near a .5 tie, negative, non-finite or at least 2**53.
"""

from __future__ import annotations

import codecs
import csv
import functools
import io
import json
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


def _set_columns(obj, **dtypes) -> None:
    """Store obj's `timestamps` (unless None) as float64, each ``name=dtype`` column and `words`
    as uint64, as read-only (M,) arrays, M the length of `timestamps` or else of `words`;
    AnalysisError if one holds a value its dtype cannot hold exactly."""
    stamps = {} if obj.timestamps is None else {"timestamps": np.float64}
    shape = (len(obj.words if obj.timestamps is None else obj.timestamps),)
    for name, dtype in (stamps | dtypes | {"words": np.uint64}).items():
        a = np.asarray(getattr(obj, name))
        # `astype` would read decimal digits: "100" as 100, not 0x100
        if a.dtype.kind in "US" or a.dtype.kind == "O" and any(
                isinstance(v, (str, bytes)) for v in a.flat):
            raise AnalysisError(f"{name} of {a.dtype} holds text, not numbers")
        if a.dtype != dtype:
            try:
                with np.errstate(invalid="ignore"):  # NaN and inf cast to some number
                    cast = a.astype(dtype)
                    # an int64 column is cast to uint64 and back without loss: check its sign
                    wraps = a < 0 if a.dtype.kind == "i" and cast.dtype.kind == "u" else False
                    inexact = np.flatnonzero((cast.astype(a.dtype) != a) | wraps)
            except (TypeError, ValueError, OverflowError) as exc:  # an int of 2**64
                raise AnalysisError(f"{name} of {a.dtype}: {exc}") from None
            if inexact.size:
                value = a.flat[inexact[0]]
                raise AnalysisError(f"{name} holds {value}, which is not a {np.dtype(dtype)}")
            a = cast
        a = a.view()
        if a.shape != shape:
            raise AnalysisError(f"{name} of shape {a.shape}, expected {shape}")
        a.flags.writeable = False
        object.__setattr__(obj, name, a)


def timestamps_of(trace: Trace | IdTrace) -> np.ndarray:
    """The timestamps column of a Trace or IdTrace, else AnalysisError naming it."""
    if trace.timestamps is None:
        raise AnalysisError(f"{type(trace).__name__} has no timestamps column "
                            "(it was loaded with timestamps=False)")
    return trace.timestamps


def _steps_back(stamps: np.ndarray, before: float = -math.inf) -> tuple[int, tuple | None]:
    """How many stamps are below the one before them (`before` for the first),
    and the first one's (index, stamp before it, stamp), else None."""
    back = np.flatnonzero(stamps[1:] < stamps[:-1]) + 1
    head = bool(len(stamps) and stamps[0] < before)
    if not (count := head + back.size):
        return 0, None
    k = 0 if head else int(back[0])
    return count, (k, before if head else float(stamps[k - 1]), float(stamps[k]))


def _decrease(count: int, frame: int, a: float, b: float) -> str:
    """The report of timestamps that go backwards: how often, where first, from what to what."""
    return f"timestamps decrease {count} time(s), first at frame {frame}: {a} -> {b}"


@dataclass(frozen=True, slots=True, eq=False)
class Trace:
    """Chronologically ordered capture, one column per frame field; a trace
    loaded without timestamps has `timestamps` None."""

    timestamps: np.ndarray | None  # (M,) float64 seconds
    ids: np.ndarray  # (M,) uint32 arbitration ids
    dlcs: np.ndarray  # (M,) uint8
    words: np.ndarray  # (M,) uint64, the 8 payload bytes in memory order, zero past the dlc

    def __post_init__(self):
        _set_columns(self, ids=np.uint32, dlcs=np.uint8)
        for column, top, reason in ((self.ids, EXTENDED_ID_MAX, OUTSIDE_ID_RANGE),
                                    (self.dlcs, MAX_DLC, OUTSIDE_DLC_RANGE)):
            if column.max(initial=0) > top:  # a reduction: no temporary of length M
                raise AnalysisError(reason.format(column[np.argmax(column > top)]))

    @property
    def frames(self) -> Iterator[CanFrame]:
        """Row view: one CanFrame per frame, in capture order."""
        blob = self.words.tobytes()
        rows = zip(timestamps_of(self).tolist(), self.ids.tolist(), self.dlcs.tolist())
        return (CanFrame(ts, arb_id, dlc, blob[MAX_DLC * k : MAX_DLC * k + dlc])
                for k, (ts, arb_id, dlc) in enumerate(rows))

    def validate(self) -> None:
        """Check the nondecreasing-timestamp invariant; raise on violation."""
        count, first = _steps_back(timestamps_of(self))
        if count:
            raise AnalysisError(_decrease(count, *first))

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True, slots=True, eq=False)
class IdTrace:
    """All frames of one (arbitration id, dlc) group, in capture order."""

    arbitration_id: int
    dlc: int
    timestamps: np.ndarray | None  # (M,) float64 seconds, or None
    words: np.ndarray  # (M,) uint64, the payload bytes in memory order, as in Trace.words

    def __post_init__(self):
        if not 0 <= self.arbitration_id <= EXTENDED_ID_MAX:
            raise AnalysisError(OUTSIDE_ID_RANGE.format(self.arbitration_id))
        if not 0 <= self.dlc <= MAX_DLC:
            raise AnalysisError(OUTSIDE_DLC_RANGE.format(self.dlc))
        _set_columns(self)

    @property
    def payloads(self) -> np.ndarray:
        """Read-only (M, dlc) uint8 view of the payload bytes of `words`."""
        return self.words[:, None].view(np.uint8)[:, : self.dlc]

    @property
    def bit_width(self) -> int:
        return 8 * self.dlc

    def __len__(self) -> int:
        return len(self.words)


# The capture grammar, one pattern per field. A field is converted only
# after it matches, so `float`, `int` and `bytes.fromhex` never see what
# they read but a capture must not hold: a sign, an exponent, ``_``,
# non-ASCII digits or inner whitespace.
_TIMESTAMP = re.compile(r"[0-9]+(?:\.[0-9]+)?")
_HEX_ID = re.compile(r"(?:0[xX])?[0-9A-Fa-f]+")
_DLC = re.compile(r"\s*[0-9]+\s*", re.ASCII)
_PAYLOAD = re.compile(r"[0-9A-Fa-f]*")  # even length is checked first; no state kept per pair
_SPACE = " \t\n\r\f\v"  # a capture's whitespace; str.split() also takes U+00A0


def parse_hex_id(text) -> int:
    """An arbitration id as read from any input: a string of ASCII hex digits
    with an optional ``0x``, else ValueError. `int(text, 16)` alone also reads
    a sign, ``_``, surrounding whitespace and non-ASCII digits."""
    if not isinstance(text, str) or not _HEX_ID.fullmatch(text):
        raise ValueError(f"not a hex id: {text!r}")
    return int(text, 16)


@functools.cache
def _int_fields(cls) -> tuple[tuple[str, bool], ...]:
    """(name, may hold None) of each ``int`` and ``int | None`` field of dataclass `cls`."""
    return tuple((f.name, f.type != "int") for f in fields(cls) if f.type in ("int", "int | None"))


def require_uints(obj) -> None:
    """Raise TypeError unless each ``int`` field of dataclass `obj` holds an int, not a
    bool (an ``int | None`` one may hold None), and ValueError if one is negative."""
    for name, optional in _int_fields(type(obj)):
        value = getattr(obj, name)
        if not optional or value is not None:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, not {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, not {value}")


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
        # linux/can.h: CAN_ERR_FLAG 0x20000000 marks an error frame, whose dlc is 8
        error = arb >> 29 == 1 and len(payload) == MAX_DLC
        reason = "error frame (CAN_ERR_FLAG)" if error else OUTSIDE_ID_RANGE.format(arb)
        raise ParseError(line, reason, lineno)
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
    if hexdata[:1] in ("R", "#"):  # can-utils lib.c: <id>#R[<len>] and <id>##<flags><data>
        raise ParseError(line, {"R": "remote frame (RTR)", "#": "CAN FD frame"}[hexdata[0]], lineno)
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
    except csv.Error as exc:  # a field over `csv.field_size_limit()` characters
        raise ParseError(line, str(exc), lineno) from None
    if len(row) < 4:
        raise ParseError(line, "missing column (need 4 fields)", lineno)
    ts, arb_id, dlc, hexdata = row[:4]
    return _build_frame(
        line, lineno, ts.strip(_SPACE), arb_id.strip(_SPACE), hexdata.strip(_SPACE), dlc
    )


BLOCK_ROWS = 1 << 14  # rows per block of the writers' and partition's passes; bounds temporaries
_EXACT_INT = 1 << 53  # integers below this are exact float64 values


def _dec4_table() -> np.ndarray:
    """(2, 10**4) uint32: the bytes of each number's b"%04d", its leading zeros NUL, then as is."""
    n, place = np.arange(10**4, dtype=np.uint16)[:, None], np.array([1000, 100, 10, 1], np.uint16)
    digits = (n // place % 10 + ord("0")).astype(np.uint8)
    return np.stack((np.where(n < place, 0, digits), digits)).view(np.uint32).reshape(2, -1)


_DEC4 = _dec4_table()
_DOT2 = np.frombuffer(b"".join(b"\0.%02d" % v for v in range(100)), np.uint32)  # micros' head
_HEX2 = np.frombuffer(b"0123456789ABCDEF", np.uint8)[  # 256 uint16: each byte's b"%02X"
    np.arange(256)[:, None] >> [4, 0] & 0xF].view(np.uint16).ravel()
# digits of a row `write_candump` keeps: of 8 id digits 3 (standard) or 8, 2 a payload byte
_ID_KEEP = np.frombuffer(b"\0" * 5 + b"\xff" * 11, np.uint64)
_DLC_KEEP = np.frombuffer(b"".join(b"\xff" * 2 * d + b"\0" * (16 - 2 * d) for d in range(9)),
                          np.uint64).reshape(9, 2)


def decimal_width(top: int) -> int:
    """Bytes of a `decimal_field` for values up to `top`: 4 per group of 4 digits."""
    return 4 * -(-len(str(top)) // 4)


def decimal_field(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``str(v)`` of each uint64 right-aligned after NULs in a (k, `decimal_width`) `out`."""
    words = out.view(np.uint32)
    for j in range(words.shape[1] - 1, 0, -1):
        # numpy divides by a scalar with a multiply, several times faster than by an array
        quotient = values // np.uint64(10**4)
        index = values - quotient * np.uint64(10**4)
        index += (quotient != 0) * np.uint64(10**4)  # b"%04d" below a nonzero quotient
        words[:, j] = np.take(_DEC4, index.view(np.int64))
        values = quotient
    words[:, 0] = np.take(_DEC4[0], values.view(np.int64))  # the top group: no quotient
    np.maximum(out[:, -1], ord("0"), out=out[:, -1])  # a row of all NUL is 0


def fixed6_width(x: np.ndarray) -> int:
    """Bytes of a `fixed6_field` for every value of x: 8, and 4 per group of 4 digits before."""
    chars = len(str(int(np.abs(x).max(where=np.isfinite(x), initial=0)) + 1))  # + 1: a carry
    return 8 + 4 * -(-(chars + bool(np.signbit(x).any())) // 4)  # and room for a sign


def fixed6_field(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``f"{v:.6f}"`` of each float64 right-aligned after NULs in a (k, `fixed6_width`) `out`.

    `floor(v)` and ``v - floor(v)`` are exact, and their product with 1e6 (< 2**20) is within
    2**-33 of the exact one, so `rint` rounds it as the f-string does unless it lies near a .5
    tie. The f-string formats rows near a tie, negative (-0.0 too), non-finite or >= 2**53.
    """
    with np.errstate(invalid="ignore"):
        whole = np.floor(x)
        micros = (x - whole) * 1e6
        rounded = np.rint(micros)
        exact = ~np.signbit(x) & (x < _EXACT_INT) & (np.abs(micros - rounded) <= 0.5 - 1e-6)
    slow = np.flatnonzero(~exact)
    rounded[slow] = whole[slow] = 0  # the f-string writes their rows below
    micros = rounded.astype(np.uint64)
    decimal_field(whole.astype(np.uint64) + (micros == 10**6), out[:, :-8])
    head, words = micros // np.uint64(10**4), out[:, -8:].view(np.uint32)
    words[:, 0] = np.take(_DOT2, head.view(np.int64), mode="wrap")  # 10**6 wraps to 000000
    words[:, 1] = np.take(_DEC4[1], (micros - head * np.uint64(10**4)).view(np.int64))
    if slow.size:
        texts = b"".join(f"{v:.6f}".encode().rjust(out.shape[1], b"\0") for v in x[slow].tolist())
        out[slow] = np.frombuffer(texts, np.uint8).reshape(len(slow), -1)


def row_blocks(n: int) -> Iterator[slice]:
    """Slices of at most BLOCK_ROWS rows that cover range(n) in order."""
    for start in range(0, n, BLOCK_ROWS):
        yield slice(start, min(start + BLOCK_ROWS, n))


def line_matrix(n: int, layout) -> tuple[np.ndarray, list[np.ndarray]]:
    """The line matrix of a writer of n rows: a block's rows of `layout`, literal ``bytes``
    and NUL fields of given widths side by side; and a (rows, width) view of each field."""
    parts = [bytes(p) for p in layout]  # a width, as many NULs
    matrix = np.tile(np.frombuffer(b"".join(parts), np.uint8), (min(n, BLOCK_ROWS), 1))
    ends = np.cumsum([len(p) for p in parts]).tolist()
    return matrix, [matrix[:, e - w:e] for w, e in zip(layout, ends) if isinstance(w, int)]


def write_candump(trace: Trace, path) -> None:
    """Write a trace as compact candump lines on interface can0.

    Standard ids get 3 hex digits, extended ids 8; timestamps keep
    microsecond precision.
    """
    timestamps = timestamps_of(trace)
    lines, (stamps, id_hex, payload_hex) = line_matrix(len(trace), [
        b"(", fixed6_width(timestamps), b") can0 ", 8, b"#", 16, b"\n"])
    # b"%02X%02X" of each byte pair, read as a native uint16: 256 KiB, so built per call
    hex4 = np.take(_HEX2, np.arange(1 << 16, dtype=np.uint16).view(np.uint8)).view(np.uint32)
    with open(path, "wb") as fh:
        for rows in row_blocks(len(trace)):
            k, ids, dlcs = rows.stop - rows.start, trace.ids[rows], trace.dlcs[rows]
            fixed6_field(timestamps[rows], stamps[:k])
            digits = np.take(hex4, ids.astype(">u4").view(np.uint16)).view(np.uint64)
            id_hex[:k].view(np.uint64)[:, 0] = digits & np.take(_ID_KEEP, ids > STANDARD_ID_MAX)
            digits = np.take(hex4, trace.words[rows, None].view(np.uint16)).view(np.uint64)
            if dlcs.min() < MAX_DLC:
                digits &= np.take(_DLC_KEEP, dlcs, axis=0)
            payload_hex[:k].view(np.uint64)[...] = digits
            fh.write(lines[:k].tobytes().translate(None, b"\0"))


def write_json(data, path) -> None:
    """Write `data` as JSON indented by 2, with a final newline, in one write."""
    with open(path, "w") as fh:
        fh.write(json.dumps(data, indent=2) + "\n")


CHUNK_BYTES = 1 << 19  # read size; each chunk is cut after its last line end
LINE_ROOM = 1 << 12  # room a load's buffers keep for an unfinished line

# A `bytes.translate` table: class flags in the high nibble, and in the low one a hex
# digit's value or a separator's code, so literals can be compared after translation.
_DIGIT, _HEX, _IFACE, _ANY = 0x10, 0x20, 0x40, 0x80
_CLASS_TABLE = bytes(
    _ANY | _IFACE * (0x20 < c < 0x80) | _DIGIT * (c in b"0123456789")
    | (_HEX | (c & 0xF) + 9 * (c >> 6)) * (c in b"0123456789ABCDEFabcdef")
    | b"() #.,".find(bytes([c])) + 1
    for c in range(256)
)  # _IFACE: printable ASCII, which the record split keeps in a field
_SHAPE_TABLE = bytes.maketrans(b"123456789ABCDEFabcdef", b"0" * 21)  # a line's shape

# The lines read in columns. A template takes each field's columns from the
# first line of a round; each byte outside a field, and the dlc, is a literal.
_LINE = {
    "candump": rb"\((?P<int>[0-9]+)\.(?P<frac>[0-9]+)\) (?P<iface>[!-\x7f]+) "
               rb"(?P<id>[0-9A-Fa-f]{1,8})#(?P<hex>(?:[0-9A-Fa-f]{2}){0,8})",
    "csv": rb"(?P<int>[0-9]+)\.(?P<frac>[0-9]+),(?P<id>[0-9A-Fa-f]{1,8}),(?P<dlc>[0-8]),"
           rb"(?P<hex>(?:[0-9A-Fa-f]{2}){0,8})",
}
_FIELD_CLASS = {
    "int": _DIGIT, "frac": _DIGIT, "iface": _IFACE, "id": _HEX, "dlc": _ANY, "hex": _HEX,
}


def _buffer(pool: dict, name: str, shape: tuple) -> np.ndarray:
    """A uint8 `shape` view of the load's buffer `name`, which only a larger one replaces."""
    if len(pool.get(name, ())) < (size := math.prod(shape)):
        pool[name] = np.empty(max(size, CHUNK_BYTES + LINE_ROOM), np.uint8)
    return pool[name][:size].reshape(shape)


def _chunks(fh, buf: bytearray) -> Iterator[memoryview]:
    """The rest of a binary file in pieces that each end a line (or the file).

    Each piece is a view of `buf` (over CHUNK_BYTES long), or of a larger
    copy once a line outgrows it, valid until the next piece is taken. It
    is cut after its last LF or CR, so it holds at most CHUNK_BYTES plus
    one line, but never between a CR and an LF after it.
    """
    rest, view = 0, memoryview(buf)  # rest: the unfinished line at the front of buf
    while got := fh.readinto(view[rest : rest + CHUNK_BYTES]):
        end = rest + got
        if buf[end - 1] == ord("\r"):  # the LF of a CR LF, if any, so the CR is not last
            end += fh.readinto(view[end : end + 1])
        cut = max(buf.rfind(b"\n", 0, end), buf.rfind(b"\r", 0, end - 1)) + 1
        if cut:
            yield view[:cut]
            buf[: end - cut] = buf[cut:end]
        if len(buf) <= (rest := end - cut) + CHUNK_BYTES:  # no room for a CR LF's LF
            buf = buf[:rest] + bytearray(rest + CHUNK_BYTES + 1)
            view = memoryview(buf)
    if rest:
        yield view[:rest]


def _template(line: bytes, format: str):
    """The template `line` gives: its literals' columns and bytes translated by
    _CLASS_TABLE, the class of each column and of the line's end byte (any
    byte), its fields and their `_numbers` plan; None if it is not read in columns."""
    f = re.fullmatch(_LINE[format], line)
    if not f or len(f["int"]) + len(f["frac"]) > 18:
        return None
    if format == "csv" and int(f["dlc"]) != len(f["hex"]) // 2:
        return None
    classes = np.full(len(line) + 1, _ANY, np.uint8)
    for name in f.groupdict():
        classes[f.start(name) : f.end(name)] = _FIELD_CLASS[name]
    columns = np.flatnonzero(classes[:-1] == _ANY)
    plan = _plan((10, f.span("int"), f.span("frac")), (16, f.span("id")), (16, f.span("hex")))
    return columns, np.frombuffer(line.translate(_CLASS_TABLE), np.uint8)[columns], classes, f, plan


def _plan(*fields) -> tuple:
    """How `_numbers` reads ``(base, *spans)`` fields: the number of fields; for
    each word of 8 digits (fewer at a span's end) its field, first byte and
    place value, base ** digits; and as (words, 1) columns each word's left
    shift and the multipliers of its three SWAR steps."""
    words = [(field, base, at, min(8, stop - at)) for field, (base, *spans) in enumerate(fields)
             for start, stop in spans for at in range(start, stop, 8)]
    column = lambda values: np.array(values, np.uint64)[:, None]
    return (len(fields), [(field, at, np.uint64(base**k)) for field, base, at, k in words],
            column([64 - 8 * k for *_, k in words]),
            [column([1 + (base ** (shift // 8) << shift) for _, base, *_ in words])
             for shift in (8, 16, 32)])


def _numbers(values: np.ndarray, width: int, n: int, pool: dict, plan: tuple) -> list:
    """The uint64 number of each field of a `_plan` in n rows `width` apart of a
    uint8 buffer of digit values with 8 bytes after its rows: the base 10 or 16
    digits in its spans, in order. Each is valid until the next call.

    Each 8 digits are read as one word, with zeros before fewer. All the words
    go through three SWAR steps at once, each a multiply and a shift that adds
    neighbouring lanes: digit pairs, pairs of those, then the two halves
    (Lemire, arXiv:2101.11408). A digit value up to 15 stays in its lane, so a
    byte of another class spoils only its own row.
    """
    fields, words, lead, scales = plan
    x = _buffer(pool, "words", (len(words), 8 * n)).view(np.uint64)
    for row, (_, at, _) in zip(x, words):
        row[...] = np.ndarray(n, "<u8", values, at, (width,))
    x <<= lead  # the digits last: no byte after them
    for scale, shift, keep in zip(scales, (8, 16, 32), (0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0)):
        x *= scale
        x >>= np.uint64(shift)
        if keep:
            x &= np.uint64(keep)
    numbers = [None] * fields
    for row, (field, _, place) in zip(x, words):
        if numbers[field] is None:
            numbers[field] = row
        else:
            numbers[field] *= place
            numbers[field] += row
    return [np.zeros(n, np.uint64) if number is None else number for number in numbers]


def _decode(m: np.ndarray, classes: np.ndarray, f: re.Match, plan: tuple, pool: dict,
            cols: list, at: slice | np.ndarray) -> np.ndarray:
    """Decode n lines of the layout whose fields `f` matched, from their
    contiguous (n, width) rows translated by _CLASS_TABLE, each ending in its
    end byte, into rows `at` of the four columns `cols`: a mask of the lines read
    exactly as the per-line parser reads them, which overwrites the others' rows.

    Each step is one pass over the n·width bytes or over n words.
    """
    (n, width), size = m.shape, m.size
    values = _buffer(pool, "work", (size + MAX_DLC,))  # room to read 8 digits from any row
    done = width
    values[:done] = classes  # the class row, for each line: copied in doubling runs
    while done < size:
        step = min(done, size - done)
        values[done : done + step] = values[:step]
        done += step
    flat = np.bitwise_and(m.reshape(-1), values[:size], out=values[:size])
    outside = np.flatnonzero(np.equal(flat, 0, out=flat.view(bool))) // width  # a byte not of its class
    np.bitwise_and(m.reshape(-1), 0xF, out=flat)  # each byte's digit value
    stamps, ids, dlcs, words = cols
    # <= 18 digits, 8 hex digits and 16 hex digits fit a uint64
    numer, arb, payload = _numbers(values, width, n, pool, plan)
    ok = (numer < _EXACT_INT) & (arb <= EXTENDED_ID_MAX)
    ok[outside] = False
    ids[at] = arb
    # numer < 2**53 rounds as float() does; the spent digit values hold the quotients
    stamps[at] = np.divide(numer, float(10 ** len(f["frac"])), out=values[: 8 * n].view(np.float64))
    dlcs[at] = dlc = len(f["hex"]) // 2
    payload <<= np.uint64(64 - 8 * dlc)
    words.view(">u8")[at] = payload  # the first byte first, zeros past the dlc
    return ok


def _decode_chunk(chunk: memoryview, format: str, cols: list, templates: dict, pool: dict):
    """Decode the lines of a chunk in columns, one length group at a time.

    Lines end at LF, CR LF or a lone CR, as in text mode. Each round writes
    its lines, decoded or not, to their rows k of `cols`, whose first column,
    if None, it replaces with a pooled buffer of a stamp a line; returns a mask
    of the decoded lines and a function giving the bytes of line k. `templates`
    and `pool` keep the load's templates by line shape and its buffers.
    No line holding a byte >= 0x80 is decoded: no template accepts one.
    """
    raw, buf = chunk.obj, np.frombuffer(chunk, np.uint8)  # the view starts `raw`
    classes = _buffer(pool, "classes", (len(buf) + 1,))  # and the end byte of a final line with none
    for block in row_blocks(len(buf)):  # each temporary below glibc's mmap threshold
        classes[block] = np.frombuffer(raw[block].translate(_CLASS_TABLE), np.uint8)
    classes[-1] = _CLASS_TABLE[ord("\n")]
    lf = np.equal(buf, ord("\n"), out=_buffer(pool, "work", buf.shape).view(bool))
    width = raw.find(b"\n", 0, len(buf)) + 1  # the first line's length, with its LF
    if (width and len(buf) % width == 0 and raw.find(b"\r", 0, len(buf)) < 0
            and np.count_nonzero(lf) == len(buf) // width and lf[width - 1 :: width].all()):
        # one length: the chunk is the lines' (n, width) matrix, with no scan and no sort
        n, line = len(buf) // width, lambda k: chunk[k * width : (k + 1) * width - 1].tobytes()
        groups = [(width - 1, None)]
    else:
        ends = np.flatnonzero(lf)
        if raw.find(b"\r", 0, len(buf)) >= 0:  # a memchr; most captures hold no CR
            cr = np.flatnonzero(np.equal(buf, ord("\r"), out=lf))
            lone = cr[buf[np.minimum(cr + 1, len(buf) - 1)] != ord("\n")]  # a final CR reads itself
            ends = np.sort(np.concatenate((ends, lone)))
        if chunk[-1:] not in (b"\n", b"\r"):
            ends = np.append(ends, len(buf))
        starts = np.concatenate(([0], ends[:-1] + 1))
        ends -= (ends > starts) & (buf[ends - 1] == ord("\r"))  # a \r\n line ends at its \r
        n, line = len(starts), lambda k: chunk[starts[k] : ends[k]].tobytes()
        lengths = ends - starts
        order = np.argsort(np.minimum(lengths, 0xFFFF).astype(np.uint16), kind="stable")  # a radix sort
        groups = [(int(lengths[rows[0]]), rows)
                  for rows in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1)]
    if cols[0] is None:  # timestamps not kept: this chunk's go to the pool
        cols[0] = _buffer(pool, "stamps", (8 * n,)).view(np.float64)
    decoded = np.zeros(n, bool)
    for length, rows in groups:
        if length < len("0.0,0,0,"):  # shorter than any line read in columns, or blank
            continue
        if rows is None:  # the one-length chunk
            rows, m = np.arange(n), classes[:-1].reshape(n, width)
        else:  # row k: the `length` translated bytes from offset k, and the end byte
            window = np.lib.stride_tricks.as_strided(
                classes, (len(classes) - length, length + 1), (1, 1))
            m = window[starts[rows]]
        left = np.arange(len(rows))  # the group's undecided lines, as rows of m
        while left.size:  # a round: the lines with the literals of the first one's template
            shape = (first := line(rows[left[0]])).translate(_SHAPE_TABLE)
            if template := templates.get(shape) or _template(first, format):
                if len(templates) < 1 << 12:  # bounds what a capture of many shapes keeps
                    templates[shape] = template
                columns, literals, *layout = template
                match = (m[:, columns] == literals).all(axis=1)[left]
            if not template or not match[0]:  # no template, or a kept one's CSV dlc
                left = left[1:]
                continue
            taken, left = left[match], left[~match]  # decoded or not, they leave the group
            at = slice(0, n) if len(taken) == n else rows[taken]  # the whole chunk: no scatter
            decoded[at] = _decode(m if len(taken) == len(m) else m[taken], *layout, pool, cols, at)
    return decoded, line


def load_trace(
    path, format: str = "candump", strict: bool = True, timestamps: bool = True
) -> Trace:
    """Load a capture file into a Trace, preserving file order.

    In strict mode any malformed line aborts with its line number; in
    lenient mode bad lines are skipped and counted in a single warning.
    Blank lines, ``#`` comments and a UTF-8 byte order mark opening the file
    are always ignored (for CSV the header row is ignored too). Timestamps
    that go backwards are reported in a warning, which `timestamps` False
    leaves as it is: the trace then holds `timestamps` None, 8 bytes a frame less.

    The file is read in chunks. Lines of the common shapes are decoded in
    columns; every other line goes through `parse_candump_line` or
    `parse_csv_line` with its line number, so those define what is valid.
    """
    if format not in _LINE:
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
        if format == "csv" and [f.strip(_SPACE) for f in line.split(",")] == CSV_HEADER.split(","):
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
        buf, pool, templates = bytearray(CHUNK_BYTES + LINE_ROOM), {}, {}  # for the whole load
        start = len(codecs.BOM_UTF8) if fh.read(3) == codecs.BOM_UTF8 else 0
        fh.seek(start)
        # a line ends at \n, \r or the end of the file and holds at most one frame
        capacity = 1
        while size := fh.readinto(buf):
            lf = _buffer(pool, "work", (size,)).view(bool)
            capacity += np.count_nonzero(np.equal(np.frombuffer(buf, np.uint8, size), 10, out=lf))
            capacity += buf.find(b"\r", 0, size) >= 0 and buf.count(b"\r", 0, size)
        fh.seek(start)
        # the trace's columns: timestamps (None: a chunk's at a time), ids, dlcs and payload words
        out = [np.empty(capacity, np.float64) if timestamps else None,
               *(np.empty(capacity, dtype) for dtype in (np.uint32, np.uint8, np.uint64))]
        size, lineno, steps, first, last = 0, 1, 0, None, -math.inf
        for chunk in _chunks(fh, buf):
            cols = [None if column is None else column[size:] for column in out]
            decoded, line = _decode_chunk(chunk, format, cols, templates, pool)
            stamps, ids, dlcs, words = cols
            for k in np.flatnonzero(~decoded).tolist():
                frame = parse_line(line(k), lineno + k)
                if frame is not None:
                    decoded[k] = True
                    stamps[k], ids[k], dlcs[k], payload = frame
                    words[k] = np.frombuffer(payload.ljust(MAX_DLC, b"\0"), np.uint64)[0]
            if (n := int(decoded.sum())) < len(decoded):  # compact the chunk's frames
                for column in cols:
                    column[:n] = column[: len(decoded)][decoded]
            count, step = _steps_back(stamps[:n], last)  # the rule of Trace.validate
            if count and not steps:
                first = (size + step[0], *step[1:])
            steps += count
            if n:
                last = float(stamps[n - 1])
            size += n
            lineno += len(decoded)
    trace = Trace(*(None if column is None else column[:size] for column in out))
    if skipped:
        log.warning("%s: skipped %d malformed line(s)", path, skipped)
    if steps:
        log.warning("%s: %s", path, _decrease(steps, *first))
    log.info("%s: %d frames", path, len(trace))
    return trace


def _gather(column: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``column[order]``, taken BLOCK_ROWS rows at a time."""
    out = np.empty((len(order), *column.shape[1:]), column.dtype)
    for rows in row_blocks(len(order)):  # "clip" writes straight into out
        np.take(column, order[rows], axis=0, out=out[rows], mode="clip")
    return out


def partition_by_id(trace: Trace) -> dict[tuple[int, int], IdTrace]:
    """Split a trace into per-(arbitration id, dlc) groups.

    Keying on (id, dlc) keeps each group at a fixed bit width even when an
    id violates the fixed-width assumption; such ids are reported in a
    warning. Groups come in ascending (id, dlc) order, and each keeps its
    frames in capture order: frame k of M becomes the distinct uint64 word
    ``(id << 4 | dlc) << b | k``, ``b = (M - 1).bit_length()``, and one
    in-place sort of the words orders them. The frame order is read out as
    uint32 (up to 2**32 frames) and the columns are gathered through it in
    blocks of BLOCK_ROWS rows. Key and index must fit in 64 bits, else
    AnalysisError: extended ids allow up to 2**31 frames.

    When it holds the only reference to `trace`, as in
    ``partition_by_id(load_trace(path))`` on CPython >= 3.11, it frees each
    capture column once done with it, so it needs 8 bytes a frame over the
    capture (the words, then one gathered column) plus a few blocks: over
    21 bytes a frame, or 13 for a trace without timestamps, whose groups
    then have none either.
    """
    timestamps, ids, dlcs, payloads = trace.timestamps, trace.ids, trace.dlcs, trace.words
    del trace  # from here on, a column rebound or deleted is freed if unshared
    m = len(payloads)
    index_bits = (m - 1).bit_length()
    key_bits = int(ids.max(initial=0)).bit_length() + 4
    if key_bits + index_bits > 64:
        raise AnalysisError(f"cannot partition {m} frames by {key_bits}-bit (id, dlc) keys")
    words = np.left_shift(ids, 4, dtype=np.uint64)
    words |= dlcs
    del ids, dlcs
    words <<= index_bits
    for rows in row_blocks(m):
        words[rows] |= np.arange(rows.start, rows.stop, dtype=np.uint64)
    words.sort()
    order = np.empty(m, np.uint32 if m <= 1 << 32 else np.intp)
    cuts = []
    for rows in row_blocks(m):
        order[rows] = words[rows] & ((1 << index_bits) - 1)
        lo = max(rows.start - 1, 0)  # each block also compares its first key with the one before
        keys = words[lo : rows.stop] >> index_bits
        cuts += (np.flatnonzero(keys[1:] != keys[:-1]) + lo + 1).tolist()
    edges = [0, *cuts, m] if m else []
    group_keys = (words[edges[:-1]] >> index_bits).tolist()
    del words
    if timestamps is not None:
        timestamps = _gather(timestamps, order)
    payloads = _gather(payloads, order)
    groups = {}
    for a, b, key in zip(edges, edges[1:], group_keys):
        arb_id, dlc = key >> 4, key & 0xF
        stamps = None if timestamps is None else timestamps[a:b]
        groups[(arb_id, dlc)] = IdTrace(arb_id, dlc, stamps, payloads[a:b])
    mixed = [i for i, n in Counter(i for i, _ in groups).items() if n > 1]
    if mixed:
        log.warning("ids with multiple payload widths: %s", ", ".join(f"0x{i:X}" for i in mixed))
    return groups
