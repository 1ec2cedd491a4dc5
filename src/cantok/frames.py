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
CR, as in text mode. Every other line, including each one holding a byte
of 0x80 or above, goes through `parse_candump_line`/`parse_csv_line`
with its line number, decoded as UTF-8, so those two functions define
what is valid and every error message. A line that is not valid UTF-8
is malformed unless it is blank or a ``#`` comment.

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
A group's lines are rows of the chunk translated by one byte-class table:
a strided view if all the chunk's lines have one length and a one-byte end.
`CHUNK_BYTES` is 512 KiB. A load reads the file into one buffer, first to
count its lines and then chunk by chunk, translates each chunk into a
second and decodes digits in a third. It writes decoded frames straight
into the trace's columns and moves a chunk's rows up only if it skipped
lines. So no chunk-sized array is freed per chunk: that raises glibc's
mmap threshold, and the heap then holds more memory for the rest of the run.

The writers are the inverse, a columnar row encoder. For each block of
`ENCODE_ROWS` rows (`row_blocks`), each field is a (k, W) byte matrix,
NUL where a row has no byte: decimal digits come four at a time from a
table of ``b"%04d"`` or its twin with leading zeros NUL, hex digits two
at a time from one of ``b"%02X"``. `join_fields` sets the fields side by
side and deletes every NUL with one `bytes.translate`, leaving the lines.
`write_candump` writes a trace so; `signals.export_series_csv` encodes a
block's index and timestamps once for all its series. `fixed6_field`
matches ``f"{v:.6f}"`` and hands that f-string the rows it cannot show
exact: near a .5 tie, negative, non-finite or at least 2**53.
"""

from __future__ import annotations

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


def _set_columns(obj, **specs: tuple) -> None:
    """Store each ``name=(dtype, shape)`` attribute of `obj` as a read-only array,
    else AnalysisError if it holds a value `dtype` cannot hold exactly."""
    for name, (dtype, shape) in specs.items():
        a = np.asarray(getattr(obj, name))
        if a.dtype != dtype:
            try:
                with np.errstate(invalid="ignore"):  # NaN and inf cast to some number
                    cast = a.astype(dtype)
                    inexact = np.flatnonzero(cast.astype(a.dtype) != a)
            except (TypeError, ValueError, OverflowError) as exc:  # text, an int of 2**64
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
    if len(row) < 4:
        raise ParseError(line, "missing column (need 4 fields)", lineno)
    ts, arb_id, dlc, hexdata = row[:4]
    return _build_frame(
        line, lineno, ts.strip(_SPACE), arb_id.strip(_SPACE), hexdata.strip(_SPACE), dlc
    )


ENCODE_ROWS = 1 << 16  # rows encoded per block; bounds the writers' memory
_EXACT_INT = 1 << 53  # integers below this are exact float64 values


def _dec4_table() -> np.ndarray:
    """(2, 10**4) uint32: the bytes of each number's b"%04d", its leading zeros NUL, then as is."""
    n, place = np.arange(10**4, dtype=np.uint16)[:, None], np.array([1000, 100, 10, 1], np.uint16)
    digits = (n // place % 10 + ord("0")).astype(np.uint8)
    return np.stack((np.where(n < place, 0, digits), digits)).view(np.uint32).reshape(2, -1)


_DEC4 = _dec4_table()
_HEX2 = np.frombuffer(b"0123456789ABCDEF", np.uint8)[  # 256 uint16: each byte's b"%02X"
    np.arange(256)[:, None] >> [4, 0] & 0xF].view(np.uint16).ravel()
# which of a row's 8 id digits `write_candump` keeps: the last 3 of a standard id, or all 8
_ID_KEEP = np.frombuffer(b"\0" * 5 + b"\xff" * 11, np.uint64)


def decimal_field(values: np.ndarray) -> np.ndarray:
    """``str(v)`` of each uint64, right-aligned after NULs, as a field for `join_fields`."""
    groups = -(-len(str(int(values.max(initial=0)))) // 4)  # of 4 digits, in the longest
    words = np.empty((len(values), groups), np.uint32)
    for j in range(groups - 1, -1, -1):
        # numpy divides by a scalar with a multiply, several times faster than by an array
        quotient = values // np.uint64(10**4)
        index = values - quotient * np.uint64(10**4)
        index += (quotient != 0) * np.uint64(10**4)  # b"%04d" below a nonzero quotient
        np.take(_DEC4, index.view(np.int64), out=words[:, j])
        values = quotient
    digits = words.view(np.uint8)
    np.maximum(digits[:, -1], ord("0"), out=digits[:, -1])  # a row of all NUL is 0
    return digits


def fixed6_field(x: np.ndarray) -> np.ndarray:
    """``f"{v:.6f}"`` of each float64, right-aligned after NULs, as a field for `join_fields`.

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
    seconds = decimal_field(np.where(exact, whole, 0).astype(np.uint64) + carry)
    field = np.concatenate((seconds, decimal_field(micros + np.uint64(10**7))), axis=1)
    field[:, -8:-6] = (0, ord("."))  # over the 10 or 11 before the micros' six digits
    slow = np.flatnonzero(~exact)
    if slow.size:
        texts = [f"{v:.6f}".encode() for v in x[slow].tolist()]
        width = max(field.shape[1], *map(len, texts))
        field = np.pad(field, ((0, 0), (width - field.shape[1], 0)))
        field[slow] = np.frombuffer(b"".join(t.rjust(width, b"\0") for t in texts), np.uint8
                                    ).reshape(-1, width)
    return field


def row_blocks(n: int, rows: int | None = None) -> Iterator[slice]:
    """Slices of at most `rows` (default ENCODE_ROWS) rows that cover range(n) in order."""
    rows = rows or ENCODE_ROWS
    for start in range(0, n, rows):
        yield slice(start, min(start + rows, n))


def join_fields(fields, k: int) -> bytes:
    """The lines of k rows: their fields side by side, read row by row, less every NUL.

    A field is a literal ``bytes`` or a (k, W) uint8 matrix with NUL at each
    byte a row does not have. No field's other bytes are NUL.
    """
    return np.concatenate([
        np.broadcast_to(np.frombuffer(f, np.uint8), (k, len(f))) if isinstance(f, bytes) else f
        for f in fields
    ], axis=1).tobytes().translate(None, b"\0")


def write_candump(trace: Trace, path) -> None:
    """Write a trace as compact candump lines on interface can0.

    Standard ids get 3 hex digits, extended ids 8; timestamps keep
    microsecond precision.
    """
    with open(path, "wb") as fh:
        for rows in row_blocks(len(trace)):
            ids = trace.ids[rows]
            id_hex = np.take(_HEX2, ids.astype(">u4").view(np.uint8).reshape(-1, 4))
            id_hex.view(np.uint64)[:, 0] &= _ID_KEEP[(ids > STANDARD_ID_MAX).view(np.uint8)]
            payload_hex = np.take(_HEX2, trace.payloads[rows])
            payload_hex *= np.arange(MAX_DLC) < trace.dlcs[rows, None]  # NUL past the dlc
            fh.write(join_fields([
                b"(", fixed6_field(trace.timestamps[rows]), b") can0 ", id_hex.view(np.uint8),
                b"#", payload_hex.view(np.uint8), b"\n",
            ], len(ids)))


def write_json(data, path) -> None:
    """Write `data` as JSON indented by 2, with a final newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


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
    _CLASS_TABLE, each column's class and its fields; None if it is not read in columns."""
    f = re.fullmatch(_LINE[format], line)
    if not f or len(f["int"]) + len(f["frac"]) > 18:
        return None
    if format == "csv" and int(f["dlc"]) != len(f["hex"]) // 2:
        return None
    classes = np.full(len(line), _ANY, np.uint8)
    for name in f.groupdict():
        classes[f.start(name) : f.end(name)] = _FIELD_CLASS[name]
    columns = np.flatnonzero(classes == _ANY)
    return columns, np.frombuffer(line.translate(_CLASS_TABLE), np.uint8)[columns], classes, f


def _decode(m: np.ndarray, classes: np.ndarray, f: re.Match, pool: dict):
    """Decode n lines of the layout whose fields `f` matched, from their
    (n, length) bytes translated by _CLASS_TABLE: a mask of the lines read
    exactly as the per-line parser reads them, and their four columns."""
    values = _buffer(pool, "work", m.shape)
    outside = np.equal(np.bitwise_and(m, classes, out=values), 0, out=values.view(bool))
    outside = np.flatnonzero(outside) // m.shape[1]  # the lines with a byte not of its class
    np.bitwise_and(m, 0xF, out=values)
    # <= 18 digits fit an int64; below 2**53, int / 10**k rounds as float() does
    numer = np.zeros(len(m), np.int64)
    for j in (*range(*f.span("int")), *range(*f.span("frac"))):
        numer = numer * 10 + values[:, j]
    ids = np.zeros(len(m), np.uint32)  # <= 8 hex digits fit
    for j in range(*f.span("id")):
        ids = ids << 4 | values[:, j]
    ok = (numer < _EXACT_INT) & (ids <= EXTENDED_ID_MAX)
    ok[outside] = False
    digits, dlc = values[:, f.start("hex") :], len(f["hex"]) // 2  # two a byte, high one first
    payloads = np.zeros((len(m), MAX_DLC), np.uint8)
    payloads[:, :dlc] = digits[:, ::2] << 4 | digits[:, 1::2]
    dlcs = np.full(len(m), dlc, np.uint8)
    return ok, [numer / float(10 ** len(f["frac"])), ids, dlcs, payloads.view(np.uint64).ravel()]


def _decode_chunk(chunk: memoryview, format: str, cols: list, templates: dict, pool: dict):
    """Decode the lines of a chunk in columns, one length group at a time.

    Lines end at LF, CR LF or a lone CR, as in text mode. Writes the frame
    of each line k it decodes to row k of `cols`; returns a mask of the
    decoded lines and a function giving the bytes of line k. `templates`
    and `pool` keep the load's templates by line shape and its buffers.
    No line holding a byte >= 0x80 is decoded: no template accepts one.
    """
    raw, buf = chunk.obj, np.frombuffer(chunk, np.uint8)  # the view starts `raw`
    mask = _buffer(pool, "work", buf.shape).view(bool)
    ends = np.flatnonzero(np.equal(buf, ord("\n"), out=mask))
    if raw.find(b"\r", 0, len(buf)) >= 0:  # a memchr; most captures hold no CR
        cr = np.flatnonzero(np.equal(buf, ord("\r"), out=mask))
        lone = cr[buf[np.minimum(cr + 1, len(buf) - 1)] != ord("\n")]  # a final CR reads itself
        ends = np.sort(np.concatenate((ends, lone)))
    if chunk[-1:] not in (b"\n", b"\r"):
        ends = np.append(ends, len(buf))
    starts = np.concatenate(([0], ends[:-1] + 1))
    ends -= (ends > starts) & (buf[ends - 1] == ord("\r"))  # a \r\n line ends at its \r
    n, line = len(starts), lambda k: chunk[starts[k] : ends[k]].tobytes()
    classes = _buffer(pool, "classes", buf.shape)
    for block in row_blocks(len(buf)):  # each temporary below glibc's mmap threshold
        classes[block] = np.frombuffer(raw[block].translate(_CLASS_TABLE), np.uint8)
    lengths = ends - starts
    order = np.argsort(np.minimum(lengths, 0xFFFF).astype(np.uint16), kind="stable")  # a radix sort
    decoded = np.zeros(n, bool)
    for rows in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        length = int(lengths[rows[0]])
        if length < len("0.0,0,0,"):  # shorter than any line read in columns, or blank
            continue
        # row k: the `length` translated bytes from offset k
        window = np.lib.stride_tricks.as_strided(classes, (len(buf) - length + 1, length), (1, 1))
        strided = len(rows) == n and starts[-1] == (n - 1) * (length + 1)  # one-byte line ends
        m = window[:: length + 1][:n] if strided else window[starts[rows]]
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
            ok, piece = _decode(m if len(taken) == len(m) else m[taken], *layout, pool)
            if not ok.all():
                taken, piece = taken[ok], [c[ok] for c in piece]
            at = slice(0, n) if len(taken) == n else rows[taken]  # all, in line order
            decoded[at] = True
            for column, values in zip(cols, piece):
                column[at] = values
    return decoded, line


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
        buf, pool, templates = bytearray(CHUNK_BYTES + LINE_ROOM), {}, {}  # for the whole load
        # a line ends at \n, \r or the end of the file and holds at most one frame
        capacity = 1
        while size := fh.readinto(buf):
            lf = _buffer(pool, "work", (size,)).view(bool)
            capacity += np.count_nonzero(np.equal(np.frombuffer(buf, np.uint8, size), 10, out=lf))
            capacity += buf.find(b"\r", 0, size) >= 0 and buf.count(b"\r", 0, size)
        fh.seek(0)
        # timestamp, id, dlc and payload columns, a payload's 8 bytes as one word
        out = [np.empty(capacity, dtype) for dtype in (np.float64, np.uint32, np.uint8, np.uint64)]
        size, lineno = 0, 1
        for chunk in _chunks(fh, buf):
            cols = [column[size:] for column in out]
            decoded, line = _decode_chunk(chunk, format, cols, templates, pool)
            timestamps, ids, dlcs, payloads = cols
            for k in np.flatnonzero(~decoded).tolist():
                frame = parse_line(line(k), lineno + k)
                if frame is not None:
                    decoded[k] = True
                    timestamps[k], ids[k], dlcs[k], payload = frame
                    payloads[k] = np.frombuffer(payload.ljust(MAX_DLC, b"\0"), np.uint64)[0]
            if (n := int(decoded.sum())) < len(decoded):  # compact the chunk's frames
                for column in cols:
                    column[:n] = column[: len(decoded)][decoded]
            size += n
            lineno += len(decoded)
    timestamps, ids, dlcs, payloads = (column[:size] for column in out)
    trace = Trace(timestamps, ids, dlcs, payloads.view(np.uint8).reshape(size, MAX_DLC))
    if skipped:
        log.warning("%s: skipped %d malformed line(s)", path, skipped)
    try:
        trace.validate()
    except AnalysisError as exc:
        log.warning("%s: %s", path, exc)
    log.info("%s: %d frames", path, len(trace))
    return trace


PARTITION_ROWS = 1 << 14  # rows per block of the partition's passes; bounds their temporaries


def _gather(column: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``column[order]``, taken PARTITION_ROWS rows at a time."""
    out = np.empty((len(order), *column.shape[1:]), column.dtype)
    for rows in row_blocks(len(order), PARTITION_ROWS):  # "clip" writes straight into out
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
    blocks of PARTITION_ROWS rows. Key and index must fit in 64 bits, else
    AnalysisError: extended ids allow up to 2**31 frames.

    When it holds the only reference to `trace`, as in
    ``partition_by_id(load_trace(path))`` on CPython >= 3.11, it frees each
    capture column once done with it, so it needs 8 bytes a frame over the
    capture (the words, then one gathered column) plus a few blocks.
    """
    timestamps, ids, dlcs, payloads = trace.timestamps, trace.ids, trace.dlcs, trace.payloads
    del trace  # from here on, a column rebound or deleted is freed if unshared
    m = len(timestamps)
    index_bits = (m - 1).bit_length()
    key_bits = int(ids.max(initial=0)).bit_length() + 4
    if key_bits + index_bits > 64:
        raise AnalysisError(f"cannot partition {m} frames by {key_bits}-bit (id, dlc) keys")
    words = np.left_shift(ids, 4, dtype=np.uint64)
    words |= dlcs
    del ids, dlcs
    words <<= index_bits
    for rows in row_blocks(m, PARTITION_ROWS):
        words[rows] |= np.arange(rows.start, rows.stop, dtype=np.uint64)
    words.sort()
    order = np.empty(m, np.uint32 if m <= 1 << 32 else np.intp)
    cuts = []
    for rows in row_blocks(m, PARTITION_ROWS):
        order[rows] = words[rows] & ((1 << index_bits) - 1)
        lo = max(rows.start - 1, 0)  # each block also compares its first key with the one before
        keys = words[lo : rows.stop] >> index_bits
        cuts += (np.flatnonzero(keys[1:] != keys[:-1]) + lo + 1).tolist()
    edges = [0, *cuts, m] if m else []
    group_keys = (words[edges[:-1]] >> index_bits).tolist()
    del words
    timestamps = _gather(timestamps, order)
    payloads = _gather(np.ascontiguousarray(payloads).view(np.uint64), order).view(np.uint8)
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
