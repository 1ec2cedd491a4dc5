"""Bit-level transition analysis for per-ID payload groups.

`analyzable` picks the groups that can be analysed. Every step is a plain
numpy array: `build_bit_matrix` unpacks the first dlc bytes of (M,) uint64
payload words into an (M, N) uint8 bit matrix, `transition_matrix` gives
the (M-1, N) XOR of its sequential rows, and `tang_from_idtrace` the
per-position flip counts, in a `Tang` with the group's id and M. Unpacking
commutes with XOR, so TANG unpacks the XOR of sequential words, once.

Bit numbering: position p is bit (7 - p % 8) of payload byte p // 8, as
numpy's unpackbits reads it, so position 0 is the MSB of the first
transmitted byte and position N-1 the LSB of the last byte. This puts
big-endian multi-byte values on ascending contiguous positions.

A field is the run of positions between its LSB and MSB position, in
either order; position p carries place value 2^|p - lsb|. `read_field`
reads a field from the bit matrix. `write_field` writes one straight into
(M,) uint64 payload words, the words of `Trace.words` and `IdTrace.words`,
whose memory holds each frame's payload bytes in order. These are the only
places values are turned into bits and back.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError
from .frames import IdTrace, decimal_field, decimal_width, fixed6_field, fixed6_width
from .frames import line_matrix, row_blocks


@dataclass(frozen=True, eq=False)
class Tang:
    """Per-bit-position transition counts aggregated over a payload group."""

    counts: np.ndarray  # length-N int64, column sums of the transition matrix
    observations: int
    arbitration_id: int

    @property
    def bit_width(self) -> int:
        return len(self.counts)


def analyzable(groups: dict, ids=None) -> tuple[list, list]:
    """``(key, IdTrace)`` for each group of a `partition_by_id` result, in its order,
    with two or more frames and at least one payload byte, and ``(key, reason)``
    for each other group. With `ids`, the groups of other ids are in neither list."""
    kept, skipped = [], []
    for key, idtrace in groups.items():
        if ids is None or key[0] in ids:
            if len(idtrace) < 2:
                skipped.append((key, f"only {len(idtrace)} frame(s)"))
            elif key[1] == 0:
                skipped.append((key, "zero-width payload"))
            else:
                kept.append((key, idtrace))
    return kept, skipped


def read_field(bits: np.ndarray, lsb: int, msb: int) -> np.ndarray:
    """Unsigned value of one field in every row of an (M, N) bit matrix."""
    values = np.zeros(bits.shape[0], dtype=np.uint64)
    for p in range(min(lsb, msb), max(lsb, msb) + 1):
        values |= bits[:, p].astype(np.uint64) << np.uint64(abs(p - lsb))
    return values


_REVERSED_BITS = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def write_field(words: np.ndarray, lsb: int, msb: int, values) -> None:
    """Store each row's value, past the field's width dropped, in one field of
    (M,) uint64 payload words, in place; `values` broadcast against `words`."""
    lo, hi = min(lsb, msb), max(lsb, msb)
    mask = (1 << (hi - lo + 1)) - 1
    placed = np.atleast_1d(values & np.uint64(mask))  # a new array, of one row for a scalar
    if lsb < msb:  # place value rises with position: `v << lo`, each byte's bits reversed
        placed <<= np.uint64(lo)
        placed = _REVERSED_BITS[placed.view(np.uint8)].view(np.uint64)
    else:  # place value falls with position: the big-endian bytes of `v << 63 - hi`
        placed <<= np.uint64(63 - hi)
        placed.byteswap(inplace=True)
    clear = (mask << (63 - hi)).to_bytes(8, "big")  # the field's positions, in either order
    words &= ~np.uint64(int.from_bytes(clear, "little"))  # the field's payload bytes as a word
    words |= placed


def build_bit_matrix(words: np.ndarray, dlc: int) -> np.ndarray:
    """Read-only (M, 8·dlc) uint8 bits of (M,) payload words' first dlc bytes: one flat unpack."""
    if len(words) == 0:
        raise AnalysisError("no observations")
    payloads = np.ascontiguousarray(words[:, None].view(np.uint8)[:, :dlc])  # a copy if dlc < 8
    bits = np.unpackbits(payloads.reshape(-1)).reshape(len(words), 8 * dlc)
    bits.flags.writeable = False
    return bits


def transition_matrix(bits: np.ndarray) -> np.ndarray:
    """(M-1, N) XOR of each sequential pair of bit-matrix rows."""
    return np.bitwise_xor(bits[1:], bits[:-1])


def tang_from_idtrace(idtrace: IdTrace) -> Tang:
    """Count each bit position's flips between sequential payloads.

    The flips, the unpacked XOR of sequential payload words, are summed in
    uint8 with no per-element cast to int64. The first 255·R of the M-1 flip
    rows, as a (255, R·N) matrix, are summed over its 255 long rows: each
    sum counts 255 flips at most, so it is exact. The R partial sums of each
    position and the fewer than 255 rows left over are then added in int64.
    """
    if len(idtrace) < 2:
        raise AnalysisError("insufficient observations for transition analysis "
                            f"(id 0x{idtrace.arbitration_id:X}, M={len(idtrace)})")
    flips = build_bit_matrix(np.bitwise_xor(idtrace.words[1:], idtrace.words[:-1]), idtrace.dlc)
    r, n = len(flips) // 255, flips.shape[1]  # sizes, not -1, in each reshape: N may be 0
    counts = flips[255 * r :].sum(axis=0, dtype=np.uint8).astype(np.int64)
    if r:
        partial = flips[: 255 * r].reshape(255, r * n).sum(0, np.uint8)  # R·N sums of 255 rows
        counts += partial.reshape(r, n).sum(0, np.int64)
    counts.flags.writeable = False
    return Tang(counts, observations=len(idtrace), arbitration_id=idtrace.arbitration_id)


def normalize_tang(tang: Tang) -> np.ndarray:
    """Fraction of transition opportunities used per bit position.

    Divides by M-1 (sequential pairs), so a bit flipping on every
    observed pair scores exactly 1.0.
    """
    if tang.observations < 2:
        raise AnalysisError("normalization requires at least 2 observations")
    return tang.counts / (tang.observations - 1)


def export_tang_csv(tangs: Sequence[Tang], paths) -> None:
    """Write each Tang's ``bit_position,transitions,normalized`` rows to its path,
    byte for byte one ``f"{i},{count},{norm:.6f}"`` line per bit position.

    All the Tangs' rows are encoded in one `frames.line_matrix`, a block at a time;
    each file is written as its header and its rows' slice of the encoded text.
    """
    if len(paths) != len(tangs):
        raise AnalysisError(f"{len(tangs)} tangs but {len(paths)} paths")
    if not tangs:
        return
    widths = np.array([t.bit_width for t in tangs])
    first = np.cumsum(widths) - widths  # each Tang's first row
    counts = np.concatenate([t.counts for t in tangs]).astype(np.uint64)
    norms = np.concatenate([normalize_tang(t) for t in tangs])
    positions = (np.arange(len(counts)) - np.repeat(first, widths)).astype(np.uint64)
    lines, (index, trans, norm) = line_matrix(len(counts), [decimal_width(widths.max()), b",",
        decimal_width(int(counts.max(initial=0))), b",", fixed6_width(norms), b"\n"])
    blocks = []
    for rows in row_blocks(len(counts)):
        k = rows.stop - rows.start
        decimal_field(positions[rows], index[:k])
        decimal_field(counts[rows], trans[:k])
        fixed6_field(norms[rows], norm[:k])
        blocks.append(lines[:k].tobytes().translate(None, b"\0"))
    text = b"".join(blocks)
    starts = np.flatnonzero(np.frombuffer(b"\n" + text, np.uint8) == 10)  # rows', then the end
    for path, a, b in zip(paths, starts[first].tolist(), starts[first + widths].tolist()):
        with open(path, "wb") as fh:
            fh.write(b"bit_position,transitions,normalized\n" + text[a:b])
