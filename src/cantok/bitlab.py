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

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError
from .frames import IdTrace


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
    placed = np.asarray(values & np.uint64(mask))  # a new array, 0-d for a scalar value
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


def export_tang_csv(tang: Tang, path) -> None:
    """Write ``bit_position,transitions,normalized`` rows for plotting.

    One f-string per row, not the columnar encoder (`frames.line_matrix`): a
    file holds at most 64 rows, too few to pay for its per-call numpy overhead.
    """
    rows = zip(tang.counts.tolist(), normalize_tang(tang).tolist())
    with open(path, "w") as fh:
        fh.write("bit_position,transitions,normalized\n")
        for i, (count, norm) in enumerate(rows):
            fh.write(f"{i},{count},{norm:.6f}\n")
