"""Bit-level transition analysis for per-ID payload groups.

Every step is a plain numpy array: `build_bit_matrix` gives a group's
(M, N) uint8 bit matrix, `transition_matrix` the (M-1, N) XOR of its
sequential rows, and `tang_from_idtrace` the per-position flip counts,
wrapped in a `Tang` with the group's id and M.

Bit numbering: position i is bit (7 - i % 8) of byte i // 8, so position 0
is the MSB of the first transmitted byte and position N-1 the LSB of the
last byte. This matches numpy's unpackbits order and puts big-endian
multi-byte values on ascending contiguous positions.

A field is the run of positions between its LSB and MSB position, in
either order; position p carries place value 2^|p - lsb|. `read_field`
and `write_field` are the only place values are turned into bits and back.
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


def _field_shifts(lsb: int, msb: int):
    """(position, place-value shift) pairs of the field [lsb .. msb]."""
    for p in range(min(lsb, msb), max(lsb, msb) + 1):
        yield p, np.uint64(abs(p - lsb))


def read_field(bits: np.ndarray, lsb: int, msb: int) -> np.ndarray:
    """Unsigned value of one field in every row of an (M, N) bit matrix."""
    values = np.zeros(bits.shape[0], dtype=np.uint64)
    for p, shift in _field_shifts(lsb, msb):
        values |= bits[:, p].astype(np.uint64) << shift
    return values


def write_field(bits: np.ndarray, lsb: int, msb: int, values: np.ndarray) -> None:
    """Store each row's value in one field of an (M, N) bit matrix, in place."""
    for p, shift in _field_shifts(lsb, msb):
        bits[:, p] = ((values >> shift) & np.uint64(1)).astype(np.uint8)


def build_bit_matrix(idtrace: IdTrace) -> np.ndarray:
    """Read-only (M, N) uint8 matrix of an IdTrace's payload bits."""
    if len(idtrace) == 0:
        raise AnalysisError(
            f"no observations for id 0x{idtrace.arbitration_id:X}"
        )
    bits = np.unpackbits(idtrace.payloads, axis=1)
    bits.flags.writeable = False
    return bits


def transition_matrix(bits: np.ndarray) -> np.ndarray:
    """(M-1, N) XOR of each sequential pair of bit-matrix rows."""
    return np.bitwise_xor(bits[1:], bits[:-1])


def tang_from_idtrace(idtrace: IdTrace) -> Tang:
    """Count each bit position's flips between sequential payloads."""
    if len(idtrace) < 2:
        raise AnalysisError(
            "insufficient observations for transition analysis "
            f"(id 0x{idtrace.arbitration_id:X}, M={len(idtrace)})"
        )
    bits = build_bit_matrix(idtrace)
    counts = np.bitwise_xor(bits[1:], bits[:-1]).sum(axis=0, dtype=np.int64)
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
    """Write ``bit_position,transitions,normalized`` rows for plotting."""
    norm = normalize_tang(tang)
    with open(path, "w") as fh:
        fh.write("bit_position,transitions,normalized\n")
        for i in range(tang.bit_width):
            fh.write(f"{i},{int(tang.counts[i])},{norm[i]:.6f}\n")
