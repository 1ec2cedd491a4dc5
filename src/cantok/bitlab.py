"""Bit-level transition analysis for per-ID payload groups.

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
class BitMatrix:
    """M x N boolean matrix: one row per payload, one column per bit."""

    bits: np.ndarray  # (M, N) uint8 in {0, 1}
    arbitration_id: int
    dlc: int

    @property
    def observations(self) -> int:
        return self.bits.shape[0]

    @property
    def bit_width(self) -> int:
        return self.bits.shape[1]


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """(M-1) x N matrix of XORs of sequential payload pairs."""

    bits: np.ndarray  # (M-1, N) uint8 in {0, 1}
    arbitration_id: int
    observations: int  # M of the source BitMatrix

    @property
    def bit_width(self) -> int:
        return self.bits.shape[1]


@dataclass(frozen=True, eq=False)
class Tang:
    """Per-bit-position transition counts aggregated over a payload group."""

    counts: np.ndarray  # length-N int64, column sums of the transition matrix
    observations: int
    arbitration_id: int
    bit_width: int

    def __post_init__(self):
        if len(self.counts) != self.bit_width:
            raise AnalysisError(
                f"count vector length {len(self.counts)} != bit width {self.bit_width}"
            )


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


def build_bit_matrix(idtrace: IdTrace) -> BitMatrix:
    """Expand an IdTrace's payloads into the boolean observation matrix."""
    if len(idtrace) == 0:
        raise AnalysisError(
            f"no observations for id 0x{idtrace.arbitration_id:X}"
        )
    bits = np.unpackbits(idtrace.payloads, axis=1)
    bits.flags.writeable = False
    return BitMatrix(bits=bits, arbitration_id=idtrace.arbitration_id, dlc=idtrace.dlc)


def transition_matrix(bm: BitMatrix) -> TransitionMatrix:
    """XOR each sequential pair of payload rows."""
    if bm.observations < 2:
        raise AnalysisError(
            "insufficient observations for transition analysis "
            f"(id 0x{bm.arbitration_id:X}, M={bm.observations})"
        )
    xors = np.bitwise_xor(bm.bits[1:], bm.bits[:-1])
    xors.flags.writeable = False
    return TransitionMatrix(
        bits=xors, arbitration_id=bm.arbitration_id, observations=bm.observations
    )


def compute_tang(tm: TransitionMatrix) -> Tang:
    """Sum each transition-matrix column into the per-position flip counts."""
    counts = tm.bits.sum(axis=0, dtype=np.int64)
    counts.flags.writeable = False
    return Tang(
        counts=counts,
        observations=tm.observations,
        arbitration_id=tm.arbitration_id,
        bit_width=tm.bit_width,
    )


def tang_from_idtrace(idtrace: IdTrace) -> Tang:
    """Convenience composition: bit matrix -> transition matrix -> counts."""
    return compute_tang(transition_matrix(build_bit_matrix(idtrace)))


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
