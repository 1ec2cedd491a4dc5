"""Materialize tokenized clusters as unsigned-integer time series.

`export_series_csv` writes the series of one group in one pass with the
columnar row encoder of `frames`, byte for byte as one
``f"{i},{ts:.6f},{v}"`` per row. All its files are open at once and share
one `frames.line_matrix`: each block's index and timestamp columns are
written once, then each series' value digits and newline in turn.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .bitlab import build_bit_matrix, read_field, write_field
from .errors import AnalysisError, InvariantError
from .frames import IdTrace, decimal_field, decimal_width, fixed6_field, fixed6_width
from .frames import line_matrix, row_blocks, timestamps_of, write_json
from .tokenizer import PADDING, TokenCluster, Tokenization, format_id


@dataclass(frozen=True, eq=False)
class SignalSeries:
    """Unsigned-integer values one cluster took on, in chronological order."""

    arbitration_id: int
    cluster: TokenCluster
    values: np.ndarray  # length-M uint64
    timestamps: np.ndarray  # length-M float64 seconds

    @property
    def width(self) -> int:
        return self.cluster.width

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, slots=True)
class SignalSummary:
    minimum: int
    maximum: int
    unique_value_count: int
    value_transition_count: int
    mean_abs_first_difference: float


def extract_series(
    idtrace: IdTrace, clusters: Sequence[TokenCluster]
) -> list[SignalSeries]:
    """One series per signal cluster, read from every payload of an IdTrace.

    Each cluster's ``lsb_index``/``msb_index`` sets its bit order. The bit
    matrix is built once, and every series shares the group's timestamps.
    """
    timestamps = timestamps_of(idtrace)
    for cluster in clusters:
        if cluster.kind == PADDING:
            raise AnalysisError("cannot extract padding as a signal series")
        if cluster.lo < 0 or cluster.hi >= idtrace.bit_width:
            raise AnalysisError(
                f"cluster [{cluster.lo}, {cluster.hi}] outside payload width "
                f"{idtrace.bit_width}"
            )
    bits = build_bit_matrix(idtrace.words, idtrace.dlc)
    out = []
    for cluster in clusters:
        values = read_field(bits, cluster.lsb_index, cluster.msb_index)
        values.flags.writeable = False
        out.append(SignalSeries(idtrace.arbitration_id, cluster, values, timestamps))
    return out


def summarize(series: SignalSeries) -> SignalSummary:
    if len(series) == 0:
        raise AnalysisError("cannot summarize an empty series")
    vals = series.values
    if len(vals) > 1:
        a, b = vals[:-1], vals[1:]
        diffs = np.where(b >= a, b - a, a - b)  # exact |b - a| in uint64
        transitions = int(np.count_nonzero(diffs))
        # Summing each 32-bit half cannot overflow uint64 for < 2^32 values,
        # and Python's int / int rounds the exact total correctly.
        high = int(np.sum(diffs >> np.uint64(32)))
        low = int(np.sum(diffs & np.uint64(0xFFFFFFFF)))
        mean_abs = ((high << 32) + low) / len(diffs)
    else:
        transitions = 0
        mean_abs = 0.0
    top = int(vals.max())
    if top < 1 << 16:  # most signals are narrow: count them in a table, not by sorting
        unique = int(np.count_nonzero(np.bincount(vals.astype(np.intp))))
    else:
        unique = len(np.unique(vals))
    return SignalSummary(
        minimum=int(vals.min()),
        maximum=top,
        unique_value_count=unique,
        value_transition_count=transitions,
        mean_abs_first_difference=mean_abs,
    )


def export_series_csv(series: Sequence[SignalSeries], paths) -> None:
    """Write each series' ``index,timestamp,value`` rows to its path.

    Index is chronological order. The series share one timestamps array,
    so each block's ``index,timestamp,`` columns are encoded once for all
    the files, which are open for the whole call.
    """
    if len(paths) != len(series):
        raise AnalysisError(f"{len(series)} series but {len(paths)} paths")
    if not series:
        return
    timestamps = series[0].timestamps
    for s in series:
        if len(s) != len(timestamps) or (
            s.timestamps is not timestamps and s.timestamps.tobytes() != timestamps.tobytes()
        ):
            raise AnalysisError("series written together must share their timestamps")
    widths = [decimal_width(int(s.values.max(initial=0))) for s in series]
    lines, (index, stamps, values) = line_matrix(len(timestamps), [
        decimal_width(len(timestamps)), b",", fixed6_width(timestamps), b",", max(widths) + 1])
    prefix = lines.shape[1] - values.shape[1]
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path in paths]
        for fh in files:
            fh.write(b"index,timestamp,value\n")
        for rows in row_blocks(len(timestamps)):
            k = rows.stop - rows.start
            decimal_field(np.arange(rows.start, rows.stop, dtype=np.uint64), index[:k])
            fixed6_field(timestamps[rows], stamps[:k])
            for s, width, fh in zip(series, widths, files):
                decimal_field(s.values[rows], values[:k, :width])
                values[:k, width] = ord("\n")
                fh.write(lines[:k, :prefix + width + 1].tobytes().translate(None, b"\0"))


def summary_to_dict(series: SignalSeries, summary: SignalSummary) -> dict:
    return {
        "id": format_id(series.arbitration_id),
        "lo": series.cluster.lo,
        "hi": series.cluster.hi,
        "width": series.width,
        "min": summary.minimum,
        "max": summary.maximum,
        "unique_values": summary.unique_value_count,
        "value_transitions": summary.value_transition_count,
        "mean_abs_first_difference": summary.mean_abs_first_difference,
    }


def padding_constants(words: np.ndarray, tok: Tokenization) -> np.uint64:
    """The payload word of each padding position's constant bit in a group's (M,) uint64
    payload words, zero elsewhere; InvariantError naming the lowest one that is not constant."""
    positions = sorted(p for c in tok.padding_clusters for p in c.positions)
    bits = np.zeros(len(positions), np.uint64)  # each position's bit, as a payload word
    for k, p in enumerate(positions):
        write_field(bits[k : k + 1], p, p, 1)
    flipped = np.flatnonzero(bits & np.bitwise_or.reduce(words ^ words[:1], initial=0))
    if flipped.size:
        raise InvariantError(f"padding position {positions[flipped[0]]} is not constant")
    return np.bitwise_or.reduce(bits, initial=0) & words[0]


def repack_payloads(tok: Tokenization, series_by_cluster: dict[tuple[int, int], SignalSeries],
                    padding: np.uint64, frame_count: int) -> np.ndarray:
    """Rebuild a group's (M,) uint64 `words` from its series and `padding_constants` word.

    Inverse of extraction when the tokenization's signal clusters cover
    every non-padding bit; used to verify lossless decomposition.
    """
    words = np.full(frame_count, padding, dtype=np.uint64)
    for c in tok.signal_clusters:
        series = series_by_cluster[(c.lo, c.hi)]
        if len(series) != frame_count:
            raise AnalysisError("series length does not match frame count")
        write_field(words, c.lsb_index, c.msb_index, series.values)
    return words


def export_summary_json(summaries: list[dict], path) -> None:
    write_json(summaries, path)
