"""Synthetic trace generation with known signal layouts, plus scoring.

The generators model approximately continuous signals (counter, ramp,
random walk) so the transition-count gradient the clusterer relies on is
present by construction; `noise` provides the adversarial case. Scoring
compares a recovered tokenization against the generating layout.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from importlib import resources

import numpy as np

from .bitlab import write_field
from .errors import AnalysisError
from .frames import (
    EXTENDED_ID_MAX, OUTSIDE_ID_RANGE, Trace, parse_hex_id, require_uints, row_blocks,
    timestamps_of, write_json,
)
from .tokenizer import ENDIANNESSES, SIGNAL, Tokenization, format_id

GENERATOR_KINDS = ("counter", "ramp", "random_walk", "constant", "noise")

FRAME_PERIOD_S = 0.01
MAX_FRAMES = 10_000_000  # a 64-bit group of this many frames takes about 330 MB to generate


@dataclass(frozen=True, slots=True)
class SignalSpec:
    """Layout and generator for one embedded signal."""

    lo: int
    hi: int
    kind: str
    endianness: str = "big"
    step: int = 1  # counter increment per frame
    max_step: int = 1  # ramp slope / random-walk step bound
    value: int = 0  # constant kind
    start: int = 0  # counter start value

    def __post_init__(self):
        require_uints(self)
        if max(self.step, self.start, self.value) >> 64 or self.max_step >> 63:  # uint64, int64
            raise ValueError("step, start and value must be below 2**64, max_step below 2**63")
        if self.kind not in GENERATOR_KINDS:
            raise AnalysisError(f"unknown generator kind {self.kind!r}")
        if self.lo > self.hi:
            raise AnalysisError(f"empty signal range [{self.lo}, {self.hi}]")
        if self.endianness not in ENDIANNESSES:
            raise AnalysisError(f"unknown endianness {self.endianness!r}")

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """Full layout of one synthetic arbitration id."""

    arbitration_id: int
    bit_width: int
    specs: tuple[SignalSpec, ...]
    frame_count: int
    seed: int = 0
    padding_value: int = 0  # constant bit filling uncovered positions
    start_time: float = 0.0

    def __post_init__(self):
        require_uints(self)
        if self.frame_count > MAX_FRAMES:
            raise ValueError(f"frame_count must be at most {MAX_FRAMES}, not {self.frame_count}")
        if self.padding_value > 1:
            raise ValueError(f"padding_value must be 0 or 1, not {self.padding_value}")
        if self.arbitration_id > EXTENDED_ID_MAX:
            raise AnalysisError(OUTSIDE_ID_RANGE.format(self.arbitration_id))
        if isinstance(self.start_time, bool) or not isinstance(self.start_time, (int, float)):
            raise TypeError(f"start_time must be a number, not {self.start_time!r}")
        if not math.isfinite(self.start_time) or self.start_time < 0:
            raise ValueError(f"start_time must be finite and nonnegative, not {self.start_time!r}")
        if self.bit_width % 8 or not 0 < self.bit_width <= 64:
            raise AnalysisError("bit width must be a positive multiple of 8, <= 64")
        covered = set()
        for s in self.specs:
            if s.hi >= self.bit_width:
                raise AnalysisError(
                    f"signal [{s.lo}, {s.hi}] outside payload width {self.bit_width}"
                )
            span = set(range(s.lo, s.hi + 1))
            if covered & span:
                raise AnalysisError("overlapping signal specs")
            covered |= span


@dataclass(frozen=True, slots=True)
class ScoreReport:
    exact_cluster_matches: int
    boundary_precision: float
    boundary_recall: float
    merged_count: int
    split_count: int


def _generate_values(spec: SignalSpec, m: int, rng: np.random.Generator) -> np.ndarray:
    """Length-m uint64 value sequence for one signal spec."""
    w = spec.width
    top = 1 << w  # exclusive upper bound
    if spec.kind == "counter":
        vals = np.uint64(spec.start) + np.uint64(spec.step) * np.arange(m, dtype=np.uint64)
        if w < 64:
            vals = vals % np.uint64(top)
        return vals
    if spec.kind == "constant":
        if spec.value >> w:
            raise AnalysisError(f"constant {spec.value} does not fit {w} bits")
        return np.full(m, spec.value, dtype=np.uint64)
    if spec.kind == "noise":
        return rng.integers(0, top - 1, size=m, dtype=np.uint64, endpoint=True)
    v = int(rng.integers(0, min(top, 1 << 62)))
    hi = top - 1
    if spec.kind == "ramp":
        # Segments climb by `slope` per frame, saturating at 0 or hi. Their steps,
        # as uint64 two's complement, are laid out in runs: the cumsum is exact.
        runs, lengths = [v], [1]
        pos = 1
        while pos < m:
            slope = int(rng.integers(-spec.max_step, spec.max_step + 1))
            seg = min(int(rng.integers(1, max(2, m // 8 + 1))), m - pos)
            bound = hi if slope > 0 else 0
            free = min(seg, abs(bound - v) // abs(slope)) if slope else seg
            end = v + slope * free
            runs += [slope % 2**64, (bound - end) % 2**64, 0]
            lengths += [free, int(free < seg), max(seg - free - 1, 0)]
            v = end if free == seg else bound
            pos += seg
        return np.cumsum(np.repeat(np.array(runs, dtype=np.uint64), lengths)[:m], dtype=np.uint64)
    # random_walk: sequential clamping keeps steps continuous at the edges
    out = np.empty(m, dtype=np.uint64)
    steps = rng.integers(-spec.max_step, spec.max_step + 1, size=m)
    for rows in row_blocks(m):  # steps turned into Python ints a block at a time
        block = steps[rows].tolist()
        for k, step in enumerate(block):
            v += step
            if v < 0:
                v = 0
            elif v > hi:
                v = hi
            block[k] = v
        out[rows] = block
    return out


def generate_trace(gt: GroundTruth) -> Trace:
    """Deterministically synthesize the trace described by a GroundTruth."""
    rng = np.random.default_rng(gt.seed)
    m = gt.frame_count
    padding = (1 << gt.bit_width) - 1  # positions 0 to bit_width - 1: the dlc bytes all ones
    words = np.full(m, padding if gt.padding_value else 0, dtype=np.uint64)
    for spec in gt.specs:
        lsb, msb = (spec.hi, spec.lo) if spec.endianness == "big" else (spec.lo, spec.hi)
        write_field(words, lsb, msb, _generate_values(spec, m, rng))
    return Trace(
        timestamps=gt.start_time + np.arange(m) * FRAME_PERIOD_S,
        ids=np.full(m, gt.arbitration_id, dtype=np.uint32),
        dlcs=np.full(m, gt.bit_width // 8, dtype=np.uint8),
        words=words,
    )


def merge_traces(traces: list[Trace]) -> Trace:
    """Interleave traces by timestamp (stable, so per-id order is kept)."""
    if not traces:
        return Trace([], [], [], [])
    timestamps = np.concatenate([timestamps_of(t) for t in traces])
    order = np.argsort(timestamps, kind="stable")
    timestamps = timestamps[order]  # column by column: each concatenation is freed once gathered
    return Trace(timestamps, *(np.concatenate([getattr(t, name) for t in traces])[order]
                               for name in ("ids", "dlcs", "words")))


def score_tokenization(tok: Tokenization, gt: GroundTruth) -> ScoreReport:
    """Compare recovered clusters against the generating layout."""
    if tok.bit_width != gt.bit_width:
        raise AnalysisError(
            f"bit width mismatch: tokenization {tok.bit_width}, truth {gt.bit_width}"
        )
    # A cut between adjacent tokens is named by the left token's last bit;
    # a signal spec ends a token at its hi and starts one at its lo.
    last = gt.bit_width - 1
    truth_cuts = {s.lo - 1 for s in gt.specs if s.lo > 0} | {
        s.hi for s in gt.specs if s.hi < last
    }
    tok_cuts = {c.hi for c in tok.clusters if c.hi < last}
    hit = truth_cuts & tok_cuts
    precision = len(hit) / len(tok_cuts) if tok_cuts else 1.0
    recall = len(hit) / len(truth_cuts) if truth_cuts else 1.0

    tok_signals = [(c.lo, c.hi) for c in tok.clusters if c.kind == SIGNAL]
    true_signals = [(s.lo, s.hi) for s in gt.specs]
    exact = sum(1 for s in true_signals if s in tok_signals)

    def overlaps(a, b):
        return a[0] <= b[1] and b[0] <= a[1]

    merged = sum(
        1 for c in tok_signals if sum(overlaps(c, s) for s in true_signals) >= 2
    )
    split = sum(
        1 for s in true_signals if sum(overlaps(s, c) for c in tok_signals) >= 2
    )
    return ScoreReport(
        exact_cluster_matches=exact,
        boundary_precision=precision,
        boundary_recall=recall,
        merged_count=merged,
        split_count=split,
    )


def score_to_dict(report: ScoreReport) -> dict:
    """The score JSON: counts, and precision and recall to 6 decimals."""
    return {
        "exact_cluster_matches": report.exact_cluster_matches,
        "boundary_precision": round(report.boundary_precision, 6),
        "boundary_recall": round(report.boundary_recall, 6),
        "merged": report.merged_count,
        "split": report.split_count,
    }


def ground_truth_to_dict(gt: GroundTruth) -> dict:
    """The spec JSON; ``start_time`` appears only when it is not zero."""
    out = {
        "id": format_id(gt.arbitration_id),
        "bit_width": gt.bit_width,
        "frames": gt.frame_count,
        "seed": gt.seed,
        "padding_value": gt.padding_value,
    }
    if gt.start_time:
        out["start_time"] = gt.start_time
    out["signals"] = [asdict(s) for s in gt.specs]
    return out


def ground_truth_from_dict(data: dict) -> GroundTruth:
    try:
        specs = tuple(
            SignalSpec(**{
                f.name: s[f.name]
                for f in fields(SignalSpec)
                if f.name in s or f.default is MISSING
            })
            for s in data["signals"]
        )
        return GroundTruth(
            arbitration_id=parse_hex_id(data["id"]),
            bit_width=data["bit_width"],
            specs=specs,
            frame_count=data["frames"],
            seed=data.get("seed", 0),
            padding_value=data.get("padding_value", 0),
            start_time=data.get("start_time", 0.0),
        )
    except KeyError as exc:
        raise AnalysisError(f"ground truth spec missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: a huge int
        raise AnalysisError(f"invalid ground truth spec: {exc}") from None


def load_ground_truth(path) -> GroundTruth:
    with open(path) as fh:
        return ground_truth_from_dict(json.load(fh))


def save_ground_truth(gt: GroundTruth, path) -> None:
    write_json(ground_truth_to_dict(gt), path)


def bundled_spec_path():
    """Path to the packaged three-counter example layout."""
    return resources.files("cantok").joinpath("data/three_counters.json")
