"""Greedy clustering of bit positions into signal and padding tokens.

The clusterer walks a transition-count vector: the position with the most
flips is assumed to be the LSB of a numerical signal, and neighbors are
absorbed toward the MSB while their counts stay within the allowed slack.
Positions that never flipped are pooled into padding tokens.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from itertools import groupby

from .bitlab import Tang
from .errors import AnalysisError, InvariantError
from .frames import parse_hex_id, require_uints, write_json

ENDIANNESSES = ("big", "little")
PADDING_MODES = ("exclude", "strict")

SIGNAL = "signal"
PADDING = "padding"


@dataclass(frozen=True, slots=True)
class TokenizerConfig:
    """Knobs for the greedy clusterer.

    endianness sets the neighbor offset (-1 for big, +1 for little);
    threshold is the integer transition-count slack allowed when absorbing
    a neighbor (0 keeps the strict nonincreasing rule); padding_mode
    controls whether zero-transition bits may be absorbed into signal
    clusters (`strict`) or always pooled as padding (`exclude`).
    """

    endianness: str = "big"
    threshold: int = 0
    padding_mode: str = "exclude"

    def __post_init__(self):
        if self.endianness not in ENDIANNESSES:
            raise AnalysisError(f"endianness must be one of {ENDIANNESSES}")
        if self.padding_mode not in PADDING_MODES:
            raise AnalysisError(f"padding_mode must be one of {PADDING_MODES}")
        if self.threshold < 0:  # before require_uints, which raises ValueError
            raise AnalysisError("threshold must be nonnegative")
        require_uints(self)


@dataclass(frozen=True, slots=True)
class TokenCluster:
    """One tokenized bit range [lo, hi], either a signal or padding."""

    kind: str
    lo: int
    hi: int
    lsb_index: int | None = None
    msb_index: int | None = None
    lsb_transitions: int | None = None

    def __post_init__(self):
        require_uints(self)
        if self.kind not in (SIGNAL, PADDING):
            raise InvariantError(f"unknown cluster kind {self.kind!r}")
        if self.lo > self.hi:
            raise InvariantError(f"empty cluster range [{self.lo}, {self.hi}]")
        if self.kind == SIGNAL and {self.lsb_index, self.msb_index} != {self.lo, self.hi}:
            raise InvariantError("signal cluster lsb/msb indices are not its two ends")

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    @property
    def positions(self) -> range:
        return range(self.lo, self.hi + 1)


@dataclass(frozen=True, slots=True)
class Tokenization:
    """Partition of one payload's bit positions into clusters."""

    arbitration_id: int
    bit_width: int
    clusters: tuple[TokenCluster, ...]
    config: TokenizerConfig

    def __post_init__(self):
        require_uints(self)
        seen = [False] * self.bit_width
        for c in self.clusters:
            for p in c.positions:
                if p < 0 or p >= self.bit_width or seen[p]:
                    raise InvariantError(
                        f"clusters do not partition bit positions (position {p})"
                    )
                seen[p] = True
        if not all(seen):
            raise InvariantError("clusters do not cover all bit positions")

    @property
    def signal_clusters(self) -> tuple[TokenCluster, ...]:
        return tuple(c for c in self.clusters if c.kind == SIGNAL)

    @property
    def padding_clusters(self) -> tuple[TokenCluster, ...]:
        return tuple(c for c in self.clusters if c.kind == PADDING)


def tokenize(tang: Tang, config: TokenizerConfig = TokenizerConfig()) -> Tokenization:
    """Greedily cluster a transition-count vector into tokens.

    Positions are visited in descending count order; each unassigned
    position seeds a cluster as its LSB and absorbs the neighbor toward
    the MSB side while ``neighbor <= current + threshold``. Extension
    stops at array bounds, at already-assigned positions, and (in exclude
    mode) at zero-count positions. Zero-count positions never seed signal
    clusters; leftover runs of them become padding tokens.

    Ties in the visit order are broken toward the side extension grows
    from (ascending index for big-endian, descending for little-endian),
    which keeps the result deterministic and mirror-symmetric under
    endianness reversal.
    """
    if tang.bit_width < 1:
        raise AnalysisError("cannot tokenize a zero-width payload")
    counts = tang.counts
    n = tang.bit_width
    offset = -1 if config.endianness == "big" else 1
    order = sorted(range(n), key=lambda i: (-counts[i], -offset * i))

    assigned = [False] * n
    signals: list[TokenCluster] = []
    for seed in order:
        if assigned[seed] or counts[seed] == 0:
            continue
        assigned[seed] = True
        current = seed
        neighbor = seed + offset
        while (
            0 <= neighbor < n
            and not assigned[neighbor]
            and counts[neighbor] <= counts[current] + config.threshold
            and (config.padding_mode == "strict" or counts[neighbor] > 0)
        ):
            assigned[neighbor] = True
            current = neighbor
            neighbor += offset
        signals.append(TokenCluster(
            SIGNAL, min(seed, current), max(seed, current),
            lsb_index=seed, msb_index=current, lsb_transitions=int(counts[seed]),
        ))

    padding: list[TokenCluster] = []
    for free, run in groupby(range(n), key=lambda i: not assigned[i]):
        if free:
            run = list(run)
            padding.append(TokenCluster(kind=PADDING, lo=run[0], hi=run[-1]))

    clusters = tuple(sorted(signals + padding, key=lambda c: c.lo))
    return Tokenization(
        arbitration_id=tang.arbitration_id,
        bit_width=n,
        clusters=clusters,
        config=config,
    )


def format_id(arbitration_id: int) -> str:
    """Hex id string used in reports and JSON files (min 4 digits)."""
    return f"0x{arbitration_id:04X}"


def tokenization_to_dict(tok: Tokenization) -> dict:
    """JSON-ready dict with fixed field names and ordering."""
    return {
        "id": format_id(tok.arbitration_id),
        "bit_width": tok.bit_width,
        "config": asdict(tok.config),
        "clusters": [
            {
                "kind": c.kind,
                "lo": c.lo,
                "hi": c.hi,
                "lsb": c.lsb_index,
                "msb": c.msb_index,
                "lsb_transitions": c.lsb_transitions,
            }
            for c in tok.clusters
        ],
    }


def tokenization_from_dict(data: dict) -> Tokenization:
    """Inverse of `tokenization_to_dict`; malformed input raises AnalysisError."""
    if not isinstance(data, dict):
        raise AnalysisError(f"invalid tokenization: a {type(data).__name__}, not an object")
    try:
        cfg = data.get("config", {})
        if not isinstance(cfg, dict):
            raise TypeError(f"config is a {type(cfg).__name__}, not an object")
        clusters = tuple(
            TokenCluster(
                c["kind"], c["lo"], c["hi"], c.get("lsb"), c.get("msb"), c.get("lsb_transitions")
            )
            for c in data["clusters"]
        )
        config = TokenizerConfig(
            **{f.name: cfg[f.name] for f in fields(TokenizerConfig) if f.name in cfg}
        )
        return Tokenization(parse_hex_id(data["id"]), data["bit_width"], clusters, config)
    except KeyError as exc:
        raise AnalysisError(f"tokenization missing field {exc}") from None
    except (InvariantError, TypeError, ValueError) as exc:
        raise AnalysisError(f"invalid tokenization: {exc}") from None


def export_tokenization_json(tok: Tokenization, path) -> None:
    write_json(tokenization_to_dict(tok), path)
