"""cantok: unsupervised structure recovery for CAN message payloads.

Pipeline: load a traffic capture, group frames per arbitration id, count
per-bit transitions between sequential payloads, greedily cluster bit
positions into signal/padding tokens, and extract each signal as an
unsigned-integer time series. A synthetic-trace generator with known
layouts provides a scoring oracle.
"""

from .bitlab import (
    Tang,
    build_bit_matrix,
    normalize_tang,
    tang_from_idtrace,
    transition_matrix,
)
from .errors import AnalysisError, CantokError, InvariantError, ParseError
from .frames import (
    CanFrame,
    IdTrace,
    Trace,
    load_trace,
    parse_candump_line,
    parse_csv_line,
    partition_by_id,
    write_candump,
)
from .signals import SignalSeries, SignalSummary, extract_series, summarize
from .synth import (
    GroundTruth,
    ScoreReport,
    SignalSpec,
    generate_trace,
    load_ground_truth,
    score_tokenization,
)
from .tokenizer import (
    TokenCluster,
    Tokenization,
    TokenizerConfig,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "CanFrame",
    "CantokError",
    "GroundTruth",
    "IdTrace",
    "InvariantError",
    "ParseError",
    "ScoreReport",
    "SignalSeries",
    "SignalSpec",
    "SignalSummary",
    "Tang",
    "TokenCluster",
    "Tokenization",
    "TokenizerConfig",
    "Trace",
    "build_bit_matrix",
    "extract_series",
    "generate_trace",
    "load_trace",
    "load_ground_truth",
    "normalize_tang",
    "parse_candump_line",
    "parse_csv_line",
    "partition_by_id",
    "score_tokenization",
    "summarize",
    "tang_from_idtrace",
    "tokenize",
    "transition_matrix",
    "write_candump",
]
