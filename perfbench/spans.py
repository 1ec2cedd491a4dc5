"""Spans recorded around cantok's public functions, from outside the package.

`install` replaces module attributes with timing wrappers in the current
process only; nothing under ``src/`` changes. Each span is
``(name, start, end, parent)`` with ``parent`` the index of the enclosing
span or -1. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# (module, attribute, span name, counters taken from (args, result)).
# A function imported into several modules is wrapped in each, so calls
# through any of those names are seen (e.g. the bit-matrix rebuild that
# signals.extract_series does).
TARGETS = (
    ("cantok.cli", "load_trace", "frames.load",
     lambda a, r: {"frames.rss_after_load_mb": _maxrss_mb()}),
    ("cantok.cli", "partition_by_id", "frames.partition",
     lambda a, r: {"frames.groups": len(r)}),
    ("cantok.bitlab", "tang_from_idtrace", "bitlab.tang", None),
    ("cantok.bitlab", "build_bit_matrix", "bitlab.bit_matrix", None),
    ("cantok.signals", "build_bit_matrix", "bitlab.bit_matrix", None),
    ("cantok.bitlab", "transition_matrix", "bitlab.transition",
     lambda a, r: {"bitlab.xor_bytes": r.bits.nbytes}),
    ("cantok.bitlab", "compute_tang", "bitlab.counts", None),
    ("cantok.bitlab", "export_tang_csv", "bitlab.export_tang", None),
    ("cantok.tokenizer", "tokenize", "tokenizer.tokenize",
     lambda a, r: {"tokenizer.signal_clusters": len(r.signal_clusters)}),
    ("cantok.tokenizer", "export_tokenization_json", "tokenizer.export", None),
    ("cantok.signals", "extract_series", "signals.extract", None),
    ("cantok.signals", "summarize", "signals.summarize", None),
    ("cantok.signals", "export_series_csv", "signals.export_series",
     lambda a, r: {"signals.series_rows": len(a[0])}),
    ("cantok.signals", "export_summary_json", "signals.export_summary", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, count=None):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)
        if count is not None:
            for key, value in count(args, result).items():
                if key.endswith("_mb"):  # a level, not a total: keep the last
                    self.counts[key] = value
                else:
                    self.counts[key] = self.counts.get(key, 0) + value
        return result

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; a missing one is left out."""
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self.wrap(name, fn, count))


def layer_metrics(spans, counts: dict, frames_loaded: int) -> dict:
    """Per-layer metrics: summed span durations, call counts and counters.

    `frames_loaded` is the length of the trace ``cli.load_trace`` returned.

    A ``_s`` time includes the spans nested in it (``signals.extract_s``
    contains its bit-matrix rebuilds); ``cli.self_s`` is the root span minus
    the time its direct children cover.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += end - start
    roots = [i for i, s in enumerate(spans) if s[0] == "cli.main"]
    groups = counts.get("frames.groups", 0)
    return {
        "frames.load_s": total.get("frames.load", 0.0),
        "frames.load_us_per_frame": (
            1e6 * total.get("frames.load", 0.0) / frames_loaded if frames_loaded else 0.0
        ),
        "frames.frames_loaded": frames_loaded,
        "frames.partition_s": total.get("frames.partition", 0.0),
        "frames.groups": groups,
        "frames.rss_after_load_mb": counts.get("frames.rss_after_load_mb", 0.0),
        "bitlab.bit_matrix_s": total.get("bitlab.bit_matrix", 0.0),
        "bitlab.bit_matrix_calls": calls.get("bitlab.bit_matrix", 0),
        "bitlab.bit_matrix_calls_per_group": (
            calls.get("bitlab.bit_matrix", 0) / groups if groups else 0.0
        ),
        "bitlab.transition_s": total.get("bitlab.transition", 0.0),
        "bitlab.xor_bytes": counts.get("bitlab.xor_bytes", 0),
        "bitlab.counts_s": total.get("bitlab.counts", 0.0),
        "bitlab.tang_s": total.get("bitlab.tang", 0.0),
        "bitlab.export_tang_s": total.get("bitlab.export_tang", 0.0),
        "tokenizer.tokenize_s": total.get("tokenizer.tokenize", 0.0),
        "tokenizer.calls": calls.get("tokenizer.tokenize", 0),
        "tokenizer.signal_clusters": counts.get("tokenizer.signal_clusters", 0),
        "tokenizer.export_s": total.get("tokenizer.export", 0.0),
        "signals.extract_s": total.get("signals.extract", 0.0),
        "signals.extract_calls": calls.get("signals.extract", 0),
        "signals.summarize_s": total.get("signals.summarize", 0.0),
        "signals.export_series_s": total.get("signals.export_series", 0.0),
        "signals.series_rows": counts.get("signals.series_rows", 0),
        "signals.export_summary_s": total.get("signals.export_summary", 0.0),
        "cli.self_s": sum(spans[i][2] - spans[i][1] - child_time[i] for i in roots),
    }
