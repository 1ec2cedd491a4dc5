"""One benchmark step in its own process; writes a JSON result file.

    python3 perfbench/child.py setup RESULT WORKLOAD SEED SCALE CAPTURE [TRUTH]
    python3 perfbench/child.py run RESULT TRACE -- <cantok cli arguments>

`setup` generates a workload's capture. `run` calls ``cantok.cli.main``
once with the given arguments and records its wall time, peak RSS, and
the number of frames ``cantok.cli.load_trace`` returned; with TRACE=1 it
also records spans around cantok's public functions. Imports finish
before the timer starts. The caller puts ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def run(result_path: str, trace: bool, argv: list[str]) -> None:
    from cantok import cli

    from spans import Tracer, layer_metrics

    # The oracle's frame count is the length of the trace the CLI loaded,
    # so it does not depend on what the loader logs.
    loaded = []
    load_trace = cli.load_trace

    def counted_load_trace(*args, **kwargs):
        result = load_trace(*args, **kwargs)
        loaded.append(len(result))
        return result

    cli.load_trace = counted_load_trace
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        rc = main(argv)
        wall = time.perf_counter() - start
    out = {
        "rc": rc,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "frames_loaded": sum(loaded) if loaded else None,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans, tracer.counts, sum(loaded))
    with open(result_path, "w") as fh:
        json.dump(out, fh)


def setup(result_path, workload, seed, scale, capture, truth=None) -> None:
    from workloads import generate

    timings = generate(workload, int(seed), capture, float(scale), truth)
    with open(result_path, "w") as fh:
        json.dump({"setup_s": sum(timings.values()), "timings": timings}, fh)


def main(argv: list[str]) -> int:
    if len(argv) >= 6 and argv[0] == "setup":
        setup(*argv[1:7])
        return 0
    if len(argv) >= 4 and argv[0] == "run" and argv[3] == "--":
        run(argv[1], argv[2] == "1", argv[4:])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
