"""Command-line front end: ingest -> TANG -> tokenize -> extract -> score.

Each subcommand prints a summary table by ascending arbitration id and writes
files into --out named by the id in at least 4 hex digits, ``_dlc<n>`` only for
an id with several analyzable dlcs, and ``_tang.csv``, ``_tokens.json``,
``_sig<lo>-<hi>.csv`` or ``_summary.json`` (synth and score: by the id alone).
Exit codes: 0 success, 1 input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import bitlab, frames, signals, synth, tokenizer
from .errors import CantokError, InvariantError
from .frames import Trace, load_trace, parse_hex_id, partition_by_id, write_candump, write_json
from .tokenizer import TokenizerConfig


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="output directory")


def _add_capture_flags(p: argparse.ArgumentParser) -> None:
    """Flags shared by every command that reads a capture, and --out."""
    p.add_argument("--format", choices=("candump", "csv"), default="candump")
    _add_out_flag(p)
    p.add_argument("--lenient", action="store_true", help="skip malformed lines instead of aborting")


def _add_tokenizer_flags(p: argparse.ArgumentParser) -> None:
    """Flags shared by every command that tokenizes: the TokenizerConfig fields."""
    defaults = TokenizerConfig()
    p.add_argument("--endianness", choices=tokenizer.ENDIANNESSES, default=defaults.endianness)
    p.add_argument("--threshold", type=int, default=defaults.threshold, metavar="UINT")
    p.add_argument("--padding-mode", choices=tokenizer.PADDING_MODES, default=defaults.padding_mode)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantok",
        description="Reverse-engineer CAN payload structure from traffic captures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary, run in (
        ("tang", "per-id transition count vectors", cmd_tang),
        ("tokenize", "greedy signal/padding clustering", cmd_tokenize),
        ("extract", "unsigned-integer series per signal", cmd_extract),
    ):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--input", "-i", required=True, help="capture file")
        p.add_argument("--ids", default=None, help="comma-separated id filter, e.g. 0x100,0x200")
        _add_capture_flags(p)
        if name != "tang":
            _add_tokenizer_flags(p)

    p = sub.add_parser("synth", help="generate a trace from a ground-truth spec")
    p.set_defaults(run=cmd_synth)
    p.add_argument("--input", "-i", required=True, help="ground-truth JSON spec")
    _add_out_flag(p)

    p = sub.add_parser("score", help="compare a tokenization to ground truth")
    p.set_defaults(run=cmd_score)
    p.add_argument("--tokenization", "-t", default=None, help="tokenization JSON")
    p.add_argument("--input", "-i", default=None, help="trace to tokenize (alternative to -t)")
    p.add_argument("--ground-truth", "-g", required=True, help="ground-truth JSON spec")
    _add_capture_flags(p)
    _add_tokenizer_flags(p)
    return parser


def _config(args) -> TokenizerConfig:
    return TokenizerConfig(**{f.name: getattr(args, f.name) for f in fields(TokenizerConfig)})


def _id_filter(args) -> set[int] | None:
    if args.ids is None:
        return None
    wanted = set()
    for tok in filter(None, args.ids.split(",")):
        try:
            wanted.add(parse_hex_id(tok.strip()))
        except ValueError:
            raise CantokError(f"--ids: {tok!r} is not a hex id") from None
    return wanted


def _select_groups(groups: dict, wanted: set[int] | None) -> list:
    """`bitlab.analyzable`'s kept groups, with one warning per skipped group."""
    kept, skipped = bitlab.analyzable(groups, wanted)
    for (arb_id, dlc), reason in skipped:
        print(f"warning: skipping id 0x{arb_id:X} dlc {dlc}: {reason}", file=sys.stderr)
    return kept


def _stem(arb_id: int, dlc: int | None = None) -> str:
    """File-name stem: the id in at least 4 hex digits, then the dlc if given."""
    return f"{arb_id:04X}" + ("" if dlc is None else f"_dlc{dlc}")


def _outdir(args) -> Path:
    """The --out directory, made if missing."""
    (outdir := Path(args.out)).mkdir(parents=True, exist_ok=True)
    return outdir


def _load(args) -> Trace:
    """The --input capture; only extract, which writes series, keeps its timestamps."""
    return load_trace(args.input, format=args.format, strict=not args.lenient,
                      timestamps=args.command == "extract")


def _analysis_input(args, columns: dict[str, int]):
    """The analyzable groups as ``(key, idtrace, stem)``, and the row format of the table
    whose `columns` map names to widths; prints its header if there is a group. A stem
    is --out joined to `_stem`, with the dlc only for an id of several analyzable dlcs."""
    outdir = _outdir(args)
    wanted = _id_filter(args)  # before the load, so a bad filter fails fast
    # no name holds the capture, so partition_by_id frees each column once done with it
    groups = _select_groups(partition_by_id(_load(args)), wanted)
    row = " ".join(f"{{:>{w}}}" for w in columns.values())
    if groups:
        print(row.format(*columns))
    else:
        print("warning: no analyzable ids", file=sys.stderr)
    by_id = Counter(arb_id for (arb_id, _), _g in groups)
    return [((i, dlc), g, f"{outdir}/{_stem(i, dlc if by_id[i] > 1 else None)}")
            for (i, dlc), g in groups], row


def cmd_tang(args) -> int:
    groups, row = _analysis_input(
        args, {"id": 10, "dlc": 3, "frames": 8, "active_bits": 11, "max_transitions": 15})
    step = frames.BLOCK_ROWS // (8 * frames.MAX_DLC)  # whole groups of at most a block's rows
    for a in range(0, len(groups), step):
        batch = groups[a : a + step]
        tangs = [bitlab.tang_from_idtrace(idtrace) for _key, idtrace, _ in batch]
        bitlab.export_tang_csv(tangs, [f"{stem}_tang.csv" for *_, stem in batch])
        counts = np.concatenate([t.counts for t in tangs])
        first = np.cumsum([0] + [t.bit_width for t in tangs[:-1]])  # each group's first row
        active = np.add.reduceat(counts > 0, first).tolist()
        top = np.maximum.reduceat(counts, first).tolist()
        for ((arb_id, dlc), idtrace, _), n_active, n_max in zip(batch, active, top):
            print(row.format(tokenizer.format_id(arb_id), dlc, len(idtrace), n_active, n_max))
    return 0


def cmd_tokenize(args) -> int:
    config = _config(args)
    groups, row = _analysis_input(args, {"id": 10, "dlc": 3, "signals": 8, "padding": 8})
    for (arb_id, dlc), idtrace, stem in groups:
        tok = tokenizer.tokenize(bitlab.tang_from_idtrace(idtrace), config)
        tokenizer.export_tokenization_json(tok, f"{stem}_tokens.json")
        print(row.format(tokenizer.format_id(arb_id), dlc,
                         len(tok.signal_clusters), len(tok.padding_clusters)))
    return 0


def cmd_extract(args) -> int:
    config = _config(args)
    groups, row = _analysis_input(
        args, {"id": 10, "cluster": 9, "width": 5, "unique": 8, "mean|d|": 10})
    for (arb_id, _dlc), idtrace, stem in groups:
        tok = tokenizer.tokenize(bitlab.tang_from_idtrace(idtrace), config)
        group = signals.extract_series(idtrace, tok.signal_clusters)
        signals.export_series_csv(
            group, [f"{stem}_sig{s.cluster.lo}-{s.cluster.hi}.csv" for s in group])
        summaries = []
        for series in group:
            c, s = series.cluster, signals.summarize(series)
            summaries.append(signals.summary_to_dict(series, s))
            print(row.format(tokenizer.format_id(arb_id), f"[{c.lo}..{c.hi}]", c.width,
                             s.unique_value_count, f"{s.mean_abs_first_difference:.6f}"))
        signals.export_summary_json(summaries, f"{stem}_summary.json")
    return 0


def cmd_synth(args) -> int:
    outdir = _outdir(args)
    gt = synth.load_ground_truth(args.input)
    trace = synth.generate_trace(gt)
    stem = _stem(gt.arbitration_id)
    write_candump(trace, outdir / f"{stem}_trace.log")
    synth.save_ground_truth(gt, outdir / f"{stem}_groundtruth.json")
    print(
        f"{tokenizer.format_id(gt.arbitration_id)}: wrote {gt.frame_count} frames, "
        f"{len(gt.specs)} signal(s)"
    )
    return 0


def cmd_score(args) -> int:
    outdir = _outdir(args)
    gt = synth.load_ground_truth(args.ground_truth)
    if args.tokenization:
        with open(args.tokenization) as fh:
            tok = tokenizer.tokenization_from_dict(json.load(fh))
    elif args.input:
        config = _config(args)
        groups = dict(_select_groups(partition_by_id(_load(args)), {gt.arbitration_id}))
        key = (gt.arbitration_id, gt.bit_width // 8)
        if key not in groups:
            raise CantokError(
                f"trace has no analyzable group for id {tokenizer.format_id(key[0])} dlc {key[1]}"
            )
        tok = tokenizer.tokenize(bitlab.tang_from_idtrace(groups[key]), config)
    else:
        raise CantokError("score needs --tokenization or --input")
    data = synth.score_to_dict(synth.score_tokenization(tok, gt))
    write_json(data, outdir / f"{_stem(gt.arbitration_id)}_score.json")
    print(f"{'metric':<22} value")
    for k, v in data.items():
        print(f"{k:<22} {v}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (CantokError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
