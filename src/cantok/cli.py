"""Command-line front end: ingest -> TANG -> tokenize -> extract -> score.

Each subcommand writes machine-readable files named ``<id hex>_<kind>.<ext>``
into the output directory and prints a summary table ordered by ascending
arbitration id. Exit codes: 0 success, 1 input error, 2 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

from . import bitlab, signals, synth, tokenizer
from .errors import CantokError, InvariantError
from .frames import IdTrace, Trace, load_trace, parse_hex_id, partition_by_id, write_candump
from .tokenizer import TokenizerConfig


def _add_capture_flags(p: argparse.ArgumentParser) -> None:
    """Flags shared by every command that reads a capture."""
    p.add_argument("--format", choices=("candump", "csv"), default="candump")
    p.add_argument("--out", default=".", help="output directory")
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

    for name, summary in (
        ("tang", "per-id transition count vectors"),
        ("tokenize", "greedy signal/padding clustering"),
        ("extract", "unsigned-integer series per signal"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--input", "-i", required=True, help="capture file")
        p.add_argument("--ids", default=None, help="comma-separated id filter, e.g. 0x100,0x200")
        _add_capture_flags(p)
        if name != "tang":
            _add_tokenizer_flags(p)

    p = sub.add_parser("synth", help="generate a trace from a ground-truth spec")
    p.add_argument("--input", "-i", required=True, help="ground-truth JSON spec")
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("score", help="compare a tokenization to ground truth")
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


def _select_groups(groups: dict, wanted: set[int] | None) -> list[tuple[tuple[int, int], IdTrace]]:
    """Analyzable groups of a partition_by_id result, in its ascending (id, dlc)
    order: each has two or more frames and a payload of at least one byte."""
    kept = []
    for key, idtrace in groups.items():
        if wanted is not None and key[0] not in wanted:
            continue
        if len(idtrace) < 2:
            reason = f"only {len(idtrace)} frame(s)"
        elif key[1] == 0:
            reason = "zero-width payload"
        else:
            kept.append((key, idtrace))
            continue
        print(f"warning: skipping id 0x{key[0]:X} dlc {key[1]}: {reason}", file=sys.stderr)
    return kept


def _stems(groups) -> dict[tuple[int, int], str]:
    """File-name stem per group; mixed-dlc ids get a dlc suffix."""
    by_id = Counter(arb_id for (arb_id, _), _g in groups)
    return {
        key: f"{key[0]:04X}" + (f"_dlc{key[1]}" if by_id[key[0]] > 1 else "")
        for key, _g in groups
    }


def _load(args) -> Trace:
    return load_trace(args.input, format=args.format, strict=not args.lenient)


def _analysis_input(args):
    """Output directory, analyzable groups and their file stems."""
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    wanted = _id_filter(args)  # before the load, so a bad filter fails fast
    # no name holds the capture, so partition_by_id frees each column once done with it
    groups = _select_groups(partition_by_id(_load(args)), wanted)
    if not groups:
        print("warning: no analyzable ids", file=sys.stderr)
    return outdir, groups, _stems(groups)


def cmd_tang(args) -> int:
    outdir, groups, stems = _analysis_input(args)
    if not groups:
        return 0
    print(f"{'id':>10} {'dlc':>3} {'frames':>8} {'active_bits':>11} {'max_transitions':>15}")
    for key, idtrace in groups:
        tang = bitlab.tang_from_idtrace(idtrace)
        bitlab.export_tang_csv(tang, outdir / f"{stems[key]}_tang.csv")
        active = int((tang.counts > 0).sum())
        print(
            f"{tokenizer.format_id(key[0]):>10} {key[1]:>3} {len(idtrace):>8} "
            f"{active:>11} {int(tang.counts.max()):>15}"
        )
    return 0


def cmd_tokenize(args) -> int:
    config = _config(args)
    outdir, groups, stems = _analysis_input(args)
    if not groups:
        return 0
    print(f"{'id':>10} {'dlc':>3} {'signals':>8} {'padding':>8}")
    for key, idtrace in groups:
        tok = tokenizer.tokenize(bitlab.tang_from_idtrace(idtrace), config)
        tokenizer.export_tokenization_json(tok, outdir / f"{stems[key]}_tokens.json")
        print(
            f"{tokenizer.format_id(key[0]):>10} {key[1]:>3} "
            f"{len(tok.signal_clusters):>8} {len(tok.padding_clusters):>8}"
        )
    return 0


def cmd_extract(args) -> int:
    config = _config(args)
    outdir, groups, stems = _analysis_input(args)
    if not groups:
        return 0
    print(f"{'id':>10} {'cluster':>9} {'width':>5} {'unique':>8} {'mean|d|':>10}")
    for key, idtrace in groups:
        tok = tokenizer.tokenize(bitlab.tang_from_idtrace(idtrace), config)
        group = signals.extract_series(idtrace, tok.signal_clusters)
        signals.export_series_csv(
            group, [outdir / f"{stems[key]}_sig{s.cluster.lo}-{s.cluster.hi}.csv" for s in group]
        )
        summaries = []
        for series in group:
            c = series.cluster
            summary = signals.summarize(series)
            summaries.append(signals.summary_to_dict(series, summary))
            print(
                f"{tokenizer.format_id(key[0]):>10} {f'[{c.lo}..{c.hi}]':>9} "
                f"{c.width:>5} {summary.unique_value_count:>8} "
                f"{summary.mean_abs_first_difference:>10.6f}"
            )
        signals.export_summary_json(summaries, outdir / f"{stems[key]}_summary.json")
    return 0


def cmd_synth(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    gt = synth.load_ground_truth(args.input)
    trace = synth.generate_trace(gt)
    stem = f"{gt.arbitration_id:04X}"
    write_candump(trace, outdir / f"{stem}_trace.log")
    synth.save_ground_truth(gt, outdir / f"{stem}_groundtruth.json")
    print(
        f"{tokenizer.format_id(gt.arbitration_id)}: wrote {gt.frame_count} frames, "
        f"{len(gt.specs)} signal(s)"
    )
    return 0


def cmd_score(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
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
                f"trace has no analyzable group for id "
                f"{tokenizer.format_id(gt.arbitration_id)} dlc {gt.bit_width // 8}"
            )
        tok = tokenizer.tokenize(bitlab.tang_from_idtrace(groups[key]), config)
    else:
        raise CantokError("score needs --tokenization or --input")
    report = synth.score_tokenization(tok, gt)
    data = synth.score_to_dict(report)
    stem = f"{gt.arbitration_id:04X}"
    with open(outdir / f"{stem}_score.json", "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    print(f"{'metric':<22} value")
    for k, v in data.items():
        print(f"{k:<22} {v}")
    return 0


_COMMANDS = {
    "tang": cmd_tang,
    "tokenize": cmd_tokenize,
    "extract": cmd_extract,
    "synth": cmd_synth,
    "score": cmd_score,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (CantokError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
