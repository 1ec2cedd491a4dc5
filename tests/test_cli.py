import contextlib
import dataclasses
import hashlib
import json
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantok import (
    Trace,
    TokenizerConfig,
    extract_series,
    load_trace,
    partition_by_id,
    tokenize,
    write_candump,
)
from cantok import cli, frames, tokenizer
from cantok.bitlab import analyzable, tang_from_idtrace
from cantok.cli import build_parser, main
from cantok.frames import CSV_HEADER
from cantok.signals import padding_constants, repack_payloads
from cantok.synth import (
    GroundTruth,
    SignalSpec,
    bundled_spec_path,
    generate_trace,
    load_ground_truth,
    merge_traces,
)
from cantok.tokenizer import export_tokenization_json, tokenization_to_dict

from .conftest import reference_candump_line, reference_cli_outputs


@pytest.fixture
def table1_log(tmp_path):
    path = tmp_path / "table1.log"
    lines = [f"({k * 0.01:.6f}) can0 0A15#{k:02X}" for k in range(10)]
    path.write_text("\n".join(lines) + "\n")
    return path


# Ids that int(text, 16) reads as 0x100 but no input of cantok accepts; a
# JSON id must also be a string (int(str(256), 16) would read 0x256).
LENIENT_IDS = ["+100", "1_00", "\u0661\u0660\u0660"]
LENIENT_ID_NAMES = ["signed", "grouped", "arabic-indic"]
JSON_IDS, JSON_ID_NAMES = [*LENIENT_IDS, 256], [*LENIENT_ID_NAMES, "json-number"]


def _valid_tokenization() -> dict:
    """The bundled spec's id and width as one padding cluster, in the JSON layout."""
    return {
        "id": "0x0100", "bit_width": 64,
        "config": {"endianness": "big", "threshold": 0, "padding_mode": "exclude"},
        "clusters": [{"kind": "padding", "lo": 0, "hi": 63, "lsb": None, "msb": None,
                      "lsb_transitions": None}],
    }


class TestTang:
    def test_golden_row(self, table1_log, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["tang", "-i", str(table1_log), "--out", str(out)]) == 0
        rows = (out / "0A15_tang.csv").read_text().splitlines()
        pos, trans, norm = rows[-1].split(",")
        assert (int(pos), int(trans), float(norm)) == (7, 9, 1.0)
        assert "0x0A15" in capsys.readouterr().out

    def test_summary_sorted_by_id(self, tmp_path, capsys):
        path = tmp_path / "two.log"
        lines = [f"({k * 0.01:.6f}) can0 200#{k:02X}" for k in range(4)]
        lines += [f"({k * 0.01:.6f}) can0 100#{k:02X}" for k in range(4)]
        path.write_text("\n".join(lines) + "\n")
        assert main(["tang", "-i", str(path), "--out", str(tmp_path / "o")]) == 0
        outlines = capsys.readouterr().out.splitlines()
        assert outlines[1].split()[0] == "0x0100"
        assert outlines[2].split()[0] == "0x0200"

    @pytest.mark.parametrize("block", [64, 128, 192], ids=["1-group", "2-groups", "3-groups"])
    def test_batch_edges(self, tmp_path, capsys, block):
        """With BLOCK_ROWS of 64, 128 or 192 rows, a batch of 1, 2 or 3 groups, tang writes
        the files, stdout and stderr it writes with every group in one batch."""
        rng = np.random.default_rng(block)
        keys = [(0x100, 8), (0x100, 3), (0x1ABCDEF0, 1), (0x200, 5), (0x300, 8), (0x7FF, 2),
                (0x400, 0), (0x500, 4)]
        rows = [(arb_id, dlc) for arb_id, dlc in keys for _ in range(12)] + [(0x600, 8)]
        capture = tmp_path / "bus.log"
        capture.write_text("".join(
            f"({k * 0.001:.6f}) can0 {arb_id:0{3 if arb_id <= 0x7FF else 8}X}#"
            f"{rng.bytes(dlc).hex().upper()}\n"
            for k, (arb_id, dlc) in enumerate(rng.permutation(rows).tolist())))

        def run(out):
            assert main(["tang", "-i", str(capture), "--out", str(out)]) == 0
            return capsys.readouterr(), {p.name: p.read_bytes() for p in out.iterdir()}

        expected = run(tmp_path / "one-batch")
        assert len(expected[1]) == 7 and "skipping id 0x600" in expected[0].err
        with mock.patch.object(frames, "BLOCK_ROWS", block):
            assert run(tmp_path / "batches") == expected

    @staticmethod
    def _tang_peak(tmp_path, groups, monkeypatch) -> int:
        """Peak bytes `cantok tang` allocates after its load and partition, on `groups`
        one-byte groups of two frames; checks each group's summary row and file."""
        tmp_path.mkdir()
        rng = np.random.default_rng(groups)
        first = rng.integers(0, 256, groups)
        flips = rng.integers(1, 256, groups)  # every group's two payloads differ
        ids = range(0x10000, 0x10000 + groups)
        with open(tmp_path / "bus.log", "w") as fh:
            fh.writelines(f"(0.000000) can0 {i:08X}#{a:02X}\n" for i, a in zip(ids, first))
            fh.writelines(f"(0.010000) can0 {i:08X}#{a ^ f:02X}\n"
                          for i, a, f in zip(ids, first, flips))
        analysis_input = cli._analysis_input

        def traced(args, header):
            found = analysis_input(args, header)
            tracemalloc.start()
            return found

        monkeypatch.setattr(cli, "_analysis_input", traced)
        try:  # stdout to a file: a capture in memory would grow with the groups
            with open(tmp_path / "stdout", "w") as out, contextlib.redirect_stdout(out):
                assert main(["tang", "-i", str(tmp_path / "bus.log"), "--out", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = (tmp_path / "stdout").read_text().splitlines()[1:]
        assert [row.split() for row in rows] == [
            [f"0x{i:04X}", "1", "2", str(f.bit_count()), "1"] for i, f in zip(ids, flips.tolist())
        ]
        last = (tmp_path / f"{ids[-1]:04X}_tang.csv").read_text().splitlines()
        assert [int(row.split(",")[1]) for row in last[1:]] == [
            int(b) for b in f"{int(flips[-1]):08b}"]
        return peak

    def test_temporaries_bounded_by_batch(self, tmp_path, monkeypatch):
        """The tang stage writes its groups in batches of at most frames.BLOCK_ROWS rows and drops each
        batch before the next, so its peak does not grow with the number of groups.
        With every group in one batch, 2000 groups peaked at 2.5 MB and 8000 at 9.7 MB."""
        small, large = (self._tang_peak(tmp_path / str(n), n, monkeypatch) for n in (2000, 8000))
        assert large < small + (1 << 18)


class TestTokenize:
    def test_writes_json(self, table1_log, tmp_path):
        out = tmp_path / "out"
        assert main(["tokenize", "-i", str(table1_log), "--out", str(out)]) == 0
        data = json.loads((out / "0A15_tokens.json").read_text())
        assert [c["kind"] for c in data["clusters"]] == ["padding", "signal"]

    def test_empty_filter_warns_exit_zero(self, table1_log, tmp_path, capsys):
        out = tmp_path / "out"
        assert (
            main(
                ["tokenize", "-i", str(table1_log), "--ids", "0x999", "--out", str(out)]
            )
            == 0
        )
        assert not list(out.glob("*.json"))
        assert "no analyzable ids" in capsys.readouterr().err

    def test_matches_library(self, table1_log, tmp_path):
        out = tmp_path / "out"
        main(["tokenize", "-i", str(table1_log), "--out", str(out)])
        cli_data = json.loads((out / "0A15_tokens.json").read_text())
        groups = analyzable(partition_by_id(load_trace(table1_log)))[0]
        toks = {key: tokenize(tang_from_idtrace(group)) for key, group in groups}
        assert cli_data == tokenization_to_dict(toks[(0x0A15, 1)])

    def test_byte_identical_reruns(self, table1_log, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["tokenize", "-i", str(table1_log), "--out", str(a)])
        main(["tokenize", "-i", str(table1_log), "--out", str(b)])
        assert (a / "0A15_tokens.json").read_bytes() == (
            b / "0A15_tokens.json"
        ).read_bytes()


class TestExtract:
    def test_series_and_summary(self, table1_log, tmp_path):
        out = tmp_path / "out"
        assert main(["extract", "-i", str(table1_log), "--out", str(out)]) == 0
        series = (out / "0A15_sig4-7.csv").read_text().splitlines()
        assert series[1] == "0,0.000000,0"
        assert series[-1] == "9,0.090000,9"
        summary = json.loads((out / "0A15_summary.json").read_text())
        assert summary[0]["min"] == 0 and summary[0]["max"] == 9


# A small seeded capture for the extract golden: several signals per group,
# an extended id, an id seen with two dlcs and an id with a single frame.
GOLDEN_LAYOUTS = [
    GroundTruth(0x100, 64, (
        SignalSpec(0, 7, "counter"), SignalSpec(12, 21, "counter", step=3, start=5),
        SignalSpec(28, 39, "ramp", max_step=4), SignalSpec(44, 51, "noise"),
        SignalSpec(56, 59, "constant", value=9),
    ), 300, seed=7),
    GroundTruth(0x1ABCDEF0, 32, (
        SignalSpec(0, 15, "random_walk", endianness="little", max_step=3),
        SignalSpec(20, 27, "counter", endianness="little"),
    ), 120, seed=8, start_time=0.0031),
    GroundTruth(0x200, 16, (SignalSpec(2, 9, "counter"),), 80, seed=9, start_time=0.0007),
    GroundTruth(0x200, 24, (SignalSpec(0, 5, "noise"), SignalSpec(8, 23, "ramp")), 50,
                seed=10, start_time=0.0052),
    GroundTruth(0x300, 8, (SignalSpec(0, 7, "noise"),), 1, seed=11, start_time=0.0011),
]

# sha256 of the capture `write_candump` writes from GOLDEN_LAYOUTS; the
# per-row reference writer of conftest writes the same bytes.
GOLDEN_CAPTURE_DIGEST = "daba9bf6a2ac5bdd89237ec97752f84b07f13ca0d71e34f174ff32d156bbaaad"

# sha256 of each output file and of stdout, from the extract writer that
# wrote one series file per call.
GOLDEN_EXTRACT_DIGESTS = {
    "0100_sig0-7.csv": "f5827a4e5f6d06df8dcbd2042c12707062ad0ce1277a0ea2281bc9732ec4f1bf",
    "0100_sig12-19.csv": "149dfd0b86baf7980bd339281316ae06b13183e3036f4bc3d899ed4f6da369d8",
    "0100_sig20-21.csv": "7d90166b4cb9afd195fb8e3460aaa0d5ee3815abaad94981d49ff4e41e24b011",
    "0100_sig32-38.csv": "50c449a5982b55a0182c111326b0c8fabc9b7ce06a966a309ebca058378691c2",
    "0100_sig39-39.csv": "6c7be204ec46d7ff07efd01279984620d4d13feb3e9a6049963b7a4c6fd493b1",
    "0100_sig44-46.csv": "a64bd91a1fae1ebc08991aa9e20e91c33785777baedc65a10ae24f67034c4a59",
    "0100_sig47-48.csv": "3c91f29bde136374edb8ffd83221f82d7542fa6d6ac5a5e6722e933383970195",
    "0100_sig49-50.csv": "bb642410cd6551c604465d7b84976c93a5a0c430bbc4bd7b01a04a2d54142484",
    "0100_sig51-51.csv": "09af0b926208f60e50ac31adcc9bfa44c6c7d48a34070e6f91be7f30dd98b22f",
    "0100_summary.json": "5210661a50f55b681ff106cfee19ad9ec64d2d11322cd41b5c0f8d8e521e1e15",
    "0200_dlc2_sig3-9.csv": "c6ae2f544ece693fb5a48c753d763f142e4d58b9844202b2d0aab6bdcad4976f",
    "0200_dlc2_summary.json": "95890dd80356ea3bd6f5ba4c51583e0de48145324e0f339b35fbf93ee5628fa2",
    "0200_dlc3_sig0-1.csv": "b9a6d82d71f0e5028461cd6fe48e8c50efca749c3821504268e48e6b031bfc3d",
    "0200_dlc3_sig19-23.csv": "92fa89dd8dd7568e431a46a20f725c77ea1a39d58c0a4743b3ebdc55f47c7dcc",
    "0200_dlc3_sig2-2.csv": "b9016c8d6e60aa81d806b1577e044416bab20f77fe1163ac912a5a6343626448",
    "0200_dlc3_sig3-3.csv": "deec2b04a9c7c844adf4739585130c82d44a8234e099a38b5ecd862ffdfd13c5",
    "0200_dlc3_sig4-5.csv": "3b3846509a86b7e0eac9d56b2b0ed83fb4ba7d379c92350e811f59f72b409ec2",
    "0200_dlc3_summary.json": "a33ddc7e07ed3100b3979171915ce5a3e9b49e1e339ffd931a2e9f5066d86122",
    "1ABCDEF0_sig0-0.csv": "76d91f82cb13f25766e9bf630777d655d008ccecb0d2487811d43ee3d9fa4343",
    "1ABCDEF0_sig1-1.csv": "d89b913c16dfe351a00dbe2af9e0c9af61c9f043d85aa76548e1164578622adf",
    "1ABCDEF0_sig2-2.csv": "e70aece609821fbe7ee63b2ba87ff752bebd1b0a2b19c2b946c3dad87715466b",
    "1ABCDEF0_sig20-20.csv": "71a18c622b735ab50925f06c29e83b6ab0433d8d26b57f698e93bec7887c30e5",
    "1ABCDEF0_sig21-21.csv": "d36af854072a56729abe0edd7141b1701dc4971728df9db22286f0ceb388dd06",
    "1ABCDEF0_sig22-22.csv": "4c43176a911e7be6057de7cdd807768456702349eefed524fc97da7c125a75ee",
    "1ABCDEF0_sig23-23.csv": "b00bb174216f0ccf8d51da9b4f6394091a8149e63ec2f8708d6945b3cd70dd32",
    "1ABCDEF0_sig24-24.csv": "5b3cd95426ea8720d4b1ce6cb10aeec2b8c877684af7c35eaaf9b0501d7fe22d",
    "1ABCDEF0_sig25-25.csv": "ab99a6f1c63b067f49b55fd9adf7d1d8aa3275a6ec837f2aaf42a1c56f7f6d45",
    "1ABCDEF0_sig26-26.csv": "7d73b50f44ce2e4645a8ecbf44f3b83cd13ad4192958800fb86afc21c8723d87",
    "1ABCDEF0_sig3-3.csv": "d3fce91bbf724405c1fe503426078f13bd7146078d45ccbba4eeb05e5856cdae",
    "1ABCDEF0_sig4-4.csv": "1134846fe542ebdf0f86a841948ee998eb9400d42364e1b77f61b60bf27adb46",
    "1ABCDEF0_sig5-5.csv": "3228123191111e31d1633abb2cb8e6a68eb97066c281d3bc4439e2fd95038ab0",
    "1ABCDEF0_summary.json": "5a6695eacdb50b5fb89fed647f8c94eb190ee0b77d333a1cde58e00abe07eacf",
    "stdout": "20ea5642cf4f24091a3064cd45c00c7edfecc4a23096c1888f9bd4fcd2c6282d",
}


class TestExtractGolden:
    def test_outputs_match_digests(self, tmp_path, capsys):
        capture = tmp_path / "golden.log"
        write_candump(merge_traces([generate_trace(gt) for gt in GOLDEN_LAYOUTS]), capture)
        assert hashlib.sha256(capture.read_bytes()).hexdigest() == GOLDEN_CAPTURE_DIGEST
        out = tmp_path / "out"
        assert main(["extract", "-i", str(capture), "--out", str(out)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digests == GOLDEN_EXTRACT_DIGESTS


class TestSynthScore:
    def test_bundled_three_counters(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert main(["synth", "-i", str(bundled_spec_path()), "--out", str(out)]) == 0
        trace = out / "0100_trace.log"
        gt = out / "0100_groundtruth.json"
        assert trace.exists() and gt.exists()

        tokdir = tmp_path / "tok"
        assert main(["tokenize", "-i", str(trace), "--out", str(tokdir)]) == 0
        scoredir = tmp_path / "score"
        assert (
            main(
                [
                    "score",
                    "-t",
                    str(tokdir / "0100_tokens.json"),
                    "-g",
                    str(gt),
                    "--out",
                    str(scoredir),
                ]
            )
            == 0
        )
        report = json.loads((scoredir / "0100_score.json").read_text())
        assert report["exact_cluster_matches"] == 3
        assert report["boundary_precision"] == 1.0
        assert report["boundary_recall"] == 1.0

    def test_score_from_trace(self, tmp_path):
        out = tmp_path / "synth"
        main(["synth", "-i", str(bundled_spec_path()), "--out", str(out)])
        code = main(
            [
                "score",
                "-i",
                str(out / "0100_trace.log"),
                "-g",
                str(out / "0100_groundtruth.json"),
                "--out",
                str(tmp_path / "s"),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "s" / "0100_score.json").read_text())
        assert report["boundary_recall"] == 1.0

    def test_score_from_trace_tokenizes_one_group(self, tmp_path, monkeypatch):
        gt = load_ground_truth(bundled_spec_path())
        others = [dataclasses.replace(gt, arbitration_id=i, seed=i) for i in (0x80, 0x200)]
        capture = tmp_path / "capture.log"
        write_candump(merge_traces([generate_trace(g) for g in (gt, *others)]), capture)
        gt_path, tok = str(bundled_spec_path()), tmp_path / "0100_tokens.json"
        groups = dict(analyzable(partition_by_id(load_trace(capture)))[0])
        export_tokenization_json(tokenize(tang_from_idtrace(groups[(0x100, 8)])), tok)
        assert main(["score", "-t", str(tok), "-g", gt_path, "--out", str(tmp_path / "t")]) == 0
        spy = mock.MagicMock(wraps=tokenizer.tokenize)
        monkeypatch.setattr(tokenizer, "tokenize", spy)
        argv = ["score", "-i", str(capture), "-g", gt_path, "--out", str(tmp_path / "i")]
        assert main(argv) == 0
        assert spy.call_count == 1
        assert (tmp_path / "i" / "0100_score.json").read_bytes() == (
            tmp_path / "t" / "0100_score.json").read_bytes()


@pytest.mark.parametrize("command", ["tang", "tokenize", "extract"])
def test_zero_width_group_skipped(command, tmp_path, capsys):
    path = tmp_path / "x.log"
    path.write_text("(0.1) can0 123#\n(0.2) can0 123#\n(0.3) can0 124#01\n(0.4) can0 124#02\n")
    out = tmp_path / "o"
    assert main([command, "-i", str(path), "--out", str(out)]) == 0
    assert {p.name.split("_")[0] for p in out.iterdir()} == {"0124"}
    assert "warning: skipping id 0x123 dlc 0: zero-width payload" in capsys.readouterr().err



def _mixed_groups_capture(path):
    """A capture whose groups the CLI must skip or name by dlc: 0x555 has one
    frame, 0x123 a zero-width payload, 0x100 two dlcs that are both analysed,
    and 0x200 two dlcs of which one has a single frame."""
    lines = []
    for k in range(6):
        lines += [f"({k}.0) can0 100#{k:02X}{k * 3:02X}", f"({k}.1) can0 100#{k:02X}",
                  f"({k}.2) can0 200#{k * 5:04X}", f"({k}.3) can0 1ABCDEF0#{k:016X}"]
    lines += ["(6.0) can0 555#01", "(6.1) can0 123#", "(6.2) can0 123#", "(6.3) can0 200#000000"]
    path.write_text("\n".join(lines) + "\n")


MIXED_KEPT = [(0x100, 1), (0x100, 2), (0x200, 2), (0x1ABCDEF0, 8)]
MIXED_SKIPPED = [(0x123, 0), (0x200, 3), (0x555, 1)]


@pytest.mark.parametrize("ids", [None, "0x100,0x555,0x200", "0x123", "0x1ABCDEF0"])
@pytest.mark.parametrize("command", ["tang", "tokenize", "extract"])
def test_library_and_cli_choose_the_same_groups(command, ids, tmp_path, capsys):
    capture, out = tmp_path / "mixed.log", tmp_path / "o"
    _mixed_groups_capture(capture)
    wanted = None if ids is None else {int(i, 16) for i in ids.split(",")}
    kept, skipped = analyzable(partition_by_id(load_trace(capture)), wanted)
    argv = [command, "-i", str(capture), "--out", str(out)] + ([] if ids is None else ["--ids", ids])
    assert main(argv) == 0
    dlcs_per_id = Counter(arb_id for (arb_id, _), _group in kept)
    assert {
        f"{arb_id:04X}" + (f"_dlc{dlc}" if dlcs_per_id[arb_id] > 1 else "")
        for (arb_id, dlc), _group in kept
    } == {p.name.rsplit("_", 1)[0] for p in out.iterdir()}
    warnings = [line for line in capsys.readouterr().err.splitlines() if "skipping" in line]
    assert [f"warning: skipping id 0x{i:X} dlc {dlc}: {why}" for (i, dlc), why in skipped] == (
        warnings
    )
    assert [key for key, _group in kept] == [k for k in MIXED_KEPT if not wanted or k[0] in wanted]
    assert [key for key, _why in skipped] == [
        k for k in MIXED_SKIPPED if not wanted or k[0] in wanted
    ]


class TestErrors:
    def test_missing_input_exit_one(self, tmp_path, capsys):
        assert main(["tang", "-i", str(tmp_path / "nope.log")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_line_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.log"
        path.write_text("(1.0) can0 123#ABC\n")
        assert main(["tang", "-i", str(path), "--out", str(tmp_path)]) == 1

    def test_lenient_salvages(self, tmp_path):
        path = tmp_path / "dirty.log"
        lines = [f"({k * 0.01:.6f}) can0 100#{k:02X}" for k in range(5)]
        lines.insert(2, "garbage line")
        path.write_text("\n".join(lines) + "\n")
        assert (
            main(["tang", "-i", str(path), "--lenient", "--out", str(tmp_path / "o")])
            == 0
        )

    def test_undecodable_comment_ignored(self, tmp_path, capsys):
        path = tmp_path / "x.log"
        path.write_bytes(b"(0.000001) can0 123#01\n# caf\xff\n(0.000002) can0 123#02\n")
        assert main(["tang", "-i", str(path), "--out", str(tmp_path / "o")]) == 0
        assert "0x0123   1        2" in capsys.readouterr().out

    def test_undecodable_data_line_strict_exit_one(self, tmp_path, capsys):
        path = tmp_path / "x.log"
        path.write_bytes(b"(0.000001) can0 123#01\n(0.000002) can0 123#0\xff\n")
        assert main(["tang", "-i", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid UTF-8 (line 2): ")

    def test_undecodable_data_line_lenient_skipped(self, tmp_path, caplog):
        path = tmp_path / "x.log"
        lines = [b"(0.00000%d) can0 123#0%d" % (k, k) for k in range(1, 5)]
        lines[1] = b"(0.000002) ca\xffn0 123#02"  # even in the discarded interface name
        path.write_bytes(b"\n".join(lines) + b"\n")
        argv = ["tang", "-i", str(path), "--lenient", "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert f"{path}: skipped 1 malformed line(s)" in caplog.messages

    def test_score_needs_source(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        gt.write_text(bundled_spec_path().read_text())
        assert main(["score", "-g", str(gt)]) == 1

    def test_score_trace_without_the_group_exit_one(self, tmp_path, capsys):
        """The spec's id is in the trace, but not as an analyzable group of its dlc."""
        capture = tmp_path / "capture.log"
        capture.write_text("(0.0) can0 100#0001\n(0.1) can0 100#0102\n(0.2) can0 100#00\n")
        argv = ["score", "-i", str(capture), "-g", str(bundled_spec_path()), "--out", str(tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err.endswith(
            "error: trace has no analyzable group for id 0x0100 dlc 8\n")

    def test_score_tokenization_without_clusters_exit_one(self, tmp_path, capsys):
        tok = tmp_path / "tok.json"
        tok.write_text(json.dumps({"id": "0x0100", "bit_width": 8}))
        gt = str(bundled_spec_path())
        assert main(["score", "-t", str(tok), "-g", gt, "--out", str(tmp_path)]) == 1
        assert "error: tokenization missing field 'clusters'" in capsys.readouterr().err

    @pytest.mark.parametrize("arb_id, clusters", [
        ("0x0100", [{"kind": "padding", "lo": 0, "hi": 3}]),  # bits 4-7 uncovered
        ("0xZZ", [{"kind": "padding", "lo": 0, "hi": 7}]),  # id is not hex
        ("0x0100", [{"kind": "bogus", "lo": 0, "hi": 7}]),  # neither signal nor padding
    ])
    def test_score_tokenization_invalid_exit_one(self, arb_id, clusters, tmp_path, capsys):
        tok = tmp_path / "tok.json"
        tok.write_text(json.dumps({"id": arb_id, "bit_width": 8, "clusters": clusters}))
        gt = str(bundled_spec_path())
        assert main(["score", "-t", str(tok), "-g", gt, "--out", str(tmp_path)]) == 1
        assert "error: invalid tokenization" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "score"])
    def test_non_hex_ground_truth_id_exit_one(self, command, tmp_path, capsys):
        spec = json.loads(bundled_spec_path().read_text())
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({**spec, "id": "0xZZ"}))
        argv = ["synth", "-i", str(gt)] if command == "synth" else ["score", "-g", str(gt)]
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert "error: invalid ground truth spec" in capsys.readouterr().err

    def test_too_many_frames_exit_one(self, tmp_path, capsys):
        """A frame count the generator cannot allocate is an input error, not a traceback."""
        spec = json.loads(bundled_spec_path().read_text())
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({**spec, "frames": 10**15}))
        assert main(["synth", "-i", str(gt), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: invalid ground truth spec: frame_count must be at most 10000000, not "
        )

    @pytest.mark.parametrize("command", ["synth", "score"])
    @pytest.mark.parametrize("field, value", [
        ("bit_width", "64"), ("frames", 5000.0),
        ("start_time", True), ("start_time", "0.005"), ("start_time", float("nan")),
        ("frames", -1), ("seed", -1), ("padding_value", -1), ("padding_value", 2),
        ("step", -1), ("max_step", -1), ("start", -1), ("value", -1),
        ("start", 2**64), ("step", 2**64), ("value", 2**64), ("max_step", 2**63),
    ])
    def test_mistyped_ground_truth_field_exit_one(self, command, field, value, tmp_path, capsys):
        spec = json.loads(bundled_spec_path().read_text())
        if field in {f.name for f in dataclasses.fields(SignalSpec)}:  # in the first signal
            spec["signals"][0][field] = value
        else:
            spec[field] = value
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps(spec))
        argv = ["synth", "-i", str(gt)] if command == "synth" else ["score", "-g", str(gt)]
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert "error: invalid ground truth spec" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["tang", "tokenize", "extract"])
    def test_bad_ids_value_exit_one(self, command, table1_log, tmp_path, capsys):
        argv = [command, "-i", str(table1_log), "--ids", "0x100,0xZZ", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert "error: --ids: '0xZZ' is not a hex id" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["tang", "tokenize", "extract"])
    @pytest.mark.parametrize("arb_id", LENIENT_IDS, ids=LENIENT_ID_NAMES)
    def test_signed_or_grouped_ids_value_exit_one(self, command, arb_id, table1_log, tmp_path,
                                                  capsys):
        argv = [command, "-i", str(table1_log), "--ids", arb_id, "--out", str(tmp_path)]
        assert main(argv) == 1
        assert f"error: --ids: {arb_id!r} is not a hex id" in capsys.readouterr().err

    def test_spaced_ids_value(self, table1_log, tmp_path):
        argv = ["tang", "-i", str(table1_log), "--ids", "0x100, 0xA15", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert (tmp_path / "0A15_tang.csv").exists()

    @pytest.mark.parametrize("command", ["synth", "score"])
    @pytest.mark.parametrize("arb_id", JSON_IDS, ids=JSON_ID_NAMES)
    def test_signed_or_grouped_ground_truth_id_exit_one(self, command, arb_id, tmp_path, capsys):
        spec = json.loads(bundled_spec_path().read_text())
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({**spec, "id": arb_id}))
        argv = ["synth", "-i", str(gt)] if command == "synth" else ["score", "-g", str(gt)]
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert "error: invalid ground truth spec: not a hex id" in capsys.readouterr().err

    @pytest.mark.parametrize("arb_id", JSON_IDS, ids=JSON_ID_NAMES)
    def test_signed_or_grouped_tokenization_id_exit_one(self, arb_id, tmp_path, capsys):
        tok = tmp_path / "tok.json"
        tok.write_text(json.dumps({**_valid_tokenization(), "id": arb_id}))
        gt = str(bundled_spec_path())
        assert main(["score", "-t", str(tok), "-g", gt, "--out", str(tmp_path)]) == 1
        assert "error: invalid tokenization: not a hex id" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda d: [1, 2],
        lambda d: {**d, "clusters": [{**d["clusters"][0], "lo": "0"}, *d["clusters"][1:]]},
        lambda d: {**d, "bit_width": "64"},
        lambda d: {**d, "clusters": None},
        lambda d: {**d, "config": {**d["config"], "threshold": "1"}},
        lambda d: {**d, "config": "threshold"},
        lambda d: {**d, "clusters": [{**d["clusters"][0], "hi": 0},
                                     {**d["clusters"][0], "lo": True}]},
        lambda d: {**d, "clusters": [{**d["clusters"][0], "hi": True},
                                     {**d["clusters"][0], "lo": 2}]},
        lambda d: {**d, "bit_width": True, "clusters": [{**d["clusters"][0], "hi": 0}]},
        lambda d: {**d, "clusters": [{**d["clusters"][0], "lsb": True}]},
        lambda d: {**d, "clusters": [{**d["clusters"][0], "msb": 63.0}]},
        lambda d: {**d, "clusters": [{**d["clusters"][0], "lsb_transitions": 1.5}]},
        lambda d: {**d, "config": {**d["config"], "threshold": True}},
        lambda d: {**d, "config": {**d["config"], "threshold": 0.5}},
        lambda d: {**d, "bit_width": 10**12},  # rejected before a list of 10**12 entries
    ], ids=["not-an-object", "string-lo", "string-bit-width", "null-clusters",
            "string-threshold", "string-config", "bool-lo", "bool-hi", "bool-bit-width",
            "bool-lsb", "float-msb", "float-lsb-transitions", "bool-threshold",
            "float-threshold", "huge-bit-width"])
    def test_mistyped_tokenization_exit_one(self, edit, tmp_path, capsys):
        tok = tmp_path / "tok.json"
        tok.write_text(json.dumps(edit(_valid_tokenization())))
        gt = str(bundled_spec_path())
        assert main(["score", "-t", str(tok), "-g", gt, "--out", str(tmp_path)]) == 1
        assert "error: invalid tokenization: " in capsys.readouterr().err


def _required(command):
    return [command, "-i", "capture.log"] + (["-g", "gt.json"] if command == "score" else [])


TOKENIZING_COMMANDS = ["tokenize", "extract", "score"]


class TestSharedFlags:
    @pytest.mark.parametrize("command", ["tang", *TOKENIZING_COMMANDS])
    def test_same_defaults(self, command):
        args = build_parser().parse_args(_required(command))
        assert (args.format, args.out, args.lenient) == ("candump", ".", False)
        if command in TOKENIZING_COMMANDS:
            assert (args.endianness, args.threshold, args.padding_mode) == (
                "big", 0, "exclude")

    @pytest.mark.parametrize("command", TOKENIZING_COMMANDS)
    def test_bogus_padding_mode_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_required(command) + ["--padding-mode", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--threshold", "1"], ["--endianness", "little"], ["--padding-mode", "strict"]])
    def test_tang_takes_no_tokenizer_flag(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_required("tang") + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


# Lines neither format reads: each is malformed as candump and as CSV.
JUNK_LINES = ["junk", "(0.5) can0 1Z3#00", "0.5,1Z3,1,00", "1.0,100,3,0102", "(1.0) can0 100#012"]


@st.composite
def _bus_st(draw):
    """(id, dlc, frames) groups, a payload seed, a format and a junk-line count:
    standard and extended ids, one or two dlcs per id, and groups of 1-3 or
    of 256-600 frames."""
    ids = draw(st.lists(st.one_of(st.integers(0, 0x7FF), st.integers(0x800, 0x1FFFFFFF)),
                        min_size=1, max_size=3, unique=True))
    groups = [
        (arb_id, dlc, draw(st.one_of(st.integers(1, 3), st.integers(256, 600))))
        for arb_id in ids
        for dlc in draw(st.lists(st.integers(1, 8), min_size=1, max_size=2, unique=True))
    ]
    return (groups, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from(["candump", "csv"])),
            draw(st.integers(0, 4)))


def _write_bus(groups, seed, format, junk, end, path, mirror=False) -> None:
    """Interleave the groups' frames at random and write them in `format`, one
    f-string per line ended by `end`, with `junk` lines of JUNK_LINES at random
    places. Each payload holds random bits under a per-group mask, and its
    last byte counts the group's frames. With `mirror`, each payload is then
    bit-reversed over its dlc: its bytes reversed, and the bits of each byte."""
    rng = np.random.default_rng(seed)
    group = np.repeat(np.arange(len(groups)), [n for _, _, n in groups])
    rng.shuffle(group)
    ids, dlcs = (np.array([g[k] for g in groups])[group] for k in (0, 1))
    masks = rng.integers(0, 256, (len(groups), 8), dtype=np.uint8)
    payloads = rng.integers(0, 256, (len(group), 8), dtype=np.uint8) & masks[group]
    rank = np.empty(len(group), np.int64)
    for g in range(len(groups)):
        rank[group == g] = np.arange(np.count_nonzero(group == g))
    payloads[np.arange(len(group)), dlcs - 1] = rank % 256
    for dlc in np.unique(dlcs).tolist() if mirror else ():
        rows = dlcs == dlc
        payloads[rows, :dlc] = np.packbits(np.unpackbits(payloads[rows, :dlc], axis=1)[:, ::-1], 1)
    frames = Trace(np.arange(len(group)) * 0.001, ids, dlcs, payloads.view(np.uint64)[:, 0]).frames
    if format == "csv":
        lines = [CSV_HEADER] + [
            f"{f.timestamp:.6f},{f.arbitration_id:X},{f.dlc},{f.payload.hex().upper()}"
            for f in frames
        ]
    else:
        lines = [reference_candump_line(f) for f in frames]
    for k in rng.integers(0, len(lines) + 1, junk).tolist():
        lines.insert(k, JUNK_LINES[k % len(JUNK_LINES)])
    Path(path).write_text(end.join(lines) + end, newline="")


@given(_bus_st())
@settings(max_examples=30, deadline=None)
def test_tang_tokenize_and_extract_match_naive_pipeline(bus):
    """`tang`, `tokenize` and `extract` write what the naive pipeline writes, on
    candump and CSV captures, strict or under --lenient with junk lines, with
    LF, CR or CR LF line ends: the naive pipeline reads the LF capture, and the
    CLI each of the three."""
    *bus, format, junk = bus
    flags = ["--format", format] + ["--lenient"] * (junk > 0)
    with tempfile.TemporaryDirectory() as tmp:
        capture, naive_out = Path(tmp) / "capture", Path(tmp) / "naive"
        _write_bus(*bus, format, junk, "\n", capture)
        naive_out.mkdir()
        reference_cli_outputs(capture, naive_out, format, strict=not junk)
        expected = {p.name: p.read_bytes() for p in naive_out.iterdir()}
        for k, end in enumerate(("\n", "\r", "\r\n")):
            _write_bus(*bus, format, junk, end, capture)
            cli_out = Path(tmp) / f"cli{k}"
            for command in ("tang", "tokenize", "extract"):
                assert main([command, "-i", str(capture), "--out", str(cli_out), *flags]) == 0
            assert {p.name: p.read_bytes() for p in cli_out.iterdir()} == expected, repr(end)


@given(_bus_st(), st.builds(TokenizerConfig, st.sampled_from(tokenizer.ENDIANNESSES),
                            st.integers(0, 3), st.sampled_from(tokenizer.PADDING_MODES)))
@settings(max_examples=25, deadline=None)
def test_paper_invariants_on_generated_captures(bus, config):
    """On the captures of the naive-pipeline test, every group the commands
    analyse keeps the paper's invariants under any tokenizer config: its
    clusters partition the bit positions, no padding position ever flips,
    extract followed by `repack_payloads` gives back its words exactly, and
    the same capture with each payload bit-reversed over its dlc tokenizes,
    with the other endianness, to the mirror of its clusters. With threshold
    0, counts never rise along a signal cluster from its LSB to its MSB."""
    *bus, format, junk = bus
    with tempfile.TemporaryDirectory() as tmp:
        capture = Path(tmp) / "capture"
        _write_bus(*bus, format, junk, "\n", capture)
        groups = partition_by_id(load_trace(capture, format, strict=not junk))
        _write_bus(*bus, format, junk, "\n", capture, mirror=True)
        mirrored = partition_by_id(load_trace(capture, format, strict=not junk))
    flipped = "little" if config.endianness == "big" else "big"
    other = dataclasses.replace(config, endianness=flipped)
    for key, group in analyzable(groups)[0]:
        tang = tang_from_idtrace(group)
        tok = tokenize(tang, config)
        positions = sorted(p for c in tok.clusters for p in c.positions)
        assert positions == list(range(group.bit_width)), key
        padding = [p for c in tok.padding_clusters for p in c.positions]
        assert not tang.counts[padding].any(), key
        series = {(s.cluster.lo, s.cluster.hi): s
                  for s in extract_series(group, tok.signal_clusters)}
        constants = padding_constants(group.words, tok)
        rebuilt = repack_payloads(tok, series, constants, len(group))
        assert rebuilt.dtype == np.uint64 and np.array_equal(rebuilt, group.words), key
        for c in tokenize(tang, dataclasses.replace(config, threshold=0)).signal_clusters:
            step = 1 if c.msb_index > c.lsb_index else -1
            walk = tang.counts[list(range(c.lsb_index, c.msb_index + step, step))]
            assert (np.diff(walk) <= 0).all(), (key, c)
        n = group.bit_width
        flip = {p: n - 1 - p for p in range(n)} | {None: None}
        mirror = sorted((dataclasses.replace(
            c, lo=n - 1 - c.hi, hi=n - 1 - c.lo, lsb_index=flip[c.lsb_index],
            msb_index=flip[c.msb_index]) for c in tok.clusters), key=lambda c: c.lo)
        assert tokenize(tang_from_idtrace(mirrored[key]), other).clusters == tuple(mirror), key
