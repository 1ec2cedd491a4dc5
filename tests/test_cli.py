import json

import pytest

from cantok import (
    load_trace,
    tokenize_trace,
)
from cantok.cli import build_parser, main
from cantok.synth import bundled_spec_path
from cantok.tokenizer import tokenization_to_dict


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
        toks = tokenize_trace(load_trace(table1_log))
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

    def test_score_needs_source(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        gt.write_text(bundled_spec_path().read_text())
        assert main(["score", "-g", str(gt)]) == 1

    def test_score_tokenization_without_clusters_exit_one(self, tmp_path, capsys):
        tok = tmp_path / "tok.json"
        tok.write_text(json.dumps({"id": "0x0100", "bit_width": 8}))
        gt = str(bundled_spec_path())
        assert main(["score", "-t", str(tok), "-g", gt, "--out", str(tmp_path)]) == 1
        assert "error: tokenization missing field 'clusters'" in capsys.readouterr().err

    @pytest.mark.parametrize("arb_id, clusters", [
        ("0x0100", [{"kind": "padding", "lo": 0, "hi": 3}]),  # bits 4-7 uncovered
        ("0xZZ", [{"kind": "padding", "lo": 0, "hi": 7}]),  # id is not hex
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

    @pytest.mark.parametrize("command", ["synth", "score"])
    @pytest.mark.parametrize("field, value", [("bit_width", "64"), ("frames", 5000.0)])
    def test_mistyped_ground_truth_field_exit_one(self, command, field, value, tmp_path, capsys):
        spec = json.loads(bundled_spec_path().read_text())
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({**spec, field: value}))
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
    ], ids=["not-an-object", "string-lo", "string-bit-width", "null-clusters",
            "string-threshold", "string-config"])
    def test_mistyped_tokenization_exit_one(self, edit, tmp_path, capsys):
        tok = tmp_path / "tok.json"
        tok.write_text(json.dumps(edit(_valid_tokenization())))
        gt = str(bundled_spec_path())
        assert main(["score", "-t", str(tok), "-g", gt, "--out", str(tmp_path)]) == 1
        assert "error: invalid tokenization: " in capsys.readouterr().err


def _required(command):
    return [command, "-i", "capture.log"] + (["-g", "gt.json"] if command == "score" else [])


@pytest.mark.parametrize("command", ["tang", "tokenize", "extract", "score"])
class TestSharedFlags:
    def test_same_defaults(self, command):
        args = build_parser().parse_args(_required(command))
        assert (
            args.format, args.endianness, args.threshold, args.padding_mode,
            args.out, args.lenient,
        ) == ("candump", "big", 0, "exclude", ".", False)

    def test_bogus_padding_mode_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_required(command) + ["--padding-mode", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
