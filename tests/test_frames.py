import io
import logging
from unittest import mock

import numpy as np
import pytest

from cantok import (
    AnalysisError,
    CanFrame,
    ParseError,
    Trace,
    load_trace,
    parse_candump_line,
    parse_csv_line,
    partition_by_id,
    write_candump,
)
from cantok import frames

from .conftest import load_outcome, make_trace, reference_candump_line, reference_load_trace

# Strings `float`, `int(_, 16)` and `int` read but a capture must not hold.
BAD_TIMESTAMPS = ["nan", "inf", "-inf", "1e400", "1_0.5", "\u0661.5",
                  "-1.5", "+2.0", "1e3", "1E-3", ".5", "5."]
BAD_IDS = ["+1", "-1", "1_0", "0x_10", "0x1_0", "\u0661\u0660\u0660"]
BAD_DLCS = ["+1", " +1", "-1", "0_1", "\u0661"]


class TestParseCandump:
    def test_full_payload(self):
        f = parse_candump_line("(1500000000.000000) can0 0A15#0000000000000000")
        assert f.timestamp == 1500000000.0
        assert f.arbitration_id == 0x0A15
        assert f.dlc == 8
        assert f.payload == bytes(8)

    def test_empty_payload(self):
        f = parse_candump_line("(1.5) can0 123#")
        assert (f.timestamp, f.arbitration_id, f.dlc, f.payload) == (1.5, 0x123, 0, b"")

    def test_odd_length_hex(self):
        with pytest.raises(ParseError, match="odd-length"):
            parse_candump_line("(1.0) can0 123#ABC")

    def test_bad_timestamp(self):
        with pytest.raises(ParseError, match="timestamp"):
            parse_candump_line("(abc) can0 123#00")

    def test_bad_id(self):
        with pytest.raises(ParseError, match="unparsable id"):
            parse_candump_line("(1.0) can0 XYZ#00")

    @pytest.mark.parametrize("ts", BAD_TIMESTAMPS)
    def test_non_finite_or_grouped_timestamp(self, ts):
        with pytest.raises(ParseError, match="malformed timestamp"):
            parse_candump_line(f"({ts}) can0 100#01")

    @pytest.mark.parametrize("arb_id", BAD_IDS)
    def test_signed_or_grouped_id(self, arb_id):
        with pytest.raises(ParseError, match="unparsable id"):
            parse_candump_line(f"(1.0) can0 {arb_id}#01")

    def test_oversized_payload(self):
        with pytest.raises(ParseError, match="exceeds 8"):
            parse_candump_line("(1.0) can0 123#" + "00" * 9)

    def test_missing_hash(self):
        with pytest.raises(ParseError, match="separator"):
            parse_candump_line("(1.0) can0 12300")

    def test_payload_order(self):
        f = parse_candump_line("(1.0) can0 123#0102")
        assert f.payload == b"\x01\x02"

    @pytest.mark.parametrize("line, frame", [
        ("(5) can0 123#01", (5.0, 0x123, 1, b"\x01")),
        ("(1.5) can0 0x123#01", (1.5, 0x123, 1, b"\x01")),
        ("(1.5) can0 000000000123#", (1.5, 0x123, 0, b"")),
    ], ids=["integer-seconds", "0x-id", "zero-padded-id"])
    def test_still_accepted(self, line, frame):
        f = parse_candump_line(line)
        assert (f.timestamp, f.arbitration_id, f.dlc, f.payload) == frame


class TestParseCsv:
    def test_basic(self):
        f = parse_csv_line("1500000000.000000,0A15,8,0001020304050607")
        assert f.arbitration_id == 0x0A15
        assert f.payload == bytes(range(8))

    def test_single_byte(self):
        f = parse_csv_line("1.0,7FF,1,FF")
        assert (f.arbitration_id, f.dlc, f.payload) == (0x7FF, 1, b"\xff")

    def test_dlc_mismatch(self):
        with pytest.raises(ParseError, match="does not match payload"):
            parse_csv_line("1.0,123,2,FF")

    def test_0x_prefix(self):
        f = parse_csv_line("1.0,0x123,1,AA")
        assert f.arbitration_id == 0x123

    @pytest.mark.parametrize("ts", BAD_TIMESTAMPS)
    def test_non_finite_or_grouped_timestamp(self, ts):
        with pytest.raises(ParseError, match="malformed timestamp"):
            parse_csv_line(f"{ts},100,1,01")

    @pytest.mark.parametrize("arb_id", BAD_IDS)
    def test_signed_or_grouped_id(self, arb_id):
        with pytest.raises(ParseError, match="unparsable id"):
            parse_csv_line(f"1.0,{arb_id},1,01")

    @pytest.mark.parametrize("dlc", BAD_DLCS)
    def test_signed_or_grouped_dlc(self, dlc):
        with pytest.raises(ParseError, match="unparsable dlc"):
            parse_csv_line(f"1.0,100,{dlc},01")

    def test_spaced_dlc(self):
        assert parse_csv_line("1.0,100, 1 ,01").dlc == 1

    @pytest.mark.parametrize("line, frame", [
        (" 2.0 ,100,1,01", (2.0, 0x100, 1, b"\x01")),
        ("2.0,000000000100,1,01", (2.0, 0x100, 1, b"\x01")),
    ], ids=["spaced-timestamp", "zero-padded-id"])
    def test_still_accepted(self, line, frame):
        f = parse_csv_line(line)
        assert (f.timestamp, f.arbitration_id, f.dlc, f.payload) == frame

    def test_dlc_too_long_for_int(self):
        with pytest.raises(ParseError, match="dlc 1{5000} does not match payload of 1 bytes"):
            parse_csv_line("1.0,100," + "1" * 5000 + ",01")

    def test_inner_space_in_payload(self):
        with pytest.raises(ParseError, match="non-hex payload"):
            parse_csv_line("1.0,100,2,01  02")

    @pytest.mark.parametrize("line, reason", [
        ("\u00a02.0,100,1,01", "malformed timestamp"),
        ("2.0\u00a0,100,1,01", "malformed timestamp"),
        ("2.0,100,\u00a01,01", "unparsable dlc"),
        ("2.0,100,1\u00a0,01", "unparsable dlc"),
        ("2.0,\u00a0100,1,01", "unparsable id"),
    ])
    def test_no_break_space_padding(self, line, reason):
        with pytest.raises(ParseError, match=reason):
            parse_csv_line(line)

    def test_missing_column(self):
        with pytest.raises(ParseError, match="missing column"):
            parse_csv_line("1.0,123,2")


class TestParseErrors:
    """The reason each parser gives; a line with several faults gets the first
    in the builder's order: timestamp, id, dlc, payload, dlc match, id range,
    dlc range."""

    @pytest.mark.parametrize("parse, line, reason", [
        (parse_candump_line, "(1.0) can0 20000000#00",
         "arbitration id 0x20000000 outside extended range"),
        (parse_candump_line, "(1.0) can0 FFFFFFFF#00",
         "arbitration id 0xFFFFFFFF outside extended range"),
        (parse_csv_line, "1.0,20000000,0,", "arbitration id 0x20000000 outside extended range"),
        (parse_csv_line, "1.0,100,9,000102030405060708", "dlc 9 outside 0..8"),
        (parse_candump_line, "(1.0) can0 20000000#0", "odd-length hex payload"),
        (parse_candump_line, "(1.0) can0 20000000#" + "00" * 9, "payload of 9 bytes exceeds 8"),
        (parse_csv_line, "1.0,20000000,2,00", "dlc 2 does not match payload of 1 bytes"),
        (parse_csv_line, "1.0,20000000,9,000102030405060708",
         "arbitration id 0x20000000 outside extended range"),
    ], ids=["id-range", "id-max-u32", "csv-id-range", "csv-dlc-range", "odd-before-id-range",
            "long-payload-before-id-range", "dlc-match-before-id-range",
            "id-range-before-dlc-range"])
    def test_reason(self, parse, line, reason):
        with pytest.raises(ParseError) as exc:
            parse(line, lineno=3)
        assert str(exc.value) == f"{reason} (line 3): {line!r}"


class TestFrameInvariants:
    """A Trace rejects the columns partition_by_id cannot key: an id above 29
    bits, or a dlc above 8, which its 4-bit dlc key would wrap."""

    @staticmethod
    def _trace(ids, dlcs):
        return Trace([0.0, 1.0, 2.0], ids, dlcs, np.zeros((3, 8)))

    def test_extended_id_limit(self):
        self._trace([0, 0x1FFFFFFF, 1], [0, 8, 1])
        for ids, first in [([1, 0x20000000, 0xFFFFFFFF], 0x20000000),
                           ([0xFFFFFFFF, 1, 0x20000000], 0xFFFFFFFF)]:
            with pytest.raises(
                AnalysisError, match=f"^arbitration id 0x{first:X} outside extended range$"
            ):
                self._trace(ids, [1, 16, 1])  # the id is checked first

    @pytest.mark.parametrize("dlcs, first", [([1, 9, 16], 9), ([16, 1, 9], 16)])
    def test_dlc_limit(self, dlcs, first):
        with pytest.raises(AnalysisError, match=f"^dlc {first} outside 0..8$"):
            self._trace([1, 1, 1], dlcs)

    def test_empty_trace_valid(self):
        assert len(Trace([], [], [], np.zeros((0, 8)))) == 0

    def test_row_checks_nothing(self):
        """Rows come only from the line builder and Trace.frames, which both
        make consistent rows, so a row is a plain tuple."""
        row = CanFrame(0.5, 0x20000000, 2, b"\x01")  # out of range and mismatched
        assert row == (0.5, 0x20000000, 2, b"\x01")
        assert (row.timestamp, row.arbitration_id, row.dlc, row.payload) == tuple(row)


class TestLoadTrace:
    def _write(self, tmp_path, lines):
        p = tmp_path / "capture.log"
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_file_order_and_counts(self, tmp_path):
        p = self._write(
            tmp_path,
            [
                "(1.0) can0 100#01",
                "",
                "# comment",
                "(2.0) can0 200#0203",
                "(3.0) can0 100#04",
            ],
        )
        trace = load_trace(p)
        assert [f.arbitration_id for f in trace.frames] == [0x100, 0x200, 0x100]

    def test_strict_aborts_with_line_number(self, tmp_path):
        p = self._write(tmp_path, ["(1.0) can0 100#01", "(1.1) can0 100#ABC"])
        with pytest.raises(ParseError, match="line 2"):
            load_trace(p)

    def test_lenient_skips(self, tmp_path, caplog):
        p = self._write(tmp_path, ["(1.0) can0 100#01", "garbage", "(1.2) can0 100#02"])
        with caplog.at_level(logging.WARNING):
            trace = load_trace(p, strict=False)
        assert len(trace) == 2
        assert "skipped 1" in caplog.text

    @pytest.mark.parametrize("format, line", [
        ("candump", "({ts}) can0 {id}#01"), ("csv", "{ts},{id},1,01")])
    def test_lenient_skips_bad_timestamps_and_ids(self, format, line, tmp_path, caplog):
        bad = [line.format(ts=ts, id="100") for ts in BAD_TIMESTAMPS]
        bad += [line.format(ts="1.5", id=arb_id) for arb_id in BAD_IDS]
        p = self._write(tmp_path, [line.format(ts="1.0", id="100"), *bad])
        with caplog.at_level(logging.WARNING):
            trace = load_trace(p, format=format, strict=False)
        assert trace.timestamps.tolist() == [1.0]
        assert f"skipped {len(bad)} malformed" in caplog.text

    @pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\x1c"], ids=["nbsp", "em", "fs"])
    @pytest.mark.parametrize("bad", [
        "(1.0){s}can0 123#01", "(1.0) can0{s}123#01", "{s}(1.0) can0 123#01",
        "(1.0) can0 123#01{s}", "{s}", " {s}\t",
    ], ids=["separator-1", "separator-2", "leading", "trailing", "alone", "among-ascii"])
    def test_only_ascii_whitespace(self, tmp_path, caplog, space, bad):
        """A capture's whitespace is ASCII: a line that pads or separates with
        another space character is malformed, not blank or split there."""
        p = tmp_path / "capture.log"
        p.write_text(f"(0.5) can0 123#00\n{bad.format(s=space)}\n(2.0) can0 123#02\n",
                     encoding="utf-8")
        with pytest.raises(ParseError, match=r"\(line 2\)"):
            load_trace(p)
        with caplog.at_level(logging.WARNING):
            trace = load_trace(p, strict=False)
        assert trace.timestamps.tolist() == [0.5, 2.0]
        assert caplog.messages == [f"{p}: skipped 1 malformed line(s)"]

    @pytest.mark.parametrize("format, line", [
        ("candump", "(1.0)\tcan0\t123#01"),
        ("candump", " \t\x0b(1.0)  can0 \t123#01\x0c \t"),
        ("csv", "\t 1.0 ,\t123 , 1\x0b,01 \t"),
    ], ids=["tab-separators", "ascii-padding", "csv-ascii-padding"])
    def test_ascii_whitespace_loads(self, tmp_path, format, line):
        p = tmp_path / "capture"
        p.write_text(f"{line}\n")
        frames = load_trace(p, format=format).frames
        assert [(f.timestamp, f.arbitration_id, f.dlc, f.payload) for f in frames] == [
            (1.0, 0x123, 1, b"\x01")]

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            load_trace(tmp_path / "missing.log")

    def test_csv_with_header(self, tmp_path):
        p = tmp_path / "capture.csv"
        p.write_text("timestamp,id,dlc,payload_hex\n1.0,100,1,AA\n")
        trace = load_trace(p, format="csv")
        assert len(trace) == 1

    def test_unknown_format(self, tmp_path):
        with pytest.raises(AnalysisError):
            load_trace(tmp_path / "x", format="pcap")

    def test_backward_timestamps_warn(self, tmp_path, caplog):
        p = self._write(
            tmp_path,
            ["(2.0) can0 100#01", "(1.0) can0 100#02", "(3.0) can0 100#03", "(2.5) can0 100#04"],
        )
        with caplog.at_level(logging.WARNING):
            trace = load_trace(p)
        assert trace.timestamps.tolist() == [2.0, 1.0, 3.0, 2.5]
        assert caplog.messages == [
            f"{p}: timestamps decrease 2 time(s), first at frame 1: 2.0 -> 1.0"
        ]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            load_trace(self._write(tmp_path, ["(1.0) can0 100#01", "(1.0) can0 100#02"]))
        assert caplog.messages == []


LINES = ["(1.0) can0 100#0102", "(2.25) can0 1ABCDEF0#03", "(3.5) can0 7FF#"]
LATER = ["(4.0) can0 100#0304", "(5.0) can0 7FF#"]


@pytest.fixture
def tiny_chunks(monkeypatch):
    """Read captures 5 bytes at a time, so every line spans chunks."""
    monkeypatch.setattr(frames, "CHUNK_BYTES", 5)


@pytest.mark.usefixtures("tiny_chunks")
class TestChunkEdges:
    def _write(self, tmp_path, text, name="capture.log"):
        p = tmp_path / name
        p.write_bytes(text.encode())
        return p

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("text", [
        "\n".join(LINES) + "\n",
        "\n".join(LINES),
        "",
        "# only\n\n#comments\n",
        "\r\n".join(LINES) + "\r\n",
        "\r".join(LINES) + "\r",
        "# caf\u00e9\n" + "\n".join(LINES) + "\n",
    ], ids=["split-lines", "no-final-newline", "empty", "comments-only", "crlf", "lone-cr",
            "non-ascii-comment"])
    def test_matches_reference(self, tmp_path, text, strict):
        p = self._write(tmp_path, text)
        assert load_outcome(load_trace, p, strict=strict) == load_outcome(
            reference_load_trace, p, strict=strict
        )

    @pytest.mark.parametrize("chunk_bytes", [5, 64])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_pieces_end_lines(self, monkeypatch, chunk_bytes, newline):
        """Each piece ends a line and holds at most CHUNK_BYTES plus one line,
        whatever ends the lines; a CR LF is never split between pieces."""
        monkeypatch.setattr(frames, "CHUNK_BYTES", chunk_bytes)
        lines = [line + newline for line in LINES * 4]
        data = "".join(lines).encode()
        pieces = list(frames._chunks(io.BytesIO(data)))
        assert b"".join(pieces) == data
        assert max(map(len, pieces)) <= chunk_bytes + max(map(len, lines))
        for piece, after in zip(pieces, pieces[1:]):
            assert piece.endswith((b"\n", b"\r")) and not (
                piece.endswith(b"\r") and after.startswith(b"\n")
            )

    def test_csv_matches_reference(self, tmp_path):
        text = "timestamp,id,dlc,payload_hex\r\n1.0,100,1,AA\r\n2.5,0x1ABCDEF0,0,\n3,7FF,2,0102"
        p = self._write(tmp_path, text, "capture.csv")
        assert load_outcome(load_trace, p, format="csv") == load_outcome(
            reference_load_trace, p, format="csv"
        )

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_strict_error_in_later_chunk(self, tmp_path, newline):
        p = self._write(tmp_path, newline.join([*LINES, "# note", "(3.9) can0 100#ABC", *LATER]))
        with pytest.raises(ParseError, match=r"odd-length hex payload \(line 5\)"):
            load_trace(p)
        assert load_outcome(load_trace, p) == load_outcome(reference_load_trace, p)

    def test_lenient_skips_in_later_chunks(self, tmp_path, caplog):
        p = self._write(tmp_path, "\n".join([*LINES, "garbage", *LATER, "(6.0) can0 100#ABC"]))
        with caplog.at_level(logging.WARNING):
            trace = load_trace(p, strict=False)
        assert len(trace) == 5
        assert caplog.messages == [f"{p}: skipped 2 malformed line(s)"]
        assert load_outcome(load_trace, p, strict=False) == load_outcome(
            reference_load_trace, p, strict=False
        )


class TestPerLineFallback:
    """A line with a byte >= 0x80 goes to the per-line parser, and only that line."""

    def test_parser_sees_only_non_ascii_data_lines(self, tmp_path, monkeypatch):
        monkeypatch.setattr(frames, "CHUNK_BYTES", 4096)  # about 150 lines a chunk
        parts, offending = [], 0
        for k in range(3000):
            parts.append(f"({k / 100:.6f}) can0 1{k % 10}0#{k % 256:02X}")
            parts.append("\r" if k % 37 == 0 else "\n")  # a lone CR now and then
            if k % 150 == 75:
                parts.append("# caf\u00e9\n")  # never reaches the parser
                parts.append(f"({k / 100:.6f}) ca\u00f10 123#{k % 256:02X}\n")
                offending += 1
        path = tmp_path / "capture.log"
        path.write_text("".join(parts), encoding="utf-8")
        spy = mock.MagicMock(wraps=frames.parse_candump_line)
        monkeypatch.setattr(frames, "parse_candump_line", spy)
        trace = load_trace(path)
        assert spy.call_count == offending == 20
        assert len(trace) == 3000 + offending
        assert load_outcome(load_trace, path) == load_outcome(reference_load_trace, path)


# Valid lines the columnar decoder reads: candump with a 3- and an 8-digit
# id, and CSV. Each test swaps one byte of one of them for each SUBSTITUTE.
SUBSTITUTION_TEMPLATES = {
    "candump-3": ("candump", "(1.250000) can0 1a3#01aBcDeF"),
    "candump-8": ("candump", "(1699999999.123456) vcan0 1ABCDEF0#0102030405060708"),
    "csv": ("csv", "1.250000,1A3,3,01aBcD"),
}
SUBSTITUTES = "09aFG() \t#.,\x0bx"


def _substitutions(line):
    """Every line that differs from `line` in one byte, taken from SUBSTITUTES."""
    return [
        line[:k] + s + line[k + 1 :]
        for k in range(len(line)) for s in SUBSTITUTES if s != line[k]
    ]


@pytest.mark.parametrize("name", sorted(SUBSTITUTION_TEMPLATES))
class TestOneByteSubstitutions:
    def test_template_decoded_in_columns(self, name):
        fmt, line = SUBSTITUTION_TEMPLATES[name]
        decoded, _, _ = frames._decode_chunk(f"{line}\n{line}\n".encode(), fmt)
        assert decoded.all()

    def test_lenient_between_valid_lines(self, tmp_path, name):
        """All mutants in one file, each between two valid lines of its length,
        so a mutant shares its shape's rows with valid lines."""
        fmt, line = SUBSTITUTION_TEMPLATES[name]
        p = tmp_path / "capture"
        p.write_text("".join(f"{line}\n{m}\n" for m in _substitutions(line)) + f"{line}\n")
        assert load_outcome(load_trace, p, format=fmt, strict=False) == load_outcome(
            reference_load_trace, p, format=fmt, strict=False
        )

    def test_strict_one_file_per_mutant(self, tmp_path, name):
        fmt, line = SUBSTITUTION_TEMPLATES[name]
        p = tmp_path / "capture"
        for mutant in _substitutions(line):
            p.write_text(f"{line}\n{mutant}\n{line}\n")
            assert load_outcome(load_trace, p, format=fmt) == load_outcome(
                reference_load_trace, p, format=fmt
            ), mutant


class TestPartition:
    def test_single_group(self):
        frames = tuple(CanFrame(k * 0.1, 0xA15, 8, bytes(8)) for k in range(10))
        groups = partition_by_id(make_trace(frames))
        assert set(groups) == {(0xA15, 8)}
        assert len(groups[(0xA15, 8)]) == 10

    def test_disjoint_groups(self):
        frames = tuple(CanFrame(k * 0.1, 1, 8, bytes(8)) for k in range(5)) + tuple(
            CanFrame(1 + k * 0.1, 2, 4, bytes(4)) for k in range(3)
        )
        groups = partition_by_id(make_trace(frames))
        assert {k: len(v) for k, v in groups.items()} == {(1, 8): 5, (2, 4): 3}

    def test_mixed_dlc_split_and_warning(self, caplog):
        frames = tuple(CanFrame(k * 0.1, 1, 8, bytes(8)) for k in range(5)) + tuple(
            CanFrame(1 + k * 0.1, 1, 4, bytes(4)) for k in range(2)
        )
        with caplog.at_level(logging.WARNING):
            groups = partition_by_id(make_trace(frames))
        assert {k: len(v) for k, v in groups.items()} == {(1, 8): 5, (1, 4): 2}
        assert "0x1" in caplog.text

    def test_empty_trace(self):
        assert partition_by_id(make_trace(())) == {}

    def test_completeness_and_order(self):
        frames = tuple(
            CanFrame(k * 0.1, k % 3, 1, bytes([k])) for k in range(30)
        )
        trace = make_trace(frames)
        groups = partition_by_id(trace)
        assert sum(len(g) for g in groups.values()) == len(trace)
        for (arb_id, dlc), g in groups.items():
            expected = [f for f in frames if f.arbitration_id == arb_id]
            assert (g.arbitration_id, g.dlc) == (arb_id, dlc)
            assert g.timestamps.tolist() == [f.timestamp for f in expected]
            assert [row.tobytes() for row in g.payloads] == [f.payload for f in expected]


class TestRoundTrip:
    def test_candump_round_trip(self, tmp_path):
        frames = tuple(
            CanFrame(1500000000.0 + k * 0.000001, arb_id, len(p), bytes(p))
            for k, (arb_id, p) in enumerate(
                [(0x123, [1, 2]), (0x7FF, []), (0x1ABCDEF0, list(range(8)))]
            )
        )
        p = tmp_path / "out.log"
        write_candump(make_trace(frames), p)
        back = load_trace(p)
        assert len(back) == len(frames)
        for a, b in zip(frames, back.frames):
            assert abs(a.timestamp - b.timestamp) < 1e-6
            assert (a.arbitration_id, a.dlc, a.payload) == (
                b.arbitration_id,
                b.dlc,
                b.payload,
            )

    def test_id_digit_widths(self):
        assert reference_candump_line(CanFrame(1.0, 0x123, 0, b"")).split()[2] == "123#"
        assert (
            reference_candump_line(CanFrame(1.0, 0x1ABCDEF0, 0, b"")).split()[2]
            == "1ABCDEF0#"
        )


def test_trace_validate():
    good = make_trace((CanFrame(1.0, 1, 0, b""), CanFrame(1.0, 1, 0, b"")))
    good.validate()
    bad = make_trace((CanFrame(2.0, 1, 0, b""), CanFrame(1.0, 1, 0, b"")))
    with pytest.raises(AnalysisError):
        bad.validate()
