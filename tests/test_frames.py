import logging

import pytest

from cantok import (
    AnalysisError,
    CanFrame,
    ParseError,
    load_trace,
    parse_candump_line,
    parse_csv_line,
    partition_by_id,
    write_candump,
)
from cantok import frames
from cantok.frames import format_candump_line

from .conftest import load_outcome, make_trace, reference_load_trace

# Strings `float` and `int(_, 16)` read but a capture must not hold.
BAD_TIMESTAMPS = ["nan", "inf", "-inf", "1e400", "1_0.5", "\u0661.5"]
BAD_IDS = ["+1", "-1", "1_0", "0x_10", "0x1_0", "\u0661\u0660\u0660"]


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

    def test_missing_column(self):
        with pytest.raises(ParseError, match="missing column"):
            parse_csv_line("1.0,123,2")


class TestFrameInvariants:
    def test_extended_id_limit(self):
        with pytest.raises(AnalysisError):
            CanFrame(0.0, 0x20000000, 0, b"")

    def test_payload_dlc_mismatch(self):
        with pytest.raises(AnalysisError):
            CanFrame(0.0, 1, 2, b"\x00")

    def test_is_extended(self):
        assert not CanFrame(0.0, 0x7FF, 0, b"").is_extended
        assert CanFrame(0.0, 0x800, 0, b"").is_extended


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
        assert trace.source == str(p)

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
        assert format_candump_line(CanFrame(1.0, 0x123, 0, b"")).split()[2] == "123#"
        assert (
            format_candump_line(CanFrame(1.0, 0x1ABCDEF0, 0, b"")).split()[2]
            == "1ABCDEF0#"
        )


def test_trace_validate():
    good = make_trace((CanFrame(1.0, 1, 0, b""), CanFrame(1.0, 1, 0, b"")))
    good.validate()
    bad = make_trace((CanFrame(2.0, 1, 0, b""), CanFrame(1.0, 1, 0, b"")))
    with pytest.raises(AnalysisError):
        bad.validate()
