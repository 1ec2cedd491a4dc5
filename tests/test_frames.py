import io
import logging
import re
import sys
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from cantok import (
    AnalysisError,
    CanFrame,
    IdTrace,
    ParseError,
    Trace,
    load_trace,
    parse_candump_line,
    parse_csv_line,
    partition_by_id,
    write_candump,
)
from cantok import frames

from .conftest import (
    load_outcome, make_trace, reference_candump_line, reference_load_trace, reference_write_candump,
)

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
        with pytest.raises(ParseError) as exc:
            parse_csv_line("1.0,100," + "1" * 5000 + ",01")
        assert exc.value.reason == "dlc " + "1" * 5000 + " does not match payload of 1 bytes"

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
        (parse_csv_line, "", "empty record"),
    ], ids=["id-range", "id-max-u32", "csv-id-range", "csv-dlc-range", "odd-before-id-range",
            "long-payload-before-id-range", "dlc-match-before-id-range",
            "id-range-before-dlc-range", "csv-empty-record"])
    def test_reason(self, parse, line, reason):
        with pytest.raises(ParseError) as exc:
            parse(line, lineno=3)
        assert str(exc.value) == f"{reason} (line 3): {line!r}"


# can-utils log records of frames that are not classic data frames (linux/can.h,
# can-utils lib.c), and lines next to them that keep their old reason.
LINE_CLASSES = [
    ("(1.0) can0 123#R", "remote frame (RTR)"),
    ("(1.0) can0 123#R5", "remote frame (RTR)"),
    ("(1.0) can0 1ABCDEF0#R", "remote frame (RTR)"),
    ("(1.0) can0 123##1AABB", "CAN FD frame"),
    ("(1.0) can0 123##0", "CAN FD frame"),
    ("(1.0) can0 20000080#0000000000000000", "error frame (CAN_ERR_FLAG)"),
    ("(1.0) can0 3FFFFFFF#0102030405060708", "error frame (CAN_ERR_FLAG)"),
    ("(1.0) can0 20000080#00", "arbitration id 0x20000080 outside extended range"),
    ("(1.0) can0 40000080#0000000000000000", "arbitration id 0x40000080 outside extended range"),
    ("(1.0) can0 123#RR", "remote frame (RTR)"),
    ("(1.0) can0 123#0R", "non-hex payload"),
    ("(1.0) can0 123###1234", "CAN XL frame"),
    ("(1.0) can0 123###", "CAN XL frame"),
    ("(1.0) can0 123#11_9", "malformed raw DLC"),
    ("(1.0) can0 123#1122334455667788_8", "malformed raw DLC"),
    ("(1.0) can0 123#1122334455667788_10", "malformed raw DLC"),
    ("(1.0) can0 123#1122334455667788_", "malformed raw DLC"),
    ("(1.0) can0 123#1122334455667788_9_9", "malformed raw DLC"),
    ("(1.0) can0 123#_9", "malformed raw DLC"),
    ("(1.0) can0 123#11223344556677ZZ_9", "non-hex payload"),
]
LINE_CLASS_IDS = ["rtr", "rtr-len", "rtr-extended", "fd", "fd-no-data", "error", "error-max",
                  "error-flag-dlc-1", "rtr-flag-bit", "rtr-junk", "r-after-data", "xl",
                  "xl-no-data", "raw-dlc-short-payload", "raw-dlc-8", "raw-dlc-two-digits", "raw-dlc-missing",
                  "raw-dlc-twice", "raw-dlc-no-payload", "raw-dlc-non-hex-payload"]


class TestLineClasses:
    """Remote, error, CAN FD and CAN XL frames and malformed raw DLCs each fail with
    their own reason: a strict load aborts on one, and a lenient load skips it
    and counts it."""

    @pytest.mark.parametrize("line, reason", LINE_CLASSES, ids=LINE_CLASS_IDS)
    def test_reason(self, line, reason):
        with pytest.raises(ParseError) as exc:
            parse_candump_line(line, lineno=3)
        assert str(exc.value) == f"{reason} (line 3): {line!r}"

    @pytest.mark.parametrize("line, reason", LINE_CLASSES, ids=LINE_CLASS_IDS)
    def test_load(self, tmp_path, caplog, line, reason):
        p = tmp_path / "capture.log"
        p.write_text(f"(0.5) can0 123#01\n{line}\n(2.0) can0 123#02\n")
        with pytest.raises(ParseError, match=f"^{re.escape(reason)} \\(line 2\\)"):
            load_trace(p)
        with caplog.at_level(logging.WARNING):
            assert load_trace(p, strict=False).timestamps.tolist() == [0.5, 2.0]
        assert caplog.messages == [f"{p}: skipped 1 malformed line(s)"]
        for strict in (True, False):
            assert load_outcome(load_trace, p, strict=strict) == load_outcome(
                reference_load_trace, p, strict=strict
            )


@pytest.mark.parametrize("raw_dlc", ["9", "A", "f"])
def test_raw_dlc_loads_as_its_eight_bytes(tmp_path, raw_dlc):
    """can-utils logs a Classic CAN frame of raw DLC 9-15 as its 8 data bytes, ``_``
    and the raw DLC in hex: it loads as the frame without the suffix, dlc 8."""
    line = "(1.0) can0 123#1122334455667788"
    assert parse_candump_line(f"{line}_{raw_dlc}") == parse_candump_line(line)
    plain, suffixed = tmp_path / "plain.log", tmp_path / "suffixed.log"
    plain.write_text(f"(0.5) can0 123#01\n{line}\n")
    suffixed.write_text(f"(0.5) can0 123#01\n{line}_{raw_dlc}\n")
    for strict in (True, False):
        outcome = load_outcome(load_trace, suffixed, strict=strict)
        assert outcome == load_outcome(reference_load_trace, suffixed, strict=strict)
        assert outcome == load_outcome(load_trace, plain, strict=strict)


class TestFrameInvariants:
    """A Trace rejects the columns partition_by_id cannot key: an id above 29
    bits, or a dlc above 8, which its 4-bit dlc key would wrap. An IdTrace
    rejects the same ids and dlcs."""

    @staticmethod
    def _trace(ids, dlcs):
        return Trace([0.0, 1.0, 2.0], ids, dlcs, np.zeros(3))

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

    @pytest.mark.parametrize("name, column, shown", [
        ("ids", np.array([2**32 + 5, 5, 5]), "4294967301, which is not a uint32"),
        ("ids", [5.7, 1, 1], "5.7, which is not a uint32"),
        ("ids", [float("nan"), 1, 1], "nan, which is not a uint32"),
        ("dlcs", np.array([264, 8, 8]), "264, which is not a uint8"),
        ("words", np.array([-1, 0, 0]), "-1, which is not a uint64"),
        ("words", np.full(3, 300.5), "300.5, which is not a uint64"),
        ("timestamps", np.array([2**53 + 1, 0, 0]), "9007199254740993, which is not a float64"),
    ], ids=["id-2**32+5", "id-5.7", "id-nan", "dlc-264", "payload--1", "payload-300.5",
            "timestamp-2**53+1"])
    def test_inexact_cast_rejected(self, name, column, shown):
        """A column is cast to its dtype only if every value survives the cast."""
        columns = {"timestamps": [0.0, 1.0, 2.0], "ids": [1, 1, 1], "dlcs": [1, 1, 1],
                   "words": np.zeros(3), name: column}
        with pytest.raises(AnalysisError, match=f"^{name} holds {re.escape(shown)}$"):
            Trace(**columns)

    @pytest.mark.parametrize("arb_id, dlc, reason", [
        (0x20000000, 1, "arbitration id 0x20000000 outside extended range"),
        (2**40, 1, "arbitration id 0x10000000000 outside extended range"),
        (0x100, 9, "dlc 9 outside 0..8"),
        (0x100, -1, "dlc -1 outside 0..8"),
    ], ids=["id-2**29", "id-2**40", "dlc-9", "dlc--1"])
    def test_id_trace_limits(self, arb_id, dlc, reason):
        """An IdTrace rejects the ids and dlcs a Trace rejects: its words no longer
        bound the dlc by their shape."""
        IdTrace(0x1FFFFFFF, 8, None, np.zeros(3, np.uint64))
        IdTrace(0, 0, None, np.zeros(3, np.uint64))
        with pytest.raises(AnalysisError, match=f"^{re.escape(reason)}$"):
            IdTrace(arb_id, dlc, None, np.zeros(3, np.uint64))

    def test_id_trace_cast_checked(self):
        with pytest.raises(AnalysisError, match="^words holds -1, which is not a uint64$"):
            IdTrace(1, 1, [0.0, 1.0], [-1, 0])

    def test_int_beyond_int64_rejected(self):
        with pytest.raises(AnalysisError, match="^ids of object: "):
            Trace([0.0], [2**64], [0], np.zeros(1))

    @pytest.mark.parametrize("dtype", [None, object], ids=["typed", "object"])
    @pytest.mark.parametrize("text", [str, str.encode], ids=["str", "bytes"])
    def test_text_column_rejected(self, text, dtype):
        """`astype` reads decimal digits: the id "100" would be 100, not 0x100."""
        def col(*values):
            return np.array(values, dtype)

        with pytest.raises(AnalysisError, match=r"^timestamps of \S+ holds text, not numbers$"):
            Trace(col(text("0.5")), [1], [1], [1])
        with pytest.raises(AnalysisError, match=r"^ids of \S+ holds text, not numbers$"):
            Trace([0.5], col(text("100")), [1], [1])
        with pytest.raises(AnalysisError, match=r"^timestamps of \S+ holds text, not numbers$"):
            IdTrace(1, 1, col(text("0")), [7])
        with pytest.raises(AnalysisError, match=r"^words of \S+ holds text, not numbers$"):
            IdTrace(1, 1, [0.0], col(text("7")))

    def test_text_among_numbers_in_object_column_rejected(self):
        with pytest.raises(AnalysisError, match=r"^ids of object holds text, not numbers$"):
            Trace([0.5, 0.6], np.array([1, "100"], object), [1, 1], [1, 1])

    def test_exact_cast_kept_and_typed_column_not_copied(self):
        ids = np.array([1, 0x1FFFFFFF, 2], np.uint32)
        trace = Trace([0, 1, 2], ids, [1.0, 8.0, 0.0], np.zeros(3))
        assert np.shares_memory(trace.ids, ids)
        assert trace.dlcs.tolist() == [1, 8, 0] and trace.timestamps.dtype == np.float64

    def test_empty_trace_valid(self):
        assert len(Trace([], [], [], np.zeros(0))) == 0

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

    def test_csv_field_over_csv_module_limit(self, tmp_path, caplog):
        """A field longer than the csv module reads is a malformed line, not a crash."""
        p = self._write(tmp_path, ["1.0,100,1,01", "1.5,100," + "1" * 200000 + ",00", "2.0,100,1,02"])
        with pytest.raises(ParseError, match=r"^field larger than field limit .* \(line 2\)"):
            load_trace(p, format="csv")
        with caplog.at_level(logging.WARNING):
            trace = load_trace(p, format="csv", strict=False)
        assert trace.timestamps.tolist() == [1.0, 2.0]
        assert caplog.messages == [f"{p}: skipped 1 malformed line(s)"]

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            load_trace(tmp_path / "missing.log")

    def test_csv_with_header(self, tmp_path):
        p = tmp_path / "capture.csv"
        p.write_text("timestamp,id,dlc,payload_hex\n1.0,100,1,AA\n")
        trace = load_trace(p, format="csv")
        assert len(trace) == 1

    @pytest.mark.parametrize("loader", [load_trace, reference_load_trace],
                             ids=["loader", "reference"])
    @pytest.mark.parametrize("header, skipped", [
        (" timestamp , id ,dlc,payload_hex ", True),
        ("timestamp,\tid,dlc,\fpayload_hex\v", True),
        ("time stamp,id,dlc,payload_hex", False),
        ("timestamp,id,d lc,payload_hex", False),
    ], ids=["spaces", "tab-ff-vt", "space-in-name", "space-in-dlc"])
    def test_csv_header_whitespace(self, tmp_path, loader, header, skipped):
        """ASCII whitespace around a header field is ignored, as around a record's field;
        a space inside a name is not, so a strict load fails on that line."""
        p = tmp_path / "capture.csv"
        p.write_text(header + "\n1.0,100,1,AA\n")
        if skipped:
            assert len(loader(p, format="csv")) == 1
        else:
            with pytest.raises(ParseError, match=r"^malformed timestamp \(line 1\)"):
                loader(p, format="csv")

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
        # the pieces are views of one reused buffer: copy each as it comes
        pieces = [bytes(p) for p in frames._chunks(io.BytesIO(data), bytearray(chunk_bytes + 1))]
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


def test_crlf_capture_gets_a_row_a_line(tmp_path):
    """The line-count pre-pass counts a CR LF once, so a CR LF capture gets one row of
    21 bytes (stamp, id, dlc, word) a line, as its LF copy does. Counting each CR as
    a line end too gave it a second row a line: a peak 5.0 MB above the LF copy's
    here, against 1.3 MB for the general chunk path's work on CR LF lines."""
    lines = [f"({k / 100:.6f}) can0 123#AABB" for k in range(200_000)]
    peaks = []
    for newline in ("\n", "\r\n"):
        (path := tmp_path / "capture.log").write_text("".join(line + newline for line in lines))
        tracemalloc.start()
        try:
            assert len(load_trace(path)) == len(lines)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 21 * len(lines) / 2


class TestBackwardSteps:
    """The warning on timestamps that go backwards is worked out chunk by chunk:
    the same with timestamps kept or not, and as `Trace.validate` reads the kept
    column, for steps inside a chunk, at a chunk's first line and after skipped
    lines. Every line is 23 bytes with its LF."""

    STAMPS = ["1", "2", "3", "2.5", "4", "3.5", None, None, "3", "5", None, "4.5", "6"]
    MESSAGE = "timestamps decrease 4 time(s), first at frame 3: 3.0 -> 2.5"

    def _capture(self, tmp_path, skips=True):
        lines = [f"({float(ts):.6f}) can0 100#AA" if ts else "(bad.ts) can0 100#AAAAAA"
                 for ts in self.STAMPS if ts or skips]
        path = tmp_path / "capture.log"
        path.write_text("".join(line + "\n" for line in lines))
        return path

    @pytest.mark.parametrize("chunk_bytes", [1, 23, 46, 69, 100, frames.CHUNK_BYTES])
    @pytest.mark.parametrize("strict", [True, False])
    def test_same_message_in_both_modes(self, tmp_path, monkeypatch, chunk_bytes, strict):
        monkeypatch.setattr(frames, "CHUNK_BYTES", chunk_bytes)
        p = self._capture(tmp_path, skips=not strict)
        with pytest.raises(AnalysisError) as exc:
            load_trace(p, strict=strict).validate()
        assert str(exc.value) == self.MESSAGE
        skipped = [] if strict else [f"{p}: skipped 3 malformed line(s)"]
        for timestamps in (True, False):
            outcome = load_outcome(load_trace, p, ("ids", "words"), "", strict=strict,
                                   timestamps=timestamps)
            assert outcome[1] == [*skipped, f"{p}: {self.MESSAGE}"], (timestamps, chunk_bytes)

    def test_without_timestamps_holds_none(self, tmp_path):
        trace = load_trace(self._capture(tmp_path), strict=False, timestamps=False)
        assert trace.timestamps is None and len(trace) == 10
        assert all(g.timestamps is None for g in partition_by_id(trace).values())


class TestNoTimestamps:
    """What needs the timestamps of a trace loaded without them says so."""

    TRACE = Trace(None, [0x100, 0x100], [1, 1], [1, 2])

    def test_frames(self):
        with pytest.raises(AnalysisError, match="no timestamps column"):
            self.TRACE.frames

    def test_validate(self):
        with pytest.raises(AnalysisError, match="Trace has no timestamps column"):
            self.TRACE.validate()

    def test_write_candump(self, tmp_path):
        with pytest.raises(AnalysisError, match="no timestamps column"):
            write_candump(self.TRACE, tmp_path / "out.log")
        assert not (tmp_path / "out.log").exists()

    def test_columns_still_checked(self):
        assert len(self.TRACE) == 2 and self.TRACE.ids.dtype == np.uint32
        with pytest.raises(AnalysisError, match="ids of shape"):
            Trace(None, [0x100], [1, 1], [1, 2])
        with pytest.raises(AnalysisError, match=r"^words of shape \(3, 1\), expected \(3,\)$"):
            IdTrace(0x100, 2, None, np.zeros((3, 1), np.uint64))


@pytest.mark.parametrize("chunk_bytes", [5, frames.CHUNK_BYTES], ids=["tiny-chunks", "chunks"])
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
@pytest.mark.parametrize("fmt, lines", [
    ("candump", LINES), ("csv", [frames.CSV_HEADER, "1.0,100,2,0102", "2.25,1ABCDEF0,1,03"]),
], ids=["candump", "csv"])
def test_byte_order_mark_opens_the_file_only(tmp_path, monkeypatch, chunk_bytes, strict, fmt, lines):
    """A UTF-8 BOM at offset 0 is skipped, as text mode with "utf-8-sig" skips
    it; one anywhere else makes its line malformed."""
    monkeypatch.setattr(frames, "CHUNK_BYTES", chunk_bytes)
    plain, bom, late = (tmp_path / name for name in ("plain", "bom", "late"))
    plain.write_text("\n".join(lines) + "\n")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    late.write_text("\n".join([lines[0], "\ufeff" + lines[1], *lines[2:]]) + "\n")
    outcome = load_outcome(load_trace, bom, format=fmt, strict=strict)
    assert outcome == load_outcome(load_trace, plain, format=fmt, strict=strict)
    assert outcome == load_outcome(reference_load_trace, bom, format=fmt, strict=strict)
    assert len(load_trace(bom, format=fmt, strict=strict)) == 3 - (fmt == "csv")
    result, warnings = load_outcome(load_trace, late, format=fmt, strict=strict)
    assert (result, warnings) == load_outcome(reference_load_trace, late, format=fmt, strict=strict)
    if strict:
        assert result[1] == 2
    else:
        assert warnings == [f"{late}: skipped 1 malformed line(s)"]


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

    def test_csv_parser_sees_only_offending_lines(self, tmp_path, monkeypatch):
        """Lines of one length in several shapes (timestamp width traded against
        id width) are all read in columns, also after a junk or non-ASCII line
        that comes first in its length group and so makes the first template."""
        monkeypatch.setattr(frames, "CHUNK_BYTES", 4096)  # about 180 lines a chunk

        def line(k, dlc, width):
            id_width = (3, 8, 5)[k % 3]
            frac = 1 + k % (width - id_width - 2)
            whole = width - id_width - 1 - frac
            ts = f"{k % 10**whole:0{whole}d}.{k % 10**frac:0{frac}d}"
            arb = f"{(k * 7919) % 16**id_width & 0x1FFFFFFF:0{id_width}X}"
            return f"{ts},{arb},{dlc},{bytes([k % 256] * dlc).hex()}"

        lines, offending = [frames.CSV_HEADER], []
        for k in range(3000):
            lines.append(line(k, 2 + k % 2, 14))  # 22 or 24 bytes
            if k % 300 == 150:  # a length group of its own in this chunk
                bad = [f"{k}.5,1G0,1,00", f"{k}.5,1A0,1,00,caf\u00e9"][k // 300 % 2]
                offending.append(bad.replace(".5,", ".5" + "0" * (26 - len(bad.encode())) + ","))
                lines += [offending[-1], *(line(k + j, 4, 14) for j in range(3))]
        assert {len(x.encode()) for x in offending} == {26}
        shapes = {(len(x), x.index("."), x.index(",", x.index(",") + 1)) for x in lines[1:]}
        assert len(shapes) > 3 * len({len(x) for x in lines[1:]})
        path = tmp_path / "capture.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        spy = mock.MagicMock(wraps=frames.parse_csv_line)
        monkeypatch.setattr(frames, "parse_csv_line", spy)
        trace = load_trace(path, format="csv", strict=False)
        assert [c.args[0] for c in spy.call_args_list] == offending and len(offending) == 10
        assert len(trace) == 3000 + 3 * 10 + 5  # the five non-ASCII lines are valid
        for strict in (True, False):
            assert load_outcome(load_trace, path, format="csv", strict=strict) == load_outcome(
                reference_load_trace, path, format="csv", strict=strict
            )


def test_load_working_set_is_a_few_chunks(tmp_path):
    """A load's temporaries stay within a few chunks, whatever the file's size:
    tracemalloc's peak during load_trace, less what the trace holds after it."""
    n = 10 * frames.CHUNK_BYTES // 36
    path = tmp_path / "capture.log"
    path.write_text("".join(
        f"({k / 1000:.6f}) can0 {k % 7:X}{k % 5}0#{k * 7919:016X}\n" for k in range(n)
    ))
    assert path.stat().st_size > 8 * frames.CHUNK_BYTES
    tracemalloc.start()
    try:
        trace = load_trace(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == n
    assert peak - held < 8 * frames.CHUNK_BYTES


@pytest.mark.parametrize("strict", [True, False])
def test_long_line_load_peak(tmp_path, strict):
    """A one-line capture of 2 MiB, its payload valid hex far past 8 bytes: the
    load's tracemalloc peak stays within 16 times the line, strict or lenient,
    and a strict load's message stays short."""
    line = "(1.0) can0 123#" + "00" * (1 << 20)
    path = tmp_path / "capture.log"
    path.write_text(line + "\n")
    tracemalloc.start()
    try:
        if strict:
            with pytest.raises(ParseError, match="^payload of 1048576 bytes exceeds 8") as exc:
                load_trace(path)
            assert exc.value.line == line and len(str(exc.value)) < 200
        else:
            assert len(load_trace(path, strict=False)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * len(line)


@pytest.mark.parametrize("length", [79, 80, 81, 215])
def test_parse_error_quotes_at_most_80_characters(length):
    """The message quotes a line's first 80 characters and says how many it cut;
    `ParseError.line` keeps the whole line."""
    line = ("(1.0) can0 123#" + "0" * 200)[:length]
    with pytest.raises(ParseError) as exc:
        parse_candump_line(line, lineno=3)
    assert exc.value.line == line
    more = f" and {length - 80} more characters" if length > 80 else ""
    assert str(exc.value).endswith(f" (line 3): {line[:80]!r}{more}")


@pytest.mark.parametrize("parse, line, reason", [
    (parse_candump_line, f"(1.0) can0 {'F' * 100000}#00",
     f"arbitration id 0x{'F' * 100000} outside extended range"),
    (parse_csv_line, f"1.0,100,{'9' * 100000},00",
     f"dlc {'9' * 100000} does not match payload of 1 bytes"),
    (parse_candump_line, f"(1.0) can0 {'Z' * 2**20}#00", f"unparsable id '{'Z' * 2**20}'"),
], ids=["id-range", "csv-dlc-match", "unparsable-id"])
def test_parse_error_cuts_a_long_reason(parse, line, reason):
    """A reason that quotes a huge field is cut at 80 characters like the line;
    `ParseError.reason` keeps the whole reason."""
    with pytest.raises(ParseError) as exc:
        parse(line, lineno=3)
    assert exc.value.reason == reason
    assert str(exc.value) == (f"{reason[:80]} and {len(reason) - 80} more characters (line 3): "
                              f"{line[:80]!r} and {len(line) - 80} more characters")


class TestTemplatesAcrossChunks:
    """The loader guesses each layout's template once per load, and a template
    kept from an earlier chunk decodes only the lines the per-line parser
    reads the same: a layout first seen late, and first in a line that gives
    no template; lines with a kept layout's literals and one byte of the wrong
    class; and (CSV) a line whose dlc does not match its payload heading its
    length group, which a kept template must not stall on."""

    @staticmethod
    def _capture(fmt):
        """Lines of three layouts, the third only in the last chunks; the lines
        the per-line parser must see; and the number of layouts."""
        if fmt == "csv":
            layouts = ["1.{:06d},1A3,2,{:02X}00", "2.{:06d},1ABCDEF0,8,{:02X}00000000000000",
                       "3.{:06d},7FF,0,"]
            wrong = ["1.0000A1,1A3,2,0000", "1.000001,1A3,3,0000"]  # hex in the timestamp, dlc
            header = [frames.CSV_HEADER]
        else:
            layouts = ["(1.{:06d}) can0 1A3#{:02X}00", "(2.{:06d}) vcan1 1ABCDEF0#{:02X}0000",
                       "(3.{:06d}) can0 7FF#"]
            wrong = ["(1.0000A1) can0 1A3#0000", "(1.00000f) can0 1A3#0000"]
            header = []
        parsed = [layouts[2].format(0).replace("0000", "00A0", 1)]  # the late layout's shape
        lines = [*header, parsed[0]]
        for k in range(600):
            lines.append(layouts[k % 2].format(k, k % 256))
            if k % 50 == 25:  # a wrong line leads a cluster of its layout's lines
                parsed.append(wrong[k // 50 % 2])
                lines += [parsed[-1], *(layouts[0].format(k, j) for j in range(3))]
            if k >= 550 and k % 10 == 0:
                lines.append(layouts[2].format(k))
        return lines, parsed, len(layouts)

    @pytest.mark.parametrize("fmt", ["candump", "csv"])
    def test_one_guess_per_layout(self, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr(frames, "CHUNK_BYTES", 512)  # about 20 lines a chunk
        lines, parsed, layouts = self._capture(fmt)
        path = tmp_path / "capture"
        path.write_text("\n".join(lines) + "\n")
        assert path.stat().st_size > 30 * frames.CHUNK_BYTES
        for strict in (True, False):
            assert load_outcome(load_trace, path, format=fmt, strict=strict) == load_outcome(
                reference_load_trace, path, format=fmt, strict=strict
            )
        guess, guessed = frames._template, []

        def spy(line, format):
            template = guess(line, format)
            if template is not None:
                guessed.append(line)
            return template

        monkeypatch.setattr(frames, "_template", spy)
        name = "parse_csv_line" if fmt == "csv" else "parse_candump_line"
        parser = mock.MagicMock(wraps=getattr(frames, name))
        monkeypatch.setattr(frames, name, parser)
        assert len(load_trace(path, format=fmt, strict=False)) == 600 + 3 * 12 + 5
        assert len(guessed) == layouts, guessed
        assert [c.args[0] for c in parser.call_args_list] == parsed


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
        chunk = memoryview(f"{line}\n{line}\n".encode())
        cols = [np.empty(2, dtype) for dtype in (np.float64, np.uint32, np.uint8, np.uint64)]
        decoded, _ = frames._decode_chunk(chunk, fmt, cols, {}, {})
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

    def test_key_and_index_bits_beyond_64_raise(self):
        """2**31 + 1 frames need 32 index bits, and a 29-bit id 33 key bits. The
        columns are stand-ins of the right lengths that allocate nothing."""
        m = 2**31 + 1
        capture = SimpleNamespace(
            timestamps=np.broadcast_to(0.0, (m,)), ids=np.array([0x1FFFFFFF], np.uint32),
            dlcs=np.broadcast_to(np.uint8(8), (m,)), words=np.broadcast_to(np.uint64(0), (m,)),
        )
        with pytest.raises(AnalysisError, match="33-bit"):
            partition_by_id(capture)

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

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before CPython 3.11 the caller's frame keeps each argument for the whole call",
    )
    def test_only_reference_frees_capture_columns(self):
        """Handed the only reference, partition_by_id frees each column once it
        is done with it: its peak over the 21 bytes a frame held at the call
        (13 without timestamps) stays within 10 bytes a frame (the packed words
        or one gathered column, plus block temporaries), with standard and with
        extended ids. The groups then keep 16 bytes a frame, the gathered
        timestamps and words (8, the words, without timestamps), and under 1 KiB
        a group: with dlcs 1 to 8 too, because a group's words are a slice of
        the gathered words, not a copy."""
        m = 200_000
        for low, high, dlc, stamps in (
                (0, 0x800, 8, True), (0x18F00000 - 20, 0x18F00000 + 20, 8, True),
                (0x18F00000 - 20, 0x18F00000 + 20, 1, True), (0, 0x800, 8, False),
                (0x18F00000 - 20, 0x18F00000 + 20, 1, False)):
            rng = np.random.default_rng(7)
            tracemalloc.start()  # first: tracemalloc does not see frees of older blocks
            try:
                dlcs = rng.integers(dlc, 9, m).astype(np.uint8)
                traces = [Trace(
                    np.arange(m) * 0.001 if stamps else None,
                    rng.integers(low, high, m).astype(np.uint32), dlcs,
                    (rng.integers(0, 256, (m, 8), dtype=np.uint8)
                     * (np.arange(8) < dlcs[:, None])).view(np.uint64)[:, 0],
                )]
                del dlcs
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                groups = partition_by_id(traces.pop())
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert sum(map(len, groups.values())) == m
            assert (peak - held) / m <= 10, (hex(low), dlc, stamps)
            assert (kept - 1024 * len(groups)) / m <= 16, (hex(low), dlc, stamps)
            if not stamps:
                assert (kept - 1024 * len(groups)) / m <= 8, (hex(low), dlc)
                assert all(g.timestamps is None for g in groups.values())


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

    def test_write_candump_of_a_strided_words_column(self, tmp_path):
        """`write_candump` reads the payload words in place, also from a strided column."""
        payloads = np.arange(24, dtype=np.uint8).reshape(3, 8) * (np.arange(8) < [[8], [3], [0]])
        wide = np.zeros(6, np.uint64)
        wide[::2] = payloads.view(np.uint64)[:, 0]
        trace = Trace([1.0, 2.0, 3.0], [1, 0x7FF, 0x1ABCDEF0], [8, 3, 0], wide[::2])
        assert trace.words.strides == (16,)
        write_candump(trace, tmp_path / "out.log")
        reference_write_candump(trace, tmp_path / "ref.log")
        assert (tmp_path / "out.log").read_bytes() == (tmp_path / "ref.log").read_bytes()

    def test_id_digit_widths(self):
        assert reference_candump_line(CanFrame(1.0, 0x123, 0, b"")).split()[2] == "123#"
        assert (
            reference_candump_line(CanFrame(1.0, 0x1ABCDEF0, 0, b"")).split()[2]
            == "1ABCDEF0#"
        )


class TestEncoder:
    def test_decimal_field_matches_str(self):
        values = [*range(10**5), *(10**k + d for k in range(1, 20) for d in (-1, 0, 1)),
                  2**64 - 1]
        width = frames.decimal_width(max(values))
        lines = np.full((len(values), width + 1), ord("\n"), np.uint8)
        frames.decimal_field(np.array(values, dtype=np.uint64), lines[:, :-1])
        assert lines.tobytes().translate(None, b"\0") == "".join(
            f"{v}\n" for v in values
        ).encode()

    def test_tables_match_their_definitions(self):
        assert frames._DEC4[1].tobytes() == b"".join(b"%04d" % v for v in range(10**4))
        assert frames._DEC4[0].tobytes() == b"".join(
            (b"%d" % v if v else b"").rjust(4, b"\0") for v in range(10**4)
        )
        assert frames._HEX2.tobytes() == b"".join(b"%02X" % v for v in range(256))
        assert frames._ID_KEEP.tobytes() == b"\0" * 5 + b"\xff" * 11
        assert frames._DLC_KEEP.tobytes() == b"".join(
            (b"\xff" * 2 * dlc).ljust(16, b"\0") for dlc in range(9)
        )
        assert frames._DOT2.tobytes() == b"".join(b"\0.%02d" % v for v in range(100))

    def test_tables_stay_small(self):
        """Every array the module builds at import, together, fits in 128 KiB."""
        tables = [a for a in vars(frames).values() if isinstance(a, np.ndarray)]
        assert any(a is frames._DEC4 for a in tables)
        assert sum(a.nbytes for a in tables) <= 128 * 1024


def test_trace_validate():
    good = make_trace((CanFrame(1.0, 1, 0, b""), CanFrame(1.0, 1, 0, b"")))
    good.validate()
    bad = make_trace((CanFrame(2.0, 1, 0, b""), CanFrame(1.0, 1, 0, b"")))
    with pytest.raises(AnalysisError):
        bad.validate()
