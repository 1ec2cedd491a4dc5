"""Randomized invariants for the analysis chain."""

import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantok import (
    SignalSeries,
    Tang,
    TokenizerConfig,
    Trace,
    load_trace,
    parse_candump_line,
    partition_by_id,
    summarize,
    tokenize,
    write_candump,
)
from cantok import frames
from cantok.frames import CSV_HEADER, CanFrame
from cantok.bitlab import (
    build_bit_matrix, export_tang_csv, read_field, tang_from_idtrace, write_field,
)
from cantok.signals import export_series_csv
from cantok.tokenizer import tokenization_from_dict, tokenization_to_dict

from .conftest import (
    bits_of, load_outcome, make_idtrace, make_trace, naive_summary, naive_tang_counts,
    reference_candump_line, reference_load_trace, reference_series_csv, reference_tang_csv,
    reference_write_candump,
)
from .test_signals import signal

counts_st = st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=64)
endian_st = st.sampled_from(["big", "little"])
mode_st = st.sampled_from(["exclude", "strict"])
threshold_st = st.integers(min_value=0, max_value=5)

payloads_st = st.integers(min_value=1, max_value=8).flatmap(
    lambda dlc: st.lists(
        st.binary(min_size=dlc, max_size=dlc), min_size=2, max_size=64
    )
)


def as_tang(counts):
    return Tang(
        counts=np.asarray(counts, dtype=np.int64),
        observations=max(counts) + 1,
        arbitration_id=0x100,
    )


@given(counts_st, endian_st, mode_st, threshold_st)
@settings(max_examples=300, deadline=None)
def test_partition_and_disjointness(counts, endianness, mode, threshold):
    tok = tokenize(
        as_tang(counts),
        TokenizerConfig(endianness=endianness, threshold=threshold, padding_mode=mode),
    )
    seen = sorted(p for c in tok.clusters for p in c.positions)
    assert seen == list(range(len(counts)))


@given(counts_st, endian_st)
@settings(max_examples=300, deadline=None)
def test_gradient_and_padding_purity(counts, endianness):
    tok = tokenize(as_tang(counts), TokenizerConfig(endianness=endianness))
    for c in tok.clusters:
        if c.kind == "padding":
            assert all(counts[p] == 0 for p in c.positions)
            continue
        assert all(counts[p] > 0 for p in c.positions)
        step = -1 if c.lsb_index == c.hi else 1
        walk = list(range(c.lsb_index, c.msb_index + step, step))
        for a, b in zip(walk, walk[1:]):
            assert counts[b] <= counts[a]


@given(counts_st, endian_st, mode_st, threshold_st)
@settings(max_examples=200, deadline=None)
def test_determinism(counts, endianness, mode, threshold):
    cfg = TokenizerConfig(endianness=endianness, threshold=threshold, padding_mode=mode)
    assert tokenize(as_tang(counts), cfg) == tokenize(as_tang(counts), cfg)


@given(counts_st, endian_st, mode_st, threshold_st)
@settings(max_examples=300, deadline=None)
def test_endianness_mirror(counts, endianness, mode, threshold):
    n = len(counts)
    other = "little" if endianness == "big" else "big"
    fwd = tokenize(
        as_tang(counts),
        TokenizerConfig(endianness=endianness, threshold=threshold, padding_mode=mode),
    )
    rev = tokenize(
        as_tang(counts[::-1]),
        TokenizerConfig(endianness=other, threshold=threshold, padding_mode=mode),
    )

    def mirrored(c):
        lsb = None if c.lsb_index is None else n - 1 - c.lsb_index
        msb = None if c.msb_index is None else n - 1 - c.msb_index
        return (c.kind, n - 1 - c.hi, n - 1 - c.lo, lsb, msb)

    assert sorted(mirrored(c) for c in fwd.clusters) == sorted(
        (c.kind, c.lo, c.hi, c.lsb_index, c.msb_index) for c in rev.clusters
    )


@given(counts_st, endian_st)
@settings(max_examples=200, deadline=None)
def test_greedy_seed_holds_global_max(counts, endianness):
    if max(counts) == 0:
        return
    tok = tokenize(as_tang(counts), TokenizerConfig(endianness=endianness))
    lsb_counts = [counts[c.lsb_index] for c in tok.signal_clusters]
    assert max(counts) in lsb_counts


@given(payloads_st)
@settings(max_examples=300, deadline=None)
def test_tang_matches_naive_double_loop(payloads):
    tang = tang_from_idtrace(make_idtrace([list(p) for p in payloads]))
    assert tang.counts.tolist() == naive_tang_counts(payloads)


frame_st = st.builds(
    lambda ts_us, arb_id, payload: CanFrame(
        ts_us / 1e6, arb_id, len(payload), payload
    ),
    st.integers(min_value=0, max_value=2 * 10**15),
    st.integers(min_value=0, max_value=0x1FFFFFFF),
    st.binary(min_size=0, max_size=8),
)


@given(frame_st)
@settings(max_examples=200, deadline=None)
def test_candump_round_trip(frame):
    back = parse_candump_line(reference_candump_line(frame))
    assert abs(back.timestamp - frame.timestamp) < 1e-6
    assert (back.arbitration_id, back.dlc, back.payload) == (
        frame.arbitration_id,
        frame.dlc,
        frame.payload,
    )


@st.composite
def field_st(draw, bit_width):
    """(lsb, msb) of a field inside `bit_width` positions, in either bit order."""
    lo = draw(st.integers(min_value=0, max_value=bit_width - 1))
    hi = draw(st.integers(min_value=lo, max_value=bit_width - 1))
    return (hi, lo) if draw(endian_st) == "big" else (lo, hi)


@given(field_st(64), st.data())
@settings(max_examples=300, deadline=None)
def test_write_then_read_field_is_identity(field, data):
    # words -> write_field -> the same words' bytes unpacked -> read_field
    lsb, msb = field
    m = data.draw(st.integers(min_value=1, max_value=16))
    words_st = st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=m, max_size=m)
    before, values = data.draw(words_st), data.draw(words_st)
    words = np.array(before, dtype=np.uint64)
    write_field(words, lsb, msb, np.array(values, dtype=np.uint64))
    bits = np.unpackbits(words[:, None].view(np.uint8), axis=1)
    width = abs(msb - lsb) + 1
    assert read_field(bits, lsb, msb).tolist() == [v % 2**width for v in values]
    outside = [p for p in range(64) if not min(lsb, msb) <= p <= max(lsb, msb)]
    old_bits = np.unpackbits(np.array(before, dtype=np.uint64)[:, None].view(np.uint8), axis=1)
    assert (bits[:, outside] == old_bits[:, outside]).all()


@given(payloads_st, st.data())
@settings(max_examples=300, deadline=None)
def test_read_field_matches_scalar_oracle(payloads, data):
    lsb, msb = data.draw(field_st(len(payloads[0]) * 8))
    bits = build_bit_matrix(make_idtrace([list(p) for p in payloads]).words, len(payloads[0]))
    expected = [
        sum(row[p] << abs(p - lsb) for p in range(min(lsb, msb), max(lsb, msb) + 1))
        for row in map(bits_of, payloads)
    ]
    assert read_field(bits, lsb, msb).tolist() == expected


@given(counts_st, endian_st, mode_st, threshold_st)
@settings(max_examples=200, deadline=None)
def test_tokenization_dict_round_trip(counts, endianness, mode, threshold):
    tok = tokenize(
        as_tang(counts),
        TokenizerConfig(endianness=endianness, threshold=threshold, padding_mode=mode),
    )
    data = json.loads(json.dumps(tokenization_to_dict(tok)))
    assert tokenization_from_dict(data) == tok


@st.composite
def capture_st(draw, id_max=0x1FFFFFFF):
    """Frames in time order over a few (id, dlc) keys, with ids up to `id_max`.

    The keys always include one low id under two dlcs, a high id with
    dlc 0 and a few random keys, so groups repeat, mix widths, hold empty
    payloads and sometimes hold a single frame.
    """
    low = draw(st.integers(min_value=0, max_value=min(id_max, 0x7FF)))
    high = draw(st.integers(min_value=min(id_max, 0x800), max_value=id_max))
    dlc = draw(st.integers(min_value=0, max_value=8))
    keys = [(low, dlc), (low, (dlc + 1) % 9), (high, 0)] + draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=id_max),
                  st.integers(min_value=0, max_value=8)),
        max_size=3))
    picks = draw(st.lists(st.sampled_from(keys), max_size=40))
    ts_us = draw(st.integers(min_value=0, max_value=2 * 10**15))
    frames = []
    for arb_id, dlc in picks:
        ts_us += draw(st.integers(min_value=0, max_value=10**6))
        payload = draw(st.binary(min_size=dlc, max_size=dlc))
        frames.append(CanFrame(ts_us / 1e6, arb_id, dlc, payload))
    return frames


def _edge_frames(*keys):
    return [CanFrame(k * 0.01, arb_id, dlc, bytes(range(k, k + dlc)))
            for k, (arb_id, dlc) in enumerate(keys)]


# The partition sorts one word a frame, ((id << 4) | dlc) << b | frame index,
# so the drawn ids (up to 4, 11, 12 and 29 bits) give keys of 8 to 33 bits.
# It reads the sorted words and gathers the columns in blocks of
# BLOCK_ROWS rows; each capture is also partitioned in blocks of 1, 2
# and 3 rows, so that groups straddle block edges. The first two examples
# put keys on both sides of 0x10000; in the third, one key spans three
# blocks of 3 rows (sorted rows 0-7); in the fourth, a new key starts on
# sorted row 6, an edge for blocks of 1, 2 and 3 rows.
@given(st.one_of(capture_st(0xF), capture_st(0x7FF), capture_st(0xFFF), capture_st()))
@example(_edge_frames((0xFFF, 8), (0x1000, 0), (0xFFF, 8), (0xFFF, 7), (0x1000, 0)))
@example(_edge_frames((0xFFF, 8), (0xFFE, 8), (0xFFF, 8), (0, 0), (0xFFF, 8)))
@example(_edge_frames((0x200, 4), *[(0x100, 2)] * 8, (0x200, 4)))
@example(_edge_frames(*[(0x1ABCDEF0, 8), (0x7FF, 0)] * 6))
@settings(max_examples=300, deadline=None)
def test_partition_matches_per_frame_filter(capture):
    for rows in (frames.BLOCK_ROWS, 1, 2, 3):
        with mock.patch.object(frames, "BLOCK_ROWS", rows):
            trace = make_trace(capture)
            assert list(trace.frames) == capture
            groups = partition_by_id(trace)
            assert list(groups) == sorted({(f.arbitration_id, f.dlc) for f in capture})
            # a strided words column partitions like its contiguous copy
            wide = np.zeros(2 * len(trace), np.uint64)
            wide[::2] = trace.words
            strided = partition_by_id(Trace(trace.timestamps, trace.ids, trace.dlcs, wide[::2]))
            assert list(strided) == list(groups)
            for g, h in zip(groups.values(), strided.values()):
                assert g.timestamps.tobytes() == h.timestamps.tobytes()
                assert g.payloads.tobytes() == h.payloads.tobytes()
            for (arb_id, dlc), g in groups.items():
                expected = [f for f in capture if (f.arbitration_id, f.dlc) == (arb_id, dlc)]
                assert (g.arbitration_id, g.dlc) == (arb_id, dlc)
                assert g.payloads.shape == (len(expected), dlc)
                assert g.timestamps.tolist() == [f.timestamp for f in expected]
                assert [row.tobytes() for row in g.payloads] == [f.payload for f in expected]
                assert g.words.tobytes() == b"".join(f.payload.ljust(8, b"\0") for f in expected)


@given(capture_st())
@settings(max_examples=200, deadline=None)
def test_write_then_load_keeps_columns(frames):
    trace = make_trace(frames)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "capture.log"
        write_candump(trace, path)
        back = load_trace(path)
    for name in ("timestamps", "ids", "dlcs", "words"):
        assert np.array_equal(getattr(back, name), getattr(trace, name)), name
        assert getattr(back, name).dtype == getattr(trace, name).dtype, name


# Values on both sides of 2**16, below which summarize counts unique values
# in a table instead of sorting them.
@given(st.lists(st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**16 + 2), st.sampled_from([0, 2**16 - 1, 2**16]),
), min_size=1, max_size=64))
@example([0])
@example([2**16 - 1, 0, 2**16 - 1])
@example([2**16])
@example([0, 2**16, 2**16 - 1, 2**16])
@settings(max_examples=500, deadline=None)
def test_summarize_matches_python_int_reference(values):
    series = SignalSeries(
        0x100, signal(0, 63), np.array(values, dtype=np.uint64), np.zeros(len(values))
    )
    s = summarize(series)
    assert (
        s.minimum, s.maximum, s.unique_value_count,
        s.value_transition_count, s.mean_abs_first_difference,
    ) == naive_summary(values)


# Capture lines for the loader differential test: well-formed lines in
# every shape the columnar path decodes, some with one or two parts swapped
# for variants it must hand to the per-line parser, mixed with blank,
# comment, header and junk lines.
_ts_st = st.from_regex(r"[0-9]{1,10}\.[0-9]{1,7}", fullmatch=True)
_id_st = st.one_of(
    st.from_regex(r"[0-9A-Fa-f]{3}", fullmatch=True),
    st.from_regex(r"[01][0-9A-Fa-f]{7}", fullmatch=True),
)
_hex_st = st.tuples(st.binary(max_size=8), st.sampled_from([str.upper, str.lower])).map(
    lambda p: p[1](p[0].hex())
)
_ODD = {
    "ts": st.one_of(
        st.from_regex(r"1[0-9]{9}\.[0-9]{6,8}", fullmatch=True),  # epoch stamps, 16-18 digits
        st.sampled_from(["5", "1.", ".5", "-1.5", "+2.0", "1e3", "1_0.5", "nan", "1..2", ""]),
    ),
    "id": st.one_of(
        st.from_regex(r"[0-9A-Fa-f]{1,9}", fullmatch=True),
        st.from_regex(r"[2-9A-Fa-f][0-9A-Fa-f]{7}", fullmatch=True),  # beyond 29 bits
        st.sampled_from(["0x123", "0X1abcdef0", "ZZZ", "", "+12", "1_2", " 7FF"]),
        st.just("20000080"),  # CAN_ERR_FLAG set: an error frame if it has 8 data bytes
    ),
    # a remote frame (RTR) with and without its length, and a CAN FD frame after `#`
    "hex": st.sampled_from(["ABC", "00" * 9, "0G", "A B", "AA,BB", "R", "R5", "#1AABB"]),
    "sep": st.sampled_from(["  ", "\t", " \t", "\u00a0"]),
    "lead": st.sampled_from([" ", "\t", "\x0c"]),
    "trail": st.sampled_from([" ", "\t", ",extra"]),
    "dlc": st.sampled_from(["9", "08", "x", "", "1"]),
    "iface": st.sampled_from(["ca\tn0", "can0\x0b", "c#n", "c(n)", "ca\u00f10", "ca\u00a0n0"]),
    "open": st.sampled_from(["[", "", "(("]),
    "close": st.sampled_from(["]", "", "))"]),
}
_other_st = st.one_of(
    st.sampled_from(["", "", "   ", "# comment", "# comment", "#(1.0) can0 100#01", CSV_HEADER,
                     CSV_HEADER, " timestamp, id,dlc,payload_hex ", "# caf\u00e9",
                     "# \u65e5\u672c", "\u00a0", "# a\rb"]),
    st.text(alphabet="(0.1x )#AZ,\t", max_size=20),
)


@st.composite
def _capture_line(draw, fmt, width=0):
    """A capture line; one shorter than `width` gets leading timestamp zeros to fill it."""
    part = {"ts": draw(_ts_st), "id": draw(_id_st), "hex": draw(_hex_st),
            "sep": " " if fmt == "candump" else ",", "lead": "", "trail": "",
            "iface": "can0", "open": "(", "close": ")"}
    part["dlc"] = str(len(part["hex"]) // 2)
    n_odd = draw(st.sampled_from([0, 0, 0, 1, 2]))
    for key in draw(st.lists(st.sampled_from(sorted(_ODD)), min_size=n_odd, max_size=n_odd)):
        part[key] = draw(_ODD[key])

    def text():
        if fmt == "candump":
            body = (f"{part['open']}{part['ts']}{part['close']}{part['sep']}{part['iface']} "
                    f"{part['id']}#{part['hex']}")
        else:
            body = ",".join((part["ts"], part["id"], part["dlc"], part["hex"]))
        return part["lead"] + body + part["trail"]

    part["ts"] = "0" * (width - len(text())) + part["ts"]
    return text()


@st.composite
def _same_length_lines(draw, fmt):
    """Capture lines mostly of one length, in several shapes: their timestamp,
    id and payload widths differ, so their separators sit at different offsets.
    A copy of the first with one byte swapped may have its shape and still be bad."""
    width = draw(st.integers(min_value=12, max_value=44))
    lines = draw(st.lists(_capture_line(fmt, width), min_size=2, max_size=6))
    k = draw(st.integers(min_value=0, max_value=len(lines[0]) - 1))
    return [*lines, lines[0][:k] + draw(st.sampled_from("09aFGx() \t#.,")) + lines[0][k + 1 :]]


@st.composite
def _any_line(draw, fmt):
    """A capture line four times in five, else a blank, comment, header or junk line;
    one time in ten, followed by a lone CR and another capture line."""
    line = draw(_capture_line(fmt) if draw(st.sampled_from([False] + [True] * 4)) else _other_st)
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        line += "\r" + draw(_capture_line(fmt))
    return line


@given(
    st.data(),
    st.sampled_from(["candump", "csv"]),
    st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]),
    st.booleans(),
    st.sampled_from([1, 7, 64, 1 << 16, frames.CHUNK_BYTES]),
)
@settings(max_examples=400, deadline=None)
def test_load_trace_matches_per_line_reference(data, fmt, newline, final_newline, chunk_bytes):
    lines = data.draw(st.lists(_any_line(fmt), max_size=40))
    for block in data.draw(st.lists(_same_length_lines(fmt), max_size=2)):
        at = data.draw(st.integers(min_value=0, max_value=len(lines)))
        lines[at:at] = block
    text = newline.join(lines) + (newline if final_newline and lines else "")
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        frames, "CHUNK_BYTES", chunk_bytes
    ):
        path = Path(tmp) / "capture"
        path.write_bytes(text.encode())
        for strict in (True, False):
            assert load_outcome(load_trace, path, format=fmt, strict=strict) == load_outcome(
                reference_load_trace, path, format=fmt, strict=strict
            )


@given(
    st.data(),
    st.sampled_from(["candump", "csv"]),
    st.sampled_from(["\n"] * 4 + ["\r\n", "\r"]),
    st.sampled_from([1, 7, 64, frames.CHUNK_BYTES]),
)
@settings(max_examples=200, deadline=None)
def test_load_without_timestamps_matches_default(data, fmt, newline, chunk_bytes):
    """``timestamps=False`` loads the same ids, dlcs and words as the default,
    with the same skip and backward-step warnings and strict ParseError."""
    lines = data.draw(st.lists(_any_line(fmt), max_size=40))
    for block in data.draw(st.lists(_same_length_lines(fmt), max_size=2)):
        at = data.draw(st.integers(min_value=0, max_value=len(lines)))
        lines[at:at] = block
    payload_columns = ("ids", "dlcs", "words")
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        frames, "CHUNK_BYTES", chunk_bytes
    ):
        path = Path(tmp) / "capture"
        path.write_bytes(newline.join(lines).encode())
        for strict in (True, False):
            outcome = load_outcome(
                load_trace, path, payload_columns, "", format=fmt, strict=strict)
            assert outcome == load_outcome(
                load_trace, path, payload_columns, "", format=fmt, strict=strict,
                timestamps=False)


@st.composite
def _one_length_capture(draw, fmt):
    """(text, line bytes with end) of capture lines all of one length, each
    ending in LF or each in CR LF, with at most one of: an LF or CR in place
    of a byte of a line; one line a byte longer and the next a byte shorter,
    so the capture's size does not change; a final line with no end. In CR LF
    text also: one line ending in LF only, or in a lone CR; one line's CR
    moved into it, so the chunk's CR and LF counts do not change."""
    first = draw(_capture_line(fmt))
    width = len(first.encode())
    more = draw(st.lists(_capture_line(fmt, width), min_size=1, max_size=12))
    lines = [first, *(line for line in more if len(line.encode()) == width)]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [newline] * len(lines)
    case = draw(st.sampled_from(["none", "none", "end-in-line", "longer-shorter", "no-final-lf"]
                                + ["lf-only", "lone-cr", "moved-cr"] * (newline == "\r\n")))
    k = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    at = draw(st.integers(min_value=0, max_value=len(lines[k]) - 1))
    if case == "end-in-line":
        lines[k] = lines[k][:at] + draw(st.sampled_from("\n\r")) + lines[k][at + 1 :]
    elif case == "longer-shorter" and k + 1 < len(lines):
        lines[k] = lines[k][:at] + draw(st.sampled_from("0.A ")) + lines[k][at:]
        cut = draw(st.integers(min_value=0, max_value=len(lines[k + 1]) - 1))
        lines[k + 1] = lines[k + 1][:cut] + lines[k + 1][cut + 1 :]
    elif case == "lf-only":  # a 0 in place of its CR
        ends[k] = "0\n"
    elif case == "lone-cr":
        ends[k] = "\r"
    elif case == "moved-cr":
        lines[k], ends[k] = lines[k][:at] + "\r" + lines[k][at + 1 :], "0\n"
    text = "".join(map(str.__add__, lines, ends))
    return (text.removesuffix(ends[-1]) if case == "no-final-lf" else text), width + len(newline)


@given(st.data(), st.sampled_from(["candump", "csv"]), st.integers(min_value=1, max_value=4))
@settings(max_examples=200, deadline=None)
def test_one_length_chunks_match_per_line_reference(data, fmt, lines_per_chunk):
    """Chunks of whole LF lines of one length are decoded as one row matrix; a
    chunk that only looks like one (same size, another LF or CR count) is not,
    nor is a chunk of CR LF lines, with or without one line ending otherwise."""
    text, line_bytes = data.draw(_one_length_capture(fmt))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        frames, "CHUNK_BYTES", lines_per_chunk * line_bytes
    ):
        path = Path(tmp) / "capture"
        path.write_bytes(text.encode())
        for strict in (True, False):
            assert load_outcome(load_trace, path, format=fmt, strict=strict) == load_outcome(
                reference_load_trace, path, format=fmt, strict=strict
            )


# Values for the writer differential tests: sixth-decimal ties and
# near-ties, carries into the integer part, epoch-scale stamps, the edges
# of the encoder's groups of 4 digits, and the values it hands to the
# f-string (negative, non-finite, >= 2**53).
_stamp_st = st.one_of(
    st.sampled_from([
        0.0, -0.0, 5e-7, 2.5e-6, 0.9999995, 0.9999998, 1e9 + 0.9999999, 2.0**53 - 1,
        2.0**53, 1e300, -1.5, math.nan, math.inf, -math.inf,
        9999.0, 1e4, 1e8 - 1, 1e8, 1e16, float(10**19 - 1),
    ]),
    st.integers(min_value=0, max_value=10**6).map(lambda k: (k + 0.5) / 1e6),
    st.integers(min_value=0, max_value=2 * 10**9).map(lambda k: k + 0.0000005),
    st.integers(min_value=10**15, max_value=2 * 10**15).map(lambda us: us / 1e6),
    st.floats(min_value=1e9, max_value=2e9),
    st.floats(),
)
_value_st = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from([
        0, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, 10**16, 10**19 - 1, 10**19, 2**64 - 1,
    ]),
)
_id_any_st = st.one_of(
    st.integers(min_value=0, max_value=0x1FFFFFFF), st.sampled_from([0, 0x7FF, 0x800, 0x1FFFFFFF])
)
_block_st = st.sampled_from([1, 2, 3, frames.BLOCK_ROWS])  # rows per block the encoder writes


def _written(writer, obj, block):
    """The bytes `writer(obj, path)` leaves in a file, with BLOCK_ROWS at `block`."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(frames, "BLOCK_ROWS", block):
        path = Path(tmp) / "out"
        writer(obj, path)
        return path.read_bytes()


@given(st.lists(st.tuples(_stamp_st, _value_st), max_size=12), _block_st)
@settings(max_examples=500, deadline=None)
def test_series_csv_matches_per_row_reference(rows, block):
    series = SignalSeries(
        0x100, signal(0, 63), np.array([v for _, v in rows], dtype=np.uint64),
        np.array([t for t, _ in rows], dtype=np.float64),
    )
    assert _written(lambda s, path: export_series_csv([s], [path]), series, block) == _written(
        reference_series_csv, series, block
    )


@given(st.data(), st.lists(_stamp_st, max_size=12), _block_st)
@settings(max_examples=300, deadline=None)
def test_group_series_csv_matches_per_row_reference(data, stamps, block):
    """0-4 series of widths 1-64 sharing one timestamps array, file by file."""
    timestamps = np.array(stamps, dtype=np.float64)
    series = []
    for width in data.draw(st.lists(st.integers(min_value=1, max_value=64), max_size=4)):
        top = 2**width - 1
        value_st = st.one_of(st.integers(min_value=0, max_value=top), st.sampled_from([0, top]))
        values = data.draw(st.lists(value_st, min_size=len(stamps), max_size=len(stamps)))
        series.append(SignalSeries(
            0x100, signal(0, width - 1), np.array(values, dtype=np.uint64), timestamps
        ))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(frames, "BLOCK_ROWS", block):
        out, ref = Path(tmp) / "out", Path(tmp) / "ref"
        out.mkdir()
        ref.mkdir()
        names = [f"s{k}.csv" for k in range(len(series))]
        export_series_csv(series, [out / name for name in names])
        assert sorted(p.name for p in out.iterdir()) == names
        for s, name in zip(series, names):
            reference_series_csv(s, ref / name)
            assert (out / name).read_bytes() == (ref / name).read_bytes()


# Sequential frame pairs of a group: count / 2e6 lies on a 7th-decimal tie for every odd
# count, and count / (2e6 ± 1) next to one, so fixed6_field hands those rows to its f-string.
_PAIRS = [2 * 10**6 - 1, 2 * 10**6, 2 * 10**6 + 1, 10**8, 2 * 10**8, 2**40]


@st.composite
def _tang_st(draw):
    """A Tang of dlc 1-8 whose counts cross the 4-digit groups at 10**4 and 10**8."""
    dlc = draw(st.integers(min_value=1, max_value=8))
    pairs = draw(st.one_of(st.integers(min_value=1, max_value=300), st.sampled_from(_PAIRS)))
    count_st = st.one_of(
        st.integers(min_value=0, max_value=pairs),
        st.sampled_from([1, 3, 9999, 10**4, 10**8 - 1, 10**8]).map(lambda c: min(c, pairs)),
    )
    counts = draw(st.lists(count_st, min_size=8 * dlc, max_size=8 * dlc))
    return Tang(np.array(counts, dtype=np.int64), pairs + 1, 0x100)


@pytest.mark.parametrize("offset", [0, 3], ids=["block-ends-with-a-group", "block-ends-inside"])
@given(st.lists(_tang_st(), max_size=6), st.integers(min_value=0, max_value=5))
@example(tangs=[], pick=0)
@example(  # dlc 1 then 2; 100 / 2e8 and 300 / 2e8 are ties
    tangs=[Tang(np.array([0, 1, 100, 300, 9999, 10**4, 10**8, 2 * 10**8]), 2 * 10**8 + 1, 1),
           Tang(np.arange(16) * 125_000, 2 * 10**6 + 1, 2)], pick=0,
)
@settings(max_examples=200, deadline=None)
def test_tang_csv_matches_per_row_reference(offset, tangs, pick):
    """0-6 groups' TANG files in one call, file by file. The encoder's block ends `offset`
    rows before the end of a picked group: with it, or inside it (every group has 8+ rows)."""
    ends = np.cumsum([t.bit_width for t in tangs]).tolist()
    block = ends[pick % len(ends)] - offset if tangs else 1
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(frames, "BLOCK_ROWS", block):
        out, ref = Path(tmp) / "out", Path(tmp) / "ref"
        out.mkdir()
        ref.mkdir()
        names = [f"g{k}_tang.csv" for k in range(len(tangs))]
        export_tang_csv(tangs, [out / name for name in names])
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        for t, name in zip(tangs, names):
            reference_tang_csv(t.counts.tolist(), t.observations - 1, ref / name)
            assert (out / name).read_bytes() == (ref / name).read_bytes()


# (timestamp, value, id, payload): rows whose fields take the most bytes (f-string stamps,
# a 20-digit value, an extended id, dlc 8) and rows whose fields take the fewest
_WIDE_ROWS = [
    (1e300, 2**64 - 1, 0x1ABCDEF0, bytes(range(8))), (2.0**53, 10**19, 0x1FFFFFFF, b"\xff" * 8),
]
_NARROW_ROWS = [(0.0, 0, 0x1, b""), (0.0, 0, 0x1, b"\x01\x02\x03")]


@pytest.mark.parametrize("block", [1, 2])
@pytest.mark.parametrize(
    "rows", [_WIDE_ROWS + _NARROW_ROWS, _NARROW_ROWS + _WIDE_ROWS], ids=["wide", "narrow"]
)
def test_writers_leave_no_bytes_of_an_earlier_block(rows, block):
    """Each writer reuses one line matrix: a block of narrow rows after wide ones keeps none of
    their bytes, and wide rows after narrow ones are whole."""
    trace = make_trace([CanFrame(ts, arb_id, len(p), p) for ts, _, arb_id, p in rows])
    assert _written(write_candump, trace, block) == _written(reference_write_candump, trace, block)
    stamps = np.array([row[0] for row in rows])
    values = np.array([row[1] for row in rows], dtype=np.uint64)
    series = [SignalSeries(0x100, signal(0, 63), v, stamps) for v in (values, values % 10)]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(frames, "BLOCK_ROWS", block):
        paths = [Path(tmp) / f"s{k}.csv" for k in range(len(series))]
        export_series_csv(series, paths)
        for s, path in zip(series, paths):
            reference_series_csv(s, Path(tmp) / "ref.csv")
            assert path.read_bytes() == (Path(tmp) / "ref.csv").read_bytes()


@given(st.lists(st.tuples(_stamp_st, _id_any_st, st.binary(max_size=8)), max_size=12), _block_st)
@settings(max_examples=500, deadline=None)
def test_write_candump_matches_per_row_reference(rows, block):
    trace = make_trace([CanFrame(ts, arb_id, len(p), p) for ts, arb_id, p in rows])
    assert _written(write_candump, trace, block) == _written(reference_write_candump, trace, block)
