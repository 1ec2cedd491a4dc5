"""Randomized invariants for the analysis chain."""

import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
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
    build_bit_matrix, payload_bytes, read_field, tang_from_idtrace, write_field,
)
from cantok.signals import export_series_csv
from cantok.tokenizer import tokenization_from_dict, tokenization_to_dict

from .conftest import (
    bits_of, load_outcome, make_idtrace, make_trace, naive_summary, naive_tang_counts,
    reference_candump_line, reference_load_trace, reference_series_csv, reference_write_candump,
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
    # words -> write_field -> big-endian bytes -> unpackbits -> read_field
    lsb, msb = field
    m = data.draw(st.integers(min_value=1, max_value=16))
    words_st = st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=m, max_size=m)
    before, values = data.draw(words_st), data.draw(words_st)
    words = np.array(before, dtype=np.uint64)
    write_field(words, lsb, msb, np.array(values, dtype=np.uint64))
    bits = np.unpackbits(payload_bytes(words), axis=1)
    width = abs(msb - lsb) + 1
    assert read_field(bits, lsb, msb).tolist() == [v % 2**width for v in values]
    outside = [p for p in range(64) if not min(lsb, msb) <= p <= max(lsb, msb)]
    old_bits = np.unpackbits(payload_bytes(np.array(before, dtype=np.uint64)), axis=1)
    assert (bits[:, outside] == old_bits[:, outside]).all()


@given(payloads_st, st.data())
@settings(max_examples=300, deadline=None)
def test_read_field_matches_scalar_oracle(payloads, data):
    lsb, msb = data.draw(field_st(len(payloads[0]) * 8))
    bits = build_bit_matrix(make_idtrace([list(p) for p in payloads]))
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
# PARTITION_ROWS rows; each capture is also partitioned in blocks of 1, 2
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
    for rows in (frames.PARTITION_ROWS, 1, 2, 3):
        with mock.patch.object(frames, "PARTITION_ROWS", rows):
            trace = make_trace(capture)
            assert list(trace.frames) == capture
            groups = partition_by_id(trace)
            assert list(groups) == sorted({(f.arbitration_id, f.dlc) for f in capture})
            # a strided payload column partitions like its contiguous copy
            wide = np.zeros((len(trace), 16), np.uint8)
            wide[:, ::2] = trace.payloads
            strided = partition_by_id(Trace(trace.timestamps, trace.ids, trace.dlcs, wide[:, ::2]))
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


@given(capture_st())
@settings(max_examples=200, deadline=None)
def test_write_then_load_keeps_columns(frames):
    trace = make_trace(frames)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "capture.log"
        write_candump(trace, path)
        back = load_trace(path)
    for name in ("timestamps", "ids", "dlcs", "payloads"):
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
_block_st = st.sampled_from([1, 2, 3, 1 << 16])  # rows per block the encoder writes


def _written(writer, obj, block):
    """The bytes `writer(obj, path)` leaves in a file, with ENCODE_ROWS at `block`."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(frames, "ENCODE_ROWS", block):
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
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(frames, "ENCODE_ROWS", block):
        out, ref = Path(tmp) / "out", Path(tmp) / "ref"
        out.mkdir()
        ref.mkdir()
        names = [f"s{k}.csv" for k in range(len(series))]
        export_series_csv(series, [out / name for name in names])
        assert sorted(p.name for p in out.iterdir()) == names
        for s, name in zip(series, names):
            reference_series_csv(s, ref / name)
            assert (out / name).read_bytes() == (ref / name).read_bytes()


@given(st.lists(st.tuples(_stamp_st, _id_any_st, st.binary(max_size=8)), max_size=12), _block_st)
@settings(max_examples=500, deadline=None)
def test_write_candump_matches_per_row_reference(rows, block):
    trace = make_trace([CanFrame(ts, arb_id, len(p), p) for ts, arb_id, p in rows])
    assert _written(write_candump, trace, block) == _written(reference_write_candump, trace, block)
