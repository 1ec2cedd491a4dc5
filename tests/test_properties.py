"""Randomized invariants for the analysis chain."""

import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cantok import (
    SignalSeries,
    Tang,
    TokenizerConfig,
    load_trace,
    parse_candump_line,
    partition_by_id,
    summarize,
    tokenize,
    write_candump,
)
from cantok import frames
from cantok.frames import CSV_HEADER, format_candump_line, CanFrame
from cantok.bitlab import build_bit_matrix, read_field, tang_from_idtrace, write_field
from cantok.tokenizer import tokenization_from_dict, tokenization_to_dict

from .conftest import (
    bits_of, load_outcome, make_idtrace, make_trace, naive_summary, naive_tang_counts,
    reference_load_trace,
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
    back = parse_candump_line(format_candump_line(frame))
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


@given(st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.tuples(st.just(n), field_st(n))), st.data())
@settings(max_examples=300, deadline=None)
def test_write_then_read_field_is_identity(shape, data):
    n, (lsb, msb) = shape
    width = abs(msb - lsb) + 1
    values = data.draw(st.lists(
        st.integers(min_value=0, max_value=2**width - 1), min_size=1, max_size=16))
    bits = np.zeros((len(values), n), dtype=np.uint8)
    write_field(bits, lsb, msb, np.array(values, dtype=np.uint64))
    assert read_field(bits, lsb, msb).tolist() == values
    outside = [p for p in range(n) if not min(lsb, msb) <= p <= max(lsb, msb)]
    assert not bits[:, outside].any()


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
def capture_st(draw):
    """Frames in time order over a few (id, dlc) keys.

    The keys always include one standard id under two dlcs, an extended id
    with dlc 0 and a few random keys, so groups repeat, mix widths, hold
    empty payloads and sometimes hold a single frame.
    """
    std = draw(st.integers(min_value=0, max_value=0x7FF))
    ext = draw(st.integers(min_value=0x800, max_value=0x1FFFFFFF))
    dlc = draw(st.integers(min_value=0, max_value=8))
    keys = [(std, dlc), (std, (dlc + 1) % 9), (ext, 0)] + draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=0x1FFFFFFF),
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


@given(capture_st())
@settings(max_examples=300, deadline=None)
def test_partition_matches_per_frame_filter(frames):
    trace = make_trace(frames)
    assert list(trace.frames) == frames
    groups = partition_by_id(trace)
    assert set(groups) == {(f.arbitration_id, f.dlc) for f in frames}
    for (arb_id, dlc), g in groups.items():
        expected = [f for f in frames if (f.arbitration_id, f.dlc) == (arb_id, dlc)]
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


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=64))
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
    ),
    "hex": st.sampled_from(["ABC", "00" * 9, "0G", "A B", "AA,BB"]),
    "sep": st.sampled_from(["  ", "\t", " \t"]),
    "lead": st.sampled_from([" ", "\t", "\x0c"]),
    "trail": st.sampled_from([" ", "\t", ",extra"]),
    "dlc": st.sampled_from(["9", "08", "x", "", "1"]),
    "iface": st.sampled_from(["ca\tn0", "can0\x0b", "c#n", "c(n)"]),
    "open": st.sampled_from(["[", "", "(("]),
    "close": st.sampled_from(["]", "", "))"]),
}
_other_st = st.one_of(
    st.sampled_from(["", "", "   ", "# comment", "# comment", "#(1.0) can0 100#01", CSV_HEADER,
                     CSV_HEADER, " timestamp, id,dlc,payload_hex ", "# caf\u00e9"]),
    st.text(alphabet="(0.1x )#AZ,\t", max_size=20),
)


@st.composite
def _capture_line(draw, fmt):
    part = {"ts": draw(_ts_st), "id": draw(_id_st), "hex": draw(_hex_st),
            "sep": " " if fmt == "candump" else ",", "lead": "", "trail": "",
            "iface": "can0", "open": "(", "close": ")"}
    part["dlc"] = str(len(part["hex"]) // 2)
    n_odd = draw(st.sampled_from([0, 0, 0, 1, 2]))
    for key in draw(st.lists(st.sampled_from(sorted(_ODD)), min_size=n_odd, max_size=n_odd)):
        part[key] = draw(_ODD[key])
    if fmt == "candump":
        body = (f"{part['open']}{part['ts']}{part['close']}{part['sep']}{part['iface']} "
                f"{part['id']}#{part['hex']}")
    else:
        body = ",".join((part["ts"], part["id"], part["dlc"], part["hex"]))
    return part["lead"] + body + part["trail"]


@st.composite
def _any_line(draw, fmt):
    """A capture line four times in five, else a blank, comment, header or junk line."""
    return draw(_capture_line(fmt) if draw(st.sampled_from([False] + [True] * 4)) else _other_st)


@given(
    st.data(),
    st.sampled_from(["candump", "csv"]),
    st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]),
    st.booleans(),
    st.sampled_from([1, 7, 64, 1 << 16]),
)
@settings(max_examples=400, deadline=None)
def test_load_trace_matches_per_line_reference(data, fmt, newline, final_newline, chunk_bytes):
    lines = data.draw(st.lists(_any_line(fmt), max_size=40))
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
