import numpy as np
import pytest

from cantok import (
    AnalysisError,
    IdTrace,
    InvariantError,
    SignalSeries,
    TokenCluster,
    Tokenization,
    TokenizerConfig,
    extract_series,
    summarize,
    tokenize,
)
from cantok.bitlab import tang_from_idtrace
from cantok.signals import (
    export_series_csv,
    padding_constants,
    repack_payloads,
)

from .conftest import make_idtrace


def signal(lo, hi, endianness="big"):
    lsb, msb = (hi, lo) if endianness == "big" else (lo, hi)
    return TokenCluster(
        kind="signal", lo=lo, hi=hi, lsb_index=lsb, msb_index=msb, lsb_transitions=0
    )


class TestExtract:
    def test_table_counter(self, table1_idtrace):
        series = extract_series(table1_idtrace, [signal(4, 7)])[0]
        assert series.values.tolist() == list(range(10))
        assert series.width == 4

    def test_width_one_is_raw_column(self):
        it = make_idtrace([[0x00], [0x80], [0x80], [0x00]])
        series = extract_series(it, [signal(0, 0)])[0]
        assert series.values.tolist() == [0, 1, 1, 0]

    def test_16bit_vs_byte_arithmetic(self):
        rng = np.random.default_rng(9)
        payloads = [list(rng.integers(0, 256, 2, dtype=np.uint8)) for _ in range(3)]
        it = make_idtrace(payloads)
        series = extract_series(it, [signal(0, 15)])[0]
        expected = [int(p[0]) * 256 + int(p[1]) for p in payloads]
        assert series.values.tolist() == expected

    def test_little_endian_mirrors_weights(self):
        it = make_idtrace([[0b10000000]])
        # position 0 carries 2^0 under little-endian ranking
        series = extract_series(it, [signal(0, 7, "little")])[0]
        assert series.values.tolist() == [1]

    def test_full_64bit_width(self):
        it = make_idtrace([[0xFF] * 8, [0x00] * 8])
        series = extract_series(it, [signal(0, 63)])[0]
        assert series.values.tolist() == [2**64 - 1, 0]

    def test_clusters_share_one_pass(self):
        it = make_idtrace([[k, 0x80 | k] for k in range(6)])
        low, high = extract_series(it, [signal(0, 7), signal(8, 15, "little")])
        assert low.values.tolist() == list(range(6))
        # little-endian: position 8 is 2^0, so the byte reads bit-reversed
        assert high.values.tolist() == [int(f"{0x80 | k:08b}"[::-1], 2) for k in range(6)]
        assert low.timestamps is high.timestamps

    def test_padding_rejected(self, table1_idtrace):
        pad = TokenCluster(kind="padding", lo=0, hi=3)
        with pytest.raises(AnalysisError, match="padding"):
            extract_series(table1_idtrace, [pad])

    def test_out_of_range(self, table1_idtrace):
        with pytest.raises(AnalysisError, match="outside payload width"):
            extract_series(table1_idtrace, [signal(4, 9)])

    def test_order_preserving(self):
        payloads = [[3], [1], [4], [1], [5]]
        it = make_idtrace(payloads)
        perm = [4, 2, 0, 1, 3]
        it_perm = make_idtrace([payloads[i] for i in perm])
        base = extract_series(it, [signal(0, 7)])[0].values
        permuted = extract_series(it_perm, [signal(0, 7)])[0].values
        assert permuted.tolist() == [int(base[i]) for i in perm]


    def test_no_timestamps(self):
        group = IdTrace(0x100, 1, None, np.arange(4, dtype=np.uint64))
        with pytest.raises(AnalysisError, match="IdTrace has no timestamps column"):
            extract_series(group, [signal(0, 7)])


class TestSummarize:
    def test_ramp(self, table1_idtrace):
        s = summarize(extract_series(table1_idtrace, [signal(4, 7)])[0])
        assert (s.minimum, s.maximum, s.unique_value_count) == (0, 9, 10)
        assert s.value_transition_count == 9
        assert s.mean_abs_first_difference == 1.0

    def test_constant(self):
        s = summarize(extract_series(make_idtrace([[5], [5], [5]]), [signal(0, 7)])[0])
        assert (s.unique_value_count, s.value_transition_count) == (1, 0)
        assert s.mean_abs_first_difference == 0.0

    def test_rpm_motif(self):
        payloads = [list(v.to_bytes(2, "big")) for v in (2000, 2032, 2053)]
        s = summarize(extract_series(make_idtrace(payloads), [signal(0, 15)])[0])
        assert s.mean_abs_first_difference == pytest.approx(26.5)

    def test_single_frame(self):
        s = summarize(extract_series(make_idtrace([[9]]), [signal(0, 7)])[0])
        assert (s.value_transition_count, s.mean_abs_first_difference) == (0, 0.0)

    def test_total_difference_beyond_uint64(self):
        top = 2**64 - 1
        values = np.array([0, top] * 500, dtype=np.uint64)
        s = summarize(SignalSeries(0x100, signal(0, 63), values, np.zeros(1000)))
        assert s.value_transition_count == 999
        assert s.mean_abs_first_difference == float(top)

    def test_empty(self):
        empty = SignalSeries(0x100, signal(0, 7), np.zeros(0, np.uint64), np.zeros(0))
        with pytest.raises(AnalysisError, match="^cannot summarize an empty series$"):
            summarize(empty)


def test_export_csv(tmp_path, table1_idtrace):
    path = tmp_path / "series.csv"
    export_series_csv(extract_series(table1_idtrace, [signal(4, 7)]), [path])
    lines = path.read_text().splitlines()
    assert lines[0] == "index,timestamp,value"
    assert lines[1] == "0,0.000000,0"
    assert lines[-1] == "9,0.090000,9"


def test_export_csv_group_checks(tmp_path, table1_idtrace):
    a, b = extract_series(table1_idtrace, [signal(0, 3), signal(4, 7)])
    with pytest.raises(AnalysisError, match="1 paths"):
        export_series_csv([a, b], [tmp_path / "a.csv"])
    shifted = SignalSeries(b.arbitration_id, b.cluster, b.values, b.timestamps + 1.0)
    with pytest.raises(AnalysisError, match="share their timestamps"):
        export_series_csv([a, shifted], [tmp_path / "a.csv", tmp_path / "b.csv"])
    assert list(tmp_path.iterdir()) == []
    copied = SignalSeries(b.arbitration_id, b.cluster, b.values, b.timestamps.copy())
    export_series_csv([a, copied], [tmp_path / "a.csv", tmp_path / "b.csv"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]


class TestReconstruction:
    def _roundtrip(self, payloads, config=None):
        it = make_idtrace(payloads)
        tok = tokenize(tang_from_idtrace(it), config or TokenizerConfig())
        series = {
            (s.cluster.lo, s.cluster.hi): s
            for s in extract_series(it, tok.signal_clusters)
        }
        rebuilt = repack_payloads(tok, series, padding_constants(it.words, tok), len(it))
        assert rebuilt.dtype == np.uint64 and rebuilt.tolist() == it.words.tolist()
        assert it.payloads.tolist() == [list(p) for p in payloads]

    def test_table(self, table1_idtrace):
        self._roundtrip([[k] for k in range(10)])

    def test_random_payloads(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            m = int(rng.integers(2, 40))
            dlc = int(rng.integers(1, 9))
            payloads = [
                list(rng.integers(0, 256, dlc, dtype=np.uint8)) for _ in range(m)
            ]
            self._roundtrip(payloads)

    def test_ones_padding(self):
        # padding constant 1 must be restored, not assumed 0
        self._roundtrip([[0xF0 | k] for k in range(4)])

    def test_padding_word(self):
        """Each padding position's bit in one payload word, zero at the signal's positions
        and past the dlc."""
        it = make_idtrace([[0xA0 | k, 0x3C] for k in (1, 2, 3, 0)])
        tok = tokenize(tang_from_idtrace(it))
        assert [(c.kind, c.lo, c.hi) for c in tok.clusters] == [
            ("padding", 0, 5), ("signal", 6, 7), ("padding", 8, 15)]
        word = padding_constants(it.words, tok)
        assert np.array([word], np.uint64).view(np.uint8).tolist() == [0xA0, 0x3C] + [0] * 6

    def test_padding_that_flips(self):
        """The lowest padding position that flips is named, whatever the clusters' order."""
        it = make_idtrace([[0x00, 0x00], [0x12, 0x00], [0x00, 0x01]])  # positions 3, 6 and 15
        clusters = (TokenCluster("padding", 8, 15), TokenCluster("padding", 0, 7))
        tok = Tokenization(0xA15, 16, clusters, TokenizerConfig())
        with pytest.raises(InvariantError, match="^padding position 3 is not constant$"):
            padding_constants(it.words, tok)

    def test_repack_needs_a_value_per_frame(self, table1_idtrace):
        tok = tokenize(tang_from_idtrace(table1_idtrace))
        series = {(s.cluster.lo, s.cluster.hi): s
                  for s in extract_series(table1_idtrace, tok.signal_clusters)}
        padding = padding_constants(table1_idtrace.words, tok)
        with pytest.raises(AnalysisError, match="^series length does not match frame count$"):
            repack_payloads(tok, series, padding, len(table1_idtrace) + 1)
