import numpy as np
import pytest

from cantok import (
    AnalysisError,
    SignalSeries,
    TokenCluster,
    extract_series,
    summarize,
    tokenize,
)
from cantok.bitlab import build_bit_matrix, tang_from_idtrace
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


def test_export_csv(tmp_path, table1_idtrace):
    path = tmp_path / "series.csv"
    export_series_csv(extract_series(table1_idtrace, [signal(4, 7)])[0], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,timestamp,value"
    assert lines[1] == "0,0.000000,0"
    assert lines[-1] == "9,0.090000,9"


class TestReconstruction:
    def _roundtrip(self, payloads, config=None):
        from cantok import TokenizerConfig

        it = make_idtrace(payloads)
        tok = tokenize(tang_from_idtrace(it), config or TokenizerConfig())
        bits = build_bit_matrix(it)
        series = {
            (s.cluster.lo, s.cluster.hi): s
            for s in extract_series(it, tok.signal_clusters)
        }
        rebuilt = repack_payloads(tok, series, padding_constants(bits, tok), len(it))
        assert rebuilt.tolist() == [list(p) for p in payloads]

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
