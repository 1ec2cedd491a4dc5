import tracemalloc

import numpy as np
import pytest

from cantok import (
    AnalysisError,
    IdTrace,
    Tang,
    build_bit_matrix,
    normalize_tang,
    tang_from_idtrace,
    transition_matrix,
)
from cantok.bitlab import export_tang_csv, write_field

from .conftest import make_idtrace, naive_tang_counts

TABLE_TANG = [0, 0, 0, 0, 1, 2, 4, 9]


class TestBitMatrix:
    def test_counter_table(self, table1_idtrace):
        bits = build_bit_matrix(table1_idtrace.words, 1)
        assert bits.shape == (10, 8)
        assert list(bits[9]) == [0, 0, 0, 0, 1, 0, 0, 1]
        assert list(bits[0]) == [0] * 8

    def test_all_ones(self):
        bits = build_bit_matrix(make_idtrace([[0xFF]]).words, 1)
        assert bits.shape == (1, 8)
        assert bits.all()

    def test_bit_numbering(self):
        bits = build_bit_matrix(make_idtrace([[0x80, 0x01]]).words, 2)
        row = list(bits[0])
        assert row[0] == 1 and row[15] == 1
        assert sum(row) == 2

    def test_empty_trace(self):
        with pytest.raises(AnalysisError, match="no observations"):
            build_bit_matrix(np.empty(0, np.uint64), 1)


class TestWriteField:
    """Fields written into payload words, checked by hand on the payload bytes."""

    @pytest.mark.parametrize("fill, lsb, msb, value, payload", [
        (0, 15, 4, 0xABC, "0abc000000000000"),  # big-endian: the LSB at position 15
        (0, 0, 11, 1, "8000000000000000"),  # little-endian: the LSB at position 0
        (2**64 - 1, 4, 15, 0, "f000ffffffffffff"),  # the field cleared, the rest kept
        (2**64 - 1, 15, 4, 0, "f000ffffffffffff"),
    ])
    def test_written_bytes(self, fill, lsb, msb, value, payload):
        words = np.full(2, fill, dtype=np.uint64)
        write_field(words, lsb, msb, np.full(2, value, dtype=np.uint64))
        assert [row.tobytes().hex() for row in words[:, None].view(np.uint8)] == [payload] * 2

    @pytest.mark.parametrize("lsb, msb", [(16, 23), (23, 16), (0, 63), (63, 0), (5, 5)])
    @pytest.mark.parametrize("value", [1, np.uint64(1)], ids=["int", "uint64"])
    def test_scalar_value(self, lsb, msb, value):
        """A scalar value broadcasts against the words in either bit order."""
        words, expected = np.full(3, 0xA5, np.uint64), np.full(3, 0xA5, np.uint64)
        write_field(words, lsb, msb, value)
        write_field(expected, lsb, msb, np.ones(3, np.uint64))
        assert words.tolist() == expected.tolist()


class TestTransitionMatrix:
    def test_first_xor_row(self, table1_idtrace):
        tm = transition_matrix(build_bit_matrix(table1_idtrace.words, 1))
        assert list(tm[0]) == [0, 0, 0, 0, 0, 0, 0, 1]

    def test_full_table(self, table1_idtrace):
        tm = transition_matrix(build_bit_matrix(table1_idtrace.words, 1))
        expected = [
            [0, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0, 1, 1],
            [0, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 1, 1, 1],
            [0, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0, 1, 1],
            [0, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1, 1, 1, 1],
            [0, 0, 0, 0, 0, 0, 0, 1],
        ]
        assert tm.tolist() == expected
        assert list(tm[7]) == [0, 0, 0, 0, 1, 1, 1, 1]  # obs 7 xor 8

    def test_identical_rows_zero(self):
        tm = transition_matrix(build_bit_matrix(make_idtrace([[0x5A], [0x5A], [0x5A]]).words, 1))
        assert not tm.any()

    def test_insufficient_observations(self):
        with pytest.raises(AnalysisError, match="insufficient"):
            tang_from_idtrace(make_idtrace([[0x00]]))


class TestTang:
    def test_table_golden(self, table1_idtrace):
        tang = tang_from_idtrace(table1_idtrace)
        assert tang.counts.tolist() == TABLE_TANG
        assert tang.observations == 10
        assert tang.bit_width == 8

    def test_all_zero(self):
        tang = tang_from_idtrace(make_idtrace([[7], [7]]))
        assert tang.counts.tolist() == [0] * 8

    def test_random_16bit_vs_scalar_oracle(self):
        rng = np.random.default_rng(7)
        payloads = [bytes(rng.integers(0, 256, 2, dtype=np.uint8)) for _ in range(3)]
        tang = tang_from_idtrace(make_idtrace([list(p) for p in payloads]))
        assert tang.counts.tolist() == naive_tang_counts(payloads)

    # M - 1 flip rows around multiples of 255, the rows summed per uint8 block;
    # alternating 0x00/0xFF rows flip every bit, so each whole block sums to 255
    @pytest.mark.parametrize("m", [2, 255, 256, 257, 511, 512, 766])
    @pytest.mark.parametrize("dlc", [1, 8])
    @pytest.mark.parametrize("fill", ["random", "alternating"])
    def test_block_edges_vs_scalar_oracle(self, m, dlc, fill):
        if fill == "random":
            rows = np.random.default_rng(m * 9 + dlc).integers(0, 256, (m, dlc), dtype=np.uint8)
        else:
            rows = np.repeat(np.arange(m, dtype=np.uint8)[:, None] % 2 * 0xFF, dlc, axis=1)
        payloads = [row.tobytes() for row in rows]
        tang = tang_from_idtrace(make_idtrace(payloads))
        assert tang.counts.tolist() == naive_tang_counts(payloads)

    @pytest.mark.parametrize("seed", range(12))
    def test_long_rows_vs_diff(self, seed):
        """Random payloads, so every block of 255 flip rows sums differently: M - 1
        from 255 to 1500 and dlc 0-8, with the words a contiguous slice of a longer
        column, a strided view and words whose bytes past the dlc are not zero. The
        bit matrix unpacks the (M, dlc) payload bytes, and TANG counts its flips."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(256, 1502))
        raw = rng.integers(0, 256, (m, 8), dtype=np.uint8)
        for dlc in range(9):
            payloads = raw[:, :dlc]
            column = np.zeros(m + 2, np.uint64)
            column[1:-1] = (raw * (np.arange(8) < dlc)).view(np.uint64)[:, 0]
            wide = np.zeros(2 * m, np.uint64)
            wide[::2] = column[1:-1]
            bits = np.unpackbits(payloads, axis=1)
            flips = np.count_nonzero(np.diff(bits, axis=0), axis=0).tolist()
            for words in (column[1:-1], wide[::2], raw.view(np.uint64)[:, 0]):
                group = IdTrace(0xA15, dlc, None, words)
                assert group.payloads.tobytes() == payloads.tobytes()
                assert np.array_equal(build_bit_matrix(group.words, dlc), bits)
                assert tang_from_idtrace(group).counts.tolist() == flips, (dlc, words.strides)

    @pytest.mark.parametrize("dlc, bound", [(8, 80), (3, 40)])
    def test_peak_memory_per_frame(self, dlc, bound):
        """TANG unpacks the XOR of the words, 8 + N bytes a frame (plus dlc for
        the contiguous copy of a dlc < 8 group), not the payload bit matrix and
        its bit-level XOR, 2·N."""
        m = 200_000
        raw = np.random.default_rng(dlc).integers(0, 256, (m, 8), dtype=np.uint8)
        raw[:, dlc:] = 0
        group = IdTrace(0x100, dlc, None, raw.view(np.uint64)[:, 0])
        tracemalloc.start()
        try:
            tang_from_idtrace(group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / m <= bound

    def test_zero_width_group(self):
        """A dlc-0 group has no positions to count, however many frames it holds."""
        for m in range(2, 601):
            tang = tang_from_idtrace(IdTrace(0x100, 0, None, np.zeros(m, np.uint64)))
            assert tang.counts.shape == (0,) and tang.observations == m

    def test_counts_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = int(rng.integers(2, 64))
            dlc = int(rng.integers(1, 9))
            payloads = [
                list(rng.integers(0, 256, dlc, dtype=np.uint8)) for _ in range(m)
            ]
            tang = tang_from_idtrace(make_idtrace(payloads))
            assert (tang.counts <= m - 1).all()
            # count 0 exactly when the bit column is constant
            bits = build_bit_matrix(make_idtrace(payloads).words, dlc)
            for i in range(tang.bit_width):
                col = bits[:, i]
                assert (tang.counts[i] == 0) == (col.min() == col.max())

    def test_concatenation(self):
        rng = np.random.default_rng(3)
        payloads = [list(rng.integers(0, 256, 4, dtype=np.uint8)) for _ in range(20)]
        whole = tang_from_idtrace(make_idtrace(payloads))
        left = tang_from_idtrace(make_idtrace([p[:2] for p in payloads]))
        right = tang_from_idtrace(make_idtrace([p[2:] for p in payloads]))
        assert whole.counts.tolist() == left.counts.tolist() + right.counts.tolist()

    def test_time_reversal(self):
        rng = np.random.default_rng(5)
        payloads = [list(rng.integers(0, 256, 2, dtype=np.uint8)) for _ in range(15)]
        fwd = tang_from_idtrace(make_idtrace(payloads))
        rev = tang_from_idtrace(make_idtrace(payloads[::-1]))
        assert fwd.counts.tolist() == rev.counts.tolist()


class TestNormalize:
    def test_table(self, table1_idtrace):
        norm = normalize_tang(tang_from_idtrace(table1_idtrace))
        assert norm.tolist() == pytest.approx(
            [0, 0, 0, 0, 1 / 9, 2 / 9, 4 / 9, 1.0]
        )

    def test_all_zero(self):
        norm = normalize_tang(tang_from_idtrace(make_idtrace([[0], [0], [0]])))
        assert not norm.any()

    def test_every_frame_flip_is_one(self):
        # LSB alternates 0/1 every frame
        tang = tang_from_idtrace(make_idtrace([[k % 2] for k in range(8)]))
        assert normalize_tang(tang)[7] == 1.0

    @pytest.mark.parametrize("observations", [0, 1])
    def test_fewer_than_two_observations(self, observations):
        with pytest.raises(AnalysisError, match="^normalization requires at least 2 observations$"):
            normalize_tang(Tang(np.zeros(8, np.int64), observations, 0x100))


def test_export_csv(tmp_path, table1_idtrace):
    path = tmp_path / "tang.csv"
    export_tang_csv([tang_from_idtrace(table1_idtrace)], [path])
    lines = path.read_text().splitlines()
    assert lines[0] == "bit_position,transitions,normalized"
    assert len(lines) == 9
    pos, trans, norm = lines[8].split(",")
    assert (int(pos), int(trans), float(norm)) == (7, 9, 1.0)


def test_export_csv_needs_a_path_per_tang(tmp_path, table1_idtrace):
    tang = tang_from_idtrace(table1_idtrace)
    with pytest.raises(AnalysisError, match="^2 tangs but 1 paths$"):
        export_tang_csv([tang, tang], [tmp_path / "tang.csv"])
    assert list(tmp_path.iterdir()) == []
