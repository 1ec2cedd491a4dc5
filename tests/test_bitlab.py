import numpy as np
import pytest

from cantok import (
    AnalysisError,
    IdTrace,
    build_bit_matrix,
    normalize_tang,
    tang_from_idtrace,
    transition_matrix,
)
from cantok.bitlab import export_tang_csv

from .conftest import make_idtrace, naive_tang_counts

TABLE_TANG = [0, 0, 0, 0, 1, 2, 4, 9]


class TestBitMatrix:
    def test_counter_table(self, table1_idtrace):
        bits = build_bit_matrix(table1_idtrace)
        assert bits.shape == (10, 8)
        assert list(bits[9]) == [0, 0, 0, 0, 1, 0, 0, 1]
        assert list(bits[0]) == [0] * 8

    def test_all_ones(self):
        bits = build_bit_matrix(make_idtrace([[0xFF]]))
        assert bits.shape == (1, 8)
        assert bits.all()

    def test_bit_numbering(self):
        bits = build_bit_matrix(make_idtrace([[0x80, 0x01]]))
        row = list(bits[0])
        assert row[0] == 1 and row[15] == 1
        assert sum(row) == 2

    def test_empty_trace(self):
        with pytest.raises(AnalysisError, match="no observations"):
            build_bit_matrix(IdTrace(0x100, 1, np.empty(0), np.empty((0, 1))))


class TestTransitionMatrix:
    def test_first_xor_row(self, table1_idtrace):
        tm = transition_matrix(build_bit_matrix(table1_idtrace))
        assert list(tm[0]) == [0, 0, 0, 0, 0, 0, 0, 1]

    def test_full_table(self, table1_idtrace):
        tm = transition_matrix(build_bit_matrix(table1_idtrace))
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
        tm = transition_matrix(build_bit_matrix(make_idtrace([[0x5A], [0x5A], [0x5A]])))
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
            bits = build_bit_matrix(make_idtrace(payloads))
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


def test_export_csv(tmp_path, table1_idtrace):
    path = tmp_path / "tang.csv"
    export_tang_csv(tang_from_idtrace(table1_idtrace), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bit_position,transitions,normalized"
    assert len(lines) == 9
    pos, trans, norm = lines[8].split(",")
    assert (int(pos), int(trans), float(norm)) == (7, 9, 1.0)
