import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantok import (
    AnalysisError,
    CanFrame,
    InvariantError,
    TokenCluster,
    Tang,
    TokenizerConfig,
    partition_by_id,
    tokenize,
)
from cantok.bitlab import analyzable
from cantok.tokenizer import export_tokenization_json, tokenization_to_dict

from .conftest import make_trace, reference_tokenize


def make_tang(counts, observations=None, arb_id=0x100):
    counts = np.asarray(counts, dtype=np.int64)
    m = observations if observations is not None else int(counts.max(initial=0)) + 1
    return Tang(counts=counts, observations=m, arbitration_id=arb_id)


def ranges(tok, kind=None):
    return [
        (c.lo, c.hi) for c in tok.clusters if kind is None or c.kind == kind
    ]


TABLE_TANG = [0, 0, 0, 0, 1, 2, 4, 9]


class TestHandTraces:
    def test_table_exclude(self):
        tok = tokenize(make_tang(TABLE_TANG, 10))
        assert ranges(tok, "signal") == [(4, 7)]
        assert ranges(tok, "padding") == [(0, 3)]
        sig = tok.signal_clusters[0]
        assert (sig.lsb_index, sig.msb_index, sig.lsb_transitions) == (7, 4, 9)

    def test_table_strict(self):
        tok = tokenize(
            make_tang(TABLE_TANG, 10), TokenizerConfig(padding_mode="strict")
        )
        assert ranges(tok) == [(0, 7)]
        sig = tok.signal_clusters[0]
        assert (sig.kind, sig.lsb_index, sig.msb_index) == ("signal", 7, 0)

    def test_all_zero(self):
        for mode in ("exclude", "strict"):
            tok = tokenize(make_tang([0] * 8, 5), TokenizerConfig(padding_mode=mode))
            assert ranges(tok) == [(0, 7)]
            assert tok.clusters[0].kind == "padding"

    def test_tie_break(self):
        tok = tokenize(make_tang([3, 9, 2, 9], 10))
        assert ranges(tok, "signal") == [(0, 1), (2, 3)]
        first, second = tok.signal_clusters
        assert (first.lsb_index, first.msb_index) == (1, 0)
        assert (second.lsb_index, second.msb_index) == (3, 2)


# Few distinct small counts, so ties, zero runs and equal neighbours are common,
# mixed with wide ones; widths cover a one-bit payload up to eight bytes.
_COUNTS = st.lists(st.one_of(st.integers(0, 3), st.integers(0, 10**6)), min_size=1, max_size=64)


@pytest.mark.parametrize("padding_mode", ["exclude", "strict"])
@pytest.mark.parametrize("endianness", ["big", "little"])
@settings(max_examples=150, deadline=None)
@given(counts=_COUNTS, threshold=st.integers(0, 3))
def test_tokenize_matches_plain_loop_walk(endianness, padding_mode, counts, threshold):
    config = TokenizerConfig(endianness, threshold, padding_mode)
    tok = tokenize(make_tang(counts), config)
    assert tokenization_to_dict(tok) == tokenization_to_dict(reference_tokenize(counts, config))


class TestModesAndThreshold:
    def test_width_one_cluster(self):
        tok = tokenize(make_tang([5], 6))
        sig = tok.clusters[0]
        assert (sig.lo, sig.hi, sig.lsb_index, sig.msb_index) == (0, 0, 0, 0)

    def test_threshold_bridges_bumps(self):
        # neighbor exceeds current by 1; admitted only with slack
        counts = [9, 0, 0, 5, 4, 8]
        assert ranges(tokenize(make_tang(counts, 10)), "signal") == [
            (0, 0),
            (3, 3),
            (4, 5),
        ]
        tok = tokenize(make_tang(counts, 10), TokenizerConfig(threshold=1))
        assert ranges(tok, "signal") == [(0, 0), (3, 5)]

    def test_little_endian_growth(self):
        tok = tokenize(
            make_tang([9, 4, 2, 0], 10), TokenizerConfig(endianness="little")
        )
        sig = tok.signal_clusters[0]
        assert (sig.lo, sig.hi, sig.lsb_index, sig.msb_index) == (0, 2, 0, 2)
        assert ranges(tok, "padding") == [(3, 3)]

    def test_extension_stops_at_assigned(self):
        # second seed may not re-absorb positions of the first cluster
        tok = tokenize(make_tang([1, 9, 9, 1], 10), TokenizerConfig(threshold=9))
        occupancy = sorted(p for c in tok.clusters for p in c.positions)
        assert occupancy == [0, 1, 2, 3]

    def test_invalid_config(self):
        with pytest.raises(AnalysisError):
            TokenizerConfig(endianness="middle")
        with pytest.raises(AnalysisError):
            TokenizerConfig(threshold=-1)
        with pytest.raises(AnalysisError):
            TokenizerConfig(padding_mode="none")

    @pytest.mark.parametrize("lsb, msb", [(None, 0), (3, None), (2, 0), (3, 1), (1, 3)])
    def test_signal_lsb_msb_must_be_the_ends(self, lsb, msb):
        with pytest.raises(InvariantError, match="two ends"):
            TokenCluster(kind="signal", lo=0, hi=3, lsb_index=lsb, msb_index=msb)


class TestTokenizeTrace:
    """The groups a walk over a whole trace analyses: `bitlab.analyzable`."""

    def test_skips_small_groups(self):
        frames = tuple(
            CanFrame(k * 0.1, 0x100, 1, bytes([k])) for k in range(5)
        ) + (CanFrame(1.0, 0x200, 1, b"\x01"),)
        kept, skipped = analyzable(partition_by_id(make_trace(frames)))
        assert [key for key, _group in kept] == [(0x100, 1)]
        assert skipped == [((0x200, 1), "only 1 frame(s)")]


class TestExport:
    def test_json_shape(self, tmp_path):
        tok = tokenize(make_tang(TABLE_TANG, 10, arb_id=0xA15))
        path = tmp_path / "tokens.json"
        export_tokenization_json(tok, path)
        data = json.loads(path.read_text())
        assert data == {
            "id": "0x0A15",
            "bit_width": 8,
            "config": {"endianness": "big", "threshold": 0, "padding_mode": "exclude"},
            "clusters": [
                {
                    "kind": "padding",
                    "lo": 0,
                    "hi": 3,
                    "lsb": None,
                    "msb": None,
                    "lsb_transitions": None,
                },
                {
                    "kind": "signal",
                    "lo": 4,
                    "hi": 7,
                    "lsb": 7,
                    "msb": 4,
                    "lsb_transitions": 9,
                },
            ],
        }
        # key ordering is part of the format
        assert list(data) == ["id", "bit_width", "config", "clusters"]

    def test_determinism(self):
        tang = make_tang([4, 4, 0, 7, 7, 1, 0, 3], 12)
        a = tokenization_to_dict(tokenize(tang))
        b = tokenization_to_dict(tokenize(tang))
        assert json.dumps(a) == json.dumps(b)
