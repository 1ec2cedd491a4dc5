import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantok import (
    AnalysisError,
    GroundTruth,
    SignalSpec,
    extract_series,
    generate_trace,
    partition_by_id,
    score_tokenization,
    tokenize,
)
from cantok.bitlab import analyzable, tang_from_idtrace
from cantok.synth import (
    MAX_FRAMES,
    bundled_spec_path,
    ground_truth_from_dict,
    ground_truth_to_dict,
    load_ground_truth,
    merge_traces,
    save_ground_truth,
    score_to_dict,
)
from cantok.tokenizer import TokenCluster, Tokenization, TokenizerConfig

from .conftest import reference_generate_trace
from .test_signals import signal


def single_id_trace(gt):
    trace = generate_trace(gt)
    return partition_by_id(trace)[(gt.arbitration_id, gt.bit_width // 8)]


class TestGenerate:
    def test_counter_reproduces_table(self):
        gt = GroundTruth(
            arbitration_id=0xA15,
            bit_width=8,
            specs=(SignalSpec(lo=4, hi=7, kind="counter", step=1),),
            frame_count=10,
        )
        trace = generate_trace(gt)
        assert [f.payload[0] for f in trace.frames] == list(range(10))

    def test_no_specs_all_zero(self):
        gt = GroundTruth(arbitration_id=1, bit_width=8, specs=(), frame_count=3)
        assert [f.payload for f in generate_trace(gt).frames] == [b"\x00"] * 3

    def test_ones_padding(self):
        gt = GroundTruth(
            arbitration_id=1, bit_width=8, specs=(), frame_count=2, padding_value=1
        )
        assert [f.payload for f in generate_trace(gt).frames] == [b"\xff"] * 2

    def test_two_counters_closed_form(self):
        gt = GroundTruth(
            arbitration_id=0x100,
            bit_width=16,
            specs=(
                SignalSpec(lo=0, hi=7, kind="counter", step=1),
                SignalSpec(lo=8, hi=15, kind="counter", step=3),
            ),
            frame_count=256,
        )
        it = single_id_trace(gt)
        for spec in gt.specs:
            values = extract_series(it, [signal(spec.lo, spec.hi)])[0].values
            expected = [(k * spec.step) % 256 for k in range(256)]
            assert values.tolist() == expected

    def test_determinism(self):
        gt = GroundTruth(
            arbitration_id=0x42,
            bit_width=32,
            specs=(
                SignalSpec(lo=0, hi=11, kind="random_walk", max_step=5),
                SignalSpec(lo=16, hi=23, kind="noise"),
                SignalSpec(lo=24, hi=31, kind="ramp", max_step=3),
            ),
            frame_count=500,
            seed=99,
        )
        a = generate_trace(gt)
        b = generate_trace(gt)
        assert [f.payload for f in a.frames] == [f.payload for f in b.frames]

    def test_seeded_payloads_golden(self):
        # every generator kind, both bit orders, ones padding in the gaps
        gt = GroundTruth(
            arbitration_id=0x3C1,
            bit_width=64,
            specs=(
                SignalSpec(lo=4, hi=15, kind="counter", endianness="little", step=3, start=7),
                SignalSpec(lo=16, hi=27, kind="ramp", max_step=4),
                SignalSpec(lo=28, hi=39, kind="random_walk", endianness="little", max_step=2),
                SignalSpec(lo=42, hi=49, kind="constant", value=0xA5),
                SignalSpec(lo=52, hi=61, kind="noise", endianness="little"),
            ),
            frame_count=200,
            seed=7,
            padding_value=1,
        )
        payloads = b"".join(f.payload for f in generate_trace(gt).frames)
        assert hashlib.sha256(payloads).hexdigest() == (
            "6c37b09b339708b28f428b0f2f9b0a1580a0b90a543896d1da4a1c974fa28fbc"
        )

    def test_overlap_rejected(self):
        with pytest.raises(AnalysisError, match="overlap"):
            GroundTruth(
                arbitration_id=1,
                bit_width=8,
                specs=(
                    SignalSpec(lo=0, hi=4, kind="noise"),
                    SignalSpec(lo=4, hi=7, kind="noise"),
                ),
                frame_count=2,
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(AnalysisError, match="outside payload width"):
            GroundTruth(
                arbitration_id=1,
                bit_width=8,
                specs=(SignalSpec(lo=4, hi=8, kind="noise"),),
                frame_count=2,
            )

    @pytest.mark.parametrize("kind", ["ramp", "random_walk", "noise", "constant"])
    def test_values_fit_width(self, kind):
        gt = GroundTruth(
            arbitration_id=1,
            bit_width=8,
            specs=(SignalSpec(lo=1, hi=5, kind=kind, max_step=7, value=12),),
            frame_count=300,
            seed=5,
        )
        values = extract_series(single_id_trace(gt), [signal(1, 5)])[0].values
        assert values.max() < 2**5

    def test_random_walk_steps_bounded(self):
        gt = GroundTruth(
            arbitration_id=1,
            bit_width=16,
            specs=(SignalSpec(lo=0, hi=15, kind="random_walk", max_step=9),),
            frame_count=400,
            seed=13,
        )
        values = extract_series(single_id_trace(gt), [signal(0, 15)])[0].values
        diffs = np.abs(np.diff(values.astype(np.int64)))
        assert diffs.max() <= 9

    def test_constant_generator(self):
        gt = GroundTruth(
            arbitration_id=1,
            bit_width=8,
            specs=(SignalSpec(lo=0, hi=7, kind="constant", value=0xAB),),
            frame_count=4,
        )
        assert [f.payload for f in generate_trace(gt).frames] == [b"\xab"] * 4

    def test_timestamps_fixed_period(self):
        gt = GroundTruth(arbitration_id=1, bit_width=8, specs=(), frame_count=3)
        ts = [f.timestamp for f in generate_trace(gt).frames]
        assert ts == pytest.approx([0.0, 0.01, 0.02])

    def test_ramp_steps_bounded_at_64_bits(self):
        # v + slope * k leaves the int64 range here; the steps must stay exact
        gt = GroundTruth(
            arbitration_id=1,
            bit_width=64,
            specs=(SignalSpec(lo=0, hi=63, kind="ramp", max_step=2**62),),
            frame_count=300,
            seed=5,
        )
        values = extract_series(single_id_trace(gt), [signal(0, 63)])[0].values.tolist()
        assert max(abs(b - a) for a, b in zip(values, values[1:])) <= 2**62

    def test_peak_memory_per_frame(self):
        m = 200_000
        gt = GroundTruth(
            arbitration_id=0x100,
            bit_width=64,
            specs=(
                SignalSpec(lo=0, hi=15, kind="counter"),
                SignalSpec(lo=20, hi=43, kind="random_walk", endianness="little", max_step=3),
                SignalSpec(lo=56, hi=63, kind="noise"),
            ),
            frame_count=m,
            seed=3,
        )
        tracemalloc.start()
        try:
            generate_trace(gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / m <= 48


near_top = st.integers(min_value=2**64 - 2**10, max_value=2**64 - 1)
max_step_st = st.one_of(st.integers(0, 9), st.integers(0, 2**63 - 1))


@st.composite
def signal_spec_st(draw, lo, hi):
    kind = draw(st.sampled_from(["counter", "ramp", "random_walk", "constant", "noise"]))
    return SignalSpec(
        lo=lo,
        hi=hi,
        kind=kind,
        endianness=draw(st.sampled_from(["big", "little"])),
        step=draw(st.one_of(st.integers(0, 2**64 - 1), near_top)),
        start=draw(st.one_of(st.integers(0, 2**64 - 1), near_top)),
        max_step=draw(max_step_st),
        value=draw(st.integers(0, 2 ** (hi - lo + 1) - 1)),
    )


@st.composite
def ground_truth_st(draw):
    """Fields and gaps tiling the payload, so fields also touch positions 0 and N-1."""
    n = 8 * draw(st.integers(1, 8))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=6)))
    specs = tuple(
        draw(signal_spec_st(lo, hi - 1))
        for lo, hi in zip([0, *cuts], [*cuts, n])
        if draw(st.booleans())
    )
    return GroundTruth(
        arbitration_id=0x100,
        bit_width=n,
        specs=specs,
        frame_count=draw(st.integers(0, 600)),
        seed=draw(st.integers(0, 2**32)),
        padding_value=draw(st.integers(0, 1)),
    )


@given(ground_truth_st())
@example(GroundTruth(0x100, 64, (SignalSpec(0, 63, "counter", step=2**64 - 1, start=7),), 3))
@example(GroundTruth(0x100, 64, (SignalSpec(0, 63, "ramp", "little", max_step=2**62),), 300, 5))
@example(GroundTruth(0x100, 8, (SignalSpec(0, 0, "noise"), SignalSpec(7, 7, "noise")), 9, 1, 1))
@example(GroundTruth(0x100, 8, (SignalSpec(0, 7, "ramp"),), 0))
@settings(max_examples=200, deadline=None)
def test_generate_matches_bit_matrix_reference(gt):
    got, want = generate_trace(gt), reference_generate_trace(gt)
    for name in ("timestamps", "ids", "dlcs", "payloads"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def make_tok(bit_width, signal_ranges, padding_ranges, arb_id=0x100):
    clusters = [
        TokenCluster(kind="signal", lo=lo, hi=hi, lsb_index=hi, msb_index=lo,
                     lsb_transitions=1)
        for lo, hi in signal_ranges
    ] + [TokenCluster(kind="padding", lo=lo, hi=hi) for lo, hi in padding_ranges]
    return Tokenization(
        arbitration_id=arb_id,
        bit_width=bit_width,
        clusters=tuple(sorted(clusters, key=lambda c: c.lo)),
        config=TokenizerConfig(),
    )


class TestScore:
    def test_identical_partitions(self):
        gt = GroundTruth(
            arbitration_id=0x100,
            bit_width=8,
            specs=(SignalSpec(lo=4, hi=7, kind="counter"),),
            frame_count=10,
        )
        report = score_tokenization(make_tok(8, [(4, 7)], [(0, 3)]), gt)
        assert report.exact_cluster_matches == 1
        assert report.boundary_precision == 1.0
        assert report.boundary_recall == 1.0
        assert (report.merged_count, report.split_count) == (0, 0)

    def test_merged_clusters(self):
        gt = GroundTruth(
            arbitration_id=0x100,
            bit_width=16,
            specs=(
                SignalSpec(lo=0, hi=7, kind="counter"),
                SignalSpec(lo=8, hi=15, kind="counter"),
            ),
            frame_count=10,
        )
        report = score_tokenization(make_tok(16, [(0, 15)], []), gt)
        assert report.boundary_recall == 0.0
        assert report.merged_count == 1
        assert report.exact_cluster_matches == 0

    def test_split_cluster(self):
        gt = GroundTruth(
            arbitration_id=0x100,
            bit_width=8,
            specs=(SignalSpec(lo=0, hi=7, kind="counter"),),
            frame_count=10,
        )
        report = score_tokenization(make_tok(8, [(0, 3), (4, 7)], []), gt)
        assert report.split_count == 1
        assert report.boundary_precision == 0.0

    def test_dict_writes_six_decimals(self):
        gt = GroundTruth(
            arbitration_id=0x100,
            bit_width=8,
            specs=(
                SignalSpec(lo=0, hi=3, kind="counter"),
                SignalSpec(lo=4, hi=5, kind="counter"),
                SignalSpec(lo=6, hi=7, kind="counter"),
            ),
            frame_count=10,
        )
        tok = make_tok(8, [(0, 1), (2, 3), (4, 5), (6, 7)], [])
        report = score_tokenization(tok, gt)
        assert report.boundary_precision == 2 / 3
        text = json.dumps(score_to_dict(report))
        assert '"boundary_precision": 0.666667,' in text
        assert '"boundary_recall": 1.0,' in text

    def test_width_mismatch(self):
        gt = GroundTruth(
            arbitration_id=0x100, bit_width=16, specs=(), frame_count=2
        )
        with pytest.raises(AnalysisError, match="mismatch"):
            score_tokenization(make_tok(8, [], [(0, 7)]), gt)

    def test_against_set_oracle(self):
        # independent recomputation of boundary metrics via raw set algebra
        rng = np.random.default_rng(31)
        for _ in range(20):
            gt = _random_counter_gt(rng)
            it = single_id_trace(gt)
            tok = tokenize(tang_from_idtrace(it))
            report = score_tokenization(tok, gt)

            def cuts(intervals):
                ordered = sorted(intervals)
                return {hi for _, hi in ordered[:-1]}

            gt_intervals = []
            pos = 0
            for s in sorted(gt.specs, key=lambda s: s.lo):
                if s.lo > pos:
                    gt_intervals.append((pos, s.lo - 1))
                gt_intervals.append((s.lo, s.hi))
                pos = s.hi + 1
            if pos < gt.bit_width:
                gt_intervals.append((pos, gt.bit_width - 1))
            truth = cuts(gt_intervals)
            got = cuts([(c.lo, c.hi) for c in tok.clusters])
            hit = truth & got
            assert report.boundary_recall == (
                len(hit) / len(truth) if truth else 1.0
            )
            assert report.boundary_precision == (
                len(hit) / len(got) if got else 1.0
            )


def _random_counter_gt(rng, bit_width=64):
    """2-4 step-1 counters separated by at least one padding bit."""
    specs = []
    pos = int(rng.integers(0, 3))
    for _ in range(int(rng.integers(2, 5))):
        w = int(rng.integers(4, 13))
        if pos + w > bit_width:
            break
        specs.append(SignalSpec(lo=pos, hi=pos + w - 1, kind="counter", step=1))
        pos += w + 1 + int(rng.integers(0, 4))
    max_w = max(s.width for s in specs)
    return GroundTruth(
        arbitration_id=int(rng.integers(1, 0x7FF)),
        bit_width=bit_width,
        specs=tuple(specs),
        frame_count=2 * 2**max_w,
        seed=int(rng.integers(0, 2**31)),
    )


class TestRecovery:
    def test_counter_layouts_recovered(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            gt = _random_counter_gt(rng)
            tok = tokenize(tang_from_idtrace(single_id_trace(gt)))
            report = score_tokenization(tok, gt)
            assert report.exact_cluster_matches == len(gt.specs)
            assert report.boundary_precision == 1.0
            assert report.boundary_recall == 1.0


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        gt = GroundTruth(
            arbitration_id=0x1AB,
            bit_width=24,
            specs=(
                SignalSpec(lo=0, hi=7, kind="counter", step=2, start=5),
                SignalSpec(lo=10, hi=19, kind="random_walk", max_step=4),
            ),
            frame_count=100,
            seed=7,
            padding_value=1,
        )
        path = tmp_path / "gt.json"
        save_ground_truth(gt, path)
        assert load_ground_truth(path) == gt

    def test_start_time_round_trip(self, tmp_path):
        gt = GroundTruth(
            arbitration_id=2, bit_width=16, specs=(SignalSpec(lo=0, hi=9, kind="ramp"),),
            frame_count=50, seed=3, start_time=0.005,
        )
        path = tmp_path / "gt.json"
        save_ground_truth(gt, path)
        back = load_ground_truth(path)
        assert back == gt
        a, b = generate_trace(gt), generate_trace(back)
        for name in ("timestamps", "ids", "dlcs", "payloads"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    def test_zero_start_time_not_written(self):
        gt = GroundTruth(arbitration_id=2, bit_width=8, specs=(), frame_count=5)
        assert "start_time" not in ground_truth_to_dict(gt)

    @pytest.mark.parametrize("value", [True, "0.005", float("nan"), float("inf"), 10**400],
                             ids=["bool", "str", "nan", "inf", "huge-int"])
    def test_bad_start_time_rejected(self, value):
        d = {"id": "0x100", "bit_width": 8, "frames": 2, "signals": [], "start_time": value}
        with pytest.raises(AnalysisError, match="invalid ground truth spec: "):
            ground_truth_from_dict(d)

    def test_frame_bound(self):
        GroundTruth(arbitration_id=1, bit_width=64, specs=(), frame_count=MAX_FRAMES)
        d = {"id": "0x100", "bit_width": 8, "frames": MAX_FRAMES + 1, "signals": []}
        with pytest.raises(
            AnalysisError,
            match=f"^invalid ground truth spec: frame_count must be at most {MAX_FRAMES}, not ",
        ):
            ground_truth_from_dict(d)

    def test_missing_field(self):
        with pytest.raises(AnalysisError, match="missing field"):
            ground_truth_from_dict({"id": "0x100"})

    def test_bundled_spec(self):
        gt = load_ground_truth(bundled_spec_path())
        assert len(gt.specs) == 3
        assert all(s.kind == "counter" for s in gt.specs)

    def test_unknown_endianness(self):
        with pytest.raises(AnalysisError, match="endianness"):
            SignalSpec(lo=0, hi=7, kind="counter", endianness="Big")
        d = {"id": "0x100", "bit_width": 8, "frames": 2,
             "signals": [{"lo": 0, "hi": 7, "kind": "counter", "endianness": "Big"}]}
        with pytest.raises(AnalysisError, match="endianness"):
            ground_truth_from_dict(d)

    def test_dict_id_formats(self):
        d = ground_truth_to_dict(
            GroundTruth(arbitration_id=0x100, bit_width=8, specs=(), frame_count=2)
        )
        assert d["id"] == "0x0100"
        assert ground_truth_from_dict(d).arbitration_id == 0x100


def test_merge_traces_ordered():
    g1 = GroundTruth(arbitration_id=1, bit_width=8, specs=(), frame_count=5)
    g2 = GroundTruth(
        arbitration_id=2, bit_width=8, specs=(), frame_count=5, start_time=0.005
    )
    merged = merge_traces([generate_trace(g1), generate_trace(g2)])
    merged.validate()
    assert [f.arbitration_id for f in merged.frames] == [1, 2] * 5


def test_generated_trace_consumable_by_pipeline(tmp_path):
    from cantok import load_trace, write_candump

    gt = load_ground_truth(bundled_spec_path())
    trace = generate_trace(gt)
    path = tmp_path / "synth.log"
    write_candump(trace, path)
    groups = analyzable(partition_by_id(load_trace(path)))[0]
    toks = {key: tokenize(tang_from_idtrace(group)) for key, group in groups}
    report = score_tokenization(toks[(gt.arbitration_id, 8)], gt)
    assert report.exact_cluster_matches == 3
