"""Metric formula tests, pinned against published leaderboard rows.

The count-to-score fixtures below are taken from public benchmark tables:
given a row's FP/FN/IDSW and the benchmark's ground-truth box total, the
formulas must reproduce the row's published scores to report precision.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from motbench.assignment import preprocess_sequence, run_sequence
from motbench.clearmot import (
    MOSTLY_LOST_MAX,
    MOSTLY_TRACKED_MIN,
    Counts,
    accumulate,
    mota,
    motp,
    pool,
    summarize,
)
from conftest import entries, gt, hyp, random_instance, seq
from oracles import frame_events


def counts_of(instance):
    """The counts of ``instance`` by the evaluation chain at the default threshold."""
    return accumulate(run_sequence(preprocess_sequence(instance)))

# benchmark-wide constants of the two public test splits used in fixtures
GT_TOTAL_15 = 61440
FRAMES_15 = 5783
GT_TOTAL_17 = 3 * 188076
FRAMES_17 = 3 * 5919

# (fp, fn, idsw, expected mota) rows from the MOT15 public leaderboard
LEADERBOARD_15 = [
    (7620, 21780, 375, 51.54),     # MPNTrack
    (4624, 26896, 1290, 46.60),    # Tracktor++v2
    (7321, 29501, 720, 38.90),     # KCF
    (10580, 28508, 457, 35.64),    # JointMC
    (9064, 32060, 435, 32.36),     # MHT_DAM
    (13171, 34814, 4537, 14.52),   # DP_NMS
]

# (fp, fn, idsw, expected mota) rows from the MOT17 public leaderboard
LEADERBOARD_17 = [
    (17413, 213594, 1185, 58.85),  # MPNTrack
    (8866, 235449, 1987, 56.35),   # Tracktor++v2
    (14138, 253616, 3072, 52.00),  # FAMNet
    (19993, 281643, 5988, 45.48),  # IOU17
    (28398, 287582, 4852, 43.14),  # SORT17
    (23723, 330767, 4607, 36.36),  # GM_PHD
]


#: Counts of any size, with any float overlap sum from 0 to 1e9.
ANY_COUNTS = st.builds(
    Counts,
    **{f.name: st.integers(0, 10**9) for f in dataclasses.fields(Counts)
       if f.name != "overlap_sum"},
    overlap_sum=st.floats(0.0, 1e9, allow_nan=False),
)


def counts_from_row(fp, fn, idsw, gt_total, frames=1, fm=0):
    tp = gt_total - fn
    return Counts(
        tp=tp, fp=fp, fn=fn, idsw=idsw, fm=fm, frames=frames,
        overlap_sum=float(tp),
    )


class TestMota:
    @pytest.mark.parametrize("fp,fn,idsw,expected", LEADERBOARD_15)
    def test_matches_published_mot15_rows(self, fp, fn, idsw, expected):
        c = counts_from_row(fp, fn, idsw, GT_TOTAL_15)
        assert mota(c) == pytest.approx(expected, abs=0.02)

    @pytest.mark.parametrize("fp,fn,idsw,expected", LEADERBOARD_17)
    def test_matches_published_mot17_rows(self, fp, fn, idsw, expected):
        c = counts_from_row(fp, fn, idsw, GT_TOTAL_17)
        assert mota(c) == pytest.approx(expected, abs=0.02)

    def test_perfect(self):
        assert mota(counts_from_row(0, 0, 0, 100)) == 100.0

    def test_all_missed_is_zero(self):
        assert mota(counts_from_row(0, 100, 0, 100)) == 0.0

    def test_can_go_negative(self):
        assert mota(counts_from_row(200, 100, 0, 100)) < 0

    def test_undefined_without_gt(self):
        assert mota(Counts()) is None

    def test_strictly_decreasing_in_each_error(self):
        base = counts_from_row(10, 10, 10, 1000)
        for bump in (
            counts_from_row(11, 10, 10, 1000),
            counts_from_row(10, 11, 10, 1000),
            counts_from_row(10, 10, 11, 1000),
        ):
            assert mota(bump) < mota(base)


class TestMotp:
    def test_exact_matches_give_100(self):
        c = Counts(tp=4, overlap_sum=4.0)
        assert motp(c) == 100.0

    def test_arithmetic_mean_of_overlaps(self):
        c = Counts(tp=2, overlap_sum=1.5)
        assert motp(c) == pytest.approx(75.0)

    def test_undefined_without_matches(self):
        assert motp(Counts()) is None

    def test_recompute_from_frame_events(self, rng):
        for _ in range(25):
            instance = random_instance(rng)
            log = run_sequence(preprocess_sequence(instance))
            counts = accumulate(log)
            overlaps = [o for ev in frame_events(log) for _, _, o in ev.matches]
            if not overlaps:
                continue
            assert motp(counts) == pytest.approx(
                100.0 * sum(overlaps) / len(overlaps)
            )
            assert 50.0 <= motp(counts) <= 100.0


class TestDerivedRates:
    def test_false_alarms_per_frame(self):
        c = counts_from_row(7620, 21780, 375, GT_TOTAL_15, frames=FRAMES_15)
        assert summarize("x", c).far == pytest.approx(1.32, abs=0.01)

    def test_relative_switch_and_fragmentation_rates(self):
        c = counts_from_row(7620, 21780, 375, GT_TOTAL_15, frames=FRAMES_15, fm=872)
        rates = summarize("x", c)
        assert rates.recall == pytest.approx(100.0 * (GT_TOTAL_15 - 21780) / GT_TOTAL_15)
        assert rates.idswr == pytest.approx(5.81, abs=0.02)
        assert rates.fmr == pytest.approx(13.51, abs=0.02)

    def test_mot17_rates(self):
        c = counts_from_row(17413, 213594, 1185, GT_TOTAL_17, frames=FRAMES_17, fm=2265)
        rates = summarize("x", c)
        assert rates.far == pytest.approx(0.98, abs=0.01)
        assert rates.idswr == pytest.approx(19.07, abs=0.02)
        assert rates.fmr == pytest.approx(36.45, abs=0.02)

    def test_zero_denominators_marked_undefined(self):
        rates = summarize("x", Counts(frames=10))
        assert rates.recall is None
        assert rates.precision is None
        assert rates.idswr is None
        rates = summarize("x", Counts(frames=10, fn=5))
        assert rates.recall == 0.0
        assert rates.idswr is None  # recall of zero cannot normalize switches

    def test_requires_frames(self):
        assert summarize("x", Counts()).far is None


class TestAccumulate:
    def test_perfect_log(self):
        gt_entries = [gt(t, i, 40 * i, 0) for t in range(1, 7) for i in (1, 2)]
        results = [hyp(e.frame, e.track_id, e.left, e.top) for e in gt_entries]
        counts = counts_of(seq("p", 6, gt_entries, results))
        assert counts.fm == 0
        assert (counts.mt, counts.pt, counts.ml) == (2, 0, 0)

    def test_fragmentation_and_mostly_tracked(self):
        # covered frames 1-2 and 4-6 of 6: one fragmentation, ratio 5/6
        gt_entries = [gt(t, 1, 0, 0) for t in range(1, 7)]
        results = [hyp(t, 10, 0, 0) for t in (1, 2, 4, 5, 6)]
        counts = counts_of(seq("frag", 6, gt_entries, results))
        assert counts.fm == 1
        assert counts.mt == 1 and counts.pt == 0 and counts.ml == 0

    def test_exactly_twenty_percent_is_partially_tracked(self):
        gt_entries = [gt(t, 1, 0, 0) for t in range(1, 11)]
        results = [hyp(t, 10, 0, 0) for t in (1, 2)]
        counts = counts_of(seq("boundary", 10, gt_entries, results))
        assert counts.pt == 1 and counts.ml == 0

    def test_below_twenty_percent_is_mostly_lost(self):
        gt_entries = [gt(t, 1, 0, 0) for t in range(1, 11)]
        results = [hyp(1, 10, 0, 0)]
        counts = counts_of(seq("lost", 10, gt_entries, results))
        assert counts.ml == 1

    def test_exactly_eighty_percent_is_mostly_tracked(self):
        gt_entries = [gt(t, 1, 0, 0) for t in range(1, 11)]
        results = [hyp(t, 10, 0, 0) for t in range(1, 9)]
        counts = counts_of(seq("mt", 10, gt_entries, results))
        assert counts.mt == 1

    def test_trailing_gap_is_not_a_fragmentation(self):
        gt_entries = [gt(t, 1, 0, 0) for t in range(1, 7)]
        results = [hyp(t, 10, 0, 0) for t in (1, 2, 3)]
        counts = counts_of(seq("trail", 6, gt_entries, results))
        assert counts.fm == 0

    def test_identity_changes_do_not_affect_coverage(self):
        gt_entries = [gt(t, 1, 0, 0) for t in range(1, 7)]
        results = [hyp(t, 100 + t, 0, 0) for t in range(1, 7)]  # new id every frame
        counts = counts_of(seq("ids", 6, gt_entries, results))
        assert counts.idsw == 5
        assert counts.mt == 1 and counts.fm == 0

    def test_fragmentations_match_their_definition(self, rng):
        # brute-force reading of the docstring over one track: its life span
        # runs from its first to its last box, a frame of the span is tracked
        # when it is matched, and a tracked-to-untracked transition counts
        # when tracking resumes later in the span
        for _ in range(500):
            num_frames = rng.randint(1, 12)
            boxes = [t for t in range(1, num_frames + 1) if rng.random() < 0.8]
            hits = [t for t in boxes if rng.random() < 0.5]
            counts = counts_of(seq(
                "frag", num_frames, [gt(t, 1, 0, 0) for t in boxes],
                [hyp(t, 10, 0, 0) for t in hits]))
            span = range(min(boxes, default=1), max(boxes, default=0) + 1)
            status = [t in hits for t in span]
            resumed = sum(
                1 for k in range(len(status) - 1)
                if status[k] and not status[k + 1] and any(status[k + 2:])
            )
            assert counts.fm == resumed
            ratio = sum(status) / len(status) if status else None
            assert (counts.mt, counts.pt, counts.ml) == (
                (0, 0, 0) if ratio is None
                else (1, 0, 0) if ratio >= MOSTLY_TRACKED_MIN
                else (0, 0, 1) if ratio < MOSTLY_LOST_MAX
                else (0, 1, 0))

    def test_track_classes_partition_and_rates_bounded(self, rng):
        for _ in range(40):
            instance = random_instance(rng)
            counts = counts_of(instance)
            tracks = len(set(instance.gt.track_id[instance.gt.scoreable].tolist()))
            assert min(counts.mt, counts.pt, counts.ml) >= 0
            assert counts.mt + counts.pt + counts.ml == tracks
            rates = summarize("x", counts)
            if rates.recall is not None:
                assert 0.0 <= rates.recall <= 100.0
            if rates.precision is not None:
                assert 0.0 <= rates.precision <= 100.0


class TestPool:
    def test_pool_of_one_is_identity(self):
        c = counts_from_row(5, 6, 7, 100, frames=10, fm=2)
        assert pool([c]) == c

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            pool([])

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(ANY_COUNTS, min_size=2, max_size=5))
    def test_pool_does_not_depend_on_input_order(self, counts):
        # bit for bit: repr tells every float apart
        expected = repr(pool(counts))
        for order in itertools.permutations(counts):
            assert repr(pool(order)) == expected

    def test_mot17_pooling_reproduces_published_scores(self):
        per_detector = [
            counts_from_row(17413, 188076, 1185, 188076, frames=5919),
            counts_from_row(0, 25518, 0, 188076, frames=5919),
            counts_from_row(0, 0, 0, 188076, frames=5919),
        ]
        pooled = pool(per_detector)
        assert summarize("pooled", pooled).gt_total == GT_TOTAL_17
        assert mota(pooled) == pytest.approx(58.85, abs=0.05)

    def test_pooled_mota_is_not_the_mean_of_motas(self):
        a = counts_from_row(0, 0, 0, 90)      # large sequence, perfect
        b = counts_from_row(90, 10, 0, 10)    # tiny sequence, heavy error mass
        pooled_score = mota(pool([a, b]))
        mean_score = (mota(a) + mota(b)) / 2
        assert pooled_score == pytest.approx(0.0)
        assert pooled_score != pytest.approx(mean_score)

    def test_identity_counts_sum_then_ratios(self):
        # one unit's tracker covers half of a 10-frame track; the other's
        # covers all of it and adds two stray boxes
        half = Counts(frames=10, idtp=5, idfp=0, idfn=5)
        full = Counts(frames=10, idtp=10, idfp=2, idfn=0)
        pooled = pool([half, full])
        assert (pooled.idtp, pooled.idfp, pooled.idfn) == (15, 2, 5)
        report = summarize("OVERALL", pooled)
        assert report.idf1 == pytest.approx(100.0 * 2 * 15 / (2 * 15 + 2 + 5))
        assert report.idp == pytest.approx(100.0 * 15 / 17)
        assert report.idr == pytest.approx(100.0 * 15 / 20)
        mean = (summarize("a", half).idf1 + summarize("b", full).idf1) / 2
        assert report.idf1 != pytest.approx(mean)

    def test_additivity_against_concatenated_log(self, rng):
        # the second sequence follows the first in time, with its own ids;
        # evaluating both as one sequence gives the pooled counts
        for _ in range(20):
            first = random_instance(rng)
            second = random_instance(rng)

            def shifted(rows):
                return [e._replace(frame=e.frame + first.num_frames,
                                   track_id=e.track_id + 1000) for e in entries(rows)]

            merged = seq("merged", first.num_frames + second.num_frames,
                         [*entries(first.gt), *shifted(second.gt)],
                         [*entries(first.results), *shifted(second.results)])
            parts = [counts_of(first), counts_of(second)]
            assert counts_of(merged) == pool(parts)


class TestSummarize:
    def test_undefined_metrics_become_none(self):
        report = summarize("empty", Counts(frames=5))
        assert report.mota is None
        assert report.motp is None
        assert report.recall is None

    def test_report_carries_counts_through(self):
        c = counts_from_row(7620, 21780, 375, GT_TOTAL_15, frames=FRAMES_15, fm=872)
        report = summarize("row", c)
        assert report.fp == 7620 and report.fn == 21780
        assert report.mota == pytest.approx(51.54, abs=0.02)
        assert report.idf1 is None  # no identity counts, so no identity scores

    def test_every_ratio_of_empty_counts_is_none(self):
        report = summarize("x", Counts())
        for name in ("mota", "motp", "far", "recall", "precision", "idswr", "fmr",
                     "idf1", "idp", "idr", "mt_ratio", "ml_ratio"):
            assert getattr(report, name) is None, name

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(ANY_COUNTS)
    def test_ratios_follow_the_published_formulas_bit_for_bit(self, c):
        # the formulas written out one by one, each with its own zero test
        gt_total, gt_tracks = c.tp + c.fn, c.mt + c.pt + c.ml
        recall = 100.0 * c.tp / gt_total if gt_total > 0 else None
        denom = 2 * c.idtp + c.idfp + c.idfn
        expected = {
            "gt_total": gt_total,
            "gt_tracks": gt_tracks,
            "mota": 100.0 * (1.0 - (c.fn + c.fp + c.idsw) / gt_total)
            if gt_total > 0 else None,
            "motp": 100.0 * c.overlap_sum / c.tp if c.tp > 0 else None,
            "far": c.fp / c.frames if c.frames > 0 else None,
            "recall": recall,
            "precision": 100.0 * c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else None,
            "idswr": c.idsw / recall if recall else None,
            "fmr": c.fm / recall if recall else None,
            "idf1": 100.0 * 2 * c.idtp / denom if denom > 0 else None,
            "idp": 100.0 * c.idtp / (c.idtp + c.idfp) if (c.idtp + c.idfp) > 0 else None,
            "idr": 100.0 * c.idtp / (c.idtp + c.idfn) if (c.idtp + c.idfn) > 0 else None,
            "mt_ratio": c.mt / gt_tracks if gt_tracks else None,
            "ml_ratio": c.ml / gt_tracks if gt_tracks else None,
        }
        report = summarize("x", c)
        # repr tells every float apart, -0.0 from 0.0 included
        assert {name: repr(getattr(report, name)) for name in expected} == {
            name: repr(value) for name, value in expected.items()}
        counts = {f.name for f in dataclasses.fields(Counts)} - {
            "tp", "overlap_sum", "idtp", "idfp", "idfn"}
        assert {name: getattr(report, name) for name in counts} == {
            name: getattr(c, name) for name in counts}
