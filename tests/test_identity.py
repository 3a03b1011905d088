"""Track-level identity matching tests."""

import pytest

from motbench.assignment import MatchingConfig, preprocess_sequence
from motbench.identity import (
    TrackMatchTable,
    build_table,
    evaluate_identity,
    pool_identity,
    solve_identity,
)
from conftest import gt, hyp, random_instance, seq
from oracles import oracle_identity_counts


def scores_for(instance, threshold=0.5):
    frames = preprocess_sequence(instance, MatchingConfig(iou_threshold=threshold))
    return evaluate_identity(frames, threshold)


def frames_of(gts, preds):
    """The preprocessed frames of a sequence holding exactly these boxes."""
    num_frames = max((e.frame for e in [*gts, *preds]), default=1)
    return preprocess_sequence(seq("table", num_frames, gts, preds))


class TestBuildTable:
    def test_disjoint_tracks_give_empty_table(self):
        gts = [gt(t, 1, 0, 0) for t in (1, 2, 3)]
        preds = [hyp(t, 9, 500, 500) for t in (1, 2, 3)]
        table = build_table(frames_of(gts, preds))
        assert table.co_detections == {}
        assert table.gt_lengths == {1: 3}
        assert table.pred_lengths == {9: 3}

    def test_identical_track_codetects_full_length(self):
        gts = [gt(t, 1, 0, 0) for t in range(1, 6)]
        preds = [hyp(t, 9, 0, 0) for t in range(1, 6)]
        table = build_table(frames_of(gts, preds))
        assert table.co_detections == {(1, 9): 5}

    def test_crossing_pairs_match_frame_by_frame_count(self):
        # two targets swap positions across 6 frames; count co-detections by
        # hand per frame and compare
        gts, preds = [], []
        ys1 = (0, 0, 0, 30, 30, 30)
        ys2 = (30, 30, 30, 0, 0, 0)
        for t in range(1, 7):
            gts += [gt(t, 1, 0, ys1[t - 1]), gt(t, 2, 0, ys2[t - 1])]
            preds += [hyp(t, 8, 0, 0), hyp(t, 9, 0, 30)]
        table = build_table(frames_of(gts, preds))
        assert table.co_detections == {
            (1, 8): 3, (1, 9): 3, (2, 8): 3, (2, 9): 3,
        }

    def test_one_frame_contributes_at_most_one_count_per_pair(self):
        gts = [gt(1, 1, 0, 0)]
        preds = [hyp(1, 9, 0, 0), hyp(1, 10, 0, 1)]
        table = build_table(frames_of(gts, preds))
        assert table.co_detections == {(1, 9): 1, (1, 10): 1}


class TestSolveIdentity:
    def test_perfect_predictions(self):
        gts = [gt(t, i, 40 * i, 0) for t in range(1, 6) for i in (1, 2)]
        preds = [hyp(e.frame, e.track_id + 50, e.box.left, e.box.top) for e in gts]
        scores = solve_identity(build_table(frames_of(gts, preds)))
        assert scores.idf1 == pytest.approx(100.0)
        assert scores.idfp == scores.idfn == 0

    def test_empty_predictions(self):
        gts = [gt(t, 1, 0, 0) for t in range(1, 6)]
        scores = solve_identity(build_table(frames_of(gts, [])))
        assert scores.idtp == 0
        assert scores.idr == 0.0
        assert scores.idf1 == 0.0
        assert scores.idp is None

    def test_nothing_at_all_is_undefined(self):
        scores = solve_identity(build_table(frames_of([], [])))
        assert scores.idf1 is None and scores.idp is None and scores.idr is None

    def test_track_split_in_half(self):
        # one 10-frame target covered 5 frames each by two hypotheses; only
        # one of them can keep the identity
        gts = [gt(t, 1, 0, 0) for t in range(1, 11)]
        preds = [hyp(t, 8, 0, 0) for t in range(1, 6)]
        preds += [hyp(t, 9, 0, 0) for t in range(6, 11)]
        scores = solve_identity(build_table(frames_of(gts, preds)))
        assert (scores.idtp, scores.idfp, scores.idfn) == (5, 5, 5)
        assert scores.idf1 == pytest.approx(50.0)
        assert scores.matches == ((1, 8),)  # tie broken toward the earlier id

    def test_tracks_without_codetections_never_enter_the_solve(self):
        small = TrackMatchTable(
            gt_lengths={1: 10, 2: 10},
            pred_lengths={8: 5, 9: 5, 10: 10},
            co_detections={(1, 8): 5, (1, 9): 5, (2, 10): 10},
        )
        # thousands of one-frame predicted tracklets and a few ground-truth
        # tracks that overlap nothing
        crowded = TrackMatchTable(
            gt_lengths={**small.gt_lengths, **{100 + k: 3 for k in range(5)}},
            pred_lengths={**small.pred_lengths, **{1000 + k: 1 for k in range(4000)}},
            co_detections=small.co_detections,
        )
        scores = solve_identity(crowded)
        assert scores.idtp == 5 + 10
        assert scores.idfn == (10 + 10 + 5 * 3) - scores.idtp
        assert scores.idfp == (5 + 5 + 10 + 4000) - scores.idtp
        assert scores.matches == solve_identity(small).matches == ((1, 8), (2, 10))

    def test_harmonic_mean_property(self, rng):
        for _ in range(40):
            scores = scores_for(random_instance(rng))
            if scores.idf1 is None or not scores.idp or not scores.idr:
                continue
            harmonic = 2.0 / (1.0 / scores.idp + 1.0 / scores.idr)
            assert scores.idf1 == pytest.approx(harmonic, abs=1e-9)

    def test_oracle_agreement(self, rng):
        for _ in range(120):
            instance = random_instance(rng)
            scores = scores_for(instance)
            assert (scores.idtp, scores.idfp, scores.idfn) == oracle_identity_counts(
                instance
            )

    def test_relabeling_predictions_changes_nothing(self, rng):
        for _ in range(30):
            instance = random_instance(rng)
            pred_ids = sorted({e.track_id for e in instance.results})
            shuffled = pred_ids[:]
            rng.shuffle(shuffled)
            mapping = dict(zip(pred_ids, shuffled))
            relabeled = seq(
                instance.name,
                instance.num_frames,
                instance.gt,
                [
                    hyp(e.frame, mapping[e.track_id], e.box.left, e.box.top,
                        e.box.width, e.box.height)
                    for e in instance.results
                ],
            )
            a = scores_for(instance)
            b = scores_for(relabeled)
            assert (a.idtp, a.idfp, a.idfn) == (b.idtp, b.idfp, b.idfn)

    def test_adding_exact_codetected_frame_never_hurts(self, rng):
        for _ in range(30):
            instance = random_instance(rng)
            before = scores_for(instance)
            if not before.matches:
                continue
            gt_id, pred_id = before.matches[0]
            extended = seq(
                instance.name,
                instance.num_frames + 1,
                list(instance.gt) + [gt(instance.num_frames + 1, gt_id, 7, 7)],
                list(instance.results) + [hyp(instance.num_frames + 1, pred_id, 7, 7)],
            )
            after = scores_for(extended)
            if before.idf1 is not None and after.idf1 is not None:
                assert after.idf1 >= before.idf1 - 1e-9

    def test_idf1_perfect_only_without_errors(self, rng):
        for _ in range(40):
            scores = scores_for(random_instance(rng))
            if scores.idf1 is None:
                continue
            assert scores.idf1 <= 100.0
            if scores.idf1 == pytest.approx(100.0):
                assert scores.idfp == 0 and scores.idfn == 0


class TestPoolIdentity:
    def test_counts_sum_then_ratios(self):
        gts = [gt(t, 1, 0, 0) for t in range(1, 11)]
        half = [hyp(t, 8, 0, 0) for t in range(1, 6)]
        a = solve_identity(build_table(frames_of(gts, half)))
        full = [hyp(e.frame, 8, 0, 0) for e in gts]
        b = solve_identity(build_table(frames_of(gts, full)))
        pooled = pool_identity([a, b])
        assert pooled.idtp == a.idtp + b.idtp
        assert pooled.idfn == a.idfn + b.idfn
        assert pooled.idf1 == pytest.approx(
            100.0 * 2 * pooled.idtp / (2 * pooled.idtp + pooled.idfp + pooled.idfn)
        )
