"""Track-level identity matching tests."""

import random

import pytest

import motbench.identity as identity
from motbench.assignment import preprocess_sequence, solve_assignment
from motbench.identity import build_table, evaluate_identity, solve_identity
from conftest import entries, gt, hyp, random_instance, seq, snap_to_grid, table_counts, track_table
from oracles import oracle_identity_counts, solve_identity_dummy_graph


def scores_for(instance, threshold=0.5):
    frames = preprocess_sequence(instance, threshold)
    return evaluate_identity(frames)


def frames_of(gts, preds):
    """The preprocessed frames of a sequence holding exactly these boxes."""
    num_frames = max((e.frame for e in [*gts, *preds]), default=1)
    return preprocess_sequence(seq("table", num_frames, gts, preds))


def crowded_tables():
    """A small track table, and the same with thousands of tracks that co-detect nothing."""
    gt_lengths, pred_lengths = {1: 10, 2: 10}, {8: 5, 9: 5, 10: 10}
    co_detections = {(1, 8): 5, (1, 9): 5, (2, 10): 10}
    small = track_table(gt_lengths, pred_lengths, co_detections)
    # thousands of one-frame predicted tracklets and a few ground-truth
    # tracks that overlap nothing
    crowded = track_table(
        {**gt_lengths, **{100 + k: 3 for k in range(5)}},
        {**pred_lengths, **{1000 + k: 1 for k in range(4000)}},
        co_detections,
    )
    return small, crowded


def tie_heavy_table(rng: random.Random):
    """A random track table with co-detection counts of 1 to 3, so optima tie often."""
    gt_ids = rng.sample(range(1, 40), rng.randint(1, 7))
    pred_ids = rng.sample(range(100, 140), rng.randint(1, 7))
    density = rng.choice([0.2, 0.4, 0.7])
    co = {(g, p): rng.randint(1, 3) for g in gt_ids for p in pred_ids if rng.random() < density}

    def lengths(ids, side):
        return {t: max([c for pair, c in co.items() if pair[side] == t], default=1)
                + rng.randint(0, 2) for t in ids}

    return track_table(lengths(gt_ids, 0), lengths(pred_ids, 1), co)


def rank_sum(table, matches) -> int:
    """Summed rank ``i * m + j`` of ``matches``, positions among the co-detecting tracks."""
    _, _, co = table_counts(table)
    gt_at = {g: i for i, g in enumerate(sorted({g for g, _ in co}))}
    pred_at = {p: j for j, p in enumerate(sorted({p for _, p in co}))}
    return sum(gt_at[g] * len(pred_at) + pred_at[p] for g, p in matches)


class TestBuildTable:
    def test_disjoint_tracks_give_empty_table(self):
        gts = [gt(t, 1, 0, 0) for t in (1, 2, 3)]
        preds = [hyp(t, 9, 500, 500) for t in (1, 2, 3)]
        assert table_counts(build_table(frames_of(gts, preds))) == ({1: 3}, {9: 3}, {})

    def test_identical_track_codetects_full_length(self):
        gts = [gt(t, 1, 0, 0) for t in range(1, 6)]
        preds = [hyp(t, 9, 0, 0) for t in range(1, 6)]
        _, _, co_detections = table_counts(build_table(frames_of(gts, preds)))
        assert co_detections == {(1, 9): 5}

    def test_crossing_pairs_match_frame_by_frame_count(self):
        # two targets swap positions across 6 frames; count co-detections by
        # hand per frame and compare
        gts, preds = [], []
        ys1 = (0, 0, 0, 30, 30, 30)
        ys2 = (30, 30, 30, 0, 0, 0)
        for t in range(1, 7):
            gts += [gt(t, 1, 0, ys1[t - 1]), gt(t, 2, 0, ys2[t - 1])]
            preds += [hyp(t, 8, 0, 0), hyp(t, 9, 0, 30)]
        _, _, co_detections = table_counts(build_table(frames_of(gts, preds)))
        assert co_detections == {
            (1, 8): 3, (1, 9): 3, (2, 8): 3, (2, 9): 3,
        }

    def test_one_frame_contributes_at_most_one_count_per_pair(self):
        gts = [gt(1, 1, 0, 0)]
        preds = [hyp(1, 9, 0, 0), hyp(1, 10, 0, 1)]
        _, _, co_detections = table_counts(build_table(frames_of(gts, preds)))
        assert co_detections == {(1, 9): 1, (1, 10): 1}


class TestSolveIdentity:
    def test_perfect_predictions(self):
        gts = [gt(t, i, 40 * i, 0) for t in range(1, 6) for i in (1, 2)]
        preds = [hyp(e.frame, e.track_id + 50, e.left, e.top) for e in gts]
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
        small, crowded = crowded_tables()
        scores = solve_identity(crowded)
        assert scores.idtp == 5 + 10
        assert scores.idfn == (10 + 10 + 5 * 3) - scores.idtp
        assert scores.idfp == (5 + 5 + 10 + 4000) - scores.idtp
        assert scores.matches == solve_identity(small).matches == ((1, 8), (2, 10))

    def test_the_solve_gets_the_co_detecting_pairs_alone(self, monkeypatch):
        _, crowded = crowded_tables()
        sizes = []

        def spy(rows, cols, cost, rank, **kwargs):
            sizes.append(len(rows))
            return solve_assignment(rows, cols, cost, rank, **kwargs)

        monkeypatch.setattr(identity, "solve_assignment", spy)
        solve_identity(crowded)
        assert sizes == [len(crowded.co_detections)]

    def test_agrees_with_the_dummy_graph_on_tie_heavy_inputs(self):
        # Same counts always; the same pairing except where two pairings tie
        # on both summed co-detections and summed rank, which only the last
        # tie-break level, or none, separates: pairings with different
        # numbers of pairs, and cycles of the same tracks.
        rng = random.Random(2016)
        tables = [tie_heavy_table(rng) for _ in range(8000)]
        tables += [build_table(preprocess_sequence(snap_to_grid(random_instance(rng, 5, 6))))
                   for _ in range(2000)]
        differ = 0
        for table in tables:
            scores, ref = solve_identity(table), solve_identity_dummy_graph(table)
            assert (scores.idtp, scores.idfp, scores.idfn) == (ref.idtp, ref.idfp, ref.idfn)
            if scores.matches != ref.matches:
                differ += 1
                assert rank_sum(table, scores.matches) == rank_sum(table, ref.matches)
        assert differ > 0

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
            pred_ids = sorted({e.track_id for e in entries(instance.results)})
            shuffled = pred_ids[:]
            rng.shuffle(shuffled)
            mapping = dict(zip(pred_ids, shuffled))
            relabeled = seq(
                instance.name,
                instance.num_frames,
                entries(instance.gt),
                [
                    hyp(e.frame, mapping[e.track_id], e.left, e.top,
                        e.width, e.height)
                    for e in entries(instance.results)
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
                entries(instance.gt) + [gt(instance.num_frames + 1, gt_id, 7, 7)],
                entries(instance.results) + [hyp(instance.num_frames + 1, pred_id, 7, 7)],
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

