"""Matching-protocol tests: preprocessing, carryover, switches, oracles."""

import random

import numpy as np
import pytest

from motbench.assignment import (
    MatchingConfig,
    match_frame,
    preprocess_frame,
    preprocess_sequence,
    run_sequence,
    solve_assignment,
)
from motbench.clearmot import accumulate
from motbench.model import ObjectClass, Rows, iou
from conftest import (
    ALL_SCENARIOS,
    SCENARIO_EXPECTATIONS,
    gt,
    hyp,
    random_instance,
    seq,
)
from oracles import oracle_clear_counts

CFG = MatchingConfig()


def totals(log):
    tp = sum(len(ev.matches) for ev in log.events)
    fp = sum(len(ev.fp_ids) for ev in log.events)
    fn = sum(len(ev.fn_ids) for ev in log.events)
    idsw = sum(len(ev.idsw_ids) for ev in log.events)
    return tp, fp, fn, idsw


def matched_frames(log) -> dict[int, set[int]]:
    """Frames in which each ground-truth track was matched."""
    out: dict[int, set[int]] = {}
    for ev in log.events:
        for gt_id, _, _ in ev.matches:
            out.setdefault(gt_id, set()).add(ev.frame)
    return out


def kept(gt_frame, res_frame):
    """``(gt_ids, res_ids, overlaps)`` of one preprocessed frame."""
    gt_ids, res_ids, _, overlaps = preprocess_frame(Rows.of(gt_frame), Rows.of(res_frame), CFG)
    return gt_ids, res_ids, overlaps


class TestPreprocessFrame:
    def test_result_on_static_person_removed(self):
        gt_frame = [gt(1, 1, 0, 0, object_class=ObjectClass.STATIC_PERSON)]
        res_frame = [hyp(1, 9, 0, 1)]  # IoU 0.818 with the static person
        gt_ids, res_ids, removed, _ = preprocess_frame(Rows.of(gt_frame), Rows.of(res_frame), CFG)
        assert gt_ids == []
        assert res_ids == []
        assert removed == [9]

    def test_pedestrian_only_frame_is_a_no_op(self):
        gt_frame = [gt(1, 1, 0, 0), gt(1, 2, 50, 50)]
        res_frame = [hyp(1, 8, 0, 0), hyp(1, 9, 200, 200)]
        gt_ids, res_ids, removed, _ = preprocess_frame(Rows.of(gt_frame), Rows.of(res_frame), CFG)
        assert len(gt_ids) == 2
        assert res_ids == [8, 9]
        assert removed == []

    def test_sub_threshold_neutral_overlap_keeps_result(self):
        # IoU 0.429 with the distractor, 0.667 with the pedestrian: the
        # result box survives and is free to match the pedestrian.
        gt_frame = [
            gt(1, 1, 0, 2),
            gt(1, 2, 0, 10, object_class=ObjectClass.DISTRACTOR),
        ]
        res_frame = [hyp(1, 9, 0, 4)]
        gt_ids, res_ids, removed, _ = preprocess_frame(Rows.of(gt_frame), Rows.of(res_frame), CFG)
        assert gt_ids == [1]
        assert res_ids == [9]
        assert removed == []

    def test_removal_requires_winning_the_match_not_just_overlap(self):
        # the box overlaps a distractor above threshold (0.6) but sits closer
        # to a pedestrian (0.905): the matching pairs it with the pedestrian,
        # so it survives; a naive any-overlap rule would wrongly drop it
        gt_frame = [
            gt(1, 1, 0, 0.0),
            gt(1, 2, 0, 3.0, object_class=ObjectClass.DISTRACTOR),
        ]
        res_frame = [hyp(1, 9, 0, 0.5)]
        _, res_ids, removed, _ = preprocess_frame(Rows.of(gt_frame), Rows.of(res_frame), CFG)
        assert res_ids == [9]
        assert removed == []

    def test_removal_when_the_neutral_box_wins_the_match(self):
        # mirrored geometry: now the distractor is the closer match (0.905)
        # and the pedestrian the farther one (0.6), so the box is dropped
        gt_frame = [
            gt(1, 1, 0, 3.0),
            gt(1, 2, 0, 0.0, object_class=ObjectClass.DISTRACTOR),
        ]
        res_frame = [hyp(1, 9, 0, 0.5)]
        gt_ids, res_ids, removed, _ = preprocess_frame(Rows.of(gt_frame), Rows.of(res_frame), CFG)
        assert res_ids == []
        assert removed == [9]
        assert gt_ids == [1]  # the pedestrian still scores

    def test_inactive_entries_never_score(self):
        gt_frame = [gt(1, 1, 0, 0, conf=0.0), gt(1, 2, 30, 30)]
        gt_ids, _, _, _ = preprocess_frame(Rows.of(gt_frame), Rows.of([]), CFG)
        assert gt_ids == [2]

    def test_inactive_neutral_entry_still_absorbs_followers(self):
        # the reflection is flagged inactive yet the evaluation still drops
        # the hypothesis glued to it
        gt_frame = [gt(1, 1, 0, 0, conf=0.0, object_class=ObjectClass.REFLECTION)]
        res_frame = [hyp(1, 9, 0, 1)]
        _, res_ids, removed, _ = preprocess_frame(Rows.of(gt_frame), Rows.of(res_frame), CFG)
        assert res_ids == []
        assert removed == [9]

    def test_non_pedestrian_classes_never_score(self):
        gt_frame = [gt(1, 1, 0, 0, object_class=ObjectClass.CAR)]
        gt_ids, res_ids, removed, _ = preprocess_frame(Rows.of(gt_frame), Rows.of([hyp(1, 9, 0, 0)]), CFG)
        assert gt_ids == []
        # cars are not neutral: the follower is kept and will be a false positive
        assert res_ids == [9]

    def test_overlaps_are_the_iou_of_the_kept_boxes(self):
        # the one edge table every later stage reads, on the criterion 4
        # stream: each stored overlap is bit-equal to the scalar IoU of its
        # two boxes, and each kept same-frame pair left out is below threshold
        rng = random.Random(500500)
        for _ in range(200):
            instance = random_instance(rng)
            gt_box = {(e.frame, e.track_id): e.box for e in instance.gt}
            res_box = {(e.frame, e.track_id): e.box for e in instance.results}
            table = preprocess_sequence(instance, CFG)
            gt_rows = list(zip(table.gt_frame.tolist(), table.gt_id.tolist()))
            res_rows = list(zip(table.res_frame.tolist(), table.res_id.tolist()))
            stored = {}
            for t, i, j, overlap in zip(table.frame.tolist(), table.gt_row.tolist(),
                                        table.res_row.tolist(), table.iou.tolist()):
                (gt_t, gt_id), (res_t, pred_id) = gt_rows[i], res_rows[j]
                assert gt_t == res_t == t
                assert overlap == iou(gt_box[t, gt_id], res_box[t, pred_id])
                assert overlap >= CFG.iou_threshold
                stored[t, gt_id, pred_id] = overlap
            assert list(stored) == sorted(stored)
            for t, gt_id in gt_rows:
                for res_t, pred_id in res_rows:
                    if res_t == t and (t, gt_id, pred_id) not in stored:
                        assert iou(gt_box[t, gt_id], res_box[t, pred_id]) < CFG.iou_threshold


class TestMatchFrame:
    def test_perfect_one_to_one(self):
        gt_frame = [gt(1, 1, 0, 0), gt(1, 2, 30, 0)]
        res_frame = [hyp(1, 8, 0, 0), hyp(1, 9, 30, 0)]
        events, assignment = match_frame(*kept(gt_frame, res_frame), {}, {}, CFG)
        assert {(g, p) for g, p, _ in events.matches} == {(1, 8), (2, 9)}
        assert events.fp_ids == () and events.fn_ids == () and events.idsw_ids == ()
        assert assignment == {1: 8, 2: 9}

    def test_carryover_beats_closer_hypothesis(self):
        gt_frame = [gt(2, 1, 0, 0)]
        res_frame = [hyp(2, 8, 0, 3), hyp(2, 9, 0, 1)]  # 9 is closer
        events, assignment = match_frame(*kept(gt_frame, res_frame), {1: 8}, {1: 8}, CFG)
        assert assignment == {1: 8}
        assert events.fp_ids == (9,)
        assert events.idsw_ids == ()

    def test_without_carryover_the_closer_hypothesis_wins(self):
        gt_frame = [gt(2, 1, 0, 0)]
        res_frame = [hyp(2, 8, 0, 3), hyp(2, 9, 0, 1)]
        events, assignment = match_frame(*kept(gt_frame, res_frame), {}, {1: 8}, CFG)
        assert assignment == {1: 9}
        assert events.idsw_ids == (1,)

    def test_broken_carryover_frees_both_sides(self):
        gt_frame = [gt(3, 1, 0, 0)]
        res_frame = [hyp(3, 8, 0, 40), hyp(3, 9, 0, 2)]
        events, assignment = match_frame(*kept(gt_frame, res_frame), {1: 8}, {1: 8}, CFG)
        assert assignment == {1: 9}
        assert events.fp_ids == (8,)
        assert events.idsw_ids == (1,)

    def test_switch_requires_a_previous_assignment(self):
        gt_frame = [gt(1, 1, 0, 0)]
        res_frame = [hyp(1, 9, 0, 0)]
        events, _ = match_frame(*kept(gt_frame, res_frame), {}, {}, CFG)
        assert events.idsw_ids == ()

    def test_exact_tie_beside_an_unmatchable_target_keeps_the_earlier_pair(self):
        # frame 4 of the 4-px grid instance of seed 1913: GT 1 has no
        # feasible pair, GT 2 overlaps 101 and 103 at exactly 2/3; the earlier
        # pair (2, 101) continues the identity, so nothing switches
        gt_frame = [gt(4, 1, 0, 8, 8, 12), gt(4, 2, 4, 24, 12, 8)]
        res_frame = [
            hyp(4, 101, 4, 24, 8, 8), hyp(4, 102, 4, 40, 8, 8), hyp(4, 103, 8, 24, 8, 8)
        ]
        events, assignment = match_frame(*kept(gt_frame, res_frame), {}, {2: 101}, CFG)
        assert assignment == {2: 101}
        assert events.idsw_ids == ()
        assert events.fn_ids == (1,) and events.fp_ids == (102, 103)

    def test_all_match_overlaps_meet_threshold(self):
        rng = random.Random(2)
        for _ in range(50):
            instance = random_instance(rng)
            log = run_sequence(instance, CFG)
            for ev in log.events:
                for _, _, overlap in ev.matches:
                    assert overlap >= CFG.iou_threshold


class TestRunSequence:
    def test_results_equal_gt(self):
        gt_entries = [gt(t, i, 30 * i, 0) for t in range(1, 6) for i in (1, 2, 3)]
        results = [hyp(e.frame, e.track_id + 100, e.box.left, e.box.top)
                   for e in gt_entries]
        log = run_sequence(seq("perfect", 5, gt_entries, results), CFG)
        tp, fp, fn, idsw = totals(log)
        assert (tp, fp, fn, idsw) == (15, 0, 0, 0)
        assert matched_frames(log) == {i: {1, 2, 3, 4, 5} for i in (1, 2, 3)}

    def test_empty_results(self):
        gt_entries = [gt(t, 1, 0, 0) for t in range(1, 6)]
        gt_entries += [gt(1, 2, 50, 50, conf=0.0)]  # inactive: not a miss
        log = run_sequence(seq("empty", 5, gt_entries, []), CFG)
        tp, fp, fn, idsw = totals(log)
        assert (tp, fp, fn, idsw) == (0, 0, 5, 0)

    @pytest.mark.parametrize("build", ALL_SCENARIOS, ids=lambda b: b.__name__)
    def test_canonical_scenarios(self, build):
        instance = build()
        expected = SCENARIO_EXPECTATIONS[instance.name]
        log = run_sequence(instance, CFG)
        counts = accumulate(log)
        assert (counts.tp, counts.fp, counts.fn, counts.idsw, counts.fm) == expected

    def test_gap_scenario_details(self):
        from conftest import scenario_gap_then_new_hypothesis

        log = run_sequence(scenario_gap_then_new_hypothesis(), CFG)
        by_frame = {ev.frame: ev for ev in log.events}
        assert by_frame[3].fn_ids == (1,)
        assert by_frame[4].idsw_ids == (1,)
        matched = matched_frames(log)[1]
        timeline = [t in matched for t in range(1, 7)]
        assert timeline == [True, True, False, True, True, True]

    def test_event_totals_balance_with_kept_boxes(self):
        rng = random.Random(4)
        for _ in range(30):
            instance = random_instance(rng)
            log = run_sequence(instance, CFG)
            tp, fp, fn, _ = totals(log)
            assert tp + fn == instance.gt.scoreable.sum()
            # without neutral classes in the fixture nothing is removed
            assert tp + fp == len(instance.results)


class TestOracleAgreement:
    def test_against_exhaustive_enumeration(self, rng):
        for _ in range(120):
            instance = random_instance(rng)
            log = run_sequence(instance, CFG)
            _, fp, fn, idsw = totals(log)
            assert (fp, fn, idsw) == oracle_clear_counts(instance)

    def test_relabeling_hypotheses_changes_nothing(self, rng):
        for _ in range(40):
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
            a = totals(run_sequence(instance, CFG))
            b = totals(run_sequence(relabeled, CFG))
            assert a == b


def _random_edges(rng: random.Random):
    """A seeded random edge list: ``(rows, cols, cost, rank)`` arrays.

    Sides are rectangular with sparse, non-contiguous ids; densities run from
    sparse to complete; costs are continuous floats, quarter steps, small
    integers (ties everywhere) or wide integers; ranks are ``i * m + j`` in
    id order, sometimes scaled up to the size of identity ranks.
    """
    row_ids = sorted(rng.sample(range(40), rng.randint(1, 9)))
    col_ids = sorted(rng.sample(range(40), rng.randint(1, 9)))
    density = rng.choice([0.15, 0.3, 0.6, 1.0])
    pairs = [(i, j) for i in range(len(row_ids)) for j in range(len(col_ids))
             if rng.random() < density]
    if not pairs:
        pairs = [(0, 0)]
    kind = rng.choice(["float", "quarter", "small", "wide"])
    draw = {
        "float": lambda: rng.uniform(0.0, 0.5),
        "quarter": lambda: rng.randint(0, 4) / 4,
        "small": lambda: rng.randint(0, 3),
        "wide": lambda: rng.randint(0, 10**6),
    }[kind]
    dtype = np.float64 if kind in ("float", "quarter") else np.int64
    scale = rng.choice([1, 1, 10**4])
    i, j = np.array(pairs).T
    return (np.take(row_ids, i), np.take(col_ids, j),
            np.array([draw() for _ in pairs], dtype=dtype), (i * len(col_ids) + j) * scale)


def _scipy_optimum(rows, cols, cost, banned=None):
    """(size, total cost, pairs) of the max-cardinality min-cost matching.

    Solved densely by ``scipy.optimize.linear_sum_assignment`` (from the
    ``test`` extra; the runtime never imports scipy) with a missing pair
    priced above any matching's cost; ``banned`` is one edge index left out
    of the graph.
    """
    from scipy.optimize import linear_sum_assignment

    row_ids, r = np.unique(rows, return_inverse=True)
    col_ids, c = np.unique(cols, return_inverse=True)
    missing = (min(len(row_ids), len(col_ids)) + 1) * (float(np.abs(cost).max()) + 1.0)
    matrix = np.full((len(row_ids), len(col_ids)), missing)
    feasible = np.zeros(matrix.shape, dtype=bool)
    for e in range(len(rows)):
        if e != banned:
            matrix[r[e], c[e]] = cost[e]
            feasible[r[e], c[e]] = True
    a, b = linear_sum_assignment(matrix)
    keep = feasible[a, b]
    chosen = {(int(row_ids[x]), int(col_ids[y])) for x, y in zip(a[keep], b[keep])}
    return len(chosen), float(matrix[a[keep], b[keep]].sum()), chosen


class TestSolveAssignment:
    def test_agrees_with_scipy_on_random_instances(self):
        # Same cardinality and optimum cost always; the same pairs wherever
        # the optimum is unique: every other matching of that size drops an
        # edge of it, so it is unique when banning each chosen edge in turn
        # leaves fewer pairs or a higher cost.
        rng = random.Random(606)
        unique = short = 0
        for _ in range(2400):
            rows, cols, cost, rank = _random_edges(rng)
            chosen = solve_assignment(rows, cols, cost, rank)
            assert chosen == sorted(set(chosen))
            pairs = {(int(rows[e]), int(cols[e])) for e in chosen}
            assert len({r for r, _ in pairs}) == len({c for _, c in pairs}) == len(pairs)
            size, total, expected = _scipy_optimum(rows, cols, cost)
            assert len(pairs) == size
            assert float(cost[chosen].sum()) == pytest.approx(total, rel=1e-12, abs=1e-9)
            short += size < len(set(rows.tolist()))
            if all(
                alt_size < size or alt_total > total + 1e-9
                for alt_size, alt_total, _ in (
                    _scipy_optimum(rows, cols, cost, banned=e) for e in chosen
                )
            ):
                unique += 1
                assert pairs == expected
        assert unique > 1000 and short > 300

    def test_large_sparse_components_agree_with_scipy(self):
        # Identity-sized components: hundreds of nodes a side, a few edges
        # each, integer costs and ranks in the tens of millions.
        rng = random.Random(885)
        for n in (150, 400, 885):
            rows = np.repeat(np.arange(n), 3)
            cols = np.array([rng.randrange(n) for _ in rows])
            rows, cols = np.unique(np.column_stack([rows, cols]), axis=0).T
            cost = np.array([rng.randint(0, 300) for _ in rows], dtype=np.int64)
            chosen = solve_assignment(rows, cols, cost, rows * 4251 + cols)
            size, total, _ = _scipy_optimum(rows, cols, cost)
            assert (len(chosen), int(cost[chosen].sum())) == (size, total)
