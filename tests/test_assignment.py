"""Matching-protocol tests: preprocessing, carryover, switches, oracles.

The named cases of preprocessing and frame matching run on the sequence
pass (``preprocess_sequence``, ``run_sequence``) and on the per-frame
reference of ``oracles``, and both must agree; a case that needs a
hand-set carryover or last-known state runs on the reference alone.
"""

import random
import time
from collections import defaultdict

import numpy as np
import pytest

from motbench.assignment import (
    _edge_components,
    preprocess_sequence,
    run_sequence,
    solve_assignment,
)
from motbench.clearmot import accumulate
from motbench.model import ObjectClass, Rows
from conftest import (
    ALL_SCENARIOS,
    SCENARIO_EXPECTATIONS,
    crowd,
    gt,
    hyp,
    random_instance,
    seq,
)
from oracles import (
    frame_events,
    iou,
    match_frame,
    oracle_clear_counts,
    per_frame_reference,
    preprocess_frame,
    tie_order_ranking,
)

IOU = 0.5


def totals(log):
    events = frame_events(log)
    tp = sum(len(ev.matches) for ev in events)
    fp = sum(len(ev.fp_ids) for ev in events)
    fn = sum(len(ev.fn_ids) for ev in events)
    idsw = sum(len(ev.idsw_ids) for ev in events)
    return tp, fp, fn, idsw


def matched_frames(log) -> dict[int, set[int]]:
    """Frames in which each ground-truth track was matched."""
    out: dict[int, set[int]] = {}
    for ev in frame_events(log):
        for gt_id, _, _ in ev.matches:
            out.setdefault(gt_id, set()).add(ev.frame)
    return out


def kept(gt_frame, res_frame):
    """``(gt_ids, res_ids, overlaps)`` of one frame preprocessed by the reference."""
    gt_ids, res_ids, _, overlaps = preprocess_frame(Rows.of(gt_frame), Rows.of(res_frame), IOU)
    return gt_ids, res_ids, overlaps


def preprocessed(gt_frame, res_frame):
    """``(gt_ids, res_ids, removed_ids)`` of frame 1 by ``preprocess_sequence``.

    The removed ids are the result ids the edge table does not keep; the
    reference must give the same three lists.
    """
    table = preprocess_sequence(seq("frame", 1, gt_frame, res_frame), IOU)
    res_ids = table.res_id.tolist()
    out = (table.gt_id.tolist(), res_ids,
           sorted({e.track_id for e in res_frame} - set(res_ids)))
    assert preprocess_frame(Rows.of(gt_frame), Rows.of(res_frame), IOU)[:3] == out
    return out


def last_frame_events(gts, preds):
    """The last frame's events by ``run_sequence``; the reference must agree."""
    instance = seq("frames", max(e.frame for e in [*gts, *preds]), gts, preds)
    events = frame_events(run_sequence(preprocess_sequence(instance, IOU)))
    assert events == per_frame_reference(instance, IOU)[0]
    return events[-1]


class TestPreprocessFrame:
    def test_result_on_static_person_removed(self):
        gt_frame = [gt(1, 1, 0, 0, object_class=ObjectClass.STATIC_PERSON)]
        res_frame = [hyp(1, 9, 0, 1)]  # IoU 0.818 with the static person
        gt_ids, res_ids, removed = preprocessed(gt_frame, res_frame)
        assert gt_ids == []
        assert res_ids == []
        assert removed == [9]

    def test_pedestrian_only_frame_is_a_no_op(self):
        gt_frame = [gt(1, 1, 0, 0), gt(1, 2, 50, 50)]
        res_frame = [hyp(1, 8, 0, 0), hyp(1, 9, 200, 200)]
        gt_ids, res_ids, removed = preprocessed(gt_frame, res_frame)
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
        gt_ids, res_ids, removed = preprocessed(gt_frame, res_frame)
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
        _, res_ids, removed = preprocessed(gt_frame, res_frame)
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
        gt_ids, res_ids, removed = preprocessed(gt_frame, res_frame)
        assert res_ids == []
        assert removed == [9]
        assert gt_ids == [1]  # the pedestrian still scores

    def test_inactive_entries_never_score(self):
        gt_frame = [gt(1, 1, 0, 0, conf=0.0), gt(1, 2, 30, 30)]
        gt_ids, _, _ = preprocessed(gt_frame, [])
        assert gt_ids == [2]

    def test_inactive_neutral_entry_still_absorbs_followers(self):
        # the reflection is flagged inactive yet the evaluation still drops
        # the hypothesis glued to it
        gt_frame = [gt(1, 1, 0, 0, conf=0.0, object_class=ObjectClass.REFLECTION)]
        res_frame = [hyp(1, 9, 0, 1)]
        _, res_ids, removed = preprocessed(gt_frame, res_frame)
        assert res_ids == []
        assert removed == [9]

    def test_non_pedestrian_classes_never_score(self):
        gt_frame = [gt(1, 1, 0, 0, object_class=ObjectClass.CAR)]
        gt_ids, res_ids, removed = preprocessed(gt_frame, [hyp(1, 9, 0, 0)])
        assert gt_ids == []
        # cars are not neutral: the follower is kept and will be a false positive
        assert res_ids == [9]

    def test_overlaps_are_the_iou_of_the_kept_boxes(self):
        # the one edge table every later stage reads, on the criterion 4
        # stream: each stored overlap is bit-equal to the scalar iou of its
        # two boxes, and each kept same-frame pair left out is below threshold
        rng = random.Random(500500)
        for _ in range(200):
            instance = random_instance(rng)
            gt_box = {(e.frame, e.track_id): e.box for e in instance.gt}
            res_box = {(e.frame, e.track_id): e.box for e in instance.results}
            table = preprocess_sequence(instance, IOU)
            gt_rows = list(zip(table.gt_frame.tolist(), table.gt_id.tolist()))
            res_rows = list(zip(table.res_frame.tolist(), table.res_id.tolist()))
            stored = {}
            for t, i, j, overlap in zip(table.frame.tolist(), table.gt_row.tolist(),
                                        table.res_row.tolist(), table.iou.tolist()):
                (gt_t, gt_id), (res_t, pred_id) = gt_rows[i], res_rows[j]
                assert gt_t == res_t == t
                assert overlap == iou(gt_box[t, gt_id], res_box[t, pred_id])
                assert overlap >= IOU
                stored[t, gt_id, pred_id] = overlap
            assert list(stored) == sorted(stored)
            for t, gt_id in gt_rows:
                for res_t, pred_id in res_rows:
                    if res_t == t and (t, gt_id, pred_id) not in stored:
                        assert iou(gt_box[t, gt_id], res_box[t, pred_id]) < IOU

    @pytest.mark.parametrize("iou_threshold", [0.0, -1.0, 1.5, float("nan")])
    def test_thresholds_outside_the_unit_interval_rejected(self, iou_threshold):
        # the message the command line prints after "error: " for --iou
        instance = seq("one", 1, [gt(1, 1, 0, 0)], [hyp(1, 7, 0, 0)])
        with pytest.raises(ValueError) as raised:
            preprocess_sequence(instance, iou_threshold)
        assert str(raised.value) == f"iou_threshold must be in (0, 1], got {iou_threshold}"


class TestMatchFrame:
    def test_perfect_one_to_one(self):
        gt_frame = [gt(1, 1, 0, 0), gt(1, 2, 30, 0)]
        res_frame = [hyp(1, 8, 0, 0), hyp(1, 9, 30, 0)]
        events, assignment = match_frame(*kept(gt_frame, res_frame), {}, {}, IOU, frame=1)
        assert {(g, p) for g, p, _ in events.matches} == {(1, 8), (2, 9)}
        assert events.fp_ids == () and events.fn_ids == () and events.idsw_ids == ()
        assert assignment == {1: 8, 2: 9}
        assert last_frame_events(gt_frame, res_frame) == events

    def test_carryover_beats_closer_hypothesis(self):
        gt_frame = [gt(2, 1, 0, 0)]
        res_frame = [hyp(2, 8, 0, 3), hyp(2, 9, 0, 1)]  # 9 is closer
        events, assignment = match_frame(*kept(gt_frame, res_frame), {1: 8}, {1: 8}, IOU,
                                         frame=2)
        assert assignment == {1: 8}
        assert events.fp_ids == (9,)
        assert events.idsw_ids == ()
        # frame 1 matches 1 to 8 alone
        assert last_frame_events([gt(1, 1, 0, 0), *gt_frame],
                                 [hyp(1, 8, 0, 3), *res_frame]) == events

    def test_without_carryover_the_closer_hypothesis_wins(self):
        # reference alone: no previous match but a last known one
        gt_frame = [gt(2, 1, 0, 0)]
        res_frame = [hyp(2, 8, 0, 3), hyp(2, 9, 0, 1)]
        events, assignment = match_frame(*kept(gt_frame, res_frame), {}, {1: 8}, IOU)
        assert assignment == {1: 9}
        assert events.idsw_ids == (1,)

    def test_broken_carryover_frees_both_sides(self):
        gt_frame = [gt(2, 1, 0, 0)]
        res_frame = [hyp(2, 8, 0, 40), hyp(2, 9, 0, 2)]
        events, assignment = match_frame(*kept(gt_frame, res_frame), {1: 8}, {1: 8}, IOU,
                                         frame=2)
        assert assignment == {1: 9}
        assert events.fp_ids == (8,)
        assert events.idsw_ids == (1,)
        # frame 1 matches 1 to 8 alone
        assert last_frame_events([gt(1, 1, 0, 0), *gt_frame],
                                 [hyp(1, 8, 0, 0), *res_frame]) == events

    def test_switch_requires_a_previous_assignment(self):
        gt_frame = [gt(1, 1, 0, 0)]
        res_frame = [hyp(1, 9, 0, 0)]
        events, _ = match_frame(*kept(gt_frame, res_frame), {}, {}, IOU, frame=1)
        assert events.idsw_ids == ()
        assert last_frame_events(gt_frame, res_frame) == events

    def test_exact_tie_beside_an_unmatchable_target_keeps_the_earlier_pair(self):
        # frame 4 of the 4-px grid instance of seed 1913: GT 1 has no
        # feasible pair, GT 2 overlaps 101 and 103 at exactly 2/3; the earlier
        # pair (2, 101) continues the identity, so nothing switches.
        # Reference alone: no previous match but a last known one.
        gt_frame = [gt(4, 1, 0, 8, 8, 12), gt(4, 2, 4, 24, 12, 8)]
        res_frame = [
            hyp(4, 101, 4, 24, 8, 8), hyp(4, 102, 4, 40, 8, 8), hyp(4, 103, 8, 24, 8, 8)
        ]
        events, assignment = match_frame(*kept(gt_frame, res_frame), {}, {2: 101}, IOU)
        assert assignment == {2: 101}
        assert events.idsw_ids == ()
        assert events.fn_ids == (1,) and events.fp_ids == (102, 103)

    def test_all_match_overlaps_meet_threshold(self):
        rng = random.Random(2)
        for _ in range(50):
            instance = random_instance(rng)
            log = run_sequence(preprocess_sequence(instance, IOU))
            assert (log.table.iou[log.matched] >= IOU).all()


class TestRunSequence:
    def test_results_equal_gt(self):
        gt_entries = [gt(t, i, 30 * i, 0) for t in range(1, 6) for i in (1, 2, 3)]
        results = [hyp(e.frame, e.track_id + 100, e.box.left, e.box.top)
                   for e in gt_entries]
        log = run_sequence(preprocess_sequence(seq("perfect", 5, gt_entries, results), IOU))
        tp, fp, fn, idsw = totals(log)
        assert (tp, fp, fn, idsw) == (15, 0, 0, 0)
        assert matched_frames(log) == {i: {1, 2, 3, 4, 5} for i in (1, 2, 3)}

    def test_empty_results(self):
        gt_entries = [gt(t, 1, 0, 0) for t in range(1, 6)]
        gt_entries += [gt(1, 2, 50, 50, conf=0.0)]  # inactive: not a miss
        log = run_sequence(preprocess_sequence(seq("empty", 5, gt_entries, []), IOU))
        tp, fp, fn, idsw = totals(log)
        assert (tp, fp, fn, idsw) == (0, 0, 5, 0)

    @pytest.mark.parametrize("build", ALL_SCENARIOS, ids=lambda b: b.__name__)
    def test_canonical_scenarios(self, build):
        instance = build()
        expected = SCENARIO_EXPECTATIONS[instance.name]
        log = run_sequence(preprocess_sequence(instance, IOU))
        counts = accumulate(log)
        assert (counts.tp, counts.fp, counts.fn, counts.idsw, counts.fm) == expected

    def test_gap_scenario_details(self):
        from conftest import scenario_gap_then_new_hypothesis

        log = run_sequence(preprocess_sequence(scenario_gap_then_new_hypothesis(), IOU))
        by_frame = {ev.frame: ev for ev in frame_events(log)}
        assert by_frame[3].fn_ids == (1,)
        assert by_frame[4].idsw_ids == (1,)
        matched = matched_frames(log)[1]
        timeline = [t in matched for t in range(1, 7)]
        assert timeline == [True, True, False, True, True, True]

    def test_event_totals_balance_with_kept_boxes(self):
        rng = random.Random(4)
        for _ in range(30):
            instance = random_instance(rng)
            log = run_sequence(preprocess_sequence(instance, IOU))
            tp, fp, fn, _ = totals(log)
            assert tp + fn == instance.gt.scoreable.sum()
            # without neutral classes in the fixture nothing is removed
            assert tp + fp == len(instance.results)

    def test_carried_pairs_are_looked_up_in_constant_time(self):
        # 1600 targets in each of 5 frames, each with its identical carried
        # hypothesis and a conflicting one 1 px off: 16,000 edges.  Scanning
        # the carried pairs once per edge took 0.17-0.24 s on a 2-vCPU
        # x86_64 VM, set lookups about 0.05 s.
        n = 1600
        gts = [gt(t, k, 30 * k, 0) for t in range(1, 6) for k in range(1, n + 1)]
        preds = [hyp(t, k + shift * n, 30 * k + shift, 0)
                 for t in range(1, 6) for k in range(1, n + 1) for shift in (0, 1)]
        instance = seq("crowd", 5, gts, preds)
        table = preprocess_sequence(instance, IOU)
        assert len(table.iou) == 16_000
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            log = run_sequence(table)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.12, elapsed
        assert (table.res_id[table.res_row[log.matched]] <= n).all()
        assert log.matched.sum() == 5 * n and not log.switch.any()

    def test_crowded_frames_cost_their_nearby_pairs(self):
        # 1600 people in each of 5 frames, each with a hypothesis a few px
        # off: 12.8 M same-frame pairs, 9879 of them at IoU 0.5 or more.
        # Scoring every pair took 0.29-0.41 s on a 2-vCPU x86_64 VM, the
        # windowed pass 0.026 s.
        rng = random.Random(8)
        rows = crowd(5, 1600, seed=3)
        gts = [gt(t, k, x, y, w, h) for t, k, x, y, w, h in rows]
        preds = [hyp(t, k + 1600, x + rng.randint(-3, 3), y + rng.randint(-3, 3), w, h)
                 for t, k, x, y, w, h in rows]
        instance = seq("crowd", 5, gts, preds)
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            table = preprocess_sequence(instance, IOU)
            elapsed.append(time.perf_counter() - start)
        assert len(table.iou) == 9879
        assert min(elapsed) < 0.15, elapsed


class TestOracleAgreement:
    def test_against_exhaustive_enumeration(self, rng):
        for _ in range(120):
            instance = random_instance(rng)
            log = run_sequence(preprocess_sequence(instance, IOU))
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
            a = totals(run_sequence(preprocess_sequence(instance, IOU)))
            b = totals(run_sequence(preprocess_sequence(relabeled, IOU)))
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
        assert solve_assignment([], [], [], []) == []
        rng = random.Random(606)
        unique = short = 0
        for _ in range(2400):
            rows, cols, cost, rank = _random_edges(rng)
            chosen = solve_assignment(rows.tolist(), cols.tolist(), cost.tolist(), rank.tolist())
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

    def test_a_cost_difference_of_the_resolution_decides_before_rank(self):
        # Costs 0.3 + d and 0.3: at d of 1e-9 or more the cheaper edge wins
        # even 10**6 ranks behind, on a shared row and on a shared column.
        for d in (2e-9, 1e-8):
            assert solve_assignment([0, 0], [0, 1], [0.3 + d, 0.3], [0, 10**6]) == [1]
            assert solve_assignment([0, 1], [0, 0], [0.3 + d, 0.3], [0, 10**6]) == [1]
        # At ranks 0 and 1: costs count in 1e-9 units rounded half up, so a d
        # under half a unit ties and rank 0 wins, and from half a unit up the
        # cheaper edge wins.
        for d, winner in ((1e-10, 0), (4e-10, 0), (6e-10, 1), (9e-10, 1), (2e-9, 1)):
            assert solve_assignment([0, 0], [0, 1], [0.3 + d, 0.3], [0, 1]) == [winner]
            assert solve_assignment([0, 1], [0, 0], [0.3 + d, 0.3], [0, 1]) == [winner]

    def test_without_most_pairs_agrees_with_enumeration(self):
        # Any node may stay unmatched: the chosen edges must form a matching
        # with the lowest summed cost, then the lowest summed rank, among all
        # matchings, the empty one included.  Most costs are -1 and a few are
        # heavier, so equal totals are common and the optimum often leaves
        # out a pair that the most-pairs matching takes.
        rng = random.Random(1107)
        fewer = 0  # instances whose optimum has fewer pairs than the most
        for _ in range(2400):
            row_ids = sorted(rng.sample(range(30), rng.randint(1, 6)))
            col_ids = sorted(rng.sample(range(30), rng.randint(1, 6)))
            density = rng.choice([0.3, 0.5, 0.8, 1.0])
            pairs = [(i, j) for i in range(len(row_ids)) for j in range(len(col_ids))
                     if rng.random() < density] or [(0, 0)]
            i, j = np.array(pairs).T
            rows, cols = np.take(row_ids, i), np.take(col_ids, j)
            heavy = rng.choice([1, 2, 3, 5])
            cost = -np.array([rng.choice([1, 1, heavy]) for _ in pairs], dtype=np.int64)
            rank = (i * len(col_ids) + j) * rng.choice([1, 1, 10**4])
            chosen = solve_assignment(rows.tolist(), cols.tolist(), cost.tolist(), rank.tolist(),
                                      most_pairs=False)
            assert chosen == sorted(set(chosen))
            assert len(set(rows[chosen].tolist())) == len(set(cols[chosen].tolist())) == len(chosen)

            by_row = defaultdict(list)
            for e, r in enumerate(rows.tolist()):
                by_row[r].append(e)

            def best(rest, used):
                """Lowest (cost, rank) over matchings of the rows in ``rest``."""
                if not rest:
                    return (0, 0)
                options = [best(rest[1:], used)]
                for e in by_row[rest[0]]:
                    if cols[e] not in used:
                        c, r = best(rest[1:], used | {int(cols[e])})
                        options.append((c + int(cost[e]), r + int(rank[e])))
                return min(options)

            assert (int(cost[chosen].sum()), int(rank[chosen].sum())) == best(sorted(by_row), set())
            fewer += len(chosen) < len(solve_assignment(rows.tolist(), cols.tolist(),
                                                        cost.tolist(), rank.tolist()))
        assert fewer > 50

    def test_large_sparse_components_agree_with_scipy(self):
        # Identity-sized components: hundreds of nodes a side, a few edges
        # each, integer costs and ranks in the tens of millions; then one
        # path of 1999 edges alternating row and column under shuffled ids,
        # one component whose ids do not follow the path.
        rng = random.Random(885)

        def check(rows, cols):
            cost = np.array([rng.randint(0, 300) for _ in rows], dtype=np.int64)
            chosen = solve_assignment(rows.tolist(), cols.tolist(), cost.tolist(),
                                      (rows * 4251 + cols).tolist())
            size, total, _ = _scipy_optimum(rows, cols, cost)
            assert (len(chosen), int(cost[chosen].sum())) == (size, total)

        for n in (150, 400, 885):
            rows = np.repeat(np.arange(n), 3)
            cols = np.array([rng.randrange(n) for _ in rows])
            check(*np.unique(np.column_stack([rows, cols]), axis=0).T)
        row_id, col_id = rng.sample(range(1000), 1000), rng.sample(range(1000), 1000)
        step = np.arange(1000)
        check(np.take(row_id, np.r_[step, step[1:]]), np.take(col_id, np.r_[step, step[:-1]]))


#: Overlaps of integer-pixel boxes at or above 0.5, few enough that equal
#: costs are everywhere.
_GRID_IOUS = (1 / 2, 4 / 7, 3 / 5, 2 / 3, 3 / 4, 1.0)


def _conflict_frame(rng: random.Random) -> tuple[list[tuple[int, int, float, int]], list[int]]:
    """One frame's conflicting edges as ``(row, col, iou, part)``, and its component sizes.

    Each component has rows and columns of its own: a star on a row or a
    column, 2 x 2 mirrored twins (each pair's overlap equals its mirror's),
    a chain alternating row and column, a random block or one edge; each
    holds 1 to 12 edges, and ``part`` numbers the component of an edge.  Ids
    are shuffled across the components and the edges come in (row, col)
    order, as a conflict frame has them, or shuffled.
    """
    edges, sizes, n_rows, n_cols = [], [], 0, 0
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["row star", "col star", "twins", "chain", "block", "single"])
        iou = lambda: rng.choice(_GRID_IOUS)  # noqa: E731
        if kind in ("row star", "col star"):
            k = rng.randint(2, 12)
            part = [(0, c, iou()) for c in range(k)]
            if kind == "col star":
                part = [(c, 0, o) for _, c, o in part]
        elif kind == "twins":
            a, b = iou(), iou()
            part = [(0, 0, a), (0, 1, b), (1, 0, b), (1, 1, a)]
        elif kind == "chain":
            k = rng.randint(1, 12)
            part = [((e + 1) // 2, e // 2, iou()) for e in range(k)]
        elif kind == "block":
            h, w = rng.randint(1, 3), rng.randint(1, 3)
            cells = [(i, j) for i in range(h) for j in range(w)]
            # a spanning path keeps the block one component
            path = [(i, i) for i in range(min(h, w))] + [(i, 0) for i in range(w, h)]
            path += [(0, j) for j in range(h, w)] + [(i, i - 1) for i in range(1, min(h, w))]
            extra = [c for c in cells if c not in path and rng.random() < 0.5]
            part = [(i, j, iou()) for i, j in sorted(set(path + extra))]
        else:
            part = [(0, 0, iou())]
        edges += [(n_rows + i, n_cols + j, o, len(sizes)) for i, j, o in part]
        n_rows += max(i for i, _, _ in part) + 1
        n_cols += max(j for _, j, _ in part) + 1
        sizes.append(len(part))
    row_id, col_id = rng.sample(range(n_rows), n_rows), rng.sample(range(n_cols), n_cols)
    edges = [(row_id[i], col_id[j], o, k) for i, j, o, k in edges]
    if rng.random() < 0.5:
        edges.sort()
    else:
        rng.shuffle(edges)
    return edges, sizes


class TestSplit:
    def test_solves_each_component_alone(self):
        # A call over a frame's edges must take exactly the union of the
        # calls over each part that _conflict_frame built, alone.  Tie-heavy
        # frames, ranked i * m + j as _match ranks them, with overlap costs;
        # then the same frames with most_pairs=False and negative integer
        # costs, as identity has them.
        rng, counts = random.Random(2222), random.Random(2223)
        sizes = set()
        for _ in range(2400):
            edges, frame_sizes = _conflict_frame(rng)
            sizes.update(frame_sizes)
            rows = [i for i, _, _, _ in edges]
            cols = [j for _, j, _, _ in edges]
            m = max(cols) + 1
            rank = [i * m + j for i, j in zip(rows, cols)]
            parts = defaultdict(list)
            for e, (_, _, _, part) in enumerate(edges):
                parts[part].append(e)
            for most_pairs, cost in (
                (True, [1.0 - o for _, _, o, _ in edges]),
                (False, [-counts.randint(1, 3) for _ in edges]),
            ):
                expected = []
                for part in parts.values():
                    expected += [part[k] for k in solve_assignment(
                        *([x[e] for e in part] for x in (rows, cols, cost, rank)),
                        most_pairs=most_pairs)]
                chosen = solve_assignment(rows, cols, cost, rank, most_pairs=most_pairs)
                assert chosen == sorted(expected), (edges, cost)
        assert sizes == set(range(1, 13))
        assert solve_assignment([], [], [], []) == []


class TestTieOrder:
    def test_agrees_with_the_tie_order_oracle(self):
        # Every part of up to 8 edges of tie-heavy frames, costs 1 - IoU on
        # the integer grid with most pairs, negative integers without: the
        # solver reaches the oracle's best levels, so it takes the oracle's
        # edges wherever one matching alone has them.  Some parts still tie
        # on every level, as the README's three-way cycle does.
        rng, counts = random.Random(2929), random.Random(2930)
        unique = by_squares = 0
        for _ in range(1500):
            edges, _ = _conflict_frame(rng)
            m = max(j for _, j, _, _ in edges) + 1
            parts = defaultdict(list)
            for i, j, o, part in edges:
                parts[part].append((i, j, o))
            for part in parts.values():
                if len(part) > 8:
                    continue
                rows = [i for i, _, _ in part]
                cols = [j for _, j, _ in part]
                rank = [i * m + j for i, j in zip(rows, cols)]
                for most_pairs, cost in (
                    (True, [1.0 - o for _, _, o in part]),
                    (False, [-counts.randint(1, 3) for _ in part]),
                ):
                    ranked = tie_order_ranking(rows, cols, cost, rank, most_pairs=most_pairs)
                    levels = {tuple(picked): level for level, picked in ranked}
                    best = [picked for level, picked in ranked if level == ranked[0][0]]
                    chosen = solve_assignment(rows, cols, cost, rank, most_pairs=most_pairs)
                    assert levels[tuple(chosen)] == ranked[0][0], (part, cost)
                    if len(best) == 1:
                        unique += 1
                        by_squares += ranked[1][0][:3] == ranked[0][0][:3]
        assert unique > 5000 and by_squares > 200

    @pytest.mark.parametrize("n", [5, 10, 20, 40, 60])
    def test_additive_costs_pair_in_order(self, n):
        # Costs a_i + b_j tie every permutation on cost and on summed rank
        # i * n + j; the largest summed squared rank pairs the diagonal.
        rng = random.Random(n)
        steps = (0, 0.1, 0.125, 0.25, 0.3)
        for _ in range(3):
            a = [rng.choice(steps) for _ in range(n)]
            b = [rng.choice(steps) for _ in range(n)]
            rows = [i for i in range(n) for _ in range(n)]
            cols = [j for _ in range(n) for j in range(n)]
            chosen = solve_assignment(rows, cols, [a[i] + b[j] for i, j in zip(rows, cols)],
                                      [i * n + j for i, j in zip(rows, cols)])
            assert [(rows[e], cols[e]) for e in chosen] == [(i, i) for i in range(n)]


class TestEdgeComponents:
    def test_labels_agree_with_breadth_first_search(self):
        # Each edge's label is the lowest row id of its component.
        rng = random.Random(515)
        for _ in range(400):
            n_rows, n_cols = rng.randint(1, 30), rng.randint(1, 30)
            m = rng.randint(1, 60)
            a = np.array([rng.randrange(n_rows) for _ in range(m)])
            b = np.array([rng.randrange(n_cols) for _ in range(m)])
            adjacent = defaultdict(set)
            for x, y in zip(a.tolist(), b.tolist()):
                adjacent[("row", x)].add(("col", y))
                adjacent[("col", y)].add(("row", x))
            lowest = {}
            for start in adjacent:
                if start in lowest:
                    continue
                members = [start]
                seen = {start}
                for node in members:
                    for other in adjacent[node] - seen:
                        seen.add(other)
                        members.append(other)
                low = min(x for side, x in members if side == "row")
                lowest.update(dict.fromkeys(members, low))
            assert _edge_components(a, b).tolist() == [lowest[("row", x)] for x in a.tolist()]

    def test_shuffled_chain_labels_in_under_a_second(self):
        # A path alternating row and column under shuffled ids; labelling by
        # propagating the lowest label along edges took seconds here.
        n = 16000
        gen = np.random.default_rng(16000)
        row_id, col_id = gen.permutation(n), gen.permutation(n)
        step = np.arange(n)
        a, b = row_id[np.r_[step, step[1:]]], col_id[np.r_[step, step[:-1]]]
        start = time.perf_counter()
        label = _edge_components(a, b)
        assert time.perf_counter() - start < 1.0
        assert (label == 0).all()
