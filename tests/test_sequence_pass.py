"""The sequence pass pinned to the per-frame reference.

``preprocess_sequence`` and ``run_sequence`` score a whole sequence from one
edge table; ``oracles.preprocess_frame`` and ``oracles.match_frame`` are the
protocol frame by frame.  On every stream here both routes must give the same
events, counts, identity table, identity scores and identity pairing; the
counts of the sequence pass, read from columns, must equal the per-frame
counting of the reference events.
"""

import dataclasses
import random
from collections import Counter

import numpy as np
import pytest

import motbench.assignment as assignment
import motbench.model as model
from motbench.assignment import (
    preprocess_sequence,
    run_sequence,
    solve_assignment,
)
from motbench.clearmot import accumulate
from motbench.identity import build_table, solve_identity
from motbench.model import ObjectClass
from conftest import (
    entries, gt, hyp, random_instance, rows, seq, snap_to_grid, table_counts, track_table,
)
from oracles import (
    _frame_rows,
    frame_events,
    per_frame_counts,
    per_frame_reference,
    preprocess_frame,
)

IOU = 0.5


def assert_pinned(instance, iou_threshold=IOU):
    table = preprocess_sequence(instance, iou_threshold)
    assert len(table) == instance.num_frames
    log = run_sequence(table)
    ref_events, ref_counts = per_frame_reference(instance, iou_threshold)
    assert frame_events(log) == ref_events
    assert accumulate(log) == per_frame_counts(ref_events, instance.num_frames)
    identity_table = build_table(table)
    assert table_counts(identity_table) == ref_counts
    scores = solve_identity(identity_table)
    ref_scores = solve_identity(track_table(*ref_counts))
    assert scores == ref_scores
    assert scores.matches == ref_scores.matches


#: GT track classes for :func:`with_classes`; pedestrians take half.
_CLASSES = [ObjectClass.PEDESTRIAN] * 4 + [
    ObjectClass.PERSON_ON_VEHICLE, ObjectClass.STATIC_PERSON, ObjectClass.DISTRACTOR,
    ObjectClass.REFLECTION, ObjectClass.CAR, ObjectClass.OCCLUDER, ObjectClass.OTHER,
]


def with_classes(instance, rng: random.Random):
    """The instance with GT tracks of mixed classes and some inactive rows."""
    classes = {track: rng.choice(_CLASSES)
               for track in {e.track_id for e in entries(instance.gt)}}
    return dataclasses.replace(instance, gt=rows(
        e._replace(object_class=classes[e.track_id],
                   confidence=0.0 if rng.random() < 0.1 else 1.0)
        for e in entries(instance.gt)
    ))


def test_criterion_4_stream():
    rng = random.Random(500500)
    for _ in range(500):
        assert_pinned(random_instance(rng, max_tracks=4, max_frames=5))


def test_criterion_8_integer_grid_tie_stream():
    rng = random.Random(880088)
    instances = [random_instance(random.Random(s), 4, 5) for s in (1913, 2377, 2568)]
    instances += [random_instance(rng, max_tracks=4, max_frames=5) for _ in range(500)]
    for instance in map(snap_to_grid, instances):
        assert_pinned(instance)


def _conflicts(edges: list[tuple]) -> list[tuple]:
    """The ``(row, col, ...)`` edges that share a row or a column with another."""
    rows = Counter(edge[0] for edge in edges)
    cols = Counter(edge[1] for edge in edges)
    return sorted(edge for edge in edges if rows[edge[0]] > 1 or cols[edge[1]] > 1)


def _values(*columns) -> list[tuple]:
    """The edges of ``solve_assignment``'s columns, lists or arrays, as Python values."""
    return list(zip(*(np.asarray(column).tolist() for column in columns)))


def test_conflict_solves_get_the_ranks_of_match_frame(monkeypatch):
    # every assignment solve of the sequence pass, one solve_assignment call
    # per conflict frame, gets the rows, columns, costs and ranks that
    # match_frame passes to solve_assignment for that frame, positions among
    # the ids carryover left free; pairs that share no box with another pair
    # are left out on both sides, as their solve is trivial
    solves: list[list[tuple]] = []

    def spy(rows, cols, cost, rank):
        edges = _values(rows, cols, cost, rank)
        if _conflicts(edges):
            solves.append(_conflicts(edges))
        return solve_assignment(rows, cols, cost, rank)

    monkeypatch.setattr(assignment, "solve_assignment", spy)
    rng = random.Random(880088)
    checked = 0
    for _ in range(300):
        instance = snap_to_grid(random_instance(rng, max_tracks=7, max_frames=8))
        table = preprocess_sequence(instance, IOU)  # no neutral class: no solve
        solves.clear()
        run_sequence(table)
        sequence_solves = solves[:]
        solves.clear()
        per_frame_reference(instance)
        assert sequence_solves == solves
        checked += len(solves)
    assert checked > 100


def test_neutral_filter_solves_with_the_ranks_of_preprocess_frame(monkeypatch):
    # each pair the neutral-class filter of the sequence pass solves has the
    # cost and the rank i * m + j (positions in the frame) that
    # preprocess_frame gives it
    solves: list[list[tuple]] = []

    def spy(rows, cols, cost, rank):
        solves.append(_values(rows, cols, cost, rank))
        return solve_assignment(rows, cols, cost, rank)

    monkeypatch.setattr(assignment, "solve_assignment", spy)
    rng = random.Random(2024)
    checked = 0
    for _ in range(300):
        instance = snap_to_grid(with_classes(random_instance(rng, 7, 8), rng))
        gt_rows, res_rows = instance.gt.frame.tolist(), instance.results.frame.tolist()
        solves.clear()
        preprocess_sequence(instance, IOU)
        sequence = {
            (gt_rows[g], g - gt_rows.index(gt_rows[g]), r - res_rows.index(res_rows[r]), c, k)
            for g, r, c, k in (solves[0] if solves else [])
        }
        reference = set()
        for t in range(1, instance.num_frames + 1):
            solves.clear()
            preprocess_frame(_frame_rows(instance.gt, t), _frame_rows(instance.results, t), IOU)
            reference |= {(t, *edge) for edge in (solves[0] if solves else [])}
        assert sequence <= reference
        checked += len(sequence)
    assert checked > 100


@pytest.mark.parametrize("step", [2.0, 4.0, 8.0])
def test_crowded_grid_ties_with_neutral_classes(step):
    rng = random.Random(int(step) * 1009)
    for _ in range(150):
        instance = random_instance(rng, max_tracks=7, max_frames=8)
        assert_pinned(snap_to_grid(with_classes(instance, rng), step))


@pytest.mark.parametrize("threshold", [0.3, 0.5, 0.75])
def test_thresholds_with_neutral_classes(threshold):
    rng = random.Random(int(threshold * 100))
    for _ in range(150):
        assert_pinned(with_classes(random_instance(rng, 6, 6), rng), threshold)


def test_frames_with_one_side_only():
    gts = [gt(t, 1, 0, 0) for t in (1, 2, 4)] + [gt(t, 2, 40, 0) for t in (2, 3)]
    preds = [hyp(t, 7, 0, 1) for t in (1, 3, 4, 5)] + [hyp(5, 8, 40, 0)]
    assert_pinned(seq("one-sided", 5, gts, preds))


def test_no_results_and_trailing_empty_frames():
    gts = [gt(t, 1, 0, 0) for t in (1, 2, 3)] + [gt(2, 2, 5, 0)]
    assert_pinned(seq("no-results", 3, gts, []))
    assert_pinned(seq("no-results-tail", 9, gts, []))
    assert_pinned(seq("nothing", 4, [], []))
    preds = [hyp(t, 7, 0, 1) for t in (1, 2, 3)] + [hyp(2, 8, 4, 0)]
    assert_pinned(seq("tail", 12, gts, preds))


def test_frame_with_only_neutral_ground_truth():
    gts = [gt(1, 1, 0, 0), gt(1, 2, 30, 0)]
    gts += [gt(2, k, 12 * k, 0, object_class=ObjectClass.DISTRACTOR) for k in (3, 4)]
    gts += [gt(2, 5, 3, 2, object_class=ObjectClass.STATIC_PERSON)]
    preds = [hyp(1, 8, 0, 1), hyp(2, 8, 36, 1), hyp(2, 9, 3, 3), hyp(2, 10, 500, 0)]
    instance = seq("neutral-only", 2, gts, preds)
    assert_pinned(instance)
    events = frame_events(run_sequence(preprocess_sequence(instance, IOU)))[1]
    assert events.fn_ids == () and events.matches == () and events.fp_ids == (10,)


def test_frame_spans_pair_blocks(monkeypatch):
    # 190 x 190 boxes in one frame, more window candidates than one block
    # holds; a 10 px grid with 12 px boxes gives every box four feasible
    # neighbours at IoU 0.5 or more and ties throughout
    rng = random.Random(31)
    cells = [(12 * (k % 19), 12 * (k // 19)) for k in range(190)]
    gts = [gt(1, k + 1, x, y, 12, 12) for k, (x, y) in enumerate(cells)]
    gts += [gt(2, k + 1, x + 1, y, 12, 12) for k, (x, y) in enumerate(cells)]
    preds = [hyp(t, 500 + k, x + rng.choice([0, 2, 3]), y + rng.choice([0, 2]), 12, 12)
             for t in (1, 2) for k, (x, y) in enumerate(rng.sample(cells, len(cells)))]
    instance = seq("crowd", 2, gts, preds)

    # ``_edges`` takes the running total of the candidates it scores per GT
    # row, in frame order, from one ``np.cumsum``
    totals = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def cumsum(self, a):
            totals.append(np.cumsum(a))
            return totals[-1]

    with monkeypatch.context() as patch:
        patch.setattr(model, "np", Numpy())
        preprocess_sequence(instance, IOU)
    (total,) = totals
    per_frame = int(total[len(cells) - 1]), int(total[-1] - total[len(cells) - 1])
    assert per_frame == (3700, 3180)
    assert min(per_frame) > model._PAIR_BUDGET
    assert_pinned(instance)


def test_tiny_pair_budget(monkeypatch):
    # every block boundary falls inside a frame, and single GT rows with
    # more pairs than the budget form their own block
    rng = random.Random(77)
    for budget in (1, 2, 3, 7):
        monkeypatch.setattr(model, "_PAIR_BUDGET", budget)
        for _ in range(40):
            assert_pinned(with_classes(random_instance(rng, 6, 6), rng))
