"""Reference implementations used to cross-check the engine.

The brute-force oracles enumerate every feasible option directly with
itertools and never call the production matchers or scipy, so agreement
between the two routes is meaningful.  They are only practical for a handful
of tracks and frames.  :func:`per_frame_counts` is the frame-by-frame reading
of the count definitions that ``accumulate`` computes from columns.
:func:`pr_curve_rescored` is the threshold-by-threshold PR sweep, with its
own copies of the greedy frame matcher and of the 11-point AP
(:func:`eleven_point_ap`).  :func:`iou` is the scalar overlap of
two boxes, which ``model._edges`` must equal bit for bit; the dense matrices
of the per-frame routes come from that pass (``conftest.iou_matrix``).
:func:`edges_all_pairs` is that pass as it was before it scored only the
result boxes in a window around each GT box: every same-frame pair, in the
same arithmetic, so the two must agree bit for bit.

:func:`preprocess_frame` and :func:`match_frame` are the matching protocol
run one frame at a time on a dense IoU matrix per frame, and
:func:`per_frame_reference` threads them through a sequence; the sequence
pass (``preprocess_sequence``, ``run_sequence``) must give the same events,
which :func:`frame_events` reads off its columns.  The per-frame route
shares the production solver: :func:`_min_cost_matching` looks up
``motbench.assignment.solve_assignment`` at call time, so a test that
replaces it sees the solves of both routes.  It therefore checks the
sequence pass's bookkeeping (carryover, ranks, the neutral-class filter,
switches); the scipy cross-check of ``solve_assignment`` covers the solver,
and :func:`tie_order_ranking`, which ranks every matching of a small edge
list by the solver's documented tie levels, covers its tie-break.

:func:`solve_identity_dummy_graph` is the identity solve as it was before it
paired only the co-detecting tracks: a perfect matching on a graph where
dummy nodes absorb unpaired tracks.  It shares the production solver, so it
checks only the graph construction; the scipy cross-check of
``solve_assignment`` covers the solver.

:func:`parse_rows` is the file format's reference: the parser as a loop
over lines, which checks one field at a time, raises at the first rule a
line breaks and logs each lenient repair as it makes it.
``ingest.parse_file`` checks the same rules over whole columns and must
give the same rows, or the same error after the same repair warnings.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

import numpy as np

import motbench.assignment as assignment
from motbench.assignment import _NEUTRAL, EventLog, solve_assignment
from motbench.clearmot import MOSTLY_LOST_MAX, MOSTLY_TRACKED_MIN, Counts
from motbench.deteval import GroundTruthMode, PRCurve, PRPoint
from motbench.identity import IdentityScores, TrackMatchTable
from motbench.ingest import FileKind, FormatVariant, ParseError, logger
from motbench.model import (
    _GEOMETRY_LIMIT, _PAIR_BUDGET, ObjectClass, Rows, SequenceData, _geometry,
)
from conftest import Entry, entries, iou_matrix


def iou(a: Entry, b: Entry) -> float:
    """Intersection over union of two boxes, on continuous areas.

    Every length is a difference of rounded edges, so the intersection never
    exceeds either area.  Returns a value in [0, 1]; exactly 1.0 for
    identical boxes, 0.0 when the boxes do not overlap.  Symmetric in its
    arguments.
    """
    a_right, a_bottom = a.left + a.width, a.top + a.height
    b_right, b_bottom = b.left + b.width, b.top + b.height
    inter_w = min(a_right, b_right) - max(a.left, b.left)
    if inter_w <= 0:
        return 0.0
    inter_h = min(a_bottom, b_bottom) - max(a.top, b.top)
    if inter_h <= 0:
        return 0.0
    inter = inter_w * inter_h
    a_area = (a_right - a.left) * (a_bottom - a.top)
    b_area = (b_right - b.left) * (b_bottom - b.top)
    return inter / (a_area + b_area - inter)


def edges_all_pairs(
    gt_frame: np.ndarray,
    gt_ltwh: np.ndarray,
    res_frame: np.ndarray,
    res_ltwh: np.ndarray,
    threshold: float,
):
    """``model._edges`` scoring every same-frame pair: its reference.

    The same ``(gt_row, res_row, iou)`` columns in the same order, from the
    same IoU arithmetic, computed for every same-frame (GT, result) pair;
    ``res_frame`` must be sorted.  GT rows are taken in blocks of at most
    :data:`_PAIR_BUDGET` pairs (one row alone may exceed it).
    """
    first = np.searchsorted(res_frame, gt_frame)  # the result rows of each GT row's frame
    count = np.searchsorted(res_frame, gt_frame, "right") - first
    end = np.cumsum(count)
    gx0, gy0, gx1, gy1, g_area = _geometry(gt_ltwh)
    rx0, ry0, rx1, ry1, r_area = _geometry(res_ltwh)
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    a, done = 0, 0
    while a < len(end) and done < end[-1]:
        b = max(int(np.searchsorted(end, done + _PAIR_BUDGET, "right")), a + 1)
        n = count[a:b]
        stop = end[a:b] - done  # where each GT row's pairs end in the block
        ri = np.arange(stop[-1]) + np.repeat(first[a:b] - (stop - n), n)
        inter_w = np.repeat(gx1[a:b], n)
        np.minimum(inter_w, rx1[ri], out=inter_w)
        left = np.repeat(gx0[a:b], n)
        inter_w -= np.maximum(left, rx0[ri], out=left)
        del left  # freed now, not once the next block has made its arrays
        across = np.flatnonzero(inter_w > 0)  # the other pairs have IoU 0
        gi = a + np.searchsorted(stop, across, "right")
        ri, inter_w = ri[across], inter_w[across]
        inter_h = np.minimum(gy1[gi], ry1[ri]) - np.maximum(gy0[gi], ry0[ri])
        inter = inter_w * np.maximum(inter_h, 0.0)
        overlap = inter / ((g_area[gi] + r_area[ri]) - inter)
        hit = overlap >= threshold
        found.append((gi[hit], ri[hit], overlap[hit]))
        a, done = b, int(end[b - 1])
    if not found:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    return tuple(np.concatenate(column) for column in zip(*found))


@dataclass(frozen=True)
class FrameEvents:
    """Assignment outcome of a single frame."""

    frame: int
    matches: tuple[tuple[int, int, float], ...]  # (gt_id, pred_id, overlap)
    fp_ids: tuple[int, ...]
    fn_ids: tuple[int, ...]
    idsw_ids: tuple[int, ...]


def _min_cost_matching(
    overlaps: np.ndarray, threshold: float
) -> list[tuple[int, int, float]]:
    """Max-cardinality, then min-cost matching over pairs with IoU >= threshold.

    ``overlaps`` holds the IoU of every (target, hypothesis) pair, both sides
    in track-id order; pair ``(i, j)`` ranks ``i * m + j``, so earlier pairs
    win equal-cost optima.  Returns ``(row, col, overlap)`` of the chosen
    pairs in row order.
    """
    rows, cols = np.nonzero(overlaps >= threshold)
    feasible = overlaps[rows, cols]
    pairs = list(zip(rows.tolist(), cols.tolist(), feasible.tolist()))
    chosen = assignment.solve_assignment(
        rows.tolist(), cols.tolist(), (1.0 - feasible).tolist(),
        (rows * overlaps.shape[1] + cols).tolist())
    return [pairs[e] for e in chosen]


def preprocess_frame(
    gt: Rows, res: Rows, iou_threshold: float = 0.5
) -> tuple[list[int], list[int], list[int], np.ndarray]:
    """Apply the neutral-class filter to one frame.

    ``gt`` and ``res`` hold the rows of one frame in track-id order, as
    :class:`SequenceData` stores them.  Returns ``(gt_ids, res_ids,
    removed_ids, overlaps)``: the ids of the scoreable ground truth (active
    pedestrians) and of the surviving result boxes, both ascending; the ids
    of the result boxes dropped for following a neutral-class annotation;
    and the IoU of every kept (target, hypothesis) pair, ``overlaps[i, j]``
    for ``gt_ids[i]`` and ``res_ids[j]``, which every later step reads.
    Pedestrian matches made here are discarded; scoring re-derives them with
    carryover applied.
    """
    scoreable = gt.scoreable
    overlaps = iou_matrix(gt.ltwh, res.ltwh)
    neutral = _NEUTRAL[gt.object_class]
    res_list = res.track_id.tolist()
    removed = {
        res_list[j] for i, j, overlap in _min_cost_matching(overlaps, iou_threshold)
        if neutral[i] and overlap > iou_threshold
    } if neutral.any() else set()
    keep_res = [j for j, pred_id in enumerate(res_list) if pred_id not in removed]
    return (
        gt.track_id[scoreable].tolist(),
        [res_list[j] for j in keep_res],
        sorted(removed),
        overlaps[scoreable][:, keep_res],
    )


def match_frame(
    gt_ids: list[int],
    res_ids: list[int],
    overlaps: np.ndarray,
    prev_assignment: dict[int, int],
    last_assignment: dict[int, int],
    iou_threshold: float = 0.5,
    frame: int = 0,
) -> tuple[FrameEvents, dict[int, int]]:
    """Match one preprocessed frame; returns its events and the new assignment.

    ``gt_ids``, ``res_ids`` and ``overlaps`` are one frame of
    :func:`preprocess_frame`: ascending ids and the IoU of every pair.
    ``prev_assignment`` holds the previous frame's matches (carryover source);
    ``last_assignment`` holds each target's last known hypothesis anywhere in
    the sequence (identity-switch reference).  Neither dict is mutated.
    """
    gt_at = {gt_id: i for i, gt_id in enumerate(gt_ids)}
    res_at = {pred_id: j for j, pred_id in enumerate(res_ids)}

    matches: list[tuple[int, int, float]] = []
    for gt_id, pred_id in sorted(prev_assignment.items()):
        if gt_id in gt_at and pred_id in res_at:
            overlap = float(overlaps[gt_at[gt_id], res_at[pred_id]])
            if overlap >= iou_threshold:
                matches.append((gt_id, pred_id, overlap))

    taken_gt = {gt_id for gt_id, _, _ in matches}
    taken_res = {pred_id for _, pred_id, _ in matches}
    rem_i = [i for i, gt_id in enumerate(gt_ids) if gt_id not in taken_gt]
    rem_j = [j for j, pred_id in enumerate(res_ids) if pred_id not in taken_res]
    for a, b, overlap in _min_cost_matching(overlaps[rem_i][:, rem_j], iou_threshold):
        matches.append((gt_ids[rem_i[a]], res_ids[rem_j[b]], overlap))
    matches.sort()

    matched_gt = {gt_id for gt_id, _, _ in matches}
    matched_res = {pred_id for _, pred_id, _ in matches}
    fn_ids = tuple(gt_id for gt_id in gt_ids if gt_id not in matched_gt)
    fp_ids = tuple(pred_id for pred_id in res_ids if pred_id not in matched_res)
    idsw_ids = tuple(
        gt_id for gt_id, pred_id, _ in matches
        if last_assignment.get(gt_id, pred_id) != pred_id
    )
    events = FrameEvents(
        frame=frame,
        matches=tuple(matches),
        fp_ids=fp_ids,
        fn_ids=fn_ids,
        idsw_ids=idsw_ids,
    )
    return events, {gt_id: pred_id for gt_id, pred_id, _ in matches}


def _frame_rows(rows: Rows, t: int) -> Rows:
    at = rows.frame == t
    return Rows(*(column[at] for column in vars(rows).values()))


def per_frame_reference(
    instance: SequenceData, iou_threshold: float = 0.5
) -> tuple[list[FrameEvents], tuple[dict, ...]]:
    """Events and identity table counts of the protocol run one frame at a time."""
    events: list[FrameEvents] = []
    gt_len: Counter = Counter()
    pred_len: Counter = Counter()
    co: Counter = Counter()
    prev: dict[int, int] = {}
    last: dict[int, int] = {}
    for t in range(1, instance.num_frames + 1):
        gt_ids, res_ids, _, overlaps = preprocess_frame(
            _frame_rows(instance.gt, t), _frame_rows(instance.results, t), iou_threshold
        )
        frame_events, prev = match_frame(gt_ids, res_ids, overlaps, prev, last, iou_threshold,
                                         frame=t)
        events.append(frame_events)
        last.update(prev)
        gt_len.update(gt_ids)
        pred_len.update(res_ids)
        for i, j in zip(*np.nonzero(overlaps >= iou_threshold)):
            co[gt_ids[i], res_ids[j]] += 1
    return events, (dict(gt_len), dict(pred_len), dict(co))


def _by_frame(num_frames: int, frame: np.ndarray, values: list) -> list[tuple]:
    """``values`` grouped into one tuple per frame 1..num_frames; ``frame`` ascending."""
    bounds = np.searchsorted(frame, np.arange(1, num_frames + 2)).tolist()
    return [tuple(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def frame_events(log: EventLog) -> list[FrameEvents]:
    """The columns of ``log`` grouped into one :class:`FrameEvents` per frame 1..num_frames."""
    table, matched, switch = log.table, log.matched, log.switch
    g, r = table.gt_row[matched], table.res_row[matched]
    fn = np.bincount(g, minlength=len(table.gt_id)) == 0
    fp = np.bincount(r, minlength=len(table.res_id)) == 0
    n = table.num_frames
    columns = zip(
        _by_frame(n, table.frame[matched], list(zip(
            table.gt_id[g].tolist(), table.res_id[r].tolist(),
            table.iou[matched].tolist()))),
        _by_frame(n, table.res_frame[fp], table.res_id[fp].tolist()),
        _by_frame(n, table.gt_frame[fn], table.gt_id[fn].tolist()),
        _by_frame(n, table.frame[switch], table.gt_id[table.gt_row[switch]].tolist()),
    )
    return [FrameEvents(t, *ev) for t, ev in enumerate(columns, start=1)]


def _frames(seq: SequenceData):
    gt_by_frame: dict[int, list[Entry]] = defaultdict(list)
    res_by_frame: dict[int, list[Entry]] = defaultdict(list)
    for e in entries(seq.gt):
        if e.object_class == ObjectClass.PEDESTRIAN and e.confidence != 0:
            gt_by_frame[e.frame].append(e)
    for e in entries(seq.results):
        res_by_frame[e.frame].append(e)
    for t in range(1, seq.num_frames + 1):
        yield (
            sorted(gt_by_frame[t], key=lambda e: e.track_id),
            sorted(res_by_frame[t], key=lambda e: e.track_id),
        )


def _all_matchings(gt_ids, res_ids, feasible, forced):
    """Every injective matching over feasible pairs that contains ``forced``."""
    forced_gt = {g for g, _ in forced}
    forced_res = {r for _, r in forced}
    free_gt = [g for g in gt_ids if g not in forced_gt]
    options = [
        [None] + [r for r in res_ids if r not in forced_res and (g, r) in feasible]
        for g in free_gt
    ]
    for combo in product(*options):
        chosen = [r for r in combo if r is not None]
        if len(chosen) != len(set(chosen)):
            continue
        yield forced + [(g, r) for g, r in zip(free_gt, combo) if r is not None]


def tie_order_ranking(rows, cols, cost, rank, *, most_pairs=True):
    """Every matching of a small edge list with its tie-order levels, best first.

    ``rows``, ``cols``, ``cost`` and ``rank`` are the edge lists of
    ``solve_assignment``, at most 8 edges.  Returns ``(levels, edges)`` per
    matching, ``edges`` its edge indices ascending, sorted by the levels the
    solver documents: the most pairs when ``most_pairs`` is set, the lowest
    summed cost units (each cost rounded half up to whole units, of 1 when
    every cost is an integer and of 1e-9 otherwise, here in exact
    fractions), the lowest summed rank and the largest summed squared rank.
    """
    assert len(rows) <= 8
    if all(float(c).is_integer() for c in cost):
        units = [int(c) for c in cost]
    else:
        units = [math.floor(Fraction(c) * 10**9 + Fraction(1, 2)) for c in cost]
    ranked = []
    for size in range(len(rows) + 1):
        for edges in combinations(range(len(rows)), size):
            if len({rows[e] for e in edges}) == len({cols[e] for e in edges}) == size:
                levels = (-size if most_pairs else 0, sum(units[e] for e in edges),
                          sum(rank[e] for e in edges), -sum(rank[e] ** 2 for e in edges))
                ranked.append((levels, list(edges)))
    ranked.sort()
    return ranked


def oracle_clear_counts(seq: SequenceData, threshold: float = 0.5):
    """(fp, fn, idsw) by exhaustive per-frame assignment enumeration.

    Mirrors the protocol: forced carryover pairs, then the best completion by
    (max matches, min total 1-IoU, earliest pairs) over all possibilities.
    """
    prev: dict[int, int] = {}
    last: dict[int, int] = {}
    fp = fn = idsw = 0
    for gts, ress in _frames(seq):
        gt_ids = [g.track_id for g in gts]
        res_ids = [r.track_id for r in ress]
        overlaps = {
            (g.track_id, r.track_id): iou(g, r) for g in gts for r in ress
        }
        feasible = {pair for pair, o in overlaps.items() if o >= threshold}
        forced = [
            (g, r) for g, r in sorted(prev.items())
            if g in gt_ids and r in res_ids and (g, r) in feasible
        ]
        rem_gt = [g for g in gt_ids if g not in {x for x, _ in forced}]
        rem_res = [r for r in res_ids if r not in {x for _, x in forced}]
        gt_rank = {g: k for k, g in enumerate(rem_gt)}
        res_rank = {r: k for k, r in enumerate(rem_res)}

        def key(matching):
            extra = [p for p in matching if p not in forced]
            cost = sum(1.0 - overlaps[p] for p in extra)
            ranksum = sum(gt_rank[g] * len(rem_res) + res_rank[r] for g, r in extra)
            return (-len(matching), cost, ranksum)

        best = min(_all_matchings(gt_ids, res_ids, feasible, forced), key=key)
        fn += len(gt_ids) - len(best)
        fp += len(res_ids) - len(best)
        idsw += sum(1 for g, r in best if last.get(g, r) != r)
        last.update(dict(best))
        prev = dict(best)
    return fp, fn, idsw


def oracle_identity_counts(seq: SequenceData, threshold: float = 0.5):
    """(idtp, idfp, idfn) by enumerating every one-to-one track pairing.

    Minimizing missed-plus-false frames over pairings is the same as
    maximizing the summed co-detections, which is what this searches for.
    """
    gt_len: dict[int, int] = defaultdict(int)
    res_len: dict[int, int] = defaultdict(int)
    co: dict[tuple[int, int], int] = defaultdict(int)
    for gts, ress in _frames(seq):
        for g in gts:
            gt_len[g.track_id] += 1
        for r in ress:
            res_len[r.track_id] += 1
        for g in gts:
            for r in ress:
                if iou(g, r) >= threshold:
                    co[(g.track_id, r.track_id)] += 1

    gt_ids = sorted(gt_len)
    res_ids = sorted(res_len)
    best = 0
    options = [[None] + res_ids for _ in gt_ids]
    for combo in product(*options) if gt_ids else [()]:
        chosen = [r for r in combo if r is not None]
        if len(chosen) != len(set(chosen)):
            continue
        total = sum(
            co.get((g, r), 0) for g, r in zip(gt_ids, combo) if r is not None
        )
        best = max(best, total)
    idtp = best
    idfn = sum(gt_len.values()) - idtp
    idfp = sum(res_len.values()) - idtp
    return idtp, idfp, idfn


def solve_identity_dummy_graph(table: TrackMatchTable) -> IdentityScores:
    """``solve_identity`` on a graph where dummy nodes absorb unpaired tracks.

    Every track is matched: pairing real tracks i and j costs the frames
    where either exists without the other co-detecting,
    ``(len_i - co) + (len_j - co)``; pairing with a dummy costs the full
    track length.  Only tracks that appear in a co-detecting pair enter the
    graph, with their own dummies and one dummy-to-dummy edge per pair.
    Equal-cost optima go to the lowest summed rank ``i * m + j`` of the real
    pairs, positions in id order among the co-detecting tracks.
    """
    co = table.co_detections
    # i, j: positions among the co-detecting tracks, which stay in id order.
    gt_used = np.bincount(table.pair_gt, minlength=len(table.gt_ids)) > 0
    pred_used = np.bincount(table.pair_pred, minlength=len(table.pred_ids)) > 0
    i, j = (np.cumsum(gt_used) - 1)[table.pair_gt], (np.cumsum(pred_used) - 1)[table.pair_pred]
    gt_len, pred_len = table.gt_lengths[gt_used], table.pred_lengths[pred_used]
    n, m, n_pairs = len(gt_len), len(pred_len), len(co)

    # Rows: gt tracks 0..n-1, then pred dummies n..n+m-1.  Columns: pred
    # tracks 0..m-1, then gt dummies m..m+n-1.  Real pairs come first.
    gt_nodes, pred_nodes = np.arange(n), np.arange(m)
    chosen = solve_assignment(
        rows=np.concatenate([i, gt_nodes, n + pred_nodes, n + j]).tolist(),
        cols=np.concatenate([j, m + gt_nodes, pred_nodes, m + i]).tolist(),
        cost=np.concatenate([gt_len[i] + pred_len[j] - 2 * co, gt_len, pred_len,
                             np.zeros(n_pairs, dtype=np.int64)]).tolist(),
        rank=np.concatenate([i * m + j, np.zeros(n + m + n_pairs, dtype=np.int64)]).tolist(),
    )
    real = np.array([e for e in chosen if e < n_pairs], dtype=np.int64)
    idtp = int(co[real].sum())
    matches = tuple(zip(table.gt_ids[table.pair_gt[real]].tolist(),
                        table.pred_ids[table.pair_pred[real]].tolist()))
    return IdentityScores(idtp, int(table.pred_lengths.sum()) - idtp,
                          int(table.gt_lengths.sum()) - idtp, matches)


def _fragmentations(status: Sequence[bool]) -> int:
    """Tracked-to-untracked transitions that are resumed later.

    A gap running to the end of the timeline is not a fragmentation: tracking
    of the target is never resumed.
    """
    count = sum(1 for a, b in zip(status, status[1:]) if a and not b)
    if count and not status[-1]:
        count -= 1  # the last transition opens the trailing gap
    return count


def per_frame_counts(events: Sequence[FrameEvents], num_frames: int) -> Counts:
    """The counts of a sequence's per-frame events, one frame and track at a time.

    A track's life span runs from its first to its last scoreable frame (a
    frame where it is matched or missed); frames inside the span where it is
    not matched count as untracked.
    """
    tp = fp = fn = idsw = 0
    overlap_sum = 0.0
    gt_frames: dict[int, list[int]] = defaultdict(list)
    matched: dict[int, set[int]] = defaultdict(set)
    for ev in events:
        tp += len(ev.matches)
        fp += len(ev.fp_ids)
        fn += len(ev.fn_ids)
        idsw += len(ev.idsw_ids)
        overlap_sum += sum(overlap for _, _, overlap in ev.matches)
        for gt_id, _, _ in ev.matches:
            matched[gt_id].add(ev.frame)
            gt_frames[gt_id].append(ev.frame)
        for gt_id in ev.fn_ids:
            gt_frames[gt_id].append(ev.frame)

    fm = mt = pt = ml = 0
    for gt_id, frames in gt_frames.items():
        first, last = min(frames), max(frames)
        status = [t in matched[gt_id] for t in range(first, last + 1)]
        fm += _fragmentations(status)
        ratio = sum(status) / len(status)
        if ratio >= MOSTLY_TRACKED_MIN:
            mt += 1
        elif ratio < MOSTLY_LOST_MAX:
            ml += 1
        else:
            pt += 1
    return Counts(tp=tp, fp=fp, fn=fn, idsw=idsw, fm=fm, gt_total=tp + fn,
                  frames=num_frames, overlap_sum=overlap_sum, mt=mt, pt=pt, ml=ml,
                  gt_tracks=len(gt_frames))


def _greedy_frame_tp(overlaps: np.ndarray, thr: float) -> int:
    """Matches of greedy descending-IoU matching, earlier rows and columns first on ties.

    Rows are the frame's kept detections in sweep order, columns its ground
    truth by track id.
    """
    pairs = sorted(
        (-float(overlaps[d, g]), d, g)
        for d in range(overlaps.shape[0]) for g in range(overlaps.shape[1])
        if overlaps[d, g] >= thr
    )
    used_d: set[int] = set()
    used_g: set[int] = set()
    for _, d, g in pairs:
        if d not in used_d and g not in used_g:
            used_d.add(d)
            used_g.add(g)
    return len(used_d)


def eleven_point_ap(points: Sequence[PRPoint]) -> float:
    """The 11-point AP of a curve, transcribed from its definition.

    The mean, over recall levels 0, 10, ..., 100, of the best precision at a
    recall of at least the level less 1e-9; a level the curve never reaches
    counts 0.
    """
    return sum(max((p.precision for p in points if p.recall >= level - 1e-9), default=0.0)
               for level in range(0, 101, 10)) / 11.0


def pr_curve_rescored(
    detections: Rows,
    gt: Rows,
    iou_threshold: float = 0.5,
    mode: GroundTruthMode = "tracking_gt",
    min_visibility: float = 0.5,
) -> PRCurve:
    """The PR sweep that re-matches every frame at every distinct threshold.

    This is the sweep ``deteval.pr_curve`` ran before it matched each frame
    once per distinct score in it; both must give equal curves.

    Within a frame, greedy matching ties go to the higher-scored detection,
    then to the lower ground-truth track id.  With no scored detections the
    curve is empty and its AP is zero.
    """
    dets, gts = detections, gt.sorted()
    scored = gts.scoreable
    if mode == "visible_only":
        scored &= gts.visibility >= min_visibility
    gt_frame, gt_ltwh = gts.frame[scored], gts.ltwh[scored]
    order = np.lexsort((dets.track_id, -dets.confidence, dets.frame))
    det_frame, det_conf, det_ltwh = dets.frame[order], dets.confidence[order], dets.ltwh[order]

    # Any return flag keeps np.unique from importing numpy.ma (numpy 2.x).
    thresholds = np.unique(det_conf, return_counts=True)[0][::-1]
    frames, starts = np.unique(det_frame, return_index=True)
    ends = np.append(starts[1:], len(det_frame))
    spans = zip(np.searchsorted(gt_frame, frames), np.searchsorted(gt_frame, frames, "right"))
    # Per frame: the IoU of each (detection, GT) pair, and the count each threshold keeps.
    per_frame = [
        (iou_matrix(det_ltwh[a:b], gt_ltwh[c:d]),
         np.searchsorted(-det_conf[a:b], -thresholds, side="right").tolist())
        for a, b, (c, d) in zip(starts, ends, spans)
    ]
    points = []
    for t, thr in enumerate(thresholds.tolist()):
        tp = kept_total = 0
        for overlaps, kept in per_frame:
            if kept[t]:
                tp += _greedy_frame_tp(overlaps[:kept[t]], iou_threshold)
                kept_total += kept[t]
        recall = 100.0 * tp / len(gt_frame) if len(gt_frame) else 0.0
        precision = 100.0 * tp / kept_total if kept_total else 0.0
        points.append(PRPoint(threshold=thr, recall=recall, precision=precision))

    curve_points = tuple(points)
    return PRCurve(
        points=curve_points,
        ap=eleven_point_ap(curve_points),
        operating_point=curve_points[-1] if curve_points else None,
    )


#: The columns after ``conf`` that a variant's files other than MOT16/17
#: ground truth carry and evaluation discards; strict parsing checks that
#: they hold numbers.
_DISCARDED = {FormatVariant.MOT15: ("x", "y", "z"),
              FormatVariant.MOT16_17: ("class", "visibility")}


def _float(token: str, line_no: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"malformed number {token!r} in {what} field", line_no) from None


def _number(token: str, line_no: int, what: str) -> float:
    value = _float(token, line_no, what)
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {token!r} in {what} field", line_no)
    return value


# float64, the parser's number type, holds every integer below 2**53 exactly
# and rounds some above it, so a frame, id or class token must stay below it.
_INT_LIMIT = 2.0**53


def _integer(token: str, line_no: int, what: str) -> int:
    value = _number(token, line_no, what)
    if value != int(value):
        raise ParseError(f"{what} must be an integer, got {token!r}", line_no)
    if abs(value) >= _INT_LIMIT:
        raise ParseError(f"{what} out of range, got {token!r}", line_no)
    return int(value)


def parse_rows(
    text: str,
    variant: FormatVariant,
    kind: FileKind,
    strict: bool = True,
    num_frames: int | None = None,
    origin: str = "",
) -> Rows:
    """Parse ``text`` one line at a time: the reference for ``ingest.parse_file``.

    Every error names its 1-based line; ``origin`` prefixes each lenient
    repair warning.
    """
    records: list[tuple] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = [t.strip() for t in line.split(",")]
        if strict:
            if len(tokens) != variant.columns:
                raise ParseError(
                    f"expected {variant.columns} columns for {variant.value}, "
                    f"got {len(tokens)}",
                    line_no,
                )
        elif not 7 <= len(tokens) <= 10:
            raise ParseError(f"expected 7 to 10 columns, got {len(tokens)}", line_no)

        frame = _integer(tokens[0], line_no, "frame")
        if frame < 1:
            raise ParseError(f"frame index must be >= 1, got {frame}", line_no)
        if num_frames is not None and frame > num_frames:
            raise ParseError(f"frame {frame} outside [1, {num_frames}]", line_no)
        track_id = _integer(tokens[1], line_no, "id")
        left = _number(tokens[2], line_no, "left")
        top = _number(tokens[3], line_no, "top")
        width = _number(tokens[4], line_no, "width")
        height = _number(tokens[5], line_no, "height")
        if width <= 0 or height <= 0:
            raise ParseError(
                f"non-positive box extent width={width} height={height}", line_no
            )
        right, bottom = left + width, top + height
        area = (right - left) * (bottom - top)
        if not all(map(math.isfinite, (right, bottom, area))):
            raise ParseError("box right edge, bottom edge or area is not finite", line_no)
        if max(*map(abs, (left, top, right, bottom)), area) > _GEOMETRY_LIMIT:
            raise ParseError("box edge or area beyond 2**1022", line_no)
        if area == 0:
            raise ParseError("box area (right - left) * (bottom - top) is 0", line_no)
        confidence = _number(tokens[6], line_no, "confidence")

        code = ObjectClass.PEDESTRIAN
        visibility = 1.0
        if kind is FileKind.GROUND_TRUTH and variant is FormatVariant.MOT16_17:
            if len(tokens) >= 8:
                code = _integer(tokens[7], line_no, "class")
                if not ObjectClass.OTHER < code <= ObjectClass.REFLECTION:
                    if strict:
                        raise ParseError(f"unknown class code {code}", line_no)
                    logger.warning("%sline %d: unknown class code %d, using OTHER",
                                   origin, line_no, code)
                    code = ObjectClass.OTHER
            if len(tokens) >= 9:
                visibility = _number(tokens[8], line_no, "visibility")
                if not 0.0 <= visibility <= 1.0:
                    if strict:
                        raise ParseError(
                            f"visibility {visibility} outside [0, 1]", line_no
                        )
                    logger.warning("%sline %d: clamping visibility %g",
                                   origin, line_no, visibility)
                    visibility = min(1.0, max(0.0, visibility))
        elif strict:  # discarded, but still numbers; finite or not
            for token, what in zip(tokens[7:], _DISCARDED[variant]):
                _float(token, line_no, what)

        if kind is not FileKind.DETECTION:
            key = (frame, track_id)
            if key in seen:
                raise ParseError(f"duplicate (frame, id) pair {key}", line_no)
            seen.add(key)

        records.append((frame, track_id, (left, top, width, height), confidence, code,
                        visibility))
    return Rows(*zip(*records))
