"""Tracker-to-target matching.

The matching protocol, applied frame by frame:

1.  Preprocessing.  Every result box is matched against *all* ground-truth
    boxes of the frame (any class, any consider-flag) with one min-cost pass.
    Result boxes whose matched ground-truth box belongs to a neutral class
    (person on vehicle, static person, distractor, reflection) at an overlap
    strictly above the threshold are excluded from scoring: the tracker is
    neither penalized nor rewarded for following them.  Only ground-truth
    boxes that are pedestrians with an active consider-flag enter the scoring
    set; inactive entries never count as false negatives or true positives.

2.  Carryover.  A pair matched in the previous frame stays matched in the
    current frame whenever its overlap is still at or above the threshold,
    even if another hypothesis is closer to the target.

3.  Fresh matching.  The remaining targets and hypotheses are matched by an
    optimal assignment on cost 1 - IoU; pairs below the overlap threshold are
    infeasible.  Unmatched targets become false negatives, unmatched
    hypotheses false positives.

An identity switch is recorded when a target is matched to a hypothesis that
differs from the target's last known assignment anywhere earlier in the
sequence; the memory survives untracked gaps and never expires within a
sequence.

Equal-cost assignments are broken deterministically, so repeated runs and
runs with different parallelism produce identical output.  Every matching
problem, the neutral-class filter, a frame with conflicting pairs or the
identity solve, is one :func:`solve_assignment`, which takes the lowest
total cost and lets any node stay unmatched; its docstring states its tie
levels.  The matching states "most pairs first" through its costs:
:func:`_cost_units`, the one place where a cost is rounded, once per pair,
turns each overlap into 1 - IoU in whole 1e-9 units minus :data:`_PAIR`,
so one more pair always lowers the total.  Pairs rank ``i * m + j``, where
target ``i`` and hypothesis ``j`` are positions in track-id order and ``m``
counts the candidate hypotheses: among matchings of equal cost the lowest
summed rank wins, and permutations of the same targets and hypotheses pair
them in id order.

Evaluation runs the protocol on a whole sequence at once, as one chain.
:func:`preprocess_sequence` (step 1) takes the sequence and the overlap
threshold, one float in (0, 1].  It takes the pairs at or above the
threshold from the package's one overlap pass, :func:`~motbench.model._edges`,
and keeps them, with the boxes that survive the neutral-class filter, as one
:class:`EdgeTable`.  :func:`run_sequence` takes that table alone (steps 2
and 3, then the identity switches).  It decides every pair that shares no
box with another pair by array operations and loops only over the frames
that hold a conflict, each one slice of the table.  Before that loop it
links each pair to the pair of the same target and hypothesis in the
previous frame, so carryover in the loop is one lookup per pair of the
slice.  Its :class:`EventLog` is two masks over the table's pairs, matched
and identity switch; the frame-level counts are read off those columns and
the identity metrics count co-detections on the same table.  No step does
work per declared frame or per far-apart pair of boxes: a sequence costs
what its rows and their nearby pairs cost.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .model import NEUTRAL_CLASSES, ObjectClass, SequenceData, _check_threshold, _edges


#: ``_NEUTRAL[code]``: whether class code ``code`` is a neutral class.
_NEUTRAL = np.isin(np.arange(max(ObjectClass) + 1), list(NEUTRAL_CLASSES))


def _shortest_augmenting_paths(adj: list[list[tuple[int, int]]], n_cols: int) -> list[int]:
    """Min-cost assignment of every row over sparse edges; the column of each row.

    ``adj[r]`` lists ``(column, key)`` of row ``r``'s edges, keys non-negative
    integers and columns below ``n_cols``, plus one edge to a slack column
    that no other row reaches, so every row can be assigned.  Each row in turn
    runs one Dijkstra search (Jonker & Volgenant 1987; Crouse 2016) on the
    reduced keys ``key - u[r] - v[c]`` to the nearest free column, which is
    then taken by augmenting along the path.  On equal distance a free column
    comes before a matched one, as in scipy's solver, so a column farther
    than the nearest free column seen so far is never reached and is not
    queued.  Only the rows and columns the search finalised change potential.
    Keys and potentials are Python integers, so every distance is exact and a
    finalised column never looks closer again.  A search reaches only the
    rows and columns joined to its row by edges, so rows that share no
    column with another cost only their own edges.
    """
    n_all = n_cols + len(adj)
    inf, push, pop = math.inf, heapq.heappush, heapq.heappop
    u = [0] * len(adj)
    v = [0] * n_all
    row4col = [-1] * n_all
    col4row = [-1] * len(adj)
    dist: list[float] = [inf] * n_all
    via = [-1] * n_all
    for start in range(len(adj)):
        heap: list[tuple[int, bool, int]] = []
        seen: list[int] = []
        done: list[int] = []
        rows: list[int] = []  # the matched rows the search reached
        row, reach, bound = start, 0, inf  # bound: nearest free column so far
        while True:
            base = reach - u[row]
            for col, key in adj[row]:
                d = base + key - v[col]
                if d < dist[col] and d <= bound:
                    if dist[col] == inf:
                        seen.append(col)
                    dist[col] = d
                    via[col] = row
                    taken = row4col[col] >= 0
                    if not taken:
                        bound = d
                    push(heap, (d, taken, col))
            while True:
                reach, _, col = pop(heap)
                if reach == dist[col]:
                    break
            done.append(col)
            if row4col[col] < 0:
                break
            row = row4col[col]
            rows.append(row)
        u[start] += reach
        for row in rows:
            u[row] += reach - dist[col4row[row]]
        for c in done:
            v[c] -= reach - dist[c]
        while True:  # augment: every row on the path moves to its next column
            row = via[col]
            row4col[col] = row
            col4row[row], col = col, col4row[row]
            if row == start:
                break
        for c in seen:
            dist[c] = inf
    return col4row


def _free(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per edge ``(a[e], b[e])``, whether it shares neither endpoint with another edge."""
    return (np.bincount(a)[a] == 1) & (np.bincount(b)[b] == 1)


def _edge_components(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per edge ``(a[e], b[e])``, a label its connected component shares.

    ``a`` and ``b`` are node ids of the two sides.  Every node points at a
    node of its component with an id no higher than its own, and roots point
    at themselves.  Each round hooks the larger root of every edge whose
    endpoints have different roots onto the smaller one, then follows the
    pointers until each node points at a root.  When every edge's endpoints
    share a root, that root is the lowest node id of the component.
    """
    n = int(a.max()) + 1
    label = np.arange(n + int(b.max()) + 1)
    b = b + n
    while True:
        ra, rb = label[a], label[b]
        if (ra == rb).all():
            return ra
        np.minimum.at(label, np.maximum(ra, rb), np.minimum(ra, rb))
        root = label[label]
        while (root != label).any():
            label, root = root, root[root]


#: Subtracted from every matching cost.  It exceeds the summed 1e-9 units
#: of any n < 2**32 pairs, so a matching with one more pair costs less.
_PAIR = 1 << 62


def _cost_units(iou: np.ndarray) -> np.ndarray:
    """Each overlap's matching cost as int64: 1 - IoU in 1e-9 units, minus :data:`_PAIR`.

    The units are whole, rounded half up.  As each cost is rounded on its
    own, float noise in a sum never decides a tie, and a sum of k pairs
    lower by k units or more always decides.
    """
    return np.floor((1.0 - iou) * 1e9 + 0.5).astype(np.int64) - _PAIR


def solve_assignment(rows: list[int], cols: list[int], cost: list[int],
                     rank: list[int]) -> list[int]:
    """Lowest-cost matching over a sparse list of feasible edges.

    Edge ``e`` joins row ``rows[e]`` to column ``cols[e]`` (integer ids, one
    id space per side) at ``cost[e]``; all four are Python lists of
    integers.  Every cost must be negative, so that a pair always beats
    leaving both its ends unmatched, and every rank non-negative.  Any node
    may stay unmatched, at cost 0 and rank 0.  The chosen matching uses only
    these edges and is the first by these levels:

    1. the lowest summed ``cost``: the frame matching's :func:`_cost_units`,
       whose :data:`_PAIR` puts the most pairs first, or identity's negated
       co-detection counts;
    2. the lowest summed ``rank``;
    3. the largest summed squared ``rank``.

    For ranks ``i * m + j``, as every caller gives them, permutations of the
    same rows and columns tie on level 2, and level 3 pairs them in order.
    Returns the indices of the chosen edges in ascending order.

    Each edge gets one exact integer key of the three levels, and
    :func:`_shortest_augmenting_paths` solves the whole call once from its
    smaller side; no dense matrix is built.  A level reads only the edge's
    own cost and rank, so the call picks what solving each connected
    component alone would.  Each node of the searching side has a slack
    column of its own, taken when the node stays unmatched, whose key is
    that of a cost-0, rank-0 edge.  Keys are shifted by the lowest cost so
    that none is negative.
    """
    if len(rows) < 2:  # one edge or none: nothing to choose
        return list(range(len(rows)))
    squares = [r * r for r in rank]
    row_at = {v: i for i, v in enumerate(sorted(set(rows)))}
    col_at = {v: j for j, v in enumerate(sorted(set(cols)))}
    if len(row_at) > len(col_at):  # search from the smaller side
        row_at, col_at, rows, cols = col_at, row_at, cols, rows
    n = len(row_at)  # every searching node adds one key to a matching's total
    low_cost, high_square = min(cost), max(squares)
    # Each level's weight exceeds the spread of the lower levels over n keys.
    w_square = n * high_square + 1
    w_rank = n * max(rank) + 1
    keys = [((q - low_cost) * w_rank + r) * w_square + high_square - sq
            for q, r, sq in zip(cost, rank, squares)]
    miss = -low_cost * w_rank * w_square + high_square
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    edge: dict[tuple[int, int], int] = {}
    for e, (a, b, key) in enumerate(zip(rows, cols, keys)):
        a, b = row_at[a], col_at[b]
        adj[a].append((b, key))
        edge[a, b] = e
    n_other = len(col_at)
    for a, out in enumerate(adj):
        out.append((n_other + a, miss))
    picked = _shortest_augmenting_paths(adj, n_other)
    return sorted(edge[a, b] for a, b in enumerate(picked) if b < n_other)


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """The scoring box set of one sequence and its feasible pairs.

    ``gt_frame``/``gt_id`` list the scoreable ground truth (active
    pedestrians) and ``res_frame``/``res_id`` the result boxes that survive
    the neutral-class filter, both ordered by (frame, id).  Edge ``e`` joins
    ``gt_row[e]`` and ``res_row[e]``, positions in those lists, in frame
    ``frame[e]`` at overlap ``iou[e]``; only pairs at or above the matching
    threshold are stored, ordered by (frame, gt id, result id).
    ``len(table)`` is the sequence's frame count.
    """

    num_frames: int
    gt_frame: np.ndarray
    gt_id: np.ndarray
    res_frame: np.ndarray
    res_id: np.ndarray
    frame: np.ndarray
    gt_row: np.ndarray
    res_row: np.ndarray
    iou: np.ndarray

    def __len__(self) -> int:
        """``num_frames``; no evaluation path calls it, the bench's frame counter does."""
        return self.num_frames


def preprocess_sequence(seq: SequenceData, iou_threshold: float = 0.5) -> EdgeTable:
    """Step 1 of the protocol on a whole sequence; its :class:`EdgeTable`.

    Raises ``ValueError`` for an ``iou_threshold`` outside (0, 1].
    :func:`~motbench.model._edges` finds every same-frame (GT, result) pair
    at or above the threshold, scoring each GT box only against the result
    boxes near it, and only those pairs are kept.  The min-cost pass of
    step 1 takes every pair that shares no box with another pair, and is
    solved only on the other connected components of those pairs that
    hold a neutral-class pair above the threshold; each pair keeps its rank
    ``i * m + j`` by position in its whole frame, so the pass drops the
    result boxes a frame-wide solve would.  Both the frame-level metrics and
    the identity metrics score exactly this table.
    """
    _check_threshold(iou_threshold)
    gt, res = seq.gt, seq.results
    g, r, overlap = _edges(gt.frame, gt.ltwh, res.frame, res.ltwh, iou_threshold)
    kept = np.ones(len(res), dtype=bool)
    neutral = _NEUTRAL[gt.object_class][g] & (overlap > iou_threshold)
    if neutral.any():
        free = _free(g, r)  # a pair that shares no box with another is matched
        kept[r[neutral & free]] = False
        contested = neutral & ~free
        if contested.any():
            label = _edge_components(g, r)
            hot = np.flatnonzero(np.isin(label, label[contested]))
            frame = gt.frame[g[hot]]
            r_lo = np.searchsorted(res.frame, frame)
            i, j = g[hot] - np.searchsorted(gt.frame, frame), r[hot] - r_lo
            m = np.searchsorted(res.frame, frame, "right") - r_lo
            chosen = hot[solve_assignment(g[hot].tolist(), r[hot].tolist(),
                                          _cost_units(overlap[hot]).tolist(),
                                          (i * m + j).tolist())]
            kept[r[chosen[neutral[chosen]]]] = False
    scoreable = gt.scoreable
    scoring = scoreable[g] & kept[r]
    g, r = g[scoring], r[scoring]
    return EdgeTable(
        num_frames=seq.num_frames,
        gt_frame=gt.frame[scoreable],
        gt_id=gt.track_id[scoreable],
        res_frame=res.frame[kept],
        res_id=res.track_id[kept],
        frame=gt.frame[g],
        gt_row=(np.cumsum(scoreable) - 1)[g],
        res_row=(np.cumsum(kept) - 1)[r],
        iou=overlap[scoring],
    )


def _carryover_links(table: EdgeTable) -> np.ndarray:
    """Per edge of ``table``, its carryover link: the edge of its pair in the frame before.

    The pair is the edge's (target, hypothesis) ids; an edge whose pair has
    no edge in the frame before links to -1.  One lexsort puts each pair's
    edges next to each other in frame order.  A function of its own, so the
    sort's temporaries are freed before :func:`_match` builds its lists.
    """
    gt_id, res_id, frame = table.gt_id[table.gt_row], table.res_id[table.res_row], table.frame
    order = np.lexsort((frame, res_id, gt_id))
    a, b = order[:-1], order[1:]
    same = (gt_id[a] == gt_id[b]) & (res_id[a] == res_id[b]) & (frame[a] + 1 == frame[b])
    link = np.full(len(frame), -1)
    link[b[same]] = a[same]
    return link


def _match(table: EdgeTable) -> np.ndarray:
    """Per edge of ``table``, whether steps 2 and 3 of the protocol take it.

    An edge that shares neither endpoint with another edge is matched
    whatever carryover says.  Only frames with a conflicting edge run the
    two steps, in frame order, and no numpy call runs per frame.  Before the
    loop, numpy finds each such frame's slice of the table and turns the
    columns the loop reads into lists indexed by edge: the positions of both
    ends in their frame, the carryover link (:func:`_carryover_links`) and
    the cost.  Carryover (step 2) takes the slice's edges whose link is
    matched, free edges too, as they move the others' positions.  The
    slice's edges still unmatched after it are its conflicting ones; step 3
    is one :func:`solve_assignment` over those that share no end with a
    carried edge, ranked ``i * m + j`` by position among the ids that no
    carried edge took.  Those positions are its rows and columns.
    """
    g, r, frame = table.gt_row, table.res_row, table.frame
    free = _free(g, r)
    if free.all():
        return free
    hot = frame[~free]
    hot = hot[np.r_[True, hot[1:] != hot[:-1]]]  # each frame with a conflict, ascending
    spans = np.searchsorted(frame, [hot, hot + 1]).tolist()  # its slice of the edges
    res_count = np.diff(np.searchsorted(table.res_frame, [hot, hot + 1]), axis=0)[0]
    g_pos = (g - np.searchsorted(table.gt_frame, frame)).tolist()
    r_pos = (r - np.searchsorted(table.res_frame, frame)).tolist()
    link = _carryover_links(table).tolist()
    cost = _cost_units(table.iou).tolist()
    matched = free.tolist() + [False]  # an edge without a link reads this last entry
    for lo, hi, n_res in zip(*spans, res_count.tolist()):
        carried = [e for e in range(lo, hi) if matched[link[e]]]
        for e in carried:
            matched[e] = True
        taken_g = [g_pos[e] for e in carried]  # ascending, as the edges are
        taken_r = sorted([r_pos[e] for e in carried])
        held_g, held_r = set(taken_g), set(taken_r)
        rest = [e for e in range(lo, hi)
                if not matched[e] and g_pos[e] not in held_g and r_pos[e] not in held_r]
        if not rest:
            continue
        rows = [g_pos[e] - bisect_left(taken_g, g_pos[e]) for e in rest]
        cols = [r_pos[e] - bisect_left(taken_r, r_pos[e]) for e in rest]
        m = n_res - len(carried)
        rank = [i * m + j for i, j in zip(rows, cols)]
        for k in solve_assignment(rows, cols, [cost[e] for e in rest], rank):
            matched[rest[k]] = True
    return np.array(matched[:-1], dtype=bool)


@dataclass(frozen=True, eq=False)
class EventLog:
    """Assignment outcome of a whole sequence, as columns over its edge table.

    ``matched[e]`` tells whether frame-by-frame matching takes edge ``e`` of
    ``table``, and ``switch[e]`` whether that match is an identity switch:
    its hypothesis differs from the target's previous match.  Every
    scoreable box of ``table`` that no matched edge holds is a false
    negative or a false positive.
    """

    table: EdgeTable
    matched: np.ndarray
    switch: np.ndarray


def run_sequence(table: EdgeTable) -> EventLog:
    """Steps 2 and 3 frame by frame on a sequence's table, then the switches.

    ``table`` is the sequence's :func:`preprocess_sequence` table (step 1),
    which fixes the threshold: it holds only the pairs at or above it.  An
    identity switch is a match whose hypothesis differs from the target's
    previous match.
    """
    matched = _match(table)
    e = np.flatnonzero(matched)
    e = e[np.lexsort((table.frame[e], table.gt_id[table.gt_row[e]]))]  # by target, then frame
    gt_id, res_id = table.gt_id[table.gt_row[e]], table.res_id[table.res_row[e]]
    switch = np.zeros(len(matched), dtype=bool)
    switch[e[1:]] = (gt_id[1:] == gt_id[:-1]) & (res_id[1:] != res_id[:-1])
    return EventLog(table, matched, switch)
