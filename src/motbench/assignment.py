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
runs with different parallelism produce identical output.  Among matchings
with the most pairs and the lowest total cost, the lowest summed rank
``i * m + j`` wins, where target ``i`` and hypothesis ``j`` are positions in
track-id order and ``m`` counts the candidate hypotheses; permutations of the
same targets and hypotheses, which tie on that sum, pair them in id order.
Cost differences below 1e-9 count as ties.  Each connected component of the
feasible pairs is solved on its own (:func:`solve_assignment`), so a target
without any feasible pair cannot disturb the tie-break of the others.

Evaluation runs the protocol on a whole sequence at once.
:func:`preprocess_sequence` computes the IoU of every same-frame pair in a
few vectorised passes and keeps the pairs at or above the threshold, with
the boxes that survive the neutral-class filter, as one :class:`EdgeTable`.
:func:`run_sequence` decides every pair that shares no box with another pair
by array operations and loops only over the frames that hold a conflict.
Its :class:`EventLog` is two masks over the table's pairs, matched and
identity switch; the frame-level counts are read off those columns and the
identity metrics count co-detections on the same table.  No step does work
per declared frame: a sequence costs what its rows cost.
:func:`preprocess_frame` and :func:`match_frame` run the protocol on one
frame's dense IoU matrix; they are the reference the sequence pass is tested
against.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .model import NEUTRAL_CLASSES, ObjectClass, Rows, SequenceData, pairwise_iou


@dataclass(frozen=True)
class MatchingConfig:
    """Knobs of the matching protocol."""

    iou_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold must be in (0, 1], got {self.iou_threshold}")


#: ``_NEUTRAL[code]``: whether class code ``code`` is a neutral class.
_NEUTRAL = np.isin(np.arange(max(ObjectClass) + 1), list(NEUTRAL_CLASSES))


@dataclass(frozen=True)
class FrameEvents:
    """Assignment outcome of a single frame."""

    frame: int
    matches: tuple[tuple[int, int, float], ...]  # (gt_id, pred_id, overlap)
    fp_ids: tuple[int, ...]
    fn_ids: tuple[int, ...]
    idsw_ids: tuple[int, ...]


def _components(rows: list[int], cols: list[int]) -> list[list[int]]:
    """Edge indices grouped by the connected components of the edge graph."""
    offset = max(rows) + 1
    parent = list(range(offset + max(cols) + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r, c in zip(rows, cols):
        parent[find(r)] = find(offset + c)
    groups: dict[int, list[int]] = defaultdict(list)
    for e, r in enumerate(rows):
        groups[find(r)].append(e)
    return list(groups.values())


def _shortest_augmenting_paths(adj: list[list[tuple[int, float]]], n_cols: int) -> list[int]:
    """Min-cost assignment of every row over sparse edges; the column of each row.

    ``adj[r]`` lists ``(column, key)`` of row ``r``'s edges, keys non-negative
    and columns below ``n_cols``, plus one edge to a slack column that no
    other row reaches, so every row can be assigned.  Each row in turn runs
    one Dijkstra search (Jonker & Volgenant 1987; Crouse 2016) on the reduced
    keys ``key - u[r] - v[c]`` to the nearest free column, which is then
    taken by augmenting along the path.  On equal distance a free column
    comes before a matched one, as in scipy's solver, so a column farther
    than the nearest free column seen so far is never reached and is not
    queued.  Only the rows and columns the search finalised change potential.
    Each column is finalised at most once per search: float rounding of large
    keys can make an already finalised column look closer again, and
    revisiting it would never end.
    """
    n_all = n_cols + len(adj)
    inf, push, pop = math.inf, heapq.heappush, heapq.heappop
    u = [0.0] * len(adj)
    v = [0.0] * n_all
    row4col = [-1] * n_all
    col4row = [-1] * len(adj)
    dist = [inf] * n_all
    via = [-1] * n_all
    final = [False] * n_all
    for start in range(len(adj)):
        heap: list[tuple[float, bool, int]] = []
        seen: list[int] = []
        done: list[int] = []
        rows: list[int] = []  # the matched rows the search reached
        row, reach, bound = start, 0.0, inf  # bound: nearest free column so far
        while True:
            base = reach - u[row]
            for col, key in adj[row]:
                d = base + key - v[col]
                if d < dist[col] and d <= bound and not final[col]:
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
                if reach == dist[col] and not final[col]:
                    break
            final[col] = True
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
            final[c] = False
    return col4row


def _solve_component(
    edges: list[int], rows: list[int], cols: list[int], cost: list[float], rank: list[int]
) -> list[int]:
    """The chosen edges of one connected component, by :func:`solve_assignment`."""
    row_at = {v: i for i, v in enumerate(sorted({rows[e] for e in edges}))}
    col_at = {v: j for j, v in enumerate(sorted({cols[e] for e in edges}))}
    n_rows, n_cols = len(row_at), len(col_at)
    k = min(n_rows, n_cols)
    local = {(row_at[rows[e]], col_at[cols[e]]): e for e in edges}
    lowest = min(cost[e] for e in edges)
    first = min(rank[e] for e in edges)
    # Any matching's summed rank stays below ``ties``, so scaling the cost
    # resolution to ``ties`` ranks every cost difference above the rank.
    ties = k * (max(rank[e] for e in edges) - first + 1)
    resolution = 1.0 if all(float(cost[e]).is_integer() for e in edges) else 1.0e-9
    # Permutations of one row and column set tie on summed rank; the last
    # level, below one rank unit, pairs rows and columns in order.
    spread = k * n_rows * n_cols
    keys = [
        (cost[e] - lowest) * (ties / resolution) + (rank[e] - first)
        + i * (n_cols - 1 - j) / spread
        for (i, j), e in local.items()
    ]
    # One more pair outweighs any key total of a matching in this component,
    # so a slack column, at this key, is taken only when no pair is left.
    penalty = k * max(keys) + 1.0
    # Search from the smaller side: one search per node of that side.
    flip = n_rows > n_cols
    n_search, n_other = (n_cols, n_rows) if flip else (n_rows, n_cols)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n_search)]
    for (i, j), key in zip(local, keys):
        if flip:
            adj[j].append((i, key))
        else:
            adj[i].append((j, key))
    for a, out in enumerate(adj):
        out.append((n_other + a, penalty))
    picked = _shortest_augmenting_paths(adj, n_other)
    return [
        local[(b, a) if flip else (a, b)] for a, b in enumerate(picked) if b < n_other
    ]


def solve_assignment(
    rows: np.ndarray, cols: np.ndarray, cost: np.ndarray, rank: np.ndarray
) -> list[int]:
    """Optimal matching over a sparse list of feasible edges.

    Edge ``e`` joins row ``rows[e]`` to column ``cols[e]`` (non-negative
    integer ids, one id space per side) at ``cost[e]``.  The chosen matching
    uses only these edges and has the most pairs, then the lowest total cost,
    then the lowest summed ``rank``; among permutations of the same rows and
    columns, which tie on summed rank, it pairs them in order.  Cost
    differences below the resolution of the costs, 1 for integer costs and
    1e-9 otherwise, count as ties.  Returns the indices of the chosen edges
    in ascending order.

    Each connected component of the edge graph is solved on its own by
    shortest augmenting paths over its edge lists
    (:func:`_shortest_augmenting_paths`); no dense matrix is built.  The
    penalty for a missing pair, the key of each node's slack column, is sized
    from that component, small enough that every tie-break level stays above
    rounding error.
    """
    row_list, col_list = rows.tolist(), cols.tolist()
    if len(set(row_list)) == len(row_list) and len(set(col_list)) == len(col_list):
        return list(range(len(row_list)))  # the edges already form a matching
    cost_list, rank_list = cost.tolist(), rank.tolist()
    chosen: list[int] = []
    for edges in _components(row_list, col_list):
        if len(edges) == 1:
            chosen += edges
        else:
            chosen += _solve_component(edges, row_list, col_list, cost_list, rank_list)
    chosen.sort()
    return chosen


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
    if not rows.size:
        return []
    feasible = overlaps[rows, cols]
    pairs = list(zip(rows.tolist(), cols.tolist(), feasible.tolist()))
    chosen = solve_assignment(rows, cols, 1.0 - feasible, rows * overlaps.shape[1] + cols)
    return [pairs[e] for e in chosen]


def preprocess_frame(
    gt: Rows, res: Rows, cfg: MatchingConfig = MatchingConfig()
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
    threshold, scoreable = cfg.iou_threshold, gt.scoreable
    overlaps = pairwise_iou(gt.ltwh, res.ltwh)
    neutral = _NEUTRAL[gt.object_class]
    res_list = res.track_id.tolist()
    removed = {
        res_list[j] for i, j, overlap in _min_cost_matching(overlaps, threshold)
        if neutral[i] and overlap > threshold
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
    cfg: MatchingConfig = MatchingConfig(),
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
            if overlap >= cfg.iou_threshold:
                matches.append((gt_id, pred_id, overlap))

    taken_gt = {gt_id for gt_id, _, _ in matches}
    taken_res = {pred_id for _, pred_id, _ in matches}
    rem_i = [i for i, gt_id in enumerate(gt_ids) if gt_id not in taken_gt]
    rem_j = [j for j, pred_id in enumerate(res_ids) if pred_id not in taken_res]
    for a, b, overlap in _min_cost_matching(overlaps[rem_i][:, rem_j], cfg.iou_threshold):
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


#: Same-frame (GT row, result row) pairs whose IoU one vectorised pass
#: computes; a constant, so preprocessing memory does not grow with crowding.
_PAIR_BUDGET = 1 << 12


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
        return self.num_frames


def _geometry(ltwh: np.ndarray) -> tuple[np.ndarray, ...]:
    """Left, top, right, bottom and area per row, as :func:`pairwise_iou` forms them."""
    left, top, width, height = ltwh.T
    right, bottom = left + width, top + height
    return left, top, right, bottom, (right - left) * (bottom - top)


def _edges(gt: Rows, res: Rows, threshold: float):
    """``(gt_row, res_row, iou)`` of every same-frame pair with IoU >= threshold.

    Rows are positions in ``gt`` and ``res``.  GT rows are taken in blocks
    of at most :data:`_PAIR_BUDGET` pairs (one row alone may exceed it), and
    each IoU is bit-equal to :func:`pairwise_iou` of its pair.
    """
    first = np.searchsorted(res.frame, gt.frame)  # the result rows of each GT row's frame
    count = np.searchsorted(res.frame, gt.frame, "right") - first
    end = np.cumsum(count)
    gx0, gy0, gx1, gy1, g_area = _geometry(gt.ltwh)
    rx0, ry0, rx1, ry1, r_area = _geometry(res.ltwh)
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


def _edge_components(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per edge ``(a[e], b[e])``, a label its connected component shares.

    ``a`` and ``b`` are node ids of the two sides.  Each node takes the
    lowest label of its edges, then its label's label, until nothing changes.
    """
    n = int(a.max()) + 1
    label = np.arange(n + int(b.max()) + 1)
    b = b + n
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if (new == label).all():
            return label[a]
        label = new


def preprocess_sequence(
    seq: SequenceData,
    cfg: MatchingConfig = MatchingConfig(),
) -> EdgeTable:
    """Apply the neutral-class filter to a whole sequence; its :class:`EdgeTable`.

    The IoU of every same-frame (GT, result) pair is computed in a few
    vectorised passes and only pairs at or above the threshold are kept.
    The neutral-class filter of :func:`preprocess_frame` solves only the
    connected components of those pairs that hold a neutral-class pair above
    the threshold, with the ranks of the whole frame, so every frame keeps
    the boxes and overlaps :func:`preprocess_frame` keeps.  Both the
    frame-level metrics and the identity metrics score exactly this table.
    """
    gt, res, threshold = seq.gt, seq.results, cfg.iou_threshold
    g, r, overlap = _edges(gt, res, threshold)
    kept = np.ones(len(res), dtype=bool)
    neutral = _NEUTRAL[gt.object_class][g] & (overlap > threshold)
    if neutral.any():
        # A pair sharing no box with another pair is its own matching.
        free = (np.bincount(g)[g] == 1) & (np.bincount(r)[r] == 1)
        kept[r[neutral & free]] = False
        label = _edge_components(g, r)
        hot = np.flatnonzero(np.isin(label, label[neutral & ~free]))
        frame = gt.frame[g[hot]]
        r_lo = np.searchsorted(res.frame, frame)
        i, j = g[hot] - np.searchsorted(gt.frame, frame), r[hot] - r_lo
        m = np.searchsorted(res.frame, frame, "right") - r_lo
        chosen = hot[solve_assignment(g[hot], r[hot], 1.0 - overlap[hot], i * m + j)]
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


def _match(table: EdgeTable) -> np.ndarray:
    """Per edge of ``table``, whether frame-by-frame matching takes it.

    An edge that shares neither endpoint with another edge is matched
    whatever carryover says.  Only frames with a conflicting edge run
    :func:`match_frame`'s steps, in frame order: carryover from the previous
    frame's matches, then one :func:`solve_assignment` over the remaining
    conflicting edges, ranked by position among the ids that no carried
    edge took, as :func:`match_frame` ranks them.
    """
    g, r, frame = table.gt_row, table.res_row, table.frame
    free = ((np.bincount(g, minlength=len(table.gt_id))[g] == 1)
            & (np.bincount(r, minlength=len(table.res_id))[r] == 1))
    if free.all():
        return free
    matched = free.tolist()
    gt_id, res_id = table.gt_id[g].tolist(), table.res_id[r].tolist()
    g_pos = (g - np.searchsorted(table.gt_frame, frame)).tolist()
    r_pos = (r - np.searchsorted(table.res_frame, frame)).tolist()
    hot = frame[~free]
    hot = hot[np.diff(hot, prepend=0) != 0]  # each frame t with a conflict, ascending
    # Per t: where the edges of frames t - 1, t and t + 1 start; t's result count.
    starts = np.searchsorted(frame, hot + [[-1], [0], [1]]).tolist()
    res_count = np.diff(np.searchsorted(table.res_frame, hot + [[0], [1]]), axis=0)[0]
    for before, lo, hi, n_res in zip(*starts, res_count.tolist()):
        prev = {gt_id[e]: res_id[e] for e in range(before, lo) if matched[e]}
        edges = range(lo, hi)
        # Carried free edges count too: they move the others' positions.
        carried = [e for e in edges if prev.get(gt_id[e]) == res_id[e]]
        taken_g = sorted(g_pos[e] for e in carried)
        taken_r = sorted(r_pos[e] for e in carried)
        rest = [e for e in edges if not matched[e]
                and g_pos[e] not in taken_g and r_pos[e] not in taken_r]
        for e in carried:
            matched[e] = True
        if not rest:
            continue
        rows = np.array([g_pos[e] - bisect_left(taken_g, g_pos[e]) for e in rest])
        cols = np.array([r_pos[e] - bisect_left(taken_r, r_pos[e]) for e in rest])
        rank = rows * (n_res - len(carried)) + cols
        for k in solve_assignment(rows, cols, 1.0 - table.iou[rest], rank):
            matched[rest[k]] = True
    return np.array(matched, dtype=bool)


def _by_frame(num_frames: int, frame: np.ndarray, values: list) -> list[tuple]:
    """``values`` grouped into one tuple per frame 1..num_frames; ``frame`` ascending."""
    bounds = np.searchsorted(frame, np.arange(1, num_frames + 2)).tolist()
    return [tuple(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


@dataclass(frozen=True, eq=False)
class EventLog:
    """Assignment outcome of a whole sequence, as columns over its edge table.

    ``matched[e]`` tells whether frame-by-frame matching takes edge ``e`` of
    ``table``, and ``switch[e]`` whether that match is an identity switch:
    its hypothesis differs from the target's previous match.  Every
    scoreable box of ``table`` that no matched edge holds is a false
    negative or a false positive.
    """

    name: str
    table: EdgeTable
    matched: np.ndarray
    switch: np.ndarray

    @property
    def num_frames(self) -> int:
        return self.table.num_frames

    @property
    def events(self) -> list[FrameEvents]:
        """The outcome grouped into one :class:`FrameEvents` per frame 1..num_frames.

        Builds a tuple per declared frame; counting never reads it.
        """
        table, matched, switch = self.table, self.matched, self.switch
        g, r = table.gt_row[matched], table.res_row[matched]
        fn = np.bincount(g, minlength=len(table.gt_id)) == 0
        fp = np.bincount(r, minlength=len(table.res_id)) == 0
        n = self.num_frames
        columns = zip(
            _by_frame(n, table.frame[matched], list(zip(
                table.gt_id[g].tolist(), table.res_id[r].tolist(),
                table.iou[matched].tolist()))),
            _by_frame(n, table.res_frame[fp], table.res_id[fp].tolist()),
            _by_frame(n, table.gt_frame[fn], table.gt_id[fn].tolist()),
            _by_frame(n, table.frame[switch], table.gt_id[table.gt_row[switch]].tolist()),
        )
        return [FrameEvents(t, *ev) for t, ev in enumerate(columns, start=1)]


def run_sequence(
    seq: SequenceData,
    cfg: MatchingConfig = MatchingConfig(),
    preprocessed: EdgeTable | None = None,
) -> EventLog:
    """Evaluate a whole sequence, threading carryover and last-known state.

    ``preprocessed`` is the sequence's :func:`preprocess_sequence` table under
    ``cfg``, computed here when not given.  The events equal those of
    :func:`preprocess_frame` and :func:`match_frame` run frame by frame; an
    identity switch is a match whose hypothesis differs from the target's
    previous match.
    """
    table = preprocess_sequence(seq, cfg) if preprocessed is None else preprocessed
    matched = _match(table)
    e = np.flatnonzero(matched)
    e = e[np.lexsort((table.frame[e], table.gt_id[table.gt_row[e]]))]  # by target, then frame
    gt_id, res_id = table.gt_id[table.gt_row[e]], table.res_id[table.res_row[e]]
    switch = np.zeros(len(matched), dtype=bool)
    switch[e[1:]] = (gt_id[1:] == gt_id[:-1]) & (res_id[1:] != res_id[:-1])
    return EventLog(seq.name, table, matched, switch)
