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
A cost difference of 1e-9 or more always decides before rank; a smaller
one may decide or tie.  A matching problem is split before it is solved:
:func:`solve_assignment`, the one splitter of the neutral-class filter, the
frames with conflicting pairs and the identity solve, labels the pairs'
connected components with a plain-Python union-find over Python lists.
Each pair that shares no box with another pair is taken directly, and every
other component is solved on its own by :func:`_solve_component`, so a
target without any feasible pair cannot disturb the others' ties, and a
frame of a few pairs costs what its pairs cost.

Evaluation runs the protocol on a whole sequence at once.
:func:`preprocess_sequence` (step 1) takes the pairs at or above the
threshold from the package's one overlap pass, :func:`~motbench.model._edges`,
and keeps them, with the boxes that survive the neutral-class filter, as one
:class:`EdgeTable`.  :func:`run_sequence` (steps 2 and 3, then the identity
switches) decides every pair that shares no box with another pair by array
operations and loops only over the frames that hold a conflict.  Before
that loop it links each pair to the pair of the same target and hypothesis
in the previous frame, so carryover in the loop is one lookup per pair.  Its
:class:`EventLog` is two masks over the table's pairs, matched and identity
switch; the frame-level counts are read off those columns and the identity
metrics count co-detections on the same table.  No step does work per
declared frame or per far-apart pair of boxes: a sequence costs what its
rows and their nearby pairs cost.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .model import NEUTRAL_CLASSES, ObjectClass, SequenceData, _edges


@dataclass(frozen=True)
class MatchingConfig:
    """Knobs of the matching protocol."""

    iou_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold must be in (0, 1], got {self.iou_threshold}")


#: ``_NEUTRAL[code]``: whether class code ``code`` is a neutral class.
_NEUTRAL = np.isin(np.arange(max(ObjectClass) + 1), list(NEUTRAL_CLASSES))


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
    edges: list[int], rows: list[int], cols: list[int], cost: list[float], rank: list[int],
    *, most_pairs: bool = True,
) -> list[int]:
    """The chosen edges of one connected component, by :func:`solve_assignment`."""
    row_at = {v: i for i, v in enumerate(sorted({rows[e] for e in edges}))}
    col_at = {v: j for j, v in enumerate(sorted({cols[e] for e in edges}))}
    n_rows, n_cols = len(row_at), len(col_at)
    k = min(n_rows, n_cols)
    local = {(row_at[rows[e]], col_at[cols[e]]): e for e in edges}
    lowest = min(cost[e] for e in edges)
    first = min(rank[e] for e in edges)
    if not most_pairs:  # a slack column is an edge at cost 0 and rank 0
        lowest, first = min(lowest, 0), min(first, 0)
    # Any matching's summed rank stays below ``ties``, so scaling the cost
    # resolution to ``ties`` ranks every cost difference above the rank.
    ties = k * (max(rank[e] for e in edges) - first + 1)
    resolution = 1.0 if all(float(cost[e]).is_integer() for e in edges) else 1.0e-9
    scale = ties / resolution
    # Permutations of one row and column set tie on summed rank; the last
    # level, below one rank unit, pairs rows and columns in order.
    spread = k * n_rows * n_cols
    keys = [
        (cost[e] - lowest) * scale + (rank[e] - first)
        + i * (n_cols - 1 - j) / spread
        for (i, j), e in local.items()
    ]
    # With ``most_pairs``, one more pair outweighs any key total of a matching
    # in this component, so a slack column is taken only when no pair is left.
    slack = k * max(keys) + 1.0 if most_pairs else -lowest * scale - first
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
        out.append((n_other + a, slack))
    picked = _shortest_augmenting_paths(adj, n_other)
    return [
        local[(b, a) if flip else (a, b)] for a, b in enumerate(picked) if b < n_other
    ]


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


def solve_assignment(
    rows: list[int], cols: list[int], cost: list[float], rank: list[int],
    *, most_pairs: bool = True,
) -> list[int]:
    """Optimal matching over a sparse list of feasible edges.

    Edge ``e`` joins row ``rows[e]`` to column ``cols[e]`` (non-negative
    integer ids, one id space per side) at ``cost[e]``; all four are Python
    lists.  The chosen matching uses only these edges and has the most
    pairs, then the lowest total cost, then the lowest summed ``rank``;
    among permutations of the same rows and columns, which tie on summed
    rank, it pairs them in order.  With ``most_pairs=False`` the number of
    pairs does not count: any node may stay unmatched at cost 0 and rank 0,
    so the lowest total cost comes first.  Every cost must then be
    negative, so that a pair always beats leaving both its ends unmatched.
    A cost difference of at least the resolution of the costs, 1 for
    integer costs and 1e-9 otherwise, always decides before rank; a smaller
    one may decide or tie.  Returns the indices of the chosen edges in
    ascending order.

    The edges are split into the connected components of their graph by a
    plain-Python union-find with path halving (Tarjan & van Leeuwen 1984),
    so the split costs what the edges cost and makes no numpy call.  Its
    parent pointers are one list indexed by node id, column ``c`` stored at
    ``max(rows) + 1 + c``, and only the edges' ends are set.  So memory
    grows by one pointer per id up to the largest: callers pass positions,
    not raw track ids.  A component of one edge is its own
    matching and is taken as it is.  Every other component is solved on its
    own, with its edges in ascending order, by shortest augmenting paths
    over its edge lists (:func:`_solve_component`); no dense matrix is
    built.  Each node of the searching side has a slack column of its own,
    taken when the node stays unmatched.  Its key is the penalty for a
    missing pair, sized from that component, small enough that every
    tie-break level stays above rounding error; with ``most_pairs=False``
    it is the key of a cost-0, rank-0 edge.
    """
    if not rows:
        return []
    shift = max(rows) + 1
    ends = [c + shift for c in cols]
    up = [0] * (shift + max(cols) + 1)  # only the slots of the edges' ends are read
    for a, b in zip(rows, ends):
        up[a], up[b] = a, b
    for a, b in zip(rows, ends):
        while a != up[a]:
            up[a] = a = up[up[a]]
        while b != up[b]:
            up[b] = b = up[up[b]]
        up[a] = b
    components: dict[int, list[int]] = {}
    for e, a in enumerate(rows):
        while a != up[a]:
            up[a] = a = up[up[a]]
        components.setdefault(a, []).append(e)
    chosen: list[int] = []
    for edges in components.values():
        chosen += edges if len(edges) == 1 else _solve_component(
            edges, rows, cols, cost, rank, most_pairs=most_pairs)
    chosen.sort()
    return chosen


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


def preprocess_sequence(
    seq: SequenceData,
    cfg: MatchingConfig = MatchingConfig(),
) -> EdgeTable:
    """Step 1 of the protocol on a whole sequence; its :class:`EdgeTable`.

    :func:`~motbench.model._edges` finds every same-frame (GT, result) pair
    at or above the threshold, scoring each GT box only against the result
    boxes near it, and only those pairs are kept.  The min-cost pass of
    step 1 is solved only on the connected components of those pairs that
    hold a neutral-class pair above the threshold; each pair keeps its rank
    ``i * m + j`` by position in its whole frame, so the pass drops the
    result boxes a frame-wide solve would.  Both the frame-level metrics and
    the identity metrics score exactly this table.
    """
    gt, res, threshold = seq.gt, seq.results, cfg.iou_threshold
    g, r, overlap = _edges(gt.frame, gt.ltwh, res.frame, res.ltwh, threshold)
    kept = np.ones(len(res), dtype=bool)
    neutral = _NEUTRAL[gt.object_class][g] & (overlap > threshold)
    if neutral.any():
        label = _edge_components(g, r)
        hot = np.flatnonzero(np.isin(label, label[neutral]))
        frame = gt.frame[g[hot]]
        r_lo = np.searchsorted(res.frame, frame)
        i, j = g[hot] - np.searchsorted(gt.frame, frame), r[hot] - r_lo
        m = np.searchsorted(res.frame, frame, "right") - r_lo
        chosen = hot[solve_assignment(g[hot].tolist(), r[hot].tolist(),
                                      (1.0 - overlap[hot]).tolist(), (i * m + j).tolist())]
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
    loop, numpy computes each edge's carryover link
    (:func:`_carryover_links`) and each such frame's slices of its
    conflicting edges and of its linked edges.  Carryover (step 2) takes the
    linked edges whose link is matched, free edges too, as they move the
    others' positions.  Step 3 is one :func:`solve_assignment` over the
    frame's conflicting edges that share no end with a carried edge, ranked
    ``i * m + j`` by position among the ids that no carried edge took.
    Those positions are its rows and columns, so the splitter's id-indexed
    list is as short as the frame's boxes.
    """
    g, r, frame = table.gt_row, table.res_row, table.frame
    free = _free(g, r)
    if free.all():
        return free
    matched = free.tolist()
    link = _carryover_links(table)
    conflict = np.flatnonzero(~free)
    hot = frame[conflict]
    cut = np.flatnonzero(np.diff(hot)) + 1
    hot = hot[np.r_[0, cut]]  # each frame t with a conflict, ascending
    linked = np.flatnonzero(link >= 0)  # the carryover candidates, by frame
    # Per t: its conflicting and its linked edges, as slices; t's result count.
    spans = [np.r_[0, cut], np.r_[cut, len(conflict)],
             *np.searchsorted(frame[linked], [hot, hot + 1])]
    res_count = np.diff(np.searchsorted(table.res_frame, [hot, hot + 1]), axis=0)[0]
    g_pos = g - np.searchsorted(table.gt_frame, frame)
    r_pos = r - np.searchsorted(table.res_frame, frame)
    source = link[linked].tolist()
    linked_g, linked_r = g_pos[linked].tolist(), r_pos[linked].tolist()
    conflict_g, conflict_r = g_pos[conflict].tolist(), r_pos[conflict].tolist()
    cost = (1.0 - table.iou[conflict]).tolist()
    linked, conflict = linked.tolist(), conflict.tolist()
    for c_lo, c_hi, l_lo, l_hi, n_res in zip(*(s.tolist() for s in spans), res_count.tolist()):
        carried = [k for k in range(l_lo, l_hi) if matched[source[k]]]
        taken_g = [linked_g[k] for k in carried]  # ascending, as the edges are
        taken_r = sorted([linked_r[k] for k in carried])
        held_g, held_r = set(taken_g), set(taken_r)
        rest = [k for k in range(c_lo, c_hi)
                if conflict_g[k] not in held_g and conflict_r[k] not in held_r]
        for k in carried:
            matched[linked[k]] = True
        if not rest:
            continue
        rows = [conflict_g[k] - bisect_left(taken_g, conflict_g[k]) for k in rest]
        cols = [conflict_r[k] - bisect_left(taken_r, conflict_r[k]) for k in rest]
        m = n_res - len(carried)
        rank = [i * m + j for i, j in zip(rows, cols)]
        for k in solve_assignment(rows, cols, [cost[k] for k in rest], rank):
            matched[conflict[rest[k]]] = True
    return np.array(matched, dtype=bool)


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


def run_sequence(
    seq: SequenceData,
    cfg: MatchingConfig = MatchingConfig(),
    preprocessed: EdgeTable | None = None,
) -> EventLog:
    """Evaluate a whole sequence: steps 2 and 3 frame by frame, then the switches.

    ``preprocessed`` is the sequence's :func:`preprocess_sequence` table
    under ``cfg`` (step 1), computed here when not given.  An identity
    switch is a match whose hypothesis differs from the target's previous
    match.
    """
    table = preprocess_sequence(seq, cfg) if preprocessed is None else preprocessed
    matched = _match(table)
    e = np.flatnonzero(matched)
    e = e[np.lexsort((table.frame[e], table.gt_id[table.gt_row[e]]))]  # by target, then frame
    gt_id, res_id = table.gt_id[table.gt_row[e]], table.res_id[table.res_row[e]]
    switch = np.zeros(len(matched), dtype=bool)
    switch[e[1:]] = (gt_id[1:] == gt_id[:-1]) & (res_id[1:] != res_id[:-1])
    return EventLog(table, matched, switch)
