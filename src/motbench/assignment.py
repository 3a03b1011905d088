"""Per-frame tracker-to-target matching.

The matching protocol, applied frame by frame:

1.  Preprocessing.  Every result box is matched against *all* ground-truth
    boxes of the frame (any class, any consider-flag) with one min-cost pass.
    Result boxes whose matched ground-truth box belongs to a neutral class
    (person on vehicle, static person, distractor, reflection) at an overlap
    strictly above the threshold are excluded from scoring: the tracker is
    neither penalized nor rewarded for following them.  Only ground-truth
    boxes that are pedestrians with an active consider-flag enter the scoring
    set; inactive entries never count as false negatives or true positives.
    The IoU of every pair is computed here, once per frame, and the later
    steps and the identity metrics read the kept part of that matrix.

2.  Carryover.  A pair matched in the previous frame stays matched in the
    current frame whenever its overlap is still at or above the threshold,
    even if another hypothesis is closer to the target.

3.  Fresh matching.  The remaining targets and hypotheses are matched by the
    Hungarian algorithm on cost 1 - IoU; pairs below the overlap threshold are
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
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

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


@dataclass
class EventLog:
    """Assignment outcomes of a whole sequence.

    ``gt_frames`` records, per ground-truth track, the frames that carry a
    scoreable box; it defines each track's life span for coverage metrics.
    """

    name: str
    num_frames: int
    events: list[FrameEvents] = field(default_factory=list)
    gt_frames: dict[int, list[int]] = field(default_factory=dict)

    def matched_frames(self) -> dict[int, set[int]]:
        """Frames in which each ground-truth track was matched."""
        out: dict[int, set[int]] = defaultdict(set)
        for ev in self.events:
            for gt_id, _, _ in ev.matches:
                out[gt_id].add(ev.frame)
        return dict(out)


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
    # One more pair outweighs any key total of a matching in this component.
    matrix = np.full(n_rows * n_cols, k * max(keys) + 1.0)
    matrix[[i * n_cols + j for i, j in local]] = keys
    picked_rows, picked_cols = linear_sum_assignment(matrix.reshape(n_rows, n_cols))
    return [
        local[pair] for pair in zip(picked_rows.tolist(), picked_cols.tolist())
        if pair in local
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

    Each connected component of the edge graph is solved on its own, so the
    dense matrix handed to the solver holds one component's rows and columns
    only, and the penalty for a missing pair is sized from that component,
    small enough that every tie-break level stays above rounding error.
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


def _preprocess(
    gt_ids: np.ndarray, gt_ltwh: np.ndarray, neutral: np.ndarray, scoreable: np.ndarray,
    res_ids: np.ndarray, res_ltwh: np.ndarray, threshold: float,
) -> tuple[list[int], list[int], list[int], np.ndarray]:
    """:func:`preprocess_frame` on the columns of one frame's rows."""
    overlaps = pairwise_iou(gt_ltwh, res_ltwh)
    res_list = res_ids.tolist()
    removed = {
        res_list[j] for i, j, overlap in _min_cost_matching(overlaps, threshold)
        if neutral[i] and overlap > threshold
    } if neutral.any() else set()
    keep_res = [j for j, pred_id in enumerate(res_list) if pred_id not in removed]
    return (
        gt_ids[scoreable].tolist(),
        [res_list[j] for j in keep_res],
        sorted(removed),
        overlaps[scoreable][:, keep_res],
    )


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
    return _preprocess(gt.track_id, gt.ltwh, _NEUTRAL[gt.object_class], gt.scoreable,
                       res.track_id, res.ltwh, cfg.iou_threshold)


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
    :func:`preprocess_sequence`: ascending ids and the IoU of every pair.
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


#: One preprocessed frame: its index, the kept ids and their overlaps.
Frame = tuple[int, list[int], list[int], np.ndarray]


def preprocess_sequence(
    seq: SequenceData,
    cfg: MatchingConfig = MatchingConfig(),
) -> list[Frame]:
    """Preprocess every frame of a sequence.

    Returns one ``(frame, gt_ids, res_ids, overlaps)`` tuple per frame in
    order, as :func:`preprocess_frame` computes them.  Both the frame-level
    metrics and the identity metrics must score exactly this box set with
    these overlaps, so compute it once and share it.
    """
    gt, res = seq.gt, seq.results
    neutral, scoreable = _NEUTRAL[gt.object_class], gt.scoreable
    bounds = np.arange(1, seq.num_frames + 2)
    g = np.searchsorted(gt.frame, bounds).tolist()
    r = np.searchsorted(res.frame, bounds).tolist()
    out = []
    for t in range(1, seq.num_frames + 1):
        gs, rs = slice(g[t - 1], g[t]), slice(r[t - 1], r[t])
        gt_ids, res_ids, _, overlaps = _preprocess(
            gt.track_id[gs], gt.ltwh[gs], neutral[gs], scoreable[gs],
            res.track_id[rs], res.ltwh[rs], cfg.iou_threshold,
        )
        out.append((t, gt_ids, res_ids, overlaps))
    return out


def run_sequence(
    seq: SequenceData,
    cfg: MatchingConfig = MatchingConfig(),
    preprocessed: list[Frame] | None = None,
) -> EventLog:
    """Evaluate a whole sequence, threading carryover and last-known state."""
    if preprocessed is None:
        preprocessed = preprocess_sequence(seq, cfg)
    log = EventLog(name=seq.name, num_frames=seq.num_frames)
    prev_assignment: dict[int, int] = {}
    last_assignment: dict[int, int] = {}
    for t, gt_ids, res_ids, overlaps in preprocessed:
        for gt_id in gt_ids:
            log.gt_frames.setdefault(gt_id, []).append(t)
        events, assignment = match_frame(
            gt_ids, res_ids, overlaps, prev_assignment, last_assignment, cfg, frame=t
        )
        log.events.append(events)
        last_assignment.update(assignment)
        prev_assignment = assignment
    return log
