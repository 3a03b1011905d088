"""Identity metrics from a global track-level bipartite matching.

Unlike the frame-level metrics, the target-to-hypothesis mapping here is
decided once for the entire sequence: whole tracks are paired so that the
total number of frames on which paired tracks disagree is minimal.  Dummy
nodes absorb unmatched tracks at the cost of their full length, so the
optimal matching pairs tracks with the largest temporal overlap.

From the optimal matching, identity true positives (IDTP) are the co-detected
frames of matched pairs; every other ground-truth box is an identity false
negative (IDFN) and every other predicted box an identity false positive
(IDFP).  Precision, recall, and their harmonic mean follow.

The same neutral-class preprocessing used by the frame-level metrics must be
applied before building the table, so both metric families score one and the
same box set.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .assignment import solve_assignment
from .model import BoxEntry, pairwise_iou


@dataclass(frozen=True)
class TrackMatchTable:
    """Per-pair temporal overlap counts between whole tracks.

    ``co_detections[(i, j)]`` is the number of frames on which ground-truth
    track ``i`` and predicted track ``j`` both have a box overlapping at or
    above the matching threshold.  A frame contributes at most one count per
    pair; no per-frame exclusivity is imposed at table-build time.
    """

    gt_lengths: Mapping[int, int]
    pred_lengths: Mapping[int, int]
    co_detections: Mapping[tuple[int, int], int]


@dataclass(frozen=True)
class IdentityScores:
    idtp: int
    idfp: int
    idfn: int
    idp: float | None
    idr: float | None
    idf1: float | None
    matches: tuple[tuple[int, int], ...] = ()


def _scores_from_counts(
    idtp: int, idfp: int, idfn: int, matches: tuple[tuple[int, int], ...] = ()
) -> IdentityScores:
    idp = 100.0 * idtp / (idtp + idfp) if (idtp + idfp) > 0 else None
    idr = 100.0 * idtp / (idtp + idfn) if (idtp + idfn) > 0 else None
    denom = 2 * idtp + idfp + idfn
    idf1 = 100.0 * 2 * idtp / denom if denom > 0 else None
    return IdentityScores(
        idtp=idtp, idfp=idfp, idfn=idfn, idp=idp, idr=idr, idf1=idf1, matches=matches
    )


def build_table(
    gt_entries: Iterable[BoxEntry],
    pred_entries: Iterable[BoxEntry],
    iou_threshold: float = 0.5,
) -> TrackMatchTable:
    """Count per-frame spatial co-detections for every track pair."""
    gt_by_frame: dict[int, list[BoxEntry]] = defaultdict(list)
    pred_by_frame: dict[int, list[BoxEntry]] = defaultdict(list)
    gt_lengths: Counter[int] = Counter()
    pred_lengths: Counter[int] = Counter()
    for e in gt_entries:
        gt_by_frame[e.frame].append(e)
        gt_lengths[e.track_id] += 1
    for e in pred_entries:
        pred_by_frame[e.frame].append(e)
        pred_lengths[e.track_id] += 1

    co: Counter[tuple[int, int]] = Counter()
    for frame, gts in gt_by_frame.items():
        preds = pred_by_frame.get(frame)
        if not preds:
            continue
        overlaps = pairwise_iou([g.box for g in gts], [p.box for p in preds])
        for i, j in zip(*np.nonzero(overlaps >= iou_threshold)):
            co[(gts[i].track_id, preds[j].track_id)] += 1
    return TrackMatchTable(
        gt_lengths=dict(gt_lengths),
        pred_lengths=dict(pred_lengths),
        co_detections=dict(co),
    )


def solve_identity(table: TrackMatchTable) -> IdentityScores:
    """Optimal track pairing and the identity scores it induces.

    The bipartite problem is augmented with dummy nodes so every track is
    matched: pairing real tracks i and j costs the frames where either exists
    without the other co-detecting, ``(len_i - co) + (len_j - co)``; pairing
    with a dummy costs the full track length.  A track with no co-detections
    costs its full length whatever it is paired with, so only tracks that
    appear in ``co_detections`` enter the solve; every other track's length
    goes straight into IDFN or IDFP.  The solve runs on the sparse graph of
    co-detecting pairs, their tracks' own dummies and one dummy-to-dummy edge
    per pair, one connected component at a time.  Equal-cost optima go to the
    lowest summed rank ``i * m + j`` of the real pairs, where ``i`` and ``j``
    are positions in id order among the co-detecting gt and pred tracks, so
    tracks without co-detections never change the pairing.
    """
    pairs = sorted(table.co_detections)
    gt_ids, i = np.unique([gt_id for gt_id, _ in pairs], return_inverse=True)
    pred_ids, j = np.unique([pred_id for _, pred_id in pairs], return_inverse=True)
    n, m, n_pairs = len(gt_ids), len(pred_ids), len(pairs)
    co = np.array([table.co_detections[pair] for pair in pairs], dtype=np.int64)
    gt_len = np.array([table.gt_lengths[g] for g in gt_ids.tolist()], dtype=np.int64)
    pred_len = np.array([table.pred_lengths[p] for p in pred_ids.tolist()], dtype=np.int64)

    # Rows: gt tracks 0..n-1, then pred dummies n..n+m-1.  Columns: pred
    # tracks 0..m-1, then gt dummies m..m+n-1.  Real pairs come first.
    gt_nodes, pred_nodes = np.arange(n), np.arange(m)
    chosen = solve_assignment(
        rows=np.concatenate([i, gt_nodes, n + pred_nodes, n + j]),
        cols=np.concatenate([j, m + gt_nodes, pred_nodes, m + i]),
        cost=np.concatenate([gt_len[i] + pred_len[j] - 2 * co, gt_len, pred_len,
                             np.zeros(n_pairs, dtype=np.int64)]),
        rank=np.concatenate([i * m + j, np.zeros(n + m + n_pairs, dtype=np.int64)]),
    )
    real = [e for e in chosen if e < n_pairs]
    idtp = int(co[real].sum())
    matches = tuple(pairs[e] for e in real)
    return _scores_from_counts(
        idtp,
        sum(table.pred_lengths.values()) - idtp,
        sum(table.gt_lengths.values()) - idtp,
        matches,
    )


def evaluate_identity(
    preprocessed: Sequence[tuple[int, list[BoxEntry], list[BoxEntry]]],
    iou_threshold: float = 0.5,
) -> IdentityScores:
    """Identity scores of one sequence from its preprocessed frames."""
    gt_entries = [g for _, kept_gt, _ in preprocessed for g in kept_gt]
    pred_entries = [r for _, _, kept_res in preprocessed for r in kept_res]
    return solve_identity(build_table(gt_entries, pred_entries, iou_threshold))


def pool_identity(scores: Iterable[IdentityScores]) -> IdentityScores:
    """Benchmark-level identity scores: sum the counts, then take ratios."""
    idtp = idfp = idfn = 0
    for s in scores:
        idtp += s.idtp
        idfp += s.idfp
        idfn += s.idfn
    return _scores_from_counts(idtp, idfp, idfn)
