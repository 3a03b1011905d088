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

Co-detections are counted on the edge table the frame-level metrics score
(the kept boxes of each frame and their pairs at or above the matching
threshold), so both metric families score one and the same box set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .assignment import EdgeTable, solve_assignment


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


def build_table(table: EdgeTable, iou_threshold: float = 0.5) -> TrackMatchTable:
    """Count per-frame spatial co-detections for every track pair.

    ``table`` is the :class:`~motbench.assignment.EdgeTable` of
    :func:`~motbench.assignment.preprocess_sequence`; a pair co-detects on a
    frame when its edge of that frame has an overlap at or above
    ``iou_threshold``.  The table stores only pairs at or above its own
    matching threshold, so a lower ``iou_threshold`` adds no pairs.
    """
    gt_ids, gt_track, gt_len = np.unique(table.gt_id, return_inverse=True, return_counts=True)
    pred_ids, pred_track, pred_len = np.unique(
        table.res_id, return_inverse=True, return_counts=True)
    hit = table.iou >= iou_threshold
    m = len(pred_ids)
    pairs, co = np.unique(gt_track[table.gt_row[hit]] * m + pred_track[table.res_row[hit]],
                          return_counts=True)
    return TrackMatchTable(
        gt_lengths=dict(zip(gt_ids.tolist(), gt_len.tolist())),
        pred_lengths=dict(zip(pred_ids.tolist(), pred_len.tolist())),
        co_detections=dict(zip(
            zip(gt_ids[pairs // m].tolist(), pred_ids[pairs % m].tolist()), co.tolist())),
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


def evaluate_identity(preprocessed: EdgeTable, iou_threshold: float = 0.5) -> IdentityScores:
    """Identity scores of one sequence from its :class:`EdgeTable`."""
    return solve_identity(build_table(preprocessed, iou_threshold))


def pool_identity(scores: Iterable[IdentityScores]) -> IdentityScores:
    """Benchmark-level identity scores: sum the counts, then take ratios."""
    idtp = idfp = idfn = 0
    for s in scores:
        idtp += s.idtp
        idfp += s.idfp
        idfn += s.idfn
    return _scores_from_counts(idtp, idfp, idfn)
