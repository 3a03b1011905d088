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
:func:`build_table` reduces it to track lengths and pair counts, as columns
that :func:`solve_identity` reads as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .assignment import EdgeTable, solve_assignment


@dataclass(frozen=True, eq=False)
class TrackMatchTable:
    """Per-track lengths and per-pair temporal overlap counts, as columns.

    ``gt_ids``/``pred_ids`` list the tracks in ascending id order and
    ``gt_lengths``/``pred_lengths`` their box counts.  Co-detecting pair
    ``k``, in (gt id, pred id) order, joins tracks ``gt_ids[pair_gt[k]]`` and
    ``pred_ids[pair_pred[k]]``; ``co_detections[k]`` counts the frames on
    which their boxes overlap at or above the matching threshold.  A frame
    contributes at most one count per pair; no per-frame exclusivity is
    imposed at table-build time.
    """

    gt_ids: np.ndarray
    gt_lengths: np.ndarray
    pred_ids: np.ndarray
    pred_lengths: np.ndarray
    pair_gt: np.ndarray
    pair_pred: np.ndarray
    co_detections: np.ndarray


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


def build_table(table: EdgeTable) -> TrackMatchTable:
    """Count per-frame spatial co-detections for every track pair.

    ``table`` is the :class:`~motbench.assignment.EdgeTable` of
    :func:`~motbench.assignment.preprocess_sequence`; a pair co-detects on a
    frame when it has an edge in that frame, that is, an overlap at or above
    the table's matching threshold.
    """
    gt_ids, gt_track, gt_len = np.unique(table.gt_id, return_inverse=True, return_counts=True)
    pred_ids, pred_track, pred_len = np.unique(
        table.res_id, return_inverse=True, return_counts=True)
    m = len(pred_ids)
    pairs, co = np.unique(gt_track[table.gt_row] * m + pred_track[table.res_row],
                          return_counts=True)
    return TrackMatchTable(gt_ids, gt_len, pred_ids, pred_len, pairs // m, pairs % m, co)


def solve_identity(table: TrackMatchTable) -> IdentityScores:
    """Optimal track pairing and the identity scores it induces.

    The bipartite problem is augmented with dummy nodes so every track is
    matched: pairing real tracks i and j costs the frames where either exists
    without the other co-detecting, ``(len_i - co) + (len_j - co)``; pairing
    with a dummy costs the full track length.  A track with no co-detections
    costs its full length whatever it is paired with, so only tracks that
    appear in a co-detecting pair enter the solve; every other track's length
    goes straight into IDFN or IDFP.  The solve runs on the sparse graph of
    co-detecting pairs, their tracks' own dummies and one dummy-to-dummy edge
    per pair, one connected component at a time.  Equal-cost optima go to the
    lowest summed rank ``i * m + j`` of the real pairs, where ``i`` and ``j``
    are positions in id order among the co-detecting gt and pred tracks, so
    tracks without co-detections never change the pairing.
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
        rows=np.concatenate([i, gt_nodes, n + pred_nodes, n + j]),
        cols=np.concatenate([j, m + gt_nodes, pred_nodes, m + i]),
        cost=np.concatenate([gt_len[i] + pred_len[j] - 2 * co, gt_len, pred_len,
                             np.zeros(n_pairs, dtype=np.int64)]),
        rank=np.concatenate([i * m + j, np.zeros(n + m + n_pairs, dtype=np.int64)]),
    )
    real = np.array([e for e in chosen if e < n_pairs], dtype=np.int64)
    idtp = int(co[real].sum())
    matches = tuple(zip(table.gt_ids[table.pair_gt[real]].tolist(),
                        table.pred_ids[table.pair_pred[real]].tolist()))
    return _scores_from_counts(
        idtp,
        int(table.pred_lengths.sum()) - idtp,
        int(table.gt_lengths.sum()) - idtp,
        matches,
    )


def evaluate_identity(preprocessed: EdgeTable) -> IdentityScores:
    """Identity scores of one sequence from its :class:`EdgeTable`."""
    return solve_identity(build_table(preprocessed))


def pool_identity(scores: Iterable[IdentityScores]) -> IdentityScores:
    """Benchmark-level identity scores: sum the counts, then take ratios."""
    idtp = idfp = idfn = 0
    for s in scores:
        idtp += s.idtp
        idfp += s.idfp
        idfn += s.idfn
    return _scores_from_counts(idtp, idfp, idfn)
