"""Identity metrics from a global track-level bipartite matching.

Unlike the frame-level metrics, the target-to-hypothesis mapping here is
decided once for the entire sequence: whole tracks are paired one to one so
that the paired tracks co-detect on the most frames (Ristani et al., 2016).
This is the pairing with the fewest frames on which paired tracks disagree,
an unpaired track disagreeing on its whole length: those frames number the
summed track length minus twice the co-detected frames.  Only co-detecting
pairs add to that count, so the pairing is a maximum-weight matching over
them alone, and any track may stay unpaired.

From the optimal matching, identity true positives (IDTP) are the co-detected
frames of matched pairs; every other ground-truth box is an identity false
negative (IDFN) and every other predicted box an identity false positive
(IDFP).  Precision, recall, and their harmonic mean follow.  Benchmark
scores pool these three counts, never the ratios: they ride in
:class:`~motbench.clearmot.Counts` with the frame-level counts and sum with
them, so this module has no pooling of its own.

Co-detections are counted on the edge table the frame-level metrics score
(the kept boxes of each frame and their pairs at or above the matching
threshold), so both metric families score one and the same box set.
:func:`build_table` reduces it to track lengths and pair counts, as columns
that :func:`solve_identity` reads as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    the table's matching threshold.  A sequence holds one box per (frame,
    id) on each side, so a pair's edge count is its co-detected frames.
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

    The pairing has the most co-detected frames summed over its pairs.  It
    is one :func:`~motbench.assignment.solve_assignment` over the
    co-detecting pairs alone, at cost ``-co`` and with ``most_pairs=False``,
    so any track may stay unpaired and a track without co-detections never
    enters the solve.  Equal optima go to the lowest summed rank
    ``i * m + j`` of the pairs, where ``i`` and ``j`` are positions in id
    order among the co-detecting gt and pred tracks, so tracks without
    co-detections never change the pairing either.
    """
    co = table.co_detections
    _, i = np.unique(table.pair_gt, return_inverse=True)
    pred_used, j = np.unique(table.pair_pred, return_inverse=True)
    chosen = solve_assignment(i, j, -co, i * len(pred_used) + j, most_pairs=False)
    idtp = int(co[chosen].sum())
    matches = tuple(zip(table.gt_ids[table.pair_gt[chosen]].tolist(),
                        table.pred_ids[table.pair_pred[chosen]].tolist()))
    return _scores_from_counts(
        idtp,
        int(table.pred_lengths.sum()) - idtp,
        int(table.gt_lengths.sum()) - idtp,
        matches,
    )


def evaluate_identity(preprocessed: EdgeTable) -> IdentityScores:
    """Identity scores of one sequence from its :class:`EdgeTable`."""
    return solve_identity(build_table(preprocessed))

