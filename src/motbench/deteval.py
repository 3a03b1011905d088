"""Detector evaluation: precision/recall sweeps and average precision.

Detections are scored frame by frame with greedy descending-IoU matching, the
standard convention for detector benchmarks; the tracker evaluation keeps its
own matcher.  A sweep finds the feasible (detection, GT) pairs of all frames
in one call of :func:`~motbench.model._edges`, the overlap pass of the tracker
matching too, which scores each GT box only against the detections near it.
It reaches the greedy matching of every score threshold by deferred
acceptance, adding one detection at a time, so it costs O(P log P) in the P
feasible pairs.

Two ground-truth modes exist.  ``tracking_gt`` scores against every box the
tracking evaluation considers, including heavily occluded ones, so recall
tops out lower than detector papers usually report.  ``visible_only``
restricts the ground truth to boxes at or above a visibility cut, matching
detection-challenge style scoring; the cut is configuration, not a calibrated
constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, get_args

import numpy as np

from .model import BoxEntry, Rows, _check_rows, _check_threshold, _edges

GroundTruthMode = Literal["tracking_gt", "visible_only"]


@dataclass(frozen=True)
class PRPoint:
    threshold: float
    recall: float
    precision: float


@dataclass(frozen=True)
class PRCurve:
    """Precision/recall sweep over detection-score thresholds.

    Points are ordered by strictly decreasing threshold, so recall never
    decreases along the list.  The operating point is the curve point at the
    lowest threshold, i.e. the detection set exactly as provided.
    """

    points: tuple[PRPoint, ...]
    ap: float
    operating_point: PRPoint | None


def pr_curve(
    detections: Rows | Iterable[BoxEntry],
    gt: Rows | Iterable[BoxEntry],
    iou_threshold: float = 0.5,
    mode: GroundTruthMode = "tracking_gt",
    min_visibility: float = 0.5,
) -> PRCurve:
    """Sweep every distinct confidence value and score the kept detections.

    Within a frame, greedy matching ties go to the higher-scored detection,
    then to the lower detection track id, then to the detection that comes
    first in the input (the sort is stable), and among ground truth to the
    lower track id.  Greedy matching under that strict edge order is the
    order's unique stable matching, which deferred acceptance reaches from
    any stable matching of fewer detections: so detections are added in
    sweep order, each proposing down its edges best first and displacing
    worse-ranked holders, and a chain that ends on a free GT box adds one
    true positive at the added detection's score.  A cumulative sum gives
    the true positives at every threshold.  With no scored detections the
    curve is empty and its AP is zero.

    Raises ``ValueError`` for an ``iou_threshold`` outside (0, 1], for a
    ``mode`` other than ``"tracking_gt"`` or ``"visible_only"``, and at the
    first row of either input that breaks the row rules of the file format:
    a frame below 1, the box geometry, a confidence that is not finite, a
    class code outside ``ObjectClass`` or a visibility that is not finite.
    """
    _check_threshold(iou_threshold)
    if mode not in get_args(GroundTruthMode):
        raise ValueError(f"mode must be one of {get_args(GroundTruthMode)}, got {mode!r}")
    dets, gts = Rows.of(detections), Rows.of(gt).sorted()
    _check_rows(dets, "detections")
    _check_rows(gts, "gt")
    scored = gts.scoreable
    if mode == "visible_only":
        scored &= gts.visibility >= min_visibility
    gt_frame, gt_ltwh = gts.frame[scored], gts.ltwh[scored]
    order = np.lexsort((dets.track_id, -dets.confidence, dets.frame))
    det_frame, det_conf, det_ltwh = dets.frame[order], dets.confidence[order], dets.ltwh[order]

    # Any return flag keeps np.unique from importing numpy.ma (numpy 2.x).
    scores, counts = np.unique(det_conf, return_counts=True)
    # Per detection, the index of its score among the thresholds, highest first.
    level = (len(scores) - 1 - np.searchsorted(scores, det_conf)).tolist()
    g, d, overlap = _edges(gt_frame, gt_ltwh, det_frame, det_ltwh, iou_threshold)
    # An edge's id is its rank in (frame, -IoU, detection, GT) order, the
    # greedy order; each detection's edges, best first, are one run of ``best``.
    ranked = np.lexsort((g, d, -overlap, det_frame[d]))
    g, d = g[ranked], d[ranked]
    best = np.argsort(d, kind="stable")
    start = np.searchsorted(d[best], np.arange(len(det_frame) + 1)).tolist()
    gt_of, det_of, best = g.tolist(), d.tolist(), best.tolist()

    gain = [0] * len(scores)
    holder = [-1] * len(gt_frame)  # per GT box, the edge that holds it
    nxt, end = start[:-1], start[1:]
    for added in range(len(det_frame)):
        k = added
        while nxt[k] < end[k]:
            e = best[nxt[k]]
            nxt[k] += 1
            held = holder[gt_of[e]]
            if held < 0:
                holder[gt_of[e]] = e
                gain[level[added]] += 1
                break
            if e < held:
                holder[gt_of[e]] = e
                k = det_of[held]
    tp = np.cumsum(gain)
    recall = 100.0 * tp / len(gt_frame) if len(gt_frame) else np.zeros(len(tp))
    precision = 100.0 * tp / np.cumsum(counts[::-1])
    points = tuple(map(PRPoint, scores[::-1].tolist(), recall.tolist(), precision.tolist()))
    return PRCurve(
        points=points,
        ap=_eleven_point_ap(recall, precision),
        operating_point=points[-1] if points else None,
    )


def _eleven_point_ap(recall: np.ndarray, precision: np.ndarray) -> float:
    """Mean interpolated precision at recall 0, 10, ..., 100 percent.

    ``recall`` and ``precision`` are the curve's columns, point by point.
    Interpolated precision at a recall level is the best precision achieved
    at that recall or beyond; levels the curve never reaches contribute zero.
    Recall never falls along the points, so the points at a level or beyond
    form a suffix: the level reads the reversed running maximum of the
    precisions at the suffix's first point, which one ``searchsorted``
    finds for all eleven levels.
    """
    best = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    first = np.searchsorted(recall, 10.0 * np.arange(11) - 1e-9)
    # A running total adds the levels in order; np.sum would pair them.
    return float(np.cumsum(best[first])[-1]) / 11.0


def export_curve(curve: PRCurve) -> str:
    """Comma-separated (threshold, recall, precision) rows for plotting."""
    lines = ["threshold,recall,precision"]
    for p in curve.points:
        lines.append(f"{p.threshold!r},{p.recall!r},{p.precision!r}")
    return "\n".join(lines) + "\n"
