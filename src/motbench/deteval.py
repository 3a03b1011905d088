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
from itertools import accumulate
from typing import Iterable, Literal, Sequence, get_args

import numpy as np

from .assignment import MatchingConfig
from .model import BoxEntry, Rows, _check_rows, _edges

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

    Raises ``ValueError`` for a ``mode`` other than ``"tracking_gt"`` or
    ``"visible_only"``, and at the first row of either input that breaks the
    row rules of the file format: a frame below 1, the box geometry or a
    class code outside ``ObjectClass``.
    """
    MatchingConfig(iou_threshold)  # ValueError outside (0, 1]
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
    points = []
    for thr, tp, kept_total in zip(
        scores[::-1].tolist(), accumulate(gain), accumulate(counts[::-1].tolist())
    ):
        recall = 100.0 * tp / len(gt_frame) if len(gt_frame) else 0.0
        precision = 100.0 * tp / kept_total
        points.append(PRPoint(threshold=thr, recall=recall, precision=precision))

    curve_points = tuple(points)
    return PRCurve(
        points=curve_points,
        ap=_eleven_point_ap(curve_points),
        operating_point=curve_points[-1] if curve_points else None,
    )


def _eleven_point_ap(points: Sequence[PRPoint]) -> float:
    """Mean interpolated precision at recall 0, 10, ..., 100 percent.

    Interpolated precision at a recall level is the best precision achieved
    at that recall or beyond; levels the curve never reaches contribute zero.
    """
    if not points:
        return 0.0
    total = 0.0
    for step in range(11):
        level = 10.0 * step
        candidates = [p.precision for p in points if p.recall >= level - 1e-9]
        total += max(candidates) if candidates else 0.0
    return total / 11.0


def export_curve(curve: PRCurve) -> str:
    """Comma-separated (threshold, recall, precision) rows for plotting."""
    lines = ["threshold,recall,precision"]
    for p in curve.points:
        lines.append(f"{p.threshold!r},{p.recall!r},{p.precision!r}")
    return "\n".join(lines) + "\n"
