"""Detector evaluation: precision/recall sweeps and average precision.

Detections are scored frame by frame with greedy descending-IoU matching, the
standard convention for detector benchmarks; the tracker evaluation keeps its
own matcher and is unaffected by anything here.

Two ground-truth modes exist.  ``tracking_gt`` scores against every box the
tracking evaluation considers, including heavily occluded ones, so recall
tops out lower than detector papers usually report.  ``visible_only``
restricts the ground truth to boxes at or above a visibility cut, matching
detection-challenge style scoring; the cut is configuration, not a calibrated
constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .model import BoxEntry, Rows, pairwise_iou

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


def _greedy_frame_tp(overlaps: np.ndarray, thr: float) -> int:
    """Matches of greedy descending-IoU matching, earlier rows and columns first on ties."""
    rows, cols = np.nonzero(overlaps >= thr)
    pairs = sorted(zip((-overlaps[rows, cols]).tolist(), rows.tolist(), cols.tolist()))
    used_d: set[int] = set()
    used_g: set[int] = set()
    for _, di, gi in pairs:
        if di in used_d or gi in used_g:
            continue
        used_d.add(di)
        used_g.add(gi)
    return len(used_d)


def pr_curve(
    detections: Rows | Iterable[BoxEntry],
    gt: Rows | Iterable[BoxEntry],
    iou_threshold: float = 0.5,
    mode: GroundTruthMode = "tracking_gt",
    min_visibility: float = 0.5,
) -> PRCurve:
    """Sweep every distinct confidence value and score the kept detections.

    Within a frame, greedy matching ties go to the higher-scored detection,
    then to the lower ground-truth track id.  With no scored detections the
    curve is empty and its AP is zero.
    """
    dets, gts = Rows.of(detections), Rows.of(gt).sorted()
    scored = gts.scoreable
    if mode == "visible_only":
        scored &= gts.visibility >= min_visibility
    gt_frame, gt_ltwh = gts.frame[scored], gts.ltwh[scored]
    order = np.lexsort((dets.track_id, -dets.confidence, dets.frame))
    det_frame, det_conf, det_ltwh = dets.frame[order], dets.confidence[order], dets.ltwh[order]

    # Any return flag keeps np.unique from importing numpy.ma (numpy 2.x).
    thresholds = np.unique(det_conf, return_counts=True)[0][::-1]
    frames, starts = np.unique(det_frame, return_index=True)
    ends = np.append(starts[1:], len(det_frame))
    spans = zip(np.searchsorted(gt_frame, frames), np.searchsorted(gt_frame, frames, "right"))
    # Per frame: the IoU of each (detection, GT) pair, and the count each threshold keeps.
    per_frame = [
        (pairwise_iou(det_ltwh[a:b], gt_ltwh[c:d]),
         np.searchsorted(-det_conf[a:b], -thresholds, side="right").tolist())
        for a, b, (c, d) in zip(starts, ends, spans)
    ]
    points = []
    for t, thr in enumerate(thresholds.tolist()):
        tp = kept_total = 0
        for overlaps, kept in per_frame:
            if kept[t]:
                tp += _greedy_frame_tp(overlaps[:kept[t]], iou_threshold)
                kept_total += kept[t]
        recall = 100.0 * tp / len(gt_frame) if len(gt_frame) else 0.0
        precision = 100.0 * tp / kept_total if kept_total else 0.0
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
