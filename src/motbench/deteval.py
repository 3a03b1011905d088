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

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .model import BoxEntry, ObjectClass, pairwise_iou

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


def _greedy_frame_tp(dets: Sequence[BoxEntry], gts: Sequence[BoxEntry], thr: float) -> int:
    overlaps = pairwise_iou([d.box for d in dets], [g.box for g in gts])
    pairs = [
        (-overlaps[di, gi], di, gi)
        for di, gi in zip(*np.nonzero(overlaps >= thr))
    ]
    pairs.sort()
    used_d: set[int] = set()
    used_g: set[int] = set()
    tp = 0
    for _, di, gi in pairs:
        if di in used_d or gi in used_g:
            continue
        used_d.add(di)
        used_g.add(gi)
        tp += 1
    return tp


def _scoring_gt(
    gt: Iterable[BoxEntry], mode: GroundTruthMode, min_visibility: float
) -> list[BoxEntry]:
    kept = [g for g in gt if g.object_class is ObjectClass.PEDESTRIAN and g.is_active]
    if mode == "visible_only":
        kept = [g for g in kept if g.visibility >= min_visibility]
    return kept


def pr_curve(
    detections: Iterable[BoxEntry],
    gt: Iterable[BoxEntry],
    iou_threshold: float = 0.5,
    mode: GroundTruthMode = "tracking_gt",
    min_visibility: float = 0.5,
) -> PRCurve:
    """Sweep every distinct confidence value and score the kept detections.

    With no scored detections the curve is empty and its AP is zero.
    """
    dets = sorted(detections, key=lambda d: (d.frame, -d.confidence, d.track_id))
    gts = _scoring_gt(gt, mode, min_visibility)
    num_gt = len(gts)
    gt_by_frame: dict[int, list[BoxEntry]] = defaultdict(list)
    for g in gts:
        gt_by_frame[g.frame].append(g)

    thresholds = sorted({d.confidence for d in dets}, reverse=True)
    points = []
    for thr in thresholds:
        kept_by_frame: dict[int, list[BoxEntry]] = defaultdict(list)
        kept_total = 0
        for d in dets:
            if d.confidence >= thr:
                kept_by_frame[d.frame].append(d)
                kept_total += 1
        tp = sum(
            _greedy_frame_tp(kept_by_frame[f], gt_by_frame[f], iou_threshold)
            for f in kept_by_frame
        )
        recall = 100.0 * tp / num_gt if num_gt else 0.0
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
