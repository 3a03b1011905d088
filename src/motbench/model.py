"""Geometric and annotation domain types shared across the evaluation engine.

Boxes are continuous rectangles in 1-based image coordinates (top-left origin,
y grows downward).  Coordinates may be negative or exceed the frame size:
annotations routinely extend past the image borders for cropped targets.
Width and height must be strictly positive.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to share across worker threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np


class ObjectClass(IntEnum):
    """Annotation label classes, keyed by the integer code used in GT files."""

    OTHER = 0  # lenient-parse bucket for unknown codes
    PEDESTRIAN = 1
    PERSON_ON_VEHICLE = 2
    CAR = 3
    BICYCLE = 4
    MOTORBIKE = 5
    NON_MOTORIZED_VEHICLE = 6
    STATIC_PERSON = 7
    DISTRACTOR = 8
    OCCLUDER = 9
    OCCLUDER_ON_GROUND = 10
    OCCLUDER_FULL = 11
    REFLECTION = 12


#: Classes a tracker is neither penalized nor rewarded for following.
NEUTRAL_CLASSES = frozenset({
    ObjectClass.PERSON_ON_VEHICLE,
    ObjectClass.STATIC_PERSON,
    ObjectClass.DISTRACTOR,
    ObjectClass.REFLECTION,
})


@dataclass(frozen=True)
class Box:
    """Axis-aligned bounding box given as top-left corner plus extent."""

    left: float
    top: float
    width: float
    height: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", float(self.left))
        object.__setattr__(self, "top", float(self.top))
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "height", float(self.height))
        if not self.width > 0 or not self.height > 0:
            raise ValueError(
                f"box extent must be positive, got width={self.width} height={self.height}"
            )

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def bottom(self) -> float:
        """Lower edge in image coordinates; larger values are closer to the camera."""
        return self.top + self.height

    @property
    def area(self) -> float:
        return self.width * self.height


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, on continuous areas.

    Returns a value in [0, 1]; 1.0 only for identical boxes, 0.0 when the
    boxes do not overlap.  Symmetric in its arguments.
    """
    inter_w = min(a.right, b.right) - max(a.left, b.left)
    if inter_w <= 0:
        return 0.0
    inter_h = min(a.bottom, b.bottom) - max(a.top, b.top)
    if inter_h <= 0:
        return 0.0
    inter = inter_w * inter_h
    return inter / (a.area + b.area - inter)


def _ltwh(boxes: Sequence[Box]) -> tuple[np.ndarray, ...]:
    return (np.array([x.left for x in boxes]), np.array([x.top for x in boxes]),
            np.array([x.width for x in boxes]), np.array([x.height for x in boxes]))


def pairwise_iou(a: Sequence[Box], b: Sequence[Box]) -> np.ndarray:
    """IoU of every box pair as a ``len(a) x len(b)`` array.

    Same arithmetic as :func:`iou`, area included (width times height), so
    every entry is bit-equal to the scalar value of its pair.
    """
    if not a or not b:
        return np.zeros((len(a), len(b)))
    al, at, aw, ah = _ltwh(a)
    bl, bt, bw, bh = _ltwh(b)
    inter_w = np.minimum.outer(al + aw, bl + bw) - np.maximum.outer(al, bl)
    inter_h = np.minimum.outer(at + ah, bt + bh) - np.maximum.outer(at, bt)
    inter = np.maximum(inter_w, 0.0) * np.maximum(inter_h, 0.0)
    return inter / (np.add.outer(aw * ah, bw * bh) - inter)


@dataclass(frozen=True)
class BoxEntry:
    """One parsed file row: a box observed in one frame.

    ``confidence`` carries the detector score for detections and the 0/1
    consider-flag for ground truth and result rows.  ``object_class`` and
    ``visibility`` are only meaningful for ground truth; parsers default them
    to pedestrian / fully visible everywhere else.
    """

    frame: int
    track_id: int
    box: Box
    confidence: float = 1.0
    object_class: ObjectClass = ObjectClass.PEDESTRIAN
    visibility: float = 1.0

    def __post_init__(self) -> None:
        if self.frame < 1:
            raise ValueError(f"frame index must be >= 1, got {self.frame}")

    @property
    def is_active(self) -> bool:
        """Whether the consider-flag marks this entry for evaluation."""
        return self.confidence != 0


@dataclass(frozen=True)
class SequenceData:
    """All entries of one sequence plus its frame-count metadata.

    ``fps`` is reporting metadata only; it never influences any metric.
    """

    name: str
    num_frames: int
    gt: tuple[BoxEntry, ...] = ()
    results: tuple[BoxEntry, ...] = ()
    detections: tuple[BoxEntry, ...] = ()
    fps: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "gt", tuple(self.gt))
        object.__setattr__(self, "results", tuple(self.results))
        object.__setattr__(self, "detections", tuple(self.detections))
        if self.num_frames <= 0:
            raise ValueError(f"sequence {self.name!r}: num_frames must be > 0")
        for kind, entries in (("gt", self.gt), ("results", self.results),
                              ("detections", self.detections)):
            for e in entries:
                if not 1 <= e.frame <= self.num_frames:
                    raise ValueError(
                        f"sequence {self.name!r}: {kind} entry at frame {e.frame} "
                        f"outside [1, {self.num_frames}]"
                    )
