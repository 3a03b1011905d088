"""Geometric and annotation domain types shared across the evaluation engine.

Boxes are continuous rectangles in 1-based image coordinates (top-left origin,
y grows downward).  Coordinates may be negative or exceed the frame size:
annotations routinely extend past the image borders for cropped targets.
Width and height must be strictly positive, and so must the area between the
rounded edges, ``(right - left) * (bottom - top)``, which every overlap uses.
Overlaps are computed on arrays only: :func:`pairwise_iou`, and the same
arithmetic, bit for bit, in the pair table of
:func:`~motbench.assignment.preprocess_sequence`.

A sequence stores its rows as read-only numpy columns (:class:`Rows`) sorted
by (frame, track id), so each frame is a slice.  :class:`BoxEntry` and
:class:`Box` build and inspect rows one at a time; evaluation never does.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to share across worker threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator

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
        for name in ("left", "top", "width", "height"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.width > 0 and self.height > 0 and self.area > 0):
            raise ValueError(
                f"box extent must be positive, also between the rounded edges, got "
                f"left={self.left} top={self.top} width={self.width} height={self.height}"
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
        """Area between the rounded edges, as every overlap measures it."""
        return (self.right - self.left) * (self.bottom - self.top)


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every box pair of two ``n x 4`` left/top/width/height arrays.

    Returns a ``len(a) x len(b)`` array.  Every length is a difference of
    rounded edges, area included, so the intersection never exceeds either
    area: each entry lies in [0, 1], is exactly 1.0 for identical boxes and
    0.0 for boxes that do not overlap, and does not depend on the order of
    the two sides.
    """
    al, at, aw, ah = a.T
    bl, bt, bw, bh = b.T
    ar, ab, br, bb = al + aw, at + ah, bl + bw, bt + bh
    inter_w = np.minimum.outer(ar, br) - np.maximum.outer(al, bl)
    inter_h = np.minimum.outer(ab, bb) - np.maximum.outer(at, bt)
    inter = np.maximum(inter_w, 0.0) * np.maximum(inter_h, 0.0)
    return inter / (np.add.outer((ar - al) * (ab - at), (br - bl) * (bb - bt)) - inter)


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


#: The :class:`Rows` columns stored as int64; the others are float64.
_INT_COLUMNS = ("frame", "track_id", "object_class")


@dataclass(frozen=True, eq=False)
class Rows:
    """File rows as read-only numpy columns; iterating yields :class:`BoxEntry`.

    ``ltwh`` is ``n x 4`` (left, top, width, height), ``object_class`` holds
    class codes; the other columns are as on :class:`BoxEntry`.
    """

    frame: np.ndarray = ()
    track_id: np.ndarray = ()
    ltwh: np.ndarray = ()
    confidence: np.ndarray = ()
    object_class: np.ndarray = ()
    visibility: np.ndarray = ()

    def __post_init__(self) -> None:
        for name, value in list(vars(self).items()):
            column = np.array(value, dtype=np.int64 if name in _INT_COLUMNS else np.float64)
            column = column.reshape(-1, 4) if name == "ltwh" else column
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if any(len(column) != len(self.frame) for column in vars(self).values()):
            raise ValueError("columns differ in length")

    @classmethod
    def of(cls, entries: Rows | Iterable[BoxEntry]) -> Rows:
        """``entries`` as columns; a :class:`Rows` is returned as it is."""
        if isinstance(entries, Rows):
            return entries
        return cls(*zip(*[
            (e.frame, e.track_id, (e.box.left, e.box.top, e.box.width, e.box.height),
             e.confidence, e.object_class, e.visibility)
            for e in entries
        ]))

    def __len__(self) -> int:
        return len(self.frame)

    def __iter__(self) -> Iterator[BoxEntry]:
        for frame, track_id, ltwh, conf, code, vis in zip(*(
                column.tolist() for column in vars(self).values())):
            yield BoxEntry(frame, track_id, Box(*ltwh), conf, ObjectClass(code), vis)

    @property
    def scoreable(self) -> np.ndarray:
        """Per row, whether it is an active pedestrian: the boxes that score."""
        return (self.object_class == ObjectClass.PEDESTRIAN) & (self.confidence != 0)

    def sorted(self) -> Rows:
        """The rows ordered by (frame, track id), input order kept among equal keys."""
        order = np.lexsort((self.track_id, self.frame))
        if (order == np.arange(len(order))).all():
            return self
        return Rows(*(column[order] for column in vars(self).values()))


@dataclass(frozen=True)
class SequenceData:
    """All rows of one sequence plus its frame-count metadata.

    ``gt``, ``results`` and ``detections`` take :class:`Rows` or any iterable
    of :class:`BoxEntry`; they are stored as :meth:`Rows.sorted`.  ``fps`` is
    reporting metadata only; it never influences any metric.
    """

    name: str
    num_frames: int
    gt: Rows = ()
    results: Rows = ()
    detections: Rows = ()
    fps: float | None = None

    def __post_init__(self) -> None:
        if self.num_frames <= 0:
            raise ValueError(f"sequence {self.name!r}: num_frames must be > 0")
        for kind in ("gt", "results", "detections"):
            rows = Rows.of(getattr(self, kind)).sorted()
            object.__setattr__(self, kind, rows)
            outside = rows.frame[(rows.frame < 1) | (rows.frame > self.num_frames)]
            if outside.size:
                raise ValueError(
                    f"sequence {self.name!r}: {kind} entry at frame {outside[0]} "
                    f"outside [1, {self.num_frames}]"
                )
