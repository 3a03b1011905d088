"""Geometric and annotation domain types shared across the evaluation engine.

Boxes are continuous rectangles in 1-based image coordinates (top-left origin,
y grows downward).  Coordinates may be negative or exceed the frame size:
annotations routinely extend past the image borders for cropped targets.
Width and height must be strictly positive, and so must the area between the
rounded edges, ``(right - left) * (bottom - top)``, which every overlap uses.
Overlaps are computed in one place, :func:`_edges` over the edges and areas
of :func:`_geometry`, so every metric judges the same overlap.  The pass
scores each GT box only against the same-frame result boxes whose left edge
lies in a window that every pair at the threshold falls in, in blocks of a
bounded number of such candidates.  Its threshold is one float in (0, 1],
which :func:`_check_threshold` checks for the tracker matching, the
detector sweep and the command line alike.

A row's values meet one rule set, :func:`_row_rules`: a frame of at least 1
and within the sequence, the box geometry, a finite confidence, a class
code of :class:`ObjectClass`, a finite visibility, and a (frame, id) key of
its own where keys must be unique.  The parser takes its frame, geometry and
key rules from it; :class:`SequenceData` and the detector sweep check rows
built in code with :func:`_check_rows`.  So a box that one of them
accepts, all accept.

Rows are stored as read-only numpy columns (:class:`Rows`), the one row
type; a sequence keeps them sorted by (frame, track id), so each frame is a
slice.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to share across worker threads.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Iterator

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


#: Candidate (GT row, result row) pairs whose IoU one vectorised pass
#: computes; a constant, so the pass's memory does not grow with crowding.
_PAIR_BUDGET = 1 << 11


#: Largest magnitude of a box edge or area: up to it, the sums and
#: differences of the IoU arithmetic stay finite.
_GEOMETRY_LIMIT = 2.0**1022


def _geometry(ltwh: np.ndarray) -> tuple[np.ndarray, ...]:
    """Left, top, right, bottom and area per ``n x 4`` row, the area between the edges."""
    left, top, width, height = ltwh.T
    right, bottom = left + width, top + height
    return left, top, right, bottom, (right - left) * (bottom - top)


def _in_order(f: np.ndarray, i: np.ndarray) -> bool:
    """Whether rows with frames ``f`` and ids ``i`` are in (frame, id) order: one linear check."""
    # compared, not subtracted: ids may span 2**64
    return bool(((f[:-1] < f[1:]) | ((f[:-1] == f[1:]) & (i[:-1] <= i[1:]))).all())


def _row_rules(frame: np.ndarray, track_id: np.ndarray, ltwh: np.ndarray,
               confidence: np.ndarray, code: np.ndarray, visibility: np.ndarray,
               num_frames: int | None = None, unique: bool = False,
               ) -> list[tuple[str, np.ndarray, Callable[[int], str]]]:
    """The rules of a row's values, in the order the parser applies them on a line.

    The rows are given as the :class:`Rows` columns, in their order, with
    ``code`` for ``object_class``.  Per rule, the field it checks
    (``"frame"``, ``"box"``, ``"confidence"``, ``"class"``,
    ``"visibility"`` or ``"key"``), the mask of the rows that break it and
    its message for a row: the frame at least 1, and at most ``num_frames``
    when it is given; the four box rules of every overlap, on the edges and
    the area of :func:`_geometry`: extents positive, the area finite, every
    edge and the area within 2**1022, and the area not 0; a finite
    confidence; a class code inside :class:`ObjectClass`; a finite
    visibility; and, when ``unique`` is set, no (frame, id) key that an
    earlier row holds.  A row that breaks a rule may hold any value in the
    later ones.  Rows already in (frame, id) order cost a linear pass;
    others are sorted once for the key rule.
    """
    rules = [("frame", frame < 1, lambda i: f"frame index must be >= 1, got {frame[i]}")]
    if num_frames is not None:
        rules.append(("frame", frame > num_frames,
                      lambda i: f"frame {frame[i]} outside [1, {num_frames}]"))
    width, height = ltwh.T[2:]
    # The area is the one every IoU divides by; ``area - area`` is NaN, not
    # 0, when it is infinite or NaN.  Positive extents put each left and top
    # at or below its right and bottom, so a right or bottom edge that is
    # not finite makes the area not finite, and an edge beyond the limit
    # shows in a left or top below it or a right or bottom above it.
    with np.errstate(all="ignore"):
        left, top, right, bottom, area = _geometry(ltwh)
        rules += [
            ("box", (width <= 0) | (height <= 0),
             lambda i: f"non-positive box extent width={width[i]} height={height[i]}"),
            ("box", (area - area) != 0,
             lambda i: "box right edge, bottom edge or area is not finite"),
            ("box", (left < -_GEOMETRY_LIMIT) | (top < -_GEOMETRY_LIMIT)
             | (right > _GEOMETRY_LIMIT) | (bottom > _GEOMETRY_LIMIT) | (area > _GEOMETRY_LIMIT),
             lambda i: "box edge or area beyond 2**1022"),
            ("box", area == 0, lambda i: "box area (right - left) * (bottom - top) is 0"),
        ]
    rules += [("confidence", ~np.isfinite(confidence),
               lambda i: f"confidence {confidence[i]} not finite"),
              ("class", (code < ObjectClass.OTHER) | (code > ObjectClass.REFLECTION),
               lambda i: f"unknown class code {code[i]}"),
              ("visibility", ~np.isfinite(visibility),
               lambda i: f"visibility {visibility[i]} not finite")]
    if unique:
        order = slice(None) if _in_order(frame, track_id) else np.lexsort((track_id, frame))
        f, t = frame[order], track_id[order]
        repeat = np.empty(len(frame), bool)  # all rows of a key but the first
        repeat[order] = np.append(False, (f[1:] == f[:-1]) & (t[1:] == t[:-1]))
        rules.append(("key", repeat,
                      lambda i: f"duplicate (frame, id) pair ({frame[i]}, {track_id[i]})"))
    return rules


def _check_rows(rows: Rows, what: str, num_frames: int | None = None, unique: bool = False) -> None:
    """Raise ``ValueError`` at the first row that breaks a rule of :func:`_row_rules`.

    The message names ``what``, the row's frame and id, and the first rule
    the row breaks.
    """
    faults = [(int(f.argmax()), m) for _, f, m in _row_rules(
        *vars(rows).values(), num_frames, unique) if f.any()]
    if faults:
        i, rule = min(faults, key=lambda fault: fault[0])  # the first rule among ties
        raise ValueError(f"{what} entry at frame {rows.frame[i]}, id {rows.track_id[i]}: {rule(i)}")


def _check_threshold(iou_threshold: float) -> None:
    """Raise ``ValueError`` unless the overlap threshold lies in (0, 1] (NaN does not)."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")


def _edges(
    gt_frame: np.ndarray,
    gt_ltwh: np.ndarray,
    res_frame: np.ndarray,
    res_ltwh: np.ndarray,
    threshold: float,
):
    """``(gt_row, res_row, iou)`` of every same-frame pair with IoU >= threshold.

    Each side is given as its frame column and its ``n x 4`` box array;
    ``res_frame`` must be sorted.  Rows are positions on each side, and the
    pairs come out ordered by GT row, then result row.  Every length is a
    difference of rounded edges, so each IoU lies in (0, 1] and is 1.0 for
    identical boxes.  Pairs that do not overlap are never stored, so a
    threshold must be positive; both callers check it with
    :func:`_check_threshold`.  ``preprocess_sequence`` pairs every GT box
    with the result boxes, ``pr_curve`` the scored GT with the detections;
    every box has met the box rules of :func:`_row_rules`, which use
    :func:`_geometry`.

    A GT box is scored only against the result boxes of its frame whose
    left edge lies in its window, so a frame costs what its nearby pairs
    cost, not the product of its box counts.

    *The bound.*  Take two boxes with widths ``w_g`` and ``w_r`` and overlaps
    ``iw`` and ``ih`` of their widths and heights.  Their union holds a slab
    as wide as either box and ``ih`` tall, so an exact IoU of at least ``s``
    forces ``iw >= s * max(w_g, w_r)``.  As ``iw`` is at most ``w_g``, at
    most ``gt_right - res_left`` and at most ``res_right - gt_left``, the
    result's left edge lies in ``[gt_left - w_g * (1 - s) / s, gt_right -
    s * w_g]``.

    *The slack.*  The rounded IoU of the rounded edges exceeds their exact
    IoU by a factor under ``1 + 2**-48``, plus under ``2**-70`` from
    products that underflow when the GT area is at least ``2**-1000``.  So
    a pair that reaches the threshold ``t`` has an exact IoU of at least
    ``s = t * (1 - 2**-40) - 2**-60``, and the bound is taken at ``s``.  A GT
    box with a smaller area has no window: its area and the intersection
    may round to a few subnormals, which can lift the computed IoU far
    above the exact one (to 1.0 from an exact 0.43), so it is scored
    against every result box of its frame, as it is when ``s <= 0``.  Each
    end of the other windows is then moved out by ``2**-39 * (max(|gt_left|, |gt_right|) + 2**-960) *
    (1 + (1 - s) / s)``.  The ends' own roundings stay under ``2**-49`` of
    that scale without the ``2**-960``, which covers an underflow, so every
    result box the threshold keeps lies strictly inside its window.  The
    candidates' IoU is the arithmetic any pair gets, bit for bit, so the
    output is that of scoring every same-frame pair.  At ``t = 1`` a window
    is a few ``2**-39`` of the edge magnitude around ``gt_left``.  With
    edges and areas within ``2**1022``, the limit of the rules, every IoU term
    stays finite; a window end that overflows is infinite, which is still
    a superset.

    *The work.*  The result rows are sorted once by (frame, left edge), as
    complex keys whose real part is the sorted position of the frame's
    first row, exact in a float, and two ``searchsorted`` calls find the
    window ends of all GT rows.  GT rows are scored in blocks of at most
    :data:`_PAIR_BUDGET` candidates (one row alone may exceed it), and the
    pairs kept are sorted by (GT row, result row) at the end.  Beyond a few
    arrays of one entry per row, the memory holds one block's candidates
    and the pairs kept.
    """
    gx0, gy0, gx1, gy1, g_area = _geometry(gt_ltwh)
    rx0, ry0, rx1, ry1, r_area = _geometry(res_ltwh)
    # the result rows by (frame, left edge); a key's real part is where its frame starts
    key = np.empty(len(res_frame), complex)
    key.real = np.searchsorted(res_frame, res_frame)
    key.imag = rx0
    order = np.argsort(key, kind="stable")
    key = key[order]
    s = threshold * (1 - 2.0**-40) - 2.0**-60  # the slack and margin of the docstring
    reach = (1 - s) / s if s > 0 else np.inf
    needle = np.empty(len(gt_frame), complex)  # a GT row's frame and window end
    needle.real = np.searchsorted(res_frame, gt_frame)
    last = np.searchsorted(res_frame, gt_frame, "right")
    tiny = g_area < 2.0**-1000  # its whole frame is its window
    bound = needle.imag
    with np.errstate(over="ignore"):  # a window end beyond the floats is infinite
        margin = np.negative(gx0)
        np.maximum(margin, gx1, out=margin)
        margin += 2.0**-960
        margin *= 2.0**-39 * (1 + reach)
        width = np.subtract(gx1, gx0)
        np.multiply(width, reach, out=bound)
        np.subtract(gx0, bound, out=bound)
        bound -= margin
        bound[tiny] = -np.inf
        start = np.searchsorted(key, needle)
        np.multiply(width, max(s, 0.0), out=bound)
        np.subtract(gx1, bound, out=bound)
        bound += margin
        bound[tiny] = np.inf
    del margin, width, tiny
    count = np.searchsorted(key, needle)
    del key, needle, bound
    # the window of a GT row whose frame has no results lies in the next frame
    np.minimum(count, last, out=count)
    del last
    count -= start
    np.maximum(count, 0, out=count)
    end = np.cumsum(count)
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    a, done = 0, 0
    while a < len(end) and done < end[-1]:
        b = max(int(np.searchsorted(end, done + _PAIR_BUDGET, "right")), a + 1)
        n = count[a:b]
        gi = np.repeat(np.arange(a, b), n)
        ri = np.repeat(start[a:b] - (end[a:b] - done - n), n)
        ri += np.arange(len(ri))  # each candidate's position in ``order``
        ri = order[ri]
        inter_w = gx1[gi]
        np.minimum(inter_w, rx1[ri], out=inter_w)
        left = gx0[gi]
        inter_w -= np.maximum(left, rx0[ri], out=left)
        del left  # freed now, not once the next block has made its arrays
        across = inter_w > 0  # the other pairs have IoU 0
        gi, ri, inter_w = gi[across], ri[across], inter_w[across]
        inter_h = np.minimum(gy1[gi], ry1[ri]) - np.maximum(gy0[gi], ry0[ri])
        inter = inter_w * np.maximum(inter_h, 0.0)
        overlap = inter / ((g_area[gi] + r_area[ri]) - inter)
        hit = overlap >= threshold
        found.append((gi[hit], ri[hit], overlap[hit]))
        a, done = b, int(end[b - 1])
    if not found:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    del order, start, count, end
    g, r, overlap = (np.concatenate(column) for column in zip(*found))
    del found
    # each GT row's pairs came in left-edge order
    ranked = np.argsort(g * len(res_frame) + r, kind="stable")
    return g[ranked], r[ranked], overlap[ranked]


#: The :class:`Rows` columns stored as int64; the others are float64.
_INT_COLUMNS = ("frame", "track_id", "object_class")

#: One row's values, as iterating a :class:`Rows` yields them.
_Row = namedtuple("_Row", ("frame", "track_id", "ltwh", "confidence", "object_class", "visibility"))


@dataclass(frozen=True, eq=False)
class Rows:
    """File rows as read-only numpy columns.

    ``ltwh`` has shape ``(n, 4)`` (left, top, width, height); an empty
    ``ltwh`` may be given as ``()``, and any other shape is a ``ValueError``.
    ``confidence`` carries the detector score for detections and the 0/1
    consider-flag for ground truth and result rows.  ``object_class`` holds
    class codes; it and ``visibility`` are only meaningful for ground truth,
    and parsers default them to pedestrian and fully visible elsewhere.
    ``frame``, ``track_id`` and ``object_class`` are stored as int64, the
    others as float64; a value that does not convert, or an integer-column
    value that the cast would change (a fraction, or one outside int64), is
    a ``ValueError`` naming its column.
    """

    frame: np.ndarray = ()
    track_id: np.ndarray = ()
    ltwh: np.ndarray = ()
    confidence: np.ndarray = ()
    object_class: np.ndarray = ()
    visibility: np.ndarray = ()

    def __post_init__(self) -> None:
        for name, value in list(vars(self).items()):
            integral = name in _INT_COLUMNS
            try:
                with np.errstate(invalid="ignore"):  # a cast that changes a value fails below
                    column = np.array(value, dtype=np.int64 if integral else np.float64)
            except (OverflowError, ValueError) as error:
                raise ValueError(f"{name}: {error}") from None
            if integral and not np.array_equal(column, value):
                raise ValueError(f"{name} holds a value that is not an integer within int64")
            if name == "ltwh":
                column = column.reshape(0, 4) if column.shape == (0,) else column
                if column.shape[1:] != (4,):
                    raise ValueError(f"ltwh must have shape (n, 4), got {column.shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if any(len(column) != len(self.frame) for column in vars(self).values()):
            raise ValueError("columns differ in length")

    def __len__(self) -> int:
        return len(self.frame)

    def __iter__(self) -> Iterator[_Row]:
        """Each row's values as a named tuple of Python numbers, ``ltwh`` a list of four.

        No evaluation path iterates; the bench's PR-sweep counter reads the
        detections' frames and scores this way.
        """
        return map(_Row, *(column.tolist() for column in vars(self).values()))

    @property
    def scoreable(self) -> np.ndarray:
        """Per row, whether it is an active pedestrian: the boxes that score."""
        return (self.object_class == ObjectClass.PEDESTRIAN) & (self.confidence != 0)

    def sorted(self) -> Rows:
        """The rows ordered by (frame, track id), input order kept among equal keys.

        Rows already in that order are returned as they are, after one
        linear check.
        """
        if _in_order(self.frame, self.track_id):
            return self
        order = np.lexsort((self.track_id, self.frame))
        return Rows(*(column[order] for column in vars(self).values()))


@dataclass(frozen=True)
class SequenceData:
    """All rows of one sequence plus its frame-count metadata.

    ``gt``, ``results`` and ``detections`` are :class:`Rows`, stored as
    :meth:`Rows.sorted`.  ``num_frames`` must be an integer > 0, and every
    row must meet the rules the parser holds a file's rows to
    (:func:`_row_rules`): a frame in ``[1, num_frames]``, the box geometry,
    a finite confidence, a class code of :class:`ObjectClass`, a finite
    visibility, and, outside detections, a (frame, id) key of its own.  The
    first row in (frame, id) order that breaks one raises
    ``ValueError`` with the first rule it breaks.
    """

    name: str
    num_frames: int
    gt: Rows = field(default_factory=Rows)
    results: Rows = field(default_factory=Rows)
    detections: Rows = field(default_factory=Rows)

    def __post_init__(self) -> None:
        if not isinstance(self.num_frames, (int, np.integer)) or self.num_frames <= 0:
            raise ValueError(f"sequence {self.name!r}: num_frames must be an integer > 0")
        for kind in ("gt", "results", "detections"):
            rows = getattr(self, kind).sorted()
            object.__setattr__(self, kind, rows)
            # detections share the id -1
            _check_rows(rows, f"sequence {self.name!r}: {kind}", self.num_frames,
                        unique=kind != "detections")
