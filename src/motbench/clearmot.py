"""Frame-level accuracy, precision, and track-coverage metrics, and the report row.

:func:`accumulate` counts a sequence straight off the columns of its
:class:`~motbench.assignment.EventLog`.  One :class:`Counts` record carries
every count of a report row: the frame-level ones and the identity counts
IDTP/IDFP/IDFN, which the caller merges in from
:func:`~motbench.identity.evaluate_identity`.  Counts accumulate per
sequence and pool by plain summation, which is exactly the evaluation of all
sequences concatenated into one.  Benchmark scores are always computed from
pooled counts, never by averaging per-sequence scores: sequences differ
wildly in target count, and pooling is the count-weighted average.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .assignment import EventLog
from .identity import _scores_from_counts


class UndefinedMetricError(ZeroDivisionError):
    """A metric's denominator is zero for this input."""


@dataclass(frozen=True)
class Counts:
    """Summable event counts of one or more evaluated sequences."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    idsw: int = 0
    fm: int = 0
    gt_total: int = 0      # scoreable ground-truth boxes
    frames: int = 0
    overlap_sum: float = 0.0  # sum of matched-pair overlaps
    mt: int = 0
    pt: int = 0
    ml: int = 0
    gt_tracks: int = 0
    idtp: int = 0  # identity true positives, false positives, false negatives
    idfp: int = 0
    idfn: int = 0

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in dataclasses.fields(Counts)
        })


#: Coverage bounds: tracked for at least 80% of the life span counts as
#: mostly tracked, strictly less than 20% as mostly lost.
MOSTLY_TRACKED_MIN = 0.8
MOSTLY_LOST_MAX = 0.2


def accumulate(log: EventLog) -> Counts:
    """Reduce a sequence's event log to counts.

    Track coverage is judged over each track's life span, from its first to
    its last scoreable frame inclusive; identity changes are irrelevant for
    coverage.  Frames inside the span without a scoreable box count as
    untracked, so an interrupted ground-truth trajectory that is picked up on
    both sides still yields a fragmentation: every gap between two matched
    frames of a track is one.  A gap running to the end of the span is not,
    as tracking of the target is never resumed.
    """
    table, matched = log.table, log.matched
    frame = table.frame[matched]
    tp = len(frame)
    # MOTP's sum keeps one association: each frame's overlaps in target-id
    # order (the table's order), then the frame sums in frame order.
    overlaps = table.iou[matched].tolist()
    overlap_sum, lo = 0.0, 0
    for hi in [*(np.flatnonzero(np.diff(frame)) + 1).tolist(), tp]:
        overlap_sum += sum(overlaps[lo:hi])
        lo = hi

    # The table lists boxes in frame order: a track's first and last box
    # open and close its life span.
    tracks, first, track_of_row = np.unique(table.gt_id, return_index=True,
                                            return_inverse=True)
    last = len(table.gt_id) - 1 - np.unique(table.gt_id[::-1], return_index=True)[1]
    span = table.gt_frame[last] - table.gt_frame[first] + 1
    track = track_of_row[table.gt_row[matched]]
    by_track = np.lexsort((frame, track))
    track, frame = track[by_track], frame[by_track]
    fm = int(((track[1:] == track[:-1]) & (np.diff(frame) > 1)).sum())
    ratio = np.bincount(track, minlength=len(tracks)) / span
    mt = int((ratio >= MOSTLY_TRACKED_MIN).sum())
    ml = int((ratio < MOSTLY_LOST_MAX).sum())

    fn, fp = len(table.gt_id) - tp, len(table.res_id) - tp
    return Counts(
        tp=tp,
        fp=fp,
        fn=fn,
        idsw=int(log.switch.sum()),
        fm=fm,
        gt_total=tp + fn,
        frames=table.num_frames,
        overlap_sum=overlap_sum,
        mt=mt,
        pt=len(tracks) - mt - ml,
        ml=ml,
        gt_tracks=len(tracks),
    )


def pool(counts: Iterable[Counts]) -> Counts:
    """Componentwise sum; the counts of all inputs concatenated."""
    counts = list(counts)
    if not counts:
        raise ValueError("cannot pool an empty collection of counts")
    return sum(counts[1:], counts[0])


def mota(c: Counts) -> float:
    """Tracking accuracy in percent: 100 * (1 - (FN + FP + IDSW) / GT).

    Unbounded below; a tracker making more errors than there are objects
    scores negative.
    """
    if c.gt_total <= 0:
        raise UndefinedMetricError("MOTA undefined without ground-truth boxes")
    return 100.0 * (1.0 - (c.fn + c.fp + c.idsw) / c.gt_total)


def motp(c: Counts) -> float:
    """Localization precision in percent: the mean overlap of all matches."""
    if c.tp <= 0:
        raise UndefinedMetricError("MOTP undefined without matches")
    return 100.0 * c.overlap_sum / c.tp


@dataclass(frozen=True)
class Rates:
    """Derived ratios; ``None`` marks a rate whose denominator is zero."""

    far: float
    recall: float | None
    precision: float | None
    idswr: float | None
    fmr: float | None


def derived_rates(c: Counts) -> Rates:
    """False alarms per frame, recall, precision, and relative switch rates.

    The switch and fragmentation rates are counts divided by recall expressed
    in percent, so a tracker that recovers more targets is not punished for
    the switches that naturally come with them.
    """
    if c.frames <= 0:
        raise UndefinedMetricError("rates undefined without frames")
    recall = 100.0 * c.tp / c.gt_total if c.gt_total > 0 else None
    precision = 100.0 * c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else None
    idswr = c.idsw / recall if recall else None
    fmr = c.fm / recall if recall else None
    return Rates(
        far=c.fp / c.frames,
        recall=recall,
        precision=precision,
        idswr=idswr,
        fmr=fmr,
    )


@dataclass(frozen=True)
class MetricsReport:
    """Full scalar metric set for one sequence or a pooled benchmark.

    ``None`` values are metrics that are undefined for the input; reports
    render them as ``N/A``.  The identity scores are ``None`` too when the
    counts hold no identity counts.
    """

    name: str
    mota: float | None
    motp: float | None
    far: float
    recall: float | None
    precision: float | None
    mt: int
    pt: int
    ml: int
    gt_tracks: int
    fp: int
    fn: int
    idsw: int
    fm: int
    idswr: float | None
    fmr: float | None
    frames: int
    gt_total: int
    idf1: float | None = None
    idp: float | None = None
    idr: float | None = None

    @property
    def mt_ratio(self) -> float | None:
        return self.mt / self.gt_tracks if self.gt_tracks else None

    @property
    def ml_ratio(self) -> float | None:
        return self.ml / self.gt_tracks if self.gt_tracks else None


def summarize(name: str, c: Counts) -> MetricsReport:
    """Build a report row from counts, mapping undefined metrics to ``None``."""
    rates = derived_rates(c)
    try:
        mota_value = mota(c)
    except UndefinedMetricError:
        mota_value = None
    try:
        motp_value = motp(c)
    except UndefinedMetricError:
        motp_value = None
    identity = _scores_from_counts(c.idtp, c.idfp, c.idfn)
    return MetricsReport(
        name=name,
        mota=mota_value,
        motp=motp_value,
        far=rates.far,
        recall=rates.recall,
        precision=rates.precision,
        mt=c.mt,
        pt=c.pt,
        ml=c.ml,
        gt_tracks=c.gt_tracks,
        fp=c.fp,
        fn=c.fn,
        idsw=c.idsw,
        fm=c.fm,
        idswr=rates.idswr,
        fmr=rates.fmr,
        frames=c.frames,
        gt_total=c.gt_total,
        idf1=identity.idf1,
        idp=identity.idp,
        idr=identity.idr,
    )
