"""Shared fixture builders for the test suite.

The four canonical 6-frame matching scenarios are hand-verified: each builder
documents the frame-by-frame outcome its geometry forces.  Boxes are 10x10
unless stated; at that size two boxes offset vertically by d overlap with
IoU (10-d)*10 / (200-(10-d)*10), so d<=3 clears the 0.5 threshold (0.538 at
d=3) and d=4 falls below it (0.429).
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np
import pytest

from motbench.identity import TrackMatchTable
from motbench.ingest import Benchmark
from motbench.model import ObjectClass, Rows, SequenceData, _edges


class Entry(NamedTuple):
    """One row's values, as the :class:`Rows` columns hold them."""

    frame: int
    track_id: int
    left: float
    top: float
    width: float
    height: float
    confidence: float = 1.0
    object_class: int = ObjectClass.PEDESTRIAN
    visibility: float = 1.0


def rows(entries: Iterable[Entry]) -> Rows:
    """``entries`` as :class:`Rows` columns, in their order."""
    entries = list(entries)
    return Rows([e.frame for e in entries], [e.track_id for e in entries],
                [(e.left, e.top, e.width, e.height) for e in entries],
                [e.confidence for e in entries], [e.object_class for e in entries],
                [e.visibility for e in entries])


def entries(rows: Rows) -> list[Entry]:
    """The rows of ``rows`` as :class:`Entry` values of Python numbers and class codes."""
    return [Entry(frame, track_id, *ltwh, confidence, ObjectClass(code), visibility)
            for frame, track_id, ltwh, confidence, code, visibility
            in zip(*(column.tolist() for column in vars(rows).values()))]


def box(left, top, width=10.0, height=10.0) -> Entry:
    """A box alone: the row of a frame-1 ground-truth box of track 1."""
    return gt(1, 1, left, top, width, height)


def iou_matrix(a, b) -> np.ndarray:
    """The ``len(a) x len(b)`` IoU of two ``n x 4`` left/top/width/height arrays.

    Both sides are put in one frame and scattered from ``_edges``, which
    stores every pair whose IoU is positive; the other entries are 0.
    """
    a, b = np.asarray(a, dtype=float).reshape(-1, 4), np.asarray(b, dtype=float).reshape(-1, 4)
    rows, cols, overlap = _edges(np.ones(len(a), np.int64), a, np.ones(len(b), np.int64), b,
                                 threshold=np.nextafter(0, 1))
    matrix = np.zeros((len(a), len(b)))
    matrix[rows, cols] = overlap
    return matrix


def pair_iou(a: Entry, b: Entry) -> float:
    """The IoU of one box pair: the 1 x 1 case of :func:`iou_matrix`."""
    return float(iou_matrix([a.left, a.top, a.width, a.height],
                            [b.left, b.top, b.width, b.height])[0, 0])


def gt(frame, track_id, left, top, width=10.0, height=10.0,
       conf=1.0, object_class=ObjectClass.PEDESTRIAN, visibility=1.0) -> Entry:
    return Entry(frame, track_id, left, top, width, height, conf, object_class, visibility)


def hyp(frame, track_id, left, top, width=10.0, height=10.0, conf=1.0) -> Entry:
    return Entry(frame, track_id, left, top, width, height, conf)


def det(frame, left, top, width=10.0, height=10.0, conf=1.0) -> Entry:
    return Entry(frame, -1, left, top, width, height, conf)


def crowd(frames: int, n: int, seed: int) -> list[tuple[int, int, int, int, int, float]]:
    """``(frame, id, left, top, width, height)`` of ``n`` upright people per frame.

    Boxes 16-40 px wide and 2.5 times as tall lie anywhere in a 1920 x 1080
    image, as in a dense crowd seen from above: most same-frame pairs are far
    apart.
    """
    rng = random.Random(seed)
    rows = []
    for t in range(1, frames + 1):
        for k in range(1, n + 1):
            w = rng.randint(16, 40)
            rows.append((t, k, rng.randint(0, 1880), rng.randint(0, 980), w, 2.5 * w))
    return rows


def seq(name, num_frames, gt_entries=(), results=(), detections=()) -> SequenceData:
    return SequenceData(
        name=name,
        num_frames=num_frames,
        gt=rows(gt_entries),
        results=rows(results),
        detections=rows(detections),
    )


# ---------------------------------------------------------------------------
# Canonical 6-frame matching scenarios
# ---------------------------------------------------------------------------

def scenario_switch_mid_track() -> SequenceData:
    """One target covered by hypothesis 101 (frames 1-3) then 102 (frames 4-6).

    Expected: TP=6, FP=0, FN=0, IDSW=1 (at the handover), FM=0 (the target is
    never untracked).
    """
    gt_entries = [gt(t, 1, 0, 0) for t in range(1, 7)]
    results = [hyp(t, 101, 0, 0) for t in range(1, 4)]
    results += [hyp(t, 102, 0, 0) for t in range(4, 7)]
    return seq("switch-mid-track", 6, gt_entries, results)


def scenario_gap_then_new_hypothesis() -> SequenceData:
    """Hypothesis 101 covers frames 1-2, nothing at frame 3, 102 covers 4-6.

    Expected: TP=5, FN=1 (frame 3), FP=0, FM=1 (gap with later resumption),
    IDSW=1 when 102 picks the target up at frame 4: the last known assignment
    was 101 and the memory survives the gap.  Coverage 5/6 makes the track
    mostly tracked.
    """
    gt_entries = [gt(t, 1, 0, 0) for t in range(1, 7)]
    results = [hyp(t, 101, 0, 0) for t in range(1, 3)]
    results += [hyp(t, 102, 0, 0) for t in range(4, 7)]
    return seq("gap-then-new-hypothesis", 6, gt_entries, results)


def scenario_crossing_locked_by_carryover() -> SequenceData:
    """Two targets drift apart from their initial hypotheses; carryover locks
    the frame-1 pairing until it breaks, and nothing is ever re-acquired.

    Frame 4 is the carryover-dominance frame: hypothesis 202 sits closer to
    target 1 (IoU 0.818) than the held hypothesis 201 (0.538), yet the held
    pair wins and 202 is a false positive.

    Expected totals: TP=7, FN=5, FP=4, IDSW=0, FM=0 (no gap is ever resumed);
    both targets end partially tracked.
    """
    gt1 = [gt(t, 1, 0, y) for t, y in zip(range(1, 7), (0, 0, 0, 3, 30, 30))]
    gt2 = [gt(t, 2, 0, y) for t, y in zip(range(1, 7), (20, 20, 20, 90, 90, 90))]
    hyp_a = [hyp(t, 201, 0, 0) for t in range(1, 7)]
    hyp_b = [hyp(t, 202, 0, y) for t, y in zip(range(1, 6), (20, 20, 20, 4, 60))]
    return seq("crossing-locked", 6, gt1 + gt2, hyp_a + hyp_b)


def scenario_reacquired_after_long_gap() -> SequenceData:
    """Hypothesis 101 wanders off for frames 3-6; 102 takes over at frame 5.

    Expected: TP=4, FN=2 (frames 3-4), FP=4 (101 while far away), FM=1
    (untracked 3-4, resumed at 5), IDSW=1 at frame 5 against the pre-gap
    assignment.
    """
    gt_entries = [gt(t, 1, 0, 0) for t in range(1, 7)]
    red = [hyp(t, 101, 0, y) for t, y in zip(range(1, 7), (0, 0, 50, 50, 50, 50))]
    blue = [hyp(t, 102, 0, 0) for t in (5, 6)]
    return seq("reacquired-after-gap", 6, gt_entries, red + blue)


SCENARIO_EXPECTATIONS = {
    # name -> (tp, fp, fn, idsw, fm)
    "switch-mid-track": (6, 0, 0, 1, 0),
    "gap-then-new-hypothesis": (5, 0, 1, 1, 1),
    "crossing-locked": (7, 4, 5, 0, 0),
    "reacquired-after-gap": (4, 4, 2, 1, 1),
}

ALL_SCENARIOS = (
    scenario_switch_mid_track,
    scenario_gap_then_new_hypothesis,
    scenario_crossing_locked_by_carryover,
    scenario_reacquired_after_long_gap,
)


# ---------------------------------------------------------------------------
# Random instances for oracle comparison
# ---------------------------------------------------------------------------

def random_instance(rng: random.Random, max_tracks: int = 4,
                    max_frames: int = 5) -> SequenceData:
    """Small random tracking instance with continuous geometry.

    Coordinates are uniform floats, so exact equal-cost assignment ties have
    probability zero; :func:`snap_to_grid` turns an instance into one where
    they are common.
    """
    num_frames = rng.randint(1, max_frames)
    gt_entries: list[Entry] = []
    gt_boxes: dict[int, list[Entry]] = {}
    for i in range(rng.randint(0, max_tracks)):
        track_id = i + 1
        base_l = rng.uniform(0.0, 40.0)
        base_t = rng.uniform(0.0, 40.0)
        for t in range(1, num_frames + 1):
            if rng.random() < 0.2:
                continue
            entry = gt(
                t, track_id,
                base_l + rng.uniform(-8.0, 8.0),
                base_t + rng.uniform(-8.0, 8.0),
                rng.uniform(6.0, 14.0),
                rng.uniform(6.0, 14.0),
            )
            gt_entries.append(entry)
            gt_boxes.setdefault(t, []).append(entry)
    results: list[Entry] = []
    for j in range(rng.randint(0, max_tracks)):
        track_id = 100 + j
        for t in range(1, num_frames + 1):
            if rng.random() < 0.25:
                continue
            anchors = gt_boxes.get(t)
            if anchors and rng.random() < 0.7:
                a = rng.choice(anchors)
                results.append(hyp(
                    t, track_id,
                    a.left + rng.uniform(-3.0, 3.0),
                    a.top + rng.uniform(-3.0, 3.0),
                    a.width * rng.uniform(0.8, 1.2),
                    a.height * rng.uniform(0.8, 1.2),
                ))
            else:
                results.append(hyp(
                    t, track_id,
                    rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0),
                    rng.uniform(6.0, 14.0), rng.uniform(6.0, 14.0),
                ))
    return seq("random", num_frames, gt_entries, results)


def snap_to_grid(instance: SequenceData, step: float = 4.0) -> SequenceData:
    """The instance with left, top, width and height on a ``step``-pixel grid.

    Extents are at least one step.  Integer-grid geometry, as in real MOT
    files, makes exact IoU ties common, so the engine's tie-break decides
    counts and must agree with the oracle's.
    """
    def snap(e: Entry) -> Entry:
        return e._replace(
            left=step * round(e.left / step),
            top=step * round(e.top / step),
            width=max(step, step * round(e.width / step)),
            height=max(step, step * round(e.height / step)),
        )

    return dataclasses.replace(
        instance,
        gt=rows(snap(e) for e in entries(instance.gt)),
        results=rows(snap(e) for e in entries(instance.results)),
    )


# ---------------------------------------------------------------------------
# On-disk benchmark trees for ingest/CLI tests
# ---------------------------------------------------------------------------

def track_table(gt_lengths: dict, pred_lengths: dict,
                co_detections: dict) -> TrackMatchTable:
    """The :class:`TrackMatchTable` of these track lengths and pair co-detections."""
    gt_ids, pred_ids, pairs = sorted(gt_lengths), sorted(pred_lengths), sorted(co_detections)

    def column(values) -> np.ndarray:
        return np.array(values, dtype=np.int64)

    return TrackMatchTable(
        gt_ids=column(gt_ids),
        gt_lengths=column([gt_lengths[g] for g in gt_ids]),
        pred_ids=column(pred_ids),
        pred_lengths=column([pred_lengths[p] for p in pred_ids]),
        pair_gt=column([gt_ids.index(g) for g, _ in pairs]),
        pair_pred=column([pred_ids.index(p) for _, p in pairs]),
        co_detections=column([co_detections[pair] for pair in pairs]),
    )


def table_counts(table: TrackMatchTable) -> tuple[dict, dict, dict]:
    """``(gt_lengths, pred_lengths, co_detections)`` of ``table`` as dicts keyed by id."""
    gt_ids, pred_ids = table.gt_ids.tolist(), table.pred_ids.tolist()
    pairs = zip(table.pair_gt.tolist(), table.pair_pred.tolist())
    return (
        dict(zip(gt_ids, table.gt_lengths.tolist())),
        dict(zip(pred_ids, table.pred_lengths.tolist())),
        {(gt_ids[i], pred_ids[j]): co
         for (i, j), co in zip(pairs, table.co_detections.tolist())},
    )


def gt_file_text(boxes: Rows, variant_cols: int = 9) -> str:
    lines = []
    for e in sorted(entries(boxes), key=lambda e: (e.frame, e.track_id)):
        fields = [
            str(e.frame), str(e.track_id),
            repr(e.left), repr(e.top), repr(e.width), repr(e.height),
            repr(e.confidence) if e.confidence != int(e.confidence) else str(int(e.confidence)),
        ]
        if variant_cols == 9:
            fields += [str(int(e.object_class)), repr(e.visibility)]
        else:
            fields += ["-1", "-1", "-1"]
        lines.append(",".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


def det_file_text(boxes: Rows, variant_cols: int = 9) -> str:
    lines = []
    for e in sorted(entries(boxes), key=lambda e: e.frame):
        fields = [
            str(e.frame), "-1",
            repr(e.left), repr(e.top), repr(e.width), repr(e.height),
            repr(e.confidence),
        ]
        fields += ["-1", "-1"] if variant_cols == 9 else ["-1", "-1", "-1"]
        lines.append(",".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


def write_benchmark_tree(
    root: Path,
    sequences: list[SequenceData],
    benchmark: Benchmark = Benchmark.MOT16,
) -> Path:
    """Materialize sequences as a benchmark directory the loader understands."""
    from motbench.ingest import write_result_file

    cols = 10 if benchmark is Benchmark.MOT15 else 9
    (root / "gt").mkdir(parents=True, exist_ok=True)
    (root / "det").mkdir(exist_ok=True)
    (root / "res").mkdir(exist_ok=True)
    map_lines = []
    for data in sequences:
        map_lines.append(f"{data.name} {data.num_frames}")
        (root / "gt" / f"{data.name}.txt").write_text(gt_file_text(data.gt, cols))
        if data.detections:
            (root / "det" / f"{data.name}.txt").write_text(
                det_file_text(data.detections, cols)
            )
        for detector in benchmark.detectors or (None,):
            suffix = f"-{detector}" if detector else ""
            (root / "res" / f"{data.name}{suffix}.txt").write_text(
                write_result_file(data.results, benchmark.variant)
            )
    (root / "seqmap.txt").write_text("\n".join(map_lines) + "\n")
    return root


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
