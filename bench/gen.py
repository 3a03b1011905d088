"""Seeded synthetic MOTChallenge trees for the benchmark workloads.

Every tree is a function of (workload, seed) alone: the same seed writes
byte-identical files.  Sizes that set the amount of work (frames, tracks,
track lengths, detection counts) are fixed per workload and only the
arrangement is random, so run-to-run differences in timing come from the
machine, not from the seed.

Coordinates are integer pixels, as in real MOT files, so exact IoU ties
occur; some hypotheses are also emitted in mirrored pairs around a target,
which makes two candidates tie exactly.  Ground truth mixes pedestrians with
neutral classes (2, 7, 8, 12), non-pedestrian classes, consider-flag-0 rows
and per-row visibility, so the neutral-class filter and the visibility cut
both run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

IMAGE_W, IMAGE_H = 1920, 1080
MOT17_DETECTORS = ("DPM", "FRCNN", "SDP")

# GT track classes with their share of tracks; pedestrians take the rest.
# Codes follow the benchmark: 2/7/8/12 are neutral, 3/4/9 are not people.
_CLASS_SHARES = ((7, 0.05), (2, 0.03), (8, 0.03), (12, 0.02), (3, 0.03), (4, 0.02), (9, 0.02))
_NEUTRAL = frozenset({2, 7, 8, 12})
_PEOPLE = _NEUTRAL | {1}
_DET_FP_SHARE = 0.25  # share of detections that hit no target


@dataclass(frozen=True)
class SeqSpec:
    """Shape of one generated sequence; every field fixes an amount of work."""

    name: str
    frames: int
    crowd: int                       # GT tracks alive per frame, on average
    track_len: tuple[int, int]       # GT track lengths, spread evenly over this range
    tracklet: tuple[int, int] | None  # tracker fragment lengths; None means long tracks
    switch_p: float = 0.0            # per-frame identity switch chance on long tracks
    miss_p: float = 0.1              # per-row chance the tracker drops a target
    fp_tracks: int = 0               # false-positive hypothesis tracks
    twin_p: float = 0.02             # per-row chance of a mirrored tie hypothesis
    det_boxes: int | None = None     # exact detection count; None draws per row
    width_share: float = 1.0         # share of the image width people walk in


@dataclass
class TreeStats:
    """Input sizes of a generated tree plus the counts the checks need."""

    frames: int = 0
    gt_rows: int = 0
    res_rows: int = 0
    det_rows: int = 0
    gt_tracks: int = 0
    pred_tracks: int = 0
    confidences: int = 0
    # Per evaluation unit label: active pedestrian GT rows and result rows.
    active_gt: dict[str, int] = field(default_factory=dict)
    res_boxes: dict[str, int] = field(default_factory=dict)

    def summary(self) -> dict[str, int]:
        return {
            "frames": self.frames,
            "gt_rows": self.gt_rows,
            "res_rows": self.res_rows,
            "det_rows": self.det_rows,
            "gt_tracks": self.gt_tracks,
            "pred_tracks": self.pred_tracks,
            "confidences": self.confidences,
        }


@dataclass
class _Track:
    track_id: int
    cls: int
    flag: int
    rows: list[tuple[int, int, int, int, int, float]]  # frame, l, t, w, h, visibility


def _spread(lo: int, hi: int, n: int) -> list[int]:
    """n integers evenly covering [lo, hi]; their sum does not depend on the seed."""
    if n == 1:
        return [(lo + hi) // 2]
    return [lo + (hi - lo) * k // (n - 1) for k in range(n)]


def _gt_tracks(rng: random.Random, spec: SeqSpec) -> list[_Track]:
    mean_len = sum(spec.track_len) / 2
    n = max(1, round(spec.crowd * spec.frames / mean_len))
    lengths = [min(length, spec.frames) for length in _spread(*spec.track_len, n)]
    rng.shuffle(lengths)
    classes = []
    for code, share in _CLASS_SHARES:
        classes += [code] * round(share * n)
    classes = (classes + [1] * n)[:n]
    rng.shuffle(classes)
    tracks = []
    for k, (length, cls) in enumerate(zip(lengths, classes), start=1):
        start = rng.randint(1, spec.frames - length + 1)
        w = rng.randint(30, 110)
        h = w * 5 // 2 if cls in _PEOPLE else rng.randint(40, 200)
        x = rng.uniform(0, IMAGE_W * spec.width_share - w)
        y = rng.uniform(IMAGE_H * 0.2, IMAGE_H - h)
        vx, vy = rng.uniform(-3.0, 3.0), rng.uniform(-0.6, 0.6)
        base_vis = rng.uniform(0.05, 1.0)
        if cls == 1:
            flag = 0 if rng.random() < 0.03 else 1
        elif cls in _NEUTRAL:
            flag = rng.randint(0, 1)
        else:
            flag = 0
        rows = []
        for i in range(length):
            vis = min(1.0, max(0.0, base_vis + rng.uniform(-0.15, 0.15)))
            rows.append((start + i, round(x + vx * i), round(y + vy * i), w, h,
                         float(f"{vis:.4f}")))
        tracks.append(_Track(k, cls, flag, rows))
    return tracks


def _jitter(rng: random.Random, l: int, t: int, w: int, h: int, px: int) -> tuple[int, int, int, int]:
    return (l + rng.randint(-px, px), t + rng.randint(-px, px),
            max(2, w + rng.randint(-px, px)), max(2, h + rng.randint(-px, px)))


def _tracker(rng: random.Random, spec: SeqSpec, tracks: list[_Track]) -> list[tuple]:
    """Result rows (frame, id, l, t, w, h) of a simulated tracker."""
    rows: list[tuple] = []
    next_id = 1
    # Trackers follow people, including some the evaluation treats as neutral,
    # and now and then a car or bicycle; those last ones become false positives.
    followed = [tr for tr in tracks if tr.cls == 1 or rng.random() < 0.5]
    for tr in followed:
        pred_id, left = next_id, None
        next_id += 1
        if spec.tracklet:
            left = rng.randint(*spec.tracklet)
        for frame, l, t, w, h, _ in tr.rows:
            if spec.tracklet:
                if left == 0:
                    pred_id, left = next_id, rng.randint(*spec.tracklet)
                    next_id += 1
                    if rng.random() < 0.3:
                        continue  # a one-frame gap between fragments
                left -= 1
            elif rng.random() < spec.switch_p:
                pred_id = next_id
                next_id += 1
            if rng.random() < spec.miss_p:
                continue
            if rng.random() < spec.twin_p:
                # Mirrored offsets overlap the target with exactly equal IoU.
                dx, dy = rng.randint(1, max(1, w // 8)), rng.randint(0, max(1, h // 10))
                rows.append((frame, pred_id, l + dx, t + dy, w, h))
                rows.append((frame, next_id, l - dx, t - dy, w, h))
                next_id += 1
                continue
            rows.append((frame, pred_id, *_jitter(rng, l, t, w, h, 3)))
    for _ in range(spec.fp_tracks):
        length = rng.randint(1, 12)
        start = rng.randint(1, spec.frames - length + 1)
        w = rng.randint(30, 110)
        x, y = rng.uniform(0, IMAGE_W - w), rng.uniform(0, IMAGE_H - 2.5 * w)
        for i in range(length):
            rows.append((start + i, next_id, round(x + i), round(y), w, w * 5 // 2))
        next_id += 1
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def _detector(rng: random.Random, spec: SeqSpec, tracks: list[_Track], style: str) -> list[tuple]:
    """Detection rows (frame, l, t, w, h, score) with continuous scores."""
    people = [r for tr in tracks if tr.cls in _PEOPLE for r in tr.rows]
    if spec.det_boxes is not None:
        n_fp = round(spec.det_boxes * _DET_FP_SHARE)
        hits = rng.sample(people, min(len(people), spec.det_boxes - n_fp))
    else:
        hits = [r for r in people if rng.random() < 0.3 + 0.6 * r[5]]
        n_fp = round(len(hits) * _DET_FP_SHARE)
    rows = []
    for frame, l, t, w, h, vis in hits:
        score = 0.35 + 0.65 * rng.random() ** (0.5 + (1.0 - vis))
        rows.append((frame, *_jitter(rng, l, t, w, h, 5), score))
    for _ in range(n_fp):
        w = rng.randint(25, 120)
        rows.append((rng.randint(1, spec.frames), rng.randint(0, IMAGE_W - w),
                     rng.randint(0, IMAGE_H - 2 * w), w, w * 5 // 2, 0.6 * rng.random()))
    if style == "DPM":  # DPM scores are unbounded margins, not probabilities
        rows = [(*r[:5], 4.0 * r[5] - 2.0) for r in rows]
    rows.sort()
    return rows


def _write(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_tree(
    root: Path, seed: int, specs: list[SeqSpec], detectors: tuple[str, ...] = (),
    with_detections: bool = True,
) -> TreeStats:
    """Write seqmap, gt, det and res files under ``root`` and return their stats.

    Results go to ``root/res``.  With ``detectors`` every sequence gets one
    result and one detection file per detector partition, as in MOT17.
    """
    stats = TreeStats()
    confidences: set[str] = set()
    _write(root / "seqmap.txt", [f"{s.name} {s.frames} 30" for s in specs])
    for index, spec in enumerate(specs):
        rng = random.Random(f"{seed}:{index}:{spec.name}")
        tracks = _gt_tracks(rng, spec)
        gt_lines = [
            f"{frame},{tr.track_id},{l},{t},{w},{h},{tr.flag},{tr.cls},{vis:.4f}"
            for tr in tracks for frame, l, t, w, h, vis in tr.rows
        ]
        gt_lines.sort(key=lambda s: tuple(int(x) for x in s.split(",", 2)[:2]))
        _write(root / "gt" / f"{spec.name}.txt", gt_lines)
        stats.frames += spec.frames
        stats.gt_rows += len(gt_lines)
        stats.gt_tracks += len(tracks)
        active = sum(len(tr.rows) for tr in tracks if tr.cls == 1 and tr.flag)

        for detector in detectors or (None,):
            suffix = f"-{detector}" if detector else ""
            label = f"{spec.name}{suffix}"
            stats.active_gt[label] = active
            res = _tracker(rng, spec, tracks)
            _write(root / "res" / f"{label}.txt",
                   [f"{f},{i},{l},{t},{w},{h},1,-1,-1" for f, i, l, t, w, h in res])
            stats.res_rows += len(res)
            stats.res_boxes[label] = len(res)
            stats.pred_tracks += len({r[1] for r in res})
            if not with_detections:
                continue
            det_lines = [f"{f},-1,{l},{t},{w},{h},{s:.6f},-1,-1"
                         for f, l, t, w, h, s in _detector(rng, spec, tracks, detector or "")]
            _write(root / "det" / f"{label}.txt", det_lines)
            stats.det_rows += len(det_lines)
            confidences.update(line.split(",")[6] for line in det_lines)
    stats.confidences = len(confidences)
    return stats
