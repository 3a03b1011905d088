"""Brute-force reference implementations used to cross-check the engine.

These enumerate every feasible option directly with itertools and never call
the production matchers or scipy, so agreement between the two routes is
meaningful.  They are only practical for a handful of tracks and frames.
:func:`per_frame_counts` is the frame-by-frame reading of the count
definitions that ``accumulate`` computes from columns.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from typing import Sequence

from motbench.assignment import FrameEvents
from motbench.clearmot import MOSTLY_LOST_MAX, MOSTLY_TRACKED_MIN, Counts
from motbench.model import BoxEntry, ObjectClass, SequenceData, iou


def _frames(seq: SequenceData):
    gt_by_frame: dict[int, list[BoxEntry]] = defaultdict(list)
    res_by_frame: dict[int, list[BoxEntry]] = defaultdict(list)
    for e in seq.gt:
        if e.object_class is ObjectClass.PEDESTRIAN and e.is_active:
            gt_by_frame[e.frame].append(e)
    for e in seq.results:
        res_by_frame[e.frame].append(e)
    for t in range(1, seq.num_frames + 1):
        yield (
            sorted(gt_by_frame[t], key=lambda e: e.track_id),
            sorted(res_by_frame[t], key=lambda e: e.track_id),
        )


def _all_matchings(gt_ids, res_ids, feasible, forced):
    """Every injective matching over feasible pairs that contains ``forced``."""
    forced_gt = {g for g, _ in forced}
    forced_res = {r for _, r in forced}
    free_gt = [g for g in gt_ids if g not in forced_gt]
    options = [
        [None] + [r for r in res_ids if r not in forced_res and (g, r) in feasible]
        for g in free_gt
    ]
    for combo in product(*options):
        chosen = [r for r in combo if r is not None]
        if len(chosen) != len(set(chosen)):
            continue
        yield forced + [(g, r) for g, r in zip(free_gt, combo) if r is not None]


def oracle_clear_counts(seq: SequenceData, threshold: float = 0.5):
    """(fp, fn, idsw) by exhaustive per-frame assignment enumeration.

    Mirrors the protocol: forced carryover pairs, then the best completion by
    (max matches, min total 1-IoU, earliest pairs) over all possibilities.
    """
    prev: dict[int, int] = {}
    last: dict[int, int] = {}
    fp = fn = idsw = 0
    for gts, ress in _frames(seq):
        gt_ids = [g.track_id for g in gts]
        res_ids = [r.track_id for r in ress]
        overlaps = {
            (g.track_id, r.track_id): iou(g.box, r.box) for g in gts for r in ress
        }
        feasible = {pair for pair, o in overlaps.items() if o >= threshold}
        forced = [
            (g, r) for g, r in sorted(prev.items())
            if g in gt_ids and r in res_ids and (g, r) in feasible
        ]
        rem_gt = [g for g in gt_ids if g not in {x for x, _ in forced}]
        rem_res = [r for r in res_ids if r not in {x for _, x in forced}]
        gt_rank = {g: k for k, g in enumerate(rem_gt)}
        res_rank = {r: k for k, r in enumerate(rem_res)}

        def key(matching):
            extra = [p for p in matching if p not in forced]
            cost = sum(1.0 - overlaps[p] for p in extra)
            ranksum = sum(gt_rank[g] * len(rem_res) + res_rank[r] for g, r in extra)
            return (-len(matching), cost, ranksum)

        best = min(_all_matchings(gt_ids, res_ids, feasible, forced), key=key)
        fn += len(gt_ids) - len(best)
        fp += len(res_ids) - len(best)
        idsw += sum(1 for g, r in best if last.get(g, r) != r)
        last.update(dict(best))
        prev = dict(best)
    return fp, fn, idsw


def oracle_identity_counts(seq: SequenceData, threshold: float = 0.5):
    """(idtp, idfp, idfn) by enumerating every one-to-one track pairing.

    Minimizing missed-plus-false frames over pairings is the same as
    maximizing the summed co-detections, which is what this searches for.
    """
    gt_len: dict[int, int] = defaultdict(int)
    res_len: dict[int, int] = defaultdict(int)
    co: dict[tuple[int, int], int] = defaultdict(int)
    for gts, ress in _frames(seq):
        for g in gts:
            gt_len[g.track_id] += 1
        for r in ress:
            res_len[r.track_id] += 1
        for g in gts:
            for r in ress:
                if iou(g.box, r.box) >= threshold:
                    co[(g.track_id, r.track_id)] += 1

    gt_ids = sorted(gt_len)
    res_ids = sorted(res_len)
    best = 0
    options = [[None] + res_ids for _ in gt_ids]
    for combo in product(*options) if gt_ids else [()]:
        chosen = [r for r in combo if r is not None]
        if len(chosen) != len(set(chosen)):
            continue
        total = sum(
            co.get((g, r), 0) for g, r in zip(gt_ids, combo) if r is not None
        )
        best = max(best, total)
    idtp = best
    idfn = sum(gt_len.values()) - idtp
    idfp = sum(res_len.values()) - idtp
    return idtp, idfp, idfn


def _fragmentations(status: Sequence[bool]) -> int:
    """Tracked-to-untracked transitions that are resumed later.

    A gap running to the end of the timeline is not a fragmentation: tracking
    of the target is never resumed.
    """
    count = sum(1 for a, b in zip(status, status[1:]) if a and not b)
    if count and not status[-1]:
        count -= 1  # the last transition opens the trailing gap
    return count


def per_frame_counts(events: Sequence[FrameEvents], num_frames: int) -> Counts:
    """The counts of a sequence's per-frame events, one frame and track at a time.

    A track's life span runs from its first to its last scoreable frame (a
    frame where it is matched or missed); frames inside the span where it is
    not matched count as untracked.
    """
    tp = fp = fn = idsw = 0
    overlap_sum = 0.0
    gt_frames: dict[int, list[int]] = defaultdict(list)
    matched: dict[int, set[int]] = defaultdict(set)
    for ev in events:
        tp += len(ev.matches)
        fp += len(ev.fp_ids)
        fn += len(ev.fn_ids)
        idsw += len(ev.idsw_ids)
        overlap_sum += sum(overlap for _, _, overlap in ev.matches)
        for gt_id, _, _ in ev.matches:
            matched[gt_id].add(ev.frame)
            gt_frames[gt_id].append(ev.frame)
        for gt_id in ev.fn_ids:
            gt_frames[gt_id].append(ev.frame)

    fm = mt = pt = ml = 0
    for gt_id, frames in gt_frames.items():
        first, last = min(frames), max(frames)
        status = [t in matched[gt_id] for t in range(first, last + 1)]
        fm += _fragmentations(status)
        ratio = sum(status) / len(status)
        if ratio >= MOSTLY_TRACKED_MIN:
            mt += 1
        elif ratio < MOSTLY_LOST_MAX:
            ml += 1
        else:
            pt += 1
    return Counts(tp=tp, fp=fp, fn=fn, idsw=idsw, fm=fm, gt_total=tp + fn,
                  frames=num_frames, overlap_sum=overlap_sum, mt=mt, pt=pt, ml=ml,
                  gt_tracks=len(gt_frames))
