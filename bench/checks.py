"""Output checks that need no golden digest.

Integer-pixel inputs produce exact IoU ties, so a correct tie-break fix may
change which hypothesis wins a tie and with it IDSW or the matches.  The
checks therefore test invariants that hold for any correct engine: counts
the generator knows, sums over units, formulas recomputed from the report's
own counts, and an operating point recomputed by an independent matcher.
Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
from pathlib import Path

from gen import TreeStats


def _mota(fn: int, fp: int, idsw: int, gt: int) -> float:
    return 100.0 * (1.0 - (fn + fp + idsw) / gt)


def _table(text: str) -> tuple[list[str], dict[str, list[str]]]:
    lines = [line.split() for line in text.splitlines() if line.strip()]
    return lines[0], {row[0]: row[1:] for row in lines[1:]}


def check_text_report(text: str, stats: TreeStats) -> list[str]:
    """Leaderboard text table: units, pooled sums and MOTA against generator GT."""
    header, rows = _table(text)
    col = {name: k for k, name in enumerate(header[1:])}
    problems = []
    if set(rows) != set(stats.res_boxes) | {"OVERALL"}:
        problems.append(f"report rows {sorted(rows)} do not match the evaluated units")
        return problems
    units = [label for label in rows if label != "OVERALL"]
    for key in ("FP", "FN", "IDSW"):
        total = sum(int(rows[u][col[key]]) for u in units)
        if total != int(rows["OVERALL"][col[key]]):
            problems.append(f"OVERALL {key} {rows['OVERALL'][col[key]]} != unit sum {total}")
    gt_total = sum(stats.active_gt[u] for u in units)
    for label, row in rows.items():
        gt = gt_total if label == "OVERALL" else stats.active_gt[label]
        want = f"{_mota(int(row[col['FN']]), int(row[col['FP']]), int(row[col['IDSW']]), gt):.2f}"
        if row[col["MOTA"]] != want:
            problems.append(f"{label}: MOTA {row[col['MOTA']]} != {want} from the counts")
        if row[col["IDF1"]] != "N/A" and not 0.0 <= float(row[col["IDF1"]]) <= 100.0:
            problems.append(f"{label}: IDF1 {row[col['IDF1']]} outside [0, 100]")
    return problems


def check_json_report(text: str, stats: TreeStats) -> list[str]:
    """JSON report: TP+FN against generator GT, pooled sums, MOTA and IDTP bounds."""
    rows = {row["name"]: row for row in json.loads(text)}
    problems = []
    if set(rows) != set(stats.res_boxes) | {"OVERALL"}:
        return [f"report rows {sorted(rows)} do not match the evaluated units"]
    units = [label for label in rows if label != "OVERALL"]
    for key in ("fp", "fn", "idsw", "gt_total"):
        total = sum(rows[u][key] for u in units)
        if total != rows["OVERALL"][key]:
            problems.append(f"OVERALL {key} {rows['OVERALL'][key]} != unit sum {total}")
    res_total = sum(stats.res_boxes[u] for u in units)
    for label, row in rows.items():
        gt = sum(stats.active_gt[u] for u in units) if label == "OVERALL" else stats.active_gt[label]
        preds = res_total if label == "OVERALL" else stats.res_boxes[label]
        tp = round(row["recall"] * row["gt_total"] / 100.0) if row["recall"] is not None else 0
        if tp + row["fn"] != gt or row["gt_total"] != gt:
            problems.append(f"{label}: TP+FN {tp}+{row['fn']} != active pedestrian GT {gt}")
        if row["mota"] is None or abs(row["mota"] - _mota(row["fn"], row["fp"], row["idsw"], gt)) > 1e-9:
            problems.append(f"{label}: MOTA {row['mota']} does not follow from the counts")
        if row["idr"] is None:
            continue
        idtp = row["idr"] * row["gt_total"] / 100.0
        if abs(idtp - round(idtp)) > 1e-6 or round(idtp) > min(gt, preds):
            problems.append(f"{label}: IDTP {idtp} is not an integer <= min(GT {gt}, pred {preds})")
        elif row["idp"]:
            # Both metric families score one box set: kept hypotheses = TP + FP.
            kept = round(idtp) * 100.0 / row["idp"]
            if abs(kept - (tp + row["fp"])) > 1e-6:
                problems.append(f"{label}: identity scores {kept} boxes, CLEAR-MOT {tp + row['fp']}")
    return problems


def _boxes(path: Path, gt: bool) -> list[tuple]:
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        f = line.split(",")
        box = (int(f[0]), float(f[2]), float(f[3]), float(f[4]), float(f[5]), float(f[6]))
        if gt:
            out.append(box + (int(f[7]), float(f[8])))
        else:
            out.append(box)
    return out


def _iou(a: tuple, b: tuple) -> float:
    # Same float arithmetic as motbench.model.pairwise_iou, so exact ties agree.
    iw = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    ih = min(a[2] + a[4], b[2] + b[4]) - max(a[2], b[2])
    inter = max(iw, 0.0) * max(ih, 0.0)
    return inter / (a[3] * a[4] + b[3] * b[4] - inter)


def operating_points(root: Path, label: str) -> dict[str, tuple[int, int, int, int]]:
    """Per GT mode: (TP, detections, scoring GT, distinct scores) at the lowest threshold.

    Greedy descending-IoU matching per frame, written independently of
    motbench; ties go to the higher-scored detection, then the earlier GT row.
    """
    dets = _boxes(root / "det" / f"{label}.txt", gt=False)
    gts = [g for g in _boxes(root / "gt" / f"{label}.txt", gt=True) if g[6] == 1 and g[5] != 0]
    scoring = {"tracking_gt": gts, "visible_only": [g for g in gts if g[7] >= 0.5]}
    out = {}
    for mode, gt_rows in scoring.items():
        gt_by_frame: dict[int, list[tuple]] = {}
        for g in gt_rows:
            gt_by_frame.setdefault(g[0], []).append(g)
        det_by_frame: dict[int, list[tuple]] = {}
        for d in sorted(dets, key=lambda d: (d[0], -d[5])):
            det_by_frame.setdefault(d[0], []).append(d)
        tp = 0
        for frame, frame_dets in det_by_frame.items():
            frame_gt = gt_by_frame.get(frame, [])
            pairs = sorted(
                (-_iou(d, g), di, gi)
                for di, d in enumerate(frame_dets) for gi, g in enumerate(frame_gt)
                if _iou(d, g) >= 0.5
            )
            used_d, used_g = set(), set()
            for _, di, gi in pairs:
                if di not in used_d and gi not in used_g:
                    used_d.add(di)
                    used_g.add(gi)
                    tp += 1
        out[mode] = (tp, len(dets), len(gt_rows), len({d[5] for d in dets}))
    return out


def check_sweep(text: str, expected: dict[str, dict[str, tuple]]) -> list[str]:
    """PR curves: recall never falls, and the operating point is the kept set's."""
    problems = []
    curves, _, analysis = text.partition("\nSequence")
    seen = set()
    for block in curves.split("# ")[1:]:
        head, *lines = block.strip().splitlines()
        label, mode, _ = head.split()
        seen.add((label, mode))
        points = [tuple(map(float, line.split(","))) for line in lines[1:]]
        tp, n_det, n_gt, n_scores = expected[label][mode]
        if len(points) != n_scores:
            problems.append(f"{label} {mode}: {len(points)} points for {n_scores} distinct scores")
        if any(b[0] >= a[0] or b[1] < a[1] for a, b in zip(points, points[1:])):
            problems.append(f"{label} {mode}: thresholds not falling or recall falls")
        op = points[-1] if points else (0.0, 0.0, 0.0)
        want = (100.0 * tp / n_gt, 100.0 * tp / n_det)
        if op[1:] != want:
            problems.append(f"{label} {mode}: operating point {op[1:]} != kept set {want}")
    if seen != {(label, mode) for label in expected for mode in ("tracking_gt", "visible_only")}:
        problems.append(f"curves {sorted(seen)} do not cover every set and mode")
    problems += check_error_analysis("Sequence" + analysis, expected)
    return problems


def check_error_analysis(text: str, expected: dict) -> list[str]:
    """Tracker-versus-detector table: TOTAL is the sum of the units."""
    header, rows = _table(text)
    col = {name: k for k, name in enumerate(header[1:])}
    if set(rows) != set(expected) | {"TOTAL"}:
        return [f"error-analysis rows {sorted(rows)} do not match the units"]
    problems = []
    for key in ("FP_trk", "FP_det", "FN_trk", "FN_det"):
        total = sum(int(rows[u][col[key]]) for u in expected)
        if total != int(rows["TOTAL"][col[key]]):
            problems.append(f"TOTAL {key} != unit sum {total}")
    for label in expected:
        _, n_det, n_gt, _ = expected[label]["tracking_gt"]
        fn_det = int(rows[label][col["FN_det"]])
        if fn_det > n_gt or int(rows[label][col["FP_det"]]) > n_det:
            problems.append(f"{label}: detector errors exceed its GT or detections")
    return problems
