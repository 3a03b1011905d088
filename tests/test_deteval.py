"""Detector PR-curve and average-precision tests."""

import inspect
import random
import time

import numpy as np
import pytest

import motbench.deteval as deteval
from motbench.deteval import PRCurve, PRPoint, _eleven_point_ap, export_curve, pr_curve
from motbench.model import Rows
from conftest import crowd, det, gt, hyp
from oracles import iou, pr_curve_rescored


def _tie_heavy(rng: random.Random, frames: int = 8):
    """Integer-pixel GT and detections whose scores come from four values.

    Boxes sit on a coarse grid, so equal IoUs and duplicate detections are
    common; some frames have detections and no GT, others GT and no
    detections.  Visibilities straddle the ``visible_only`` cut.
    """
    gts, dets = [], []
    for t in range(1, frames + 1):
        if rng.random() < 0.8:
            gts += [gt(t, i, 10 * rng.randint(0, 4), 10 * rng.randint(0, 2),
                       visibility=rng.choice([0.0, 0.4, 0.5, 1.0]))
                    for i in rng.sample(range(1, 9), rng.randint(1, 4))]
        if rng.random() < 0.8:
            dets += [det(t, 5 * rng.randint(0, 9), 5 * rng.randint(0, 5),
                         rng.choice([10, 15]), 10, conf=rng.choice([0.25, 0.5, 0.75, 1.0]))
                     for _ in range(rng.randint(1, 7))]
    return gts, dets


def _chain_heavy(rng: random.Random):
    """Up to 3 crowded frames of at most 80 detections and 40 GT boxes.

    Boxes of two sizes sit on a 5-pixel grid over a small area, so most
    boxes overlap several others at tied IoUs and added detections displace
    earlier matches.  A frame's scores are continuous or drawn from three
    values; detection ids are -1 or small repeated ids.  Some GT boxes are
    not scoreable and visibilities straddle the ``visible_only`` cut.
    """
    gts, dets = [], []
    for t in range(1, rng.randint(1, 3) + 1):
        gts += [gt(t, i, 5 * rng.randint(0, 8), 5 * rng.randint(0, 6),
                   rng.choice([10, 15]), rng.choice([10, 15]), conf=rng.choice([1.0] * 9 + [0.0]),
                   visibility=rng.choice([0.0, 0.4, 0.5, 1.0]))
                for i in rng.sample(range(1, 60), rng.randint(0, 40))]
        levels = rng.choice([None, (0.3, 0.6, 0.9)])
        dets += [hyp(t, rng.choice([-1, -1, 1, 2, 3]), 5 * rng.randint(0, 8), 5 * rng.randint(0, 6),
                     rng.choice([10, 15]), rng.choice([10, 15]),
                     conf=rng.random() if levels is None else rng.choice(levels))
                 for _ in range(rng.randint(0, 80))]
    return gts, dets


def _ladder(rng: random.Random, n: int = 40, clutter: int = 80):
    """One frame where a single late detection sets off a chain of ``n - 1`` displacements.

    GT box ``i`` spans x in [100 i, 100 i + 100].  Detection ``i < n - 1``
    covers the right part of GT ``i`` and the left part of GT ``i + 1``,
    and the IoUs step down along the row, IoU(d_i, g_i) > IoU(d_i, g_i+1) >
    IoU(d_i+1, g_i+1), all above 0.2.  Every detection first takes its own
    GT box and the last box stays free.  Then an exact copy of GT 0, scored
    below them, takes GT 0, each displaced detection takes the next box and
    the chain ends on the free one.  Random lower-scored clutter follows.
    """
    gts = [gt(1, i + 1, 100.0 * i, 0.0, 100.0, 10.0) for i in range(n)]
    steps = [0.48 - 0.0035 * k for k in range(2 * n)]
    dets = []
    for i in range(n - 1):
        a, b = steps[2 * i], steps[2 * i + 1]  # the IoUs with GT i and GT i + 1
        reach = 100 * b * (1 + a) / (1 - a * b)
        inset = 100 - a * (100 + reach)
        dets.append(det(1, 100.0 * i + inset, 0.0, 100 - inset + reach, 10.0,
                        conf=0.9 - 0.001 * i))
    dets.append(det(1, 0.0, 0.0, 100.0, 10.0, conf=0.05))
    dets += [det(1, rng.uniform(0, 100 * n), 0.0, rng.uniform(60, 140), 10.0,
                 conf=rng.uniform(0.0, 0.05)) for _ in range(clutter)]
    return gts, dets


class TestPrCurve:
    def test_perfect_detections_single_point(self):
        gts = [gt(t, i, 40 * i, 0) for t in range(1, 4) for i in (1, 2)]
        dets = [det(e.frame, e.box.left, e.box.top, conf=0.7) for e in gts]
        curve = pr_curve(dets, gts)
        assert len(curve.points) == 1
        point = curve.points[0]
        assert point.recall == pytest.approx(100.0)
        assert point.precision == pytest.approx(100.0)
        assert curve.operating_point == point

    def test_no_detections_gives_empty_curve(self):
        gts = [gt(1, 1, 0, 0)]
        curve = pr_curve([], gts)
        assert curve.points == ()
        assert curve.ap == 0.0
        assert curve.operating_point is None

    def test_high_scoring_false_positive_dips_top_precision(self):
        gts = [gt(1, 1, 0, 0), gt(1, 2, 40, 0), gt(1, 3, 80, 0)]
        dets = [
            det(1, 300, 300, conf=0.95),  # confident garbage, matches nothing
            det(1, 0, 0, conf=0.9),
            det(1, 40, 0, conf=0.8),
            det(1, 80, 0, conf=0.7),
        ]
        curve = pr_curve(dets, gts)
        by_thr = {p.threshold: p for p in curve.points}
        assert by_thr[0.95].precision == pytest.approx(0.0)
        assert by_thr[0.9].precision == pytest.approx(50.0)
        assert by_thr[0.7].recall == pytest.approx(100.0)
        assert by_thr[0.7].precision == pytest.approx(75.0)
        # the operating point is the detection set as provided: lowest threshold
        assert curve.operating_point == curve.points[-1]
        assert curve.operating_point.threshold == 0.7

    def test_against_independent_matching_oracle(self):
        from itertools import permutations

        rng = random.Random(17)
        for _ in range(40):
            gts = [gt(1, i, rng.uniform(0, 40), rng.uniform(0, 40),
                      rng.uniform(6, 14), rng.uniform(6, 14)) for i in range(1, 4)]
            dets = [det(1, rng.uniform(0, 40), rng.uniform(0, 40),
                        rng.uniform(6, 14), rng.uniform(6, 14), conf=0.5)
                    for _ in range(3)]
            curve = pr_curve(dets, gts)
            tp = round(curve.points[-1].recall / 100.0 * len(gts))

            # independent greedy recomputation from a flat sorted pair list
            pairs = sorted(
                ((iou(d.box, g.box), di, gi)
                 for di, d in enumerate(dets) for gi, g in enumerate(gts)),
                key=lambda p: (-p[0], p[1], p[2]),
            )
            used_d, used_g, expected = set(), set(), 0
            for overlap, di, gi in pairs:
                if overlap >= 0.5 and di not in used_d and gi not in used_g:
                    used_d.add(di)
                    used_g.add(gi)
                    expected += 1
            assert tp == expected

            # and greedy never exceeds the exhaustive optimum
            best = 0
            for perm in permutations(range(3)):
                matched = sum(
                    1 for di, gi in enumerate(perm)
                    if iou(dets[di].box, gts[gi].box) >= 0.5
                )
                best = max(best, matched)
            assert tp <= best

    def test_recall_non_decreasing_and_thresholds_decreasing(self):
        rng = random.Random(23)
        gts = [gt(t, i, rng.uniform(0, 60), rng.uniform(0, 60))
               for t in range(1, 6) for i in range(1, 5)]
        dets = []
        for e in gts:
            if rng.random() < 0.8:
                dets.append(det(e.frame, e.box.left + rng.uniform(-3, 3),
                                e.box.top + rng.uniform(-3, 3),
                                conf=rng.random()))
        for _ in range(10):
            dets.append(det(rng.randint(1, 5), rng.uniform(0, 60),
                            rng.uniform(0, 60), conf=rng.random()))
        curve = pr_curve(dets, gts)
        thresholds = [p.threshold for p in curve.points]
        assert thresholds == sorted(thresholds, reverse=True)
        recalls = [p.recall for p in curve.points]
        assert all(a <= b + 1e-9 for a, b in zip(recalls, recalls[1:]))

    def test_score_and_overlap_ties_go_to_the_detection_first_in_the_file(self):
        # Both detections cover G1 at IoU 0.5; only the wide one also covers G2.
        gts = [gt(1, 1, 0, 0), gt(1, 2, 10, 0)]
        tall, wide = det(1, 0, 0, 10, 20, conf=0.9), det(1, 0, 0, 20, 10, conf=0.9)
        assert pr_curve([tall, wide], gts).points[0].recall == pytest.approx(100.0)
        assert pr_curve([wide, tall], gts).points[0].recall == pytest.approx(50.0)

    def test_visible_only_mode_shrinks_gt(self):
        gts = [
            gt(1, 1, 0, 0, visibility=1.0),
            gt(1, 2, 40, 0, visibility=0.1),
        ]
        dets = [det(1, 0, 0, conf=0.9)]
        tracking = pr_curve(dets, gts, mode="tracking_gt")
        visible = pr_curve(dets, gts, mode="visible_only", min_visibility=0.5)
        assert tracking.points[0].recall == pytest.approx(50.0)
        assert visible.points[0].recall == pytest.approx(100.0)

    def test_unknown_mode_rejected(self):
        # "visible" once scored as tracking_gt: recall 100 where visible_only gives 0
        gts, dets = [gt(1, 1, 0, 0, visibility=0.1)], [det(1, 0, 0, conf=0.9)]
        assert pr_curve(dets, gts, mode="visible_only").points[0].recall == 0.0
        with pytest.raises(ValueError, match="got 'visible'"):
            pr_curve(dets, gts, mode="visible")

    @pytest.mark.parametrize("side", ["detections", "gt"])
    @pytest.mark.parametrize("ltwh", [(float("nan"), 0, 10, 10), (0, 0, 1e308, 10)])
    def test_boxes_the_parser_rejects_raise(self, side, ltwh):
        # a NaN left edge was scored as a false positive, an overflowing
        # area warned in the overlap pass
        bad = Rows([1], [-1 if side == "detections" else 1], [ltwh], [0.9], [1], [1])
        inputs = {"detections": [det(1, 0, 0, conf=0.9)], "gt": [gt(1, 1, 0, 0)], side: bad}
        with pytest.raises(ValueError, match=(
                rf"^{side} entry at frame 1, id -?1: box right edge, bottom edge or area "
                "is not finite$")):
            pr_curve(**inputs)

    def test_a_score_that_is_not_finite_raises(self):
        # scores [0.9, nan] gave nan as the first threshold, out of the
        # strictly decreasing order
        dets = [det(1, 0, 0, conf=0.9), det(1, 40, 0, conf=float("nan"))]
        with pytest.raises(ValueError, match=(
                r"^detections entry at frame 1, id -1: confidence nan not finite$")):
            pr_curve(dets, [gt(1, 1, 0, 0)])

    def test_score_rescaling_invariance(self):
        rng = random.Random(31)
        gts = [gt(t, i, 30 * i, 0) for t in range(1, 4) for i in (1, 2, 3)]
        dets = [det(e.frame, e.box.left + rng.uniform(-2, 2), e.box.top,
                    conf=rng.random()) for e in gts]
        base = pr_curve(dets, gts)
        rescaled_dets = [
            det(d.frame, d.box.left, d.box.top, d.box.width, d.box.height,
                conf=3.0 * d.confidence ** 2 + 1.0)
            for d in dets
        ]
        rescaled = pr_curve(rescaled_dets, gts)
        assert base.ap == pytest.approx(rescaled.ap)
        assert [(p.recall, p.precision) for p in base.points] == pytest.approx(
            [(p.recall, p.precision) for p in rescaled.points]
        )

    def test_lowering_iou_threshold_never_decreases_recall(self):
        rng = random.Random(41)
        gts = [gt(t, i, rng.uniform(0, 50), rng.uniform(0, 50))
               for t in range(1, 4) for i in (1, 2, 3)]
        dets = [det(e.frame, e.box.left + rng.uniform(-4, 4),
                    e.box.top + rng.uniform(-4, 4), conf=0.5) for e in gts]
        strict = pr_curve(dets, gts, iou_threshold=0.7)
        loose = pr_curve(dets, gts, iou_threshold=0.3)
        assert loose.points[-1].recall >= strict.points[-1].recall - 1e-9

    @pytest.mark.parametrize("iou_threshold", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("mode", ["tracking_gt", "visible_only"])
    def test_equals_the_rescoring_sweep_on_ties(self, mode, iou_threshold):
        rng = random.Random(9001)
        for _ in range(80):
            gts, dets = _tie_heavy(rng)
            for detections in (dets, []):
                curve = pr_curve(detections, gts, iou_threshold, mode)
                expected = pr_curve_rescored(detections, gts, iou_threshold, mode)
                assert curve == expected
                assert export_curve(curve) == export_curve(expected)

    @pytest.mark.parametrize("iou_threshold", [0.2, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("mode", ["tracking_gt", "visible_only"])
    def test_equals_the_rescoring_sweep_on_displacement_chains(self, mode, iou_threshold):
        rng = random.Random(4242)
        for _ in range(20):
            gts, dets = _chain_heavy(rng)
            curve = pr_curve(dets, gts, iou_threshold, mode)
            expected = pr_curve_rescored(dets, gts, iou_threshold, mode)
            assert curve == expected
            assert export_curve(curve) == export_curve(expected)

    def test_equals_the_rescoring_sweep_on_a_long_chain(self):
        gts, dets = _ladder(random.Random(3))
        curve = pr_curve(dets, gts, iou_threshold=0.2)
        expected = pr_curve_rescored(dets, gts, iou_threshold=0.2)
        assert curve == expected
        assert export_curve(curve) == export_curve(expected)

    def test_one_overlap_pass_per_curve(self, monkeypatch):
        calls = []
        edges = deteval._edges

        def counted(*args):
            calls.append(len(args[2]))
            return edges(*args)

        monkeypatch.setattr(deteval, "_edges", counted)
        for frames in (1, 5, 20):
            gts, dets = _tie_heavy(random.Random(frames), frames=frames)
            for detections in (dets, []):
                calls.clear()
                pr_curve(detections, gts)
                assert calls == [len(detections)]
        assert "pairwise_iou" not in inspect.getsource(deteval)

    def test_crowded_frame_is_not_quadratic(self):
        # 1000 distinct scores against 200 GT boxes in one frame: matching
        # every score's prefix afresh took 0.5-0.65 s on a 2-vCPU x86_64 VM,
        # the deferred-acceptance sweep about 0.01 s.
        rng = random.Random(5)
        gts = [gt(1, i, 8 * rng.randint(0, 20), 8 * rng.randint(0, 10)) for i in range(1, 201)]
        dets = [det(1, 4 * rng.randint(0, 40), 4 * rng.randint(0, 20), conf=rng.random())
                for _ in range(1000)]
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            curve = pr_curve(dets, gts)
            elapsed.append(time.perf_counter() - start)
        assert len(curve.points) == 1000
        assert min(elapsed) < 0.25, elapsed

    def test_crowded_frames_cost_their_nearby_pairs(self, monkeypatch):
        # 1600 people and as many scored detections a few px off in each
        # of 5 frames: 12.8 M same-frame pairs.  The curve's overlap pass,
        # timed on its own so the sweep's share does not blur the gap, took
        # 0.39-0.40 s scoring every pair on a 2-vCPU x86_64 VM and 0.03 s
        # windowed; the whole curve took 0.43 s and 0.07 s.
        rng = random.Random(8)
        rows = crowd(5, 1600, seed=3)
        gts = Rows.of([gt(t, k, x, y, w, h) for t, k, x, y, w, h in rows])
        dets = Rows.of([det(t, x + rng.randint(-3, 3), y + rng.randint(-3, 3), w, h,
                            conf=rng.random()) for t, _, x, y, w, h in rows])
        edges, elapsed = deteval._edges, []

        def timed(*args):
            start = time.perf_counter()
            pairs = edges(*args)
            elapsed.append(time.perf_counter() - start)
            return pairs

        monkeypatch.setattr(deteval, "_edges", timed)
        for _ in range(3):
            curve = pr_curve(dets, gts)
        assert len(curve.points) == 8000
        assert min(elapsed) < 0.15, elapsed

    @pytest.mark.parametrize("iou_threshold", [0.0, -1.0, 1.5, float("nan")])
    def test_rejects_thresholds_outside_the_unit_interval(self, iou_threshold):
        gts, dets = [gt(1, 1, 0, 0)], [det(1, 100, 100, conf=0.9)]
        with pytest.raises(ValueError, match=r"iou_threshold must be in \(0, 1\]"):
            pr_curve(dets, gts, iou_threshold=iou_threshold)

    def test_threshold_one_takes_identical_boxes_only(self):
        gts = [gt(1, 1, 0, 0), gt(1, 2, 40, 0)]
        dets = [det(1, 0, 0, conf=0.9), det(1, 41, 0, conf=0.8)]
        curve = pr_curve(dets, gts, iou_threshold=1.0)
        assert [(p.recall, p.precision) for p in curve.points] == [(50.0, 100.0), (50.0, 50.0)]


def ap_of(points):
    """``_eleven_point_ap`` of the points' recall and precision columns."""
    return _eleven_point_ap(np.array([p.recall for p in points]),
                            np.array([p.precision for p in points]))


class TestAveragePrecision:
    def test_perfect_curve(self):
        points = tuple(
            PRPoint(threshold=1.0 - 0.1 * k, recall=10.0 * k, precision=100.0)
            for k in range(1, 11)
        )
        assert ap_of(points) == pytest.approx(100.0)

    def test_precision_one_up_to_half_recall(self):
        points = (PRPoint(threshold=0.9, recall=50.0, precision=100.0),)
        # recall levels 0..50 see precision 100, the other five see nothing
        assert ap_of(points) == pytest.approx(600.0 / 11.0)

    def test_empty_curve_is_zero(self):
        assert ap_of(()) == 0.0

    def test_interpolation_takes_best_precision_to_the_right(self):
        points = (
            PRPoint(threshold=0.9, recall=30.0, precision=40.0),
            PRPoint(threshold=0.5, recall=60.0, precision=90.0),
        )
        # levels 0..60 interpolate to 90, not 40
        assert ap_of(points) == pytest.approx(7 * 90.0 / 11.0)


def test_export_curve_round_trips_numbers():
    points = (
        PRPoint(threshold=0.75, recall=33.333333333333336, precision=50.0),
        PRPoint(threshold=0.5, recall=66.66666666666667, precision=66.66666666666667),
    )
    curve = PRCurve(points=points, ap=42.0, operating_point=points[-1])
    text = export_curve(curve)
    lines = text.strip().splitlines()
    assert lines[0] == "threshold,recall,precision"
    parsed = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert parsed == [(p.threshold, p.recall, p.precision) for p in points]
