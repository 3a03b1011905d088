"""Geometry tests, cross-checked against a pixel-grid oracle."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import motbench
import motbench.assignment as assignment
import motbench.deteval as deteval
import motbench.model as model
from motbench.ingest import FileKind, FormatVariant, parse_file
from motbench.model import (
    ObjectClass,
    Rows,
    SequenceData,
    _edges,
)
from conftest import Entry, box, det, entries, gt, hyp, iou_matrix, pair_iou, rows
from oracles import edges_all_pairs, iou


def ltwh(boxes) -> np.ndarray:
    """The ``n x 4`` left/top/width/height array that ``iou_matrix`` takes."""
    return np.array([(b.left, b.top, b.width, b.height) for b in boxes]).reshape(-1, 4)


def pixel_iou(a: Entry, b: Entry) -> float:
    """Count unit cells; exact for integer-coordinate boxes."""
    cells_a = {(x, y)
               for x in range(int(a.left), int(a.left + a.width))
               for y in range(int(a.top), int(a.top + a.height))}
    cells_b = {(x, y)
               for x in range(int(b.left), int(b.left + b.width))
               for y in range(int(b.top), int(b.top + b.height))}
    union = len(cells_a | cells_b)
    return len(cells_a & cells_b) / union if union else 0.0


def int_boxes(max_pos=20, max_size=10):
    return st.builds(
        box,
        left=st.integers(-max_pos, max_pos),
        top=st.integers(-max_pos, max_pos),
        width=st.integers(1, max_size),
        height=st.integers(1, max_size),
    )


#: Boxes the parser rejects, each with the rule it breaks first.
PARSER_REJECTS = [
    (10, 10, 0, 5, "non-positive box extent width=0.0 height=5.0"),
    (0, 0, 0, 5, "non-positive box extent width=0.0 height=5.0"),
    (0, 0, 5, -1, "non-positive box extent width=5.0 height=-1.0"),
    (0, 0, 1e308, 10, "box right edge, bottom edge or area is not finite"),
    (float("nan"), 0, 10, 10, "box right edge, bottom edge or area is not finite"),
    (0, 0, 1e154, 1e154, "box edge or area beyond 2**1022"),
    (-8.9e307, 0, 10, 10, "box edge or area beyond 2**1022"),
    (1, 1, 1e-17, 1, "box area (right - left) * (bottom - top) is 0"),
    # 1 + 1e-17 rounds to 1: no extent is left between the edges
    (1.0, 0.0, 1e-17, 5.0, "box area (right - left) * (bottom - top) is 0"),
    # the area underflows to 0
    (0.0, 0.0, 1e-200, 1e-200, "box area (right - left) * (bottom - top) is 0"),
]


class TestIou:
    def test_identical_boxes(self):
        b = box(3, 4, 7, 9)
        assert pair_iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert pair_iou(box(0, 0), box(100, 100)) == 0.0

    def test_touching_edges_do_not_overlap(self):
        assert pair_iou(box(0, 0, 10, 10), box(10, 0, 10, 10)) == 0.0

    def test_half_shifted_boxes(self):
        # overlap 50, union 150
        value = pair_iou(box(0, 0, 10, 10), box(5, 0, 10, 10))
        assert value == pytest.approx(50 / 150)

    @given(int_boxes(), int_boxes())
    def test_matches_pixel_counting_on_integer_grid(self, a, b):
        assert pair_iou(a, b) == pytest.approx(pixel_iou(a, b), abs=1e-12)

    @given(int_boxes(), int_boxes())
    def test_symmetry(self, a, b):
        assert pair_iou(a, b) == pair_iou(b, a)

    @given(int_boxes(), int_boxes(),
           st.integers(-50, 50), st.integers(-50, 50))
    def test_translation_invariance(self, a, b, dx, dy):
        a2 = box(a.left + dx, a.top + dy, a.width, a.height)
        b2 = box(b.left + dx, b.top + dy, b.width, b.height)
        assert pair_iou(a2, b2) == pytest.approx(pair_iou(a, b), abs=1e-12)

    @given(int_boxes(), int_boxes())
    def test_half_overlap_implies_big_intersection(self, a, b):
        """IoU >= 0.5 forces the intersection above a third of either area."""
        if pair_iou(a, b) >= 0.5:
            inter_w = max(0.0, min(a.left + a.width, b.left + b.width) - max(a.left, b.left))
            inter_h = max(0.0, min(a.top + a.height, b.top + b.height) - max(a.top, b.top))
            inter = inter_w * inter_h
            assert inter > a.width * a.height / 3
            assert inter > b.width * b.height / 3

    def test_bounded(self):
        rng = random.Random(7)
        for _ in range(200):
            a = box(rng.uniform(-5, 5), rng.uniform(-5, 5),
                    rng.uniform(0.1, 9), rng.uniform(0.1, 9))
            b = box(rng.uniform(-5, 5), rng.uniform(-5, 5),
                    rng.uniform(0.1, 9), rng.uniform(0.1, 9))
            assert 0.0 <= pair_iou(a, b) <= 1.0

    def test_bounded_for_extents_near_one_ulp(self):
        # widths and heights of a fraction of an ulp up to a few ulps of
        # their edge: rounded edges can make a box wider than its width,
        # never an intersection wider than a box
        rng = random.Random(5)
        for _ in range(2000):
            edge = rng.choice([1.0, 3.0, 1000.0])
            ulp = math.ulp(edge)
            boxes = [box(edge + rng.randint(0, 3) * ulp, edge,
                         rng.uniform(0.6, 3.0) * ulp, rng.uniform(0.6, 3.0) * ulp)
                     for _ in range(2)]
            matrix = iou_matrix(ltwh(boxes), ltwh(boxes))
            assert ((0.0 <= matrix) & (matrix <= 1.0)).all()
            assert matrix.diagonal().tolist() == [1.0, 1.0]
            assert matrix.tolist() == [[pair_iou(p, q) for q in boxes] for p in boxes]

    def test_matrix_entries_equal_single_pair_calls(self):
        rng = random.Random(13)
        lhs = [box(rng.uniform(-5, 40), rng.uniform(-5, 40),
                   rng.uniform(0.5, 15), rng.uniform(0.5, 15)) for _ in range(9)]
        rhs = [box(rng.uniform(-5, 40), rng.uniform(-5, 40),
                   rng.uniform(0.5, 15), rng.uniform(0.5, 15)) for _ in range(7)]
        matrix = iou_matrix(ltwh(lhs), ltwh(rhs))
        assert matrix.shape == (9, 7)
        assert matrix.tolist() == [[pair_iou(a, b) for b in rhs] for a in lhs]

    def test_pairwise_is_bit_equal_to_scalar(self):
        # continuous coordinates, boxes near each other: the vectorized and
        # the scalar route must agree to the last bit, not just closely
        rng = random.Random(21)
        for _ in range(3000):
            a = box(rng.uniform(-50, 500), rng.uniform(-50, 500),
                    rng.uniform(0.5, 120), rng.uniform(0.5, 120))
            b = box(a.left + rng.uniform(-40, 40), a.top + rng.uniform(-40, 40),
                    rng.uniform(0.5, 120), rng.uniform(0.5, 120))
            assert pair_iou(a, b) == iou(a, b)

    def test_pairwise_empty_sides(self):
        one, none = ltwh([box(0, 0)]), ltwh([])
        for a, b in ((none, one), (one, none)):
            columns = _edges(np.ones(len(a), np.int64), a, np.ones(len(b), np.int64), b, 0.5)
            assert [column.tolist() for column in columns] == [[], [], []]
        assert iou_matrix(none, one).shape == (0, 1)
        assert iou_matrix(one, none).shape == (1, 0)


def assert_all_pairs_edges(gt_frame, gt_ltwh, res_frame, res_ltwh, threshold) -> np.ndarray:
    """``_edges`` equals the all-pairs reference bit for bit; the IoUs it keeps."""
    args = (np.asarray(gt_frame, np.int64), np.asarray(gt_ltwh, float).reshape(-1, 4),
            np.asarray(res_frame, np.int64), np.asarray(res_ltwh, float).reshape(-1, 4),
            threshold)
    got, want = _edges(*args), edges_all_pairs(*args)
    for column, reference in zip(got, want):
        assert column.dtype == reference.dtype
        assert column.tobytes() == reference.tobytes()
    return got[2]


#: The thresholds of the equality tests: the least positive float, which
#: ``iou_matrix`` uses, up to 1.
THRESHOLDS = (np.nextafter(0.0, 1.0), 0.3, 0.5, 0.9, 1.0)


class TestWindowedEdges:
    """The windowed overlap pass against the all-pairs reference."""

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_tie_heavy_integer_grids(self, threshold, monkeypatch):
        # GT rows in any frame order, results sorted by frame only, frames
        # with one side only, and every block boundary inside a frame
        rng = np.random.default_rng(4242)
        hits = 0
        for budget in (1, 7, model._PAIR_BUDGET):
            monkeypatch.setattr(model, "_PAIR_BUDGET", budget)
            for _ in range(80):
                frames, step = int(rng.integers(1, 6)), float(rng.choice([1, 2, 4]))
                n_gt, n_res = rng.integers(0, 30, 2)
                gt_ltwh = step * rng.integers([0, 0, 1, 1], [8, 8, 5, 5], (n_gt, 4))
                res_ltwh = step * rng.integers([0, 0, 1, 1], [8, 8, 5, 5], (n_res, 4))
                copied = rng.random(n_res) < 0.5  # exact copies and 1-step shifts of GT
                if n_gt:
                    res_ltwh[copied] = gt_ltwh[rng.integers(0, n_gt, copied.sum())]
                    res_ltwh[copied, 0] += step * rng.integers(-1, 2, copied.sum())
                hits += len(assert_all_pairs_edges(
                    rng.integers(1, frames + 1, n_gt), gt_ltwh,
                    np.sort(rng.integers(1, frames + 1, n_res)), res_ltwh, threshold))
        assert hits > 300

    @pytest.mark.parametrize("threshold", [0.25, 0.3, 0.5, 0.75, 0.9, 1.0])
    def test_left_edges_on_a_window_end_and_one_ulp_past(self, threshold):
        # IoU >= t bounds a result's left edge to [gt_left - w * (1 - t) / t,
        # gt_right - t * w]: a box reaching gt_right from either end has IoU
        # t there, and one ulp outside it falls below
        rng = random.Random(int(threshold * 1000))
        gt_rows, res_rows = [], []
        for scale in (0.0, 1.0, 1e3, 1e6, 2.0**40, 2.0**900):
            for _ in range(12):
                left, width = scale * rng.uniform(-1, 1), rng.choice([8.0, rng.uniform(0.5, 50)])
                width *= max(1.0, scale * 1e-6)
                right = left + width
                gt_rows.append((left, 0.0, width, 10.0))
                w = right - left
                for end in (right - threshold * w, left - w * (1 - threshold) / threshold):
                    ulps = (math.nextafter(end, -math.inf), math.nextafter(end, math.inf))
                    for edge in (end, *ulps):
                        if edge < right:
                            res_rows.append((len(gt_rows), (edge, 0.0, right - edge, 10.0)))
        res_frame, res_ltwh = zip(*res_rows)
        overlaps = assert_all_pairs_edges(np.arange(1, len(gt_rows) + 1), gt_rows,
                                          res_frame, res_ltwh, threshold)
        assert (overlaps == threshold).any()

    def test_one_huge_box_over_many_small_ones(self):
        rng = np.random.default_rng(9)
        small = rng.integers([0, 0, 1, 1], [990, 990, 10, 10], (400, 4)).astype(float)
        huge = np.array([[0.0, 0.0, 1000.0, 1000.0]])
        both = np.vstack([small[:200], huge, small[200:]])
        for threshold in (np.nextafter(0.0, 1.0), 1e-6, 5e-5, 0.5):
            for gt_ltwh, res_ltwh in ((huge, small), (small, huge), (both, both)):
                overlaps = assert_all_pairs_edges(np.ones(len(gt_ltwh)), gt_ltwh,
                                                  np.ones(len(res_ltwh)), res_ltwh, threshold)
                if threshold <= 1e-6:  # the huge box overlaps every small one by 1e-6 or more
                    assert len(overlaps) >= 400

    @pytest.mark.parametrize("threshold", THRESHOLDS + (0.25,))
    def test_coordinates_and_extents_near_the_parser_limit(self, threshold):
        # edges and areas up to 2**1022 keep the IoU terms finite; the window
        # ends may overflow, and must do so without a warning
        big = 2.0**1022
        boxes = [(-big, 0.0, 2 * big, 0.5), (-big, 0.0, big, 1.0), (0.0, 0.0, big, 1.0),
                 (big / 2, 0.0, big / 2, 2.0), (-big, 0.0, 2.0**970, 1.0),
                 (big - 2.0**970, 0.0, 2.0**970, 4.0),
                 (math.nextafter(-big, 0.0), 0.0, big, 1.0), (0.0, 0.0, 10.0, 10.0),
                 (-big / 3, -1.0, big / 3, 3.0), (0.0, big - 1.0e300, 2.0, 1.0e300)]
        for shift in (0.0, 2.0**1000):
            res = [(left - shift, top, width, height) for left, top, width, height in boxes
                   if left - shift >= -big]
            assert_all_pairs_edges(np.ones(len(boxes)), boxes, np.ones(len(res)), res, threshold)

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_areas_below_the_normal_floats(self, threshold):
        # extents of 1e-160 make areas that underflow to subnormals
        rng = np.random.default_rng(17)
        for scale in (1e-160, 1e-155, 1.0):
            ltwh = scale * rng.integers([0, 0, 1, 1], [6, 6, 4, 4], (40, 4))
            for res_ltwh in (ltwh[20:], ltwh[:20] * 1e150):
                assert_all_pairs_edges(np.ones(20), ltwh[:20], np.ones(20), res_ltwh, threshold)

    @pytest.mark.parametrize("gt_width, res_left, res_width, threshold, computed", [
        # areas of 1.5 and 2.875 times the least subnormal round to 2 and 3
        # of it: an exact IoU of 0.52 is computed as 2/3
        (1.5, -1.375, 2.875, 0.6, 2 / 3),
        # areas of 2.5 and an intersection of 1.5 times it all round to 2 of
        # it: an exact IoU of 0.43 is computed as 1.0
        (2.5, 1.0, 2.5, 0.9, 1.0), (2.5, 1.0, 2.5, 1.0, 1.0),
        (2.5, -1.0, 2.5, 0.9, 1.0), (2.5, -1.0, 2.5, 1.0, 1.0),
    ])
    def test_rounded_subnormal_areas_can_reach_the_threshold(
            self, gt_width, res_left, res_width, threshold, computed):
        # each result's left edge lies past an end of the window a normal
        # area would get
        e = 2.0**-537
        gt_ltwh, res_ltwh = [(0.0, 0.0, gt_width * e, e)], [(res_left * e, 0.0, res_width * e, e)]
        overlaps = assert_all_pairs_edges([1], gt_ltwh, [1], res_ltwh, threshold)
        assert overlaps.tolist() == [computed]

    def test_empty_sides_and_frames_without_results(self):
        one, none = [(0.0, 0.0, 10.0, 10.0)], np.zeros((0, 4))
        for gt_frame, gt_ltwh, res_frame, res_ltwh in (
                ([], none, [1], one), ([1], one, [], none), ([], none, [], none)):
            assert len(assert_all_pairs_edges(gt_frame, gt_ltwh, res_frame, res_ltwh, 0.5)) == 0
        # a GT frame with no results sits just before the next frame's rows:
        # identical boxes there are no pairs, only frame 2's are
        boxes = one * 6
        g, r, _ = _edges(np.array([1, 3, 5, 3, 7, 2]), np.array(boxes),
                         np.array([2, 2, 4, 6, 6, 6]), np.array(boxes), 0.5)
        assert (g.tolist(), r.tolist()) == ([5, 5], [0, 1])
        assert_all_pairs_edges([1, 3, 5, 3, 7, 2], boxes, [2, 2, 4, 6, 6, 6], boxes, 0.5)


def test_one_overlap_implementation(monkeypatch):
    # every overlap is computed by model's pass, and the parser's area
    # check goes through the same geometry
    assert assignment._edges is deteval._edges is model._edges
    assert not hasattr(motbench, "pairwise_iou") and not hasattr(model, "pairwise_iou")
    calls = []
    geometry = model._geometry

    def spy(ltwh):
        calls.append(len(ltwh))
        return geometry(ltwh)

    monkeypatch.setattr(model, "_geometry", spy)
    text = "1,1,0,0,10,10,1,1,1\n1,2,5,0,10,10,1,1,1\n2,1,1,0,10,10,1,1,1\n"
    assert len(parse_file(text, FormatVariant.MOT16_17, FileKind.GROUND_TRUTH)) == 3
    assert calls == [3]


class TestRows:
    def rows(self):
        return rows([gt(2, 5, 0, 0), gt(1, 3, 10, 10, conf=0.0), hyp(1, 1, 20, 20)])

    def test_columns_are_read_only(self):
        rows = self.rows()
        for name in ("frame", "track_id", "ltwh", "confidence", "object_class",
                     "visibility"):
            column = getattr(rows, name)
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[-1]
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rows, name, column)

    def test_construction_copies_its_inputs(self):
        frames = np.array([1, 2])
        rows = Rows(frames, [1, 1], [(0, 0, 1, 1)] * 2, [1, 1], [1, 1], [1, 1])
        frames[0] = 9
        assert rows.frame.tolist() == [1, 2]
        assert frames.flags.writeable

    def test_columns_of_different_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            Rows([1, 2], [1], [(0, 0, 1, 1)], [1], [1], [1])

    @pytest.mark.parametrize("ltwh", [
        np.arange(1, 9.0).reshape(4, 2), np.arange(1, 9.0), np.ones((2, 4, 1)), np.ones((2, 5)),
        np.ones((0, 3)), 1.0,
    ])
    def test_ltwh_of_another_shape_rejected(self, ltwh):
        # a 4 x 2 array was reshaped to 2 x 4, its values moved to other rows
        # and fields, and a sequence accepted it
        with pytest.raises(ValueError, match=r"^ltwh must have shape \(n, 4\), got \("):
            Rows([1, 1], [1, 2], ltwh, [1, 1], [1, 1], [1, 1])
        assert Rows(ltwh=np.ones((0, 4))).ltwh.shape == Rows(ltwh=[]).ltwh.shape == (0, 4)

    @pytest.mark.parametrize("column, values", [
        ("frame", [1.5, 2.9]), ("track_id", [1.7, 1.2]), ("object_class", [1.9, 1]),
        ("frame", [float("nan"), 1]), ("track_id", np.array([1.0, np.inf])),
        ("frame", [2**63, 1]), ("track_id", [1, -2**63 - 1]), ("frame", [2.0**63, 1]),
        ("track_id", np.array([9.3e18, 1.0])), ("object_class", np.array([2**64 - 1, 1], np.uint64)),
    ])
    def test_integer_columns_reject_values_the_cast_would_change(self, column, values):
        # fractions were truncated, and a sequence then scored the rows;
        # 2**63 raised OverflowError
        columns = dict(frame=[1, 2], track_id=[1, 2], ltwh=[(0, 0, 10, 10)] * 2,
                       confidence=[1, 1], object_class=[1, 1], visibility=[1, 1])
        with pytest.raises(ValueError, match=rf"^{column}\b"):
            Rows(**{**columns, column: values})

    def test_integer_columns_take_integral_values_of_any_type(self):
        rows = Rows([1.0, 2], np.array([2**63 - 1, -2**63]), [(0, 0, 1, 1)] * 2, [1, 1],
                    np.array([True, False]), [1, 1])
        assert rows.frame.tolist() == [1, 2]
        assert rows.track_id.tolist() == [2**63 - 1, -2**63]
        assert rows.object_class.tolist() == [1, 0]

    def test_iterates_as_entries(self):
        written = [gt(2, 5, 0, 0, object_class=ObjectClass.REFLECTION, visibility=0.25),
                   hyp(1, 1, 20.5, 20, 3, 4, conf=0.75)]
        assert entries(rows(written)) == written
        assert [tuple(row) for row in rows(written)] == [
            (2, 5, [0.0, 0.0, 10.0, 10.0], 1.0, 12, 0.25),
            (1, 1, [20.5, 20.0, 3.0, 4.0], 0.75, 1, 1.0),
        ]
        assert all(type(row.frame) is int and type(row.confidence) is float
                   for row in rows(written))
        assert list(Rows()) == [] and Rows().ltwh.shape == (0, 4)

    def test_sequence_orders_rows_by_frame_then_id_stably(self):
        # equal (frame, id) keys are legal among detections, whose ids are
        # unassigned: they keep their input order
        results = [hyp(3, 2, 0, 0), hyp(1, 4, 0, 0), hyp(3, 1, 0, 0)]
        detections = [det(3, 0, 0), det(1, 5, 0), det(2, 0, 0), det(1, 6, 0), det(1, 7, 0)]
        data = SequenceData(name="s", num_frames=3, results=rows(results),
                            detections=rows(detections))
        assert isinstance(data.results, Rows)
        assert list(zip(data.results.frame.tolist(), data.results.track_id.tolist())) == [
            (1, 4), (3, 1), (3, 2)
        ]
        assert data.detections.frame.tolist() == [1, 1, 1, 2, 3]
        assert data.detections.ltwh[:3, 0].tolist() == [5.0, 6.0, 7.0]

    def test_sorted_rows_are_kept_as_they_are(self):
        ordered = rows([gt(1, 1, 0, 0), gt(1, 2, 0, 0), gt(2, 1, 0, 0)])
        assert ordered.sorted() is ordered
        assert SequenceData(name="s", num_frames=2, gt=ordered).gt is ordered
        # detections share the id -1, so equal keys follow each other
        detections = rows([det(1, 0, 0), det(1, 5, 0), det(2, 0, 0), det(2, 9, 0)])
        assert detections.sorted() is detections
        extreme = rows([hyp(1, -2**62, 0, 0), hyp(1, 2**62, 0, 0), hyp(2, -2**62, 0, 0)])
        assert extreme.sorted() is extreme
        assert Rows().sorted().frame.shape == (0,)

    def test_unordered_rows_are_sorted_stably(self):
        detections = rows([det(2, 0, 0), det(1, 5, 0), det(2, 1, 0), det(1, 6, 0)])
        ordered = detections.sorted()
        assert ordered.frame.tolist() == [1, 1, 2, 2]
        assert ordered.ltwh[:, 0].tolist() == [5.0, 6.0, 0.0, 1.0]
        # the ids' difference does not fit in an int64
        wide = rows([hyp(1, 2**62, 0, 0), hyp(1, -2**62 - 1, 0, 0)])
        assert wide.sorted().track_id.tolist() == [-2**62 - 1, 2**62]


class TestEntriesAndSequences:
    @pytest.mark.parametrize("kind", ["gt", "results", "detections"])
    def test_sequence_rejects_frame_zero(self, kind):
        with pytest.raises(ValueError) as err:
            SequenceData(name="s", num_frames=3, **{kind: rows([hyp(0, 1, 0, 0)])})
        assert str(err.value) == (f"sequence 's': {kind} entry at frame 0, id 1: "
                                  "frame index must be >= 1, got 0")

    def test_active_flag(self):
        flagged = rows([gt(1, 1, 0, 0, conf=1.0), gt(1, 2, 0, 0, conf=0.0)])
        assert flagged.scoreable.tolist() == [True, False]

    def test_sequence_rejects_out_of_range_frames(self):
        with pytest.raises(ValueError):
            SequenceData(name="s", num_frames=3, gt=rows([gt(4, 1, 0, 0)]))

    def test_area_is_measured_between_the_rounded_edges(self):
        # 1 + 1.67e-16 rounds to 1 + 2**-52: that much extent is left
        ltwh = np.array([[1.0, 0.0, 1.6653345369377348e-16, 5.0]])
        assert model._geometry(ltwh)[4].tolist() == [2.0**-52 * 5.0]
        assert len(SequenceData(name="s", num_frames=1,
                                gt=Rows([1], [1], ltwh, [1], [1], [1])).gt) == 1

    def test_negative_coordinates_allowed(self):
        data = SequenceData(name="s", num_frames=1, gt=rows([gt(1, 1, -10.5, -3.0, 4.0, 8.0)]))
        _, _, right, bottom, _ = model._geometry(data.gt.ltwh)
        assert right.tolist() == [-6.5]
        assert bottom.tolist() == [5.0]

    def test_sequence_rejects_zero_frames(self):
        with pytest.raises(ValueError):
            SequenceData(name="s", num_frames=0)

    @pytest.mark.parametrize("num_frames", [2.5, 3.0, float("nan"), float("inf"), "3", None])
    def test_sequence_rejects_a_frame_count_that_is_not_an_integer(self, num_frames):
        # 2.5 was accepted and reported as "frames: 2.5"
        with pytest.raises(ValueError, match=r"^sequence 's': num_frames must be an integer > 0"):
            SequenceData(name="s", num_frames=num_frames, gt=rows([gt(1, 1, 0, 0)]))

    def test_sequence_takes_a_numpy_integer_frame_count(self):
        assert SequenceData(name="s", num_frames=np.int64(2)).num_frames == 2

    @pytest.mark.parametrize("left, top, width, height, rule", PARSER_REJECTS)
    @pytest.mark.parametrize("kind", ["gt", "results", "detections"])
    def test_sequence_rejects_the_boxes_the_parser_rejects(self, kind, left, top, width,
                                                           height, rule):
        # rows built in code meet the parser's geometry rules: an area that
        # overflows warned in the overlap pass, and a NaN edge scored as a
        # false positive
        rows = Rows([1, 2], [1, 1], [(1, 1, 10, 10), (left, top, width, height)],
                    [1, 1], [1, 1], [1, 1])
        with pytest.raises(ValueError) as err:
            SequenceData(name="s", num_frames=2, **{kind: rows})
        assert str(err.value) == f"sequence 's': {kind} entry at frame 2, id 1: {rule}"
        if not math.isnan(left):  # the parser rejects a NaN token before its geometry
            with pytest.raises(ValueError) as err:
                parse_file(f"2,1,{left},{top},{width},{height},1,-1,-1",
                           FormatVariant.MOT16_17, FileKind.RESULT)
            assert str(err.value) == f"line 1: {rule}"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["confidence", "visibility"])
    @pytest.mark.parametrize("kind", ["gt", "results", "detections"])
    def test_sequence_rejects_the_scores_the_parser_rejects(self, kind, column, value):
        # a NaN-flagged GT box scored as active; the parser refuses the token
        conf, vis = (value, 1) if column == "confidence" else (1, value)
        rows = Rows([1, 2], [1, 1], [(1, 1, 10, 10)] * 2, [1, conf], [1, 1], [1, vis])
        with pytest.raises(ValueError) as err:
            SequenceData(name="s", num_frames=2, **{kind: rows})
        assert str(err.value) == (f"sequence 's': {kind} entry at frame 2, id 1: "
                                  f"{column} {value} not finite")
        with pytest.raises(ValueError) as err:
            parse_file(f"2,1,1,1,10,10,{conf},1,{vis}", FormatVariant.MOT16_17,
                       FileKind.GROUND_TRUTH)
        assert str(err.value) == f"line 1: non-finite number '{value}' in {column} field"

    def test_score_rules_take_the_parser_column_order(self):
        # box, then confidence; class, then visibility
        rows = Rows([1], [1], [(1, 1, 0, 10)], [math.nan], [1], [1])
        with pytest.raises(ValueError, match="non-positive box extent"):
            SequenceData(name="s", num_frames=1, gt=rows)
        rows = Rows([1], [1], [(1, 1, 10, 10)], [1], [99], [math.nan])
        with pytest.raises(ValueError, match="unknown class code 99$"):
            SequenceData(name="s", num_frames=1, gt=rows)

    @pytest.mark.parametrize("code", [-1, 13, 99])
    def test_sequence_rejects_class_codes_outside_object_class(self, code):
        # -1 was read as REFLECTION, a neutral class, so the GT box vanished
        # from every count; 99 raised IndexError in the neutral filter
        coded = Rows([1, 1], [1, 2], [(0, 0, 10, 10)] * 2, [1, 1], [1, code], [1, 1])
        with pytest.raises(ValueError) as err:
            SequenceData(name="s", num_frames=1, gt=coded, results=rows([hyp(1, 7, 0, 0)]))
        assert str(err.value) == ("sequence 's': gt entry at frame 1, id 2: "
                                  f"unknown class code {code}")
        other = Rows([1], [1], [(0, 0, 10, 10)], [1], [ObjectClass.OTHER], [1])
        assert len(SequenceData(name="s", num_frames=1, gt=other).gt) == 1

    @pytest.mark.parametrize("rows, rule", [
        # frame 2, id 4 comes first in (frame, id) order, although frame 3,
        # id 1 breaks an earlier rule and comes first in the input
        ([(3, 1, 1), (2, 4, 0)], "frame 2, id 4: non-positive box extent width=0.0 height=1.0"),
        # the frame range comes before the geometry, and both before the key
        ([(3, 1, 0)], "frame 3, id 1: frame 3 outside [1, 2]"),
        ([(1, 1, 1), (1, 1, 0)], "frame 1, id 1: non-positive box extent width=0.0 height=1.0"),
    ])
    def test_sequence_reports_its_first_row_and_that_rows_first_rule(self, rows, rule):
        frame, track_id, width = zip(*rows)
        rows = Rows(frame, track_id, [(0, 0, w, 1) for w in width], [1] * len(rows),
                    [1] * len(rows), [1] * len(rows))
        with pytest.raises(ValueError) as err:
            SequenceData(name="s", num_frames=2, results=rows)
        assert str(err.value) == f"sequence 's': results entry at {rule}"

    @pytest.mark.parametrize("kind", ["gt", "results"])
    @pytest.mark.parametrize("track_id", [1, -1])
    def test_sequence_rejects_a_repeated_frame_and_id(self, kind, track_id):
        # two boxes of one track in one frame would count as two co-detected
        # frames of one pair and push IDP or IDR above 100
        repeated = rows([gt(2, 3, 0, 0), hyp(1, track_id, 0, 0), hyp(1, track_id, 1, 0)])
        with pytest.raises(ValueError) as err:
            SequenceData(name="s", num_frames=2, **{kind: repeated})
        assert str(err.value) == (f"sequence 's': {kind} entry at frame 1, id {track_id}: "
                                  f"duplicate (frame, id) pair (1, {track_id})")
