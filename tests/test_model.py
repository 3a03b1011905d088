"""Geometry tests, cross-checked against a pixel-grid oracle."""

import random

import pytest
from hypothesis import given, strategies as st

from motbench.model import (
    Box,
    BoxEntry,
    SequenceData,
    iou,
    pairwise_iou,
)
from conftest import box, gt


def pixel_iou(a: Box, b: Box) -> float:
    """Count unit cells; exact for integer-coordinate boxes."""
    cells_a = {(x, y)
               for x in range(int(a.left), int(a.right))
               for y in range(int(a.top), int(a.bottom))}
    cells_b = {(x, y)
               for x in range(int(b.left), int(b.right))
               for y in range(int(b.top), int(b.bottom))}
    union = len(cells_a | cells_b)
    return len(cells_a & cells_b) / union if union else 0.0


def int_boxes(max_pos=20, max_size=10):
    return st.builds(
        Box,
        left=st.integers(-max_pos, max_pos),
        top=st.integers(-max_pos, max_pos),
        width=st.integers(1, max_size),
        height=st.integers(1, max_size),
    )


class TestBox:
    def test_rejects_non_positive_extent(self):
        with pytest.raises(ValueError):
            Box(0, 0, 0, 5)
        with pytest.raises(ValueError):
            Box(0, 0, 5, -1)

    def test_negative_coordinates_allowed(self):
        b = Box(-10.5, -3.0, 4.0, 8.0)
        assert b.right == -6.5
        assert b.bottom == 5.0


class TestIou:
    def test_identical_boxes(self):
        b = box(3, 4, 7, 9)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(box(0, 0), box(100, 100)) == 0.0

    def test_touching_edges_do_not_overlap(self):
        assert iou(box(0, 0, 10, 10), box(10, 0, 10, 10)) == 0.0

    def test_half_shifted_boxes(self):
        # overlap 50, union 150
        value = iou(Box(0, 0, 10, 10), Box(5, 0, 10, 10))
        assert value == pytest.approx(50 / 150)

    @given(int_boxes(), int_boxes())
    def test_matches_pixel_counting_on_integer_grid(self, a, b):
        assert iou(a, b) == pytest.approx(pixel_iou(a, b), abs=1e-12)

    @given(int_boxes(), int_boxes())
    def test_symmetry(self, a, b):
        assert iou(a, b) == iou(b, a)

    @given(int_boxes(), int_boxes(),
           st.integers(-50, 50), st.integers(-50, 50))
    def test_translation_invariance(self, a, b, dx, dy):
        a2 = Box(a.left + dx, a.top + dy, a.width, a.height)
        b2 = Box(b.left + dx, b.top + dy, b.width, b.height)
        assert iou(a2, b2) == pytest.approx(iou(a, b), abs=1e-12)

    @given(int_boxes(), int_boxes())
    def test_half_overlap_implies_big_intersection(self, a, b):
        """IoU >= 0.5 forces the intersection above a third of either area."""
        if iou(a, b) >= 0.5:
            inter_w = max(0.0, min(a.right, b.right) - max(a.left, b.left))
            inter_h = max(0.0, min(a.bottom, b.bottom) - max(a.top, b.top))
            inter = inter_w * inter_h
            assert inter > a.area / 3
            assert inter > b.area / 3

    def test_bounded(self):
        rng = random.Random(7)
        for _ in range(200):
            a = box(rng.uniform(-5, 5), rng.uniform(-5, 5),
                    rng.uniform(0.1, 9), rng.uniform(0.1, 9))
            b = box(rng.uniform(-5, 5), rng.uniform(-5, 5),
                    rng.uniform(0.1, 9), rng.uniform(0.1, 9))
            assert 0.0 <= iou(a, b) <= 1.0

    def test_pairwise_matches_scalar(self):
        rng = random.Random(13)
        lhs = [box(rng.uniform(-5, 40), rng.uniform(-5, 40),
                   rng.uniform(0.5, 15), rng.uniform(0.5, 15)) for _ in range(9)]
        rhs = [box(rng.uniform(-5, 40), rng.uniform(-5, 40),
                   rng.uniform(0.5, 15), rng.uniform(0.5, 15)) for _ in range(7)]
        matrix = pairwise_iou(lhs, rhs)
        assert matrix.shape == (9, 7)
        for i, a in enumerate(lhs):
            for j, b in enumerate(rhs):
                assert matrix[i, j] == pytest.approx(iou(a, b), abs=1e-14)

    def test_pairwise_is_bit_equal_to_scalar(self):
        # continuous coordinates, boxes near each other: the vectorized and
        # the scalar route must agree to the last bit, not just closely
        rng = random.Random(21)
        for _ in range(3000):
            a = box(rng.uniform(-50, 500), rng.uniform(-50, 500),
                    rng.uniform(0.5, 120), rng.uniform(0.5, 120))
            b = box(a.left + rng.uniform(-40, 40), a.top + rng.uniform(-40, 40),
                    rng.uniform(0.5, 120), rng.uniform(0.5, 120))
            assert pairwise_iou([a], [b])[0, 0] == iou(a, b)

    def test_pairwise_empty_sides(self):
        assert pairwise_iou([], [box(0, 0)]).shape == (0, 1)
        assert pairwise_iou([box(0, 0)], []).shape == (1, 0)


class TestEntriesAndSequences:
    def test_entry_rejects_frame_zero(self):
        with pytest.raises(ValueError):
            BoxEntry(frame=0, track_id=1, box=box(0, 0))

    def test_active_flag(self):
        assert gt(1, 1, 0, 0, conf=1.0).is_active
        assert not gt(1, 1, 0, 0, conf=0.0).is_active

    def test_sequence_rejects_out_of_range_frames(self):
        with pytest.raises(ValueError):
            SequenceData(name="s", num_frames=3, gt=(gt(4, 1, 0, 0),))

    def test_sequence_rejects_zero_frames(self):
        with pytest.raises(ValueError):
            SequenceData(name="s", num_frames=0)
