import numpy as np
import pytest

from pairbox import _kernels
from pairbox.geometry import (
    Box,
    PairedBox,
    area,
    intersection_area,
    iou,
    iou_elementwise,
    iou_matrix,
    iou_multimodal,
    iou_multimodal_elementwise,
    iou_multimodal_matrix,
    pairs_to_arrays,
)

from oracles import rasterized_counts, rasterized_iou, rasterized_iou_multimodal


def random_int_boxes(rng, n, lo=0, hi=15, max_size=12):
    x = rng.integers(lo, hi, size=n)
    y = rng.integers(lo, hi, size=n)
    w = rng.integers(0, max_size, size=n)
    h = rng.integers(0, max_size, size=n)
    return np.stack([x, y, w, h], axis=1).astype(np.float64)


def random_float_boxes(rng, n, span=40.0, max_size=25.0):
    x = rng.uniform(-span, span, size=n)
    y = rng.uniform(-span, span, size=n)
    w = rng.uniform(0.0, max_size, size=n)
    h = rng.uniform(0.0, max_size, size=n)
    return np.stack([x, y, w, h], axis=1)


def edge_case_boxes(rng, n):
    """Float boxes, every 7th of zero width, every 13th of zero height and
    every 11th rounded to integers."""
    out = random_float_boxes(rng, n)
    out[::7, 2] = 0.0
    out[3::13, 3] = 0.0
    out[1::11] = np.round(out[1::11])
    return out


def small_int_boxes(rng, n):
    """Integer boxes within a 16-pixel square, so many pairs overlap or share an edge."""
    return random_int_boxes(rng, n, hi=10, max_size=6)


class TestBoxValidation:
    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            Box(0, 0, -1, 5)

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            Box(0, 0, 5, -0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Box(float("nan"), 0, 1, 1)
        with pytest.raises(ValueError):
            Box(0, 0, float("inf"), 1)
        with pytest.raises(ValueError):  # finite, but its area overflows
            Box(0, 0, 1e200, 1e200)

    def test_largest_box_overlaps_itself_fully(self):
        b = Box(-1e100, -1e100, 1e100, 1e100)
        assert iou(b, b) == 1.0
        assert iou_multimodal(PairedBox(b, b), PairedBox(b, b)) == 1.0

    def test_zero_extent_allowed(self):
        assert area(Box(3, 7, 0, 5)) == 0.0


class TestArea:
    def test_unit_square_grid(self):
        inter, union, a_cells, _ = rasterized_counts((0, 0, 10, 10), (0, 0, 10, 10))
        assert a_cells / 100 == 100
        assert area(Box(0, 0, 10, 10)) == 100.0

    def test_small_box_grid(self):
        _, _, a_cells, _ = rasterized_counts((1, 1, 2, 3), (1, 1, 2, 3))
        assert a_cells / 100 == 6
        assert area(Box(1, 1, 2, 3)) == 6.0


class TestIntersection:
    def test_half_overlap(self):
        inter, _, _, _ = rasterized_counts((0, 0, 10, 10), (5, 0, 10, 10))
        assert inter / 100 == 50
        assert intersection_area(Box(0, 0, 10, 10), Box(5, 0, 10, 10)) == 50.0

    def test_identical(self):
        assert intersection_area(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == 100.0

    def test_edge_touching_is_zero(self):
        assert intersection_area(Box(0, 0, 10, 10), Box(10, 0, 10, 10)) == 0.0


class TestIou:
    def test_third_overlap(self):
        expected = rasterized_iou((0, 0, 10, 10), (5, 0, 10, 10))
        got = iou(Box(0, 0, 10, 10), Box(5, 0, 10, 10))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_identical_is_one(self):
        assert iou(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == 1.0

    def test_disjoint_is_zero(self):
        assert iou(Box(0, 0, 10, 10), Box(20, 20, 5, 5)) == 0.0

    def test_two_zero_area_boxes(self):
        assert iou(Box(1, 1, 0, 0), Box(1, 1, 0, 0)) == 0.0

    def test_agrees_with_grid_oracle(self):
        rng = np.random.default_rng(11)
        a = random_int_boxes(rng, 300)
        b = random_int_boxes(rng, 300)
        got = iou_elementwise(a, b)
        for i in range(a.shape[0]):
            assert abs(got[i] - rasterized_iou(a[i], b[i])) < 1e-9


class TestIouMultimodal:
    def test_mixed_alignment_example(self):
        gt = PairedBox(Box(0, 0, 10, 10), Box(20, 0, 10, 10))
        dt = PairedBox(Box(0, 0, 10, 10), Box(25, 0, 10, 10))
        expected = rasterized_iou_multimodal(
            (0, 0, 10, 10), (20, 0, 10, 10), (0, 0, 10, 10), (25, 0, 10, 10)
        )
        got = iou_multimodal(gt, dt)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.6, abs=1e-12)
        # pooled score sits between the per-modality scores
        assert iou(gt.visible, dt.visible) == 1.0
        assert iou(gt.thermal, dt.thermal) == pytest.approx(1.0 / 3.0)
        assert 1.0 / 3.0 <= got <= 1.0

    def test_identity_is_one(self):
        p = PairedBox(Box(1, 2, 8, 16), Box(4, 2, 8, 16))
        assert iou_multimodal(p, p) == 1.0

    def test_degenerates_to_iou_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            a = Box(*(float(v) for v in rng.integers(0, 30, size=2)),
                    *(float(v) for v in rng.integers(0, 20, size=2)))
            b = Box(*(float(v) for v in rng.integers(0, 30, size=2)),
                    *(float(v) for v in rng.integers(0, 20, size=2)))
            assert iou_multimodal(PairedBox.aligned(a), PairedBox.aligned(b)) == iou(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            boxes = random_float_boxes(rng, 4)
            p = PairedBox(Box(*boxes[0]), Box(*boxes[1]))
            q = PairedBox(Box(*boxes[2]), Box(*boxes[3]))
            assert iou_multimodal(p, q) == iou_multimodal(q, p)
            assert iou(p.visible, q.visible) == iou(q.visible, p.visible)

    def test_mediant_bounds(self):
        rng = np.random.default_rng(13)
        n = 20000
        av, at = random_float_boxes(rng, n, max_size=30.0), random_float_boxes(rng, n, max_size=30.0)
        bv, bt = random_float_boxes(rng, n, max_size=30.0), random_float_boxes(rng, n, max_size=30.0)
        # keep per-modality unions positive
        for arr in (av, at, bv, bt):
            arr[:, 2:] += 0.5
        m = iou_multimodal_elementwise(av, at, bv, bt)
        v = iou_elementwise(av, bv)
        t = iou_elementwise(at, bt)
        lo = np.minimum(v, t)
        hi = np.maximum(v, t)
        assert int(np.count_nonzero(m < lo)) == 0
        assert int(np.count_nonzero(m > hi)) == 0

    def test_translation_invariance_integer_domain(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            a = Box(*(float(v) for v in rng.integers(-20, 20, size=2)),
                    *(float(v) for v in rng.integers(0, 15, size=2)))
            b = Box(*(float(v) for v in rng.integers(-20, 20, size=2)),
                    *(float(v) for v in rng.integers(0, 15, size=2)))
            dx, dy = (int(v) for v in rng.integers(-50, 50, size=2))
            assert iou(a.translate(dx, dy), b.translate(dx, dy)) == iou(a, b)

    def test_translation_invariance_float_domain(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            boxes = random_float_boxes(rng, 2)
            a, b = Box(*boxes[0]), Box(*boxes[1])
            dx, dy = rng.uniform(-100, 100, size=2)
            assert iou(a.translate(dx, dy), b.translate(dx, dy)) == pytest.approx(
                iou(a, b), abs=1e-12
            )

    def test_range_is_unit_interval(self):
        rng = np.random.default_rng(23)
        av, at = random_float_boxes(rng, 5000), random_float_boxes(rng, 5000)
        bv, bt = random_float_boxes(rng, 5000), random_float_boxes(rng, 5000)
        m = iou_multimodal_elementwise(av, at, bv, bt)
        assert float(m.min()) >= 0.0
        assert float(m.max()) <= 1.0


class TestArrayHelpers:
    def test_array_functions_are_the_kernels(self):
        assert iou_matrix is _kernels.iou_matrix
        assert iou_multimodal_matrix is _kernels.ioum_matrix
        assert iou_elementwise is _kernels.iou_elementwise
        assert iou_multimodal_elementwise is _kernels.ioum_elementwise

    def test_pairs_round_trip(self):
        pairs = [
            PairedBox(Box(0, 0, 4, 5), Box(1, 0, 4, 5)),
            PairedBox(Box(9, 9, 1, 1), Box(9, 9, 1, 1)),
        ]
        v, t = pairs_to_arrays(pairs)
        assert v.shape == (2, 4)
        assert t[0, 0] == 1.0

    def test_matrix_matches_scalar(self):
        """All four array kernels equal the scalar formulas in every cell."""
        rng = np.random.default_rng(29)
        for make in (random_float_boxes, edge_case_boxes, small_int_boxes):
            av, at, bv, bt = (make(rng, n) for n in (40, 40, 25, 25))
            # every 4th b box touches its a box: visible on the right, thermal below
            bv[::4, :2] = av[:25:4, :2]
            bv[::4, 0] += av[:25:4, 2]
            bt[::4, :2] = at[:25:4, :2]
            bt[::4, 1] += at[:25:4, 3]
            a_pairs = [PairedBox(Box(*v), Box(*t)) for v, t in zip(av, at)]
            b_pairs = [PairedBox(Box(*v), Box(*t)) for v, t in zip(bv, bt)]
            mat = iou_matrix(av, bv)
            mat_m = iou_multimodal_matrix(av, at, bv, bt)
            for i, p in enumerate(a_pairs):
                for j, q in enumerate(b_pairs):
                    assert mat[i, j] == iou(p.visible, q.visible)
                    assert mat_m[i, j] == iou_multimodal(p, q)
            row = iou_elementwise(av[:25], bv)
            row_m = iou_multimodal_elementwise(av[:25], at[:25], bv, bt)
            for k, (p, q) in enumerate(zip(a_pairs, b_pairs)):
                assert row[k] == iou(p.visible, q.visible)
                assert row_m[k] == iou_multimodal(p, q)

    def test_empty_inputs(self):
        empty = np.zeros((0, 4))
        some = np.array([[0.0, 0, 5, 5]])
        assert iou_matrix(empty, some).shape == (0, 1)
        assert iou_matrix(some, empty).shape == (1, 0)
        assert iou_multimodal_matrix(empty, empty, some, some).shape == (0, 1)
        assert iou_multimodal_matrix(some, some, empty, empty).shape == (1, 0)
