from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairbox._kernels import _python
from pairbox.geometry import Box, PairedBox
from pairbox.pairnms import Detection, paired_nms

from oracles import naive_iou, naive_nms, walk_nms_keep
from scenes import nms_detections


def det(v, t, score):
    return Detection(PairedBox(Box(*v), Box(*t)), score)


def random_scene(rng, n):
    dets = []
    for _ in range(n):
        vx, vy = rng.uniform(0, 200, size=2)
        tx, ty = vx + rng.uniform(-15, 15), vy
        w, h = rng.uniform(5, 60), rng.uniform(10, 90)
        score = float(np.round(rng.uniform(0, 1), 2))  # coarse scores force ties
        dets.append(det((vx, vy, w, h), (tx, ty, w, h), score))
    return dets


class TestPairedNms:
    def test_identical_thermal_boxes_keep_best(self):
        d1 = det((0, 0, 10, 10), (50, 0, 10, 10), 0.9)
        d2 = det((100, 0, 10, 10), (50, 0, 10, 10), 0.8)
        kept = nms_detections([d1, d2], iou_thresh=0.5)
        assert kept == [d1]
        assert kept[0].pair.visible == Box(0, 0, 10, 10)

    def test_disjoint_thermal_identical_visible_both_kept(self):
        d1 = det((0, 0, 10, 10), (0, 0, 10, 10), 0.9)
        d2 = det((0, 0, 10, 10), (100, 0, 10, 10), 0.8)
        kept = nms_detections([d1, d2], iou_thresh=0.3)
        assert kept == [d1, d2]

    def test_projection_onto_thermal_reference(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            dets = random_scene(rng, int(rng.integers(0, 40)))
            thresh = float(rng.choice([0.3, 0.5, 0.7]))
            kept = nms_detections(dets, thresh)
            expected_idx = naive_nms(
                [d.pair.thermal.as_tuple() for d in dets],
                [d.score for d in dets],
                thresh,
            )
            got = [d.pair.thermal.as_tuple() for d in kept]
            expected = [dets[i].pair.thermal.as_tuple() for i in expected_idx]
            assert sorted(got) == sorted(expected)

    def test_idempotent(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            dets = random_scene(rng, int(rng.integers(0, 30)))
            once = nms_detections(dets, 0.5)
            twice = nms_detections(once, 0.5)
            assert twice == once

    def test_output_subset_unmodified_and_sorted(self):
        rng = np.random.default_rng(73)
        dets = random_scene(rng, 30)
        kept = nms_detections(dets, 0.4)
        assert all(k in dets for k in kept)
        scores = [k.score for k in kept]
        assert scores == sorted(scores, reverse=True)

    def test_kept_pairwise_thermal_iou_below_thresh(self):
        rng = np.random.default_rng(79)
        dets = random_scene(rng, 50)
        thresh = 0.45
        kept = nms_detections(dets, thresh)
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                ov = naive_iou(kept[i].pair.thermal.as_tuple(), kept[j].pair.thermal.as_tuple())
                assert ov <= thresh + 1e-12

    def test_tie_broken_by_input_index(self):
        d1 = det((0, 0, 10, 10), (0, 0, 10, 10), 0.5)
        d2 = det((1, 0, 10, 10), (1, 0, 10, 10), 0.5)
        kept = nms_detections([d1, d2], iou_thresh=0.5)
        assert kept == [d1]

    def test_exactly_threshold_survives(self):
        # thermal IoU of the two boxes is exactly 20/40 = 0.5
        d1 = det((0, 0, 30, 10), (0, 0, 30, 10), 0.9)
        d2 = det((0, 0, 30, 10), (10, 0, 30, 10), 0.8)
        assert len(nms_detections([d1, d2], iou_thresh=0.5)) == 2
        assert len(nms_detections([d1, d2], iou_thresh=0.49)) == 1

    def test_max_keep_truncates(self):
        dets = [det((i * 50, 0, 10, 10), (i * 50, 0, 10, 10), 0.1 * (i + 1)) for i in range(5)]
        kept = nms_detections(dets, 0.5, max_keep=2)
        assert [k.score for k in kept] == [0.5, 0.4]

    def test_empty_input(self):
        assert nms_detections([], 0.5) == []

    def test_invalid_score_rejected(self):
        with pytest.raises(ValueError):
            det((0, 0, 1, 1), (0, 0, 1, 1), 1.5)
        with pytest.raises(ValueError):
            det((0, 0, 1, 1), (0, 0, 1, 1), float("nan"))

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            nms_detections([], iou_thresh=1.2)


class TestPairedNmsArrays:
    def test_returns_kept_row_indices_by_descending_score(self):
        thermal = np.array([[0, 0, 10, 10], [1, 0, 10, 10], [50, 0, 10, 10]], dtype=np.float64)
        keep = paired_nms(thermal, [0.5, 0.9, 0.7], 0.5)
        assert keep.dtype == np.int64
        assert keep.tolist() == [1, 2]

    def test_empty_columns(self):
        assert paired_nms(np.zeros((0, 4)), [], 0.5).tolist() == []

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            paired_nms(np.zeros((2, 4)), [0.5], 0.5)


class TestPairedNmsProperties:
    @settings(derandomize=True, deadline=None)
    @given(
        dets=st.lists(
            st.tuples(
                st.tuples(*(st.integers(0, 6),) * 2, *(st.integers(0, 4),) * 2),
                st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
            ),
            max_size=12,
        ),
        thresh=st.one_of(st.sampled_from([0.0, 1 / 3, 0.5, 1.0]), st.floats(0.0, 1.0)),
        max_keep=st.one_of(st.none(), st.integers(0, 8)),
    )
    def test_equals_naive_nms(self, dets, thresh, max_keep):
        # the visible box is a fixed offset of the thermal one: only thermal decides
        inputs = [det((x + 40, y, w, h), (x, y, w, h), s) for (x, y, w, h), s in dets]
        got = nms_detections(inputs, thresh, max_keep)
        kept = naive_nms([box for box, _ in dets], [s for _, s in dets], thresh)[:max_keep]
        assert [id(d) for d in got] == [id(inputs[i]) for i in kept]


class TestBlockedNmsKeep:
    """``nms_keep``'s blocked suppression rows against the one-box walk."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        boxes=st.lists(
            # small integer boxes: zero extents, touching edges and duplicates are common
            st.tuples(*(st.integers(0, 6),) * 2, *(st.integers(0, 4),) * 2),
            max_size=200,
        ),
        scores=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=200, max_size=200),
        thresh=st.one_of(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0]), st.floats(0.0, 1.0)),
        budget=st.one_of(st.integers(1, 64), st.just(_python.CELL_BUDGET)),
    )
    def test_equals_walk(self, boxes, scores, thresh, budget):
        # a budget of a few cells makes one-row blocks and ragged partial
        # ones; the full budget makes 64-row blocks with a short last one
        boxes = np.array(boxes, dtype=np.float64).reshape(-1, 4)
        order = np.argsort(-np.array(scores[:len(boxes)]), kind="stable")  # tied scores
        with patch.object(_python, "CELL_BUDGET", budget):
            got = _python.nms_keep(boxes, order, thresh)
        expected = walk_nms_keep(boxes, order, thresh)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)

    def test_iou_equal_to_thresh_is_not_suppressed(self):
        boxes = np.array([[0, 0, 30, 10], [10, 0, 30, 10], [0, 0, 30, 10]], dtype=np.float64)
        # rows 0 and 1 overlap by exactly 20/40; row 2 duplicates row 0
        assert _python.nms_keep(boxes, [0, 1, 2], 0.5).tolist() == [0, 1]
        assert _python.nms_keep(boxes, [0, 1, 2], 1.0).tolist() == [0, 1, 2]

    def test_overlap_passes_stay_within_the_cell_budget(self, monkeypatch):
        rng = np.random.default_rng(5)
        boxes = np.column_stack([rng.uniform(0, 600, (3000, 2)), rng.uniform(5, 80, (3000, 2))])
        order = np.argsort(-rng.uniform(size=3000), kind="stable")
        shapes = []
        inter_union = _python._inter_union

        def recorded(a, b):
            shapes.append(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
            return inter_union(a, b)

        monkeypatch.setattr(_python, "_inter_union", recorded)
        keep = _python.nms_keep(boxes, order, 0.5)
        monkeypatch.undo()
        np.testing.assert_array_equal(keep, walk_nms_keep(boxes, order, 0.5))
        assert shapes and max(rows for rows, _ in shapes) > 1
        for rows, cols in shapes:
            assert rows * cols <= _python.CELL_BUDGET or rows == 1
