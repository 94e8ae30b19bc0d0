import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairbox.geometry import Box, PairedBox, iou_multimodal_matrix, pairs_to_arrays
from pairbox.sampling import (
    IGNORE,
    NEGATIVE,
    POSITIVE,
    AssignmentConfig,
    assign_detector,
    assign_rpn,
    MAX_ANCHORS,
    generate_anchor_grid,
    sample_minibatch,
)

from oracles import loop_best_anchor_per_gt, naive_anchor_grid, naive_iou


def aligned(x, y, w, h):
    return PairedBox.aligned(Box(x, y, w, h))


# aligned pairs whose IoU against aligned((0, 0, w, 10)) is exactly the
# stated ratio: offsetting an equal-size box by dx gives (w - dx) / (w + dx)
def offset_pair(w, dx):
    return aligned(dx, 0, w, 10), aligned(0, 0, w, 10)


class TestRpnAssignment:
    def test_threshold_bands(self):
        # anchors spatially separated so each overlaps exactly one GT, at
        # exact ratios 14/20 = 0.70, 20/40 = 0.50, 10/50 = 0.20
        anchors = [
            aligned(3, 0, 17, 10),
            aligned(110, 0, 30, 10),
            aligned(220, 0, 30, 10),
        ]
        gts = [
            aligned(0, 0, 17, 10),
            aligned(100, 0, 30, 10),
            aligned(200, 0, 30, 10),
        ]
        res = assign_rpn(pairs_to_arrays(anchors), pairs_to_arrays(gts))
        np.testing.assert_array_equal(res.max_ioum, [0.7, 0.5, 0.2])
        assert res.labels.tolist() == [POSITIVE, IGNORE, NEGATIVE]
        assert res.matched_gt.tolist() == [0, -1, -1]

    def test_exact_boundaries_are_ignore(self):
        # 126/200 = 0.63 and 30/100 = 0.30, both landing exactly on a threshold
        anchors = [aligned(37, 0, 163, 10), aligned(503.5, 0, 6.5, 10)]
        gts = [aligned(0, 0, 163, 10), aligned(500, 0, 6.5, 10)]
        res = assign_rpn(pairs_to_arrays(anchors), pairs_to_arrays(gts))
        np.testing.assert_array_equal(res.max_ioum, [0.63, 0.3])
        assert res.labels.tolist() == [IGNORE, IGNORE]

    def test_no_gts_all_negative(self):
        anchors = [aligned(0, 0, 10, 10), aligned(5, 5, 4, 4)]
        # with rpn_neg_thresh == 0 the general rule would label a 0 overlap IGNORE
        for cfg in (AssignmentConfig(), AssignmentConfig(rpn_neg_thresh=0.0)):
            res = assign_rpn(pairs_to_arrays(anchors), pairs_to_arrays([]), cfg)
            assert res.labels.tolist() == [NEGATIVE, NEGATIVE]
            np.testing.assert_array_equal(res.max_ioum, [0.0, 0.0])
            assert res.matched_gt.tolist() == [-1, -1]

    def test_gt_permutation_keeps_labels(self):
        rng = np.random.default_rng(47)
        anchors = [
            aligned(float(rng.integers(0, 120)), float(rng.integers(0, 120)), 20, 40)
            for _ in range(60)
        ]
        gts = [
            aligned(float(rng.integers(0, 120)), float(rng.integers(0, 120)), 20, 40)
            for _ in range(6)
        ]
        base = assign_rpn(pairs_to_arrays(anchors), pairs_to_arrays(gts))
        perm = [4, 2, 0, 5, 1, 3]
        shuffled = assign_rpn(pairs_to_arrays(anchors), pairs_to_arrays([gts[i] for i in perm]))
        np.testing.assert_array_equal(base.labels, shuffled.labels)
        np.testing.assert_array_equal(base.max_ioum, shuffled.max_ioum)

    def test_argmax_tie_breaks_to_lowest_gt_index(self):
        anchor = aligned(0, 0, 10, 10)
        gt = aligned(2, 0, 10, 10)
        res = assign_rpn(pairs_to_arrays([anchor]), pairs_to_arrays([gt, gt]), AssignmentConfig(rpn_pos_thresh=0.5))
        assert res.labels[0] == POSITIVE
        assert res.matched_gt[0] == 0

    def test_degenerates_to_single_modality_assignment(self):
        rng = np.random.default_rng(53)
        boxes_a = [(float(x), float(y), 25.0, 50.0)
                   for x, y in rng.integers(0, 200, size=(80, 2))]
        boxes_g = [(float(x), float(y), 25.0, 50.0)
                   for x, y in rng.integers(0, 200, size=(8, 2))]
        anchors = [aligned(*b) for b in boxes_a]
        gts = [aligned(*b) for b in boxes_g]
        cfg = AssignmentConfig()
        res = assign_rpn(pairs_to_arrays(anchors), pairs_to_arrays(gts), cfg)
        for i, a in enumerate(boxes_a):
            best = max(naive_iou(a, g) for g in boxes_g)
            if best > cfg.rpn_pos_thresh:
                expected = POSITIVE
            elif best < cfg.rpn_neg_thresh:
                expected = NEGATIVE
            else:
                expected = IGNORE
            assert res.labels[i] == expected

    def test_forced_best_anchor_per_gt(self):
        anchors = [aligned(0, 0, 30, 10), aligned(100, 100, 5, 5)]
        gts = [aligned(12, 0, 30, 10)]  # best anchor overlap 18/42 < pos thresh
        off = assign_rpn(pairs_to_arrays(anchors), pairs_to_arrays(gts), AssignmentConfig())
        assert off.labels[0] == IGNORE
        on = assign_rpn(pairs_to_arrays(anchors), pairs_to_arrays(gts), AssignmentConfig(match_best_anchor_per_gt=True))
        assert on.labels[0] == POSITIVE
        assert on.matched_gt[0] == 0
        assert on.labels[1] == NEGATIVE


# integer boxes on a small grid, zero extents allowed, so that tied overlaps, GTs
# sharing a best anchor and GTs no anchor overlaps (all-zero columns) come up often
_grid_box = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 5), st.integers(0, 5))
_grid_pairs = st.lists(st.tuples(_grid_box, _grid_box), max_size=10)


def _as_arrays(pairs):
    """(visible, thermal) (N, 4) arrays of ``(v, t)`` box tuples."""
    return tuple(np.array([pair[m] for pair in pairs], dtype=np.float64).reshape(-1, 4)
                 for m in (0, 1))


def _same(*box):
    return box, box


class TestBestAnchorPerGt:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(anchors=_grid_pairs, gts=_grid_pairs, neg=st.sampled_from([0.0, 0.3]))
    @example(anchors=[], gts=[_same(0, 0, 2, 2)], neg=0.3)  # no anchors
    @example(anchors=[_same(0, 0, 2, 2)], gts=[], neg=0.3)  # no GTs
    # a tie between anchors 0 and 1, shared by two GTs, and a GT that overlaps nothing
    @example(anchors=[_same(0, 0, 4, 4), _same(0, 0, 4, 4), _same(20, 20, 4, 4)],
             gts=[_same(1, 0, 4, 4), _same(0, 1, 4, 4), _same(40, 40, 2, 2)], neg=0.3)
    def test_equals_the_per_gt_loop(self, anchors, gts, neg):
        a, g = _as_arrays(anchors), _as_arrays(gts)
        cfg = AssignmentConfig(rpn_neg_thresh=neg)
        plain = assign_rpn(a, g, cfg)
        forced = assign_rpn(a, g, replace(cfg, match_best_anchor_per_gt=True))
        expected = loop_best_anchor_per_gt(plain.labels, iou_multimodal_matrix(*a, *g))
        np.testing.assert_array_equal(forced.labels, expected)
        np.testing.assert_array_equal(forced.max_ioum, plain.max_ioum)

    def test_tied_best_anchor_goes_to_the_lowest_index(self):
        # both GTs overlap anchors 0 and 1 at 12/20 = 0.6, between the thresholds
        anchors = _as_arrays([_same(0, 0, 4, 4), _same(0, 0, 4, 4), _same(20, 20, 4, 4)])
        gts = _as_arrays([_same(1, 0, 4, 4), _same(0, 1, 4, 4), _same(40, 40, 2, 2)])
        res = assign_rpn(anchors, gts, AssignmentConfig(match_best_anchor_per_gt=True))
        assert res.labels.tolist() == [POSITIVE, IGNORE, NEGATIVE]
        assert res.matched_gt.tolist() == [0, -1, -1]


class TestDetectorAssignment:
    def test_threshold_bands(self):
        rois = [
            aligned(9, 0, 31, 10),     # 22/40 = 0.55 vs gt at 0
            aligned(103.5, 0, 6.5, 10),  # 3/10 = 0.30 vs gt at 100
            aligned(219, 0, 21, 10),   # 2/40 = 0.05 vs gt at 200
        ]
        gts = [
            aligned(0, 0, 31, 10),
            aligned(100, 0, 6.5, 10),
            aligned(200, 0, 21, 10),
        ]
        res = assign_detector(pairs_to_arrays(rois), pairs_to_arrays(gts))
        np.testing.assert_array_equal(res.max_ioum, [0.55, 0.3, 0.05])
        assert res.labels.tolist() == [POSITIVE, NEGATIVE, IGNORE]
        assert res.matched_gt.tolist() == [0, -1, -1]

    def test_exact_positive_boundary_inclusive(self):
        roi, gt = offset_pair(30, 10)  # exactly 0.50
        res = assign_detector(pairs_to_arrays([roi]), pairs_to_arrays([gt]))
        assert res.labels[0] == POSITIVE

    def test_exact_negative_floor_inclusive(self):
        # 20/200: boxes (0,0,110,10) and (90,0,110,10) -> 200/2000 = 0.1
        roi = aligned(90, 0, 110, 10)
        gt = aligned(0, 0, 110, 10)
        res = assign_detector(pairs_to_arrays([roi]), pairs_to_arrays([gt]))
        assert res.max_ioum[0] == 0.1
        assert res.labels[0] == NEGATIVE

    def test_no_gts(self):
        res = assign_detector(pairs_to_arrays([aligned(0, 0, 10, 10)]), pairs_to_arrays([]))
        assert res.labels[0] == IGNORE  # 0 overlap sits below the negative band
        res_lo0 = assign_detector(
            pairs_to_arrays([aligned(0, 0, 10, 10)]), pairs_to_arrays([]), AssignmentConfig(det_neg_lo=0.0)
        )
        assert res_lo0.labels[0] == NEGATIVE

    def test_partition_is_exhaustive(self):
        rng = np.random.default_rng(59)
        rois = [
            aligned(float(x), float(y), 20, 45)
            for x, y in rng.integers(0, 150, size=(100, 2))
        ]
        gts = [aligned(float(x), float(y), 20, 45) for x, y in rng.integers(0, 150, size=(5, 2))]
        res = assign_detector(pairs_to_arrays(rois), pairs_to_arrays(gts))
        assert set(res.labels.tolist()) <= {POSITIVE, NEGATIVE, IGNORE}
        assert res.labels.shape == (100,)


class TestConfigValidation:
    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            AssignmentConfig(rpn_neg_thresh=0.7, rpn_pos_thresh=0.6)
        with pytest.raises(ValueError):
            AssignmentConfig(det_neg_lo=0.5, det_neg_hi=0.5)
        with pytest.raises(ValueError):
            AssignmentConfig(det_pos_thresh=0.4)  # below det_neg_hi


class TestMinibatch:
    def _result(self, n_pos, n_neg):
        from pairbox.sampling import AssignmentResult

        labels = np.array([POSITIVE] * n_pos + [NEGATIVE] * n_neg, dtype=np.int8)
        return AssignmentResult(
            labels=labels,
            matched_gt=np.full(labels.size, -1, dtype=np.int64),
            max_ioum=np.zeros(labels.size),
        )

    def test_scarce_positives_filled_with_negatives(self):
        res = self._result(10, 1000)
        sel = sample_minibatch(res, batch=256, pos_fraction=0.5, rng=0)
        labels = res.labels[sel]
        assert sel.size == 256
        assert int(np.count_nonzero(labels == POSITIVE)) == 10
        assert int(np.count_nonzero(labels == NEGATIVE)) == 246

    def test_balanced_batch(self):
        res = self._result(500, 500)
        sel = sample_minibatch(res, batch=256, pos_fraction=0.5, rng=1)
        labels = res.labels[sel]
        assert int(np.count_nonzero(labels == POSITIVE)) == 128
        assert int(np.count_nonzero(labels == NEGATIVE)) == 128

    def test_deterministic_under_seed(self):
        res = self._result(40, 400)
        a = sample_minibatch(res, batch=64, pos_fraction=0.25, rng=7)
        b = sample_minibatch(res, batch=64, pos_fraction=0.25, rng=7)
        np.testing.assert_array_equal(a, b)

    def test_no_candidates_gives_an_empty_batch(self):
        res = self._result(0, 0)
        sel = sample_minibatch(res, batch=8, pos_fraction=0.5, rng=0)
        assert sel.size == 0 and sel.dtype == np.int64

    def test_size_and_positive_caps(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            n_pos = int(rng.integers(0, 50))
            n_neg = int(rng.integers(0, 50))
            if n_pos + n_neg == 0:
                continue
            batch = int(rng.integers(1, 64))
            frac = float(rng.uniform(0.05, 0.95))
            res = self._result(n_pos, n_neg)
            sel = sample_minibatch(res, batch=batch, pos_fraction=frac, rng=int(rng.integers(1 << 30)))
            assert sel.size <= batch
            # the documented rule: int(batch * frac) positives at most, negatives fill the rest
            n_sel_pos = int(np.count_nonzero(res.labels[sel] == POSITIVE))
            assert n_sel_pos == min(n_pos, int(batch * frac))
            assert sel.size == n_sel_pos + min(n_neg, batch - n_sel_pos)
            assert np.unique(sel).size == sel.size

    def test_batch_beyond_the_largest_float_is_refused(self):
        res = self._result(4, 4)
        largest = int(sys.float_info.max)
        assert sample_minibatch(res, batch=largest, pos_fraction=0.5, rng=0).size == 8
        for batch in (largest + 1, 10**400):
            with pytest.raises(ValueError, match="largest float"):
                sample_minibatch(res, batch=batch, pos_fraction=0.5, rng=0)

    def test_requires_seed(self):
        res = self._result(4, 4)
        with pytest.raises(ValueError):
            sample_minibatch(res, batch=4, pos_fraction=0.5, rng=None)


class TestAnchorGrid:
    def test_identical_pairs_and_count(self):
        visible, thermal = generate_anchor_grid(64, 32, stride=16, heights=(50.0, 100.0))
        assert visible.shape == thermal.shape == (4 * 2 * 2, 4)
        assert visible.dtype == thermal.dtype == np.float64
        np.testing.assert_array_equal(visible, thermal)

    def test_geometry(self):
        visible, _ = generate_anchor_grid(16, 16, stride=16, heights=(100.0,), aspect=0.5)
        assert len(visible) == 1
        box = Box(*visible[0])
        assert box.center == (8.0, 8.0)
        assert box.w == 50.0
        assert box.h == 100.0

    @pytest.mark.parametrize("width, height, stride, heights", [
        (640, 512, 16.0, (50.0, 100.0, 200.0)),
        (100, 77, 7.3, (50.0, 100.0, 200.0)),
        (95.5, 61.25, 7.3, (33.3, 71.7)),
        (50, 50, 2.9, (12.1,)),
        (64, 32, 16, (50, 100)),  # integer stride and heights
    ])
    def test_equals_scalar_grid_bit_for_bit(self, width, height, stride, heights):
        visible, thermal = generate_anchor_grid(width, height, stride, heights, aspect=0.41)
        expected = np.array(naive_anchor_grid(width, height, stride, heights, 0.41)).reshape(-1, 4)
        for got in (visible, thermal):
            np.testing.assert_array_equal(got, expected)
            assert got.tobytes() == expected.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_anchor_grid(0, 32)
        with pytest.raises(ValueError):
            generate_anchor_grid(64, 32, heights=(0.0,))

    @pytest.mark.filterwarnings("error")  # an overflow is refused, not warned about
    @pytest.mark.parametrize("kwargs, message", [
        ({"heights": (float("nan"),)}, "positive"),
        ({"heights": (50.0, 1e200)}, "1e100"),
        ({"aspect": float("nan")}, "positive"),
        ({"aspect": 1e300}, "1e100"),
        ({"aspect": 1e308}, "1e100"),  # an infinite width
        ({"stride": float("nan")}, "positive"),
        ({"image_width": float("nan")}, "positive"),
    ])
    def test_fields_a_box_refuses_are_refused(self, kwargs, message):
        args = {"image_width": 64, "image_height": 32, **kwargs}
        with pytest.raises(ValueError, match=message):
            generate_anchor_grid(**args)

    @pytest.mark.filterwarnings("error")
    def test_oversized_grid_refused_before_building(self):
        # 640 x 512 cells at a 1-px stride: 983,040 anchors with three heights, over with four
        assert 640 * 512 * 3 <= MAX_ANCHORS < 640 * 512 * 4
        with pytest.raises(ValueError, match="anchor grid"):
            generate_anchor_grid(640, 512, stride=1.0, heights=(1.0, 2.0, 3.0, 4.0))
        for stride in (0.001, 1e-300, 1e-320):  # 1e-320 makes the cell counts infinite
            with pytest.raises(ValueError, match="anchor grid"):
                generate_anchor_grid(640, 512, stride=stride)
        # infinitely many columns times no row: a NaN count
        with pytest.raises(ValueError, match="anchor grid of nan anchors"):
            generate_anchor_grid(1e308, 1e-10, stride=1e-9)
