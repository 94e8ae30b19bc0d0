import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairbox.geometry import Box, PairedBox
from pairbox.pairnms import Detection, paired_nms

from oracles import naive_iou, naive_nms


def det(v, t, score, class_id=0):
    return Detection(PairedBox(Box(*v), Box(*t)), score, class_id)


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
        kept = paired_nms([d1, d2], iou_thresh=0.5)
        assert kept == [d1]
        assert kept[0].pair.visible == Box(0, 0, 10, 10)

    def test_disjoint_thermal_identical_visible_both_kept(self):
        d1 = det((0, 0, 10, 10), (0, 0, 10, 10), 0.9)
        d2 = det((0, 0, 10, 10), (100, 0, 10, 10), 0.8)
        kept = paired_nms([d1, d2], iou_thresh=0.3)
        assert kept == [d1, d2]

    def test_projection_onto_thermal_reference(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            dets = random_scene(rng, int(rng.integers(0, 40)))
            thresh = float(rng.choice([0.3, 0.5, 0.7]))
            kept = paired_nms(dets, thresh)
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
            once = paired_nms(dets, 0.5)
            twice = paired_nms(once, 0.5)
            assert twice == once

    def test_output_subset_unmodified_and_sorted(self):
        rng = np.random.default_rng(73)
        dets = random_scene(rng, 30)
        kept = paired_nms(dets, 0.4)
        assert all(k in dets for k in kept)
        scores = [k.score for k in kept]
        assert scores == sorted(scores, reverse=True)

    def test_kept_pairwise_thermal_iou_below_thresh(self):
        rng = np.random.default_rng(79)
        dets = random_scene(rng, 50)
        thresh = 0.45
        kept = paired_nms(dets, thresh)
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                ov = naive_iou(kept[i].pair.thermal.as_tuple(), kept[j].pair.thermal.as_tuple())
                assert ov <= thresh + 1e-12

    def test_tie_broken_by_input_index(self):
        d1 = det((0, 0, 10, 10), (0, 0, 10, 10), 0.5)
        d2 = det((1, 0, 10, 10), (1, 0, 10, 10), 0.5)
        kept = paired_nms([d1, d2], iou_thresh=0.5)
        assert kept == [d1]

    def test_exactly_threshold_survives(self):
        # thermal IoU of the two boxes is exactly 20/40 = 0.5
        d1 = det((0, 0, 30, 10), (0, 0, 30, 10), 0.9)
        d2 = det((0, 0, 30, 10), (10, 0, 30, 10), 0.8)
        assert len(paired_nms([d1, d2], iou_thresh=0.5)) == 2
        assert len(paired_nms([d1, d2], iou_thresh=0.49)) == 1

    def test_max_keep_truncates(self):
        dets = [det((i * 50, 0, 10, 10), (i * 50, 0, 10, 10), 0.1 * (i + 1)) for i in range(5)]
        kept = paired_nms(dets, 0.5, max_keep=2)
        assert [k.score for k in kept] == [0.5, 0.4]

    def test_classes_suppressed_independently(self):
        d1 = det((0, 0, 10, 10), (0, 0, 10, 10), 0.9, class_id=0)
        d2 = det((0, 0, 10, 10), (0, 0, 10, 10), 0.8, class_id=1)
        kept = paired_nms([d1, d2], iou_thresh=0.5)
        assert kept == [d1, d2]

    def test_empty_input(self):
        assert paired_nms([], 0.5) == []

    def test_invalid_score_rejected(self):
        with pytest.raises(ValueError):
            det((0, 0, 1, 1), (0, 0, 1, 1), 1.5)
        with pytest.raises(ValueError):
            det((0, 0, 1, 1), (0, 0, 1, 1), float("nan"))

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            paired_nms([], iou_thresh=1.2)


class TestPairedNmsProperties:
    @settings(derandomize=True, deadline=None)
    @given(
        dets=st.lists(
            st.tuples(
                st.tuples(*(st.integers(0, 6),) * 2, *(st.integers(0, 4),) * 2),
                st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                st.integers(0, 2),
            ),
            max_size=12,
        ),
        thresh=st.one_of(st.sampled_from([0.0, 1 / 3, 0.5, 1.0]), st.floats(0.0, 1.0)),
        max_keep=st.one_of(st.none(), st.integers(0, 8)),
    )
    def test_equals_per_class_naive_nms(self, dets, thresh, max_keep):
        # the visible box is a fixed offset of the thermal one: only thermal decides
        inputs = [det((x + 40, y, w, h), (x, y, w, h), s, c) for (x, y, w, h), s, c in dets]
        got = paired_nms(inputs, thresh, max_keep)
        kept = []
        for c in {c for _, _, c in dets}:
            members = [i for i, d in enumerate(dets) if d[2] == c]
            local = naive_nms([dets[i][0] for i in members], [dets[i][1] for i in members], thresh)
            kept += [members[k] for k in local]
        kept = sorted(kept, key=lambda i: (-dets[i][1], i))[:max_keep]
        assert [id(d) for d in got] == [id(inputs[i]) for i in kept]
