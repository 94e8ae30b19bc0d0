import io
import math
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairbox import evaluation
from pairbox.cli import render_curve_svg
from pairbox.evaluation import (
    DET_FP,
    DET_IGNORED,
    DET_TP,
    DEFAULT_FPPI_REFS,
    CurvePoint,
    VARIANTS,
    DetectionTable,
    EvalConfig,
    EvalEntry,
    EvalReport,
    EvaluationError,
    FrameAnnotations,
    FrameDetections,
    GtObject,
    GtTable,
    evaluate,
    filter_reasonable,
    log_average_miss_rate,
    match_frame,
    miss_rate_curve,
    write_curve_csv,
)
from pairbox.geometry import (
    Box,
    PairedBox,
    iou,
    iou_matrix,
    iou_multimodal_matrix,
    pairs_to_arrays,
)
from pairbox.pairnms import Detection

from oracles import (
    best_assignment_tp_count,
    curve_from_points,
    geometric_mean,
    naive_curve,
    naive_greedy_match,
    naive_iou,
    naive_log_average_miss_rate,
)
from scenes import (
    FOUR_FRAME_CURVE,
    FOUR_FRAME_LAMR,
    det_at,
    four_frame_fixture,
    gt,
    perfect_detections,
    table_frames,
)


def match_objects(dets, gts, variant, thresh):
    """``match_frame`` on one frame of Detection and GtObject objects, packed
    into arrays the way ``evaluate`` packs a frame."""
    dv, dt = pairs_to_arrays([d.pair for d in dets])
    gv, gt_ = pairs_to_arrays([g.pair for g in gts])
    overlaps = {
        "visible": lambda: iou_matrix(dv, gv),
        "thermal": lambda: iou_matrix(dt, gt_),
        "multimodal": lambda: iou_multimodal_matrix(dv, dt, gv, gt_),
    }[variant]()
    scores = np.array([d.score for d in dets], dtype=np.float64)
    evaluable = np.array([not g.ignore for g in gts], dtype=bool)
    return match_frame(scores, overlaps, evaluable, thresh)


def reasonable_frames(frames, min_height: float = 55.0):
    """``frames`` with the ignore flags ``filter_reasonable`` gives them."""
    table = GtTable.from_frames(frames)
    ignore = filter_reasonable(table, min_height)
    return table_frames(GtTable(table.frame_ids, table.offsets, table.rows, table.occ, ignore))


class TestFilterReasonable:
    def test_height_and_occlusion_rules(self):
        frames = [
            FrameAnnotations(
                0,
                (
                    gt(0, 0, h=56),                      # evaluable
                    gt(100, 0, h=40),                    # too short
                    gt(200, 0, h=100, occlusion="heavy"),  # heavily occluded
                    gt(300, 0, h=100, occlusion="partial"),  # evaluable
                ),
            )
        ]
        flags = filter_reasonable(GtTable.from_frames(frames), min_height=55).tolist()
        # objects are kept as ignore regions, not dropped
        assert flags == [False, True, True, False]

    def test_exactly_cutoff_height_ignored(self):
        frames = [FrameAnnotations(0, (gt(0, 0, h=55),))]
        assert filter_reasonable(GtTable.from_frames(frames), min_height=55).tolist() == [True]

    def test_height_measured_on_selected_modality(self):
        short, tall = Box(0, 0, 20, 40), Box(0, 0, 20, 80)
        frames = [FrameAnnotations(0, (GtObject(PairedBox(short, tall)),
                                       GtObject(PairedBox(tall, short))))]
        # the thermal box decides, whatever the visible box's height
        assert filter_reasonable(GtTable.from_frames(frames)).tolist() == [False, True]

    def test_existing_ignore_preserved(self):
        frames = [FrameAnnotations(0, (GtObject(PairedBox.aligned(Box(0, 0, 20, 90)), ignore=True),))]
        assert filter_reasonable(GtTable.from_frames(frames)).tolist() == [True]

    def test_bad_occlusion_rejected(self):
        with pytest.raises(ValueError):
            GtObject(PairedBox.aligned(Box(0, 0, 1, 1)), occlusion="total")


class TestMatchFrame:
    def test_clean_hit(self):
        gts = [gt(0, 0)]
        dets = [det_at(0, 0, 0.9)]
        m = match_objects(dets, gts, "multimodal", 0.5)
        assert m.det_outcomes.tolist() == [DET_TP]
        assert m.det_matched_gt.tolist() == [0]
        assert m.gt_detected.tolist() == [True]

    def test_below_threshold_is_fp_and_miss(self):
        # overlap 0.45 < 0.5: same-size boxes 20x60 offset to give 0.45
        # (w - dx)/(w + dx) = 0.45 -> dx = 11w/29; use exact construction instead:
        # boxes (0,0,29,10) and (11,0,29,10): inter 180, union 580-180=400 -> 0.45
        gts = [gt(0, 0, w=29, h=60)]
        dets = [det_at(11, 0, 0.9, w=29, h=60)]
        got = iou(gts[0].pair.visible, dets[0].pair.visible)
        assert got == pytest.approx(0.45)
        m = match_objects(dets, gts, "visible", 0.5)
        assert m.det_outcomes.tolist() == [DET_FP]
        assert m.gt_detected.tolist() == [False]

    def test_greedy_one_to_one(self):
        gts = [gt(0, 0)]
        dets = [det_at(0, 0, 0.9), det_at(1, 0, 0.8)]
        m = match_objects(dets, gts, "multimodal", 0.5)
        assert m.det_outcomes.tolist() == [DET_TP, DET_FP]
        # the brute-force optimal assignment also matches exactly one
        overlaps = np.array(
            [[iou(d.pair.visible, g.pair.visible) for g in gts] for d in dets]
        )
        assert best_assignment_tp_count(overlaps, 0.5) == 1

    def test_ignore_region_absorbs(self):
        gts = [gt(0, 0, occlusion="heavy")]
        gts = reasonable_frames([FrameAnnotations(0, tuple(gts))])[0].objects
        dets = [det_at(0, 0, 0.9)]
        m = match_objects(dets, gts, "multimodal", 0.5)
        assert m.det_outcomes.tolist() == [DET_IGNORED]
        assert m.n_evaluable == 0

    def test_evaluable_match_takes_precedence_over_ignore(self):
        gts = (gt(0, 0), GtObject(PairedBox.aligned(Box(0, 0, 20, 60)), ignore=True))
        dets = [det_at(0, 0, 0.9)]
        m = match_objects(dets, gts, "multimodal", 0.5)
        assert m.det_outcomes.tolist() == [DET_TP]
        assert m.det_matched_gt.tolist() == [0]

    def test_second_detection_takes_next_best_gt(self):
        gts = [gt(0, 0), gt(8, 0)]
        dets = [det_at(0, 0, 0.9), det_at(2, 0, 0.8)]
        m = match_objects(dets, gts, "visible", 0.3)
        assert m.det_outcomes.tolist() == [DET_TP, DET_TP]
        assert m.det_matched_gt.tolist() == [0, 1]

    def test_empty_inputs(self):
        m = match_objects([], [gt(0, 0)], "multimodal", 0.5)
        assert m.n_evaluable == 1
        assert m.gt_detected.tolist() == [False]
        m2 = match_objects([det_at(0, 0, 0.5)], [], "multimodal", 0.5)
        assert m2.det_outcomes.tolist() == [DET_FP]

    def test_overlap_shape_must_match_frame(self):
        with pytest.raises(ValueError, match="shape"):
            match_frame(np.array([0.9, 0.8]), np.zeros((2, 1)), np.array([True, False]), 0.5)
        with pytest.raises(ValueError, match="shape"):
            match_frame(np.array([0.9]), np.zeros((0, 0)), np.zeros(0, dtype=bool), 0.5)

    @pytest.mark.parametrize("thresh", [0.0, 1.5, -0.1, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, thresh):
        with pytest.raises(ValueError):
            match_objects([det_at(0, 0, 0.9)], [gt(0, 0)], "multimodal", thresh)


# integer-grid boxes and a coarse score set make score ties common; drawing the
# boxes of a frame from a small pool makes overlap ties common, and drawing the
# threshold from the frame's own overlaps puts overlaps exactly at it
grid_box = st.tuples(*(st.integers(0, 3),) * 2, *(st.integers(1, 3),) * 2)
grid_score = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def grid_frame(draw):
    pool = st.sampled_from(draw(st.lists(grid_box, min_size=1, max_size=4)))
    dets = draw(st.lists(st.tuples(pool, pool, grid_score), max_size=8))
    gts = draw(st.lists(st.tuples(pool, pool, st.booleans()), max_size=5))
    exact = sorted({naive_iou(d[k], g[k]) for d in dets for g in gts for k in (0, 1)} - {0.0})
    thresh = st.floats(0.0, 1.0, exclude_min=True)
    return dets, gts, draw(st.sampled_from(exact) | thresh if exact else thresh)


class TestMatchFrameProperties:
    @settings(derandomize=True, deadline=None)
    @given(frame=grid_frame(), variant=st.sampled_from(["visible", "thermal", "multimodal"]))
    def test_equals_naive_greedy_match(self, frame, variant):
        dets, gts, thresh = frame
        m = match_objects(
            [Detection(PairedBox(Box(*v), Box(*t)), s) for v, t, s in dets],
            [GtObject(PairedBox(Box(*v), Box(*t)), ignore=ign) for v, t, ign in gts],
            variant,
            thresh,
        )
        outcomes, matched, detected = naive_greedy_match(dets, gts, variant, thresh)
        assert m.det_outcomes.tolist() == outcomes
        assert m.det_matched_gt.tolist() == matched
        assert m.gt_detected.tolist() == detected
        assert m.n_evaluable == sum(not ign for _, _, ign in gts)


@st.composite
def grid_scene(draw):
    """One to four frames of grid boxes from a shared pool, some empty, with
    ignore regions, score ties, and a threshold often equal to an overlap."""
    pool = st.sampled_from(draw(st.lists(grid_box, min_size=1, max_size=4)))
    frames = draw(st.lists(
        st.tuples(st.lists(st.tuples(pool, pool, grid_score), max_size=5),
                  st.lists(st.tuples(pool, pool, st.booleans()), max_size=4)),
        min_size=1, max_size=4,
    ))
    exact = sorted({naive_iou(d[k], g[k]) for dets, gts in frames
                    for d in dets for g in gts for k in (0, 1)} - {0.0})
    thresh = st.floats(0.0, 1.0, exclude_min=True)
    return frames, draw(st.sampled_from(exact) | thresh if exact else thresh)


class TestCurveProperties:
    @settings(derandomize=True, deadline=None)
    @given(scene=grid_scene(), variant=st.sampled_from(["visible", "thermal", "multimodal"]))
    def test_curve_and_lamr_equal_rematching_oracle(self, scene, variant):
        frames, thresh = scene
        assume(any(not g[2] for _, gts in frames for g in gts))
        anns = [
            FrameAnnotations(f, tuple(
                GtObject(PairedBox(Box(*v), Box(*t)), ignore=ign) for v, t, ign in gts))
            for f, (_, gts) in enumerate(frames)
        ]
        dets = [
            FrameDetections(f, tuple(Detection(PairedBox(Box(*v), Box(*t)), s) for v, t, s in ds))
            for f, (ds, _) in enumerate(frames)
        ]
        config = EvalConfig(iou_thresholds=(thresh,), variants=(variant,), min_height=0.0)
        (entry,) = evaluate(anns, DetectionTable.from_frames(dets), config).entries
        expected = naive_curve(frames, variant, thresh)
        curve = entry.curve
        columns = zip(curve.score_thresh.tolist(), curve.fppi.tolist(), curve.miss_rate.tolist(),
                      curve.tp.tolist(), curve.fp.tolist(), curve.fn.tolist())
        assert list(columns) == expected
        assert curve.points == tuple(CurvePoint(*p) for p in expected)
        assert entry.lamr == naive_log_average_miss_rate(expected, DEFAULT_FPPI_REFS)


@st.composite
def batched_scene(draw):
    """Up to five frames of grid boxes from a shared pool, then a fixed tail:
    two frames of one detection and one GT, a frame of two tied detections on
    two tied evaluable GTs beside an ignore region, a frame without
    detections and one without GTs. Also draws whether the table leaves out
    frames without detections and whether it lists its frames in reverse."""
    boxes = draw(st.lists(grid_box, min_size=1, max_size=4))
    pool = st.sampled_from(boxes)
    frames = draw(st.lists(
        st.tuples(st.lists(st.tuples(pool, pool, grid_score), max_size=6),
                  st.lists(st.tuples(pool, pool, st.booleans()), max_size=4)),
        max_size=5,
    ))
    b = boxes[0]
    frames += [
        ([(b, b, 0.5)], [(b, b, False)]),
        ([(b, b, 0.75)], [(b, b, False)]),
        ([(b, b, 0.25), (b, b, 0.25)], [(b, b, False), (b, b, True), (b, b, False)]),
        ([], [(b, b, False)]),
        ([(b, b, 1.0)], []),
    ]
    return frames, draw(st.booleans()), draw(st.booleans())


class TestBatchedMatching:
    # budget 1 gives every block one detection row; under 3 and 4 the tail's
    # six-cell frame (two detections, three GTs) spans two one-row blocks and
    # one-GT rows share blocks; the last matches every row in one block
    BUDGETS = (1, 3, 4, 1 << 62)
    THRESHOLDS = (0.5, 1.0)

    @settings(derandomize=True, deadline=None)
    @given(scene=batched_scene())
    def test_equals_match_frame_and_rematching_oracle_under_any_budget(self, scene):
        frames, sparse, reverse = scene
        gts = [[GtObject(PairedBox(Box(*v), Box(*t)), ignore=ign) for v, t, ign in g]
               for _, g in frames]
        dets = [[Detection(PairedBox(Box(*v), Box(*t)), s) for v, t, s in d] for d, _ in frames]
        anns = [FrameAnnotations(f, tuple(g)) for f, g in enumerate(gts)]
        listed = [f for f, d in enumerate(dets) if d or not sparse][::-1 if reverse else 1]
        table = DetectionTable.from_frames(FrameDetections(f, tuple(dets[f])) for f in listed)
        table_frame = [listed.index(f) if f in listed else -1 for f in range(len(frames))]
        gt_table = GtTable.from_frames(anns)
        config = EvalConfig(iou_thresholds=self.THRESHOLDS, variants=VARIANTS, min_height=0.0)
        runs, reports = [], []
        for budget in self.BUDGETS:
            with patch.object(evaluation, "_CELL_BUDGET", budget):
                runs.append(evaluation._match_frames(gt_table, gt_table.ignore, table, table_frame,
                                                     VARIANTS, self.THRESHOLDS))
                reports.append(evaluate(anns, table, config))
        scores, n_gt, outcomes = runs[-1]
        assert scores.tolist() == [s for d, _ in frames for *_, s in d]
        assert n_gt == sum(not ign for _, g in frames for *_, ign in g)
        for other_scores, other_n_gt, other in runs[:-1]:
            assert np.array_equal(other_scores, scores) and other_n_gt == n_gt
            for per_thresh, want in zip(other, outcomes):
                assert all(np.array_equal(a, b) for a, b in zip(per_thresh, want))
        starts = np.cumsum([0] + [len(d) for d in dets]).tolist()
        for variant, per_thresh in zip(VARIANTS, outcomes):
            for thresh, out in zip(self.THRESHOLDS, per_thresh):
                for f in range(len(frames)):
                    m = match_objects(dets[f], gts[f], variant, thresh)
                    assert np.array_equal(out[starts[f]:starts[f + 1]], m.det_outcomes)
        for report in reports:
            for entry, want in zip(report.entries, reports[-1].entries):
                for name in ("score_thresh", "fppi", "miss_rate", "tp", "fp", "fn"):
                    assert np.array_equal(getattr(entry.curve, name), getattr(want.curve, name))
                assert entry.lamr == want.lamr
                expected = naive_curve(frames, entry.variant, entry.iou_thresh)
                assert entry.curve.points == tuple(CurvePoint(*p) for p in expected)
                assert entry.lamr == naive_log_average_miss_rate(expected, DEFAULT_FPPI_REFS)

    def test_blocks_close_under_the_cell_budget(self):
        # detections per frame 1, 1, 2, 1, 1 against GTs 1, 1, 3, 1, 2: by
        # descending GT count, the six-cell frame's two rows come first, one
        # per block, then the two-GT row with a one-GT row, then two one-GT rows
        anns = GtTable.from_frames(FrameAnnotations(f, tuple(gt(0.0, 0.0) for _ in range(n)))
                                   for f, n in enumerate((1, 1, 3, 1, 2)))
        table = DetectionTable.from_frames(
            FrameDetections(f, tuple(det_at(0.0, 0.0, 0.5) for _ in range(n)))
            for f, n in enumerate((1, 1, 2, 1, 1)))
        spy = patch.object(evaluation, "_overlaps", wraps=evaluation._overlaps)
        with patch.object(evaluation, "_CELL_BUDGET", 4), spy as overlaps:
            evaluation._match_frames(anns, anns.ignore, table, range(5), ("thermal",), (0.5,))
        assert [len(c.args[0]) for c in overlaps.call_args_list] == [3, 3, 3, 2]

    @pytest.mark.parametrize("n_gt", [200, 400])
    def test_one_large_frame_peaks_under_a_fixed_bound(self, n_gt):
        rng = np.random.default_rng(0)
        boxes = np.column_stack([rng.uniform(0, 600, (4000, 2)), rng.uniform(20, 80, (4000, 2))])
        rows = np.column_stack([boxes, boxes, rng.uniform(0, 1, 4000)])
        table = DetectionTable(["f"], [0, 4000], rows)
        gts = tuple(GtObject(PairedBox(Box(*r), Box(*r))) for r in boxes[:n_gt].tolist())
        anns = [FrameAnnotations("f", gts)]
        tracemalloc.start()
        try:
            evaluate(anns, table, EvalConfig(min_height=0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a bound that does not grow with the GT count: all of the frame's cells
        # at once would take about 234 bytes each, 179 MB at 200 GTs
        assert peak < 64 << 20


class TestMissRateCurve:
    def test_perfect_detector_single_point(self):
        anns, _ = four_frame_fixture()
        anns = reasonable_frames(anns)
        dets = perfect_detections(anns)
        matches = [
            match_objects(d.detections, a.objects, "multimodal", 0.5)
            for a, d in zip(anns, dets)
        ]
        curve = miss_rate_curve(matches)
        assert len(curve.points) == 1
        p = curve.points[0]
        assert (p.fppi, p.miss_rate) == (0.0, 0.0)

    def test_empty_detections_all_miss(self):
        anns, _ = four_frame_fixture()
        anns = reasonable_frames(anns)
        matches = [match_objects([], a.objects, "multimodal", 0.5) for a in anns]
        curve = miss_rate_curve(matches)
        assert len(curve.points) == 1
        p = curve.points[0]
        assert (p.fppi, p.miss_rate) == (0.0, 1.0)

    def test_four_frame_fixture_matches_hand_enumeration(self):
        anns, dets = four_frame_fixture()
        report = evaluate(anns, DetectionTable.from_frames(dets))
        for variant in ("visible", "thermal", "multimodal"):
            for thresh in (0.5, 0.7):
                curve = report.entry(variant, thresh).curve
                got = [(p.score_thresh, p.fppi, p.miss_rate) for p in curve.points]
                for (gs, gf, gm), (es, ef, em) in zip(got, FOUR_FRAME_CURVE):
                    assert gs == es
                    assert gf == pytest.approx(ef, abs=1e-12)
                    assert gm == pytest.approx(em, abs=1e-12)
                assert report.lamr(variant, thresh) == pytest.approx(FOUR_FRAME_LAMR, abs=1e-12)

    def test_zero_evaluable_gts_raises(self):
        frames = [FrameAnnotations(0, (gt(0, 0, h=30),))]
        frames = reasonable_frames(frames)
        matches = [match_objects([], f.objects, "multimodal", 0.5) for f in frames]
        with pytest.raises(EvaluationError):
            miss_rate_curve(matches)

    def test_tp_plus_fn_constant(self):
        anns, dets = four_frame_fixture()
        report = evaluate(anns, DetectionTable.from_frames(dets))
        for e in report.entries:
            for p in e.curve.points:
                assert p.tp + p.fn == e.curve.n_evaluable

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(83)
        anns, dets = _random_scene(rng, 30, peds=3, noise=4.0, fp_per_frame=1.0)
        report = evaluate(anns, DetectionTable.from_frames(dets))
        for e in report.entries:
            fppis = [p.fppi for p in e.curve.points]
            misses = [p.miss_rate for p in e.curve.points]
            assert fppis == sorted(fppis)
            assert misses == sorted(misses, reverse=True)


class TestLogAverageMissRate:
    def _curve(self, pts):
        points = tuple(CurvePoint(s, f, m, 0, 0, 0) for s, f, m in pts)
        return curve_from_points(points, n_frames=1, n_evaluable=1)

    def test_constant_curve_returns_constant(self):
        curve = self._curve([(1.0, 1.0, 0.37)])
        assert log_average_miss_rate(curve) == pytest.approx(0.37, abs=1e-15)

    def test_perfect_detector_is_zero(self):
        curve = self._curve([(1.0, 0.0, 0.0)])
        assert log_average_miss_rate(curve) == 0.0

    def test_mixed_step_curve(self):
        # samples 0.25 at the five refs <= 0.1 and 1.0 at the last four
        curve = self._curve([(0.9, 0.004, 0.25), (0.5, 0.15, 1.0)])
        expected = 0.25 ** (5.0 / 9.0)
        got = log_average_miss_rate(curve)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(
            geometric_mean([0.25] * 5 + [1.0] * 4), abs=1e-12
        )

    def test_refs_below_smallest_fppi_use_first_point(self):
        curve = self._curve([(0.9, 0.5, 0.4), (0.5, 0.55, 0.2)])
        # the seven refs below 0.5 clamp to the smallest achieved fppi;
        # refs 0.562 and 1.0 step onto the 0.55 point
        sampled = [0.4] * 7 + [0.2] * 2
        assert log_average_miss_rate(curve) == pytest.approx(
            geometric_mean(sampled), abs=1e-12
        )

    def test_fppi_beyond_all_refs_never_sampled(self):
        curve = self._curve([(0.9, 0.5, 0.4), (0.5, 2.0, 0.2)])
        assert log_average_miss_rate(curve) == pytest.approx(0.4, abs=1e-12)

    def test_empty_curve_raises(self):
        with pytest.raises(EvaluationError):
            log_average_miss_rate(curve_from_points((), 1, 1))

    def test_duplicate_fppi_takes_latest_point(self):
        curve = self._curve([(0.9, 0.0, 0.8), (0.8, 0.5, 0.8), (0.7, 0.5, 0.4)])
        # at fppi 0.5 the later (lower-threshold) point wins
        sampled = [0.8] * 7 + [0.4] * 2
        assert log_average_miss_rate(curve) == pytest.approx(
            geometric_mean(sampled), abs=1e-12
        )


def _random_scene(rng, n_frames, peds=2, noise=0.0, fp_per_frame=0.0, dx_thermal=0.0):
    annotations = []
    detections = []
    for f in range(n_frames):
        objects = []
        dets = []
        for _ in range(int(rng.integers(0, peds + 1))):
            x = float(rng.uniform(30, 500))
            y = float(rng.uniform(30, 300))
            objects.append(gt(x, y, w=24, h=70, dx_thermal=dx_thermal))
            jitter = float(rng.normal(0, noise))
            dets.append(det_at(x + jitter, y, float(rng.uniform(0.3, 1.0)), w=24, h=70))
        for _ in range(rng.poisson(fp_per_frame)):
            dets.append(
                det_at(float(rng.uniform(0, 600)), float(rng.uniform(0, 400)),
                       float(rng.uniform(0.05, 0.6)), w=24, h=70)
            )
        annotations.append(FrameAnnotations(f, tuple(objects)))
        detections.append(FrameDetections(f, tuple(dets)))
    # guarantee at least one evaluable object overall
    if not any(fr.objects for fr in annotations):
        annotations[0] = FrameAnnotations(0, (gt(100, 100, w=24, h=70),))
    return annotations, detections


class TestEvaluate:
    def test_gt_as_detections_is_zero_everywhere(self):
        anns, _ = four_frame_fixture()
        report = evaluate(anns, DetectionTable.from_frames(perfect_detections(anns)))
        assert len(report.entries) == 6
        for e in report.entries:
            assert e.lamr == 0.0

    def test_thermal_shift_degrades_thermal_not_visible(self):
        # thermal GT shifted +20, detections aligned to visible, 30 px boxes:
        # IoU_v = 1, IoU_t = 10/50 = 0.2, pooled = 40/80 = 0.5
        anns = [FrameAnnotations(0, (gt(100, 100, w=30, h=60, dx_thermal=20),))]
        dets = [FrameDetections(0, (det_at(100, 100, 1.0, w=30, h=60),))]
        report = evaluate(anns, DetectionTable.from_frames(dets))
        assert report.lamr("visible", 0.5) == 0.0
        assert report.lamr("visible", 0.7) == 0.0
        assert report.lamr("thermal", 0.5) == 1.0
        assert report.lamr("thermal", 0.7) == 1.0
        assert report.lamr("multimodal", 0.5) == 0.0  # exactly at the inclusive threshold
        assert report.lamr("multimodal", 0.7) == 1.0

    def test_aligned_modalities_give_identical_rows(self):
        rng = np.random.default_rng(89)
        anns, dets = _random_scene(rng, 40, peds=3, noise=5.0, fp_per_frame=0.7)
        report = evaluate(anns, DetectionTable.from_frames(dets))
        for thresh in (0.5, 0.7):
            e_v = report.entry("visible", thresh)
            e_t = report.entry("thermal", thresh)
            e_m = report.entry("multimodal", thresh)
            assert e_v.curve.points == e_t.curve.points == e_m.curve.points
            assert e_v.lamr == e_t.lamr == e_m.lamr

    def test_unknown_frame_id_rejected_with_ids(self):
        anns, dets = four_frame_fixture()
        bad = dets + [FrameDetections("ghost", ())]
        with pytest.raises(EvaluationError, match="ghost"):
            evaluate(anns, DetectionTable.from_frames(bad))

    def test_duplicate_detection_frames_rejected(self):
        anns, dets = four_frame_fixture()
        with pytest.raises(EvaluationError):
            evaluate(anns, DetectionTable.from_frames(dets + [dets[0]]))

    def test_matches_per_threshold_rematching(self):
        # one-pass matching + score sweep == literal re-matching per threshold
        rng = np.random.default_rng(97)
        anns, dets = _random_scene(rng, 25, peds=3, noise=6.0, fp_per_frame=1.0)
        config = EvalConfig(variants=("multimodal",))
        report = evaluate(anns, DetectionTable.from_frames(dets), config)
        filtered = reasonable_frames(anns)
        det_map = {d.frame_id: d.detections for d in dets}
        for e in report.entries:
            for p in e.curve.points:
                tp = fp = fn = 0
                for frame in filtered:
                    frame_dets = [
                        d for d in det_map.get(frame.frame_id, ())
                        if d.score >= p.score_thresh
                    ]
                    m = match_objects(frame_dets, frame.objects, e.variant, e.iou_thresh)
                    tp += int(np.count_nonzero(m.det_outcomes == DET_TP))
                    fp += int(np.count_nonzero(m.det_outcomes == DET_FP))
                    fn += m.n_evaluable - int(np.count_nonzero(m.gt_detected))
                assert (tp, fp, fn) == (p.tp, p.fp, p.fn)

    def test_low_score_distant_fp_only_extends_curve(self):
        anns, dets = four_frame_fixture()
        config = EvalConfig(variants=("multimodal",), iou_thresholds=(0.5,))
        base = evaluate(anns, DetectionTable.from_frames(dets), config)
        extra = list(dets)
        extra[3] = FrameDetections(
            "f4", extra[3].detections + (det_at(600, 400, 0.01),)
        )
        bumped = evaluate(anns, DetectionTable.from_frames(extra), config)
        b_pts = base.entries[0].curve.points
        x_pts = bumped.entries[0].curve.points
        assert x_pts[: len(b_pts)] == b_pts
        assert len(x_pts) == len(b_pts) + 1
        assert x_pts[-1].miss_rate == b_pts[-1].miss_rate
        assert x_pts[-1].fppi > b_pts[-1].fppi

    def test_frame_order_invariance(self):
        rng = np.random.default_rng(101)
        anns, dets = _random_scene(rng, 20, peds=2, noise=5.0, fp_per_frame=0.5)
        base = evaluate(anns, DetectionTable.from_frames(dets))
        perm = rng.permutation(len(anns))
        shuffled = evaluate([anns[i] for i in perm],
                            DetectionTable.from_frames(dets[i] for i in perm))
        for e1, e2 in zip(base.entries, shuffled.entries):
            assert e1.lamr == e2.lamr
            assert e1.curve.points == e2.curve.points

    def test_within_frame_detection_order_invariance(self):
        # with distinct scores the score sort makes input order irrelevant
        rng = np.random.default_rng(113)
        anns, dets = _random_scene(rng, 15, peds=3, noise=5.0, fp_per_frame=1.0)
        base = evaluate(anns, DetectionTable.from_frames(dets))
        reordered = [
            FrameDetections(
                fd.frame_id,
                tuple(fd.detections[i] for i in rng.permutation(len(fd.detections))),
            )
            for fd in dets
        ]
        again = evaluate(anns, DetectionTable.from_frames(reordered))
        for e1, e2 in zip(base.entries, again.entries):
            assert e1.lamr == e2.lamr
            assert e1.curve.points == e2.curve.points

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(iou_thresholds=())
        with pytest.raises(ValueError):
            EvalConfig(iou_thresholds=(0.0,))
        with pytest.raises(ValueError):
            EvalConfig(variants=("multispectral",))
        for bad in (math.nan, -1.0, math.inf):
            with pytest.raises(ValueError, match="min_height"):
                EvalConfig(min_height=bad)
        assert EvalConfig(min_height=0).min_height == 0

    @pytest.mark.parametrize("kwargs, name", [
        ({"iou_thresholds": (0.5, 0.7, 0.5)}, "iou_thresholds"),
        ({"variants": ("thermal", "thermal")}, "variants"),
    ])
    def test_config_refuses_a_repeated_value(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must not repeat a value"):
            EvalConfig(**kwargs)


class TestDetectionTable:
    def _frames(self):
        pair = PairedBox(Box(1, 2, 3, 4), Box(1.5, 2, 3, 4))
        return [
            FrameDetections("a", (Detection(pair, 0.5), det_at(0, 0, 1.0))),
            FrameDetections(7, ()),
            FrameDetections("a", (det_at(9, 9, 0.25),)),
        ]

    def test_round_trips_frames_and_is_re_iterable(self):
        frames = self._frames()
        table = DetectionTable.from_frames(frames)
        assert len(table) == 3
        assert list(table) == frames
        assert list(table) == frames  # a second pass sees the same frames
        assert table[-1] == frames[-1]
        assert table.frame_ids == ["a", 7, "a"]  # duplicates kept for evaluate to refuse
        assert table.offsets.tolist() == [0, 2, 2, 3]
        with pytest.raises(IndexError):
            table[3]

    def test_empty(self):
        table = DetectionTable.from_frames([])
        assert len(table) == 0 and list(table) == []
        assert table.v.shape == table.t.shape == (0, 4)

    def test_columns_must_agree_with_offsets(self):
        with pytest.raises(ValueError, match="offsets"):
            DetectionTable(["a"], [0, 2], np.full((1, 9), 0.5))

    @pytest.mark.parametrize("column", ["v", "t"])
    @pytest.mark.parametrize("field, value", [
        (0, math.nan), (1, math.inf), (0, -math.inf), (2, -1.0), (1, 2e100),
    ])
    def test_box_outside_the_row_bounds_refused_in_box_words(self, column, field, value):
        row = [1.0, 2.0, 3.0, 4.0]
        columns = {"v": np.array([row] * 3), "t": np.array([row] * 3)}
        columns[column][2, field] = value
        bad = columns[column][2].tolist()
        with pytest.raises(ValueError) as box_error:
            Box(*bad)
        with pytest.raises(ValueError) as table_error:
            DetectionTable(["a", "b"], [0, 1, 3], np.hstack([columns["v"], columns["t"], [[0.5]] * 3]))
        assert str(table_error.value) == str(box_error.value)

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf, -1.0, 2e100, 1.5])
    def test_score_outside_the_unit_interval_refused(self, score):
        boxes = np.ones((3, 4))
        with pytest.raises(ValueError, match=re.escape(
                f"score must be a finite value in [0, 1], got {score!r}")):
            DetectionTable(["a", "b"], [0, 1, 3], np.hstack([boxes, boxes, [[0.5], [1.0], [score]]]))

    def test_bad_visible_box_refused_before_bad_thermal_box_and_score(self):
        rows = np.ones((3, 9)) * 0.5
        rows[2, 0], rows[0, 6], rows[0, 8] = math.nan, -1.0, 2.0
        with pytest.raises(ValueError, match="box field 'x'"):
            DetectionTable(["a"], [0, 3], rows)
        rows[2, 0] = 0.5
        with pytest.raises(ValueError, match="box extents"):
            DetectionTable(["a"], [0, 3], rows)
        rows[0, 6] = 0.5
        with pytest.raises(ValueError, match="score"):
            DetectionTable(["a"], [0, 3], rows)

    def test_columns_are_views_of_the_rows(self):
        table = DetectionTable.from_frames(self._frames())
        assert table.rows.shape == (3, 9)
        for column, cut in ((table.v, np.s_[:, 0:4]), (table.t, np.s_[:, 4:8]),
                            (table.score, np.s_[:, 8])):
            assert np.shares_memory(column, table.rows)
            assert np.array_equal(column, table.rows[cut])

    def test_bound_edges_accepted(self):
        v = np.array([[-1e100, 1e100, 0.0, 1e100], [-0.0, 0.0, -0.0, 0.0]])
        table = DetectionTable([0], [0, 2], np.hstack([v, v[::-1], [[0.0], [1.0]]]))
        assert table.score.tolist() == [0.0, 1.0]

    def test_take_selects_rows_per_frame(self):
        frames = self._frames()
        table = DetectionTable.from_frames(frames)
        kept = table.take([np.array([1, 0]), np.array([], dtype=np.int64), np.array([2])])
        assert kept.frame_ids == table.frame_ids
        assert list(kept) == [
            FrameDetections("a", frames[0].detections[::-1]), frames[1], frames[2],
        ]
        assert len(table.take([np.zeros(0, dtype=np.int64)] * 3).score) == 0
        with pytest.raises(ValueError, match="offsets"):
            table.take([np.array([0])])  # one row list per frame

    def test_duplicate_ids_in_a_table_rejected(self):
        anns, _ = four_frame_fixture()
        table = DetectionTable.from_frames([FrameDetections("f1", ()), FrameDetections("f1", ())])
        with pytest.raises(EvaluationError, match="duplicate detection entries for frame 'f1'"):
            evaluate(anns, table)


class TestCsvExport:
    def test_golden_output(self):
        anns, dets = four_frame_fixture()
        config = EvalConfig(variants=("multimodal",), iou_thresholds=(0.5,))
        report = evaluate(anns, DetectionTable.from_frames(dets), config)
        buf = io.StringIO()
        write_curve_csv(report, buf)
        expected = (
            "variant,iou_thresh,score_thresh,fppi,miss_rate\n"
            "multimodal,0.5,0.9,0,0.666666667\n"
            "multimodal,0.5,0.8,0.25,0.666666667\n"
            "multimodal,0.5,0.7,0.25,0.333333333\n"
            "multimodal,0.5,0.6,0.25,0.333333333\n"
            "multimodal,0.5,0.5,0.5,0.333333333\n"
        )
        assert buf.getvalue() == expected


class TestDistinctValueFormatting:
    def test_csv_and_svg_equal_per_value_formatting(self):
        """Each distinct value is formatted once; the text must still equal
        formatting every value, with -0.0 kept apart from 0.0, values one ulp
        apart, and values repeated within and across entries."""
        up = float(np.nextafter(0.1, 1.0))
        rows = [
            [(0.9, 0.0, 1.0), (0.5, -0.0, 0.5), (0.1, 0.1, up), (-0.0, up, 0.1), (0.0, 0.1, 0.0)],
            [(up, 0.1, -0.0), (0.1, 2.5, 0.1), (0.0, 1e-4, 0.0), (0.0, 20.0, 1.0)],
        ]
        entries = tuple(
            EvalEntry(variant, thresh, curve_from_points(
                [CurvePoint(s, f, m, 0, 0, 0) for s, f, m in points], 1, 1), 0.5)
            for variant, thresh, points in zip(("visible", "multimodal"), (0.5, 0.7), rows)
        )
        report = EvalReport(entries)
        buf = io.StringIO()
        write_curve_csv(report, buf)
        assert buf.getvalue() == "variant,iou_thresh,score_thresh,fppi,miss_rate\n" + "".join(
            f"{e.variant},{e.iou_thresh:.9g},{s:.9g},{f:.9g},{m:.9g}\n"
            for e, points in zip(entries, rows) for s, f, m in points
        )

        def svg_x(fppi):
            lo, hi = math.log10(1e-3), math.log10(10.0)
            return 60 + (math.log10(min(max(fppi, 1e-3), 10.0)) - lo) / (hi - lo) * 560

        polylines = re.findall(r'<polyline points="([^"]*)"', render_curve_svg(report))
        assert polylines == [
            " ".join(f"{svg_x(f):.2f},{20 + (1.0 - m) * 410:.2f}" for _, f, m in points)
            for points in rows
        ]
