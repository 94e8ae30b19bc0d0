import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairbox import simulation
from pairbox.evaluation import (
    DetectionTable,
    EvalConfig,
    FrameAnnotations,
    GtObject,
    evaluate,
)
from pairbox.geometry import Box, PairedBox
from pairbox.simulation import (
    MockDetectorSpec,
    SceneSpec,
    ShiftSpec,
    apply_shift,
    generate_scene,
    mock_detect,
)

from oracles import naive_generate_scene, shift_box
from scenes import gt, gt_table


def thermal_after(frames, dx, width=640.0):
    """The thermal column block of ``frames`` shifted by ``dx``."""
    return apply_shift(gt_table(frames), ShiftSpec(dx, image_width=width)).t.tolist()


class TestApplyShift:
    def test_zero_shift_is_identity(self):
        frames = [FrameAnnotations(0, (gt(100, 50, w=30, h=60),))]
        table = gt_table(frames)
        assert apply_shift(table, ShiftSpec(0.0)) is table
        assert list(apply_shift(table, ShiftSpec(-0.0))) == frames

    def test_pure_translation(self):
        frames = [FrameAnnotations(0, (gt(100, 50, w=30, h=60),))]
        out = apply_shift(gt_table(frames), ShiftSpec(-20.0))
        assert out.t.tolist() == [[80, 50, 30, 60]]
        assert out.v.tolist() == [[100, 50, 30, 60]]

    def test_clipping_at_right_border(self):
        frames = [FrameAnnotations(0, (gt(630, 50, w=30, h=60),))]
        assert thermal_after(frames, 20.0, width=640.0) == [[640, 50, 0, 60]]

    def test_partial_clip_at_left_border(self):
        frames = [FrameAnnotations(0, (gt(5, 0, w=30, h=60),))]
        assert thermal_after(frames, -15.0) == [[0, 0, 20, 60]]

    def test_round_trip_without_clipping(self):
        rng = np.random.default_rng(103)
        frames = []
        for f in range(20):
            objects = tuple(
                gt(float(x), float(y), w=30, h=60)
                for x, y in rng.integers(50, 500, size=(3, 2))
            )
            frames.append(FrameAnnotations(f, objects))
        for dx in (5.0, 12.0, 20.0):
            back = apply_shift(apply_shift(gt_table(frames), ShiftSpec(dx)), ShiftSpec(-dx))
            assert list(back) == frames

    def test_only_thermal_x_changes(self):
        frames = [FrameAnnotations("a", (gt(100, 30, w=30, h=70, dx_thermal=4),))]
        before = gt_table(frames)
        after = apply_shift(before, ShiftSpec(7.0))
        assert after.v.tolist() == before.v.tolist()
        assert after.t[:, 1:].tolist() == before.t[:, 1:].tolist()
        assert after.t[0, 0] == before.t[0, 0] + 7.0
        assert after.occ.tolist() == before.occ.tolist()
        assert after.ignore.tolist() == before.ignore.tolist()
        assert after.frame_ids == ["a"]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ShiftSpec(640.0, image_width=640.0)
        with pytest.raises(ValueError):
            ShiftSpec(float("nan"))
        with pytest.raises(ValueError):
            ShiftSpec(0.0, image_width=0.0)


@st.composite
def shift_case(draw):
    """An image width, a nonzero shift and thermal boxes whose shifted edges
    often land exactly on 0 or on the width, or outside the image, with
    zero and -0.0 coordinates and extents."""
    width = draw(st.sampled_from([640.0, 7.5]) | st.floats(1.0, 1e6))
    dx = draw(st.floats(-width, width, exclude_min=True, exclude_max=True).filter(bool))
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        w = draw(st.sampled_from([0.0, -0.0, 1.0, width]) | st.floats(0.0, 2 * width))
        x = draw(st.sampled_from([-dx, width - dx, -dx - w, width - dx - w, -0.0, 0.0])
                 | st.floats(-2 * width, 2 * width))
        boxes.append((x, draw(st.sampled_from([-0.0, 3.0])), w, draw(st.sampled_from([-0.0, 9.0]))))
    return width, dx, boxes


class TestShiftArithmetic:
    """The column shift against the scalar one it replaced, bit for bit."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(case=shift_case())
    def test_equals_scalar_shift_box(self, case):
        width, dx, boxes = case
        objects = tuple(GtObject(PairedBox(Box(3.0, 4.0, 5.0, 6.0), Box(*b))) for b in boxes)
        table = gt_table([FrameAnnotations(0, objects)])
        shifted = apply_shift(table, ShiftSpec(dx, image_width=width))
        want = np.array([shift_box(Box(*b), dx, width).as_tuple() for b in boxes])
        assert shifted.t.tobytes() == want.tobytes()  # float bits, so -0.0 != 0.0
        assert shifted.v.tobytes() == table.v.tobytes()

    def test_clip_ties_keep_the_value_as_python_does(self):
        # max(v, 0.0) and min(v, width) keep v on a tie; np.maximum and
        # np.minimum keep their second argument. No tie reaches apply_shift:
        # x + dx is -0.0 only if both are, and a zero shift returns first
        v = np.array([-0.0, 0.0])
        assert np.maximum(0.0, v).tobytes() == np.array([max(x, 0.0) for x in v.tolist()]).tobytes()
        assert np.minimum(-0.0, v).tobytes() == np.array([min(x, -0.0) for x in v.tolist()]).tobytes()


SCENES = [
    SceneSpec(num_frames=0),
    SceneSpec(num_frames=5, peds_per_frame=0.0),
    SceneSpec(num_frames=40, peds_per_frame=3.0, misalign_range=(-3.0, 3.0), seed=1),
    SceneSpec(num_frames=30, fixed_width=30.0, misalign_range=(-6.0, 6.0), seed=13),
    SceneSpec(num_frames=30, width_over_height=0.6, seed=2),
    SceneSpec(num_frames=30, peds_per_frame=4.0, x_margin=50.0, image_width=800.0,
              image_height=600.0, height_range=(40.0, 200.0), seed=9),
    SceneSpec(num_frames=25, misalign_range=(-1e100, 1e100), seed=4),
    SceneSpec(num_frames=5, misalign_range=(1e100, 1e100), seed=4),
    *(SceneSpec(num_frames=20, peds_per_frame=2.5, misalign_range=(-6.0, 6.0), seed=s)
      for s in (3, 77, 2**40)),
]


class TestGenerateScene:
    @pytest.mark.parametrize("spec", SCENES, ids=range(len(SCENES)))
    def test_rows_equal_the_object_generator(self, spec):
        table, frames = generate_scene(spec), naive_generate_scene(spec)
        assert list(table) == frames
        assert table.rows.tobytes() == gt_table(frames).rows.tobytes()
        assert not table.occ.any() and not table.ignore.any()
        assert (table.meta.image_width, table.meta.image_height) == (spec.image_width,
                                                                     spec.image_height)

    def test_peak_memory_per_pedestrian_is_bounded(self):
        spec = SceneSpec(num_frames=20000, peds_per_frame=3, seed=1)
        tracemalloc.start()
        try:
            table = generate_scene(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the rows take 64 bytes a pedestrian; box objects took about 600
        assert len(table.rows) == 59980
        assert peak < 300 * len(table.rows)

    def test_deterministic_under_seed(self):
        spec = SceneSpec(num_frames=30, seed=7, misalign_range=(-4.0, 4.0))
        assert list(generate_scene(spec)) == list(generate_scene(spec))

    def test_different_seeds_differ(self):
        a = generate_scene(SceneSpec(num_frames=30, seed=1))
        b = generate_scene(SceneSpec(num_frames=30, seed=2))
        assert list(a) != list(b)

    def test_zero_misalignment_aligns_pairs(self):
        frames = generate_scene(SceneSpec(num_frames=50, seed=3))
        n_objects = 0
        for frame in frames:
            for obj in frame.objects:
                assert obj.pair.visible == obj.pair.thermal
                n_objects += 1
        assert n_objects > 0

    def test_offset_statistics_match_distribution(self):
        spec = SceneSpec(
            num_frames=1000, peds_per_frame=2.0, misalign_range=(-5.0, 5.0), seed=11
        )
        frames = generate_scene(spec)
        offsets = np.array(
            [
                obj.pair.thermal.x - obj.pair.visible.x
                for frame in frames
                for obj in frame.objects
            ]
        )
        assert offsets.size > 500
        # |U(-5, 5)| has mean 2.5 and std sqrt(25/3 - 6.25)
        mean_abs = float(np.abs(offsets).mean())
        sigma = math.sqrt(25.0 / 3.0 - 6.25) / math.sqrt(offsets.size)
        assert abs(mean_abs - 2.5) < 3.0 * sigma

    def test_objects_satisfy_invariants(self):
        spec = SceneSpec(num_frames=40, seed=13, fixed_width=30.0, misalign_range=(-6.0, 6.0))
        for frame in generate_scene(spec):
            for obj in frame.objects:
                assert obj.pair.visible.w == 30.0
                assert spec.height_range[0] <= obj.pair.visible.h <= spec.height_range[1]
                assert obj.pair.visible.x >= spec.x_margin
                assert not obj.ignore

    def test_degenerate_height_range_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(num_frames=1, height_range=(80.0, 80.0))
        with pytest.raises(ValueError):
            SceneSpec(num_frames=1, height_range=(0.0, 80.0))

    def test_other_validation(self):
        with pytest.raises(ValueError):
            SceneSpec(num_frames=-1)
        with pytest.raises(ValueError):
            SceneSpec(num_frames=1, misalign_range=(5.0, -5.0))
        with pytest.raises(ValueError):
            SceneSpec(num_frames=1, x_margin=320.0)

    def test_more_draws_than_the_limit_rejected(self):
        limit = simulation.MAX_DRAWS
        SceneSpec(num_frames=limit, peds_per_frame=1.0)
        SceneSpec(num_frames=1, peds_per_frame=float(limit))
        for frames, peds in ((limit + 1, 0.0), (1, 1e12), (1000, limit / 999)):
            with pytest.raises(ValueError, match="limit"):
                SceneSpec(num_frames=frames, peds_per_frame=peds)


class TestMockDetect:
    def test_more_false_positives_than_the_limit_rejected_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew before refusing")

        monkeypatch.setattr(simulation, "_frame_rng", no_draws)
        frames = gt_table(FrameAnnotations(f, ()) for f in range(4))
        with pytest.raises(ValueError, match="limit"):
            mock_detect(frames, MockDetectorSpec(fp_per_frame=simulation.MAX_DRAWS / 3.5))
        with pytest.raises(AssertionError):  # at the limit it draws
            mock_detect(frames, MockDetectorSpec(fp_per_frame=simulation.MAX_DRAWS / 4))

    def test_exact_detector_gives_zero_miss_rate(self):
        frames = generate_scene(SceneSpec(num_frames=60, seed=17))
        dets = mock_detect(frames, MockDetectorSpec(mode="paired", seed=5))
        report = evaluate(frames, dets)
        for e in report.entries:
            assert e.lamr == 0.0

    def test_single_box_on_shifted_scene_misses_thermal(self):
        frames = generate_scene(SceneSpec(num_frames=50, seed=19, fixed_width=30.0))
        shifted = apply_shift(frames, ShiftSpec(20.0))
        dets = mock_detect(shifted, MockDetectorSpec(mode="single_box", seed=5))
        report = evaluate(shifted, dets, EvalConfig(variants=("thermal", "multimodal")))
        # thermal overlap is 10/50 = 0.2 for every object
        assert report.lamr("thermal", 0.5) == 1.0
        assert report.lamr("multimodal", 0.7) == 1.0

    def test_paired_on_shifted_scene_stays_perfect(self):
        frames = generate_scene(SceneSpec(num_frames=50, seed=19, fixed_width=30.0))
        shifted = apply_shift(frames, ShiftSpec(20.0))
        dets = mock_detect(shifted, MockDetectorSpec(mode="paired", seed=5))
        report = evaluate(shifted, dets, EvalConfig(variants=("multimodal",)))
        assert report.lamr("multimodal", 0.5) == 0.0
        assert report.lamr("multimodal", 0.7) == 0.0

    def test_deterministic_under_seed(self):
        frames = generate_scene(SceneSpec(num_frames=20, seed=23))
        spec = MockDetectorSpec(
            mode="paired", center_noise_sigma=2.0, size_noise_sigma=0.05,
            miss_prob=0.1, fp_per_frame=0.5, score_noise_sigma=0.02, seed=29,
        )
        first, second = mock_detect(frames, spec), mock_detect(frames, spec)
        assert list(first) == list(second)
        for column in ("v", "t", "score", "offsets"):
            assert np.array_equal(getattr(first, column), getattr(second, column))

    def test_emits_a_table_of_every_frame(self):
        frames = generate_scene(SceneSpec(num_frames=6, seed=23))
        dets = mock_detect(frames, MockDetectorSpec(mode="single_box", fp_per_frame=1.0, seed=3))
        assert isinstance(dets, DetectionTable)
        assert dets.frame_ids == [f.frame_id for f in frames]
        assert np.array_equal(dets.v, dets.t)  # one box in both modalities

    @pytest.mark.parametrize("score", [math.nan, -0.5, 1.5])
    def test_score_outside_unit_interval_refused(self, monkeypatch, score):
        monkeypatch.setattr(simulation, "_score", lambda *args: score)
        frames = generate_scene(SceneSpec(num_frames=3, peds_per_frame=3.0, seed=23))
        with pytest.raises(ValueError, match="score must be a finite value in"):
            mock_detect(frames, MockDetectorSpec(seed=1))

    def test_builds_no_box(self, monkeypatch):
        built = []
        check = Box.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(Box, "__post_init__", counted)
        # neither the scene generator nor the detector builds one
        frames = generate_scene(SceneSpec(num_frames=10, peds_per_frame=3.0, seed=23))
        for mode in ("paired", "single_box"):
            spec = MockDetectorSpec(mode=mode, center_noise_sigma=2.0, size_noise_sigma=0.1,
                                    fp_per_frame=2.0, seed=5)
            assert len(mock_detect(frames, spec).score) > 0
        assert built == []

    def test_overflowing_size_factor_is_an_infinite_extent(self):
        frames = generate_scene(SceneSpec(num_frames=3, peds_per_frame=3.0, seed=23))
        with pytest.raises(ValueError, match=r"box field 'x' must be a number within ±1e100, got -inf"):
            mock_detect(frames, MockDetectorSpec(size_noise_sigma=1e4, seed=1))

    def test_miss_prob_one_detects_nothing(self):
        frames = generate_scene(SceneSpec(num_frames=10, seed=31))
        dets = mock_detect(frames, MockDetectorSpec(miss_prob=1.0, seed=1))
        assert all(len(fd.detections) == 0 for fd in dets)

    def test_ignored_objects_not_detected(self):
        pair = PairedBox.aligned(Box(100, 100, 20, 60))
        frames = gt_table([FrameAnnotations(0, (GtObject(pair, ignore=True),))])
        dets = mock_detect(frames, MockDetectorSpec(seed=1))
        assert dets[0].detections == ()

    def test_false_positives_appear_at_expected_rate(self):
        frames = generate_scene(SceneSpec(num_frames=200, peds_per_frame=0.0, seed=37))
        dets = mock_detect(frames, MockDetectorSpec(fp_per_frame=2.0, seed=41))
        total = sum(len(fd.detections) for fd in dets)
        # Poisson(2) over 200 frames: mean 400, std 20
        assert 300 < total < 500

    def test_scores_respect_floor_and_ceiling(self):
        frames = generate_scene(SceneSpec(num_frames=30, seed=43))
        spec = MockDetectorSpec(
            mode="paired", center_noise_sigma=8.0, score_noise_sigma=0.3, seed=47
        )
        for fd in mock_detect(frames, spec):
            for d in fd.detections:
                assert simulation.SCORE_FLOOR <= d.score <= 1.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MockDetectorSpec(mode="fused")
        with pytest.raises(ValueError):
            MockDetectorSpec(miss_prob=1.5)
        with pytest.raises(ValueError):
            MockDetectorSpec(center_noise_sigma=-1.0)


WIDTH = 640.0


@st.composite
def shift_scene(draw):
    """Frames of pairs anywhere in the image, some ignored and some at a
    vertical border, so that a shift clips their thermal boxes."""
    frames = []
    for f in range(draw(st.integers(0, 4))):
        objects = []
        for _ in range(draw(st.integers(0, 4))):
            w, h = draw(st.floats(1.0, 80.0)), draw(st.floats(1.0, 160.0))
            x = draw(st.floats(0.0, 4.0) | st.floats(0.0, WIDTH - w) | st.just(WIDTH - w))
            visible = Box(x, draw(st.floats(0.0, 300.0)), w, h)
            thermal = visible.translate(draw(st.floats(-8.0, 8.0)), 0.0)
            objects.append(GtObject(PairedBox(visible, thermal), ignore=draw(st.booleans())))
        frames.append(FrameAnnotations(2 * f + 1, tuple(objects)))
    return gt_table(frames)


class TestShiftInvariance:
    """A detector that does not read the thermal boxes gives one table at
    every shift, which is what lets ``shift-sweep`` build it once."""

    @settings(derandomize=True, deadline=None)
    @given(frames=shift_scene(),
           dx=st.floats(-WIDTH, WIDTH, exclude_min=True, exclude_max=True),
           center=st.floats(0.1, 6.0), size=st.floats(0.01, 0.3), miss=st.floats(0.05, 0.6),
           fp=st.floats(0.1, 3.0), score=st.floats(0.01, 0.2), seed=st.integers(0, 2**32 - 1))
    def test_single_box_table_ignores_the_shift(self, frames, dx, center, size, miss, fp, score,
                                                seed):
        spec = MockDetectorSpec(mode="single_box", center_noise_sigma=center,
                                size_noise_sigma=size, miss_prob=miss, fp_per_frame=fp,
                                score_noise_sigma=score, image_width=WIDTH, seed=seed)
        assert not spec.reads_thermal
        shifted = apply_shift(frames, ShiftSpec(dx, image_width=WIDTH))
        moved, plain = mock_detect(shifted, spec), mock_detect(frames, spec)
        assert moved.frame_ids == plain.frame_ids and np.array_equal(moved.offsets, plain.offsets)
        assert moved.rows.tobytes() == plain.rows.tobytes()

    def test_paired_table_follows_the_shift(self):
        frames = generate_scene(SceneSpec(num_frames=8, seed=19))
        shifted = apply_shift(frames, ShiftSpec(12.0, image_width=WIDTH))
        spec = MockDetectorSpec(mode="paired", center_noise_sigma=3.0, size_noise_sigma=0.1,
                                miss_prob=0.2, fp_per_frame=1.5, score_noise_sigma=0.05, seed=7)
        assert spec.reads_thermal
        # the thermal columns follow the shifted ground truth
        assert not np.array_equal(mock_detect(shifted, spec).t, mock_detect(frames, spec).t)


class TestTrendReproduction:
    def test_single_box_degrades_monotonically_paired_flat(self):
        frames = generate_scene(
            SceneSpec(num_frames=200, peds_per_frame=2.0, fixed_width=30.0, seed=53)
        )
        single, paired = [], []
        for dx in (0.0, 5.0, 10.0, 15.0, 20.0):
            shifted = apply_shift(frames, ShiftSpec(dx))
            cfg = EvalConfig(variants=("multimodal",), iou_thresholds=(0.7,))
            dets_s = mock_detect(shifted, MockDetectorSpec(mode="single_box", seed=59))
            dets_p = mock_detect(shifted, MockDetectorSpec(mode="paired", seed=59))
            single.append(evaluate(shifted, dets_s, cfg).lamr("multimodal", 0.7))
            paired.append(evaluate(shifted, dets_p, cfg).lamr("multimodal", 0.7))
        assert single == sorted(single)
        assert single[-1] == 1.0
        assert paired == [0.0] * 5
