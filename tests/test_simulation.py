import math

import numpy as np
import pytest

from pairbox import simulation
from pairbox.evaluation import DetectionTable, EvalConfig, FrameAnnotations, evaluate
from pairbox.geometry import Box, PairedBox
from pairbox.simulation import (
    MockDetectorSpec,
    SceneSpec,
    ShiftSpec,
    apply_shift,
    generate_scene,
    mock_detect,
)

from scenes import gt


class TestApplyShift:
    def test_zero_shift_is_identity(self):
        frames = [FrameAnnotations(0, (gt(100, 50, w=30, h=60),))]
        assert apply_shift(frames, ShiftSpec(0.0)) == frames

    def test_pure_translation(self):
        frames = [FrameAnnotations(0, (gt(100, 50, w=30, h=60),))]
        out = apply_shift(frames, ShiftSpec(-20.0))
        obj = out[0].objects[0]
        assert obj.pair.thermal == Box(80, 50, 30, 60)
        assert obj.pair.visible == Box(100, 50, 30, 60)

    def test_clipping_at_right_border(self):
        frames = [FrameAnnotations(0, (gt(630, 50, w=30, h=60),))]
        out = apply_shift(frames, ShiftSpec(20.0, image_width=640.0))
        thermal = out[0].objects[0].pair.thermal
        assert thermal == Box(640, 50, 0, 60)

    def test_partial_clip_at_left_border(self):
        frames = [FrameAnnotations(0, (gt(5, 0, w=30, h=60),))]
        out = apply_shift(frames, ShiftSpec(-15.0))
        thermal = out[0].objects[0].pair.thermal
        assert thermal == Box(0, 0, 20, 60)

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
            assert apply_shift(apply_shift(frames, ShiftSpec(dx)), ShiftSpec(-dx)) == frames

    def test_only_thermal_x_changes(self):
        frames = [FrameAnnotations("a", (gt(100, 30, w=30, h=70, dx_thermal=4),))]
        out = apply_shift(frames, ShiftSpec(7.0))
        before = frames[0].objects[0]
        after = out[0].objects[0]
        assert after.pair.visible == before.pair.visible
        assert after.pair.thermal.y == before.pair.thermal.y
        assert after.pair.thermal.h == before.pair.thermal.h
        assert after.pair.thermal.x == before.pair.thermal.x + 7.0
        assert after.occlusion == before.occlusion
        assert after.ignore == before.ignore
        assert out[0].frame_id == "a"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ShiftSpec(640.0, image_width=640.0)
        with pytest.raises(ValueError):
            ShiftSpec(float("nan"))
        with pytest.raises(ValueError):
            ShiftSpec(0.0, image_width=0.0)


class TestGenerateScene:
    def test_deterministic_under_seed(self):
        spec = SceneSpec(num_frames=30, seed=7, misalign_range=(-4.0, 4.0))
        assert generate_scene(spec) == generate_scene(spec)

    def test_different_seeds_differ(self):
        a = generate_scene(SceneSpec(num_frames=30, seed=1))
        b = generate_scene(SceneSpec(num_frames=30, seed=2))
        assert a != b

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
        frames = [FrameAnnotations(f, ()) for f in range(4)]
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

    def test_miss_prob_one_detects_nothing(self):
        frames = generate_scene(SceneSpec(num_frames=10, seed=31))
        dets = mock_detect(frames, MockDetectorSpec(miss_prob=1.0, seed=1))
        assert all(len(fd.detections) == 0 for fd in dets)

    def test_ignored_objects_not_detected(self):
        pair = PairedBox.aligned(Box(100, 100, 20, 60))
        from pairbox.evaluation import GtObject

        frames = [FrameAnnotations(0, (GtObject(pair, ignore=True),))]
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
