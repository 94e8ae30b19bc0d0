"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with ``pytest -s``). Tolerances are fixed here and
nowhere else.
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import pairbox
from pairbox.evaluation import (
    CurvePoint,
    EvalConfig,
    evaluate,
    log_average_miss_rate,
)
from pairbox.geometry import (
    Box,
    PairedBox,
    iou,
    iou_elementwise,
    iou_multimodal,
    iou_multimodal_elementwise,
    pairs_to_arrays,
)
from pairbox.pairnms import Detection
from pairbox.regression import (
    LossConfig,
    cross_entropy,
    decode_box,
    detector_loss,
    encode_box,
    rpn_loss,
    smooth_l1,
)
from pairbox.sampling import IGNORE, NEGATIVE, POSITIVE, assign_detector, assign_rpn
from pairbox.simulation import MockDetectorSpec, SceneSpec, ShiftSpec, apply_shift, generate_scene, mock_detect

from oracles import (
    central_difference,
    curve_from_points,
    naive_nms,
    rasterized_iou,
    rasterized_iou_multimodal,
)
from scenes import (
    FOUR_FRAME_CURVE,
    FOUR_FRAME_LAMR,
    detection_table,
    four_frame_fixture,
    gt_table,
    nms_detections,
    perfect_detections,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def _random_int_box(rng):
    return (
        int(rng.integers(0, 16)),
        int(rng.integers(0, 16)),
        int(rng.integers(0, 13)),
        int(rng.integers(0, 13)),
    )


def test_criterion_1_geometry_oracle_suite():
    with criterion("criterion 1: geometry vs rasterization oracle + mediant bounds"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)

        # plain IoU vs pixel counting, 10^4 random integer box pairs
        for _ in range(10_000):
            a = _random_int_box(rng)
            b = _random_int_box(rng)
            got = iou(Box(*a), Box(*b))
            assert abs(got - rasterized_iou(a, b)) < 1e-9

        # pooled IoU vs pixel counting, 10^4 random integer paired quads
        for _ in range(10_000):
            gv, gt_, dv, dt = (_random_int_box(rng) for _ in range(4))
            got = iou_multimodal(
                PairedBox(Box(*gv), Box(*gt_)), PairedBox(Box(*dv), Box(*dt))
            )
            assert abs(got - rasterized_iou_multimodal(gv, gt_, dv, dt)) < 1e-9

        # mediant bounds on 10^5 random pairs with positive per-modality unions
        n = 100_000
        def boxes(k):
            out = rng.uniform(-40, 40, size=(k, 4))
            out[:, 2:] = np.abs(out[:, 2:]) * 0.8 + 0.25
            return out

        av, at, bv, bt = boxes(n), boxes(n), boxes(n), boxes(n)
        pooled = iou_multimodal_elementwise(av, at, bv, bt)
        per_v = iou_elementwise(av, bv)
        per_t = iou_elementwise(at, bt)
        violations = int(np.count_nonzero(pooled < np.minimum(per_v, per_t)))
        violations += int(np.count_nonzero(pooled > np.maximum(per_v, per_t)))
        assert violations == 0

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (budget 10s)"


def test_criterion_2_degeneracy():
    with criterion("criterion 2: aligned modalities degenerate to plain IoU"):
        rng = np.random.default_rng(2025)
        for _ in range(5_000):
            a = Box(*(float(v) for v in _random_int_box(rng)))
            b = Box(*(float(v) for v in _random_int_box(rng)))
            assert iou_multimodal(PairedBox.aligned(a), PairedBox.aligned(b)) == iou(a, b)

        annotations, detections = four_frame_fixture()  # visible == thermal throughout
        report = evaluate(gt_table(annotations), detection_table(detections))
        for thresh in (0.5, 0.7):
            e_v = report.entry("visible", thresh)
            e_t = report.entry("thermal", thresh)
            e_m = report.entry("multimodal", thresh)
            assert e_v.curve.points == e_t.curve.points == e_m.curve.points
            assert e_v.lamr == e_t.lamr == e_m.lamr


def test_criterion_3_gradient_checks():
    with criterion("criterion 3: analytic gradients vs finite differences + round-trip"):
        rng = np.random.default_rng(2026)
        eps = 1e-5

        target = np.array([0.15, -0.4, 0.1, 0.05])
        checked = 0
        while checked < 1_000:
            x = rng.uniform(-3, 3, size=4)
            if np.any(np.abs(np.abs(x - target) - 1.0) < 1e-3):
                continue  # keep the FD stencil away from the regime switch
            analytic = smooth_l1(x, target)[1]
            numeric = central_difference(lambda v: smooth_l1(v, target)[0], x, eps)
            assert np.max(np.abs(analytic - numeric)) < 1e-6
            checked += 1

        for _ in range(1_000):
            k = int(rng.integers(2, 10))
            z = rng.normal(0, 3, size=k)
            label = int(rng.integers(0, k))
            analytic = cross_entropy([z], [label])[1][0]
            numeric = central_difference(lambda v: cross_entropy([v], [label])[0][0], z, eps)
            assert np.max(np.abs(analytic - numeric)) < 1e-6

        worst = 0.0
        for _ in range(10_000):
            anchor = Box(
                float(rng.uniform(-200, 200)), float(rng.uniform(-200, 200)),
                float(rng.uniform(1, 80)), float(rng.uniform(1, 80)),
            )
            box = Box(
                float(rng.uniform(-200, 200)), float(rng.uniform(-200, 200)),
                float(rng.uniform(1, 80)), float(rng.uniform(1, 80)),
            )
            back = decode_box(anchor, encode_box(anchor, box))
            worst = max(worst, max(abs(p - q) for p, q in zip(back.as_tuple(), box.as_tuple())))
        assert worst < 1e-9


def test_criterion_4_loss_structure():
    with criterion("criterion 4: loss structure (masking, lambda linearity, closed form)"):
        no_offsets = np.empty((0, 2, 4))
        negatives = [-1.5, 0.3, 2.0]
        cfg0 = LossConfig(lam=0.0, n_cls=3, n_reg=5)
        cfg1 = LossConfig(lam=1.0, n_cls=3, n_reg=5)
        assert (rpn_loss(negatives, [0, 0, 0], no_offsets, no_offsets, cfg1)
                == rpn_loss(negatives, [0, 0, 0], no_offsets, no_offsets, cfg0))

        # one positive; its offsets stacked as (visible, thermal)
        pred = np.array([[[0.7, 0, 0, 0], [0, -1.8, 0, 0.2]]])
        target = np.zeros((1, 2, 4))
        losses = {
            lam: rpn_loss(negatives + [0.4], [0, 0, 0, 1], pred, target,
                          LossConfig(lam=lam, n_cls=4, n_reg=5))
            for lam in (0.0, 1.0, 2.0)
        }
        lhs = losses[2.0] - losses[0.0]
        rhs = 2.0 * (losses[1.0] - losses[0.0])
        assert abs(lhs - rhs) < 1e-12

        (loss,) = detector_loss([(0.0, 0.0)], [1], np.array([[[0.5, 0, 0, 0], [0, 0, 0, 0]]]),
                                np.zeros((1, 2, 4)), lam=1.0)
        assert abs(loss - (math.log(2.0) + 0.125)) < 1e-12


def test_criterion_5_paired_nms_projection():
    with criterion("criterion 5: paired NMS projection + idempotence, 10^3 scenes"):
        rng = np.random.default_rng(2027)
        for _ in range(1_000):
            n = int(rng.integers(0, 40))
            dets = []
            for _ in range(n):
                x, y = rng.uniform(0, 150, size=2)
                w, h = rng.uniform(5, 50), rng.uniform(10, 80)
                vis = Box(float(x + rng.uniform(-10, 10)), float(y), float(w), float(h))
                thermal = Box(float(x), float(y), float(w), float(h))
                score = float(np.round(rng.uniform(0, 1), 2))
                dets.append(Detection(PairedBox(vis, thermal), score))
            thresh = float(rng.choice([0.3, 0.5, 0.7]))
            kept = nms_detections(dets, thresh)
            ref = naive_nms(
                [d.pair.thermal.as_tuple() for d in dets], [d.score for d in dets], thresh
            )
            assert sorted(d.pair.thermal.as_tuple() for d in kept) == sorted(
                dets[i].pair.thermal.as_tuple() for i in ref
            )
            assert nms_detections(kept, thresh) == kept


def test_criterion_6_assignment_thresholds():
    with criterion("criterion 6: assignment labels at the stated overlap values"):
        def aligned(x, w):
            return PairedBox.aligned(Box(x, 0.0, w, 10.0))

        # exact overlaps (w - dx)/(w + dx): 0.70, 0.50, 0.20 for the proposal stage
        anchors = [aligned(3, 17), aligned(110, 30), aligned(220, 30)]
        gts = [aligned(0, 17), aligned(100, 30), aligned(200, 30)]
        res = assign_rpn(pairs_to_arrays(anchors), pairs_to_arrays(gts))
        assert res.max_ioum.tolist() == [0.7, 0.5, 0.2]
        assert res.labels.tolist() == [POSITIVE, IGNORE, NEGATIVE]

        # exact overlaps 0.55, 0.30, 0.05 for the detection stage
        rois = [aligned(9, 31), aligned(103.5, 6.5), aligned(219, 21)]
        gts = [aligned(0, 31), aligned(100, 6.5), aligned(200, 21)]
        res = assign_detector(pairs_to_arrays(rois), pairs_to_arrays(gts))
        assert res.max_ioum.tolist() == [0.55, 0.3, 0.05]
        assert res.labels.tolist() == [POSITIVE, NEGATIVE, IGNORE]


def test_criterion_7_evaluation_protocol():
    with criterion("criterion 7: protocol extremes, 4-frame fixture, constant curve"):
        annotations, detections = four_frame_fixture()

        perfect = evaluate(gt_table(annotations), detection_table(perfect_detections(annotations)))
        for e in perfect.entries:
            assert e.lamr == 0.0

        from pairbox.evaluation import FrameDetections

        empty = [FrameDetections(f.frame_id, ()) for f in annotations]
        blind = evaluate(gt_table(annotations), detection_table(empty))
        for e in blind.entries:
            assert e.lamr == 1.0

        report = evaluate(gt_table(annotations), detection_table(detections))
        for variant in ("visible", "thermal", "multimodal"):
            for thresh in (0.5, 0.7):
                entry = report.entry(variant, thresh)
                got = [(p.score_thresh, p.fppi, p.miss_rate) for p in entry.curve.points]
                assert len(got) == len(FOUR_FRAME_CURVE)
                for (gs, gf, gm), (es, ef, em) in zip(got, FOUR_FRAME_CURVE):
                    assert gs == es
                    assert abs(gf - ef) < 1e-4
                    assert abs(gm - em) < 1e-4
                assert abs(entry.lamr - FOUR_FRAME_LAMR) < 1e-4

        for constant in (0.1, 0.37, 1.0):
            curve = curve_from_points(
                (CurvePoint(1.0, 1.0, constant, 0, 0, 0),), n_frames=1, n_evaluable=1
            )
            assert log_average_miss_rate(curve) == pytest.approx(constant, abs=1e-12)


def test_criterion_8_shift_trend_reproduction():
    with criterion("criterion 8: single-box degrades with shift, paired stays flat"):
        start = time.perf_counter()
        frames = generate_scene(
            SceneSpec(num_frames=1000, peds_per_frame=2.0, fixed_width=30.0, seed=424242)
        )
        cfg = EvalConfig(variants=("multimodal",), iou_thresholds=(0.7,))
        single, paired = [], []
        for dx in (0.0, 5.0, 10.0, 15.0, 20.0):
            shifted = apply_shift(frames, ShiftSpec(dx))
            dets_single = mock_detect(shifted, MockDetectorSpec(mode="single_box", seed=7))
            dets_paired = mock_detect(shifted, MockDetectorSpec(mode="paired", seed=7))
            single.append(evaluate(shifted, dets_single, cfg).lamr("multimodal", 0.7))
            paired.append(evaluate(shifted, dets_paired, cfg).lamr("multimodal", 0.7))
        assert all(b >= a for a, b in zip(single, single[1:])), single
        assert single[-1] == 1.0
        assert paired == [0.0] * 5
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"criterion 8 took {elapsed:.1f}s (budget 60s)"


def _run_cli(args, cwd):
    env = dict(os.environ)
    # The child runs in ``cwd``, where a relative PYTHONPATH (such as ``src``)
    # no longer resolves; put the directory holding the package this process
    # imported first, so the child runs the same pairbox.
    package_root = str(Path(pairbox.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pairbox", *args],
        capture_output=True,
        cwd=cwd,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_9_cli_determinism(tmp_path):
    with criterion("criterion 9: every CLI command byte-stable across runs"):
        gt_path = tmp_path / "gt.jsonl"
        _run_cli(
            ["generate", "--frames", "80", "--seed", "5", "--width", "30",
             "--misalign", "-3", "3", "--out", str(gt_path)],
            cwd=tmp_path,
        )

        det_path = tmp_path / "dets.jsonl"
        from pairbox.formats import read_dataset, write_detections
        from pairbox.evaluation import FrameDetections
        from pairbox.simulation import MockDetectorSpec, mock_detect

        write_detections(
            mock_detect(read_dataset(gt_path), MockDetectorSpec(mode="paired", center_noise_sigma=2.0,
                                                    fp_per_frame=0.5, seed=3)),
            det_path,
        )

        anchors_path = tmp_path / "anchors.json"
        anchors_path.write_text(
            json.dumps({"anchors": [{"v": [3, 0, 17, 70], "t": [3, 0, 17, 70]}]}),
            encoding="utf-8",
        )
        losses_path = tmp_path / "losses.json"
        losses_path.write_text(
            json.dumps(
                {
                    "rpn": {
                        "cfg": {"lambda": 1.0, "n_cls": 1, "n_reg": 1},
                        "samples": [
                            {"logit": 0.3, "label": 1,
                             "pred_v": [0.2, 0, 0, 0], "pred_t": [0, 0, 0, 0],
                             "target_v": [0, 0, 0, 0], "target_t": [0, 0, 0, 0]}
                        ],
                    },
                    "detector": {
                        "lambda": 1.0,
                        "samples": [{"scores": [0.1, -0.4], "true_class": 0}],
                    },
                }
            ),
            encoding="utf-8",
        )

        commands = {
            "generate": (
                ["generate", "--frames", "40", "--seed", "11", "--misalign", "-4", "4",
                 "--out", "__OUT__/synth.jsonl"],
                ["synth.jsonl"],
            ),
            "evaluate": (
                ["evaluate", str(gt_path), str(det_path), "--format", "svg",
                 "--out", "__OUT__"],
                ["eval_table.txt", "eval_curves.csv", "eval_curves.svg"],
            ),
            "shift-sweep": (
                ["shift-sweep", str(gt_path), "--shift", "0", "10", "20",
                 "--mock", "single_box", "--seed", "9", "--out", "__OUT__"],
                ["shift_sweep.txt", "shift_sweep.csv"],
            ),
            "nms": (
                ["nms", str(det_path), "--iou-thresh", "0.5", "--out", "__OUT__/kept.jsonl"],
                ["kept.jsonl"],
            ),
            "assign": (
                ["assign", str(gt_path), "--anchors", str(anchors_path),
                 "--sample-batch", "16", "--seed", "13", "--out", "__OUT__/labels.jsonl"],
                ["labels.jsonl"],
            ),
            "losses": (
                ["losses", str(losses_path), "--grad-check", "--out", "__OUT__/losses.txt"],
                ["losses.txt"],
            ),
        }

        for name, (args, artifacts) in commands.items():
            outputs = []
            for run in ("r1", "r2", "r3"):
                out_dir = tmp_path / f"{name}_{run}"
                out_dir.mkdir()
                concrete = [a.replace("__OUT__", str(out_dir)) for a in args]
                stdout = _run_cli(concrete, cwd=tmp_path)
                blob = [stdout] + [(out_dir / f).read_bytes() for f in artifacts]
                outputs.append(blob)
            assert outputs[0] == outputs[1], f"{name}: differs across identical runs"
            assert outputs[0] == outputs[2], f"{name}: differs across thread counts"
