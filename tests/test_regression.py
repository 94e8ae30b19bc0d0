import math

import numpy as np
import pytest

from pairbox.geometry import Box
from pairbox.regression import (
    BoxOffsets,
    DetectorSample,
    LossConfig,
    RpnSample,
    cross_entropy,
    decode_box,
    detector_loss,
    encode_box,
    rpn_loss,
    smooth_l1,
)

from oracles import central_difference


def random_positive_box(rng, span=200.0):
    return Box(
        float(rng.uniform(-span, span)),
        float(rng.uniform(-span, span)),
        float(rng.uniform(1.0, 80.0)),
        float(rng.uniform(1.0, 80.0)),
    )


class TestEncodeDecode:
    def test_identity(self):
        b = Box(0, 0, 10, 10)
        assert encode_box(b, b) == BoxOffsets(0, 0, 0, 0)

    def test_center_shift(self):
        got = encode_box(Box(0, 0, 10, 10), Box(5, 0, 10, 10))
        assert got == BoxOffsets(0.5, 0, 0, 0)

    def test_width_doubling(self):
        got = encode_box(Box(0, 0, 10, 10), Box(0, 0, 20, 10))
        assert got.tx == pytest.approx(0.5)
        assert got.ty == 0.0
        assert got.tw == pytest.approx(math.log(2.0))
        assert got.th == 0.0

    def test_decode_identity(self):
        assert decode_box(Box(0, 0, 10, 10), BoxOffsets(0, 0, 0, 0)) == Box(0, 0, 10, 10)

    def test_decode_inverse_of_encode_example(self):
        got = decode_box(Box(0, 0, 10, 10), BoxOffsets(0.5, 0, 0, 0))
        assert got.as_tuple() == pytest.approx((5, 0, 10, 10))

    def test_round_trip_random(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(10_000):
            anchor = random_positive_box(rng)
            target = random_positive_box(rng)
            back = decode_box(anchor, encode_box(anchor, target))
            worst = max(
                worst,
                max(abs(a - b) for a, b in zip(back.as_tuple(), target.as_tuple())),
            )
        assert worst < 1e-9

    def test_degenerate_anchor_rejected(self):
        with pytest.raises(ValueError):
            encode_box(Box(0, 0, 0, 10), Box(0, 0, 10, 10))
        with pytest.raises(ValueError):
            encode_box(Box(0, 0, 10, 10), Box(0, 0, 10, 0))
        with pytest.raises(ValueError):
            decode_box(Box(0, 0, 0, 10), BoxOffsets(0, 0, 0, 0))

    def test_non_finite_offsets_rejected(self):
        with pytest.raises(ValueError):
            BoxOffsets(float("inf"), 0, 0, 0)

    def test_string_is_not_an_offset_array(self):
        with pytest.raises(TypeError):
            BoxOffsets.from_array("0000")


class TestSmoothL1:
    def test_zero_at_target(self):
        loss, grad = smooth_l1(BoxOffsets(1, 2, 3, 4), BoxOffsets(1, 2, 3, 4))
        assert loss == 0.0
        assert grad == BoxOffsets(0, 0, 0, 0)

    def test_quadratic_regime(self):
        loss, grad = smooth_l1(BoxOffsets(0.5, 0, 0, 0), BoxOffsets(0, 0, 0, 0))
        assert loss == pytest.approx(0.125, abs=1e-15)
        assert grad.tx == pytest.approx(0.5)

    def test_linear_regime(self):
        loss, grad = smooth_l1(BoxOffsets(2, 0, 0, 0), BoxOffsets(0, 0, 0, 0))
        assert loss == pytest.approx(1.5, abs=1e-15)
        assert grad.tx == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        target = BoxOffsets(0.1, -0.2, 0.05, 0.3)

        def f(x):
            return smooth_l1(BoxOffsets(*x), target)[0]

        checked = 0
        while checked < 300:
            x = rng.uniform(-3, 3, size=4)
            # the finite-difference stencil is inaccurate where the loss
            # switches regimes, so keep samples away from |diff| == 1
            diffs = x - target.as_array()
            if np.any(np.abs(np.abs(diffs) - 1.0) < 1e-3):
                continue
            analytic = smooth_l1(BoxOffsets(*x), target)[1].as_array()
            numeric = central_difference(f, x)
            assert np.max(np.abs(analytic - numeric)) < 1e-6
            checked += 1


class TestCrossEntropy:
    def test_saturated_correct(self):
        loss, _ = cross_entropy([1000.0, 0.0], 0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_uniform_two_class(self):
        loss, grad = cross_entropy([0.0, 0.0], 0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)
        np.testing.assert_allclose(grad, [-0.5, 0.5])

    def test_errors(self):
        with pytest.raises(ValueError):
            cross_entropy([], 0)
        with pytest.raises(ValueError):
            cross_entropy([0.0, 1.0], 2)
        with pytest.raises(ValueError):
            cross_entropy([0.0, 1.0], -1)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            k = int(rng.integers(2, 8))
            z = rng.normal(0, 3, size=k)
            label = int(rng.integers(0, k))
            analytic = cross_entropy(z, label)[1]
            numeric = central_difference(lambda x: cross_entropy(x, label)[0], z)
            assert np.max(np.abs(analytic - numeric)) < 1e-6

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            z = rng.normal(0, 5, size=4)
            loss, _ = cross_entropy(z, int(rng.integers(0, 4)))
            assert loss >= 0.0
            assert math.isfinite(loss)


def _positive_sample(logit=2.0, pred_v=(0.2, 0, 0, 0), pred_t=(0, 0.4, 0, 0),
                     tgt_v=(0, 0, 0, 0), tgt_t=(0, 0, 0, 0)):
    return RpnSample(
        objectness_logit=logit,
        label=1,
        pred_offsets_v=BoxOffsets(*pred_v),
        pred_offsets_t=BoxOffsets(*pred_t),
        target_offsets_v=BoxOffsets(*tgt_v),
        target_offsets_t=BoxOffsets(*tgt_t),
    )


class TestRpnLoss:
    def test_all_negative_batch_is_pure_classification(self):
        samples = [RpnSample(objectness_logit=l, label=0) for l in (-2.0, 0.5, 1.0, -0.1)]
        cfg = LossConfig(lam=1.0, n_cls=4, n_reg=4)
        got = rpn_loss(samples, cfg)
        # independent scalar re-derivation: -log(1 - sigmoid(l)) per sample
        expected = sum(-math.log(1.0 - 1.0 / (1.0 + math.exp(-l)))
                       for l in (-2.0, 0.5, 1.0, -0.1)) / 4.0
        assert got == pytest.approx(expected, abs=1e-12)
        assert rpn_loss(samples, LossConfig(lam=0.0, n_cls=4, n_reg=4)) == got

    def test_perfect_positive_is_zero(self):
        s = _positive_sample(logit=1000.0, pred_v=(0, 0, 0, 0), pred_t=(0, 0, 0, 0))
        assert rpn_loss([s], LossConfig(n_cls=1, n_reg=1)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_independent_rederivation(self):
        samples = [
            _positive_sample(logit=0.7, pred_v=(0.3, -0.1, 0.2, 0.0), pred_t=(1.5, 0, 0, -0.4)),
            RpnSample(objectness_logit=-1.2, label=0),
            _positive_sample(logit=-0.3, pred_v=(0, 0, 0, 0), pred_t=(-2.0, 0.9, 0, 0)),
            RpnSample(objectness_logit=0.05, label=0),
        ]
        cfg = LossConfig(lam=1.5, n_cls=4, n_reg=7)

        def sl1(pred, tgt):
            total = 0.0
            for p, t in zip(pred, tgt):
                d = abs(p - t)
                total += 0.5 * d * d if d < 1 else d - 0.5
            return total

        def bce(logit, lab):
            p = 1.0 / (1.0 + math.exp(-logit))
            return -math.log(p) if lab == 1 else -math.log(1.0 - p)

        cls_term = sum(bce(s.objectness_logit, s.label) for s in samples) / cfg.n_cls
        reg_v = sum(sl1(s.pred_offsets_v.as_tuple(), s.target_offsets_v.as_tuple())
                    for s in samples if s.label == 1)
        reg_t = sum(sl1(s.pred_offsets_t.as_tuple(), s.target_offsets_t.as_tuple())
                    for s in samples if s.label == 1)
        expected = cls_term + cfg.lam * (reg_v + reg_t) / cfg.n_reg
        assert rpn_loss(samples, cfg) == pytest.approx(expected, abs=1e-12)

    def test_lambda_scaling_is_linear(self):
        samples = [
            _positive_sample(logit=0.2, pred_v=(0.6, 0, 0, 0), pred_t=(0, 0, 1.4, 0)),
            RpnSample(objectness_logit=1.0, label=0),
        ]
        losses = {
            lam: rpn_loss(samples, LossConfig(lam=lam, n_cls=2, n_reg=3))
            for lam in (0.0, 1.0, 2.0)
        }
        assert losses[2.0] - losses[0.0] == pytest.approx(
            2.0 * (losses[1.0] - losses[0.0]), abs=1e-12
        )

    def test_thermal_term_additivity(self):
        # total loss equals the visible-only total plus the thermal contribution
        s = _positive_sample(logit=0.4, pred_v=(0.3, 0, 0, 0), pred_t=(0, 0, 0.8, 0))
        cfg = LossConfig(lam=1.0, n_cls=1, n_reg=2)
        total = rpn_loss([s], cfg)
        thermal_term = smooth_l1(s.pred_offsets_t, s.target_offsets_t)[0] / cfg.n_reg
        s_aligned_t = _positive_sample(logit=0.4, pred_v=(0.3, 0, 0, 0), pred_t=(0, 0, 0, 0))
        visible_only = rpn_loss([s_aligned_t], cfg)
        assert total == pytest.approx(visible_only + thermal_term, abs=1e-12)

    def test_positive_without_targets_rejected(self):
        with pytest.raises(ValueError):
            RpnSample(objectness_logit=0.0, label=1, pred_offsets_v=BoxOffsets(0, 0, 0, 0))

    def test_negative_with_targets_rejected(self):
        with pytest.raises(ValueError):
            RpnSample(objectness_logit=0.0, label=0, target_offsets_v=BoxOffsets(0, 0, 0, 0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(lam=-1.0)
        with pytest.raises(ValueError):
            LossConfig(n_cls=0)
        with pytest.raises(ValueError):
            LossConfig(n_reg=0)


class TestDetectorLoss:
    def test_background_is_classification_only(self):
        s = DetectorSample(class_scores=(0.3, -0.7), true_class=0)
        expected, _ = cross_entropy([0.3, -0.7], 0)
        assert detector_loss(s, lam=1.0) == expected
        assert detector_loss(s, lam=0.0) == expected

    def test_perfect_foreground_is_zero(self):
        s = DetectorSample(
            class_scores=(0.0, 1000.0),
            true_class=1,
            pred_offsets_v=BoxOffsets(0, 0, 0, 0),
            pred_offsets_t=BoxOffsets(0, 0, 0, 0),
            target_offsets_v=BoxOffsets(0, 0, 0, 0),
            target_offsets_t=BoxOffsets(0, 0, 0, 0),
        )
        assert detector_loss(s) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits_with_visible_error(self):
        s = DetectorSample(
            class_scores=(0.0, 0.0),
            true_class=1,
            pred_offsets_v=BoxOffsets(0.5, 0, 0, 0),
            pred_offsets_t=BoxOffsets(0, 0, 0, 0),
            target_offsets_v=BoxOffsets(0, 0, 0, 0),
            target_offsets_t=BoxOffsets(0, 0, 0, 0),
        )
        assert detector_loss(s, lam=1.0) == pytest.approx(math.log(2.0) + 0.125, abs=1e-12)

    def test_foreground_without_targets_rejected(self):
        with pytest.raises(ValueError):
            DetectorSample(class_scores=(0.0, 0.0), true_class=1)

    def test_out_of_range_class_rejected(self):
        with pytest.raises(ValueError):
            DetectorSample(class_scores=(0.0, 0.0), true_class=2)

    def test_losses_finite_and_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(119)
        for _ in range(200):
            samples = []
            for _ in range(int(rng.integers(1, 6))):
                if rng.random() < 0.5:
                    samples.append(_positive_sample(
                        logit=float(rng.normal(0, 4)),
                        pred_v=tuple(rng.normal(0, 2, size=4)),
                        pred_t=tuple(rng.normal(0, 2, size=4)),
                        tgt_v=tuple(rng.normal(0, 2, size=4)),
                        tgt_t=tuple(rng.normal(0, 2, size=4)),
                    ))
                else:
                    samples.append(RpnSample(objectness_logit=float(rng.normal(0, 4)), label=0))
            loss = rpn_loss(samples, LossConfig(lam=float(rng.uniform(0, 3)),
                                                n_cls=len(samples), n_reg=len(samples)))
            assert math.isfinite(loss) and loss >= 0.0

            det = DetectorSample(
                class_scores=tuple(rng.normal(0, 4, size=3)),
                true_class=1,
                pred_offsets_v=BoxOffsets(*rng.normal(0, 2, size=4)),
                pred_offsets_t=BoxOffsets(*rng.normal(0, 2, size=4)),
                target_offsets_v=BoxOffsets(*rng.normal(0, 2, size=4)),
                target_offsets_t=BoxOffsets(*rng.normal(0, 2, size=4)),
            )
            dloss = detector_loss(det, lam=float(rng.uniform(0, 3)))
            assert math.isfinite(dloss) and dloss >= 0.0
