import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairbox.geometry import Box
from pairbox.regression import (
    LossConfig,
    as_offsets,
    cross_entropy,
    decode_box,
    detector_loss,
    encode_box,
    rpn_loss,
    smooth_l1,
)

from oracles import (
    central_difference,
    naive_detector_loss,
    naive_rpn_loss,
    naive_smooth_l1,
    row_cross_entropy,
)


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
        assert encode_box(b, b).tolist() == [0, 0, 0, 0]

    def test_center_shift(self):
        got = encode_box(Box(0, 0, 10, 10), Box(5, 0, 10, 10))
        assert got.tolist() == [0.5, 0, 0, 0]

    def test_width_doubling(self):
        got = encode_box(Box(0, 0, 10, 10), Box(0, 0, 20, 10))
        tx, ty, tw, th = got.tolist()
        assert tx == pytest.approx(0.5)
        assert ty == 0.0
        assert tw == pytest.approx(math.log(2.0))
        assert th == 0.0

    def test_decode_identity(self):
        assert decode_box(Box(0, 0, 10, 10), np.zeros(4)) == Box(0, 0, 10, 10)

    def test_decode_inverse_of_encode_example(self):
        got = decode_box(Box(0, 0, 10, 10), np.array([0.5, 0, 0, 0]))
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
            decode_box(Box(0, 0, 0, 10), np.zeros(4))

    def test_non_finite_offsets_rejected(self):
        with pytest.raises(ValueError):
            as_offsets([float("inf"), 0, 0, 0])

    def test_string_is_not_an_offset_array(self):
        with pytest.raises(TypeError):
            as_offsets("0000")

    @pytest.mark.parametrize("values", [[0, 0, 0], [[0, 0, 0, 0]], 0.0])
    def test_offsets_need_shape_4(self, values):
        with pytest.raises(ValueError):
            as_offsets(values)


class TestSmoothL1:
    def test_zero_at_target(self):
        loss, grad = smooth_l1(np.array([1.0, 2, 3, 4]), np.array([1.0, 2, 3, 4]))
        assert loss == 0.0
        assert grad.tolist() == [0, 0, 0, 0]

    def test_quadratic_regime(self):
        loss, grad = smooth_l1(np.array([0.5, 0, 0, 0]), np.zeros(4))
        assert loss == pytest.approx(0.125, abs=1e-15)
        assert grad[0] == pytest.approx(0.5)

    def test_linear_regime(self):
        loss, grad = smooth_l1(np.array([2.0, 0, 0, 0]), np.zeros(4))
        assert loss == pytest.approx(1.5, abs=1e-15)
        assert grad[0] == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        target = np.array([0.1, -0.2, 0.05, 0.3])

        def f(x):
            return smooth_l1(x, target)[0]

        checked = 0
        while checked < 300:
            x = rng.uniform(-3, 3, size=4)
            # the finite-difference stencil is inaccurate where the loss
            # switches regimes, so keep samples away from |diff| == 1
            diffs = x - target
            if np.any(np.abs(np.abs(diffs) - 1.0) < 1e-3):
                continue
            analytic = smooth_l1(x, target)[1]
            numeric = central_difference(f, x)
            assert np.max(np.abs(analytic - numeric)) < 1e-6
            checked += 1


_ONE_BELOW, _ONE_ABOVE = float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0))
# with a zero target these put pred - target at the kink |x| = 1, one ulp either side, or at +-0.0
_KINK_VALUES = st.sampled_from(
    [1.0, -1.0, _ONE_BELOW, -_ONE_BELOW, _ONE_ABOVE, -_ONE_ABOVE, 0.0, -0.0, 1.5, 0.5]
)
_OFFSET_VALUES = st.one_of(
    _KINK_VALUES, st.floats(-3, 3), st.floats(allow_nan=False, allow_infinity=False)
)
_OFFSET_ROWS = st.lists(st.tuples(*[_OFFSET_VALUES] * 4), min_size=1, max_size=12)


class TestSmoothL1Batch:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.data())
    def test_rows_equal_the_scalar_form_bit_for_bit(self, data):
        pred = data.draw(_OFFSET_ROWS)
        target = data.draw(st.lists(st.tuples(*[_OFFSET_VALUES] * 4),
                                    min_size=len(pred), max_size=len(pred)))
        loss, grad = smooth_l1(np.array(pred), np.array(target))
        assert loss.shape == (len(pred),) and grad.shape == (len(pred), 4)
        want = [naive_smooth_l1(p, t) for p, t in zip(pred, target)]
        want_loss = np.array([w[0] for w in want])
        want_grad = np.array([w[1] for w in want])
        assert loss.view(np.int64).tolist() == want_loss.view(np.int64).tolist()
        assert grad.view(np.int64).tolist() == want_grad.view(np.int64).tolist()


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).ravel().tolist()


class TestCrossEntropy:
    def test_saturated_correct(self):
        loss, _ = cross_entropy([[1000.0, 0.0]], [0])
        assert loss.tolist() == [pytest.approx(0.0, abs=1e-12)]

    def test_uniform_two_class(self):
        loss, grad = cross_entropy([[0.0, 0.0]], [0])
        assert loss.tolist() == [pytest.approx(math.log(2.0), abs=1e-15)]
        np.testing.assert_allclose(grad, [[-0.5, 0.5]])

    def test_errors(self):
        with pytest.raises(ValueError):
            cross_entropy([[]], [0])
        with pytest.raises(ValueError):
            cross_entropy([0.0, 1.0], 0)  # a row, not a block
        with pytest.raises(ValueError):
            cross_entropy([[0.0, 1.0]], [2])
        with pytest.raises(ValueError):
            cross_entropy([[0.0, 1.0]], [-1])
        with pytest.raises(ValueError):
            cross_entropy([[0.0, 1.0]], [0, 1])  # one label per row

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            k = int(rng.integers(2, 8))
            z = rng.normal(0, 3, size=k)
            label = int(rng.integers(0, k))
            analytic = cross_entropy([z], [label])[1][0]
            numeric = central_difference(lambda x: cross_entropy([x], [label])[0][0], z)
            assert np.max(np.abs(analytic - numeric)) < 1e-6

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(43)
        z = rng.normal(0, 5, size=(200, 4))
        loss, _ = cross_entropy(z, rng.integers(0, 4, size=200))
        assert (loss >= 0.0).all() and np.isfinite(loss).all()

    @pytest.mark.filterwarnings("error")
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(rows=st.lists(
        st.integers(1, 39).flatmap(lambda k: st.tuples(
            st.lists(st.one_of(st.floats(-1e308, 1e308), st.sampled_from([-1e308, 1e308, 0.0])),
                     min_size=k, max_size=k),
            st.integers(0, k - 1))),
        min_size=1, max_size=12))
    def test_rows_of_a_block_equal_the_row_form_bit_for_bit(self, rows):
        """Ragged rows, grouped by class count as ``detector_loss`` groups
        them: each row's loss and gradient are the row form's, bit for bit."""
        for k in sorted({len(z) for z, _ in rows}):
            group = [(z, label) for z, label in rows if len(z) == k]
            loss, grad = cross_entropy([z for z, _ in group], [label for _, label in group])
            for (z, label), row_loss, row_grad in zip(group, loss.tolist(), grad):
                want_loss, want_grad = row_cross_entropy(z, label)
                assert _bits(row_loss) == _bits(want_loss)
                assert _bits(row_grad) == _bits(want_grad)


# A sample is a (logits, label, pred, target) tuple, as the oracles take it:
# pred/target are (visible, thermal) pairs of four offsets, ignored for a
# negative or background sample. The helpers below turn samples into the
# columns the losses take.
_ZERO = (0, 0, 0, 0)


def _positive_sample(logit=2.0, pred_v=(0.2, 0, 0, 0), pred_t=(0, 0.4, 0, 0),
                     tgt_v=_ZERO, tgt_t=_ZERO):
    return (logit, 1, (pred_v, pred_t), (tgt_v, tgt_t))


def _negative_sample(logit):
    return (logit, 0, None, None)


def _offset_columns(samples):
    """The (p, 2, 4) pred and target offsets of the regressed samples."""
    regressed = [s for s in samples if s[1] != 0]
    pred = np.array([s[2] for s in regressed], dtype=np.float64).reshape(-1, 2, 4)
    target = np.array([s[3] for s in regressed], dtype=np.float64).reshape(-1, 2, 4)
    return pred, target


def _rpn(samples, cfg):
    return rpn_loss([s[0] for s in samples], [s[1] for s in samples], *_offset_columns(samples), cfg)


def _detector(samples, lam=1.0):
    """detector_loss of (scores, true_class, pred, target) samples, as a list."""
    return detector_loss([np.array(s[0], dtype=np.float64) for s in samples],
                         [s[1] for s in samples], *_offset_columns(samples), lam).tolist()


def _foreground_sample(scores, pred_v=_ZERO, pred_t=_ZERO, tgt_v=_ZERO, tgt_t=_ZERO, true_class=1):
    return (scores, true_class, (pred_v, pred_t), (tgt_v, tgt_t))


_NO_OFFSETS = np.empty((0, 2, 4))


class TestRpnLoss:
    def test_all_negative_batch_is_pure_classification(self):
        samples = [_negative_sample(l) for l in (-2.0, 0.5, 1.0, -0.1)]
        cfg = LossConfig(lam=1.0, n_cls=4, n_reg=4)
        got = _rpn(samples, cfg)
        # independent scalar re-derivation: -log(1 - sigmoid(l)) per sample
        expected = sum(-math.log(1.0 - 1.0 / (1.0 + math.exp(-l)))
                       for l in (-2.0, 0.5, 1.0, -0.1)) / 4.0
        assert got == pytest.approx(expected, abs=1e-12)
        assert _rpn(samples, LossConfig(lam=0.0, n_cls=4, n_reg=4)) == got

    def test_perfect_positive_is_zero(self):
        s = _positive_sample(logit=1000.0, pred_v=(0, 0, 0, 0), pred_t=(0, 0, 0, 0))
        assert _rpn([s], LossConfig(n_cls=1, n_reg=1)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_independent_rederivation(self):
        samples = [
            _positive_sample(logit=0.7, pred_v=(0.3, -0.1, 0.2, 0.0), pred_t=(1.5, 0, 0, -0.4)),
            _negative_sample(-1.2),
            _positive_sample(logit=-0.3, pred_v=(0, 0, 0, 0), pred_t=(-2.0, 0.9, 0, 0)),
            _negative_sample(0.05),
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

        cls_term = sum(bce(logit, label) for logit, label, _, _ in samples) / cfg.n_cls
        positives = [s for s in samples if s[1] == 1]
        reg_v = sum(sl1(pred[0], target[0]) for _, _, pred, target in positives)
        reg_t = sum(sl1(pred[1], target[1]) for _, _, pred, target in positives)
        expected = cls_term + cfg.lam * (reg_v + reg_t) / cfg.n_reg
        assert _rpn(samples, cfg) == pytest.approx(expected, abs=1e-12)

    def test_lambda_scaling_is_linear(self):
        samples = [
            _positive_sample(logit=0.2, pred_v=(0.6, 0, 0, 0), pred_t=(0, 0, 1.4, 0)),
            _negative_sample(1.0),
        ]
        losses = {
            lam: _rpn(samples, LossConfig(lam=lam, n_cls=2, n_reg=3))
            for lam in (0.0, 1.0, 2.0)
        }
        assert losses[2.0] - losses[0.0] == pytest.approx(
            2.0 * (losses[1.0] - losses[0.0]), abs=1e-12
        )

    def test_thermal_term_additivity(self):
        # total loss equals the visible-only total plus the thermal contribution
        s = _positive_sample(logit=0.4, pred_v=(0.3, 0, 0, 0), pred_t=(0, 0, 0.8, 0))
        cfg = LossConfig(lam=1.0, n_cls=1, n_reg=2)
        total = _rpn([s], cfg)
        thermal_term = smooth_l1(np.array([0, 0, 0.8, 0]), np.zeros(4))[0] / cfg.n_reg
        s_aligned_t = _positive_sample(logit=0.4, pred_v=(0.3, 0, 0, 0), pred_t=(0, 0, 0, 0))
        visible_only = _rpn([s_aligned_t], cfg)
        assert total == pytest.approx(visible_only + thermal_term, abs=1e-12)

    def test_offsets_checked(self):
        cfg = LossConfig(n_cls=1, n_reg=1)
        good = np.zeros((1, 2, 4))
        assert rpn_loss([2.0], [1], good.tolist(), good, cfg) == rpn_loss([2.0], [1], good, good, cfg)
        with pytest.raises(ValueError):
            rpn_loss([2.0], [1], np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), cfg)
        with pytest.raises(ValueError):
            rpn_loss([2.0], [1], np.zeros((2, 4)), np.zeros((2, 4)), cfg)
        bad = good.copy()
        bad[0, 0, 1] = math.nan
        with pytest.raises(ValueError):
            rpn_loss([2.0], [1], good, bad, cfg)

    def test_positive_without_targets_rejected(self):
        with pytest.raises(ValueError):
            rpn_loss([0.0], [1], _NO_OFFSETS, _NO_OFFSETS, LossConfig())

    def test_negative_with_targets_rejected(self):
        with pytest.raises(ValueError):
            rpn_loss([0.0], [0], np.zeros((1, 2, 4)), np.zeros((1, 2, 4)), LossConfig())

    @pytest.mark.parametrize("logits, labels", [
        ([math.nan], [0]), ([math.inf], [0]), ([0.0], [2]), ([0.0], [-1]),
        ([0.0, 1.0], [0]), ([[0.0]], [[0]]),
    ])
    def test_columns_checked(self, logits, labels):
        with pytest.raises(ValueError):
            rpn_loss(logits, labels, _NO_OFFSETS, _NO_OFFSETS, LossConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(lam=-1.0)
        with pytest.raises(ValueError):
            LossConfig(n_cls=0)
        with pytest.raises(ValueError):
            LossConfig(n_reg=0)


class TestDetectorLoss:
    def test_background_is_classification_only(self):
        s = ((0.3, -0.7), 0, None, None)
        expected, _ = row_cross_entropy([0.3, -0.7], 0)
        assert _detector([s], lam=1.0) == [expected]
        assert _detector([s], lam=0.0) == [expected]

    def test_perfect_foreground_is_zero(self):
        s = _foreground_sample((0.0, 1000.0))
        assert _detector([s]) == [pytest.approx(0.0, abs=1e-12)]

    def test_uniform_logits_with_visible_error(self):
        s = _foreground_sample((0.0, 0.0), pred_v=(0.5, 0, 0, 0))
        assert _detector([s], lam=1.0) == [pytest.approx(math.log(2.0) + 0.125, abs=1e-12)]

    def test_one_loss_per_sample_in_order(self):
        samples = [_foreground_sample((0.0, 0.0), pred_v=(0.5, 0, 0, 0)), ((0.3, -0.7), 0, None, None),
                   _foreground_sample((1.0, 0.0, 2.0), pred_t=(0, 3.0, 0, 0), true_class=2)]
        got = _detector(samples, lam=0.5)
        assert got == [naive_detector_loss(*s, 0.5) for s in samples]

    def test_foreground_without_targets_rejected(self):
        with pytest.raises(ValueError):
            detector_loss([(0.0, 0.0)], [1], _NO_OFFSETS, _NO_OFFSETS)

    def test_out_of_range_class_rejected(self):
        with pytest.raises(ValueError):
            detector_loss([(0.0, 0.0)], [2], np.zeros((1, 2, 4)), np.zeros((1, 2, 4)))

    @pytest.mark.parametrize("scores, true_class, lam", [
        ([()], [0], 1.0), ([(0.0, math.nan)], [0], 1.0), ([(0.0, 1.0)], [0, 0], 1.0),
        ([(0.0, 1.0)], [-1], 1.0), ([(0.0, 1.0)], [0], -1.0), ([(0.0, 1.0)], [0], math.inf),
    ])
    def test_columns_checked(self, scores, true_class, lam):
        with pytest.raises(ValueError):
            detector_loss(scores, true_class, _NO_OFFSETS, _NO_OFFSETS, lam)

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
                    samples.append(_negative_sample(float(rng.normal(0, 4))))
            loss = _rpn(samples, LossConfig(lam=float(rng.uniform(0, 3)),
                                            n_cls=len(samples), n_reg=len(samples)))
            assert math.isfinite(loss) and loss >= 0.0

            det = _foreground_sample(
                tuple(rng.normal(0, 4, size=3)),
                pred_v=rng.normal(0, 2, size=4),
                pred_t=rng.normal(0, 2, size=4),
                tgt_v=rng.normal(0, 2, size=4),
                tgt_t=rng.normal(0, 2, size=4),
            )
            (dloss,) = _detector([det], lam=float(rng.uniform(0, 3)))
            assert math.isfinite(dloss) and dloss >= 0.0


def _bits(values) -> list[int]:
    return np.array(values, dtype=np.float64).reshape(-1).view(np.int64).tolist()


# logits and scores at +-0.0 and +-1e308, where a difference overflows; offsets
# whose differences sit at the smooth-L1 kink or one ulp either side, and in
# half the batches also at +-1e308, where the loss is infinite
_LOGITS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, -1e308]), st.floats(-50, 50),
                    st.floats(allow_nan=False, allow_infinity=False))
_NEAR_OFFSETS = st.one_of(_KINK_VALUES, st.floats(-3, 3))
_WIDE_OFFSETS = st.one_of(_NEAR_OFFSETS, st.sampled_from([1e308, -1e308]))


def _pairs(offsets):
    return st.tuples(st.tuples(*[offsets] * 4), st.tuples(*[offsets] * 4))


def _batches(sample):
    """Lists of up to 12 samples drawn by ``sample(pairs)``, all from the near or all from the wide offsets."""
    return st.sampled_from([_NEAR_OFFSETS, _WIDE_OFFSETS]).flatmap(
        lambda offsets: st.lists(sample(_pairs(offsets)), max_size=12))


_RPN_SAMPLES = _batches(lambda pairs: st.tuples(_LOGITS, st.sampled_from([0, 1]), pairs, pairs))
_DET_SAMPLES = _batches(lambda pairs: st.integers(1, 5).flatmap(lambda k: st.tuples(
    st.lists(_LOGITS, min_size=k, max_size=k), st.integers(0, k - 1), pairs, pairs)))
_LAMBDAS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5]), st.floats(0, 10))


class TestColumnLossesMatchOracles:
    @pytest.mark.filterwarnings("error")  # an overflow must not leak a numpy warning
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_RPN_SAMPLES, _LAMBDAS, st.integers(1, 3000), st.integers(1, 3000))
    def test_rpn_loss_equals_the_per_sample_form_bit_for_bit(self, samples, lam, n_cls, n_reg):
        got = _rpn(samples, LossConfig(lam=lam, n_cls=n_cls, n_reg=n_reg))
        assert _bits(got) == _bits(naive_rpn_loss(samples, lam, n_cls, n_reg))

    @pytest.mark.filterwarnings("error")
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_DET_SAMPLES, _LAMBDAS)
    def test_detector_loss_equals_the_per_sample_form_bit_for_bit(self, samples, lam):
        got = _detector(samples, lam)
        assert _bits(got) == _bits([naive_detector_loss(*s, lam) for s in samples])
