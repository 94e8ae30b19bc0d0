"""Box-offset encoding and the two-stage detection losses with gradients.

Offsets (tx, ty, tw, th) use the standard center/log-size parameterization,
as float64 arrays of shape ``(..., 4)``. The proposal-stage loss is a
normalized objectness cross-entropy plus one smooth-L1 regression term per
modality; the detection-head loss is a softmax cross-entropy over classes
plus the same two regression terms, gated off for background samples.
Both take a mini-batch as columns, the offsets of its regressed samples as
``(p, 2, 4)`` arrays stacked as (visible, thermal).
Gradients are derived by hand (no autodiff dependency) and checked against
central finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .geometry import Box

__all__ = [
    "LossConfig",
    "BACKGROUND_CLASS",
    "as_offsets",
    "encode_box",
    "decode_box",
    "smooth_l1",
    "cross_entropy",
    "rows_by_length",
    "rpn_loss",
    "detector_loss",
]

# detection-head class index treated as "not an object"
BACKGROUND_CLASS = 0


def as_offsets(values) -> np.ndarray:
    """Four finite regression offsets (tx, ty, tw, th) as a float64 ``(4,)`` array."""
    if isinstance(values, (str, bytes)):  # iterable, but its characters are no offsets
        raise TypeError(f"expected 4 offset values, got {type(values).__name__}")
    offsets = np.array(values, dtype=np.float64)
    if offsets.shape != (4,):
        raise ValueError(f"expected 4 offset values, got shape {offsets.shape}")
    if not np.isfinite(offsets).all():
        raise ValueError("box offsets must be finite")
    return offsets


def encode_box(anchor: Box, target: Box) -> np.ndarray:
    """Offsets (tx, ty, tw, th) that move ``anchor`` onto ``target``.

    tx, ty are the center shift in units of the anchor size; tw, th are log
    size ratios. Both boxes must have positive extents.
    """
    if anchor.w <= 0 or anchor.h <= 0:
        raise ValueError("encode_box requires a positive-extent anchor")
    if target.w <= 0 or target.h <= 0:
        raise ValueError("encode_box requires a positive-extent target")
    acx, acy = anchor.center
    tcx, tcy = target.center
    return np.array([
        (tcx - acx) / anchor.w,
        (tcy - acy) / anchor.h,
        math.log(target.w / anchor.w),
        math.log(target.h / anchor.h),
    ])


def decode_box(anchor: Box, offsets) -> Box:
    """Inverse of :func:`encode_box`: apply (tx, ty, tw, th) to an anchor."""
    if anchor.w <= 0 or anchor.h <= 0:
        raise ValueError("decode_box requires a positive-extent anchor")
    tx, ty, tw, th = as_offsets(offsets).tolist()
    cx = tx * anchor.w + (anchor.x + 0.5 * anchor.w)
    cy = ty * anchor.h + (anchor.y + 0.5 * anchor.h)
    w = anchor.w * math.exp(tw)
    h = anchor.h * math.exp(th)
    return Box(cx - 0.5 * w, cy - 0.5 * h, w, h)


def smooth_l1(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smooth-L1 loss of each ``(..., 4)`` offset row, with d(loss)/d(pred).

    Per coordinate: 0.5*x^2 for |x| < 1, |x| - 0.5 otherwise, with
    x = pred - target; a row's loss is summed left to right.
    """
    with np.errstate(over="ignore"):  # far-apart finite offsets give an infinite loss
        x = np.subtract(pred, target, dtype=np.float64)
        inner = np.abs(x) < 1.0
        per = np.where(inner, 0.5 * x * x, np.abs(x) - 0.5)
        loss = per[..., 0] + per[..., 1] + per[..., 2] + per[..., 3]
    return loss, np.where(inner, x, np.copysign(1.0, x))


def cross_entropy(logits, labels) -> tuple[np.ndarray, np.ndarray]:
    """Softmax cross-entropy of each row of an ``(m, k)`` block of logits,
    row ``i`` against class ``labels[i]``, with the gradient w.r.t. the logits.

    loss = -log softmax(row)[label], computed via the log-sum-exp trick;
    grad = softmax(row) - one_hot(label). The log is ``math.log`` of each
    row's sum, as the reductions along a row are exact or row-local.
    """
    z = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if z.ndim != 2 or z.shape[1] == 0:
        raise ValueError("logits must be an (m, k) block with k >= 1")
    if labels.shape != (len(z),) or not ((0 <= labels) & (labels < z.shape[1])).all():
        raise ValueError(f"labels must be one class in [0, {z.shape[1]}) per row of logits")
    rows = np.arange(len(z))
    m = z.max(axis=1)
    # logits far below the maximum give exp(-inf) = 0; far-apart ones an infinite loss
    with np.errstate(over="ignore"):
        exps = np.exp(z - m[:, None])
        total = exps.sum(axis=1)
        loss = (m + np.array(list(map(math.log, total.tolist())))) - z[rows, labels]
    grad = exps / total[:, None]
    grad[rows, labels] -= 1.0
    return loss, grad


def rows_by_length(rows) -> list[tuple[np.ndarray, np.ndarray]]:
    """Ragged ``rows`` grouped by length, shortest first: each group's row
    indices and its ``(g, k)`` block, for one :func:`cross_entropy` call."""
    sizes = np.array([len(row) for row in rows], dtype=np.int64)
    groups = [np.flatnonzero(sizes == k) for k in np.unique(sizes).tolist()]
    return [(g, np.array([rows[i] for i in g.tolist()], dtype=np.float64)) for g in groups]


def _objectness_cross_entropy(logit: float, label: int) -> float:
    """Two-class cross-entropy from a single object-vs-background logit.

    Equivalent to softmax CE over (logit, 0), i.e. -log(sigmoid(logit)) for
    positives and -log(1 - sigmoid(logit)) for negatives, evaluated stably.
    """
    # softplus(-logit) for positives, softplus(logit) for negatives
    x = -logit if label == 1 else logit
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _regression_terms(pred, target, count: int) -> np.ndarray:
    """The ``(count, 2)`` visible and thermal smooth-L1 terms of ``count``
    regressed samples, whose offsets are ``(count, 2, 4)`` arrays stacked
    as (visible, thermal)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != (count, 2, 4) or target.shape != (count, 2, 4):
        raise ValueError(f"expected ({count}, 2, 4) offsets for {count} regressed samples, "
                         f"got {pred.shape} and {target.shape}")
    if not (np.isfinite(pred).all() and np.isfinite(target).all()):
        raise ValueError("box offsets must be finite")
    return smooth_l1(pred, target)[0]


@dataclass(frozen=True)
class LossConfig:
    """Weights and normalizers for the proposal-stage loss.

    ``lam`` scales the regression term, ``n_cls`` normalizes the
    classification sum (mini-batch size) and ``n_reg`` normalizes the
    regression sums (number of anchor locations).
    """

    lam: float = 1.0
    n_cls: int = 256
    n_reg: int = 2400

    def __post_init__(self):
        if self.lam < 0 or not math.isfinite(self.lam):
            raise ValueError("lam must be finite and >= 0")
        if self.n_cls < 1:
            raise ValueError("n_cls must be >= 1")
        if self.n_reg < 1:
            raise ValueError("n_reg must be >= 1")


def rpn_loss(logits, labels, pred, target, cfg: LossConfig) -> float:
    """Proposal-stage loss over a mini-batch of anchor-pair samples.

    ``logits`` and ``labels`` are ``(n,)`` columns, a label being 1
    (positive) or 0 (negative); ``pred`` and ``target`` hold the offsets of
    the positives only, in sample order, as ``(p, 2, 4)`` arrays stacked as
    (visible, thermal). The loss is (1/n_cls) * sum of objectness
    cross-entropies, plus lam * (1/n_reg) * (sum of visible + sum of
    thermal smooth-L1 terms). Each sum runs left to right in sample order,
    so results are bit-stable.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 1 or labels.shape != logits.shape:
        raise ValueError(f"logits and labels must be (n,) columns, got {logits.shape} and {labels.shape}")
    if not np.isfinite(logits).all():
        raise ValueError("objectness logits must be finite")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    reg = _regression_terms(pred, target, int(np.count_nonzero(labels == 1)))
    cls_sum = 0.0
    for logit, label in zip(logits.tolist(), labels.tolist()):
        cls_sum += _objectness_cross_entropy(logit, label)
    reg_v = reg_t = 0.0
    for loc_v, loc_t in reg.tolist():
        reg_v += loc_v
        reg_t += loc_t
    return cls_sum / cfg.n_cls + cfg.lam * ((reg_v + reg_t) / cfg.n_reg)


def detector_loss(scores, true_class, pred, target, lam: float = 1.0) -> np.ndarray:
    """Detection-head loss of each RoI-pair sample, as an ``(m,)`` array.

    ``scores`` holds one row of logits over all classes, background (class
    0) included, per sample; rows may differ in length. ``true_class`` is
    the ``(m,)`` column of classes. ``pred`` and ``target`` hold the offsets
    of the foreground samples only, in sample order, as ``(p, 2, 4)``
    arrays stacked as (visible, thermal). A sample's loss is its
    classification cross-entropy plus, for foreground samples only,
    lam * (visible + thermal smooth-L1 localization terms).
    """
    if lam < 0 or not math.isfinite(lam):
        raise ValueError("lam must be finite and >= 0")
    true_class = np.asarray(true_class)
    sizes = np.array([len(row) for row in scores], dtype=np.int64)
    if true_class.shape != sizes.shape:
        raise ValueError(f"expected one true_class per row of scores, got shape {true_class.shape}")
    if not (sizes > 0).all():
        raise ValueError("class_scores must be non-empty")
    if not ((0 <= true_class) & (true_class < sizes)).all():
        raise ValueError("true_class out of range for its class_scores")
    if len(sizes) and not np.isfinite(np.concatenate(scores)).all():
        raise ValueError("class_scores must be finite")
    foreground = true_class != BACKGROUND_CLASS
    reg = _regression_terms(pred, target, int(np.count_nonzero(foreground)))
    loss = np.empty(len(sizes))
    for group, block in rows_by_length(scores):
        loss[group] = cross_entropy(block, true_class[group])[0]
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: inf, and 0 * inf = NaN
        loss[foreground] += lam * (reg[:, 0] + reg[:, 1])
    return loss
