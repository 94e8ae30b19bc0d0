"""Box-offset encoding and the two-stage detection losses with gradients.

Offsets (tx, ty, tw, th) use the standard center/log-size parameterization,
as float64 arrays of shape ``(..., 4)``. The proposal-stage loss is a
normalized objectness cross-entropy plus one smooth-L1 regression term per
modality; the detection-head loss is a softmax cross-entropy over classes
plus the same two regression terms, gated off for background samples.
Gradients are derived by hand (no autodiff dependency) and checked against
central finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import Box

__all__ = [
    "RpnSample",
    "DetectorSample",
    "LossConfig",
    "BACKGROUND_CLASS",
    "as_offsets",
    "encode_box",
    "decode_box",
    "smooth_l1",
    "cross_entropy",
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


def cross_entropy(logits: Sequence[float] | np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy with gradient w.r.t. the logits.

    loss = -log softmax(logits)[label], computed via the log-sum-exp trick;
    grad = softmax(logits) - one_hot(label).
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("logits must be a non-empty 1-D vector")
    if not 0 <= label < z.size:
        raise ValueError(f"label {label} out of range for {z.size} classes")
    m = float(z.max())
    exps = np.exp(z - m)
    total = float(exps.sum())
    loss = (m + math.log(total)) - float(z[label])
    grad = exps / total
    grad[label] -= 1.0
    return loss, grad


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


_OFFSET_FIELDS = ("pred_offsets_v", "pred_offsets_t", "target_offsets_v", "target_offsets_t")


def _check_offsets(sample, regressed: bool, kind: str, other: str) -> None:
    """Store each given offsets field through :func:`as_offsets`. A ``kind``
    sample (``regressed``) must carry all four offsets; an ``other`` sample
    must carry no regression targets."""
    for name in _OFFSET_FIELDS:
        if getattr(sample, name) is not None:
            object.__setattr__(sample, name, as_offsets(getattr(sample, name)))
    if regressed:
        missing = [name for name in _OFFSET_FIELDS if getattr(sample, name) is None]
        if missing:
            raise ValueError(f"{kind} sample missing offsets: {', '.join(missing)}")
    elif sample.target_offsets_v is not None or sample.target_offsets_t is not None:
        raise ValueError(f"{other} samples must not carry regression targets")


@dataclass(frozen=True, eq=False)
class RpnSample:
    """One anchor-pair sample for the proposal-stage loss.

    ``label`` is 1 (positive) or 0 (negative). Positive samples must carry
    predicted and target offsets for both modalities, each stored as a
    ``(4,)`` array by :func:`as_offsets`; negative samples carry no targets.
    """

    objectness_logit: float
    label: int
    pred_offsets_v: Optional[np.ndarray] = None
    pred_offsets_t: Optional[np.ndarray] = None
    target_offsets_v: Optional[np.ndarray] = None
    target_offsets_t: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")
        if not math.isfinite(self.objectness_logit):
            raise ValueError("objectness logit must be finite")
        _check_offsets(self, self.label == 1, "positive", "negative")


@dataclass(frozen=True, eq=False)
class DetectorSample:
    """One RoI-pair sample for the detection-head loss.

    ``class_scores`` are logits over all classes including background
    (class 0). Foreground samples must carry predicted and target offsets
    for both modalities.
    """

    class_scores: tuple[float, ...]
    true_class: int
    pred_offsets_v: Optional[np.ndarray] = None
    pred_offsets_t: Optional[np.ndarray] = None
    target_offsets_v: Optional[np.ndarray] = None
    target_offsets_t: Optional[np.ndarray] = None

    def __post_init__(self):
        if len(self.class_scores) == 0:
            raise ValueError("class_scores must be non-empty")
        if not 0 <= self.true_class < len(self.class_scores):
            raise ValueError(
                f"true_class {self.true_class} out of range for {len(self.class_scores)} classes"
            )
        _check_offsets(self, self.is_foreground, "foreground", "background")

    @property
    def is_foreground(self) -> bool:
        return self.true_class != BACKGROUND_CLASS


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


def rpn_loss(samples: Sequence[RpnSample], cfg: LossConfig) -> float:
    """Proposal-stage loss over a mini-batch of anchor-pair samples.

    (1/n_cls) * sum of objectness cross-entropies, plus
    lam * (1/n_reg) * (sum of visible + sum of thermal smooth-L1 terms),
    where only positive samples contribute regression terms. Summation
    order is fixed so results are bit-stable.
    """
    cls_sum = 0.0
    reg_v = 0.0
    reg_t = 0.0
    for s in samples:
        cls_sum += _objectness_cross_entropy(s.objectness_logit, s.label)
        if s.label == 1:
            reg_v += float(smooth_l1(s.pred_offsets_v, s.target_offsets_v)[0])
            reg_t += float(smooth_l1(s.pred_offsets_t, s.target_offsets_t)[0])
    return cls_sum / cfg.n_cls + cfg.lam * ((reg_v + reg_t) / cfg.n_reg)


def detector_loss(sample: DetectorSample, lam: float = 1.0) -> float:
    """Detection-head loss for one RoI-pair sample.

    Classification cross-entropy plus, for foreground samples only,
    lam * (visible + thermal smooth-L1 localization terms).
    """
    if lam < 0 or not math.isfinite(lam):
        raise ValueError("lam must be finite and >= 0")
    cls_loss, _ = cross_entropy(sample.class_scores, sample.true_class)
    if not sample.is_foreground:
        return cls_loss
    loc_v = float(smooth_l1(sample.pred_offsets_v, sample.target_offsets_v)[0])
    loc_t = float(smooth_l1(sample.pred_offsets_t, sample.target_offsets_t)[0])
    return cls_loss + lam * (loc_v + loc_t)
