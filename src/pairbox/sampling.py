"""Training-sample assignment for paired boxes and mini-batch drawing.

Anchor pairs and RoI pairs are labeled positive/negative/ignore from their
best multi-modal IoU against the ground-truth pairs, then mini-batches are
drawn with a capped positive fraction. Assignment is pure; sampling takes an
explicit seeded random source. Anchors and RoIs are (visible, thermal) pairs
of (N, 4) arrays, as ``generate_anchor_grid`` and ``pairs_to_arrays`` return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import PairedBox, iou_multimodal_matrix, pairs_to_arrays

__all__ = [
    "POSITIVE",
    "NEGATIVE",
    "IGNORE",
    "AssignmentConfig",
    "AssignmentResult",
    "assign_rpn",
    "assign_detector",
    "sample_minibatch",
    "generate_anchor_grid",
    "MAX_ANCHORS",
]

POSITIVE = 1
NEGATIVE = 0
IGNORE = -1

# largest grid generate_anchor_grid builds (a 1-px stride over 640x512 with 3 heights: 983,040)
MAX_ANCHORS = 1_000_000


@dataclass(frozen=True)
class AssignmentConfig:
    """Labelling thresholds for the two assignment stages.

    Proposal stage: positive above ``rpn_pos_thresh`` (strict), negative
    below ``rpn_neg_thresh`` (strict), ignore in between. Detection stage:
    positive at or above ``det_pos_thresh``, negative inside
    [det_neg_lo, det_neg_hi), ignore below the band.
    """

    rpn_pos_thresh: float = 0.63
    rpn_neg_thresh: float = 0.3
    det_pos_thresh: float = 0.5
    det_neg_lo: float = 0.1
    det_neg_hi: float = 0.5
    match_best_anchor_per_gt: bool = False

    def __post_init__(self):
        if not 0.0 <= self.rpn_neg_thresh <= self.rpn_pos_thresh <= 1.0:
            raise ValueError("need 0 <= rpn_neg_thresh <= rpn_pos_thresh <= 1")
        if not 0.0 <= self.det_neg_lo < self.det_neg_hi <= 1.0:
            raise ValueError("need 0 <= det_neg_lo < det_neg_hi <= 1")
        if not self.det_neg_hi <= self.det_pos_thresh <= 1.0:
            raise ValueError("need det_neg_hi <= det_pos_thresh <= 1")


@dataclass(frozen=True, eq=False)
class AssignmentResult:
    """Per-candidate labels, matched GT indices and best overlaps.

    ``labels`` holds POSITIVE/NEGATIVE/IGNORE codes; ``matched_gt`` is the
    index of the best-overlapping GT for positive candidates and -1
    elsewhere; ``max_ioum`` is each candidate's best multi-modal IoU over
    all GT pairs (0 when there are none).
    """

    labels: np.ndarray
    matched_gt: np.ndarray
    max_ioum: np.ndarray


def _overlap_stats(candidates: tuple[np.ndarray, np.ndarray], gts: Sequence[PairedBox]):
    """Overlap matrix, best overlap and best GT index per candidate; with no
    GT the best overlap and the best GT index are 0."""
    cv, ct = candidates
    overlaps = iou_multimodal_matrix(cv, ct, *pairs_to_arrays(gts))
    max_ioum = overlaps.max(axis=1, initial=0.0)  # overlaps are never negative
    # ties resolve to the lowest GT index
    best_gt = overlaps.argmax(axis=1) if len(gts) else np.zeros(len(cv), dtype=np.int64)
    return overlaps, max_ioum, best_gt


def assign_rpn(
    anchors: tuple[np.ndarray, np.ndarray],
    gts: Sequence[PairedBox],
    cfg: AssignmentConfig = AssignmentConfig(),
) -> AssignmentResult:
    """Label anchor pairs against GT pairs by best multi-modal IoU.

    Positive strictly above ``rpn_pos_thresh``, negative strictly below
    ``rpn_neg_thresh``, ignore in between. With no GT pairs every anchor is
    negative. When ``cfg.match_best_anchor_per_gt`` is set, the
    first-best anchor of each GT (by lowest anchor index among maxima) is
    additionally forced positive provided its overlap is nonzero.
    """
    overlaps, max_ioum, best_gt = _overlap_stats(anchors, gts)
    n = len(max_ioum)
    labels = np.full(n, IGNORE, dtype=np.int8)
    labels[max_ioum > cfg.rpn_pos_thresh] = POSITIVE
    # with no GT all are negative, also where rpn_neg_thresh == 0 would give IGNORE
    labels[(max_ioum < cfg.rpn_neg_thresh) | (len(gts) == 0)] = NEGATIVE
    if cfg.match_best_anchor_per_gt and n > 0:
        for j in range(len(gts)):
            col = overlaps[:, j]
            i = int(col.argmax())
            if col[i] > 0.0:
                labels[i] = POSITIVE
    matched_gt = np.where(labels == POSITIVE, best_gt, -1).astype(np.int64)
    return AssignmentResult(labels=labels, matched_gt=matched_gt, max_ioum=max_ioum)


def assign_detector(
    rois: tuple[np.ndarray, np.ndarray],
    gts: Sequence[PairedBox],
    cfg: AssignmentConfig = AssignmentConfig(),
) -> AssignmentResult:
    """Label RoI pairs against GT pairs by best multi-modal IoU.

    Positive at or above ``det_pos_thresh``; negative inside
    [det_neg_lo, det_neg_hi); everything else (including RoIs below the
    negative band) is ignore. With no GT pairs the best overlap is 0, which
    falls below the band, so all RoIs are ignore unless ``det_neg_lo`` is 0.
    """
    _, max_ioum, best_gt = _overlap_stats(rois, gts)
    labels = np.full(len(max_ioum), IGNORE, dtype=np.int8)
    labels[(max_ioum >= cfg.det_neg_lo) & (max_ioum < cfg.det_neg_hi)] = NEGATIVE
    labels[max_ioum >= cfg.det_pos_thresh] = POSITIVE
    matched_gt = np.where(labels == POSITIVE, best_gt, -1).astype(np.int64)
    return AssignmentResult(labels=labels, matched_gt=matched_gt, max_ioum=max_ioum)


def sample_minibatch(
    result: AssignmentResult,
    batch: int,
    pos_fraction: float,
    rng: int | np.random.Generator,
) -> np.ndarray:
    """Draw a mini-batch of up to ``batch`` candidate indices, positives first.

    Samples up to ``int(batch * pos_fraction)`` positives uniformly without
    replacement and fills the remainder with negatives; scarce positives are
    compensated with extra negatives; scarce candidates give a smaller batch,
    and none an empty one. ``rng`` must be an explicit seed or generator so
    the draw is reproducible.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if not 0.0 < pos_fraction < 1.0:
        raise ValueError("pos_fraction must lie in (0, 1)")
    if rng is None:
        raise ValueError("a seed or np.random.Generator is required")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    pos = np.flatnonzero(result.labels == POSITIVE)
    neg = np.flatnonzero(result.labels == NEGATIVE)
    n_pos = min(pos.size, int(batch * pos_fraction))
    n_neg = min(neg.size, batch - n_pos)
    pos_sel = gen.permutation(pos)[:n_pos]
    neg_sel = gen.permutation(neg)[:n_neg]
    return np.concatenate([pos_sel, neg_sel])


def generate_anchor_grid(
    image_width: float,
    image_height: float,
    stride: float = 16.0,
    heights: Sequence[float] = (50.0, 100.0, 200.0),
    aspect: float = 0.41,
) -> tuple[np.ndarray, np.ndarray]:
    """Regular anchor grid as identical (visible, thermal) (N, 4) arrays.

    One anchor per (cell center, height) with width = aspect * height, in
    (row, column, height) order. Anchors may extend past the image border.
    A grid of more than ``MAX_ANCHORS`` anchors is refused before any is
    built, and so is a grid with a field a ``Box`` would refuse.
    """
    # written as "not > 0" so that NaN is refused too
    if not (image_width > 0 and image_height > 0 and stride > 0):
        raise ValueError("image dimensions and stride must be positive")
    if not (aspect > 0 and all(h > 0 for h in heights)):
        raise ValueError("aspect and anchor heights must be positive")
    # np.floor gives inf for a vanishing stride, where math.floor raises
    ny, nx = np.floor(image_height / stride), np.floor(image_width / stride)
    count = nx * ny * len(heights)
    if not count <= MAX_ANCHORS:  # an inf/inf cell count is NaN
        raise ValueError(f"anchor grid of {count:.4g} anchors exceeds the limit of {MAX_ANCHORS}")
    h = np.asarray(heights, dtype=np.float64)
    w = aspect * h
    # the scalar (i + 0.5) * stride - 0.5 * w, broadcast over (row, column, height)
    grid = np.empty((int(ny), int(nx), len(h), 4))
    grid[..., 0] = (np.arange(int(nx))[:, None] + 0.5) * stride - 0.5 * w
    grid[..., 1] = (np.arange(int(ny))[:, None, None] + 0.5) * stride - 0.5 * h
    grid[..., 2], grid[..., 3] = w, h
    anchors = grid.reshape(-1, 4)
    if not np.all(np.abs(anchors) <= 1e100):  # the Box bound; NaN fails it too
        raise ValueError("anchor box fields must be numbers within ±1e100")
    return anchors, anchors.copy()
