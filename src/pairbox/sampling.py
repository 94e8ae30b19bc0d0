"""Training-sample assignment for paired boxes and mini-batch drawing.

Anchor pairs and RoI pairs are labeled positive/negative/ignore from their
best multi-modal IoU against the ground-truth pairs, then mini-batches are
drawn with a capped positive fraction. Assignment is pure; sampling takes an
explicit seeded random source. Anchors, RoIs and ground-truth pairs are
(visible, thermal) pairs of (N, 4) arrays, as ``generate_anchor_grid`` and
``pairs_to_arrays`` return.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

# overlap cells computed at once: 34 GT pairs of the default 3,840-anchor grid
from ._kernels._python import CELL_BUDGET
# pairs_to_arrays is unused here, but perfbench/spans.py wraps it under this module's name
from .geometry import iou_multimodal_matrix, pairs_to_arrays

__all__ = [
    "POSITIVE",
    "NEGATIVE",
    "IGNORE",
    "AssignmentConfig",
    "AssignmentResult",
    "OverlapStats",
    "frame_overlap_stats",
    "assign_rpn",
    "assign_detector",
    "sample_minibatch",
    "generate_anchor_grid",
    "MAX_ANCHORS",
    "CELL_BUDGET",
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


class OverlapStats(NamedTuple):
    """What labelling needs of the overlaps of n candidates with m GT pairs:
    each candidate's best overlap (0 with no GT) and the index of its first
    best GT (0 with no GT), and each GT's first best candidate (0 with no
    candidate) and that overlap (0 with no candidate)."""

    max_ioum: np.ndarray
    best_gt: np.ndarray
    gt_best: np.ndarray
    gt_max: np.ndarray


def frame_overlap_stats(candidates: tuple[np.ndarray, np.ndarray],
                        gts: tuple[np.ndarray, np.ndarray], offsets: Sequence[int]):
    """The :class:`OverlapStats` of ``candidates`` against each frame's GT
    pairs, frame ``k`` holding rows ``offsets[k]:offsets[k + 1]`` of ``gts``.

    The GTs are taken in blocks of at most ``CELL_BUDGET // n`` rows against
    all n candidates, whatever frames the rows belong to, so memory is bounded
    by the budget. A frame's running best per candidate is replaced only by a
    strictly larger overlap, so each statistic is the value and first index
    a whole frame's overlap matrix gives.
    """
    n = len(candidates[0])
    rows = max(1, CELL_BUDGET // max(n, 1))
    block_lo = block_hi = 0
    for lo, hi in zip(offsets, offsets[1:]):
        max_ioum, best_gt = np.zeros(n), np.zeros(n, dtype=np.int64)
        gt_best, gt_max = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
        c = lo
        while c < hi:
            if c >= block_hi:
                block_lo, block_hi = c, min(c + rows, offsets[-1])
                block = iou_multimodal_matrix(*candidates, gts[0][block_lo:block_hi],
                                              gts[1][block_lo:block_hi])
                # the first maximum: the lowest candidate index; overlaps are never negative
                block_best = block.argmax(axis=0) if n else np.zeros(block.shape[1], np.int64)
                block_max = block.max(axis=0, initial=0.0)
            end = min(hi, block_hi)
            cols = block[:, c - block_lo:end - block_lo]
            col_max = cols.max(axis=1, initial=0.0)
            better = col_max > max_ioum
            max_ioum = np.where(better, col_max, max_ioum)
            best_gt = np.where(better, cols.argmax(axis=1) + (c - lo), best_gt)
            gt_best.append(block_best[c - block_lo:end - block_lo])
            gt_max.append(block_max[c - block_lo:end - block_lo])
            c = end
        yield OverlapStats(max_ioum, best_gt, np.concatenate(gt_best), np.concatenate(gt_max))


def _overlap_stats(candidates, gts) -> OverlapStats:
    (stats,) = frame_overlap_stats(candidates, gts, [0, len(gts[0])])
    return stats


def assign_rpn(
    anchors: tuple[np.ndarray, np.ndarray],
    gts: tuple[np.ndarray, np.ndarray],
    cfg: AssignmentConfig = AssignmentConfig(),
    stats: Optional[OverlapStats] = None,
) -> AssignmentResult:
    """Label anchor pairs against GT pairs by best multi-modal IoU.

    Positive strictly above ``rpn_pos_thresh``, negative strictly below
    ``rpn_neg_thresh``, ignore in between. With no GT pairs every anchor is
    negative. When ``cfg.match_best_anchor_per_gt`` is set, the
    first-best anchor of each GT (by lowest anchor index among maxima) is
    additionally forced positive provided its overlap is nonzero.
    ``stats`` are the overlap statistics of ``anchors`` against ``gts``, if
    :func:`frame_overlap_stats` has taken them already.
    """
    max_ioum, best_gt, gt_best, gt_max = stats or _overlap_stats(anchors, gts)
    labels = np.full(len(max_ioum), IGNORE, dtype=np.int8)
    labels[max_ioum > cfg.rpn_pos_thresh] = POSITIVE
    # with no GT all are negative, also where rpn_neg_thresh == 0 would give IGNORE
    labels[(max_ioum < cfg.rpn_neg_thresh) | (len(gt_max) == 0)] = NEGATIVE
    if cfg.match_best_anchor_per_gt:
        labels[gt_best[gt_max > 0.0]] = POSITIVE
    matched_gt = np.where(labels == POSITIVE, best_gt, -1).astype(np.int64)
    return AssignmentResult(labels=labels, matched_gt=matched_gt, max_ioum=max_ioum)


def assign_detector(
    rois: tuple[np.ndarray, np.ndarray],
    gts: tuple[np.ndarray, np.ndarray],
    cfg: AssignmentConfig = AssignmentConfig(),
    stats: Optional[OverlapStats] = None,
) -> AssignmentResult:
    """Label RoI pairs against GT pairs by best multi-modal IoU.

    Positive at or above ``det_pos_thresh``; negative inside
    [det_neg_lo, det_neg_hi); everything else (including RoIs below the
    negative band) is ignore. With no GT pairs the best overlap is 0, which
    falls below the band, so all RoIs are ignore unless ``det_neg_lo`` is 0.
    ``stats`` are as :func:`assign_rpn` takes them.
    """
    max_ioum, best_gt, _, _ = stats or _overlap_stats(rois, gts)
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
    and none an empty one. ``batch`` may not exceed the largest float.
    ``rng`` must be an explicit seed or generator so the draw is reproducible.
    """
    if not 1 <= batch <= sys.float_info.max:  # batch * pos_fraction is a float
        raise ValueError("batch must be >= 1 and at most the largest float")
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
    # overflows give inf, and NaN where inf meets 0, which the bounds below refuse
    with np.errstate(over="ignore", invalid="ignore"):
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
