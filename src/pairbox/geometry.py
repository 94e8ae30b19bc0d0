"""Axis-aligned box arithmetic for paired visible/thermal annotations.

A box is (x, y, w, h) in pixel coordinates with the half-open convention
[x, x + w) x [y, y + h): boxes that touch only along an edge have zero
intersection, and the area of an integer box equals its pixel count.

Multi-modal IoU scores a pair of paired boxes by pooling both modalities:

    (inter_visible + inter_thermal) / (union_visible + union_thermal)

which always lies between the two per-modality IoU values (mediant
inequality) and degenerates to plain IoU when visible == thermal on both
sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels

__all__ = [
    "Box",
    "PairedBox",
    "area",
    "intersection_area",
    "iou",
    "iou_multimodal",
    "boxes_to_array",
    "pairs_to_arrays",
    "iou_matrix",
    "iou_multimodal_matrix",
    "iou_elementwise",
    "iou_multimodal_elementwise",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle: left edge, top edge, width, height (pixels).

    Zero-width or zero-height boxes are valid (shift simulation can clip a
    box down to nothing at an image border); negative extents are not.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("x", "y", "w", "h"):
            v = getattr(self, name)
            # the bound keeps every area, union and pooled union finite; NaN fails it too
            if not abs(v) <= 1e100:
                raise ValueError(f"box field {name!r} must be a number within ±1e100, got {v!r}")
        if self.w < 0 or self.h < 0:
            raise ValueError(f"box extents must be non-negative, got w={self.w}, h={self.h}")

    @property
    def center(self) -> tuple[float, float]:
        return self.x + 0.5 * self.w, self.y + 0.5 * self.h

    def translate(self, dx: float, dy: float) -> "Box":
        return Box(self.x + dx, self.y + dy, self.w, self.h)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)


@dataclass(frozen=True)
class PairedBox:
    """One object annotated in both modalities, possibly at different coordinates."""

    visible: Box
    thermal: Box

    @classmethod
    def aligned(cls, box: Box) -> "PairedBox":
        """Pair with the same box in both modalities."""
        return cls(box, box)


def area(b: Box) -> float:
    """Box area in square pixels."""
    return b.w * b.h


def intersection_area(a: Box, b: Box) -> float:
    """Overlap area of two boxes; 0 when disjoint or touching only at an edge."""
    iw = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    if iw <= 0.0:
        return 0.0
    ih = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ih <= 0.0:
        return 0.0
    return iw * ih


def iou(a: Box, b: Box) -> float:
    """Intersection over union, in [0, 1]; 0 when the union has zero area."""
    inter = intersection_area(a, b)
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union > 0.0 else 0.0


def iou_multimodal(gt: PairedBox, dt: PairedBox) -> float:
    """Multi-modal IoU of two paired boxes, in [0, 1].

    Pools intersections and unions across the two modalities:
    (I_visible + I_thermal) / (U_visible + U_thermal). Returns 0 when the
    pooled union has zero area.
    """
    inter_v = intersection_area(gt.visible, dt.visible)
    inter_t = intersection_area(gt.thermal, dt.thermal)
    union_v = gt.visible.w * gt.visible.h + dt.visible.w * dt.visible.h - inter_v
    union_t = gt.thermal.w * gt.thermal.h + dt.thermal.w * dt.thermal.h - inter_t
    num = inter_v + inter_t
    den = union_v + union_t
    return num / den if den > 0.0 else 0.0


def boxes_to_array(boxes: Iterable[Box]) -> np.ndarray:
    """Pack boxes into an (N, 4) float64 array of (x, y, w, h) rows."""
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


def pairs_to_arrays(pairs: Sequence[PairedBox]) -> tuple[np.ndarray, np.ndarray]:
    """Split paired boxes into (visible, thermal) (N, 4) arrays."""
    visible = boxes_to_array(p.visible for p in pairs)
    thermal = boxes_to_array(p.thermal for p in pairs)
    return visible, thermal


def iou_matrix(a, b) -> np.ndarray:
    """Pairwise IoU between (N, 4) and (M, 4) arrays of (x, y, w, h) boxes."""
    return _kernels.iou_matrix(a, b)


def iou_multimodal_matrix(a_visible, a_thermal, b_visible, b_thermal) -> np.ndarray:
    """Pairwise multi-modal IoU between two sets of paired boxes, as (N, M)."""
    return _kernels.ioum_matrix(a_visible, a_thermal, b_visible, b_thermal)


def iou_elementwise(a, b) -> np.ndarray:
    """Row-by-row IoU of two equal-length (N, 4) box arrays."""
    return _kernels.iou_elementwise(a, b)


def iou_multimodal_elementwise(a_visible, a_thermal, b_visible, b_thermal) -> np.ndarray:
    """Row-by-row multi-modal IoU of equal-length paired box arrays."""
    return _kernels.ioum_elementwise(a_visible, a_thermal, b_visible, b_thermal)
