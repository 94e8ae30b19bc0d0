"""Non-maximum suppression over scored paired boxes.

Suppression is decided on the thermal boxes only (the reference modality);
when a thermal box is suppressed its visible partner goes with it, so paired
relations survive. The kept thermal set is exactly what a standard greedy
NMS on the thermal boxes alone would keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .geometry import PairedBox, boxes_to_array

__all__ = ["Detection", "paired_nms"]


@dataclass(frozen=True)
class Detection:
    """A scored paired detection."""

    pair: PairedBox
    score: float
    class_id: int = 0

    def __post_init__(self):
        if not math.isfinite(self.score) or not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be a finite value in [0, 1], got {self.score!r}")


def paired_nms(
    dets: Sequence[Detection],
    iou_thresh: float,
    max_keep: Optional[int] = None,
) -> list[Detection]:
    """Greedy score-descending NMS on thermal boxes, carrying pairs along.

    Within each class, detections are visited by descending score (ties
    broken by input index, earlier wins); a detection is suppressed when its
    thermal IoU with an already-kept detection strictly exceeds
    ``iou_thresh``. Kept detections are returned unmodified, sorted by
    descending score (same tie rule), truncated to ``max_keep`` if given.
    """
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError(f"iou_thresh must lie in [0, 1], got {iou_thresh!r}")
    if max_keep is not None and max_keep < 0:
        raise ValueError("max_keep must be >= 0")
    thermal = boxes_to_array(d.pair.thermal for d in dets)
    scores = np.asarray([d.score for d in dets], dtype=np.float64)
    classes = np.asarray([d.class_id for d in dets])
    order = np.argsort(-scores, kind="stable")
    keep = np.zeros(len(dets), dtype=bool)
    for class_id in np.unique(classes):
        in_class = order[classes[order] == class_id]
        keep[_kernels.nms_keep(thermal, in_class, float(iou_thresh))] = True
    return [dets[i] for i in order[keep[order]][:max_keep]]
