"""Non-maximum suppression over scored paired boxes.

Suppression is decided on the thermal boxes only (the reference modality);
when a thermal box is suppressed its visible partner goes with it, so paired
relations survive. The kept thermal set is exactly what a standard greedy
NMS on the thermal boxes alone would keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
# boxes_to_array is unused here, but perfbench/spans.py wraps it under this module's name
from .geometry import PairedBox, boxes_to_array  # noqa: F401

__all__ = ["Detection", "paired_nms"]


@dataclass(frozen=True)
class Detection:
    """A scored paired detection."""

    pair: PairedBox
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score) or not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be a finite value in [0, 1], got {self.score!r}")


def paired_nms(thermal, scores, iou_thresh: float, max_keep: Optional[int] = None) -> np.ndarray:
    """Greedy score-descending NMS on thermal boxes; returns the kept rows.

    ``thermal`` is the (N, 4) array of the detections' thermal boxes and
    ``scores`` their (N,) column. A row stands for the whole pair, so
    dropping it drops the visible partner too. Rows are visited by
    descending score (ties broken by row index, earlier wins); a row is
    suppressed when its thermal IoU with an already-kept row strictly
    exceeds ``iou_thresh``. The kept row indices are returned in visiting
    order, truncated to ``max_keep`` if given.
    """
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError(f"iou_thresh must lie in [0, 1], got {iou_thresh!r}")
    if max_keep is not None and max_keep < 0:
        raise ValueError("max_keep must be >= 0")
    scores = np.asarray(scores, dtype=np.float64)
    if len(thermal) != len(scores):
        raise ValueError("thermal boxes and scores must have equal lengths")
    order = np.argsort(-scores, kind="stable")
    return _kernels.nms_keep(thermal, order, float(iou_thresh))[:max_keep]
