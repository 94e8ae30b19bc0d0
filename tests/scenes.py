"""Hand-built scenes shared between the unit and acceptance tests."""

from __future__ import annotations

import numpy as np

from pairbox.evaluation import (
    OCCLUSION_LEVELS,
    DatasetMeta,
    DetectionTable,
    FrameAnnotations,
    FrameDetections,
    GtObject,
    GtTable,
)
from pairbox.geometry import Box, PairedBox, boxes_to_array
from pairbox.pairnms import Detection, paired_nms


def gt(x, y, w=20.0, h=60.0, occlusion="none", dx_thermal=0.0):
    box_v = Box(x, y, w, h)
    box_t = Box(x + dx_thermal, y, w, h)
    return GtObject(PairedBox(box_v, box_t), occlusion=occlusion)


def gt_table(frames, meta=DatasetMeta()) -> GtTable:
    """Pack frames of annotation objects into one table."""
    frames = list(frames)
    objects = [o for f in frames for o in f.objects]
    rows = [o.pair.visible.as_tuple() + o.pair.thermal.as_tuple() for o in objects]
    return GtTable([f.frame_id for f in frames], np.cumsum([0] + [len(f.objects) for f in frames]),
                   np.array(rows, dtype=np.float64).reshape(-1, GtTable.ROW_LO.size),
                   [OCCLUSION_LEVELS.index(o.occlusion) for o in objects],
                   [o.ignore for o in objects], meta)


def detection_table(frames) -> DetectionTable:
    """Pack frames of detection objects into one table."""
    frames = list(frames)
    rows = [d.pair.visible.as_tuple() + d.pair.thermal.as_tuple() + (d.score,)
            for fd in frames for d in fd.detections]
    return DetectionTable(
        [fd.frame_id for fd in frames],
        np.cumsum([0] + [len(fd.detections) for fd in frames]),
        np.array(rows, dtype=np.float64).reshape(-1, DetectionTable.ROW_LO.size),
    )


def det_at(x, y, score, w=20.0, h=60.0):
    return Detection(PairedBox.aligned(Box(x, y, w, h)), score)


def nms_detections(dets, iou_thresh, max_keep=None):
    """``paired_nms`` on a list of detection objects: the kept objects
    themselves, in kept order."""
    keep = paired_nms(
        boxes_to_array(d.pair.thermal for d in dets), [d.score for d in dets],
        iou_thresh, max_keep,
    )
    return [dets[i] for i in keep]


def four_frame_fixture():
    """Four frames with one TP each of score 0.9/0.7, one FP at 0.8 and 0.5,
    and one detection absorbed by a heavy-occlusion ignore region at 0.6.

    Hand enumeration (3 evaluable GTs, 4 frames) gives the curve
      (0.9, fppi 0.00, miss 2/3), (0.8, 0.25, 2/3), (0.7, 0.25, 1/3),
      (0.6, 0.25, 1/3), (0.5, 0.50, 1/3)
    and log-average miss rate (2/3)^(6/9) * (1/3)^(3/9) = 0.5291336839893998.
    """
    annotations = [
        FrameAnnotations("f1", (gt(100, 100),)),
        FrameAnnotations("f2", (gt(200, 100),)),
        FrameAnnotations("f3", (gt(100, 100), gt(400, 100, occlusion="heavy"))),
        FrameAnnotations("f4", ()),
    ]
    detections = [
        FrameDetections("f1", (det_at(100, 100, 0.9),)),
        FrameDetections("f2", (det_at(300, 100, 0.8),)),
        FrameDetections("f3", (det_at(100, 100, 0.7), det_at(400, 100, 0.6))),
        FrameDetections("f4", (det_at(50, 50, 0.5),)),
    ]
    return annotations, detections


FOUR_FRAME_CURVE = [
    (0.9, 0.00, 2.0 / 3.0),
    (0.8, 0.25, 2.0 / 3.0),
    (0.7, 0.25, 1.0 / 3.0),
    (0.6, 0.25, 1.0 / 3.0),
    (0.5, 0.50, 1.0 / 3.0),
]

FOUR_FRAME_LAMR = 0.5291336839893998


def perfect_detections(annotations):
    """Every evaluable and ignored GT echoed back as a score-1 detection pair."""
    out = []
    for frame in annotations:
        dets = tuple(Detection(obj.pair, 1.0) for obj in frame.objects)
        out.append(FrameDetections(frame.frame_id, dets))
    return out
