"""Detection evaluation: reasonable-subset filtering, greedy matching under a
selectable IoU variant, FPPI/miss-rate curves, and log-average miss rate.

The protocol mirrors the standard pedestrian-benchmark recipe. Ground truth
below the height cutoff or under heavy occlusion becomes an ignore region:
it absorbs detections (neither true nor false positives) but is never a
miss. Matching is greedy in descending score order and one-to-one against
evaluable ground truth; the score sweep then walks the distinct detection
scores, which is equivalent to re-matching at every threshold because a
detection's match never depends on lower-scored detections.

The log-average miss rate is the geometric mean of miss rates sampled at
nine reference FPPI values, log-evenly spaced over [1e-2, 1e0], using
conservative step interpolation (the miss rate at the largest achieved FPPI
not exceeding the reference).
"""

from __future__ import annotations

import bisect
import io
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .geometry import Box, PairedBox, boxes_to_array, iou_matrix, iou_multimodal_matrix
from .pairnms import Detection

__all__ = [
    "EvaluationError",
    "OCCLUSION_LEVELS",
    "VARIANTS",
    "GtObject",
    "FrameAnnotations",
    "FrameDetections",
    "DetectionTable",
    "FrameMatch",
    "CurvePoint",
    "MissRateCurve",
    "EvalConfig",
    "EvalEntry",
    "EvalReport",
    "DET_TP",
    "DET_FP",
    "DET_IGNORED",
    "DEFAULT_FPPI_REFS",
    "filter_reasonable",
    "match_frame",
    "miss_rate_curve",
    "log_average_miss_rate",
    "evaluate",
    "write_curve_csv",
]

FrameId = Union[str, int]

OCCLUSION_LEVELS = ("none", "partial", "heavy")
VARIANTS = ("visible", "thermal", "multimodal")

# per-detection outcome codes
DET_TP = 1
DET_FP = 0
DET_IGNORED = -1

# nine reference FPPI values, quarter-decade steps over [1e-2, 1e0]
DEFAULT_FPPI_REFS = tuple(10.0 ** (-2.0 + 0.25 * k) for k in range(9))


class EvaluationError(ValueError):
    """Raised for protocol-domain failures (as opposed to I/O or parsing)."""


@dataclass(frozen=True)
class GtObject:
    """One annotated object with its occlusion level and ignore flag."""

    pair: PairedBox
    occlusion: str = "none"
    ignore: bool = False

    def __post_init__(self):
        if self.occlusion not in OCCLUSION_LEVELS:
            raise ValueError(
                f"occlusion must be one of {OCCLUSION_LEVELS}, got {self.occlusion!r}"
            )


@dataclass(frozen=True)
class FrameAnnotations:
    """Ground truth for one image."""

    frame_id: FrameId
    objects: tuple[GtObject, ...]

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))


@dataclass(frozen=True)
class FrameDetections:
    """Scored detections for one image (possibly none)."""

    frame_id: FrameId
    detections: tuple[Detection, ...]

    def __post_init__(self):
        object.__setattr__(self, "detections", tuple(self.detections))


class DetectionTable(Sequence[FrameDetections]):
    """Scored paired detections of many frames, held as columns.

    ``v`` and ``t`` are (N, 4) float64 box arrays, ``score`` (N,) float64 and
    ``class_id`` (N,) int64; frame ``k`` has id ``frame_ids[k]`` and owns rows
    ``offsets[k]:offsets[k + 1]``. The table is a re-iterable sequence of
    :class:`FrameDetections`, each built from the columns when it is accessed.
    Frame ids are kept as given, duplicates included.
    """

    def __init__(self, frame_ids, offsets, v, t, score, class_id=None):
        self.frame_ids = list(frame_ids)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.v = np.ascontiguousarray(v, dtype=np.float64)
        self.t = np.ascontiguousarray(t, dtype=np.float64)
        self.score = np.ascontiguousarray(score, dtype=np.float64)
        n = len(self.score)
        if class_id is None:
            class_id = np.zeros(n, dtype=np.int64)
        self.class_id = np.ascontiguousarray(class_id, dtype=np.int64)
        if (
            self.offsets.shape != (len(self.frame_ids) + 1,)
            or self.offsets[0] != 0
            or self.offsets[-1] != n
            or np.any(np.diff(self.offsets) < 0)
            or not len(self.v) == len(self.t) == len(self.class_id) == n
        ):
            raise ValueError("detection columns and frame offsets do not agree")

    @classmethod
    def from_frames(cls, frames: Iterable[FrameDetections]) -> "DetectionTable":
        """Pack frames of detection objects into one table."""
        frames = list(frames)
        dets = [d for fd in frames for d in fd.detections]
        return cls(
            [fd.frame_id for fd in frames],
            np.cumsum([0] + [len(fd.detections) for fd in frames]),
            boxes_to_array(d.pair.visible for d in dets),
            boxes_to_array(d.pair.thermal for d in dets),
            [d.score for d in dets],
            [d.class_id for d in dets],
        )

    def take(self, rows: Sequence[np.ndarray]) -> "DetectionTable":
        """The table whose frame ``k`` holds this table's rows ``rows[k]``
        (row indices into the whole table), in that order."""
        index = np.concatenate([np.zeros(0, dtype=np.int64), *rows])
        return DetectionTable(
            self.frame_ids, np.cumsum([0] + [len(r) for r in rows]), self.v[index],
            self.t[index], self.score[index], self.class_id[index],
        )

    def __len__(self) -> int:
        return len(self.frame_ids)

    def __getitem__(self, k: int) -> FrameDetections:
        k = range(len(self))[k]  # negative indices; IndexError ends iteration
        lo, hi = int(self.offsets[k]), int(self.offsets[k + 1])
        dets = tuple(
            Detection(PairedBox(Box(*v), Box(*t)), s, c)
            for v, t, s, c in zip(
                self.v[lo:hi].tolist(), self.t[lo:hi].tolist(),
                self.score[lo:hi].tolist(), self.class_id[lo:hi].tolist(),
            )
        )
        return FrameDetections(self.frame_ids[k], dets)


def filter_reasonable(
    frames: Sequence[FrameAnnotations],
    min_height: float = 55.0,
    height_modality: str = "thermal",
) -> list[FrameAnnotations]:
    """Mark objects outside the reasonable subset as ignore regions.

    Objects at most ``min_height`` pixels tall (measured on the
    ``height_modality`` box) or under heavy occlusion are flagged ignore;
    they are kept, not dropped, so they can still absorb detections.
    """
    if height_modality not in ("visible", "thermal"):
        raise ValueError("height_modality must be 'visible' or 'thermal'")
    out = []
    for frame in frames:
        objects = []
        for obj in frame.objects:
            box = obj.pair.thermal if height_modality == "thermal" else obj.pair.visible
            keep_out = obj.ignore or obj.occlusion == "heavy" or box.h <= min_height
            objects.append(replace(obj, ignore=keep_out) if keep_out != obj.ignore else obj)
        out.append(FrameAnnotations(frame.frame_id, tuple(objects)))
    return out


def _overlap_matrix(dv, dt, gv, gt_, variant: str) -> np.ndarray:
    if variant == "visible":
        return iou_matrix(dv, gv)
    if variant == "thermal":
        return iou_matrix(dt, gt_)
    if variant == "multimodal":
        return iou_multimodal_matrix(dv, dt, gv, gt_)
    raise ValueError(f"unknown IoU variant {variant!r}, expected one of {VARIANTS}")


@dataclass(frozen=True, eq=False)
class FrameMatch:
    """Matching outcome for one frame.

    ``det_outcomes`` (DET_TP / DET_FP / DET_IGNORED) and
    ``det_matched_gt`` follow the input detection order; ``gt_detected``
    follows the input GT order and is always False for ignore regions.
    """

    scores: np.ndarray
    det_outcomes: np.ndarray
    det_matched_gt: np.ndarray
    gt_detected: np.ndarray
    n_evaluable: int


def match_frame(scores, overlaps, evaluable, thresh: float = 0.5) -> FrameMatch:
    """Greedily match detections to ground truth for one frame.

    Takes the float64 array of the N detection scores, their (N, M) overlap
    matrix with the GTs and the boolean mask of the evaluable (not ignore) GTs.
    Detections are visited by descending score (ties by input index). Each
    one claims the highest-overlap unmatched evaluable GT with overlap at or
    above ``thresh`` (overlap ties go to the lowest GT index); failing that,
    a detection overlapping any ignore region at or above ``thresh`` is
    discarded from scoring; the rest are false positives. Evaluable GTs left
    unclaimed are misses. ``thresh`` must lie in (0, 1], so a zero overlap
    never matches and a frame without ignore regions absorbs nothing. Only
    the candidates, detections with some evaluable overlap at or above
    ``thresh``, are visited: the others can claim no GT and free none.
    """
    if not 0.0 < thresh <= 1.0:
        raise ValueError(f"thresh must lie in (0, 1], got {thresh!r}")
    shape = (len(scores), len(evaluable))
    if overlaps.shape != shape:
        raise ValueError(f"overlaps must have shape {shape}, got {overlaps.shape}")
    matched_gt = np.full(len(scores), -1, dtype=np.int64)
    free = evaluable.copy()
    hit = overlaps >= thresh
    outcomes = np.where((hit & ~evaluable).any(axis=1), DET_IGNORED, DET_FP).astype(np.int8)
    candidates = (hit & evaluable).any(axis=1).nonzero()[0]
    # a stable sort of the candidates, in input order, keeps ties by input index
    for i in candidates[np.argsort(-scores[candidates], kind="stable")].tolist():
        row = np.where(free, overlaps[i], 0.0)
        j = int(row.argmax())  # the first maximum: overlap ties keep the lowest GT index
        if row[j] >= thresh:
            outcomes[i] = DET_TP
            matched_gt[i] = j
            free[j] = False
    n_evaluable = int(np.count_nonzero(evaluable))
    return FrameMatch(scores, outcomes, matched_gt, evaluable & ~free, n_evaluable)


@dataclass(frozen=True)
class CurvePoint:
    """One operating point of the detector at a given score threshold."""

    score_thresh: float
    fppi: float
    miss_rate: float
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True, eq=False)
class MissRateCurve:
    """Operating points as columns, one row per point.

    ``score_thresh``, ``fppi`` and ``miss_rate`` are float64 arrays and
    ``tp``, ``fp`` and ``fn`` int64 arrays of equal length; ``points``
    builds the :class:`CurvePoint` objects on first access.
    """

    score_thresh: np.ndarray
    fppi: np.ndarray
    miss_rate: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    n_frames: int
    n_evaluable: int

    @classmethod
    def from_points(cls, points: Sequence[CurvePoint], n_frames: int,
                    n_evaluable: int) -> "MissRateCurve":
        """A curve from hand-built points, kept in the given order."""
        def column(field, dtype):
            return np.array([getattr(p, field) for p in points], dtype=dtype)

        return cls(
            column("score_thresh", np.float64), column("fppi", np.float64),
            column("miss_rate", np.float64), column("tp", np.int64),
            column("fp", np.int64), column("fn", np.int64), n_frames, n_evaluable,
        )

    @cached_property
    def points(self) -> tuple[CurvePoint, ...]:
        return tuple(
            CurvePoint(*row)
            for row in zip(
                self.score_thresh.tolist(), self.fppi.tolist(), self.miss_rate.tolist(),
                self.tp.tolist(), self.fp.tolist(), self.fn.tolist(),
            )
        )


def miss_rate_curve(matches: Sequence[FrameMatch]) -> MissRateCurve:
    """Aggregate per-frame matches into an FPPI/miss-rate curve.

    One point per distinct detection score, in descending threshold order.
    At threshold t only detections with score >= t count. With no
    detections at all, a single all-miss point at threshold 1.0 is emitted
    (scores are bounded by 1).
    """
    n_frames = len(matches)
    n_gt = sum(m.n_evaluable for m in matches)
    if n_gt == 0:
        raise EvaluationError("miss rate undefined: no evaluable ground truth objects")
    scores = np.concatenate([m.scores for m in matches]) if matches else np.zeros(0)
    outcomes = (
        np.concatenate([m.det_outcomes for m in matches]) if matches else np.zeros(0, np.int8)
    )
    if scores.size == 0:
        point = CurvePoint(1.0, 0.0, 1.0, tp=0, fp=0, fn=n_gt)
        return MissRateCurve.from_points((point,), n_frames, n_gt)
    desc = np.argsort(-scores, kind="stable")
    scores = scores[desc]
    ends = np.flatnonzero(np.append(scores[1:] != scores[:-1], True))  # last of each tie group
    tp = np.cumsum(outcomes[desc] == DET_TP)[ends]
    fp = np.cumsum(outcomes[desc] == DET_FP)[ends]
    # IEEE divisions of exactly represented counts: the same bits as Python's int / int
    return MissRateCurve(
        scores[ends], fp / n_frames, (n_gt - tp) / n_gt, tp, fp, n_gt - tp, n_frames, n_gt
    )


def log_average_miss_rate(
    curve: MissRateCurve,
    refs: Sequence[float] = DEFAULT_FPPI_REFS,
    epsilon: float = 0.0,
) -> float:
    """Geometric mean of miss rates sampled at the reference FPPI values.

    Each reference takes the miss rate of the curve point with the largest
    FPPI not exceeding it (for duplicate FPPI values the last point in curve
    order wins); references below the smallest achieved FPPI take the miss
    rate at that smallest FPPI. Sampled rates are floored at ``epsilon``;
    with the default floor of 0 the mean is defined as 0 whenever any
    sampled rate is 0.
    """
    if curve.fppi.size == 0:
        raise EvaluationError("cannot average an empty curve")
    by_fppi = np.argsort(curve.fppi, kind="stable")  # keeps curve order within equal FPPIs
    xs, ys = curve.fppi[by_fppi], curve.miss_rate[by_fppi]
    last = np.append(xs[1:] != xs[:-1], True)  # the last point of each distinct FPPI
    xs, ys = xs[last].tolist(), ys[last].tolist()
    sampled = [max(ys[max(bisect.bisect_right(xs, r) - 1, 0)], epsilon) for r in refs]
    if any(s == 0.0 for s in sampled):
        return 0.0
    return float(math.exp(sum(math.log(s) for s in sampled) / len(sampled)))


@dataclass(frozen=True)
class EvalConfig:
    """Protocol parameters for a full evaluation run."""

    iou_thresholds: tuple[float, ...] = (0.5, 0.7)
    variants: tuple[str, ...] = VARIANTS
    min_height: float = 55.0
    height_modality: str = "thermal"
    mr_epsilon: float = 0.0
    fppi_refs: tuple[float, ...] = DEFAULT_FPPI_REFS

    def __post_init__(self):
        if not self.iou_thresholds or any(not 0.0 < t <= 1.0 for t in self.iou_thresholds):
            raise ValueError("iou_thresholds must be non-empty with values in (0, 1]")
        unknown = [v for v in self.variants if v not in VARIANTS]
        if unknown or not self.variants:
            raise ValueError(f"variants must be a non-empty subset of {VARIANTS}")


@dataclass(frozen=True)
class EvalEntry:
    """Curve and summary number for one (variant, IoU threshold) cell."""

    variant: str
    iou_thresh: float
    curve: MissRateCurve
    lamr: float


@dataclass(frozen=True)
class EvalReport:
    entries: tuple[EvalEntry, ...]

    def entry(self, variant: str, iou_thresh: float) -> EvalEntry:
        for e in self.entries:
            if e.variant == variant and e.iou_thresh == iou_thresh:
                return e
        raise KeyError(f"no entry for variant={variant!r}, iou_thresh={iou_thresh!r}")

    def lamr(self, variant: str, iou_thresh: float) -> float:
        return self.entry(variant, iou_thresh).lamr


def thread_count() -> int:
    """Number of threads ``evaluate`` matches frames on: always one."""
    return 1


def evaluate(
    annotations: Sequence[FrameAnnotations],
    detections: Union[DetectionTable, Sequence[FrameDetections]],
    config: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Run the full protocol over every configured variant and threshold.

    ``detections`` is a :class:`DetectionTable` or a sequence of
    :class:`FrameDetections`, which is packed into one. Detections must
    reference known frame ids; annotated frames without detections count as
    all-miss frames. Each frame's detections are sliced from the table, its
    GTs packed once, and it gets one overlap matrix per variant; frames are
    matched one after another (the matching is GIL-bound Python, so threads
    would not pay).
    """
    if not isinstance(detections, DetectionTable):
        detections = DetectionTable.from_frames(detections)
    ann_ids = [f.frame_id for f in annotations]
    if len(set(ann_ids)) != len(ann_ids):
        raise EvaluationError("duplicate frame ids in annotations")
    row_of: dict[FrameId, int] = {}
    for k, fid in enumerate(detections.frame_ids):
        if fid in row_of:
            raise EvaluationError(f"duplicate detection entries for frame {fid!r}")
        row_of[fid] = k
    ann_id_set = set(ann_ids)
    unknown = [fid for fid in row_of if fid not in ann_id_set]
    if unknown:
        raise EvaluationError(
            "detections reference unknown frame ids: "
            + ", ".join(repr(u) for u in unknown)
        )
    filtered = filter_reasonable(annotations, config.min_height, config.height_modality)
    thresholds = config.iou_thresholds
    offsets = detections.offsets.tolist()
    # matches[v][t]: one FrameMatch per frame for the v-th variant and t-th threshold
    matches = [[[] for _ in thresholds] for _ in config.variants]
    for frame in filtered:
        k = row_of.get(frame.frame_id)
        rows = slice(0, 0) if k is None else slice(offsets[k], offsets[k + 1])
        scores, dv, dt = detections.score[rows], detections.v[rows], detections.t[rows]
        evaluable = np.array([not g.ignore for g in frame.objects], dtype=bool)
        gv = boxes_to_array(g.pair.visible for g in frame.objects)
        gt_ = boxes_to_array(g.pair.thermal for g in frame.objects)
        for variant, cells in zip(config.variants, matches):
            overlaps = _overlap_matrix(dv, dt, gv, gt_, variant)
            for thresh, cell in zip(thresholds, cells):
                cell.append(match_frame(scores, overlaps, evaluable, thresh))
    entries = []
    for variant, cells in zip(config.variants, matches):
        for thresh, cell in zip(thresholds, cells):
            curve = miss_rate_curve(cell)
            lamr = log_average_miss_rate(curve, config.fppi_refs, config.mr_epsilon)
            entries.append(EvalEntry(variant, thresh, curve, lamr))
    return EvalReport(tuple(entries))


def write_curve_csv(report: EvalReport, dst) -> None:
    """Write all curve points as CSV (UTF-8, LF, 9 significant digits).

    ``dst`` may be a path or a text file object.
    """
    if hasattr(dst, "write"):
        _write_curve_csv(report, dst)
        return
    with open(dst, "w", encoding="utf-8", newline="\n") as fh:
        _write_curve_csv(report, fh)


def _write_curve_csv(report: EvalReport, fh: io.TextIOBase) -> None:
    fh.write("variant,iou_thresh,score_thresh,fppi,miss_rate\n")
    for e in report.entries:
        prefix = f"{e.variant},{e.iou_thresh:.9g},"
        c = e.curve
        rows = zip(c.score_thresh.tolist(), c.fppi.tolist(), c.miss_rate.tolist())
        fh.write("".join(f"{prefix}{s:.9g},{f:.9g},{m:.9g}\n" for s, f, m in rows))
