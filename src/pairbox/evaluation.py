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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

# the (detection, GT) cells of one block of evaluate's matching; a block holds
# at least one detection row
from ._kernels._python import CELL_BUDGET as _CELL_BUDGET
# boxes_to_array, iou_matrix and iou_multimodal_matrix are unused here, but
# perfbench/spans.py wraps them under this module's name
from .geometry import (  # noqa: F401
    Box,
    PairedBox,
    boxes_to_array,
    iou_elementwise,
    iou_matrix,
    iou_multimodal_elementwise,
    iou_multimodal_matrix,
)
from .pairnms import Detection

__all__ = [
    "EvaluationError",
    "OCCLUSION_LEVELS",
    "VARIANTS",
    "GtObject",
    "FrameAnnotations",
    "DatasetMeta",
    "GtTable",
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
class DatasetMeta:
    name: str = ""
    image_width: float = 640.0
    image_height: float = 512.0

    def __post_init__(self):
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image dimensions must be positive")


@dataclass(frozen=True)
class FrameDetections:
    """Scored detections for one image (possibly none)."""

    frame_id: FrameId
    detections: tuple[Detection, ...]

    def __post_init__(self):
        object.__setattr__(self, "detections", tuple(self.detections))


class _FrameRows:
    """Rows of many frames in one float64 block: frame ``k`` has id
    ``frame_ids[k]`` and owns rows ``offsets[k]:offsets[k + 1]``; ``v`` and
    ``t`` are the (N, 4) views of the visible [0:4] and thermal [4:8] boxes.
    Every row is checked once, when the table is built, against the class's
    ``ROW_LO``/``ROW_HI`` (NaN fails); a bad box is refused in
    :class:`~pairbox.geometry.Box`'s words, visible boxes first."""

    def __init__(self, frame_ids, offsets, rows):
        self.frame_ids = list(frame_ids)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.rows = np.asarray(rows, dtype=np.float64)
        if (self.offsets.shape != (len(self.frame_ids) + 1,) or self.offsets[0] != 0
                or self.rows.shape != (self.offsets[-1], self.ROW_LO.size)
                or np.any(np.diff(self.offsets) < 0)):
            raise ValueError(f"{type(self).__name__} rows and frame offsets do not agree")
        self.v, self.t = self.rows[:, 0:4], self.rows[:, 4:8]
        inside = (self.ROW_LO <= self.rows) & (self.rows <= self.ROW_HI)
        for k in (0, 4):  # Box has the same bound: it refuses the row in its words
            bad = ~inside[:, k:k + 4].all(axis=1)
            if bad.any():
                Box(*self.rows[bad.argmax(), k:k + 4].tolist())


class DetectionTable(_FrameRows, Sequence[FrameDetections]):
    """Scored paired detections of many frames, held as one row block of
    rows v[0:4], t[4:8], score[8]; ``score`` is its (N,) view. The table is a
    re-iterable sequence of :class:`FrameDetections`, each built from the
    rows when it is accessed. Frame ids are kept as given, duplicates included.
    """

    # the bounds of a row v[0:4], t[4:8], score[8]: Box's bound on
    # coordinates, non-negative extents, and scores in [0, 1]
    ROW_LO = np.array([-1e100, -1e100, 0.0, 0.0] * 2 + [0.0])
    ROW_HI = np.array([1e100] * 8 + [1.0])

    def __init__(self, frame_ids, offsets, rows):
        super().__init__(frame_ids, offsets, rows)
        self.score = self.rows[:, 8]
        outside = ~((0.0 <= self.score) & (self.score <= 1.0))  # NaN is outside
        if outside.any():
            score = self.score[outside][0].item()
            raise ValueError(f"score must be a finite value in [0, 1], got {score!r}")

    @classmethod
    def from_frames(cls, frames: Iterable[FrameDetections]) -> "DetectionTable":
        """Pack frames of detection objects into one table."""
        frames = list(frames)
        rows = [d.pair.visible.as_tuple() + d.pair.thermal.as_tuple() + (d.score,)
                for fd in frames for d in fd.detections]
        return cls(
            [fd.frame_id for fd in frames],
            np.cumsum([0] + [len(fd.detections) for fd in frames]),
            np.array(rows, dtype=np.float64).reshape(-1, cls.ROW_LO.size),
        )

    def take(self, rows: Sequence[np.ndarray]) -> "DetectionTable":
        """The table whose frame ``k`` holds this table's rows ``rows[k]``
        (row indices into the whole table), in that order."""
        index = np.concatenate([np.zeros(0, dtype=np.int64), *rows])
        return DetectionTable(
            self.frame_ids, np.cumsum([0] + [len(r) for r in rows]), self.rows[index]
        )

    def __len__(self) -> int:
        return len(self.frame_ids)

    def __getitem__(self, k: int) -> FrameDetections:
        k = range(len(self))[k]  # negative indices; IndexError ends iteration
        lo, hi = int(self.offsets[k]), int(self.offsets[k + 1])
        dets = tuple(
            Detection(PairedBox(Box(*r[0:4]), Box(*r[4:8])), r[8])
            for r in self.rows[lo:hi].tolist()
        )
        return FrameDetections(self.frame_ids[k], dets)


class GtTable(_FrameRows):
    """Annotated objects of many frames, held as one row block of rows
    v[0:4], t[4:8] under :class:`DetectionTable`'s box bounds; ``occ`` holds
    each object's occlusion level as an int8 index into ``OCCLUSION_LEVELS``,
    ``ignore`` its ignore flag and ``meta`` the image size. Frame ids are distinct."""

    ROW_LO, ROW_HI = DetectionTable.ROW_LO[:8], DetectionTable.ROW_HI[:8]

    def __init__(self, frame_ids, offsets, rows, occ, ignore, meta: DatasetMeta = DatasetMeta()):
        super().__init__(frame_ids, offsets, rows)
        self.occ, self.ignore, self.meta = np.asarray(occ, np.int8), np.asarray(ignore, bool), meta
        if not self.occ.shape == self.ignore.shape == (len(self.rows),) or np.any(
                (self.occ < 0) | (self.occ >= len(OCCLUSION_LEVELS))):
            raise ValueError("occlusion codes and ignore flags do not agree with the rows")
        if len(set(self.frame_ids)) != len(self.frame_ids):
            raise ValueError("duplicate frame ids in dataset")

    @classmethod
    def from_frames(cls, frames: Iterable[FrameAnnotations], meta=DatasetMeta()) -> "GtTable":
        """Pack frames of annotation objects into one table."""
        frames = list(frames)
        objects = [o for f in frames for o in f.objects]
        rows = [o.pair.visible.as_tuple() + o.pair.thermal.as_tuple() for o in objects]
        return cls([f.frame_id for f in frames], np.cumsum([0] + [len(f.objects) for f in frames]),
                   np.array(rows, dtype=np.float64).reshape(-1, cls.ROW_LO.size),
                   [OCCLUSION_LEVELS.index(o.occlusion) for o in objects],
                   [o.ignore for o in objects], meta)


def filter_reasonable(table: GtTable, min_height: float = 55.0) -> np.ndarray:
    """The ignore flags of ``table``'s objects under the reasonable subset.

    Objects at most ``min_height`` pixels tall (measured on the thermal
    box, the reference modality) or under heavy occlusion are flagged
    ignore; they are kept, not dropped, so they can still absorb detections.
    """
    heavy = table.occ == OCCLUSION_LEVELS.index("heavy")
    return table.ignore | heavy | (table.t[:, 3] <= min_height)


def _overlaps(dv, dt, gv, gt_, variant: str) -> np.ndarray:
    """The ``variant`` overlaps of detections and GTs, row by row."""
    if variant == "visible":
        return iou_elementwise(dv, gv)
    if variant == "thermal":
        return iou_elementwise(dt, gt_)
    if variant == "multimodal":
        return iou_multimodal_elementwise(dv, dt, gv, gt_)
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

    This is the single-frame reference: :func:`evaluate` matches all frames
    at once by the same rules and does not call it.

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
    scores = np.concatenate([np.zeros(0), *(m.scores for m in matches)])
    outcomes = np.concatenate([np.zeros(0, np.int8), *(m.det_outcomes for m in matches)])
    return _curve(scores, outcomes, len(matches), sum(m.n_evaluable for m in matches))


def _curve(scores: np.ndarray, outcomes: np.ndarray, n_frames: int, n_gt: int) -> MissRateCurve:
    """The curve of detections with these scores and outcomes over
    ``n_frames`` frames holding ``n_gt`` evaluable GTs."""
    if n_gt == 0:
        raise EvaluationError("miss rate undefined: no evaluable ground truth objects")
    if scores.size == 0:
        return MissRateCurve(np.array([1.0]), np.array([0.0]), np.array([1.0]), np.array([0]),
                             np.array([0]), np.array([n_gt]), n_frames, n_gt)
    desc = np.argsort(-scores, kind="stable")
    scores = scores[desc]
    ends = np.flatnonzero(np.append(scores[1:] != scores[:-1], True))  # last of each tie group
    tp = np.cumsum(outcomes[desc] == DET_TP)[ends]
    fp = np.cumsum(outcomes[desc] == DET_FP)[ends]
    # IEEE divisions of exactly represented counts: the same bits as Python's int / int
    return MissRateCurve(
        scores[ends], fp / n_frames, (n_gt - tp) / n_gt, tp, fp, n_gt - tp, n_frames, n_gt
    )


def log_average_miss_rate(curve: MissRateCurve) -> float:
    """Geometric mean of miss rates sampled at the ``DEFAULT_FPPI_REFS``.

    Each reference takes the miss rate of the curve point with the largest
    FPPI not exceeding it (for duplicate FPPI values the last point in curve
    order wins); references below the smallest achieved FPPI take the miss
    rate at that smallest FPPI. The mean is defined as 0 whenever any
    sampled rate is 0.
    """
    if curve.fppi.size == 0:
        raise EvaluationError("cannot average an empty curve")
    by_fppi = np.argsort(curve.fppi, kind="stable")  # keeps curve order within equal FPPIs
    xs, ys = curve.fppi[by_fppi], curve.miss_rate[by_fppi]
    last = np.append(xs[1:] != xs[:-1], True)  # the last point of each distinct FPPI
    xs, ys = xs[last].tolist(), ys[last].tolist()
    sampled = [ys[max(bisect.bisect_right(xs, r) - 1, 0)] for r in DEFAULT_FPPI_REFS]
    if any(s == 0.0 for s in sampled):
        return 0.0
    return float(math.exp(sum(math.log(s) for s in sampled) / len(sampled)))


@dataclass(frozen=True)
class EvalConfig:
    """Protocol parameters for a full evaluation run."""

    iou_thresholds: tuple[float, ...] = (0.5, 0.7)
    variants: tuple[str, ...] = VARIANTS
    min_height: float = 55.0

    def __post_init__(self):
        if not self.iou_thresholds or any(not 0.0 < t <= 1.0 for t in self.iou_thresholds):
            raise ValueError("iou_thresholds must be non-empty with values in (0, 1]")
        unknown = [v for v in self.variants if v not in VARIANTS]
        if unknown or not self.variants:
            raise ValueError(f"variants must be a non-empty subset of {VARIANTS}")
        for name in ("iou_thresholds", "variants"):  # a repeat would score its cells twice
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value, got {values!r}")
        if not 0.0 <= self.min_height < math.inf:
            raise ValueError(f"min_height must be a finite number >= 0, got {self.min_height!r}")


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
    # unused here; perfbench/harness.py reads it for a machine fact
    return 1


def _greedy_scan(pad, evaluable, gt, rank, free, thresh: float) -> np.ndarray:
    """The outcomes of :func:`match_frame` for a block of detection rows.

    Row r is a detection of score rank ``rank[r]`` within its frame, and
    rows come by ascending rank. ``pad[r, j]`` is its overlap with its
    frame's GT ``gt[r, j]``, and ``evaluable[r, j]`` flags that GT as
    evaluable; both are 0 beyond the frame's GTs. ``free`` flags the GTs
    still unclaimed, over all frames, and is updated in place. Rank by
    rank, every candidate row (at most one per frame) takes one greedy step.
    """
    hit = pad >= thresh
    outcomes = np.where((hit & ~evaluable).any(axis=1), DET_IGNORED, DET_FP).astype(np.int8)
    candidates = np.flatnonzero((hit & evaluable).any(axis=1))
    # where each rank's candidates start, and their end
    bounds = np.flatnonzero(np.diff(rank[candidates], prepend=-1, append=-1)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        r = candidates[lo:hi]
        row = np.where(free[gt[r]], pad[r], 0.0)
        j = row.argmax(axis=1)  # the first maximum: overlap ties keep the lowest GT index
        won = row[np.arange(r.size), j] >= thresh
        r, j = r[won], j[won]
        outcomes[r] = DET_TP
        free[gt[r, j]] = False
    return outcomes


def _match_frames(
    annotations: GtTable,
    ignore: np.ndarray,
    detections: DetectionTable,
    table_frame: Sequence[int],
    variants: Sequence[str],
    thresholds: Sequence[float],
) -> tuple[np.ndarray, int, list[list[np.ndarray]]]:
    """Match every frame greedily by the rules of :func:`match_frame`.

    ``ignore`` holds the final ignore flags of the ``annotations``, and
    ``table_frame[k]`` the frame of ``detections`` with the detections of
    annotated frame ``k``, or -1 for none. The detections are taken frame by
    frame in that order. Returns their scores, the number of evaluable GTs
    and ``outcomes[v][t]``, their outcomes under the v-th variant and t-th
    threshold.

    The detections of frames with GTs are matched in blocks of rows, one
    detection with its frame's GTs per row. Frames come by descending GT
    count, so a block's first row is its widest, and a block holds
    ``_CELL_BUDGET`` // that count rows (at least one), sorted by rank. Per
    block: one overlap pass per variant over the real (detection, GT) cells,
    scattered into a zero (row, GT) pad, then one :func:`_greedy_scan` per
    threshold. A frame may span blocks: each (variant, threshold) carries
    one ``free`` mask over all GTs from block to block.
    """
    gv, gt_, evaluable = annotations.v, annotations.t, ~ignore
    ng = np.diff(annotations.offsets)
    gt_start = np.cumsum(ng) - ng
    # frame -1 (no detections) picks the appended empty frame
    table_frame = np.asarray(table_frame, dtype=np.int64)
    nd = np.append(np.diff(detections.offsets), 0)[table_frame]
    det_start = np.cumsum(nd) - nd
    rows = np.repeat(np.append(detections.offsets[:-1], 0)[table_frame] - det_start, nd)
    rows += np.arange(rows.size)
    scores = detections.score[rows]
    frame = np.repeat(np.arange(ng.size), nd)
    # positions by descending GT count, then frame, then descending score, ties by
    # position: match_frame's visiting order within each frame; frames without GTs drop out
    order = np.lexsort((-scores, frame, -ng[frame]))[: np.count_nonzero(ng[frame])]
    frame = frame[order]
    run = np.flatnonzero(np.diff(frame, prepend=-1))  # where each frame's run starts
    rank = np.arange(order.size) - np.repeat(run, np.diff(run, append=order.size))
    outcomes = [[np.full(rows.size, DET_FP, np.int8) for _ in thresholds] for _ in variants]
    free = [[evaluable.copy() for _ in thresholds] for _ in variants]
    stop = 0
    while stop < order.size:
        g = int(ng[frame[stop]])
        # the block's rows by ascending rank: _greedy_scan takes each rank's rows together
        block = stop + np.argsort(rank[stop:stop + max(1, _CELL_BUDGET // g)], kind="stable")
        stop += block.size
        real = np.arange(g) < ng[frame[block], None]  # the real (row, GT) cells
        gt = np.where(real, gt_start[frame[block], None] + np.arange(g), 0)
        det = np.repeat(rows[order[block]], ng[frame[block]])
        # np.take gathers rows several times faster than fancy indexing
        cells = gt[real]
        dv, dt = np.take(detections.v, det, axis=0), np.take(detections.t, det, axis=0)
        pv, pt = np.take(gv, cells, axis=0), np.take(gt_, cells, axis=0)
        ev = evaluable[gt] & real
        for variant, per_thresh, per_free in zip(variants, outcomes, free):
            pad = np.zeros(real.shape)
            pad[real] = _overlaps(dv, dt, pv, pt, variant)
            for thresh, out, fr in zip(thresholds, per_thresh, per_free):
                out[order[block]] = _greedy_scan(pad, ev, gt, rank[block], fr, thresh)
    return scores, int(np.count_nonzero(evaluable)), outcomes


def evaluate(
    annotations: Union[GtTable, Sequence[FrameAnnotations]],
    detections: DetectionTable,
    config: EvalConfig = EvalConfig(),
) -> EvalReport:
    """Run the full protocol over every configured variant and threshold.

    Detections must reference known frame ids; annotated frames without
    detections count as all-miss frames. All frames are matched at once, in
    blocks of detection rows whose padded (detection, GT) cells stay under a
    fixed budget, with one overlap pass per variant and one greedy scan over
    detection rank per threshold (see ``_match_frames``); the outcomes equal
    :func:`match_frame`'s on each frame. Objects built by hand are packed
    with :meth:`GtTable.from_frames` and :meth:`DetectionTable.from_frames`.
    """
    if not isinstance(annotations, GtTable):
        annotations = GtTable.from_frames(annotations)
    row_of: dict[FrameId, int] = {}
    for k, fid in enumerate(detections.frame_ids):
        if fid in row_of:
            raise EvaluationError(f"duplicate detection entries for frame {fid!r}")
        row_of[fid] = k
    ann_ids = set(annotations.frame_ids)
    unknown = [fid for fid in row_of if fid not in ann_ids]
    if unknown:
        raise EvaluationError(
            "detections reference unknown frame ids: "
            + ", ".join(repr(u) for u in unknown)
        )
    scores, n_gt, outcomes = _match_frames(
        annotations, filter_reasonable(annotations, config.min_height), detections,
        [row_of.get(fid, -1) for fid in annotations.frame_ids],
        config.variants, config.iou_thresholds,
    )
    # one score order for every curve: _curve's own stable sort then keeps it as it is
    desc = np.argsort(-scores, kind="stable")
    scores = scores[desc]
    entries = []
    for variant, per_thresh in zip(config.variants, outcomes):
        for thresh, out in zip(config.iou_thresholds, per_thresh):
            curve = _curve(scores, out[desc], len(annotations.frame_ids), n_gt)
            entries.append(EvalEntry(variant, thresh, curve, log_average_miss_rate(curve)))
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


def _format_distinct(
    columns: Sequence[np.ndarray], fmt: Callable[[np.ndarray], list[str]]
) -> Iterator[list[str]]:
    """Yield ``fmt`` of each float64 array of ``columns``, one at a time.

    ``fmt`` maps an array to one string per value and must act elementwise:
    it is called once, on the distinct values of all the columns, told apart
    by their bits (so -0.0 and 0.0 stay apart), and each column's strings
    are looked up from its result.
    """
    bits = [np.ascontiguousarray(c, dtype=np.float64).view(np.int64) for c in columns]
    # a sort and an adjacent-difference mask, not np.unique, which hashes int64 and is slower
    distinct = np.sort(np.concatenate([np.zeros(0, np.int64), *bits]))
    first = np.ones(distinct.size, dtype=bool)
    first[1:] = distinct[1:] != distinct[:-1]
    distinct = distinct[first]
    text = np.array(fmt(distinct.view(np.float64)), dtype=object)
    for b in bits:
        yield text[np.searchsorted(distinct, b)].tolist()


def _nine_digits(values: np.ndarray) -> list[str]:
    return [f"{x:.9g}" for x in values.tolist()]


def _write_curve_csv(report: EvalReport, fh: io.TextIOBase) -> None:
    fh.write("variant,iou_thresh,score_thresh,fppi,miss_rate\n")
    curves = [e.curve for e in report.entries]
    columns = [_format_distinct([getattr(c, name) for c in curves], _nine_digits)
               for name in ("score_thresh", "fppi", "miss_rate")]
    for e, *texts in zip(report.entries, *columns):
        prefix = f"{e.variant},{e.iou_thresh:.9g},"
        fh.write(prefix + ("\n" + prefix).join(map(",".join, zip(*texts))) + "\n")
