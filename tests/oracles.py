"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written against different primitives than
the code under test: pixel counting on boolean grids instead of closed-form
areas, an O(n^2) pure-python NMS, central finite differences instead of
analytic gradients, a one-box-at-a-time NMS walk instead of the blocked
suppression rows, a per-coordinate Python-float smooth-L1 instead of
the array one, per-sample losses instead of the column ones, per-threshold
re-matching instead of the one-pass score sweep, a scalar triple loop instead
of the broadcast anchor grid, a per-GT loop instead of the one-step
best-anchor rule, a field-by-field parse into detection and annotation
objects instead of the column readers, the hand-written anchor and sample
document parsers, each with its own checks, instead of the readers' shared
field checkers, a shift of one box object at a time instead of the
column shift, and a scene generator that builds box objects instead of the
table rows. ``curve_from_points`` builds the hand-made curves that tests
feed to the curve consumers.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from pairbox._kernels._python import _as_boxes
from pairbox.evaluation import (
    OCCLUSION_LEVELS,
    FrameAnnotations,
    FrameDetections,
    GtObject,
    MissRateCurve,
)
from pairbox.formats import (
    DatasetMeta,
    FrameId,
    ParseError,
    _box,
    _check,
    _is_number,
    _loads,
    _parse_meta,
    _record,
    _records,
    read_json,
)
from pairbox.geometry import Box, PairedBox
from pairbox.pairnms import Detection
from pairbox.regression import BACKGROUND_CLASS, LossConfig
from pairbox.sampling import POSITIVE
from pairbox.simulation import SceneSpec, _frame_rng


def _check_keys(record: dict, allowed: set, path, line_no: int, context: str):
    unknown = sorted(set(record) - allowed)
    if unknown:
        raise ParseError(path, line_no, f"{context}: unknown field(s) {', '.join(unknown)}")


def _load_json_line(line: str, path, line_no: int) -> dict:
    record = _loads(line, path, line_no)
    if not isinstance(record, dict):
        raise ParseError(path, line_no, "expected a JSON object")
    return record


def _parse_frame_id(record: dict, path, line_no: int) -> FrameId:
    if "frame" not in record:
        raise ParseError(path, line_no, "missing 'frame' field")
    fid = record["frame"]
    if isinstance(fid, bool) or not isinstance(fid, (str, int)):
        raise ParseError(path, line_no, f"frame id must be a string or integer, got {fid!r}")
    return fid


def _parse_box(value, path, line_no: int, field: str) -> Box:
    if (
        not isinstance(value, list)
        or len(value) != 4
        or not all(_is_number(v) for v in value)
    ):
        raise ParseError(path, line_no, f"{field}: expected [x, y, w, h] with finite numbers")
    try:
        return Box(*(float(v) for v in value))
    except ValueError as exc:
        raise ParseError(path, line_no, f"{field}: {exc}") from None


def rasterized_counts(a, b, scale: int = 10):
    """Pixel counts (inter, union, area_a, area_b) of two integer boxes.

    Boxes are (x, y, w, h) tuples with integer-valued fields. Each box is
    painted onto a boolean grid at ``scale`` cells per pixel and regions are
    measured by counting cells, so the result is exact. Counts are returned
    in grid cells (pixel areas times scale**2).
    """
    ax, ay, aw, ah = (int(v) for v in a)
    bx, by, bw, bh = (int(v) for v in b)
    ox = min(ax, bx)
    oy = min(ay, by)
    width = (max(ax + aw, bx + bw) - ox) * scale
    height = (max(ay + ah, by + bh) - oy) * scale
    ga = np.zeros((max(height, 1), max(width, 1)), dtype=bool)
    gb = np.zeros_like(ga)
    ga[(ay - oy) * scale:(ay - oy + ah) * scale, (ax - ox) * scale:(ax - ox + aw) * scale] = True
    gb[(by - oy) * scale:(by - oy + bh) * scale, (bx - ox) * scale:(bx - ox + bw) * scale] = True
    inter = int(np.count_nonzero(ga & gb))
    union = int(np.count_nonzero(ga | gb))
    return inter, union, int(np.count_nonzero(ga)), int(np.count_nonzero(gb))


def rasterized_iou(a, b, scale: int = 10) -> float:
    inter, union, _, _ = rasterized_counts(a, b, scale)
    return inter / union if union > 0 else 0.0


def rasterized_iou_multimodal(gv, gt, dv, dt, scale: int = 10) -> float:
    inter_v, union_v, _, _ = rasterized_counts(gv, dv, scale)
    inter_t, union_t, _, _ = rasterized_counts(gt, dt, scale)
    den = union_v + union_t
    return (inter_v + inter_t) / den if den > 0 else 0.0


def naive_iou(a, b) -> float:
    """Scalar IoU on (x, y, w, h) tuples, written independently."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    if iw <= 0 or ih <= 0:
        inter = 0.0
    else:
        inter = iw * ih
    union = aw * ah + bw * bh - inter
    if union <= 0:
        return 0.0
    return inter / union


def naive_nms(boxes, scores, thresh):
    """Reference greedy single-modality NMS.

    ``boxes`` is a list of (x, y, w, h) tuples. Candidates are visited by
    descending score with ties broken by input index; a candidate is dropped
    when its IoU with any already-kept box exceeds ``thresh`` strictly.
    Returns kept indices in visit order.
    """
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        if all(naive_iou(boxes[i], boxes[k]) <= thresh for k in kept):
            kept.append(i)
    return kept


def walk_nms_keep(boxes, order, thresh: float) -> np.ndarray:
    """Greedy NMS walking ``order`` one kept box at a time, in numpy.

    Each kept box computes its IoU against the later ranks not yet
    suppressed and suppresses those strictly over ``thresh``. Returns kept
    indices in visit order. This was the library's kernel before the
    blocked form; it referees that form bit for bit.
    """
    boxes = _as_boxes(boxes)
    order = np.ascontiguousarray(order, dtype=np.int64)
    x1 = boxes[:, 0]
    y1 = boxes[:, 1]
    x2 = x1 + boxes[:, 2]
    y2 = y1 + boxes[:, 3]
    areas = boxes[:, 2] * boxes[:, 3]
    suppressed = np.zeros(boxes.shape[0], dtype=bool)
    keep = []
    for k in range(order.shape[0]):
        i = order[k]
        if suppressed[i]:
            continue
        keep.append(i)
        rest = order[k + 1:]
        rest = rest[~suppressed[rest]]
        if rest.size == 0:
            continue
        iw = np.minimum(x2[i], x2[rest]) - np.maximum(x1[i], x1[rest])
        ih = np.minimum(y2[i], y2[rest]) - np.maximum(y1[i], y1[rest])
        inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
        union = areas[i] + areas[rest] - inter
        ov = np.zeros_like(inter)
        mask = union > 0.0
        ov[mask] = inter[mask] / union[mask]
        suppressed[rest[ov > thresh]] = True
    return np.asarray(keep, dtype=np.int64)


def naive_read_detections(path) -> list[FrameDetections]:
    """Parse a detection file record by record, field by field."""
    out: list[FrameDetections] = []
    seen: set[FrameId] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            record = _load_json_line(line, path, line_no)
            _check_keys(record, {"frame", "dets"}, path, line_no, "detection record")
            fid = _parse_frame_id(record, path, line_no)
            if fid in seen:
                raise ParseError(path, line_no, f"duplicate frame id {fid!r}")
            seen.add(fid)
            raw_dets = record.get("dets")
            if not isinstance(raw_dets, list):
                raise ParseError(path, line_no, "missing or invalid 'dets' list")
            dets = []
            for k, raw in enumerate(raw_dets):
                if not isinstance(raw, dict):
                    raise ParseError(path, line_no, f"dets[{k}]: expected a JSON object")
                _check_keys(raw, {"v", "t", "box", "score"}, path, line_no, f"dets[{k}]")
                if "score" not in raw or not _is_number(raw["score"]):
                    raise ParseError(path, line_no, f"dets[{k}].score: expected a finite number")
                score = float(raw["score"])
                if not 0.0 <= score <= 1.0:
                    raise ParseError(
                        path, line_no, f"dets[{k}].score: must lie in [0, 1], got {score}"
                    )
                if "box" in raw:
                    if "v" in raw or "t" in raw:
                        raise ParseError(
                            path, line_no,
                            f"dets[{k}]: 'box' cannot be combined with 'v'/'t'",
                        )
                    box = _parse_box(raw["box"], path, line_no, f"dets[{k}].box")
                    dets.append(Detection(PairedBox.aligned(box), score))
                else:
                    if "v" not in raw or "t" not in raw:
                        raise ParseError(
                            path, line_no,
                            f"dets[{k}]: needs 'v' and 't' boxes (or a single 'box')",
                        )
                    box_v = _parse_box(raw["v"], path, line_no, f"dets[{k}].v")
                    box_t = _parse_box(raw["t"], path, line_no, f"dets[{k}].t")
                    dets.append(Detection(PairedBox(box_v, box_t), score))
            out.append(FrameDetections(fid, tuple(dets)))
    return out


def naive_read_dataset(path) -> tuple[list[FrameAnnotations], DatasetMeta]:
    """Parse an annotation file record by record, field by field, into
    annotation objects; returns the frames and the metadata."""
    meta = DatasetMeta()
    frames: list[FrameAnnotations] = []
    seen: set[FrameId] = set()
    for line_no, record in _records(path):
        if "meta" in record:
            if line_no != 1 or frames:
                raise ParseError(path, line_no, "metadata line only allowed first")
            _record(record, {"meta"}, path, line_no, "metadata line")
            meta = _parse_meta(record, path, line_no)
            continue
        _check_keys(record, {"frame", "objects"}, path, line_no, "frame record")
        fid = _parse_frame_id(record, path, line_no)
        if fid in seen:
            raise ParseError(path, line_no, f"duplicate frame id {fid!r}")
        seen.add(fid)
        raw_objects = record.get("objects")
        if not isinstance(raw_objects, list):
            raise ParseError(path, line_no, "missing or invalid 'objects' list")
        objects = []
        for k, raw in enumerate(raw_objects):
            raw = _record(raw, {"v", "t", "occ", "ignore"}, path, line_no, f"objects[{k}]")
            if "v" not in raw or "t" not in raw:
                raise ParseError(path, line_no, f"objects[{k}]: needs both 'v' and 't' boxes")
            box_v = _check(_box, raw["v"], path, line_no, f"objects[{k}].v")
            box_t = _check(_box, raw["t"], path, line_no, f"objects[{k}].t")
            occ = raw.get("occ", "none")
            if occ not in OCCLUSION_LEVELS:
                raise ParseError(
                    path, line_no,
                    f"objects[{k}].occ: expected one of {OCCLUSION_LEVELS}, got {occ!r}",
                )
            ignore = raw.get("ignore", False)
            if not isinstance(ignore, bool):
                raise ParseError(path, line_no, f"objects[{k}].ignore: expected a boolean")
            objects.append(GtObject(PairedBox(box_v, box_t), occlusion=occ, ignore=ignore))
        frames.append(FrameAnnotations(fid, tuple(objects)))
    return frames, meta


def shift_box(b: Box, dx: float, width: float) -> Box:
    """``b`` moved by ``dx`` and clipped to [0, width], one box object at a
    time: the scalar form ``apply_shift`` had before its column form."""
    left = min(max(b.x + dx, 0.0), width)
    right = min(max(b.x + b.w + dx, 0.0), width)
    return Box(left, b.y, right - left, b.h)


def naive_generate_scene(spec: SceneSpec) -> list[FrameAnnotations]:
    """Generate seeded paired ground truth; frame ids are 0..num_frames-1."""
    frames = []
    for f in range(spec.num_frames):
        rng = _frame_rng(spec.seed, f)
        objects = []
        for _ in range(int(rng.poisson(spec.peds_per_frame))):
            h = float(rng.uniform(*spec.height_range))
            w = float(spec.fixed_width) if spec.fixed_width is not None else spec.width_over_height * h
            x = float(rng.uniform(spec.x_margin, spec.image_width - w - spec.x_margin))
            y = float(rng.uniform(0.0, spec.image_height - h))
            dx = float(rng.uniform(*spec.misalign_range))
            visible = Box(x, y, w, h)
            objects.append(GtObject(PairedBox(visible, visible.translate(dx, 0.0))))
        frames.append(FrameAnnotations(f, tuple(objects)))
    return frames


def naive_read_anchors(path) -> tuple[np.ndarray, np.ndarray]:
    """An anchor file's visible and thermal boxes, parsed entry by entry."""
    payload = read_json(path)
    if not isinstance(payload, dict) or not isinstance(payload.get("anchors"), list):
        raise ParseError(path, 1, "expected an object with an 'anchors' list")
    _check_keys(payload, {"anchors"}, path, 1, "top level")
    visible, thermal = [], []
    for k, raw in enumerate(payload["anchors"]):
        if not isinstance(raw, dict) or "v" not in raw or "t" not in raw:
            raise ParseError(path, 1, f"anchors[{k}]: expected 'v' and 't' boxes")
        _check_keys(raw, {"v", "t"}, path, 1, f"anchors[{k}]")
        visible.append(_parse_box(raw["v"], path, 1, f"anchors[{k}].v").as_tuple())
        thermal.append(_parse_box(raw["t"], path, 1, f"anchors[{k}].t").as_tuple())
    return tuple(np.array(boxes, dtype=np.float64).reshape(-1, 4) for boxes in (visible, thermal))


def _losses_field(raw: dict, key: str, convert, path, field: str, default=None):
    """``convert(raw[key])``, or ``convert(default)`` when the key is absent.

    A required (no default) key that is missing, or a value ``convert``
    rejects, is a ParseError naming ``field``.
    """
    if key not in raw and default is None:
        raise ParseError(path, 1, f"{field}: missing")
    try:
        return convert(raw.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ParseError(path, 1, f"{field}: {exc}") from None


def _number(value) -> float:
    """A JSON number as a float; strings, bools, NaN, infinities and integers
    too large for a float are refused."""
    if not _is_number(value):
        raise TypeError("expected a finite number")
    return float(value)


def _integer(value) -> int:
    _number(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _floats(value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise TypeError("expected a JSON array")
    return tuple(_number(v) for v in value)


def _typed(value, kind: type, path, field: str):
    if not isinstance(value, kind):
        name = "object" if kind is dict else "array"
        raise ParseError(path, 1, f"{field}: expected a JSON {name}")
    return value


def _built(cls, path, field: str, *args):
    """``cls(*args)``; a ValueError it raises is a ParseError naming ``field``."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ParseError(path, 1, f"{field}: {exc}") from None


def _four_floats(value) -> tuple[float, ...]:
    values = _floats(value)
    if len(values) != 4:
        raise ValueError(f"expected 4 offset values, got shape ({len(values)},)")
    return values


_OFFSET_KEYS = ("pred_v", "pred_t", "target_v", "target_t")


def _offsets_from(raw: dict, path, where: str) -> list[tuple[float, ...]]:
    """The pred_v, pred_t, target_v, target_t offsets of a regressed sample,
    as four finite numbers each."""
    return [
        _losses_field(raw, key, _four_floats, path, f"{where}.{key}")
        for key in _OFFSET_KEYS
    ]


def _parse_rpn_samples(section, path):
    """The RPN samples' ``logits`` and ``labels`` columns, the positives'
    :func:`_offsets_from` rows, and the LossConfig."""
    section = _typed(section, dict, path, "rpn")
    _check_keys(section, {"cfg", "samples"}, path, 1, "rpn")
    cfg_raw = _typed(section.get("cfg", {}), dict, path, "rpn.cfg")
    _check_keys(cfg_raw, {"lambda", "n_cls", "n_reg"}, path, 1, "rpn.cfg")
    raw_samples = _typed(section.get("samples", []), list, path, "rpn.samples")
    n_default = max(len(raw_samples), 1)
    cfg = _built(
        LossConfig, path, "rpn.cfg",
        _losses_field(cfg_raw, "lambda", _number, path, "rpn.cfg.lambda", 1.0),
        _losses_field(cfg_raw, "n_cls", _integer, path, "rpn.cfg.n_cls", n_default),
        _losses_field(cfg_raw, "n_reg", _integer, path, "rpn.cfg.n_reg", n_default),
    )
    logits, labels, offsets = [], [], []
    for k, raw in enumerate(raw_samples):
        where = f"rpn.samples[{k}]"
        raw = _typed(raw, dict, path, where)
        _check_keys(raw, {"logit", "label", *_OFFSET_KEYS}, path, 1, where)
        label = raw.get("label")
        if label not in (0, 1) or isinstance(label, bool):
            raise ParseError(path, 1, f"{where}.label: expected 0 or 1")
        logits.append(_losses_field(raw, "logit", _number, path, f"{where}.logit"))
        labels.append(int(label))
        if label == 1:
            offsets.append(_offsets_from(raw, path, where))
    return np.array(logits, dtype=np.float64), np.array(labels), offsets, cfg


def _parse_detector_samples(section, path):
    """The detector samples' ``scores`` rows and ``true_class`` column, the
    foreground samples' :func:`_offsets_from` rows, and lambda."""
    section = _typed(section, dict, path, "detector")
    _check_keys(section, {"lambda", "samples"}, path, 1, "detector")
    lam = _losses_field(section, "lambda", _number, path, "detector.lambda", 1.0)
    if lam < 0:
        raise ParseError(path, 1, f"detector.lambda: must be >= 0, got {lam!r}")
    scores, classes, offsets = [], [], []
    for k, raw in enumerate(_typed(section.get("samples", []), list, path, "detector.samples")):
        where = f"detector.samples[{k}]"
        raw = _typed(raw, dict, path, where)
        _check_keys(raw, {"scores", "true_class", *_OFFSET_KEYS}, path, 1, where)
        row = _losses_field(raw, "scores", _floats, path, f"{where}.scores", [])
        true_class = _losses_field(raw, "true_class", _integer, path, f"{where}.true_class", 0)
        if true_class != BACKGROUND_CLASS:
            offsets.append(_offsets_from(raw, path, where))
        if not row:
            raise ParseError(path, 1, f"{where}: class_scores must be non-empty")
        if not 0 <= true_class < len(row):
            raise ParseError(path, 1, f"{where}: true_class {true_class} out of range for {len(row)} classes")
        scores.append(np.array(row, dtype=np.float64))
        classes.append(true_class)
    return scores, np.array(classes), offsets, lam

def naive_read_samples(path):
    """A loss sample file's rpn and detector sections and its section
    names, parsed field by field."""
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ParseError(path, 1, "expected a JSON object")
    _check_keys(payload, {"rpn", "detector"}, path, 1, "top level")
    # an absent section parses as no samples
    return (_parse_rpn_samples(payload.get("rpn", {}), path),
            _parse_detector_samples(payload.get("detector", {}), path), set(payload))


def naive_greedy_match(dets, gts, variant, thresh):
    """Reference greedy matching of one frame, one detection at a time.

    ``dets`` holds (visible, thermal, score) and ``gts`` (visible, thermal,
    ignore) entries with (x, y, w, h) tuple boxes. Detections are visited by
    descending score, ties by input index. Each claims, among the unclaimed
    evaluable GTs it overlaps at or above ``thresh``, the one with the
    largest overlap (ties to the lowest index); failing that, it is ignored
    (-1) when it overlaps an ignore GT at or above ``thresh``, else it is a
    false positive (0). Returns (outcomes, matched GT indices, GT detected
    flags) as lists.
    """
    def overlap(d, g):
        if variant == "visible":
            return naive_iou(d[0], g[0])
        if variant == "thermal":
            return naive_iou(d[1], g[1])
        parts = [_inter_union(d[k], g[k]) for k in (0, 1)]
        den = parts[0][1] + parts[1][1]
        return (parts[0][0] + parts[1][0]) / den if den > 0 else 0.0

    outcomes = [0] * len(dets)
    matched = [-1] * len(dets)
    detected = [False] * len(gts)
    for i in sorted(range(len(dets)), key=lambda i: (-dets[i][2], i)):
        ovs = [overlap(dets[i], g) for g in gts]
        hits = [j for j, g in enumerate(gts) if not g[2] and not detected[j] and ovs[j] >= thresh]
        if hits:
            j = max(hits, key=lambda j: (ovs[j], -j))
            outcomes[i], matched[i], detected[j] = 1, j, True
        elif any(g[2] and ovs[j] >= thresh for j, g in enumerate(gts)):
            outcomes[i] = -1
    return outcomes, matched, detected


def naive_curve(frames, variant, thresh):
    """Reference FPPI/miss-rate curve, re-matching every frame at every score.

    ``frames`` holds one (dets, gts) pair per frame in the form of
    ``naive_greedy_match``. For each distinct detection score, highest first,
    the detections scored below it are dropped and every frame is matched
    again. Returns (score, fppi, miss_rate, tp, fp, fn) tuples; without any
    detection, the single all-miss point at score 1.0.
    """
    n_gt = sum(not g[2] for _, gts in frames for g in gts)
    scores = sorted({d[2] for dets, _ in frames for d in dets}, reverse=True)
    if not scores:
        return [(1.0, 0.0, 1.0, 0, 0, n_gt)]
    points = []
    for s in scores:
        tp = fp = fn = 0
        for dets, gts in frames:
            kept = [d for d in dets if d[2] >= s]
            outcomes, _, detected = naive_greedy_match(kept, gts, variant, thresh)
            tp += outcomes.count(1)
            fp += outcomes.count(0)
            fn += sum(not g[2] and not hit for g, hit in zip(gts, detected))
        points.append((s, fp / len(frames), fn / n_gt, tp, fp, fn))
    return points


def naive_log_average_miss_rate(points, refs):
    """Reference log-average miss rate of ``naive_curve`` points.

    Each reference takes the miss rate of the last point, in curve order,
    among those with the largest FPPI not above it; a reference below every
    FPPI takes the last point with the smallest FPPI.
    """
    sampled = []
    for r in refs:
        below = [p for p in points if p[1] <= r]
        pool = below or points
        step = max(p[1] for p in below) if below else min(p[1] for p in points)
        sampled.append([p[2] for p in pool if p[1] == step][-1])
    return geometric_mean(sampled)


def _inter_union(a, b):
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    inter = iw * ih if iw > 0 and ih > 0 else 0.0
    return inter, aw * ah + bw * bh - inter


def naive_anchor_grid(image_width, image_height, stride, heights, aspect):
    """Reference anchor grid, one scalar anchor at a time.

    Returns (x, y, w, h) tuples in (row, column, height) order: one anchor
    per cell center and height, width = aspect * height.
    """
    boxes = []
    for iy in range(int(math.floor(image_height / stride))):
        cy = (iy + 0.5) * stride
        for ix in range(int(math.floor(image_width / stride))):
            cx = (ix + 0.5) * stride
            for h in heights:
                w = aspect * h
                boxes.append((cx - 0.5 * w, cy - 0.5 * h, w, h))
    return boxes


def loop_best_anchor_per_gt(labels, overlaps) -> np.ndarray:
    """``labels`` with each GT's first-best anchor forced positive where its
    overlap is nonzero, one GT column at a time: the per-GT loop
    ``assign_rpn`` ran before the rule became one array operation."""
    labels = labels.copy()
    if len(labels) == 0:
        return labels
    for j in range(overlaps.shape[1]):
        col = overlaps[:, j]
        i = int(col.argmax())
        if col[i] > 0.0:
            labels[i] = POSITIVE
    return labels


def naive_smooth_l1(pred, target) -> tuple[float, tuple[float, ...]]:
    """Smooth-L1 loss summed over four offsets, with d(loss)/d(pred), one
    Python float per coordinate: 0.5*x^2 for |x| < 1, |x| - 0.5 otherwise,
    with x = pred - target."""
    loss = 0.0
    grad = []
    for p, t in zip(pred, target):
        x = p - t
        if abs(x) < 1.0:
            loss += 0.5 * x * x
            grad.append(x)
        else:
            loss += abs(x) - 0.5
            grad.append(math.copysign(1.0, x))
    return loss, tuple(grad)


def naive_rpn_loss(samples, lam: float, n_cls: int, n_reg: int) -> float:
    """Proposal-stage loss, one sample at a time in Python floats.

    Each sample is ``(logit, label, pred, target)``; a positive's ``pred``
    and ``target`` are (visible, thermal) pairs of four offsets, a
    negative's are ignored. Every sum runs left to right in sample order.
    """
    cls_sum = 0.0
    reg_v = 0.0
    reg_t = 0.0
    for logit, label, pred, target in samples:
        x = -logit if label == 1 else logit  # softplus(x): -log sigmoid(-x)
        cls_sum += x + math.log1p(math.exp(-x)) if x > 0 else math.log1p(math.exp(x))
        if label == 1:
            reg_v += naive_smooth_l1(pred[0], target[0])[0]
            reg_t += naive_smooth_l1(pred[1], target[1])[0]
    return cls_sum / n_cls + lam * ((reg_v + reg_t) / n_reg)


def row_cross_entropy(logits, label: int) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy of one row of logits, with its gradient: the
    per-row form ``regression.cross_entropy`` had before it took blocks.

    loss = -log softmax(logits)[label], computed via the log-sum-exp trick;
    grad = softmax(logits) - one_hot(label).
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("logits must be a non-empty 1-D vector")
    if not 0 <= label < z.size:
        raise ValueError(f"label {label} out of range for {z.size} classes")
    m = float(z.max())
    with np.errstate(over="ignore"):  # logits far below the maximum give exp(-inf) = 0
        exps = np.exp(z - m)
    total = float(exps.sum())
    loss = (m + math.log(total)) - float(z[label])
    grad = exps / total
    grad[label] -= 1.0
    return loss, grad


def naive_detector_loss(scores, true_class: int, pred, target, lam: float) -> float:
    """Detection-head loss of one sample in Python floats: its cross-entropy
    plus, for a foreground sample, lam times its visible and thermal
    smooth-L1 terms (``pred``/``target`` as for :func:`naive_rpn_loss`)."""
    cls_loss, _ = row_cross_entropy(scores, true_class)
    if true_class == 0:
        return cls_loss
    loc_v = naive_smooth_l1(pred[0], target[0])[0]
    loc_t = naive_smooth_l1(pred[1], target[1])[0]
    return cls_loss + lam * (loc_v + loc_t)


def central_difference(f, x, eps: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f at 1-D point x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += eps
        lo[i] -= eps
        grad[i] = (f(hi) - f(lo)) / (2.0 * eps)
    return grad


def best_assignment_tp_count(overlaps, thresh) -> int:
    """Maximum number of detection-GT matches over all one-to-one assignments.

    Brute force over permutations; only usable for tiny instances. Used to
    document where greedy matching agrees with the optimal assignment.
    """
    n_det, n_gt = overlaps.shape
    best = 0
    for perm in itertools.permutations(range(n_gt), min(n_det, n_gt)):
        count = 0
        for det_idx, gt_idx in enumerate(perm):
            if overlaps[det_idx, gt_idx] >= thresh:
                count += 1
        best = max(best, count)
    return best


def geometric_mean(values) -> float:
    vals = list(values)
    if any(v == 0 for v in vals):
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def curve_from_points(points, n_frames: int, n_evaluable: int) -> MissRateCurve:
    """The curve of hand-built ``CurvePoint``s, kept in the given order."""
    def column(field, dtype):
        return np.array([getattr(p, field) for p in points], dtype=dtype)

    return MissRateCurve(
        column("score_thresh", np.float64), column("fppi", np.float64),
        column("miss_rate", np.float64), column("tp", np.int64),
        column("fp", np.int64), column("fn", np.int64), n_frames, n_evaluable,
    )
