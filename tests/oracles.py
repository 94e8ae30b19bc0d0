"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written against different primitives than
the code under test: pixel counting on boolean grids instead of closed-form
areas, an O(n^2) pure-python NMS, central finite differences instead of
analytic gradients, per-threshold re-matching instead of the one-pass
score sweep, and a scalar triple loop instead of the broadcast anchor grid.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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
