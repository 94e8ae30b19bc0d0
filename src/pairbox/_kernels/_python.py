"""Numpy kernels: pairwise and row-by-row IoU, and greedy NMS.

Boxes are (N, 4) float64 arrays of (x, y, w, h) with the half-open pixel
convention: boxes touching only along an edge do not intersect.
"""

from __future__ import annotations

import numpy as np

# rows x columns that one overlap pass holds at most: an NMS block's IoU
# rows here, and the padded (detection, GT) cells of a block of evaluate's rows
CELL_BUDGET = 1 << 17
# the most ranks one NMS block holds
_BLOCK_ROWS = 64


def _as_boxes(arr) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out.ndim != 2 or out.shape[1] != 4:
        raise ValueError(f"expected an (N, 4) box array, got shape {out.shape}")
    return out


def _inter_union(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intersection and union areas of ``a`` and ``b`` broadcast against each
    other along every axis but the last, which holds (x, y, w, h)."""
    iw = np.minimum(a[..., 0] + a[..., 2], b[..., 0] + b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 1] + a[..., 3], b[..., 1] + b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    return inter, a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den``, and 0 where ``den`` is not positive."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def _pooled(av, at, bv, bt) -> np.ndarray:
    """Multi-modal IoU: (I_v + I_t) / (U_v + U_t)."""
    inter_v, union_v = _inter_union(av, bv)
    inter_t, union_t = _inter_union(at, bt)
    return _ratio(inter_v + inter_t, union_v + union_t)


def iou_matrix(a, b) -> np.ndarray:
    """Pairwise IoU between (N, 4) and (M, 4) arrays of (x, y, w, h) boxes."""
    a, b = _as_boxes(a), _as_boxes(b)
    return _ratio(*_inter_union(a[:, None], b[None]))


def ioum_matrix(a_visible, a_thermal, b_visible, b_thermal) -> np.ndarray:
    """Pairwise multi-modal IoU between two sets of paired boxes, as (N, M)."""
    av, at, bv, bt = map(_as_boxes, (a_visible, a_thermal, b_visible, b_thermal))
    if av.shape != at.shape or bv.shape != bt.shape:
        raise ValueError("visible and thermal box arrays must have matching shapes")
    return _pooled(av[:, None], at[:, None], bv[None], bt[None])


def iou_elementwise(a, b) -> np.ndarray:
    """Row-by-row IoU of two equal-length (N, 4) box arrays."""
    a, b = _as_boxes(a), _as_boxes(b)
    if a.shape != b.shape:
        raise ValueError("elementwise IoU requires equal-length box arrays")
    return _ratio(*_inter_union(a, b))


def ioum_elementwise(a_visible, a_thermal, b_visible, b_thermal) -> np.ndarray:
    """Row-by-row multi-modal IoU of equal-length paired box arrays."""
    av, at, bv, bt = map(_as_boxes, (a_visible, a_thermal, b_visible, b_thermal))
    if not (av.shape == at.shape == bv.shape == bt.shape):
        raise ValueError("elementwise multi-modal IoU requires equal-length box arrays")
    return _pooled(av, at, bv, bt)


def nms_keep(boxes, order, thresh: float) -> np.ndarray:
    """Greedy NMS walking ``order``; returns kept indices in that order.

    A box is suppressed when its IoU with an already-kept box is strictly
    greater than ``thresh``. The caller fixes the tie rule by choosing
    ``order``.

    The ranks are taken in blocks of at most ``_BLOCK_ROWS``, sized so that
    a block's rows times the ranks from its start stay within
    ``CELL_BUDGET`` (a block holds one row when even that is over). A block
    computes the IoU of its rows not yet removed against every rank from
    its start in one pass, then walks those rows in order: each row still
    not removed is kept and removes the ranks it overlaps by more than
    ``thresh``. The IoU is symmetric and made of the same operations for
    every pair, so the keeps are those of the one-box-at-a-time walk.
    """
    boxes = _as_boxes(boxes)
    order = np.ascontiguousarray(order, dtype=np.int64)
    ranked = boxes[order]
    n = ranked.shape[0]
    removed = np.zeros(n, dtype=bool)
    keep = []
    start = 0
    while start < n:
        stop = min(n, start + max(1, min(_BLOCK_ROWS, CELL_BUDGET // (n - start))))
        rows = start + np.flatnonzero(~removed[start:stop])
        if rows.size:
            over = _ratio(*_inter_union(ranked[rows, None], ranked[None, start:])) > thresh
            for r, row in zip(rows.tolist(), over):
                if not removed[r]:
                    keep.append(r)
                    removed[start:] |= row  # ranks before r are decided already
        start = stop
    return order[np.asarray(keep, dtype=np.int64)]
