"""Kernel micro-cases on the active backend.

The cases are those of ``benchmarks/bench_kernels.py``. Whenever the compiled
backend can be imported, each case also runs on the numpy reference and the
results must be bit-identical (``assert_array_equal``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from pairbox import _kernels
from pairbox._kernels import _python

try:
    from pairbox._kernels import _native
except ImportError:
    _native = None

REPEATS = 3


def _random_boxes(rng, n):
    out = rng.uniform(0, 600, size=(n, 4))
    out[:, 2:] = rng.uniform(5, 80, size=(n, 2))
    return out


def _cases(scale: float):
    rng = np.random.default_rng(0)
    n_mat, n_elem, n_nms = (max(int(n * scale), 8) for n in (2000, 200_000, 5000))
    a, b = _random_boxes(rng, n_mat), _random_boxes(rng, n_mat)
    e, f = _random_boxes(rng, n_elem), _random_boxes(rng, n_elem)
    nms_boxes = _random_boxes(rng, n_nms)
    nms_order = np.lexsort((np.arange(n_nms), -rng.uniform(0, 1, size=n_nms)))
    return {
        "kernels.iou_matrix_ms": lambda impl: impl.iou_matrix(a, b),
        "kernels.ioum_matrix_ms": lambda impl: impl.ioum_matrix(a, b, b, a),
        "kernels.iou_elementwise_ms": lambda impl: impl.iou_elementwise(e, f),
        "kernels.nms_keep_ms": lambda impl: impl.nms_keep(nms_boxes, nms_order, 0.5),
    }


def run(scale: float = 1.0) -> tuple[dict[str, float], list[str]]:
    """Median time per case in ms on the active backend, and any mismatches."""
    times, problems = {}, []
    for name, case in _cases(scale).items():
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            case(_kernels)
            samples.append((time.perf_counter() - start) * 1e3)
        times[name] = statistics.median(samples)
        if _native is not None:
            try:
                np.testing.assert_array_equal(case(_python), case(_native))
            except AssertionError:
                problems.append(f"{name}: native and numpy backends differ")
    return times, problems
