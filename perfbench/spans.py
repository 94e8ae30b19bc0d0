"""Outside-in tracing: spans around calls into pairbox's public functions.

The program is not modified. Each traced function is replaced, at the module
attribute its caller looks up at call time, by a wrapper that records a span
(name, start, end, parent, run id) and a few counts, and the originals are
put back afterwards. ``evaluate`` maps frames over a thread pool, so the
span stack is thread-local; a span opened on a pool thread with nothing open
on that thread takes as parent the innermost span open on the thread that
created the tracer, which is blocked in the pool map meanwhile.

A span's self time is its duration minus the union of its children's
intervals. On the pool, sibling spans overlap in time while they take turns
holding the interpreter lock, so the self times of one layer can add up to
more than the wall time they cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int


class _ThreadState:
    def __init__(self):
        self.stack: list[int] = []
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    """Spans and counts, kept per thread so that recording takes no lock."""

    def __init__(self):
        self.run = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._root_stack = self._state().stack
        self._patched: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    @property
    def spans(self) -> list[Span]:
        return sorted((s for t in self._threads for s in t.spans), key=lambda s: s.id)

    @property
    def counts(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        for t in self._threads:
            for key, value in t.counts.items():
                total[key] += value
        return total

    @contextmanager
    def span(self, name: str):
        state = self._state()
        stack = state.stack
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else None
        span_id = next(self._ids)  # one C call, atomic under the interpreter lock
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            state.spans.append(Span(span_id, name, start, end, parent, self.run))

    def add(self, counts: dict) -> None:
        mine = self._state().counts
        for key, value in counts.items():
            mine[key] += value

    def wrap(self, target: str, name: str, count=None) -> None:
        """Trace ``module.attr`` (given as ``"module:attr"``) under span ``name``.

        ``count(args, result)`` returns counts to add after each call; it runs
        outside the span so it does not inflate the layer's own time.
        """
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                self.add(count(args, result))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        spans = self.spans
        children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                children[s.parent].append(s)
        totals: dict[str, float] = defaultdict(float)
        for s in spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[s.name] += (s.end - s.start) - covered
        return totals


# --- what gets traced ------------------------------------------------------


def _n_dets(frames) -> int:
    return sum(len(fd.detections) for fd in frames)


def _pack_counts(args, packed) -> dict:
    return {"geometry.pack_calls": 1, "geometry.boxes_packed": len(packed)}


def _overlap_counts(args, overlaps) -> dict:
    return {"geometry.overlap_cells": overlaps.size}


def _match_counts(args, m) -> dict:
    return {"evaluation.match_calls": 1,
            "evaluation.tp": int(np.count_nonzero(m.det_outcomes == 1)),
            "evaluation.fp": int(np.count_nonzero(m.det_outcomes == 0)),
            "evaluation.ignored": int(np.count_nonzero(m.det_outcomes == -1)),
            "evaluation.fn": m.n_evaluable - int(np.count_nonzero(m.gt_detected))}


def _assign_counts(args, r) -> dict:
    return {"sampling.anchors_labeled": len(r.labels),
            "sampling.positives": int(np.count_nonzero(r.labels == 1)),
            "sampling.negatives": int(np.count_nonzero(r.labels == 0))}


# (module:attribute as the caller looks it up, span name, counts)
TARGETS = [
    ("pairbox.cli:read_dataset", "formats.read_dataset",
     lambda a, r: {"formats.bytes_read": os.path.getsize(a[0])}),
    ("pairbox.cli:read_detections", "formats.read_detections",
     lambda a, r: {"formats.bytes_read": os.path.getsize(a[0]),
                   "formats.dets_parsed": _n_dets(r)}),
    ("pairbox.cli:write_detections", "formats.write_detections",
     lambda a, r: {"formats.bytes_written": os.path.getsize(a[1])}),
    ("pairbox.evaluation:boxes_to_array", "geometry.pack", _pack_counts),
    ("pairbox.pairnms:boxes_to_array", "geometry.pack", _pack_counts),
    # pairs_to_arrays packs through this one
    ("pairbox.geometry:boxes_to_array", "geometry.pack", _pack_counts),
    ("pairbox.sampling:pairs_to_arrays", "geometry.pack", None),
    ("pairbox.evaluation:iou_matrix", "geometry.overlap", _overlap_counts),
    ("pairbox.evaluation:iou_multimodal_matrix", "geometry.overlap", _overlap_counts),
    ("pairbox.sampling:iou_multimodal_matrix", "geometry.overlap", _overlap_counts),
    ("pairbox.cli:paired_nms", "pairnms.paired_nms",
     lambda a, r: {"pairnms.candidates": len(a[0]), "pairnms.kept": len(r)}),
    ("pairbox._kernels:nms_keep", "pairnms.nms_keep", None),
    ("pairbox.cli:evaluate", "evaluation.evaluate", None),
    ("pairbox.evaluation:filter_reasonable", "evaluation.filter", None),
    ("pairbox.evaluation:match_frame", "evaluation.match", _match_counts),
    ("pairbox.evaluation:miss_rate_curve", "evaluation.curve",
     lambda a, r: {"evaluation.curve_points": len(r.points)}),
    ("pairbox.evaluation:log_average_miss_rate", "evaluation.lamr", None),
    ("pairbox.cli:write_curve_csv", "evaluation.write", None),
    ("pairbox.cli:apply_shift", "simulation.apply_shift", None),
    ("pairbox.cli:mock_detect", "simulation.mock_detect",
     lambda a, r: {"simulation.dets_emitted": _n_dets(r)}),
    ("pairbox.cli:generate_anchor_grid", "sampling.anchor_grid", None),
    ("pairbox.cli:assign_rpn", "sampling.assign", _assign_counts),
    ("pairbox.cli:assign_detector", "sampling.assign", _assign_counts),
    ("pairbox.cli:sample_minibatch", "sampling.minibatch", None),
    ("pairbox.cli:rpn_loss", "regression.rpn_loss",
     lambda a, r: {"regression.samples": len(a[0])}),
    ("pairbox.cli:detector_loss", "regression.detector_loss",
     lambda a, r: {"regression.samples": 1}),
    # only the gradient check calls these two through the cli module
    ("pairbox.cli:smooth_l1", "regression.grad_check", None),
    ("pairbox.cli:cross_entropy", "regression.grad_check", None),
]

TIMED_SPANS = sorted({name for _, name, _ in TARGETS} | {"cli"})
COUNTS = [
    "formats.dets_parsed", "formats.bytes_read", "formats.bytes_written",
    "geometry.pack_calls", "geometry.boxes_packed", "geometry.overlap_cells",
    "pairnms.candidates", "pairnms.kept",
    "evaluation.match_calls", "evaluation.tp", "evaluation.fp", "evaluation.ignored",
    "evaluation.fn", "evaluation.curve_points",
    "simulation.dets_emitted",
    "sampling.anchors_labeled", "sampling.positives", "sampling.negatives",
    "regression.samples",
]


def install(tracer: Tracer) -> None:
    for target, name, count in TARGETS:
        tracer.wrap(target, name, count)
