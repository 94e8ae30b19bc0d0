"""The names the benchmark under ``perfbench/`` looks up in the package.

The benchmark wraps and calls these by name, so deleting one leaves every
other test passing and only crashes a traced benchmark run. This module
reads ``perfbench/`` and changes nothing in it.
"""

import importlib.util
import sys
from pathlib import Path

import pairbox
from pairbox import _kernels, evaluation
from pairbox._kernels import _python

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# the kernels perfbench/kernels.py times on the package and compares on the numpy module
KERNELS = ("iou_matrix", "ioum_matrix", "iou_elementwise", "nms_keep")


def test_every_span_target_can_be_wrapped(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up there
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)  # looks up each "module:attribute" target; a missing one raises
    finally:
        tracer.restore()


def test_harness_names_exist():
    assert evaluation.thread_count() == 1
    assert pairbox.KERNEL_BACKEND == "python"


def test_timed_kernels_exist_on_both_modules():
    for name in KERNELS:
        assert callable(getattr(_kernels, name))
        assert callable(getattr(_python, name))
