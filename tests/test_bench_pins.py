"""The names the benchmark under ``perfbench/`` looks up in the package,
and what it reads off the values the package returns.

The benchmark wraps and calls these by name, and its input builders and
count callbacks read attributes of the returned frames, tables, matches and
curves, so deleting one leaves every other test passing and only crashes a
benchmark run. This module reads ``perfbench/`` and changes nothing in it.
"""

import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import pairbox
from pairbox import _kernels, evaluation
from pairbox._kernels import _python
from pairbox.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the kernels perfbench/kernels.py times on the package and compares on the numpy module
KERNELS = ("iou_matrix", "ioum_matrix", "iou_elementwise", "nms_keep")


def _load(name: str, monkeypatch):
    """The module ``perfbench/<name>.py``, under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def test_every_span_target_can_be_wrapped(monkeypatch):
    spans = _load("spans", monkeypatch)
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


def test_smoke_workloads_build_and_run_traced(tmp_path, monkeypatch):
    """Every workload's smoke inputs build from ``generate_scene`` frames and
    ``mock_detect`` tables, and its commands run in-process under the tracer,
    whose count callbacks read the values the package returns."""
    workloads = _load("workloads", monkeypatch)
    spans = _load("spans", monkeypatch)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        for name in workloads.WHY:
            work = tmp_path / name
            work.mkdir()
            for cmd in workloads.build(name, workloads.DEFAULT_SEED, workloads.SMOKE,
                                       work).commands:
                err = io.StringIO()
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    assert main(cmd.argv(work)) == 0, (name, cmd.name, err.getvalue())
        # evaluate calls neither; the tracer still counts off their results
        match = evaluation.match_frame(np.array([0.9, 0.4]), np.array([[0.8], [0.6]]),
                                       np.array([True]))
        curve = evaluation.miss_rate_curve([match])
    finally:
        tracer.restore()
    counts = tracer.counts
    assert counts["simulation.dets_emitted"] > 0 and counts["formats.dets_parsed"] > 0
    assert counts["sampling.anchors_labeled"] > 0 and counts["pairnms.kept"] > 0
    assert (counts["evaluation.match_calls"], counts["evaluation.tp"],
            counts["evaluation.fp"], counts["evaluation.fn"]) == (1, 1, 1, 0)
    assert counts["evaluation.curve_points"] == len(curve.points) == 2
