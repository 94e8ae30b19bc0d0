"""The names the benchmark under ``perfbench/`` looks up in the package,
and what it reads off the values the package returns.

The benchmark wraps and calls these by name, and its input builders and
count callbacks read attributes of the returned frames, tables, matches and
curves, so deleting one leaves every other test passing and only crashes a
benchmark run. This module reads ``perfbench/`` and changes nothing in it.
"""

import ast
import importlib.util
import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import pairbox
from pairbox import _kernels, evaluation
from pairbox._kernels import _python
from pairbox.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(pairbox.__file__).resolve().parent
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


def _unused_imports(tree: ast.Module) -> set[str]:
    """The names a module imports but neither uses nor lists in ``__all__``."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                 for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_every_unused_import_is_a_span_target():
    """An import the package does not use is kept only because the benchmark
    wraps it under that module's name; once the benchmark stops looking it
    up, this names the import to delete."""
    targets = set(re.findall(r'"(pairbox[\w.]*:\w+)"', (PERFBENCH / "spans.py").read_text("utf-8")))
    assert targets  # a pattern that finds none would excuse nothing
    dead = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(("pairbox", *path.relative_to(PACKAGE).with_suffix("").parts))
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text("utf-8"), str(path))
        dead += [f"{module}:{name}" for name in sorted(_unused_imports(tree))]
    assert [name for name in dead if name not in targets] == []
