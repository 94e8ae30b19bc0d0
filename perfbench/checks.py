"""Output checks that share no code path with the program under test.

Each check reads the artifacts a command wrote and returns a list of
problems (empty when the output is right). The references are the test
suite's own oracles (``tests/oracles.py``, imported from the checkout, not
copied) and scalar recomputations; sampled frames are chosen from the seed.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np

from pairbox.geometry import Box, PairedBox, iou_multimodal

SAMPLE_FRAMES = 4
GRAD_TOL = 1e-6
RPN_POS, RPN_NEG = 0.63, 0.3  # the CLI's default proposal-stage thresholds


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("pairbox_test_oracles",
                                                  root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read_jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _sample(rng: np.random.Generator, n: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(n, size=min(SAMPLE_FRAMES, n), replace=False))


def check_nms(out: Path, data: dict, thresh: float, oracles, rng) -> list[str]:
    """Kept sets equal the reference greedy NMS on the thermal boxes."""
    problems = []
    kept = _read_jsonl(out / "kept.jsonl")
    proposals = data["proposals"]
    if [r["frame"] for r in kept] != [r["frame"] for r in proposals]:
        return ["nms: frame ids differ from the input"]
    for i in _sample(rng, len(proposals)):
        dets = proposals[i]["dets"]
        want = oracles.naive_nms([tuple(d["t"]) for d in dets], [d["score"] for d in dets],
                                 thresh)
        if kept[i]["dets"] != [dets[k] for k in want]:
            problems.append(f"nms: frame {proposals[i]['frame']} kept set differs from naive_nms")
    return problems


def _anchor_grid(width: float, height: float, stride=16.0, heights=(50.0, 100.0, 200.0),
                 aspect=0.41) -> list[PairedBox]:
    """The CLI's default 3,840-anchor grid, built here from its definition."""
    anchors = []
    for iy in range(int(math.floor(height / stride))):
        cy = (iy + 0.5) * stride
        for ix in range(int(math.floor(width / stride))):
            cx = (ix + 0.5) * stride
            for h in heights:
                w = aspect * h
                box = Box(cx - 0.5 * w, cy - 0.5 * h, w, h)
                anchors.append(PairedBox(box, box))
    return anchors


def check_assign(out: Path, data: dict, batch: int, rng) -> list[str]:
    """max_ioum and labels equal a recomputation with scalar ``iou_multimodal``."""
    problems = []
    records = _read_jsonl(out / "labels.jsonl")
    gts = data["gts"]
    if [r["frame"] for r in records] != list(gts):
        return ["assign: frame ids differ from the input"]
    anchors = _anchor_grid(*data["image"])
    for i in _sample(rng, len(records)):
        rec = records[i]
        frame_gts = gts[rec["frame"]]
        best = [max((iou_multimodal(g, a) for g in frame_gts), default=0.0) for a in anchors]
        labels = [1 if m > RPN_POS else 0 if m < RPN_NEG else -1 for m in best]
        if rec["max_ioum"] != best:
            problems.append(f"assign: frame {rec['frame']} max_ioum differs from the scalar IoU")
        if rec["labels"] != labels:
            problems.append(f"assign: frame {rec['frame']} labels differ from the thresholds")
        sel = rec.get("selected", [])
        pos = sum(1 for k in sel if labels[k] == 1)
        if (sel != sorted(set(sel)) or len(sel) > batch or pos > batch // 2
                or any(labels[k] == -1 for k in sel)):
            problems.append(f"assign: frame {rec['frame']} mini-batch is malformed")
    return problems


def check_losses(stdout: str) -> list[str]:
    """Both gradient checks report a max abs error below ``GRAD_TOL``."""
    errs = re.findall(r"^grad_check \S+ \S+ max_abs_err=(\S+)$", stdout, re.MULTILINE)
    if len(errs) != 2:
        return ["losses: expected two grad_check lines"]
    return [f"losses: grad check error {e} >= {GRAD_TOL}" for e in errs if not float(e) < GRAD_TOL]


def check_table(text: str, rows: int, key_columns: int, label: str) -> list[str]:
    """A results table has ``rows`` data rows whose columns after the first
    ``key_columns`` are miss rates within [0, 1]."""
    lines = text.strip().splitlines()[1:]
    values = [float(v) for line in lines for v in line.split()[key_columns:]]
    if len(lines) != rows or not values or not all(0.0 <= v <= 1.0 for v in values):
        return [f"{label}: table does not hold {rows} rows of miss rates in [0, 1]"]
    return []
