"""Seeded inputs and command lines for the benchmark workloads.

Every input is a pure function of the workload seed and the size table, so
the same seed gives byte-identical files. The annotation and detection files
reproduce the ROADMAP *Baseline*: seed 1 gives exactly its 2,252 frames and
51,537 paired mock detections. The program under test only ever sees the
written files and the command-line arguments.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pairbox.simulation import MockDetectorSpec, SceneSpec, generate_scene, mock_detect

DEFAULT_SEED = 1

WHY = {
    "eval-kaist": "scores a KAIST-test-scale paired detection file, the paper's main use; "
                  "read-heavy, with parse, greedy matching, curves and packing hot",
    "sweep-shift": "the paper's misalignment experiment: evaluation driven from in-memory "
                   "mock detections over nine thermal shifts, with almost no file parsing",
    "train-prep": "the training-side consumer: proposal NMS that really suppresses, anchor "
                  "labelling and the losses with a gradient check; write-heavy",
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes: ``FULL`` for measuring, ``SMOKE`` for the quick ``--smoke`` check."""

    frames: int            # Baseline frames scored by eval-kaist
    sweep_frames: int      # prefix of the Baseline GT swept by sweep-shift
    sweep_fp_per_frame: float
    nms_frames: int        # frames of the dense proposal file
    nms_per_frame: int     # candidates per frame, a fixed count whatever the GT
    nms_background: int    # of which drawn anywhere; the rest cluster on the GT
    assign_frames: int     # prefix of the Baseline GT labelled by assign
    rpn_samples: int
    det_samples: int


FULL = Sizes(frames=2252, sweep_frames=250, sweep_fp_per_frame=5.0,
             nms_frames=200, nms_per_frame=300, nms_background=120,
             assign_frames=300, rpn_samples=2000, det_samples=1500)
SMOKE = Sizes(frames=40, sweep_frames=20, sweep_fp_per_frame=2.0,
              nms_frames=4, nms_per_frame=30, nms_background=20,
              assign_frames=3, rpn_samples=20, det_samples=10)

NMS_THRESH = 0.7
SAMPLE_BATCH = 256
IMAGE_W, IMAGE_H = 640.0, 512.0


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``{out}`` in an argument names the output directory."""

    name: str
    args: tuple[str, ...]
    artifacts: tuple[str, ...]

    def argv(self, out: Path) -> list[str]:
        return [a.replace("{out}", str(out)) for a in self.args]


@dataclass
class Inputs:
    commands: list[Command]
    info: dict          # input sizes per file, recorded beside the metrics
    data: dict          # in-memory copies the output checks compare against


def _dump(record) -> str:
    return json.dumps(record, separators=(",", ":"))


def _write_lines(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            fh.write(_dump(r) + "\n")


def _box(b) -> list[float]:
    return [b.x, b.y, b.w, b.h]


def _write_gt(path: Path, frames) -> dict:
    meta = {"meta": {"name": "synthetic", "width": IMAGE_W, "height": IMAGE_H}}
    records = [{"frame": f.frame_id,
                "objects": [{"v": _box(o.pair.visible), "t": _box(o.pair.thermal),
                             "occ": o.occlusion, "ignore": o.ignore} for o in f.objects]}
               for f in frames]
    _write_lines(path, [meta, *records])
    return {"frames": len(frames), "objects": sum(len(f.objects) for f in frames),
            "bytes": os.path.getsize(path)}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def baseline_frames(seed: int, n: int):
    """The Baseline scene: ``SceneSpec(num_frames=2252, peds_per_frame=3, ...)``.

    Frame streams are keyed by frame index, so a smaller ``n`` is a prefix.
    """
    return generate_scene(SceneSpec(num_frames=n, peds_per_frame=3,
                                    misalign_range=(-3, 3), seed=seed))


def _eval_kaist(seed: int, sizes: Sizes, work: Path) -> Inputs:
    frames = baseline_frames(seed, sizes.frames)
    dets = mock_detect(frames, MockDetectorSpec(mode="paired", center_noise_sigma=3,
                                                fp_per_frame=20, score_noise_sigma=0.05,
                                                seed=seed + 1))
    gt_info = _write_gt(work / "gt.jsonl", frames)
    _write_lines(work / "dets.jsonl",
                 ({"frame": fd.frame_id,
                   "dets": [{"v": _box(d.pair.visible), "t": _box(d.pair.thermal),
                             "score": d.score} for d in fd.detections]} for fd in dets))
    info = {"gt.jsonl": gt_info,
            "dets.jsonl": {"frames": len(dets), "dets": sum(len(fd.detections) for fd in dets),
                           "bytes": os.path.getsize(work / "dets.jsonl")}}
    cmd = Command("evaluate",
                  ("evaluate", str(work / "gt.jsonl"), str(work / "dets.jsonl"),
                   "--format", "svg", "--out", "{out}"),
                  ("eval_table.txt", "eval_curves.csv", "eval_curves.svg"))
    return Inputs([cmd], info, {})


def _sweep_shift(seed: int, sizes: Sizes, work: Path) -> Inputs:
    frames = baseline_frames(seed, sizes.sweep_frames)
    info = {"gt.jsonl": _write_gt(work / "gt.jsonl", frames)}
    cmd = Command("shift-sweep",
                  ("shift-sweep", str(work / "gt.jsonl"), "--mock", "single_box",
                   "--center-sigma", "3", "--score-sigma", "0.05",
                   "--fp-per-frame", repr(sizes.sweep_fp_per_frame),
                   "--seed", str(seed + 2), "--out", "{out}"),
                  ("shift_sweep.txt", "shift_sweep.csv"))
    return Inputs([cmd], info, {})


def _proposals(frames, sizes: Sizes, rng: np.random.Generator) -> list[dict]:
    """Dense, heavily overlapping paired candidates around each GT pair.

    Every frame holds ``nms_per_frame`` candidates, so the file's size does
    not depend on the seed. Visible boxes jitter around the visible GT; each
    thermal partner is its visible box moved by the GT's own misalignment plus
    a little noise, so thermal NMS suppresses most of each cluster.
    """
    records = []
    for f in frames:
        gts = [(o.pair.visible, o.pair.thermal.x - o.pair.visible.x) for o in f.objects]
        clustered = sizes.nms_per_frame - sizes.nms_background if gts else 0
        per_gt = np.diff(np.linspace(0, clustered, len(gts) + 1).astype(int))
        boxes, offsets = [], []
        for (v, dx), n in zip(gts, per_gt):
            w = v.w * np.exp(rng.normal(0.0, 0.12, n))
            h = v.h * np.exp(rng.normal(0.0, 0.12, n))
            cx = v.x + 0.5 * v.w + rng.normal(0.0, 0.12 * v.w, n)
            cy = v.y + 0.5 * v.h + rng.normal(0.0, 0.08 * v.h, n)
            boxes.append(np.stack([cx - 0.5 * w, cy - 0.5 * h, w, h], axis=1))
            offsets.append(np.full(n, dx))
        n = sizes.nms_per_frame - clustered
        h = rng.uniform(40.0, 160.0, n)
        w = 0.41 * h
        boxes.append(np.stack([rng.uniform(0.0, IMAGE_W - w), rng.uniform(0.0, IMAGE_H - h),
                               w, h], axis=1))
        offsets.append(np.zeros(n))
        vis = np.concatenate(boxes)
        therm = vis.copy()
        therm[:, 0] += np.concatenate(offsets) + rng.normal(0.0, 1.5, len(vis))
        scores = rng.random(len(vis))
        order = rng.permutation(len(vis))
        records.append({"frame": f.frame_id,
                        "dets": [{"v": vis[i].tolist(), "t": therm[i].tolist(),
                                  "score": float(scores[i])} for i in order]})
    return records


def _offsets(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Prediction/target offset pairs whose differences keep clear of the
    smooth-L1 kink at |x| = 1, where a central difference is not exact."""
    target = rng.normal(0.0, 0.5, (n, 4))
    diff = rng.normal(0.0, 0.8, (n, 4))
    near_kink = np.abs(np.abs(diff) - 1.0) < 1e-3
    diff[near_kink] *= 0.9
    return target + diff, target


def _losses_payload(sizes: Sizes, rng: np.random.Generator) -> dict:
    rpn = []
    pred_v, target_v = _offsets(rng, sizes.rpn_samples)
    pred_t, target_t = _offsets(rng, sizes.rpn_samples)
    for k in range(sizes.rpn_samples):
        s = {"label": int(k % 2 == 0), "logit": float(rng.normal(0.0, 2.0))}
        if s["label"]:
            s.update(pred_v=pred_v[k].tolist(), pred_t=pred_t[k].tolist(),
                     target_v=target_v[k].tolist(), target_t=target_t[k].tolist())
        rpn.append(s)
    det = []
    pred_v, target_v = _offsets(rng, sizes.det_samples)
    pred_t, target_t = _offsets(rng, sizes.det_samples)
    for k in range(sizes.det_samples):
        s = {"scores": rng.normal(0.0, 2.0, 3).tolist(), "true_class": int(rng.integers(0, 3))}
        if s["true_class"]:
            s.update(pred_v=pred_v[k].tolist(), pred_t=pred_t[k].tolist(),
                     target_v=target_v[k].tolist(), target_t=target_t[k].tolist())
        det.append(s)
    return {"rpn": {"cfg": {"lambda": 1.0, "n_cls": 256, "n_reg": 2400}, "samples": rpn},
            "detector": {"lambda": 1.0, "samples": det}}


def _train_prep(seed: int, sizes: Sizes, work: Path) -> Inputs:
    frames = baseline_frames(seed, max(sizes.nms_frames, sizes.assign_frames))
    proposals = _proposals(frames[:sizes.nms_frames], sizes, _rng(seed, 1))
    _write_lines(work / "proposals.jsonl", proposals)
    assign_frames = frames[:sizes.assign_frames]
    gt_info = _write_gt(work / "gt.jsonl", assign_frames)
    payload = _losses_payload(sizes, _rng(seed, 2))
    with open(work / "samples.json", "w", encoding="utf-8") as fh:
        fh.write(_dump(payload))
    info = {"proposals.jsonl": {"frames": len(proposals),
                                "dets": sum(len(r["dets"]) for r in proposals),
                                "bytes": os.path.getsize(work / "proposals.jsonl")},
            "gt.jsonl": gt_info,
            "samples.json": {"rpn_samples": sizes.rpn_samples, "det_samples": sizes.det_samples,
                             "bytes": os.path.getsize(work / "samples.json")}}
    commands = [
        Command("nms", ("nms", str(work / "proposals.jsonl"), "--iou-thresh", repr(NMS_THRESH),
                        "--out", "{out}/kept.jsonl"), ("kept.jsonl",)),
        Command("assign", ("assign", str(work / "gt.jsonl"), "--stage", "rpn",
                           "--sample-batch", str(SAMPLE_BATCH), "--seed", str(seed + 3),
                           "--out", "{out}/labels.jsonl"), ("labels.jsonl",)),
        Command("losses", ("losses", str(work / "samples.json"), "--grad-check",
                           "--out", "{out}/losses.txt"), ("losses.txt",)),
    ]
    gts = {f.frame_id: [o.pair for o in f.objects if not o.ignore] for f in assign_frames}
    return Inputs(commands, info, {"proposals": proposals, "gts": gts,
                                   "image": (IMAGE_W, IMAGE_H)})


_MAKE = {"eval-kaist": _eval_kaist, "sweep-shift": _sweep_shift, "train-prep": _train_prep}


def build(workload: str, seed: int, sizes: Sizes, work: Path) -> Inputs:
    return _MAKE[workload](seed, sizes, work)
