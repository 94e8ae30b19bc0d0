"""The sha256 of every seeded CLI output, pinned.

Each of the six commands runs in process on small seeded inputs, and the
digests of its stdout and of every file it writes must equal the ones in
``data/cli_digests.json``. A change to a seeded stream, a draw order or an
output format shows up here even where every property test still passes.

The digests hold for the numpy version recorded in the JSON: NEP 19 does not
promise that ``Generator`` streams stay the same across numpy versions. A
deliberate change to an output regenerates the JSON with

    PYTHONPATH=src python tests/test_cli_digests.py > tests/data/cli_digests.json

and says which digests moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from pairbox.cli import main
from pairbox.formats import read_dataset, write_detections
from pairbox.simulation import MockDetectorSpec, mock_detect

DIGESTS = Path(__file__).parent / "data" / "cli_digests.json"

# the Baseline scene at 40 frames
GENERATE = ("generate", "--frames", "40", "--peds-mean", "3", "--misalign", "-3", "3",
            "--seed", "1")
SWEEP = ("--center-sigma", "3", "--score-sigma", "0.05", "--fp-per-frame", "2", "--seed", "3")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv, out: Path) -> dict:
    """The digests of ``main(argv)``'s stdout and of each file under ``out``."""
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main([str(a) for a in argv]) == 0
    digests = {"stdout": _sha(stdout.getvalue().encode("utf-8"))}
    files = [out] if out.is_file() else sorted(out.iterdir())
    digests.update((p.name, _sha(p.read_bytes())) for p in files)
    return digests


def _samples() -> dict:
    """A small loss sample file: rpn positives and negatives, and detector
    samples of every class, with offsets clear of the smooth-L1 kink."""
    rng = np.random.default_rng(5)

    def offsets():
        return {key: np.round(rng.normal(0.0, 0.4, 4), 3).tolist()
                for key in ("pred_v", "pred_t", "target_v", "target_t")}

    rpn = [{"label": k % 2, "logit": round(float(rng.normal(0.0, 2.0)), 3),
            **(offsets() if k % 2 else {})} for k in range(6)]
    det = [{"scores": np.round(rng.normal(0.0, 2.0, 3), 3).tolist(), "true_class": k % 3,
            **(offsets() if k % 3 else {})} for k in range(6)]
    return {"rpn": {"cfg": {"lambda": 1.0, "n_cls": 6, "n_reg": 3}, "samples": rpn},
            "detector": {"lambda": 1.0, "samples": det}}


def cli_digests(work: Path) -> dict:
    """Run the six commands on seeded inputs under ``work``; the digests of
    every input and output, by step."""
    gt, dets, samples = work / "gt.jsonl", work / "dets.jsonl", work / "samples.json"
    out = {"generate": _run([*GENERATE, "--out", gt], gt)}
    detector = MockDetectorSpec(mode="paired", center_noise_sigma=3, fp_per_frame=5,
                                score_noise_sigma=0.05, seed=2)
    write_detections(mock_detect(read_dataset(gt), detector), dets)
    samples.write_text(json.dumps(_samples()), encoding="utf-8")
    out["inputs"] = {p.name: _sha(p.read_bytes()) for p in (dets, samples)}
    steps = {
        "evaluate": ["evaluate", gt, dets, "--format", "svg", "--out", "{dir}"],
        "shift-sweep paired": ["shift-sweep", gt, "--mock", "paired", *SWEEP, "--out", "{dir}"],
        "shift-sweep single_box": ["shift-sweep", gt, "--mock", "single_box", *SWEEP,
                                   "--out", "{dir}"],
        "nms": ["nms", dets, "--iou-thresh", "0.3", "--out", "{dir}/kept.jsonl"],
        "assign": ["assign", gt, "--sample-batch", "255", "--seed", "4",
                   "--out", "{dir}/labels.jsonl"],
        "losses": ["losses", samples, "--grad-check", "--out", "{dir}/losses.txt"],
    }
    for k, (name, argv) in enumerate(steps.items()):
        d = work / f"step{k}"
        d.mkdir()
        out[name] = _run([str(a).replace("{dir}", str(d)) for a in argv], d)
    return out


def test_seeded_cli_outputs_match_the_pinned_digests(tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert cli_digests(tmp_path) == pinned["digests"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        record = {
            "note": "sha256 of the seeded CLI outputs of tests/test_cli_digests.py. They "
                    "hold for the numpy version below: NEP 19 does not promise stable "
                    "Generator streams across numpy versions. The per-frame mini-batch "
                    "stream planned in ROADMAP item 2 will change the assign digest on purpose.",
            "numpy": np.__version__,
            "digests": cli_digests(Path(work)),
        }
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")
