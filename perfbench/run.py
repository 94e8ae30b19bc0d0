"""pairbox benchmark: three CLI workloads, end-to-end metrics, per-layer spans.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload eval-kaist --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each run builds its inputs from ``--seed`` (see ``workloads.py``), then runs
the workload's commands as real ``python -m pairbox`` subprocesses, in the
program's default configuration, repeatedly for ``--seconds`` seconds. Every
command's exit code, stderr, stdout and artifacts are checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics: the workload's total wall time
and CPU time, averaged over the repeats without the fastest and the slowest,
the median over repeats of the largest peak RSS of its processes, and
``setup_s``, the median wall time of a CLI process that only
imports the package, selects the kernel backend and exits.

``--trace 1`` measures the same way and then runs the workload's commands
once more in this process with every layer's public functions wrapped
(``spans.py``), which must produce byte-identical outputs; it reports the
per-layer self times and counts, the kernel micro-cases (``kernels.py``),
the per-command wall times, the failed ratio and the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Run records, with the machine facts, input sizes
and spans, go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _terminate(signum, frame):
    # unwinds through the harness, which kills and reaps the running command
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "pairbox" / "__init__.py").is_file():
        print(f"error: no pairbox sources under {SRC}", file=sys.stderr)
        return 2
    # the program runs in its default configuration; the backend is chosen at import
    for var in ("PAIRBOX_THREADS", "PAIRBOX_PURE_PYTHON"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    import harness

    if Path(harness.pairbox.__file__).resolve().parent != SRC / "pairbox":
        print(f"error: imported pairbox from {harness.pairbox.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(harness.workloads.WHY))
    parser.add_argument("--seed", type=int, default=harness.workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; check every metric is emitted with its unit")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's output digests as the reference (seed 1)")
    args = parser.parse_args()
    if args.smoke:
        return harness.smoke()
    if args.workload is None:
        parser.error("--workload is required")
    rec = harness.bench(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False,
                        write_reference=args.write_reference)
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(rec) + "\n")
    harness.report(rec)
    print(harness.result_line(rec, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
