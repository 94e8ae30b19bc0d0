"""Measurement, tracing and reporting for one benchmark run (see run.py)."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import checks
import kernels
import pairbox
import pairbox.cli
import spans
import workloads
from pairbox.evaluation import thread_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PROBES = 9
UNITS = {"_s": "s", "_ms": "ms", "bytes_read": "bytes", "bytes_written": "bytes",
         "_ratio": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "MB" if name == "peak_rss_mb" else "count"


class Ledger:
    """Commands attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(p for p in problems if p not in self.problems)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(argv: list[str], logs: Path) -> dict:
    """Run ``python -m pairbox argv``; wall, CPU and peak RSS come from wait4."""
    with open(logs / "stdout", "wb") as out, open(logs / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "pairbox", *argv], stdout=out,
                                stderr=err, env=_env(), cwd=logs)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode,
            "stdout": (logs / "stdout").read_bytes(),
            "stderr": (logs / "stderr").read_text(encoding="utf-8", errors="replace")}


def _status_problems(label: str, code, stderr: str) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"{label}: exit code {code}")
    if "Traceback" in stderr:
        problems.append(f"{label}: traceback on stderr")
    return problems


def digests(cmd, stdout: bytes, out: Path) -> dict[str, str]:
    found = {"stdout": hashlib.sha256(stdout).hexdigest()}
    for name in cmd.artifacts:
        path = out / name
        found[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return found


def output_problems(cmd, stdout: str, out: Path, inputs, oracles, seed: int) -> list[str]:
    """Checks of one command's outputs against independent references."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    if cmd.name == "evaluate":
        table = (out / "eval_table.txt").read_text(encoding="utf-8")
        return checks.check_table(table, 6, 2, "evaluate")
    if cmd.name == "shift-sweep":
        return checks.check_table(stdout, 9, 1, "shift-sweep")
    if cmd.name == "nms":
        return checks.check_nms(out, inputs.data, workloads.NMS_THRESH, oracles, rng)
    if cmd.name == "assign":
        return checks.check_assign(out, inputs.data, workloads.SAMPLE_BATCH, rng)
    return checks.check_losses(stdout)


def central_mean(values) -> float:
    """Mean of the repeats without the fastest and the slowest one.

    The host's speed switches between modes that last seconds, so a median
    of short repeats reports whichever mode held most of the run, while a
    mean weighs the modes by the time they held. Dropping the two extremes
    keeps one stalled repeat out; for three repeats this is the median.
    """
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) >= 3 else values)


def setup_time(ledger: Ledger, work: Path, probes: int) -> list[float]:
    """Wall time of CLI processes that import pairbox, pick the backend and exit."""
    samples = []
    for _ in range(probes):
        r = run_cli(["--help"], work)
        problems = _status_problems("setup", r["code"], r["stderr"])
        if not r["stdout"].startswith(b"usage: pairbox"):
            problems.append("setup: no usage text")
        ledger.record(problems)
        samples.append(r["wall"])
    return samples


def measure(inputs, seconds: float, seed: int, reference, ledger: Ledger, work: Path, oracles):
    """Repeat the workload's commands until about ``seconds`` of them have run.

    The last repeat is the one that brings the command time nearest to
    ``seconds``, so a run measures ``seconds`` on average. Set-up probes are
    spread over the run, about ``MIN_PROBES`` per ``seconds``, so that
    ``setup_s`` samples the same stretch of time as the commands on a
    machine whose speed drifts.
    """
    repeats: list[dict] = []
    setup: list[float] = []
    first: dict[str, dict] = {}
    checked: dict[str, list[str]] = {}
    spent = 0.0
    while True:
        due = 1 + int(MIN_PROBES * spent / seconds)
        setup += setup_time(ledger, work, max(due - len(setup), 0))
        out = work / f"r{len(repeats)}"
        out.mkdir()
        rep = {"wall": 0.0, "cpu": 0.0, "rss_mb": 0.0, "commands": {}}
        for cmd in inputs.commands:
            r = run_cli(cmd.argv(out), work)
            problems = _status_problems(cmd.name, r["code"], r["stderr"])
            found = digests(cmd, r["stdout"], out)
            if cmd.name not in first:
                first[cmd.name] = found
                checked[cmd.name] = ([] if problems else output_problems(
                    cmd, r["stdout"].decode("utf-8", "replace"), out, inputs, oracles, seed))
                if reference is not None and reference.get(cmd.name) != found:
                    checked[cmd.name].append(f"{cmd.name}: outputs differ from the reference")
            elif found != first[cmd.name]:
                problems.append(f"{cmd.name}: outputs differ between repeats")
            ledger.record(problems + checked[cmd.name])
            rep["wall"] += r["wall"]
            rep["cpu"] += r["cpu"]
            rep["rss_mb"] = max(rep["rss_mb"], r["rss_mb"])
            rep["commands"][cmd.name] = r["wall"]
        shutil.rmtree(out)
        repeats.append(rep)
        spent += rep["wall"]
        if spent + statistics.median(rp["wall"] for rp in repeats) / 2 > seconds:
            setup += setup_time(ledger, work, max(MIN_PROBES - len(setup), 0))
            return repeats, first, setup


def traced_run(inputs, first: dict, ledger: Ledger, work: Path) -> spans.Tracer:
    """Run the commands once in-process with every layer traced."""
    tracer = spans.Tracer()
    spans.install(tracer)
    out = work / "traced"
    out.mkdir()
    try:
        for run_id, cmd in enumerate(inputs.commands, start=1):
            tracer.run = run_id
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr), tracer.span("cli"):
                try:
                    code = pairbox.cli.main(cmd.argv(out))
                except Exception:
                    code = None
                    stderr.write(traceback.format_exc())
            problems = _status_problems(f"traced {cmd.name}", code, stderr.getvalue())
            if digests(cmd, stdout.getvalue().encode("utf-8"), out) != first.get(cmd.name):
                problems.append(f"traced {cmd.name}: outputs differ from the untraced run")
            ledger.record(problems)
    finally:
        tracer.restore()
        shutil.rmtree(out)
    return tracer


def layer_metrics(tracer: spans.Tracer) -> dict[str, float]:
    self_times = tracer.self_times()
    m = {("cli.self_s" if n == "cli" else f"{n}_s"): self_times.get(n, 0.0)
         for n in spans.TIMED_SPANS}
    m.update({n: tracer.counts.get(n, 0) for n in spans.COUNTS})
    m["pairnms.keep_ratio"] = m["pairnms.kept"] / m["pairnms.candidates"] \
        if m["pairnms.candidates"] else 0.0
    m["sampling.pos_ratio"] = m["sampling.positives"] / m["sampling.anchors_labeled"] \
        if m["sampling.anchors_labeled"] else 0.0
    return m


def machine_facts() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "backend": pairbox.KERNEL_BACKEND, "pool_threads": thread_count(),
            "machine": platform.machine()}


def bench(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
          write_reference: bool = False) -> dict:
    sizes = workloads.SMOKE if smoke else workloads.FULL
    ref_path = HERE / "reference_digests.json"
    stored = json.loads(ref_path.read_text()) if ref_path.exists() else {}
    use_reference = seed == workloads.DEFAULT_SEED and not smoke and not write_reference
    reference = stored.get(workload, {}) if use_reference else None
    ledger = Ledger()
    work = ROOT / ".perfbench-work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    try:
        inputs = workloads.build(workload, seed, sizes, work / "in")
        oracles = checks.load_oracles(ROOT)
        repeats, first, setup = measure(inputs, seconds, seed, reference, ledger, work, oracles)
        walls = [r["wall"] for r in repeats]
        metrics = {
            "wall_s": central_mean(walls),
            "cpu_s": central_mean(r["cpu"] for r in repeats),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in repeats),
            "setup_s": statistics.median(setup),
        }
        layers, span_records = {}, []
        if trace:
            tracer = traced_run(inputs, first, ledger, work)
            layers = layer_metrics(tracer)
            traced_wall = sum(s.end - s.start for s in tracer.spans if s.name == "cli")
            # the in-process run skips interpreter start-up, which setup_s measures
            layers["trace.overhead_s"] = (traced_wall + len(inputs.commands) * metrics["setup_s"]
                                          - metrics["wall_s"])
            kernel_times, kernel_problems = kernels.run(0.05 if smoke else 1.0)
            layers.update(kernel_times)
            ledger.record(kernel_problems)
            for name in ("nms", "assign", "losses"):
                layers[f"{name}_s"] = central_mean(
                    r["commands"].get(name, 0.0) for r in repeats)
            layers["failed_ratio"] = ledger.failed / ledger.attempted
            span_records = [dataclasses.asdict(s) for s in tracer.spans]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if write_reference:
        stored[workload] = first
        ref_path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return {"workload": workload, "why": workloads.WHY[workload], "seed": seed,
            "seconds": seconds, "smoke": smoke, "facts": machine_facts(), "inputs": inputs.info,
            "repeats": len(repeats), "walls": walls, "setup_samples": setup,
            "end_to_end": metrics, "per_layer": layers,
            "attempted": ledger.attempted, "failed": ledger.failed,
            "problems": ledger.problems, "spans": span_records}


def report(rec: dict) -> None:
    facts = rec["facts"]
    print(f"workload {rec['workload']} (seed {rec['seed']}): {rec['why']}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, info in rec["inputs"].items():
        print(f"input {name} " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"repeats {rec['repeats']}, setup probes {len(rec['setup_samples'])}, "
          f"commands attempted {rec['attempted']}, failed {rec['failed']}, "
          f"failed_ratio {rec['failed'] / rec['attempted']:.4f}")
    for problem in rec["problems"]:
        print(f"FAILED {problem}")
    for section in ("end_to_end", "per_layer"):
        for name, value in rec[section].items():
            shown = f"{value:.6f}" if isinstance(value, float) else str(value)
            print(f"{section:<10} {name:<32} {shown:>16} {unit_of(name)}")


def result_line(rec: dict, trace: bool) -> str:
    metrics = rec["per_layer"] if trace else rec["end_to_end"]
    return json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                       "failed": rec["failed"],
                       "metrics": {n: {"value": v, "unit": unit_of(n)}
                                   for n, v in metrics.items()}})


def smoke() -> int:
    """Tiny inputs, every workload, both trace modes: every metric of
    ``BENCHMARK.json`` must be emitted with its unit, and nothing may fail."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for workload in workloads.WHY:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            rec = bench(workload, workloads.DEFAULT_SEED, 1.0, trace, smoke=True)
            got = json.loads(result_line(rec, trace))
            want = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {n: v["unit"] for n, v in got["metrics"].items()}
            ok = emitted == want and got["correct"]
            bad += not ok
            print(f"smoke {workload} trace={int(trace)}: {'ok' if ok else 'FAILED'}"
                  + ("" if ok else f" missing={sorted(set(want) - set(emitted))} "
                                   f"extra={sorted(set(emitted) - set(want))} "
                                   f"problems={rec['problems']}"))
    return 1 if bad else 0


