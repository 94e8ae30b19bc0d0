"""Command-line toolkit composing the library into end-to-end pipelines.

Subcommands:

* ``evaluate``    -- score a detection file against annotations; emits a
                     summary table, the authoritative curve CSV, and an
                     optional SVG plot.
* ``shift-sweep`` -- inject horizontal thermal misalignment over a sweep of
                     shifts, run a mock detector (or load per-shift
                     detection files) and tabulate pooled-IoU miss rates.
* ``generate``    -- write a seeded synthetic paired dataset.
* ``nms``         -- apply paired NMS to a detection file.
* ``assign``      -- label anchor pairs against ground truth and optionally
                     draw a mini-batch.
* ``losses``      -- evaluate the proposal/detector losses on a sample file,
                     with an optional finite-difference gradient check.

Every command is deterministic given its arguments and seeds; outputs are
byte-stable across runs. Exit codes: 0 success, 1 evaluation-domain error,
2 I/O, parse or option error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import re
import shutil
import signal
import string
import sys
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .evaluation import (
    DEFAULT_FPPI_REFS,
    VARIANTS,
    DetectionTable,
    EvalConfig,
    EvalReport,
    _format_distinct,
    evaluate,
    write_curve_csv,
)
# write_detections is unused here, but perfbench/spans.py wraps it under this module's name
from .formats import (
    ParseError,
    detection_lines,
    read_anchors,
    read_dataset,
    read_detections,
    read_samples,
    write_dataset,
    write_detections,
)
from .pairnms import paired_nms
from .regression import cross_entropy, detector_loss, rows_by_length, rpn_loss, smooth_l1
from .sampling import (
    AssignmentConfig,
    assign_detector,
    assign_rpn,
    generate_anchor_grid,
    sample_minibatch,
)
from .simulation import MockDetectorSpec, SceneSpec, ShiftSpec, apply_shift, generate_scene, mock_detect

__all__ = ["main"]

DEFAULT_SHIFT_SWEEP = (-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)


def format_eval_table(report: EvalReport) -> str:
    lines = ["variant     iou_thresh  log_avg_miss_rate"]
    for e in report.entries:
        lines.append(f"{e.variant:<11} {e.iou_thresh:<10.2f}  {e.lamr:.4f}")
    return "\n".join(lines) + "\n"


def format_sweep_table(rows: Sequence[tuple[float, dict[float, float]]],
                       thresholds: Sequence[float]) -> str:
    header = "shift_dx  " + "  ".join(f"mr_multimodal@{t:.2f}" for t in thresholds)
    lines = [header]
    for dx, cells in rows:
        vals = "  ".join(f"{cells[t]:<18.4f}" for t in thresholds)
        lines.append(f"{dx:<8.1f}  {vals}".rstrip())
    return "\n".join(lines) + "\n"


def format_sweep_csv(rows: Sequence[tuple[float, dict[float, float]]],
                     thresholds: Sequence[float]) -> str:
    lines = ["shift_dx,iou_thresh,lamr"]
    for dx, cells in rows:
        for t in thresholds:
            lines.append(f"{dx:.9g},{t:.9g},{cells[t]:.9g}")
    return "\n".join(lines) + "\n"


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_curve_svg(report: EvalReport) -> str:
    """Minimal static miss-rate plot: log-x FPPI with the nine reference
    gridlines, linear miss-rate y axis, one polyline per table cell."""
    width, height = 640, 480
    ml, mr_, mt, mb = 60, 20, 20, 50
    x0, x1 = math.log10(1e-3), math.log10(10.0)

    def px(fppi):
        # math.log10, not np.log10, whose vectorised paths may differ in the last bit
        logs = np.array(list(map(math.log10, np.clip(fppi, 1e-3, 10.0).tolist())))
        return ml + (logs - x0) / (x1 - x0) * (width - ml - mr_)

    def py(miss):
        return mt + (1.0 - miss) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for x in px(np.array(DEFAULT_FPPI_REFS)).tolist():
        parts.append(
            f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" y2="{height - mb}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr_}" height="{height - mt - mb}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    def two_decimals(to_svg):
        return lambda values: [f"{v:.2f}" for v in to_svg(values).tolist()]

    # px and py act elementwise, so they may run on each distinct value alone
    xs = _format_distinct([e.curve.fppi for e in report.entries], two_decimals(px))
    ys = _format_distinct([e.curve.miss_rate for e in report.entries], two_decimals(py))
    for i, (e, x_text, y_text) in enumerate(zip(report.entries, xs, ys)):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(map(",".join, zip(x_text, y_text)))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{ml + 8}" y="{mt + 16 + 14 * i}" font-size="11" fill="{color}">'
            f"{e.variant}@{e.iou_thresh:.2f} lamr={e.lamr:.4f}</text>"
        )
    parts.append(
        f'<text x="{width // 2}" y="{height - 12}" font-size="12" text-anchor="middle">'
        "false positives per image (log scale)</text>"
    )
    parts.append(
        f'<text x="16" y="{height // 2}" font-size="12" '
        f'transform="rotate(-90 16 {height // 2})" text-anchor="middle">miss rate</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# ranges of frames, one process each

# A fork and the return of its result cost 2.5-3 ms, so a range is given
# about twenty times that in work, at which the fork costs it under 5%: 1 MiB
# of detection lines (about 60 ns a byte to parse, suppress and format),
# 131,072 labelled anchors (about 0.4 us each to label and format) or 131,072
# curve points (about 0.5 us each to format and write as CSV).
MIN_RANGE_BYTES = 1 << 20
MIN_RANGE_LABELS = 1 << 17
MIN_RANGE_POINTS = 1 << 17


def _range_count(work: int, min_work: int) -> int:
    """One range per CPU this process may run on, each of at least
    ``min_work`` units of ``work``, and at least one range."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return 1
    return max(1, min(cpus, work // min_work))


def _split(n: int, count: int) -> list[tuple[int, int]]:
    """``range(n)`` as ``count`` consecutive non-empty ``(lo, hi)`` ranges
    of about equal length, or one empty range for ``n == 0``."""
    bounds = sorted({n * k // count for k in range(count + 1)})
    return list(zip(bounds, bounds[1:])) or [(0, 0)]


def _line_ranges(path) -> list[tuple[int, int]]:
    """A file's bytes as ``_range_count`` ranges, each moved on to the next
    line start; none if the file cannot be opened and sought."""
    try:
        with open(path, "rb") as fh:
            size = fh.seek(0, os.SEEK_END)
            bounds = {0, size}
            for lo, _ in _split(size, _range_count(size, MIN_RANGE_BYTES))[1:]:
                fh.seek(lo - 1)
                fh.readline()  # the line holding byte lo - 1, with its LF
                bounds.add(fh.tell())
    except OSError:
        return []
    bounds = sorted(bounds)
    return list(zip(bounds, bounds[1:])) or [(0, 0)]


def map_ranges(fn, ranges: list):
    """Yield ``fn(r)`` for each of ``ranges`` in order, as the serial loop
    would, where the first range runs in this process and each other range
    in a child forked for it, which sends its pickled result back through a
    pipe. All children start before the first result is yielded.

    ``fn`` must return a picklable value and leave nothing behind in its
    process that the caller needs. A child that fails in any way (an
    exception, a signal, a short pipe, no fork at all) returns nothing, and
    its range is run here instead, so the results and the first error
    raised are the serial loop's. Every child is reaped before the last
    result is yielded, before an error leaves, and when the generator is
    closed or dropped before its end.
    """
    children = []  # (pid, read end of its pipe), or None where no child was made
    try:
        for r in ranges[1:]:
            children.append(_fork(fn, r))
        for r in ranges[:1]:
            yield fn(r)
        for k, r in enumerate(ranges[1:]):
            child, children[k] = children[k], None
            sent = _collect(child) if child else None
            yield sent[0] if sent else fn(r)
    finally:
        for child in filter(None, children):  # left only if something raised or stopped early
            os.kill(child[0], signal.SIGKILL)
            _collect(child)


def _fork(fn, r) -> Optional[tuple[int, int]]:
    """A child computing ``fn(r)`` into a pipe: its pid and the read end."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:  # the child leaves only by _exit: no unwinding into the caller, no stdio flush
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump((fn(r),), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _collect(child: tuple[int, int]) -> Optional[tuple]:
    """The one-tuple a child sent, once it exited with status 0; otherwise None."""
    pid, read_fd = child
    try:
        with open(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:  # a child still writing fails on the closed pipe, and exits
        _, status = os.waitpid(pid, 0)
    return pickle.loads(data) if os.waitstatus_to_exitcode(status) == 0 else None


def _detection_ranges(path, fn) -> list:
    """``[fn(table) for each range's table]``, where ``table`` is
    :func:`read_detections` of one of ``path``'s :func:`_line_ranges` and
    ``fn`` returns a tuple whose first item is the table's frame ids; each
    range but the first is parsed in a child.

    If a range does not parse, or a frame id repeats across ranges, it is
    ``[fn(read_detections(path))]`` instead, which raises the file's first error.
    """
    def run(span):
        try:
            table = read_detections(path, *span)
        except (ParseError, OSError):
            return None
        return fn(table)

    results = list(map_ranges(run, _line_ranges(path)))
    frame_ids = [fid for r in results if r is not None for fid in r[0]]
    if results and None not in results and len(set(frame_ids)) == len(frame_ids):
        return results
    return [fn(read_detections(path))]


def _read_detections(path) -> DetectionTable:
    """:func:`read_detections` of ``path``, with its line ranges parsed in
    forked processes."""
    # the columns alone: a pickled table would also send its v, t and score views as copies
    parts = _detection_ranges(path, lambda t: (t.frame_ids, t.offsets, t.rows))
    frame_ids = [fid for ids, _, _ in parts for fid in ids]
    sizes = np.concatenate([[0]] + [np.diff(offsets) for _, offsets, _ in parts])
    return DetectionTable(frame_ids, np.cumsum(sizes), np.concatenate([rows for _, _, rows in parts]))


# ---------------------------------------------------------------------------
# subcommands


def cmd_evaluate(args) -> int:
    annotations = read_dataset(args.ground_truth)
    detections = _read_detections(args.detections)
    config = EvalConfig(
        iou_thresholds=tuple(args.iou_thresh),
        variants=tuple(args.variants),
        min_height=args.min_height,
    )
    report = evaluate(annotations, detections, config)
    del annotations, detections  # the writes below need only the report: they peak without inputs
    table = format_eval_table(report)
    out = None if args.out is None else Path(args.out)
    svg = None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        _write_text(out / "eval_table.txt", table)
        write_csv = partial(write_curve_csv, report, out / "eval_curves.csv")
        points = sum(len(e.curve.fppi) for e in report.entries)
        # the CSV and the SVG cost about the same per point: a child writes
        # the one while this process renders the other
        if args.format == "svg" and _range_count(2 * points, MIN_RANGE_POINTS) > 1:
            svg, _ = map_ranges(lambda task: task(), [partial(render_curve_svg, report), write_csv])
        else:
            write_csv()
    if svg is None and args.format == "svg":
        svg = render_curve_svg(report)  # after the CSV is written, so not held while it is
    if out is not None and svg is not None:
        _write_text(out / "eval_curves.svg", svg)
    if args.format == "csv" and out is not None:
        with open(out / "eval_curves.csv", encoding="utf-8", newline="") as fh:
            shutil.copyfileobj(fh, sys.stdout)  # the file written above, not formatted again
    elif args.format == "csv":
        write_curve_csv(report, sys.stdout)  # streamed: the CSV is never held as one string
    else:
        sys.stdout.write(table if svg is None else svg)
    return 0


def cmd_shift_sweep(args) -> int:
    annotations = read_dataset(args.ground_truth)
    thresholds = tuple(args.iou_thresh)
    config = EvalConfig(iou_thresholds=thresholds, variants=("multimodal",))
    mock = None if args.dets_pattern else MockDetectorSpec(
        mode=args.mock,
        center_noise_sigma=args.center_sigma,
        size_noise_sigma=args.size_sigma,
        miss_prob=args.miss_prob,
        fp_per_frame=args.fp_per_frame,
        score_noise_sigma=args.score_sigma,
        image_width=annotations.meta.image_width,
        image_height=annotations.meta.image_height,
        seed=args.seed,
    )
    rows, detections = [], None
    for dx in args.shift:
        shifted = apply_shift(annotations, ShiftSpec(dx, image_width=annotations.meta.image_width))
        if mock is None:
            detections = _read_detections(_dets_path(args.dets_pattern, dx))
        elif detections is None or mock.reads_thermal:
            # a detector blind to the thermal boxes gives one table at every shift
            detections = mock_detect(shifted, mock)
        report = evaluate(shifted, detections, config)
        rows.append((dx, {t: report.lamr("multimodal", t) for t in thresholds}))
    table = format_sweep_table(rows, thresholds)
    csv_text = format_sweep_csv(rows, thresholds)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_text(out / "shift_sweep.txt", table)
        _write_text(out / "shift_sweep.csv", csv_text)
    sys.stdout.write(csv_text if args.format == "csv" else table)
    return 0


def cmd_generate(args) -> int:
    spec = SceneSpec(
        num_frames=args.frames,
        peds_per_frame=args.peds_mean,
        height_range=(args.height_range[0], args.height_range[1]),
        width_over_height=args.aspect,
        fixed_width=args.width,
        misalign_range=(args.misalign[0], args.misalign[1]),
        image_width=args.image_size[0],
        image_height=args.image_size[1],
        x_margin=args.margin,
        seed=args.seed,
    )
    table = generate_scene(spec)
    table.meta = replace(table.meta, name=args.name)
    write_dataset(table, args.out)
    return 0


def cmd_nms(args) -> int:
    texts = _detection_ranges(args.detections, lambda table: (
        table.frame_ids, "".join(detection_lines(_nms_table(table, args)))))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(text for _, text in texts)
    return 0


def _nms_table(table, args):
    offsets = table.offsets.tolist()
    return table.take([
        lo + paired_nms(table.t[lo:hi], table.score[lo:hi], args.iou_thresh, args.max_keep)
        for lo, hi in zip(offsets, offsets[1:])
    ])


def cmd_assign(args) -> int:
    annotations = read_dataset(args.ground_truth)
    if args.anchors:
        anchors = read_anchors(args.anchors)
    else:
        anchors = generate_anchor_grid(
            annotations.meta.image_width,
            annotations.meta.image_height,
            stride=args.grid_stride,
            heights=tuple(args.grid_heights),
            aspect=args.grid_aspect,
        )
    cfg = AssignmentConfig(
        rpn_pos_thresh=args.rpn_pos,
        rpn_neg_thresh=args.rpn_neg,
        det_pos_thresh=args.det_pos,
        det_neg_lo=args.det_neg_lo,
        det_neg_hi=args.det_neg_hi,
        match_best_anchor_per_gt=args.force_best_anchor,
    )
    assign = assign_rpn if args.stage == "rpn" else assign_detector
    evaluable = np.flatnonzero(~annotations.ignore)
    gts = (annotations.v[evaluable], annotations.t[evaluable])
    # frame k's evaluable GTs are rows offsets[k]:offsets[k + 1] of gts
    offsets = np.searchsorted(evaluable, annotations.offsets).tolist()
    frame_ids = annotations.frame_ids

    def assign_frames(frames: tuple[int, int]) -> list[str]:
        lo, hi = frames
        lines = []
        for fid, g_lo, g_hi in zip(frame_ids[lo:hi], offsets[lo:hi], offsets[lo + 1:hi + 1]):
            result = assign(anchors, (gts[0][g_lo:g_hi], gts[1][g_lo:g_hi]), cfg)
            # the bytes json.dumps(record, separators=(",", ":")) writes, each
            # distinct value formatted once
            labels, matched = _format_distinct([result.labels, result.matched_gt], _int_text)
            (ioum,) = _format_distinct([result.max_ioum], _float_repr)
            line = (f'{{"frame":{json.dumps(fid)},"labels":[{",".join(labels)}],'
                    f'"matched_gt":[{",".join(matched)}],"max_ioum":[{",".join(ioum)}]')
            if args.sample_batch is not None:
                selected = sample_minibatch(
                    result, args.sample_batch, args.pos_fraction,
                    np.random.default_rng(args.seed),
                )
                line += f',"selected":[{",".join(str(i) for i in sorted(selected.tolist()))}]'
            lines.append(line + "}\n")
        return lines

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        work = len(frame_ids) * len(anchors[0])
        # each range is written as it comes in, line by line: no range's text is joined
        for lines in map_ranges(assign_frames, _split(len(frame_ids),
                                                      _range_count(work, MIN_RANGE_LABELS))):
            fh.writelines(lines)
    return 0


def _int_text(values: np.ndarray) -> list[str]:
    return [str(int(v)) for v in values.tolist()]


def _float_repr(values: np.ndarray) -> list[str]:
    """json's form of finite floats; overlaps of boxes within ±1e100 are finite."""
    return list(map(float.__repr__, values.tolist()))


def _worst_gradient_error(loss, x: np.ndarray, analytic: np.ndarray, eps: float = 1e-5) -> float:
    """The largest |analytic - central difference of ``loss`` at ``x``| over
    the coordinates on the last axis of ``x``; ``loss`` maps ``x`` to one
    value per row, and each coordinate is perturbed for all rows at once."""
    num = np.empty_like(analytic)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(x.shape[-1]):
            hi, lo = x.copy(), x.copy()
            hi[..., i] += eps
            lo[..., i] -= eps
            num[..., i] = (loss(hi) - loss(lo)) / (2 * eps)
        # fmax skips a NaN difference (an infinite loss on both sides) instead of returning it
        return float(np.fmax.reduce(np.abs(analytic - num), axis=None, initial=0.0))


def _gradient_check_lines(pred, target, scores, true_class) -> list[str]:
    """``pred``/``target``: the ``(p, 2, 4)`` offsets of every regressed sample."""
    # the losses are called through this module's names, which a tracer may wrap
    sl1 = _worst_gradient_error(lambda x: smooth_l1(x, target)[0], pred, smooth_l1(pred, target)[1])
    ce = 0.0
    for group, z in rows_by_length(scores):
        labels = true_class[group]
        ce = max(ce, _worst_gradient_error(lambda x: cross_entropy(x, labels)[0], z,
                                           cross_entropy(z, labels)[1]))
    return [f"grad_check smooth_l1 pairs={2 * len(pred)} max_abs_err={sl1:.3e}",
            f"grad_check cross_entropy inputs={len(scores)} max_abs_err={ce:.3e}"]


def cmd_losses(args) -> int:
    rpn, detector, sections = read_samples(args.samples)
    (logits, labels, rpn_rows, cfg), (scores, true_class, det_rows, lam) = rpn, detector
    if args.lam is not None:
        cfg = replace(cfg, lam=args.lam)
        lam = args.lam
    # (p, 2, 4) pred and target offsets stacked as (visible, thermal): the RPN
    # positives', then the foreground detector samples'
    pred, target = np.array(rpn_rows + det_rows, dtype=np.float64).reshape(-1, 2, 2, 4).swapaxes(0, 1)
    p = len(rpn_rows)
    lines = []
    if "rpn" in sections:
        lines.append(f"rpn_loss {rpn_loss(logits, labels, pred[:p], target[:p], cfg):.9g}")
    if "detector" in sections:
        losses = detector_loss(scores, true_class, pred[p:], target[p:], lam).tolist()
        lines.extend(f"detector_loss[{k}] {loss:.9g}" for k, loss in enumerate(losses))
    if args.grad_check:
        lines.extend(_gradient_check_lines(pred, target, scores, true_class))
    text = "\n".join(lines) + "\n" if lines else ""
    if args.out is not None:
        _write_text(Path(args.out), text)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser


def _checked(convert, ok, rule: str):
    """An argparse ``type``: ``convert(text)``, refused unless ``ok`` holds
    for it, so a bad value exits 2 naming its option."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r}: must be {rule}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid float value" names it
    return parse


_fraction = _checked(float, lambda x: 0.0 <= x <= 1.0, "a number in [0, 1]")
_iou_thresh = _checked(float, lambda x: 0.0 < x <= 1.0, "a number in (0, 1]")
_open_fraction = _checked(float, lambda x: 0.0 < x < 1.0, "a number in (0, 1)")
_non_negative = _checked(float, lambda x: 0.0 <= x < math.inf, "a finite number >= 0")
_positive = _checked(float, lambda x: 0.0 < x < math.inf, "a finite number > 0")
_finite = _checked(float, math.isfinite, "a finite number")
# within Box's bound of ±1e100: a coordinate, and a positive image extent
_coordinate = _checked(float, lambda x: abs(x) <= 1e100, "a number within ±1e100")
_extent = _checked(float, lambda x: 0.0 < x <= 1e100, "a number in (0, 1e100]")
_count = _checked(int, lambda n: n >= 0, "an integer >= 0")
# a batch beyond the largest float would overflow sample_minibatch's batch * pos_fraction
_batch_size = _checked(int, lambda n: 1 <= n <= sys.float_info.max,
                       "an integer >= 1 and at most the largest float")
# what argparse takes for a negative number, not an option string: its own
# pattern misses exponent forms ("-1e1", "-.5e1") and "-inf"; no option
# string here starts with a digit, ".", "inf" or "nan"
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _dets_path(pattern: str, dx: float) -> str:
    """The detection file of shift ``dx``; an integral shift is formatted as an int."""
    return pattern.format(dx=int(dx) if dx.is_integer() else dx)


def _check_parsed(parser: argparse.ArgumentParser, args) -> None:
    """The rules on a whole option list, or across options, that no argparse
    ``type`` sees; a violation exits 2 naming the option, before any file is read."""
    for dest in ("variants", "iou_thresh", "shift"):
        values = getattr(args, dest, None)
        if isinstance(values, list) and len(set(values)) < len(values):  # nms: one --iou-thresh
            repeated = next(v for v, n in Counter(values).items() if n > 1)
            parser.error(f"argument --{dest.replace('_', '-')}: {repeated!r} is given more than once")
    if args.command == "assign":  # the bands AssignmentConfig takes
        if args.rpn_neg > args.rpn_pos:
            parser.error(f"argument --rpn-neg: {args.rpn_neg!r} must not exceed --rpn-pos {args.rpn_pos!r}")
        if not args.det_neg_lo < args.det_neg_hi <= args.det_pos:
            parser.error(f"argument --det-neg-hi: {args.det_neg_hi!r} must exceed --det-neg-lo "
                         f"{args.det_neg_lo!r} and not exceed --det-pos {args.det_pos!r}")
    if args.command == "generate" and not args.height_range[1] < args.image_size[1]:
        parser.error(f"argument --height-range: {args.height_range[1]!r} must be below "
                     f"--image-size HEIGHT {args.image_size[1]!r}")
    pattern = getattr(args, "dets_pattern", None)
    if not pattern:
        return
    try:
        names = {name for _, name, _, _ in string.Formatter().parse(pattern) if name is not None}
        if names - {"dx"}:
            raise ValueError("the only placeholder allowed is {dx}")
    except ValueError as exc:
        parser.error(f"argument --dets-pattern: {pattern!r}: {exc}")
    for dx in args.shift:  # formatted with each shift as cmd_shift_sweep formats it
        try:
            _dets_path(pattern, dx)
        except (ValueError, KeyError, IndexError, OverflowError) as exc:
            parser.error(f"argument --dets-pattern: {pattern!r} with --shift {dx:g}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairbox",
        description="Paired visible/thermal bounding-box toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="score detections against annotations")
    p_eval.add_argument("ground_truth", help="annotation JSONL file")
    p_eval.add_argument("detections", help="detection JSONL file")
    p_eval.add_argument("--iou-thresh", type=_iou_thresh, nargs="+", default=[0.5, 0.7])
    p_eval.add_argument("--variants", nargs="+", choices=VARIANTS, default=list(VARIANTS))
    p_eval.add_argument("--min-height", type=_non_negative, default=55.0)
    p_eval.add_argument("--format", choices=("table", "csv", "svg"), default="table")
    p_eval.add_argument("--out", default=None, help="directory for table/CSV/SVG outputs")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("shift-sweep", help="miss rate vs thermal shift")
    p_sweep.add_argument("ground_truth")
    p_sweep.add_argument("--shift", type=_finite, nargs="+", default=list(DEFAULT_SHIFT_SWEEP))
    p_sweep.add_argument("--iou-thresh", type=_iou_thresh, nargs="+", default=[0.5, 0.7])
    p_sweep.add_argument("--mock", choices=("paired", "single_box"), default="paired")
    p_sweep.add_argument("--center-sigma", type=_non_negative, default=0.0)
    p_sweep.add_argument("--size-sigma", type=_non_negative, default=0.0)
    p_sweep.add_argument("--miss-prob", type=_fraction, default=0.0)
    p_sweep.add_argument("--fp-per-frame", type=_non_negative, default=0.0)
    p_sweep.add_argument("--score-sigma", type=_non_negative, default=0.0)
    p_sweep.add_argument("--seed", type=_count, default=0)
    p_sweep.add_argument(
        "--dets-pattern",
        default=None,
        help="per-shift detection file template with a {dx} placeholder "
             "(overrides the mock detector)",
    )
    p_sweep.add_argument("--format", choices=("table", "csv"), default="table")
    p_sweep.add_argument("--out", default=None, help="directory for table/CSV outputs")
    p_sweep.set_defaults(func=cmd_shift_sweep)

    p_gen = sub.add_parser("generate", help="write a synthetic paired dataset")
    p_gen.add_argument("--frames", type=_count, required=True)
    p_gen.add_argument("--peds-mean", type=_non_negative, default=2.0)
    p_gen.add_argument("--height-range", type=_positive, nargs=2, default=[60.0, 120.0])
    p_gen.add_argument("--width", type=_positive, default=None, help="fixed box width")
    p_gen.add_argument("--aspect", type=_positive, default=0.41,
                       help="width/height when --width unset")
    p_gen.add_argument("--misalign", type=_coordinate, nargs=2, default=[0.0, 0.0])
    p_gen.add_argument("--image-size", type=_extent, nargs=2, default=[640.0, 512.0],
                       metavar=("WIDTH", "HEIGHT"))
    p_gen.add_argument("--margin", type=_non_negative, default=24.0)
    p_gen.add_argument("--seed", type=_count, default=0)
    p_gen.add_argument("--name", default="synthetic")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_nms = sub.add_parser("nms", help="apply paired NMS to a detection file")
    p_nms.add_argument("detections")
    p_nms.add_argument("--iou-thresh", type=_fraction, default=0.5,
                       help="suppression threshold (default: final-detection setting; "
                            "use the proposal setting 0.7 for proposal-stage NMS)")
    p_nms.add_argument("--max-keep", type=_count, default=None)
    p_nms.add_argument("--out", required=True)
    p_nms.set_defaults(func=cmd_nms)

    p_assign = sub.add_parser("assign", help="label anchor pairs against ground truth")
    p_assign.add_argument("ground_truth")
    p_assign.add_argument("--anchors", default=None,
                          help="JSON file with an 'anchors' list of v/t boxes")
    p_assign.add_argument("--grid-stride", type=_positive, default=16.0)
    p_assign.add_argument("--grid-heights", type=_positive, nargs="+", default=[50.0, 100.0, 200.0])
    p_assign.add_argument("--grid-aspect", type=_positive, default=0.41)
    p_assign.add_argument("--stage", choices=("rpn", "detector"), default="rpn")
    p_assign.add_argument("--rpn-pos", type=_fraction, default=0.63)
    p_assign.add_argument("--rpn-neg", type=_fraction, default=0.3)
    p_assign.add_argument("--det-pos", type=_fraction, default=0.5)
    p_assign.add_argument("--det-neg-lo", type=_fraction, default=0.1)
    p_assign.add_argument("--det-neg-hi", type=_fraction, default=0.5)
    p_assign.add_argument("--force-best-anchor", action="store_true")
    p_assign.add_argument("--sample-batch", type=_batch_size, default=None,
                          help="also draw a mini-batch of this size")
    p_assign.add_argument("--pos-fraction", type=_open_fraction, default=0.5)
    p_assign.add_argument("--seed", type=_count, default=0)
    p_assign.add_argument("--out", required=True)
    p_assign.set_defaults(func=cmd_assign)

    p_loss = sub.add_parser("losses", help="evaluate losses on a JSON sample file")
    p_loss.add_argument("samples")
    p_loss.add_argument("--lambda", dest="lam", type=_non_negative, default=None,
                        help="override the regression weight")
    p_loss.add_argument("--grad-check", action="store_true")
    p_loss.add_argument("--out", default=None)
    p_loss.set_defaults(func=cmd_losses)

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_parsed(parser, args)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
